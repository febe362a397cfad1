"""Permutations, vincular patterns, and prefix-closed enumeration.

A permutation is a tuple of distinct values 1..n in one-line notation.
A vincular pattern is a pattern permutation together with a set of
adjacency constraints: writing the pattern as a digit string, a bracketed
block like "2[41]3" requires the bracketed entries (here 4 and 1) to sit
in consecutive positions of the host permutation.  An occurrence is an
index subsequence of the host, order-isomorphic to the pattern, whose
bracketed entries are adjacent in the host.  A class names its patterns
by these bracket texts, as the paper writes them, and the texts select
its right-end step (below); no parsed pattern object is kept.

Right insertion pi . a appends a new smallest-to-largest value a in
1..n+1 at the end, shifting every old value >= a up by one.  Every class
Av(P) of vincular patterns is prefix-closed under this growth (deleting
the last point of an avoider leaves an avoider), so the avoiders of each
size form a generating tree: the children of pi are the pi . a for the
"active sites" a.  Enumeration grows that tree a level at a time
(``_levels``), one entry per canonical node state with its multiplicity,
and streams the last level's children through their masks alone, never
stored (``enumerate_class``).

A node's forbidden mask has bit a-1 set when pi . a leaves the class.
The prefix of pi . a is order-isomorphic to pi, so a new occurrence of a
pattern must use the inserted last position as its final entry.  Hence
every class finds a child's mask from its parent's node and a, with no
tuple built.  For the pair patterns and [14]23, inserting a free value a
splits slot a: the old witnesses forbid neither half, as a is free, and
every slot above moves up one.  What the new point adds depends on the
pattern:

- x[yz]w, the four pair patterns: the one new adjacent pair, the old
  last value and a, has every other value before it, so it forbids its
  whole value band, or that band moved down one, by its descent or
  ascent flags.  Any set of the four shares one step.
- 231: a free a lies above every value with a larger value to its
  right, and now every value below a has one, so the child forbids
  exactly 1..a-1.
- [14]23: the new point plays the final 3, above a later value m inside
  an adjacent ascent (lo, hi), which forbids bits m..hi-1.  The node
  keeps a stair, the adjacent ascents that no other ascent contains,
  sorted so that lo and hi both increase.  The point a is the m of every
  ascent around it, and the last stair ascent with lo < a reaches
  highest.  When last < a, the new ascent (last, a) joins the stair and
  drops those it contains; none contains it, since a is free.

A node is then (n, last, mask, stair); only [14]23 fills the stair, so
only its step has a stair part beside its mask part.  A subtree depends
on nothing else, and not even on which slots are forbidden, only on the
free ones and where last and the stair sit among them: the ECO view of a
generating tree (Barcucci, Del Lungo, Pergola and Pinzani, 1999).  So
nodes of one size that share a canonical state (``_canonical``) are
counted once, times their number.  That state is read off the node,
never off a succession rule, so the count stays a brute-force route.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from itertools import count, islice
from typing import Callable, Iterable, Iterator, NamedTuple

Label = tuple[int, int]

# A mask step maps a node's mask, its stair, its last value and a free
# insertion value a to the mask of the child p . a.  Witnesses that pin the
# new point between host values lo < hi forbid bits lo..hi-1.
Stair = tuple[tuple[int, int], ...]
MaskStep = Callable[[int, Stair, int, int], int]
State = tuple[int, int, Stair]  # (last, mask, stair)

# The four patterns x[yz]w as flags of one pair step: bits 0-1 act on a
# descent, bits 2-3 on an ascent; the low bit of each half puts the new
# point above the witness (it plays 3), the high bit below (it plays 2).
_PAIR_FLAGS: dict[str, int] = {"2[41]3": 1, "3[41]2": 2, "2[14]3": 4, "3[14]2": 8}


def _pair_step(flags: int) -> MaskStep:
    """The mask step for the OR of the pair patterns in flags, in O(1) big-int work."""
    down, up = flags & 3, flags >> 2

    def step(mask: int, stair: Stair, last: int, a: int) -> int:
        # a splits slot a in two; the old pairs forbid neither half, as a
        # is free, and every slot above moves up one
        low = mask & ((1 << (a - 1)) - 1)
        mask = low | ((mask ^ low) << 1)
        # the new pair (last renormalised, a): every other value precedes
        # it, so its witnesses are the whole band x strictly between the
        # two, and its two forbidden runs are x itself and x >> 1
        if last >= a:
            f, x = down, (1 << (last + 1)) - (2 << a)
        else:
            f, x = up, (1 << a) - (2 << last)
        return mask | (x if f & 1 else 0) | (x >> 1 if f & 2 else 0)

    return step


def _step_231(mask: int, stair: Stair, last: int, a: int) -> int:
    # the largest value with a larger value to its right plays 2: a free a
    # is above all of them, and every value below a now has a to its right
    return (1 << (a - 1)) - 1


def _stair_mask(mask: int, stair: Stair, last: int, a: int) -> int:
    # [14]23: split slot a as the pair step does
    low = mask & ((1 << (a - 1)) - 1)
    mask = low | ((mask ^ low) << 1)
    # a becomes the later value m of every ascent around it, and the last
    # stair ascent with lo < a reaches highest: the child forbids bits
    # a..hi, as that hi moves up to hi + 1
    i = bisect_left(stair, (a,))
    if i and stair[i - 1][1] >= a:
        mask |= (2 << stair[i - 1][1]) - (1 << a)
    return mask


def _new_stair(stair: Stair, last: int, a: int) -> Stair:
    moved = [(lo + (lo >= a), hi + (hi >= a)) for lo, hi in stair]
    if last < a:
        # (last, a) joins and drops the ascents inside it.  None holds it:
        # last inside an older ascent would have forbidden a up to its hi.
        # So the ascents with lo < last end below a and sort before it.
        moved = ([s for s in moved if s[0] < last] + [(last, a)]
                 + [s for s in moved if s[1] > a])
    return tuple(moved)


_STEPS: dict[str, tuple] = {"231": (_step_231, None), "[14]23": (_stair_mask, _new_stair)}


class AvoidanceClass(NamedTuple("AvoidanceClass", [("name", str), ("patterns", tuple[str, ...])])):
    """A named family Av(patterns), its patterns given by their bracket
    texts, which select one right-end ``mask_step`` and, for [14]23, a
    ``stair_step``: any set of the four pair patterns, or a single other one."""

    def __new__(cls, name: str, patterns: tuple[str, ...]) -> AvoidanceClass:
        self = super().__new__(cls, name, patterns)
        distinct = set(patterns)
        if distinct <= _PAIR_FLAGS.keys():
            self.mask_step, self.stair_step = _pair_step(sum(map(_PAIR_FLAGS.get, distinct))), None
        elif len(distinct) == 1 and patterns[0] in _STEPS:
            self.mask_step, self.stair_step = _STEPS[patterns[0]]
        else:
            raise ValueError(f"no right-end step for pattern(s) {', '.join(patterns)}")
        return self

    def step(self, mask: int, stair: Stair, last: int, a: int) -> tuple[int, Stair]:
        """The mask and stair of the child p . a of a node (last, mask, stair)."""
        moved = self.stair_step(stair, last, a) if self.stair_step else stair
        return self.mask_step(mask, stair, last, a), moved


CLASSES: dict[str, AvoidanceClass] = {
    "semi": AvoidanceClass("semi", ("2[41]3",)),
    "plane": AvoidanceClass("plane", ("2[14]3",)),
    "baxter": AvoidanceClass("baxter", ("2[41]3", "3[14]2")),
    "twisted": AvoidanceClass("twisted", ("2[41]3", "3[41]2")),
    "strong": AvoidanceClass("strong", ("2[41]3", "3[14]2", "3[41]2")),
    "av231": AvoidanceClass("av231", ("231",)),
    "exp1423": AvoidanceClass("exp1423", ("[14]23",)),
}


def _canonical(n: int, last: int, mask: int, stair: Stair) -> State:
    """The state of a size-n node with its forbidden slots moved to the bottom.

    A subtree depends only on the free slots and where last and the stair
    sit among them: forbidden slots never free up, and a step compares
    values only with free slots.  So the f forbidden slots go to the
    bottom (mask 2^f - 1), a value v becomes f plus the free slots at or
    below it, and an ascent with no free slot inside it, which forbids
    nothing, is dropped.  Of ascents that share a lo only the last can
    fire, and of those that share a hi the first fires wherever the others
    do, as far up, so only those two are kept.  The slots go to the
    bottom, not the top, because a 231 child's mask is a prefix.

    Two semi nodes with label (h, k) = (1, 3), and an exp1423 node whose
    ascent (3, 5) spans no free slot:

    >>> _canonical(4, 1, 0b00100, ()), _canonical(4, 1, 0b01000, ())
    ((2, 1, ()), (2, 1, ()))
    >>> _canonical(5, 2, 0b011100, ((1, 4), (3, 5)))
    (5, 7, ((4, 5),))
    """
    free = ~mask & ((1 << (n + 1)) - 1)
    f = n + 1 - free.bit_count()

    def rank(v: int) -> int:
        return f + (free & ((1 << v) - 1)).bit_count()

    if stair:
        up = [(rank(lo), rank(hi)) for lo, hi in stair]
        up = [s for i, s in enumerate(up)
              if s[0] < s[1] and (i + 1 == len(up) or up[i + 1][0] != s[0])]
        stair = tuple(s for i, s in enumerate(up) if i == 0 or up[i - 1][1] != s[1])
    return rank(last), (1 << f) - 1, stair


def _grow(step: Callable, states: Iterable[tuple[State, int]], n: int) -> Iterator[tuple]:
    """(a, step(mask, stair, last, a), m) per child p . a of each ((last, mask, stair), m)."""
    for (last, mask, stair), m in states:
        for a in range(1, n + 2):
            if not mask >> (a - 1) & 1:
                yield a, step(mask, stair, last, a), m


def _levels(cls: AvoidanceClass) -> Iterator[dict[State, int]]:
    """The levels {state: m} of sizes 1, 2, ..., each grown when asked for:
    m avoiders in each `_canonical` state.  Nodes that share a canonical
    state root isomorphic subtrees, so they are counted once, times m.
    exp1423's avoiders of size 10 fill 125,597 raw states but 8,829
    canonical ones."""
    level: dict[State, int] = {(1, 0, ()): 1}
    for n in count(1):
        yield level
        merged: Counter[State] = Counter()
        for a, (mask, stair), m in _grow(cls.step, level.items(), n):
            merged[_canonical(n + 1, a, mask, stair)] += m
        level = merged


def enumerate_class(cls: AvoidanceClass, n_max: int) -> list[int]:
    """Counts of avoiders of sizes 1..n_max by generating-tree growth: the
    level sums up to size n_max - 2, then the children of size n_max - 1
    streamed through one `_grow` of the mask step alone, which builds no
    stair and stores nothing: their free slots count size n_max.

    >>> enumerate_class(CLASSES["semi"], 6)
    [1, 2, 6, 23, 104, 530]
    >>> enumerate_class(CLASSES["strong"], 6)
    [1, 2, 6, 21, 82, 346]
    >>> enumerate_class(CLASSES["exp1423"], 6)
    [1, 2, 6, 23, 104, 530]
    """
    if n_max < 3:  # the root (1, 0, ()) has no forbidden slot
        return [1, 2][:max(n_max, 0)]
    counts = []
    for level in islice(_levels(cls), n_max - 2):
        counts.append(sum(level.values()))
    below = top = 0
    for _, mask, m in _grow(cls.mask_step, level.items(), n_max - 2):
        below += m
        top += m * (~mask & ((1 << n_max) - 1)).bit_count()
    return counts + [below, top]


def censuses(cls: AvoidanceClass) -> Iterator[dict[Label, int]]:
    """The multisets of labels (h, k) over the avoiders of sizes 1, 2, ...
    of a class of pair patterns: h counts active sites <= the last value
    and k those above it.  A canonical state's f forbidden slots are 1..f,
    so h = last - f and k = n + 1 - last, and each level of `_levels` is
    re-keyed, one label per state.  Other patterns raise ValueError."""
    if not set(cls.patterns) <= _PAIR_FLAGS.keys():
        raise ValueError(f"class {cls.name} carries no (h, k) label")
    for n, level in enumerate(_levels(cls), 1):
        yield {(last - mask.bit_length(), n + 1 - last): m for (last, mask, _), m in level.items()}


def label_census(cls: AvoidanceClass, n: int) -> dict[Label, int]:
    """The census of `censuses` at avoider size n >= 1.

    >>> sorted(label_census(CLASSES["semi"], 3).items())
    [((1, 2), 1), ((1, 3), 1), ((2, 2), 2), ((3, 1), 2)]
    """
    if n < 1:
        raise ValueError(f"avoider size must be >= 1, got {n}")
    return next(islice(censuses(cls), n - 1, None))
