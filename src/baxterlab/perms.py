"""Permutations, vincular patterns, and prefix-closed enumeration.

A permutation is a tuple of distinct values 1..n in one-line notation.
A vincular pattern is a pattern permutation together with a set of
adjacency constraints: writing the pattern as a digit string, a bracketed
block like "2[41]3" requires the bracketed entries (here 4 and 1) to sit
in consecutive positions of the host permutation.  An occurrence is an
index subsequence of the host, order-isomorphic to the pattern, whose
bracketed entries are adjacent in the host.

Right insertion pi . a appends a new smallest-to-largest value a in
1..n+1 at the end, shifting every old value >= a up by one.  Every class
Av(P) of vincular patterns is prefix-closed under this growth (deleting
the last point of an avoider leaves an avoider), so the avoiders of each
size form a generating tree: the children of pi are the pi . a for the
"active sites" a.  Enumeration walks that tree depth first.

The active sites are found without testing each insertion separately.
Since the prefix of pi . a is order-isomorphic to pi, a new occurrence of
a pattern q must use the inserted last position as the final pattern
entry.  The four patterns x[yz]w share one O(n) scan: walk the adjacent
pairs of pi with a bitset of the values before the pair; on a descent or
an ascent, the lowest or highest of them inside the pair's value interval
bounds the widest band of insertion values the pair forbids.  [14]23 is
that scan for 2[41]3 run on pi reversed, and 231 needs only a
right-to-left running maximum.  A class binds one scan: the pair scan
for any set of the four, or the scan of its one other pattern.
``contains`` is the reference matcher.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

Perm = tuple[int, ...]
Label = tuple[int, int]


def is_permutation(p: Perm) -> bool:
    """True iff p is a rearrangement of 1..len(p)."""
    return sorted(p) == list(range(1, len(p) + 1))


class VincularPattern:
    """A pattern permutation plus 1-based adjacency pairs.

    ``adjacent`` contains i whenever pattern positions i and i+1 must map
    to consecutive host positions.  With ``adjacent`` empty this is a
    classical pattern.
    """

    __slots__ = ("values", "adjacent", "text", "size", "_adj_prev", "_cmps")

    def __init__(self, values: Perm, adjacent: frozenset[int], text: str = ""):
        if not is_permutation(values):
            raise ValueError(f"pattern {text or values!r} is not a permutation")
        m = len(values)
        if not all(1 <= i <= m - 1 for i in adjacent):
            raise ValueError(f"adjacency {sorted(adjacent)} out of range 1..{m - 1}")
        self.values = values
        self.adjacent = adjacent
        self.text = text or "".join(map(str, values))
        self.size = m
        # slot t (0-based) must sit immediately after slot t-1
        self._adj_prev = tuple(t in adjacent for t in range(m))
        # incremental order constraints: for slot t, pairs (s, values[t] > values[s])
        self._cmps = tuple(
            tuple((s, values[t] > values[s]) for s in range(t))
            for t in range(m)
        )

    def __repr__(self) -> str:
        return f"VincularPattern({self.text!r})"

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, VincularPattern)
                and self.values == other.values and self.adjacent == other.adjacent)

    def __hash__(self) -> int:
        return hash((self.values, self.adjacent))


def parse_pattern(text: str) -> VincularPattern:
    """Parse a pattern string with bracketed adjacent blocks.

    Single-digit values only; a block [..] marks its entries as occupying
    consecutive host positions.

    >>> parse_pattern("2[41]3").adjacent == frozenset({2})
    True
    >>> parse_pattern("231").adjacent == frozenset()
    True
    >>> parse_pattern("[14]23").values
    (1, 4, 2, 3)
    """
    values: list[int] = []
    adjacent: set[int] = set()
    depth = 0
    block_start = 0
    for ch in text:
        if ch == "[":
            if depth:
                raise ValueError(f"nested brackets in {text!r}")
            depth = 1
            block_start = len(values) + 1
        elif ch == "]":
            if not depth:
                raise ValueError(f"unbalanced brackets in {text!r}")
            depth = 0
            adjacent.update(range(block_start, len(values)))
        elif ch.isdigit():
            values.append(int(ch))
        else:
            raise ValueError(f"bad character {ch!r} in pattern {text!r}")
    if depth:
        raise ValueError(f"unbalanced brackets in {text!r}")
    return VincularPattern(tuple(values), frozenset(adjacent), text)


PATTERNS: dict[str, VincularPattern] = {
    s: parse_pattern(s)
    for s in ("2[41]3", "3[14]2", "3[41]2", "2[14]3", "[14]23", "231")
}

# A scan maps an avoider p to the bitmask of insertion values a (bit a-1)
# for which p . a has an occurrence ending at the new point.  Witnesses that
# pin the new point between host values lo < hi forbid bits lo..hi-1.
# ``x = seen & ((1 << hi) - (2 << lo))`` holds the seen values strictly
# between lo and hi; the lowest is the bit ``x & -x``, the highest
# x.bit_length() - 1.
Scan = Callable[[Perm], int]

# The four patterns x[yz]w as flags of one pair scan: bits 0-1 act on a
# descent, bits 2-3 on an ascent; the low bit of each half puts the new
# point above the witness (it plays 3), the high bit below (it plays 2).
_PAIR_FLAGS: dict[VincularPattern, int] = {
    PATTERNS["2[41]3"]: 1, PATTERNS["3[41]2"]: 2,
    PATTERNS["2[14]3"]: 4, PATTERNS["3[14]2"]: 8,
}


def _pair_scan(flags: int) -> Scan:
    """One pass over adjacent pairs for the OR of the patterns in flags."""
    down, up = flags & 3, flags >> 2

    def scan(p: Perm) -> int:
        seen = mask = 0  # seen: the values before the pair
        for u, v in zip(p, p[1:]):
            if u > v:
                f, hi, lo = down, u, v
            else:
                f, hi, lo = up, v, u
            if f and (x := seen & ((1 << hi) - (2 << lo))):
                if f & 1:
                    mask |= (1 << hi) - (x & -x)
                if f & 2:
                    mask |= (1 << (x.bit_length() - 1)) - (1 << lo)
            seen |= 1 << u
        return mask

    return scan


def _scan_231(p: Perm) -> int:
    # the largest value with a larger value to its right plays 2
    top = hi = 0
    for v in reversed(p):
        if v > top:
            top = v
        elif v > hi:
            hi = v
    return (1 << hi) - 1


_SCANS: dict[VincularPattern, Scan] = {
    **{q: _pair_scan(f) for q, f in _PAIR_FLAGS.items()},
    # [14]23 is 2[41]3 read right to left: a later value inside the ascent plays 2
    PATTERNS["[14]23"]: lambda p, semi=_pair_scan(1): semi(p[::-1]),
    PATTERNS["231"]: _scan_231,
}


@dataclass(frozen=True)
class AvoidanceClass:
    """A named family Av(patterns) whose patterns share one anchored scan:
    any set of the four pair patterns, or a single other pattern."""

    name: str
    patterns: tuple[VincularPattern, ...]
    scan: Scan = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        distinct = set(self.patterns)
        if distinct <= _PAIR_FLAGS.keys():
            scan = _pair_scan(sum(_PAIR_FLAGS[q] for q in distinct))
        elif len(distinct) == 1 and self.patterns[0] in _SCANS:
            scan = _SCANS[self.patterns[0]]
        else:
            texts = ", ".join(q.text for q in self.patterns)
            raise ValueError(f"no anchored scan for pattern(s) {texts}")
        object.__setattr__(self, "scan", scan)


CLASSES: dict[str, AvoidanceClass] = {
    "semi": AvoidanceClass("semi", (PATTERNS["2[41]3"],)),
    "plane": AvoidanceClass("plane", (PATTERNS["2[14]3"],)),
    "baxter": AvoidanceClass("baxter", (PATTERNS["2[41]3"], PATTERNS["3[14]2"])),
    "twisted": AvoidanceClass("twisted", (PATTERNS["2[41]3"], PATTERNS["3[41]2"])),
    "strong": AvoidanceClass(
        "strong", (PATTERNS["2[41]3"], PATTERNS["3[14]2"], PATTERNS["3[41]2"])),
    "av231": AvoidanceClass("av231", (PATTERNS["231"],)),
    "exp1423": AvoidanceClass("exp1423", (PATTERNS["[14]23"],)),
}

# classes whose generating tree carries a two-part (h, k) label
LABELLED_CLASSES = ("semi", "plane", "baxter", "twisted", "strong")


def contains(p: Perm, q: VincularPattern) -> bool:
    """True iff p has an occurrence of the vincular pattern q.

    Plain backtracking over index subsequences with adjacency pruning.

    >>> contains((2, 4, 1, 3), PATTERNS["2[41]3"])
    True
    >>> contains((1,), PATTERNS["231"])
    False
    >>> contains((3, 4, 1, 2), PATTERNS["3[41]2"])
    True
    """
    n = len(p)
    m = q.size
    if m > n:
        return False
    adj_prev = q._adj_prev
    cmps = q._cmps
    chosen = [0] * m
    vals = [0] * m

    def place(t: int, start: int) -> bool:
        if t == m:
            return True
        if adj_prev[t]:
            nxt = chosen[t - 1] + 1
            cand = range(nxt, nxt + 1) if nxt < n else range(0)
        else:
            cand = range(start, n - (m - 1 - t))
        for j in cand:
            v = p[j]
            for s, greater in cmps[t]:
                if (v > vals[s]) != greater:
                    break
            else:
                chosen[t] = j
                vals[t] = v
                if place(t + 1, j + 1):
                    return True
        return False

    return place(0, 0)


def avoids(p: Perm, cls: AvoidanceClass) -> bool:
    return not any(contains(p, q) for q in cls.patterns)


def right_insert(p: Perm, a: int) -> Perm:
    """The renormalizing right insertion pi . a.

    >>> right_insert((1, 4, 2, 3), 3)
    (1, 5, 2, 4, 3)
    >>> right_insert((1,), 2)
    (1, 2)
    >>> right_insert((2, 1), 2)
    (3, 1, 2)
    """
    if not 1 <= a <= len(p) + 1:
        raise ValueError(f"insertion value {a} out of range 1..{len(p) + 1}")
    return tuple(v + 1 if v >= a else v for v in p) + (a,)


def active_sites(p: Perm, cls: AvoidanceClass) -> list[int]:
    """All a with right_insert(p, a) still in the class, sorted.

    >>> active_sites((1,), CLASSES["semi"])
    [1, 2]
    """
    if not avoids(p, cls):
        raise ValueError(f"{p} is not in class {cls.name}")
    mask = cls.scan(p)
    return [a for a in range(1, len(p) + 2) if not (mask >> (a - 1)) & 1]


def label_of(p: Perm, cls: AvoidanceClass) -> Label:
    """Generating-tree label (h, k) of an avoider.

    h counts active sites <= the last value and k those above it; the
    plane class swaps the two roles.

    >>> label_of((1,), CLASSES["semi"])
    (1, 1)
    >>> label_of((1, 2), CLASSES["semi"])
    (2, 1)
    >>> label_of((2, 1), CLASSES["semi"])
    (1, 2)
    """
    if cls.name not in LABELLED_CLASSES:
        raise ValueError(f"class {cls.name} carries no (h, k) label")
    if not avoids(p, cls):
        raise ValueError(f"{p} is not in class {cls.name}")
    return _label(p, cls.scan, cls.name == "plane")


def _label(p: Perm, scan: Scan, swap: bool) -> Label:
    free = ~scan(p) & ((1 << (len(p) + 1)) - 1)
    h = (free & ((1 << p[-1]) - 1)).bit_count()
    k = free.bit_count() - h
    return (k, h) if swap else (h, k)


def enumerate_class(cls: AvoidanceClass, n_max: int) -> list[int]:
    """Counts of avoiders of sizes 1..n_max by depth-first tree growth.

    >>> enumerate_class(CLASSES["semi"], 6)
    [1, 2, 6, 23, 104, 530]
    >>> enumerate_class(CLASSES["strong"], 6)
    [1, 2, 6, 21, 82, 346]
    >>> enumerate_class(CLASSES["baxter"], 5)
    [1, 2, 6, 22, 92]
    """
    counts = [1] + [0] * (n_max - 1) if n_max > 0 else []  # counts[i]: size i + 1
    scan = cls.scan
    stack: list[Perm] = [(1,)] if n_max > 1 else []
    while stack:
        p = stack.pop()
        n = len(p)
        free = ~scan(p) & ((1 << (n + 1)) - 1)
        counts[n] += free.bit_count()
        if n + 1 < n_max:  # the last level is counted, never materialized
            for a in range(1, n + 2):
                if free >> (a - 1) & 1:
                    child = [v + 1 if v >= a else v for v in p]
                    child.append(a)
                    stack.append(tuple(child))
    return counts


def iter_avoiders(cls: AvoidanceClass, n: int):
    """Yield every avoider of size exactly n (tree order)."""
    if n < 1:
        raise ValueError(f"avoider size must be >= 1, got {n}")
    scan = cls.scan
    stack: list[Perm] = [(1,)]
    while stack:
        p = stack.pop()
        if len(p) == n:
            yield p
            continue
        mask = scan(p)
        for a in range(1, len(p) + 2):
            if not (mask >> (a - 1)) & 1:
                stack.append(right_insert(p, a))


def label_census(cls: AvoidanceClass, n: int) -> dict[Label, int]:
    """Multiset of labels over all avoiders of size n."""
    if cls.name not in LABELLED_CLASSES:
        raise ValueError(f"class {cls.name} carries no (h, k) label")
    scan, swap = cls.scan, cls.name == "plane"
    return dict(Counter(_label(p, scan, swap) for p in iter_avoiders(cls, n)))
