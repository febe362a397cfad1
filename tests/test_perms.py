"""Active sites, the right-end step against the scan oracles, and class
enumeration against a depth-first oracle."""

import gc
import itertools
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from baxterlab import formulas, perms, rules

from conftest import (
    BAXTER,
    CATALAN,
    ORACLE_CLASSES,
    ORACLE_PATTERNS,
    SB,
    STRONG,
    oracle_contains,
)


# Tuple-level oracles: the package walks masks, these build every avoider.

def oracle_avoids(p, patterns):
    return not any(oracle_contains(p, q) for q in patterns)


def right_insert(p, a):
    """The renormalizing right insertion p . a."""
    return tuple(v + 1 if v >= a else v for v in p) + (a,)


# A scan maps an avoider p to the bitmask of insertion values a (bit a-1)
# for which p . a has an occurrence ending at the new point.  Witnesses that
# pin the new point between host values lo < hi forbid bits lo..hi-1.
# ``x = seen & ((1 << hi) - (2 << lo))`` holds the seen values strictly
# between lo and hi; the lowest is the bit ``x & -x``, the highest
# x.bit_length() - 1.

def pair_scan(flags):
    """One pass over adjacent pairs for the OR of the patterns in flags
    (``perms._PAIR_FLAGS``)."""
    down, up = flags & 3, flags >> 2

    def scan(p):
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


def scan_231(p):
    # the largest value with a larger value to its right plays 2
    top = hi = 0
    for v in reversed(p):
        if v > top:
            top = v
        elif v > hi:
            hi = v
    return (1 << hi) - 1


SCANS = {
    **{q: pair_scan(f) for q, f in perms._PAIR_FLAGS.items()},
    # [14]23 is 2[41]3 read right to left: a later value inside the ascent plays 2
    "[14]23": lambda p, semi=pair_scan(1): semi(p[::-1]),
    "231": scan_231,
}

# every pattern that selects a step; one without a scan oracle fails its tests
STEP_PATTERNS = sorted(perms._PAIR_FLAGS.keys() | perms._STEPS.keys())


def _class_scan(cls):
    """One scan for all of cls's patterns, as its step forbids them."""
    distinct = set(cls.patterns)
    if distinct <= perms._PAIR_FLAGS.keys():
        return pair_scan(sum(perms._PAIR_FLAGS[q] for q in distinct))
    (q,) = distinct
    return SCANS[q]


CLASS_SCANS = {name: _class_scan(cls) for name, cls in perms.CLASSES.items()}


def active_sites(p, cls):
    """All a with right_insert(p, a) still in the class, read from the scan."""
    mask = CLASS_SCANS[cls.name](p)
    return [a for a in range(1, len(p) + 2) if not (mask >> (a - 1)) & 1]


def label_of(p, cls):
    """(h, k): active sites <= the last value and above it."""
    sites = active_sites(p, cls)
    h = sum(a <= p[-1] for a in sites)
    return h, len(sites) - h


def iter_avoiders(cls, n):
    """Every avoider of size exactly n, grown through active_sites."""
    level = [(1,)]
    for _ in range(n - 1):
        level = [right_insert(p, a) for p in level for a in active_sites(p, cls)]
    return level


def test_right_insert_examples():
    assert right_insert((1, 4, 2, 3), 3) == (1, 5, 2, 4, 3)
    assert right_insert((1,), 2) == (1, 2)
    assert right_insert((2, 1), 2) == (3, 1, 2)


def test_contains_spot_checks():
    # 25143: 2_51_4 has the descent 51 adjacent, values 2,5,1,4.
    assert oracle_contains((2, 5, 1, 4, 3), "2[41]3")
    # 24153: positions 1,2,3,5 carry values 2,4,1,3 with the 41 adjacent.
    assert oracle_contains((2, 4, 1, 5, 3), "2[41]3")
    # 31425: the only adjacent descent 42 has no later value between 3 and 4.
    assert not oracle_contains((3, 1, 4, 2, 5), "2[41]3")
    assert not oracle_contains((1, 2, 3), "2[41]3")
    assert oracle_contains((2, 3, 1), "231")
    assert not oracle_contains((3, 2, 1), "231")


def test_active_sites_against_filter():
    cls = perms.CLASSES["strong"]
    p = (2, 1, 3)
    want = [
        a
        for a in range(1, 5)
        if oracle_avoids(right_insert(p, a), cls.patterns)
    ]
    assert active_sites(p, cls) == want
    # spot check every class on every permutation of size 4
    for p in itertools.permutations(range(1, 5)):
        for cls in perms.CLASSES.values():
            if not oracle_avoids(p, cls.patterns):
                continue
            want = [
                a
                for a in range(1, 6)
                if oracle_avoids(right_insert(p, a), cls.patterns)
            ]
            assert active_sites(p, cls) == want


def test_label_of_examples():
    semi = perms.CLASSES["semi"]
    assert label_of((2, 1), semi) == (1, 2)
    assert label_of((1,), semi) == (1, 1)


def test_enumerate_class_empty_and_small():
    semi = perms.CLASSES["semi"]
    assert perms.enumerate_class(semi, 0) == []
    assert perms.enumerate_class(semi, 4) == [1, 2, 6, 23]


def test_enumerate_class_vs_filter_censusn7(filter_census):
    for cls_name, want in filter_census.items():
        got = perms.enumerate_class(perms.CLASSES[cls_name], 7)
        assert got == want, cls_name


def test_enumerate_class_vs_filter_n8():
    # one extra exhaustive size over all 8! permutations, flags shared
    counts = {cls: 0 for cls in ORACLE_CLASSES}
    flags = {}
    for p in itertools.permutations(range(1, 9)):
        for name in ORACLE_PATTERNS:
            flags[name] = oracle_contains(p, name)
        for cls, needed in ORACLE_CLASSES.items():
            if not any(flags[name] for name in needed):
                counts[cls] += 1
    for cls_name, want in counts.items():
        got = perms.enumerate_class(perms.CLASSES[cls_name], 8)[-1]
        assert got == want, cls_name


def test_known_prefixes():
    assert perms.enumerate_class(perms.CLASSES["semi"], 8) == SB[:8]
    assert perms.enumerate_class(perms.CLASSES["strong"], 8) == STRONG[:8]
    assert perms.enumerate_class(perms.CLASSES["av231"], 8) == CATALAN[:8]
    # the expanded-window class tracks SB as far as tested
    assert perms.enumerate_class(perms.CLASSES["exp1423"], 8) == SB[:8]


def test_plane_equinumerous_with_semi():
    assert perms.enumerate_class(perms.CLASSES["plane"], 7) == SB[:7]


def test_label_census_matches_iteration():
    semi = perms.CLASSES["semi"]
    census = perms.label_census(semi, 5)
    rebuilt = {}
    for p in iter_avoiders(semi, 5):
        lab = label_of(p, semi)
        rebuilt[lab] = rebuilt.get(lab, 0) + 1
    assert census == rebuilt
    assert sum(census.values()) == SB[4]


# The scan oracles against the independent matcher.  A scan only reports
# occurrences that end at the inserted point, so it is compared on avoiders
# of its pattern, the only permutations the generating tree ever holds.

def _reference_mask(p, q):
    return sum(
        1 << (a - 1)
        for a in range(1, len(p) + 2)
        if oracle_contains(right_insert(p, a), q)
    )


@pytest.mark.parametrize("name", STEP_PATTERNS)
def test_scan_vs_reference_exhaustive_n7(name):
    scan = SCANS[name]
    level = [(1,)]
    for _ in range(7):
        children = []
        for p in level:
            mask = _reference_mask(p, name)
            assert scan(p) == mask, p
            children += [right_insert(p, a)
                         for a in range(1, len(p) + 2) if not mask >> (a - 1) & 1]
        level = children


@st.composite
def avoiders(draw, patterns):
    """An avoider of all of patterns of size <= 14, grown by the independent
    matcher (every class here lets each avoider grow)."""
    p = (1,)
    for choice in draw(st.lists(st.integers(0, 14), max_size=13)):
        sites = [(choice + i) % (len(p) + 1) + 1 for i in range(len(p) + 1)]
        p = next(c for c in (right_insert(p, a) for a in sites)
                 if oracle_avoids(c, patterns))
    return p


@pytest.mark.parametrize("name", STEP_PATTERNS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_scan_vs_reference_random(name, data):
    p = data.draw(avoiders((name,)))
    assert SCANS[name](p) == _reference_mask(p, name)


# A class's scan covers all its patterns; it must forbid exactly the union
# of what each pattern forbids.

def _class_reference_mask(p, cls):
    mask = 0
    for q in cls.patterns:
        mask |= _reference_mask(p, q)
    return mask


@pytest.mark.parametrize("name", sorted(perms.CLASSES))
def test_class_scan_vs_reference_exhaustive_n7(name):
    cls = perms.CLASSES[name]
    level = [(1,)]
    for _ in range(7):
        children = []
        for p in level:
            mask = _class_reference_mask(p, cls)
            assert CLASS_SCANS[name](p) == mask, p
            children += [right_insert(p, a)
                         for a in range(1, len(p) + 2) if not mask >> (a - 1) & 1]
        level = children


@pytest.mark.parametrize("name", ["baxter", "twisted", "strong"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_class_scan_vs_reference_random(name, data):
    cls = perms.CLASSES[name]
    p = data.draw(avoiders(cls.patterns))
    assert CLASS_SCANS[name](p) == _class_reference_mask(p, cls)


# The right-end step against the scan: a mask (and, for exp1423, a stair)
# carried down the tree from the parent's by cls.step must give the full
# scan of the node's tuple.

STEPPED_CLASSES = [("semi", SB), ("plane", SB), ("baxter", BAXTER),
                   ("twisted", BAXTER), ("strong", STRONG),
                   ("av231", CATALAN), ("exp1423", SB)]


def _standard(q):
    """The permutation order-isomorphic to the distinct values q."""
    rank = {v: i for i, v in enumerate(sorted(q), 1)}
    return tuple(rank[v] for v in q)


@pytest.mark.parametrize("name, want", STEPPED_CLASSES)
def test_step_vs_scan_exhaustive_n8(name, want):
    cls = perms.CLASSES[name]
    scan = CLASS_SCANS[name]
    level = [((1,), 0, ())]  # the root's mask and stair, as the walk starts them
    nodes = 0
    for _ in range(7):  # nodes of sizes 1..7, whose children reach size 8
        children = []
        for p, mask, stair in level:
            assert mask == scan(p), p
            children += [(right_insert(p, a), *cls.step(mask, stair, p[-1], a))
                         for a in range(1, len(p) + 2) if not mask >> (a - 1) & 1]
        nodes += len(level)
        level = children
    assert nodes == sum(want[:7])  # 3,624 for semi, plane and exp1423


@pytest.mark.parametrize("name", [name for name, _ in STEPPED_CLASSES])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_step_vs_scan_random(name, data):
    cls = perms.CLASSES[name]
    p = data.draw(avoiders(cls.patterns))
    mask, stair, last = 0, (), 1
    for i in range(1, len(p)):
        prefix = _standard(p[:i + 1])
        a = prefix[-1]  # the rank of the new last entry
        (mask, stair), last = cls.step(mask, stair, last, a), a
        assert mask == CLASS_SCANS[name](prefix), prefix


@pytest.mark.parametrize("name, want", [
    ("semi", SB), ("plane", SB), ("exp1423", SB), ("strong", STRONG),
    ("baxter", BAXTER), ("twisted", BAXTER), ("av231", CATALAN),
])
def test_enumerate_class_n9_vs_frozen_prefixes(name, want):
    assert perms.enumerate_class(perms.CLASSES[name], 9) == want[:9]


@pytest.mark.parametrize("name, want", STEPPED_CLASSES)
def test_streamed_masks_keep_the_counts_at_the_edge_sizes_and_at_10(name, want):
    # n_max 1-2 stream nothing, 3 streams the root's children, 4 the first
    # canonical level's; 10 streams 10,127 exp1423 children
    cls = perms.CLASSES[name]
    for n_max in (1, 2, 3, 4, 10):
        assert perms.enumerate_class(cls, n_max) == want[:n_max], n_max


@pytest.mark.parametrize("name", sorted(perms.CLASSES))
def test_mask_step_is_the_mask_of_the_full_step(name):
    # what the streamed last level reads is what a canonicalised child
    # holds: its mask, and as many free slots as its canonical state
    cls = perms.CLASSES[name]
    for n, level in enumerate(itertools.islice(perms._levels(cls), 9), 1):
        for last, mask, stair in level:
            for a in range(1, n + 2):
                if not mask >> (a - 1) & 1:
                    child = cls.mask_step(mask, stair, last, a)
                    full = cls.step(mask, stair, last, a)
                    assert child == full[0], (n, last, mask, stair, a)
                    canon = perms._canonical(n + 1, a, *full)[1]
                    assert child.bit_count() == canon.bit_count(), (n, last, mask, stair, a)


# The depth-first walk the package used before it merged equal states: one
# stack entry per avoider, so it shares nothing between equal subtrees.

def _dfs_counts(cls, depth, leaf=None, root=(1, 1, 0, ())):
    """Counts of sizes 1..depth+1, visiting every avoider of size <= depth
    below root (n, last, mask, stair), the size-1 avoider by default; leaf,
    if given, gets (last, free) for each avoider of size depth."""
    counts = [1] + [0] * depth  # counts[i]: size i + 1
    stack = [root] if depth >= root[0] else []
    while stack:
        n, last, mask, stair = stack.pop()
        free = ~mask & ((1 << (n + 1)) - 1)
        counts[n] += free.bit_count()
        if n < depth:
            for a in range(1, n + 2):
                if free >> (a - 1) & 1:
                    stack.append((n + 1, a, *cls.step(mask, stair, last, a)))
        elif leaf:
            leaf((last, free))
    return counts


@pytest.mark.parametrize("name", sorted(perms.CLASSES))
def test_enumerate_class_vs_dfs_oracle(name):
    cls = perms.CLASSES[name]
    for n in range(10):
        want = _dfs_counts(cls, n - 1) if n else []
        assert perms.enumerate_class(cls, n) == want, n


@pytest.mark.parametrize("name", ["semi", "plane", "baxter", "twisted", "strong"])
def test_label_census_vs_dfs_oracle(name):
    cls = perms.CLASSES[name]
    for n in range(1, 8):
        leaves = []
        _dfs_counts(cls, n, leaves.append)
        want = Counter()
        for last, free in leaves:
            h = (free & ((1 << last) - 1)).bit_count()
            want[h, free.bit_count() - h] += 1
        assert perms.label_census(cls, n) == want, n


@pytest.mark.parametrize("name, rule_name", [
    ("semi", "semi"), ("plane", "semi"), ("baxter", "bax"), ("twisted", "tbax"),
    ("strong", "strong")])
def test_censuses_rekey_each_state_and_match_the_paired_rule(name, rule_name):
    # at one size a canonical state and its label determine each other, so
    # each census holds one label per state of the level
    cls = perms.CLASSES[name]
    sizes = zip(perms.censuses(cls), perms._levels(cls), rules.levels(rules.RULES[rule_name]))
    for n, (census, level, want) in enumerate(itertools.islice(sizes, 10), 1):
        assert len(census) == len(level), n
        if name == "plane":  # the semi rule counts plane's labels with h and k swapped
            census = {(k, h): m for (h, k), m in census.items()}
        assert census == want, n


@pytest.mark.parametrize("name", sorted(perms.CLASSES))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_canonical_state_roots_the_same_subtree(name, data):
    # a random path of free slots down to a node of size 4-8, then every
    # level of the three below it, from the raw state and from its canonical
    cls = perms.CLASSES[name]
    size = data.draw(st.integers(4, 8))
    last, mask, stair = 1, 0, ()
    for n in range(1, size):
        a = data.draw(st.sampled_from(
            [a for a in range(1, n + 2) if not mask >> (a - 1) & 1]))
        (mask, stair), last = cls.step(mask, stair, last, a), a
    canon = perms._canonical(size, last, mask, stair)
    assert perms._canonical(size, *canon) == canon
    want = _dfs_counts(cls, size + 3, root=(size, last, mask, stair))
    assert _dfs_counts(cls, size + 3, root=(size, *canon)) == want


def test_walk_streams_its_last_level():
    # The last level holds the most states, so enumerate_class streams it
    # and stores none.  The peak counts what the interpreter's free lists do not hold
    # yet (0.20 MB in a fresh interpreter), so they are cleared and then
    # warmed by one call, whatever ran before: streaming then peaks near
    # 0.11 MB, and keeping the last level as a list peaks near 1.0 MB.
    gc.collect()
    perms.enumerate_class(perms.CLASSES["exp1423"], 9)
    tracemalloc.start()
    try:
        perms.enumerate_class(perms.CLASSES["exp1423"], 9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.25e6, peak


def test_levels_grow_only_the_levels_read(monkeypatch):
    # _levels grows a level when it is asked for, and enumerate_class merges
    # the sizes up to n_max - 2 and grows size n_max - 1 once, unmerged
    grown, canonical = [], []
    grow, canon = perms._grow, perms._canonical
    monkeypatch.setattr(perms, "_grow",
                        lambda step, states, n: grown.append(n) or grow(step, states, n))
    monkeypatch.setattr(perms, "_canonical",
                        lambda n, *state: canonical.append(n) or canon(n, *state))
    semi = perms.CLASSES["semi"]
    assert [sum(level.values()) for level in itertools.islice(perms._levels(semi), 4)] == SB[:4]
    assert grown == [1, 2, 3] and max(canonical) == 4
    grown.clear()
    canonical.clear()
    assert perms.enumerate_class(semi, 6) == SB[:6]
    assert grown == [1, 2, 3, 4] and max(canonical) == 4


@pytest.mark.parametrize("name, rule", [
    ("semi", "semi"), ("plane", "semi"), ("baxter", "bax"),
    ("twisted", "tbax"), ("strong", "strong"),
])
def test_enumerate_class_n20_vs_rule(name, rule):
    # a size the depth-first walk could not afford (semi took 5.2 s at n = 12)
    got = perms.enumerate_class(perms.CLASSES[name], 20)
    assert got == rules.count_sequence(rules.RULES[rule], 20)


def test_exp1423_n12_vs_sb_recurrence():
    # an equality checked by brute force, not a proof: exp1423 is treated as its
    # own family, here two sizes past the full suite's check
    got = perms.enumerate_class(perms.CLASSES["exp1423"], 12)
    assert got == formulas.sb_recurrence(12)[1:]


def test_iter_avoiders_rejects_size_zero():
    with pytest.raises(ValueError, match="size"):
        perms.label_census(perms.CLASSES["semi"], 0)


def test_label_census_rejects_unlabelled_class():
    with pytest.raises(ValueError, match=r"no \(h, k\) label"):
        perms.label_census(perms.CLASSES["av231"], 3)


def test_class_without_scan_is_rejected():
    # a text that names no step, malformed ones included
    for text in ("1[32]", "2[41", ""):
        with pytest.raises(ValueError, match="no right-end step for pattern"):
            perms.AvoidanceClass("x", (text,))


@pytest.mark.parametrize("texts", [("2[41]3", "231"), ("3[14]2", "[14]23"), ("231", "[14]23")])
def test_class_mixing_scans_is_rejected(texts):
    with pytest.raises(ValueError, match="no right-end step for pattern"):
        perms.AvoidanceClass("x", texts)
