"""Pattern containment, active sites, and class enumeration."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from baxterlab import perms

from conftest import (
    BAXTER,
    CATALAN,
    ORACLE_CLASSES,
    SB,
    STRONG,
    oracle_contains,
)


def test_parse_pattern_roundtrip():
    q = perms.parse_pattern("2[41]3")
    assert q.values == (2, 4, 1, 3)
    assert q.adjacent == frozenset({2})
    q = perms.parse_pattern("[14]23")
    assert q.values == (1, 4, 2, 3)
    assert q.adjacent == frozenset({1})
    q = perms.parse_pattern("231")
    assert q.values == (2, 3, 1)
    assert q.adjacent == frozenset()


def test_contains_spot_checks():
    semi = perms.PATTERNS["2[41]3"]
    # 25143: 2_51_4 has the descent 51 adjacent, values 2,5,1,4.
    assert perms.contains((2, 5, 1, 4, 3), semi)
    # 24153: positions 1,2,3,5 carry values 2,4,1,3 with the 41 adjacent.
    assert perms.contains((2, 4, 1, 5, 3), semi)
    # 31425: the only adjacent descent 42 has no later value between 3 and 4.
    assert not perms.contains((3, 1, 4, 2, 5), semi)
    assert not perms.contains((1, 2, 3), semi)
    assert perms.contains((2, 3, 1), perms.PATTERNS["231"])
    assert not perms.contains((3, 2, 1), perms.PATTERNS["231"])


@pytest.mark.parametrize("name", sorted(perms.PATTERNS))
def test_contains_vs_independent_matcher(name):
    oracle_name = {
        "2[41]3": "2-41-3",
        "2[14]3": "2-14-3",
        "3[14]2": "3-14-2",
        "3[41]2": "3-41-2",
        "231": "231",
        "[14]23": "14-23",
    }[name]
    q = perms.PATTERNS[name]
    for n in range(1, 7):
        for p in itertools.permutations(range(1, n + 1)):
            assert perms.contains(p, q) == oracle_contains(p, oracle_name), p


def test_active_sites_against_filter():
    cls = perms.CLASSES["strong"]
    p = (2, 1, 3)
    want = [
        a
        for a in range(1, 5)
        if perms.avoids(perms.right_insert(p, a), cls)
    ]
    assert perms.active_sites(p, cls) == want
    # spot check every class on every permutation of size 4
    for p in itertools.permutations(range(1, 5)):
        for cls in perms.CLASSES.values():
            if not perms.avoids(p, cls):
                continue
            want = [
                a
                for a in range(1, 6)
                if perms.avoids(perms.right_insert(p, a), cls)
            ]
            assert perms.active_sites(p, cls) == want


def test_label_of_examples():
    semi = perms.CLASSES["semi"]
    assert perms.label_of((2, 1), semi) == (1, 2)
    assert perms.label_of((1,), semi) == (1, 1)


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
        for name in ("2-41-3", "2-14-3", "3-14-2", "3-41-2", "231", "14-23"):
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
    for p in perms.iter_avoiders(semi, 5):
        lab = perms.label_of(p, semi)
        rebuilt[lab] = rebuilt.get(lab, 0) + 1
    assert census == rebuilt
    assert sum(census.values()) == SB[4]


# The anchored scans against the reference matcher.  A scan only reports
# occurrences that end at the inserted point, so it is compared on avoiders
# of its pattern, the only permutations the generating tree ever holds.

def _reference_mask(p, q):
    return sum(
        1 << (a - 1)
        for a in range(1, len(p) + 2)
        if perms.contains(perms.right_insert(p, a), q)
    )


@pytest.mark.parametrize("name", sorted(perms.PATTERNS))
def test_scan_vs_reference_exhaustive_n7(name):
    q = perms.PATTERNS[name]
    scan = perms._SCANS[q]
    level = [(1,)]
    for _ in range(7):
        children = []
        for p in level:
            mask = _reference_mask(p, q)
            assert scan(p) == mask, p
            children += [perms.right_insert(p, a)
                         for a in range(1, len(p) + 2) if not mask >> (a - 1) & 1]
        level = children


@st.composite
def avoiders(draw, patterns):
    """An avoider of all of patterns of size <= 14, grown by the reference
    matcher (every class here lets each avoider grow)."""
    p = (1,)
    for choice in draw(st.lists(st.integers(0, 14), max_size=13)):
        sites = [(choice + i) % (len(p) + 1) + 1 for i in range(len(p) + 1)]
        p = next(c for c in (perms.right_insert(p, a) for a in sites)
                 if not any(perms.contains(c, q) for q in patterns))
    return p


@pytest.mark.parametrize("name", sorted(perms.PATTERNS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_scan_vs_reference_random(name, data):
    q = perms.PATTERNS[name]
    p = data.draw(avoiders((q,)))
    assert perms._SCANS[q](p) == _reference_mask(p, q)


# A class runs one scan for all its patterns; it must forbid exactly the
# union of what each pattern forbids.

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
            assert cls.scan(p) == mask, p
            children += [perms.right_insert(p, a)
                         for a in range(1, len(p) + 2) if not mask >> (a - 1) & 1]
        level = children


@pytest.mark.parametrize("name", ["baxter", "twisted", "strong"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_class_scan_vs_reference_random(name, data):
    cls = perms.CLASSES[name]
    p = data.draw(avoiders(cls.patterns))
    assert cls.scan(p) == _class_reference_mask(p, cls)


@pytest.mark.parametrize("name, want", [
    ("semi", SB), ("plane", SB), ("exp1423", SB), ("strong", STRONG),
    ("baxter", BAXTER), ("twisted", BAXTER), ("av231", CATALAN),
])
def test_enumerate_class_n9_vs_frozen_prefixes(name, want):
    assert perms.enumerate_class(perms.CLASSES[name], 9) == want[:9]


def test_pattern_guards_raise():
    with pytest.raises(ValueError, match="not a permutation"):
        perms.VincularPattern((1, 1, 2), frozenset())
    with pytest.raises(ValueError, match="adjacency"):
        perms.VincularPattern((2, 1), frozenset({2}))


def test_iter_avoiders_rejects_size_zero():
    with pytest.raises(ValueError, match="size"):
        list(perms.iter_avoiders(perms.CLASSES["semi"], 0))


def test_class_without_scan_is_rejected():
    with pytest.raises(ValueError, match="no anchored scan for pattern"):
        perms.AvoidanceClass("x", (perms.parse_pattern("1[32]"),))


@pytest.mark.parametrize("texts", [("2[41]3", "231"), ("3[14]2", "[14]23"), ("231", "[14]23")])
def test_class_mixing_scans_is_rejected(texts):
    with pytest.raises(ValueError, match="no anchored scan for pattern"):
        perms.AvoidanceClass("x", tuple(perms.PATTERNS[t] for t in texts))
