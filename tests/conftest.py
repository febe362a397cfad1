"""Shared frozen oracles, an independent brute-force pattern matcher and
an independent walk counter.

The matcher here deliberately reimplements vincular containment from
scratch (precomputed position tuples plus order checks), and the walk
counter is a plain dict recursion over endpoints, so that library bugs
cannot hide behind a shared helper.
"""

import itertools
from functools import lru_cache

import pytest

# Frozen reference terms, n starting at 1.
SB = [
    1, 2, 6, 23, 104, 530, 2958, 17734, 112657, 750726,
    5207910, 37387881, 276467208,
]
STRONG = [
    1, 2, 6, 21, 82, 346, 1547, 7236, 35090, 175268,
    897273, 4690392, 24961300,
]
BAXTER = [1, 2, 6, 22, 92, 422, 2074, 10754, 58202, 326240, 1882960, 11140560]
CATALAN = [1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796]
# n starting at 0.
APERY = [1, 3, 19, 147, 1251, 11253, 104959, 1004307, 9793891, 96918753]

# Each pattern by its bracket text: (values, zero-based indices i such that
# positions i and i+1 must be adjacent)
ORACLE_PATTERNS = {
    "2[41]3": ((2, 4, 1, 3), (1,)),
    "2[14]3": ((2, 1, 4, 3), (1,)),
    "3[14]2": ((3, 1, 4, 2), (1,)),
    "3[41]2": ((3, 4, 1, 2), (1,)),
    "231": ((2, 3, 1), ()),
    "[14]23": ((1, 4, 2, 3), (0,)),
}

ORACLE_CLASSES = {
    "semi": ("2[41]3",),
    "plane": ("2[14]3",),
    "baxter": ("2[41]3", "3[14]2"),
    "twisted": ("2[41]3", "3[41]2"),
    "strong": ("2[41]3", "3[14]2", "3[41]2"),
    "av231": ("231",),
    "exp1423": ("[14]23",),
}


@lru_cache(maxsize=None)
def _slots(n: int, k: int, adj: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    combos = itertools.combinations(range(n), k)
    return tuple(
        pos for pos in combos
        if all(pos[i + 1] == pos[i] + 1 for i in adj)
    )


@lru_cache(maxsize=None)
def _order(vals: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(i for _, i in sorted((v, i) for i, v in enumerate(vals)))


def oracle_contains(p: tuple[int, ...], name: str) -> bool:
    vals, adj = ORACLE_PATTERNS[name]
    order = _order(vals)
    for pos in _slots(len(p), len(vals), adj):
        prev = p[pos[order[0]]]
        ok = True
        for idx in order[1:]:
            cur = p[pos[idx]]
            if cur <= prev:
                ok = False
                break
            prev = cur
        if ok:
            return True
    return False


def naive_walk_tables(mult: dict, n_max: int) -> list[dict]:
    """Endpoint counts {(x, y): count} of walks of lengths 0..n_max that
    keep x, y >= 0, for the step multiset {(dx, dy): multiplicity}."""
    tables = [{(0, 0): 1}]
    for _ in range(n_max):
        new = {}
        for (x, y), c in tables[-1].items():
            for (dx, dy), m in mult.items():
                if x + dx >= 0 and y + dy >= 0:
                    new[(x + dx, y + dy)] = new.get((x + dx, y + dy), 0) + c * m
        tables.append(new)
    return tables


@pytest.fixture(scope="session")
def filter_census():
    """Class -> per-size avoider counts for n <= 7, by exhaustive filtering."""
    n_top = 7
    counts = {cls: [0] * n_top for cls in ORACLE_CLASSES}
    flags = {}
    for n in range(1, n_top + 1):
        for p in itertools.permutations(range(1, n + 1)):
            for name in ORACLE_PATTERNS:
                flags[name] = oracle_contains(p, name)
            for cls, needed in ORACLE_CLASSES.items():
                if not any(flags[name] for name in needed):
                    counts[cls][n - 1] += 1
    return counts


def corrupt_recurrences(monkeypatch, at: int, corrupt) -> None:
    """Make every order-2 recurrence step n = `at` use corrupt(p, q, r)."""
    from baxterlab import formulas

    run = formulas._order2

    def corrupted(name, t0, t1, n_max, unit, coeffs):
        return run(name, t0, t1, n_max, unit,
                   lambda n: corrupt(*coeffs(n)) if n == at else coeffs(n))

    monkeypatch.setattr(formulas, "_order2", corrupted)
