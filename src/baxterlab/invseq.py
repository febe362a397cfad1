"""Inversion sequences avoiding the word patterns 210 and 100.

An inversion sequence of size n is an integer tuple (e_1, ..., e_n) with
0 <= e_i < i.  A word pattern occurs in e as a subsequence that is
order-isomorphic to it with equalities matched by equalities, so 210
means a strictly decreasing triple and 100 means a strict descent onto a
repeated value.

Writing e^top for the subsequence of weak left-to-right maxima and
e^bottom for the rest, top(e) = max(e^top) and bottom(e) = max(e^bottom)
with bottom(e) = -1 when e^bottom is empty.  The class avoiding both 210
and 100 is exactly the class where e^bottom is strictly increasing, so an
avoider e of size n is carried as its state (n, top, bottom), with ROOT
the state of (0,).  The step `children` appends p = bottom+1..n: a p >=
top joins e^top and becomes the top, a smaller p joins e^bottom and
becomes the bottom.  The brute force grows each avoider alone by that
step; counting avoiders by (top, bottom) = (a, b) instead gives the
Q_{n,a,b} dynamic program, whose total reproduces the semi-Baxter
numbers.
"""

from __future__ import annotations

from math import comb
from typing import Iterator

from .formulas import _exact_div, at_least, catalan

State = tuple[int, int, int]  # (n, top, bottom) of an avoider of size n
ROOT: State = (1, 0, -1)  # the avoider (0,)


def children(state: State) -> list[State]:
    """The states of e + (p,) for p = bottom+1..n, e an avoider in the given
    state: a smaller p would complete 210 or 100 with e's bottom entry.

    >>> children((2, 1, -1))  # (0, 1) + (0,), (0, 1) + (1,), (0, 1) + (2,)
    [(3, 1, 0), (3, 1, -1), (3, 2, -1)]
    """
    n, top, bottom = state
    return [(n + 1, p, bottom) if p >= top else (n + 1, top, p) for p in range(bottom + 1, n + 1)]


def count_avoiders_bruteforce(n_max: int) -> list[int]:
    """|I_n(210, 100)| for n = 1..n_max by prefix-closed DFS growth.

    Each stack node is one avoider, held as its state and grown through
    `children`; a node counts its n - bottom children in place, and size
    n_max - 2 counts each child's appends in place too.  Unlike the
    (top, bottom) DP, this route never merges two avoiders.

    >>> count_avoiders_bruteforce(4)
    [1, 2, 6, 23]
    """
    at_least(n_max, 1, "n_max")
    counts = [0, 1] + [0] * (n_max - 1)
    stack = [ROOT]
    while stack and n_max >= 2:
        n, top, bottom = state = stack.pop()
        counts[n + 1] += n - bottom
        if n + 2 < n_max:
            stack += children(state)
        elif n + 2 == n_max:
            for p in range(bottom + 1, n + 1):
                counts[n_max] += n + 1 - (p if p < top else bottom)
    return counts[1:]


def growth_label(state: State) -> tuple[int, int]:
    """The pair (h, k) = (top - bottom, n - top) steering the growth."""
    n, top, bottom = state
    return top - bottom, n - top


def q_levels(n: int) -> Iterator[dict[tuple[int, int], int]]:
    """The tables q_table(m) for m = 1..n in turn, from one pass of the
    recurrence.  The guard on n raises at the first next()."""
    at_least(n, 1, "n")
    prev: dict[tuple[int, int], int] = {}
    for m in range(1, n + 1):
        cur: dict[tuple[int, int], int] = {}
        col: list[int] = []  # col[b]: sum of prev[(j, b)] over b < j <= a
        for a in range(m):
            cur[(a, -1)] = _exact_div((m - a) * comb(m - 1 + a, a), m,
                                      f"ballot column Q_{{{m},{a},-1}}")
            row = prev.get((a, -1), 0)  # sum of prev[(a, i)] over -1 <= i < b
            col.append(0)
            for b in range(a):
                q = prev.get((a, b), 0)
                col[b] += q
                if total := row + col[b]:
                    cur[(a, b)] = total
                row += q
        yield cur
        prev = cur


def q_table(n: int) -> dict[tuple[int, int], int]:
    """All Q_{n,a,b}: avoiders of size n with top a and bottom b.

    Recurrence over b >= 0 plus the exact-division ballot column
    Q_{n,a,-1} = ((n-a)/n) C(n-1+a, a); Q_{n,a,b} = 0 whenever n <= a.

    >>> q_table(3)[(1, -1)]
    2
    >>> sum(q_table(4).values())
    23
    """
    for table in q_levels(n):
        pass
    return table


def totals_via_formula(n: int) -> list[int]:
    """total_via_formula(m) for m = 1..n, from one pass of the recurrence."""
    return [
        catalan(m) + sum(cnt for (a, b), cnt in q.items() if b >= 0)
        for m, q in enumerate(q_levels(n), 1)
    ]


def total_via_formula(n: int) -> int:
    """Catalan(n) plus the double sum of Q_{n,a,b} over 0 <= b < a < n.

    >>> [total_via_formula(n) for n in (1, 5, 7)]
    [1, 104, 2958]
    """
    return totals_via_formula(n)[-1]
