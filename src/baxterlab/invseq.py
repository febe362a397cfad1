"""Inversion sequences avoiding the word patterns 210 and 100.

An inversion sequence of size n is an integer tuple (e_1, ..., e_n) with
0 <= e_i < i.  A word pattern occurs in e as a subsequence that is
order-isomorphic to it with equalities matched by equalities, so 210
means a strictly decreasing triple and 100 means a strict descent onto a
repeated value.

Writing e^top for the subsequence of weak left-to-right maxima and
e^bottom for the rest, top(e) = max(e^top) and bottom(e) = max(e^bottom)
with bottom(e) = -1 when e^bottom is empty.  The class avoiding both 210
and 100 is exactly the class where e^bottom is strictly increasing, and
counting avoiders by (top, bottom) = (a, b) gives the Q_{n,a,b} dynamic
program whose total reproduces the semi-Baxter numbers.  The brute force
grows each avoider alone, carried as the state of `_max_blocked`'s scan.
"""

from __future__ import annotations

from typing import Iterator

from .formulas import _exact_div, at_least, binom, catalan

ISeq = tuple[int, ...]


def decompose(e: ISeq) -> tuple[int, int, ISeq, ISeq]:
    """(top, bottom, e^top, e^bottom) of an inversion sequence.

    >>> decompose((0, 1, 0))
    (1, 0, (0, 1), (0,))
    >>> decompose((0,))
    (0, -1, (0,), ())
    """
    top_seq: list[int] = []
    bottom_seq: list[int] = []
    run_max = -1
    for v in e:
        if v >= run_max:
            run_max = v
            top_seq.append(v)
        else:
            bottom_seq.append(v)
    top = max(top_seq) if top_seq else -1
    bottom = max(bottom_seq) if bottom_seq else -1
    return top, bottom, tuple(top_seq), tuple(bottom_seq)


def _max_blocked(e: ISeq) -> int:
    """Largest p such that appending p would complete 210 or 100.

    An appended value p is bad iff some e_i > e_j >= p with i < j, i.e.
    iff p <= some entry that has a strictly larger entry before it.
    Returns -1 when no appended value is blocked.
    """
    run_max = -1
    blocked = -1
    for v in e:
        if v >= run_max:
            run_max = v
        elif v > blocked:
            blocked = v
    return blocked


def valid_extensions(e: ISeq) -> range:
    """Values p for which e + (p,) stays in the avoidance class.

    >>> list(valid_extensions((0, 1, 0)))
    [1, 2, 3]
    """
    return range(_max_blocked(e) + 1, len(e) + 1)


def count_avoiders_bruteforce(n_max: int) -> list[int]:
    """|I_n(210, 100)| for n = 1..n_max by prefix-closed DFS growth.

    A stack node (n, run_max, blocked) is one avoider of size n, held as
    the state of `_max_blocked`'s scan: it may append blocked+1..n, and
    appending p steps the scan to (p, blocked) if p >= run_max, else to
    (run_max, p).  Size n_max - 2 counts each child's appends in place.
    Unlike the (top, bottom) DP, this route never merges two avoiders.

    >>> count_avoiders_bruteforce(4)
    [1, 2, 6, 23]
    """
    at_least(n_max, 1, "n_max")
    counts = [0, 1] + [0] * (n_max - 1)
    stack = [(1, 0, -1)]  # the avoider (0,)
    while stack and n_max >= 2:
        n, run_max, blocked = stack.pop()
        kids = range(blocked + 1, n + 1)
        counts[n + 1] += len(kids)
        if n + 2 < n_max:
            for p in kids:
                stack.append((n + 1, p, blocked) if p >= run_max else (n + 1, run_max, p))
        elif n + 2 == n_max:
            for p in kids:
                counts[n_max] += n + 1 - (p if p < run_max else blocked)
    return counts[1:]


def growth_label(e: ISeq) -> tuple[int, int]:
    """The pair (h, k) = (top - bottom, n - top) steering the growth."""
    top, bottom, _, _ = decompose(e)
    return (top - bottom, len(e) - top)


def q_levels(n: int) -> Iterator[dict[tuple[int, int], int]]:
    """The tables q_table(m) for m = 1..n in turn, from one pass of the
    recurrence.  The guard on n raises at the first next()."""
    at_least(n, 1, "n")
    prev: dict[tuple[int, int], int] = {}
    for m in range(1, n + 1):
        cur: dict[tuple[int, int], int] = {}
        col: list[int] = []  # col[b]: sum of prev[(j, b)] over b < j <= a
        for a in range(m):
            cur[(a, -1)] = _exact_div((m - a) * binom(m - 1 + a, a), m,
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
