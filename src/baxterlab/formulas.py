"""Closed formulas, recurrences, and asymptotics for the number families.

Every route is evaluated in exact arithmetic: the order-2 recurrences
divide big integers with an exactness guard, in ints or, for printing, in
exact Decimal integers (see _order2); the closed sums step each summand
by its term ratio (one math.comb seed, then one exact divmod per term, in
_ratio_sum) and divide once by their prefactor's denominator with the
same guard.  Every guard raises ValueError in every interpreter mode.
These values are the oracles the other modules are tested against, so a
transcription slip must abort instead of rounding.

Offsets follow the source conventions: the semi-Baxter table starts
SB_0 = 0, SB_1 = 1 (the size-0 avoider is deliberately not counted),
the Baxter table starts B_0 = 0, and the Apery-like table starts a_0 = 1.
"""

from __future__ import annotations

import decimal
import math
from functools import partial, reduce
from itertools import count
from operator import mul
from typing import Callable, Iterable


def at_least(value: int, low: int, name: str) -> None:
    """Raise ValueError unless value >= low; name says which argument."""
    if value < low:
        raise ValueError(f"{name} must be at least {low}, got {value}")


def _term_text(v: int) -> str:
    """str(v), or v's bit length where v outgrows CPython's int->str digit limit."""
    try:
        return str(v)
    except ValueError:
        return f"<{abs(v).bit_length()}-bit int>"


def _exact_div(num: int, den: int, what: str) -> int:
    q, r = divmod(num, den)
    if r:
        raise ValueError(f"{what}: {_term_text(num)}/{_term_text(den)} is not an integer")
    return q


def _ratio_sum(t0: int, nums: Iterable[int], dens: Iterable[int], what: str) -> tuple[int, int]:
    """(t_0 + ... + t_m, t_m) for t_(j+1) = t_j nums[j] / dens[j], each division exact.

    >>> _ratio_sum(1, [4, 3, 2, 1], [1, 2, 3, 4], "C(4, j)")
    (16, 1)
    """
    t = s = t0
    for j, p, q in zip(count(1), nums, dens):
        t, r = divmod(t * p, q)
        if r:
            raise ValueError(f"{what}: term {j} is not an integer")
        s += t
    return s, t


def _binomial_sum(binomials: list[tuple[int, int, bool]], terms: int, what: str) -> tuple[int, int]:
    """_ratio_sum over j < terms of the product, over (top, k, diagonal) in binomials,
    of C(top, k+j), or C(top+j, k+j) on a diagonal.  A row steps by (top-k-j)/(k+j+1)
    and a diagonal by (top+j+1)/(k+j+1), so each factor is a small int."""
    t0 = math.prod(math.comb(top, k) for top, k, _ in binomials)
    tops = (range(top + 1, top + terms) if diagonal else range(top - k, top - k - terms + 1, -1)
            for top, k, diagonal in binomials)
    lows = (range(k + 1, k + terms) for _, k, _ in binomials)
    return _ratio_sum(t0, reduce(partial(map, mul), tops), reduce(partial(map, mul), lows), what)


def catalan(n: int) -> int:
    """C(2n, n)/(n + 1).

    >>> [catalan(n) for n in range(6)]
    [1, 1, 2, 5, 14, 42]
    """
    return _exact_div(math.comb(2 * n, n), n + 1, "catalan")


# No operation may round.  Only +, * and divmod run under it, never /,
# whose results need not terminate at this precision.
_EXACT = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN,
                         traps=[decimal.Inexact, decimal.Rounded, decimal.InvalidOperation])


def _order2(name: str, t0: int, t1: int, n_max: int, unit: int | decimal.Decimal,
            coeffs: Callable[[int], tuple[int, int, int]]) -> list:
    """t_0..t_n_max from t_0, t_1 and r t_n = p t_{n-1} + q t_{n-2}, with
    (p, q, r) = coeffs(n) for n >= 2.

    The terms are the seeds times `unit`: ints for the int 1, or exact
    Decimal integers for Decimal(1), whose str() is linear where an
    int's is quadratic (libmpdec stores base 10^19 digits).  A remainder,
    or any decimal signal, raises ValueError naming the term name_n.

    >>> _order2("t", 1, 1, 5, 1, lambda n: (1, 1, 1))
    [1, 1, 2, 3, 5, 8]
    >>> _order2("t", 1, 1, 5, decimal.Decimal(1), lambda n: (1, 1, 1))[-1]
    Decimal('8')
    """
    terms = [t0 * unit, t1 * unit][:n_max + 1]
    with decimal.localcontext(_EXACT):
        for n in range(2, n_max + 1):
            p, q, r = coeffs(n)
            try:
                t, rem = divmod(p * terms[-1] + q * terms[-2], r)
            except ArithmeticError as exc:
                raise ValueError(f"{name}_{n}: {type(exc).__name__} in the exact step") from None
            if rem:
                raise ValueError(f"{name}_{n}: {r} does not divide the right-hand side")
            terms.append(t)
    return terms


# ---------------------------------------------------------------------------
# semi-Baxter numbers

def sb_recurrence(n_max: int, unit: int | decimal.Decimal = 1) -> list:
    """SB_0..SB_n_max by the quadratic-coefficient recurrence, as _order2 runs it.

    SB_0 = 0, SB_1 = 1 and
    (n+4)(n+3) SB_n = (11n^2+11n-6) SB_{n-1} + (n-3)(n-2) SB_{n-2}.

    >>> sb_recurrence(7)
    [0, 1, 2, 6, 23, 104, 530, 2958]
    """
    at_least(n_max, 1, "n_max")
    return _order2("SB", 0, 1, n_max, unit,
                   lambda n: (11 * n * n + 11 * n - 6, (n - 3) * (n - 2), (n + 4) * (n + 3)))


def _sb_products(n: int, table: Iterable[tuple[int, tuple]], den: int, what: str) -> int:
    """The sum over j < n of weight * C(n+t1, k1+j) C(n+t2, k2+j) C(n+t3+j, k3+j),
    over (weight, ((t1, k1), (t2, k2), (t3, k3))) in table, divided by den:
    two binomial rows and a diagonal, each product stepped by _binomial_sum."""
    s = sum(w * _binomial_sum([(n + t, k, i == 2) for i, (t, k) in enumerate(b)], n, what)[0]
            for w, b in table)
    return _exact_div(s, den, what)


# The big-sum formula: (n-1) SB_n is the sum over (weight, r, t, k) of
# weight * C(n-1, j) C(n-1, j+r) C(n+t+j, k+j).
_BIG_SUM = [(w, ((-1, 0), (-1, r), (t, k))) for w, r, t, k in (
    (1, 1, 1, 5), (2, 1, 1, 0), (-2, 2, 2, 5), (2, 2, 1, 3),
    (-2, 2, 2, 2), (2, 2, 1, 0), (3, 3, 2, 4), (-3, 3, 2, 2))]


def sb_sum_formula(n: int) -> int:
    """SB_n by the big-sum formula, _BIG_SUM over n - 1; defined for n >= 2.

    >>> [sb_sum_formula(n) for n in range(2, 8)]
    [2, 6, 23, 104, 530, 2958]
    """
    at_least(n, 2, "n")
    return _sb_products(n, _BIG_SUM, n - 1, f"SB_{n} sum")


# Each variant is a sum over j of C(n+t1, k1+j) C(n+t2, k2+j) C(n+t3+j, k3+j):
# two rows and a diagonal, listed as (t, k).  The first row vanishes for
# j > n-2, so the last of the n terms _sb_products sums is 0.
_SIMPLE_VARIANTS = {
    "a": ((0, 2), (2, 0), (2, 1)),  # C(n, j+2) C(n+2, j) C(n+j+2, j+1)
    "b": ((0, 2), (1, 0), (2, 3)),  # C(n, j+2) C(n+1, j) C(n+j+2, j+3)
    "c": ((1, 3), (2, 1), (3, 0)),  # C(n+1, j+3) C(n+2, j+1) C(n+j+3, j)
    "d": ((1, 3), (1, 0), (2, 2)),  # C(n+1, j+3) C(n+1, j) C(n+j+2, j+2)
}

# The semi-Baxter formula routes of sb_table, the default first.
SB_ROUTES = ("recurrence", "sum", *_SIMPLE_VARIANTS, "apery")


def sb_simple_formula(n: int, variant: str) -> int:
    """SB_n by one of the four three-binomial product formulas (n >= 2).

    Variants a, b, c share the prefactor 24/((n-1) n^2 (n+1) (n+2));
    variant d uses 24/((n-1) n (n+1)^2 (n+2)).  Variants b and d are
    term-by-term equal including prefactors.

    >>> [sb_simple_formula(4, v) for v in "abcd"]
    [23, 23, 23, 23]
    """
    at_least(n, 2, "n")
    if variant not in _SIMPLE_VARIANTS:
        raise ValueError(f"unknown simple-formula variant {variant!r}")
    den = (n - 1) * n * (n + 1) * (n + 2) * (n + 1 if variant == "d" else n)
    return _sb_products(n, [(24, _SIMPLE_VARIANTS[variant])], den, f"SB_{n} simple-{variant}")


def sb_table(n_max: int, route: str = "recurrence") -> list[int]:
    """SB_0..SB_n_max via the named formula route.

    Summation routes are defined from n = 2 on; SB_0 = 0 and SB_1 = 1 are
    the recurrence's base values.  Every route needs n_max >= 1.
    """
    if route not in SB_ROUTES:
        raise ValueError(f"unknown semi-Baxter route {route!r}")
    at_least(n_max, 1, "n_max")
    if route == "recurrence":
        return sb_recurrence(n_max)
    table = [0, 1]
    if route == "apery":
        a = apery_recurrence(n_max + 1)
        return table + [_sb_from_apery(n, a) for n in range(2, n_max + 1)]
    for n in range(2, n_max + 1):
        table.append(sb_sum_formula(n) if route == "sum" else sb_simple_formula(n, route))
    return table


# ---------------------------------------------------------------------------
# Apery-like numbers and the identity giving SB_n

def apery_closed(n: int) -> int:
    """a_n = sum_j C(n,j)^2 C(n+j,j), stepped by the term ratio (n-j)^2 (n+j+1)/(j+1)^3.

    >>> [apery_closed(n) for n in range(5)]
    [1, 3, 19, 147, 1251]
    """
    return _binomial_sum([(n, 0, False), (n, 0, False), (n, 0, True)], n + 1, f"apery a_{n}")[0]


def apery_recurrence(n_max: int, unit: int | decimal.Decimal = 1) -> list:
    """a_0..a_n_max from a_0 = 1, a_1 = 3 and, as _order2 runs it,
    n^2 a_n = (11n^2-11n+3) a_{n-1} + (n-1)^2 a_{n-2}."""
    at_least(n_max, 0, "n_max")
    return _order2("apery a", 1, 3, n_max, unit,
                   lambda n: (11 * n * n - 11 * n + 3, (n - 1) ** 2, n * n))


def sb_via_apery(n: int) -> int:
    """SB_n from the two-term Apery-number combination (n >= 2).

    >>> [sb_via_apery(n) for n in (2, 3, 4)]
    [2, 6, 23]
    """
    at_least(n, 2, "n")
    return _sb_from_apery(n, apery_recurrence(n + 1))


def _sb_from_apery(n: int, a: list[int]) -> int:
    """SB_n from the Apery numbers a_n and a_(n+1) of the table a."""
    num = (5 * n ** 3 - 5 * n + 6) * a[n + 1] - (5 * n ** 2 + 15 * n + 18) * a[n]
    den = 5 * (n - 1) * n ** 2 * (n + 2) ** 2 * (n + 3) ** 2 * (n + 4)
    return _exact_div(24 * num, den, f"SB_{n} via apery")


# ---------------------------------------------------------------------------
# Baxter numbers

def baxter_closed(n: int) -> int:
    """B_n = 2/(n(n+1)^2) * sum_j C(n+1,j-1) C(n+1,j) C(n+1,j+1).

    With N = n+1 the summand is symmetric under j <-> N-j: the sum steps
    j = 1..N//2 by the term ratio (N-j+1)(N-j)(N-j-1)/(j(j+1)(j+2)) and
    doubles, counting the middle term of an even N once.

    >>> [baxter_closed(n) for n in range(1, 7)]
    [1, 2, 6, 22, 92, 422]
    """
    at_least(n, 1, "n")
    top = n + 1
    s, mid = _binomial_sum([(top, 0, False), (top, 1, False), (top, 2, False)], top // 2, f"B_{n}")
    return _exact_div(2 * (2 * s - (mid if top % 2 == 0 else 0)), n * top ** 2, f"B_{n}")


def baxter_recurrence(n_max: int, unit: int | decimal.Decimal = 1) -> list:
    """B_0..B_n_max with (n+3)(n+2) B_n = (7n^2+7n-2) B_{n-1} + 8(n-2)(n-1) B_{n-2},
    as _order2 runs it.

    >>> baxter_recurrence(6)
    [0, 1, 2, 6, 22, 92, 422]
    """
    at_least(n_max, 1, "n_max")
    return _order2("B", 0, 1, n_max, unit,
                   lambda n: (7 * n * n + 7 * n - 2, 8 * (n - 2) * (n - 1), (n + 3) * (n + 2)))


# ---------------------------------------------------------------------------
# asymptotics

LAMBDA = (math.sqrt(5) - 1) / 2
MU = (11 + 5 * math.sqrt(5)) / 2
AMP_A = (12 / math.pi) * 5 ** -0.25 * LAMBDA ** -7.5


def asymptotic_check(n: int) -> dict[str, float | int]:
    """Growth diagnostics for SB_n at index n (floats allowed here only).

    Returns the consecutive-term ratio SB_n/SB_{n-1}, its target mu, the
    polynomially corrected ratio SB_n n^6/(SB_{n-1} (n-1)^6) which kills
    the n^-6 factor of the growth law, and the scaled amplitude
    SB_n n^6 / mu^n against its target.
    """
    at_least(n, 10, "n")
    sb = sb_recurrence(n)
    ratio = sb[n] / sb[n - 1]
    corrected = ratio * (n / (n - 1)) ** 6
    # big-int logs are exact enough; mu^n overflows floats long before n=2000
    log_scaled = math.log(sb[n]) + 6 * math.log(n) - n * math.log(MU)
    return {
        "n": n,
        "ratio": ratio,
        "corrected_ratio": corrected,
        "target_mu": MU,
        "n6_scaled": math.exp(log_scaled),
        "target_A": AMP_A,
    }
