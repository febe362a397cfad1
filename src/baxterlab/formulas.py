"""Closed formulas, recurrences, and asymptotics for the number families.

Every route is evaluated in exact arithmetic: recurrences divide big
integers with an exactness guard, summation formulas carry their
rational prefactors as Fractions and check integrality at the end; both
raise ValueError in every interpreter mode.
These values are the oracles the other modules are tested against, so a
transcription slip must abort instead of rounding.

Offsets follow the source conventions: the semi-Baxter table starts
SB_0 = 0, SB_1 = 1 (the size-0 avoider is deliberately not counted),
the Baxter table starts B_0 = 0, and the Apery-like table starts a_0 = 1.
"""

from __future__ import annotations

import math
from fractions import Fraction


def binom(n: int, k: int) -> int:
    """C(n, k) with the vanishing convention for k < 0 or k > n.

    The summation formulas below silently rely on out-of-range binomials
    being zero.

    >>> binom(5, 2), binom(5, -1), binom(5, 9)
    (10, 0, 0)
    """
    if n < 0:
        raise ValueError(f"binomial top must be nonnegative, got {n}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def at_least(value: int, low: int, name: str) -> None:
    """Raise ValueError unless value >= low; name says which argument."""
    if value < low:
        raise ValueError(f"{name} must be at least {low}, got {value}")


def _exact_div(num: int, den: int, what: str) -> int:
    q, r = divmod(num, den)
    if r:
        raise ValueError(f"{what}: {num}/{den} is not an integer")
    return q


def catalan(n: int) -> int:
    """C(2n, n)/(n + 1).

    >>> [catalan(n) for n in range(6)]
    [1, 1, 2, 5, 14, 42]
    """
    return _exact_div(binom(2 * n, n), n + 1, "catalan")


# ---------------------------------------------------------------------------
# semi-Baxter numbers

def sb_recurrence(n_max: int) -> list[int]:
    """SB_0..SB_n_max by the quadratic-coefficient recurrence.

    SB_0 = 0, SB_1 = 1 and
    (n+4)(n+3) SB_n = (11n^2+11n-6) SB_{n-1} + (n-3)(n-2) SB_{n-2}.

    >>> sb_recurrence(7)
    [0, 1, 2, 6, 23, 104, 530, 2958]
    """
    at_least(n_max, 1, "n_max")
    sb = [0, 1]
    for n in range(2, n_max + 1):
        num = (11 * n * n + 11 * n - 6) * sb[n - 1] + (n - 3) * (n - 2) * sb[n - 2]
        sb.append(_exact_div(num, (n + 4) * (n + 3), f"SB_{n}"))
    return sb


def sb_summand(n: int, j: int) -> Fraction:
    """Single term of the big-sum formula for SB_n (hypergeometric summand)."""
    c = binom
    bracket = (
        c(n - 1, j + 1) * (c(n + j + 1, j + 5) + 2 * c(n + j + 1, j))
        + 2 * c(n - 1, j + 2) * (-c(n + j + 2, j + 5) + c(n + j + 1, j + 3)
                                 - c(n + j + 2, j + 2) + c(n + j + 1, j))
        + 3 * c(n - 1, j + 3) * (c(n + j + 2, j + 4) - c(n + j + 2, j + 2))
    )
    return Fraction(c(n - 1, j) * bracket, n - 1)


def sb_sum_formula(n: int) -> int:
    """SB_n as the sum over j of sb_summand; defined for n >= 2.

    >>> [sb_sum_formula(n) for n in range(2, 8)]
    [2, 6, 23, 104, 530, 2958]
    """
    at_least(n, 2, "n")
    total = sum(sb_summand(n, j) for j in range(n))
    if total.denominator != 1:
        raise ValueError(f"SB_{n} sum formula not integral: {total}")
    return int(total)


_SIMPLE_VARIANTS = ("a", "b", "c", "d")


def sb_simple_formula(n: int, variant: str = "a") -> int:
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
    c = binom
    if variant == "a":
        s = sum(c(n, j + 2) * c(n + 2, j) * c(n + j + 2, j + 1) for j in range(n + 1))
    elif variant == "b":
        s = sum(c(n, j + 2) * c(n + 1, j) * c(n + j + 2, j + 3) for j in range(n + 1))
    elif variant == "c":
        s = sum(c(n + 1, j + 3) * c(n + 2, j + 1) * c(n + j + 3, j) for j in range(n + 1))
    else:
        s = sum(c(n + 1, j) * c(n + 1, j + 3) * c(n + j + 2, j + 2) for j in range(n + 1))
    if variant == "d":
        den = (n - 1) * n * (n + 1) ** 2 * (n + 2)
    else:
        den = (n - 1) * n ** 2 * (n + 1) * (n + 2)
    return _exact_div(24 * s, den, f"SB_{n} simple-{variant}")


def sb_table(n_max: int, route: str = "recurrence") -> list[int]:
    """SB_0..SB_n_max via the named formula route.

    Summation routes are defined from n = 2 on; SB_0 = 0 and SB_1 = 1 are
    the recurrence's base values.  Every route needs n_max >= 1.
    """
    if route not in ("recurrence", "sum", "apery", *_SIMPLE_VARIANTS):
        raise ValueError(f"unknown semi-Baxter route {route!r}")
    at_least(n_max, 1, "n_max")
    if route == "recurrence":
        return sb_recurrence(n_max)
    table = [0, 1]
    for n in range(2, n_max + 1):
        if route == "sum":
            table.append(sb_sum_formula(n))
        elif route == "apery":
            table.append(sb_via_apery(n))
        else:
            table.append(sb_simple_formula(n, route))
    return table


# ---------------------------------------------------------------------------
# Apery-like numbers and the identity giving SB_n

def apery_closed(n: int) -> int:
    """a_n = sum_j C(n,j)^2 C(n+j,j).

    >>> [apery_closed(n) for n in range(5)]
    [1, 3, 19, 147, 1251]
    """
    return sum(binom(n, j) ** 2 * binom(n + j, j) for j in range(n + 1))


def apery_recurrence(n_max: int) -> list[int]:
    """a_0..a_n_max from (n+1)^2 a_{n+1} = (11n^2+11n+3) a_n + n^2 a_{n-1}."""
    at_least(n_max, 0, "n_max")
    a = [1]
    for n in range(n_max):
        num = (11 * n * n + 11 * n + 3) * a[n] + (n * n * a[n - 1] if n else 0)
        a.append(_exact_div(num, (n + 1) ** 2, f"apery a_{n + 1}"))
    return a


def sb_via_apery(n: int) -> int:
    """SB_n from the two-term Apery-number combination (n >= 2).

    >>> [sb_via_apery(n) for n in (2, 3, 4)]
    [2, 6, 23]
    """
    at_least(n, 2, "n")
    a = apery_recurrence(n + 1)
    num = (5 * n ** 3 - 5 * n + 6) * a[n + 1] - (5 * n ** 2 + 15 * n + 18) * a[n]
    den = 5 * (n - 1) * n ** 2 * (n + 2) ** 2 * (n + 3) ** 2 * (n + 4)
    return _exact_div(24 * num, den, f"SB_{n} via apery")


# ---------------------------------------------------------------------------
# Baxter numbers

def baxter_closed(n: int) -> int:
    """B_n = 2/(n(n+1)^2) * sum_j C(n+1,j-1) C(n+1,j) C(n+1,j+1).

    >>> [baxter_closed(n) for n in range(1, 7)]
    [1, 2, 6, 22, 92, 422]
    """
    at_least(n, 1, "n")
    s = sum(binom(n + 1, j - 1) * binom(n + 1, j) * binom(n + 1, j + 1)
            for j in range(1, n + 1))
    return _exact_div(2 * s, n * (n + 1) ** 2, f"B_{n}")


def baxter_recurrence(n_max: int) -> list[int]:
    """B_0..B_n_max with (n+3)(n+2) B_n = (7n^2+7n-2) B_{n-1} + 8(n-2)(n-1) B_{n-2}.

    >>> baxter_recurrence(6)
    [0, 1, 2, 6, 22, 92, 422]
    """
    at_least(n_max, 1, "n_max")
    b = [0, 1]
    for n in range(2, n_max + 1):
        num = (7 * n * n + 7 * n - 2) * b[n - 1] + 8 * (n - 2) * (n - 1) * b[n - 2]
        b.append(_exact_div(num, (n + 3) * (n + 2), f"B_{n}"))
    return b


# ---------------------------------------------------------------------------
# asymptotics

LAMBDA = (math.sqrt(5) - 1) / 2
MU = (11 + 5 * math.sqrt(5)) / 2
NU = 2 * math.sqrt(5) / (3 - math.sqrt(5))
AMP_A = (12 / math.pi) * 5 ** -0.25 * LAMBDA ** -7.5


def asymptotic_check(n: int) -> dict[str, float]:
    """Growth diagnostics for SB_n at index n (floats allowed here only).

    Returns the consecutive-term ratio SB_n/SB_{n-1}, its target mu, the
    polynomially corrected ratio SB_n n^6/(SB_{n-1} (n-1)^6) which kills
    the n^-6 factor of the growth law, and the scaled amplitude
    SB_n n^6 / mu^n against its target.
    """
    at_least(n, 10, "n")
    sb = sb_recurrence(n)
    ratio = float(Fraction(sb[n], sb[n - 1]))
    corrected = ratio * (n / (n - 1)) ** 6
    # big-int logs are exact enough; mu^n overflows floats long before n=2000
    log_scaled = math.log(sb[n]) + 6 * math.log(n) - n * math.log(MU)
    return {
        "n": float(n),
        "ratio": ratio,
        "corrected_ratio": corrected,
        "target_mu": MU,
        "n6_scaled": math.exp(log_scaled),
        "target_A": AMP_A,
    }
