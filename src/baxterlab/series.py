"""Truncated series algebra behind the label generating functions.

Two types carry all of it: Poly, a sparse polynomial keyed by exponent
tuples (Laurent polynomials in a, or polynomials in two variables), and
XSeries, a power series in x truncated at a fixed order whose
coefficients are Polys in a or exact rationals.  On top of them sit the
series W solving W = x ā (1+a)(W+1+a)(W+a) with ā = 1/a, solved online
one coefficient at a time by the same routine at a symbolic a and at a
rational point, its companion F(a,W) whose nonnegative part in a
reproduces the semi-Baxter label polynomials evaluated at y = z = 1+a,
Lagrange-inversion coefficient extraction, coefficientwise residuals of
the functional equations satisfied by the semi and strong label series,
invariance probes for the two kernels, and a rational-point identity
tying F to an explicit rational function P by series division.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import islice
from math import prod
from operator import add
from typing import Callable, Iterable, Mapping

from .formulas import at_least, binom
from .rules import RULES, levels, next_level  # noqa: F401  (perfbench wraps this binding)

Rat = int | Fraction


class Poly:
    """Sparse polynomial with exact coefficients in one or two variables:
    a map from exponent tuples to nonzero values.  Laurent polynomials in
    a use 1-tuples, polynomials in (y, z) or (a, b) use 2-tuples, and
    exponents may be negative.  Treated as immutable once built.

    >>> Poly({(0,): 1, (1,): 1}) * Poly({(-1,): 1, (0,): 1})
    1*a^-1 + 2 + 1*a^1
    """

    __slots__ = ("c",)

    def __init__(self, coeffs: Mapping[tuple[int, ...], Rat] | None = None):
        self.c: dict[tuple[int, ...], Rat] = (
            {e: v for e, v in coeffs.items() if v} if coeffs else {}
        )

    def __bool__(self) -> bool:
        return bool(self.c)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Poly) and self.c == other.c

    def __repr__(self) -> str:
        if not self.c:
            return "0"
        return " + ".join(
            f"{v}" + "".join(f"*{x}^{n}" for x, n in zip("ab", e) if n)
            for e, v in sorted(self.c.items())
        )

    def coeff(self, *e: int) -> Rat:
        return self.c.get(e, 0)

    def __add__(self, other: "Poly") -> "Poly":
        out = dict(self.c)
        for e, v in other.c.items():
            out[e] = out.get(e, 0) + v
        return Poly(out)

    def __neg__(self) -> "Poly":
        return Poly({e: -v for e, v in self.c.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + -other

    def __mul__(self, other: "Poly | Rat") -> "Poly":
        """Product with another polynomial or an exact scalar."""
        if not isinstance(other, Poly):
            return Poly({e: v * other for e, v in self.c.items()})
        out: dict[tuple[int, ...], Rat] = {}
        get = out.get
        theirs = list(other.c.items())
        for e1, v1 in self.c.items():
            if len(e1) == 1:
                (x,) = e1
                for (u,), v2 in theirs:
                    out[x + u,] = get((x + u,), 0) + v1 * v2
            else:
                x, y = e1
                for (u, w), v2 in theirs:
                    out[x + u, y + w] = get((x + u, y + w), 0) + v1 * v2
        return Poly(out)

    def map_exponents(self, f: Callable[[tuple[int, ...]], tuple[int, ...]]) -> "Poly":
        """Send every exponent e to f(e), summing the terms that collide.

        >>> Poly({(1, 0): 2, (0, 1): 3}).map_exponents(lambda e: (sum(e),))
        5*a^1
        """
        out: dict[tuple[int, ...], Rat] = {}
        for e, v in self.c.items():
            k = f(e)
            out[k] = out.get(k, 0) + v
        return Poly(out)

    def eval_at(self, *point: Rat) -> Fraction:
        point = tuple(Fraction(x) for x in point)
        return sum(
            (v * prod(x ** n for x, n in zip(point, e)) for e, v in self.c.items()),
            Fraction(0),
        )


def laurent(coeffs: Mapping[int, Rat]) -> Poly:
    """The Laurent polynomial in a with the given exponent -> value map."""
    return Poly({(e,): v for e, v in coeffs.items()})


_A = laurent({1: 1})
_ONE_PLUS_A = laurent({0: 1, 1: 1})


def _row(u: list, v: list, k: int):
    """[x^k] of the product of the series with coefficients u and v."""
    terms = [u[i] * v[k - i] for i in range(k + 1) if u[i] and v[k - i]]
    return sum(terms[1:], terms[0]) if terms else u[0] * 0


class XSeries:
    """Power series in x truncated at a fixed order.

    The coefficients are Polys in a or exact rationals; the series needs
    only +, -, *, truth and equality of them (c * 0 is the zero).
    """

    __slots__ = ("c",)

    def __init__(self, coeffs: Iterable):
        self.c: list = list(coeffs)

    @property
    def order(self) -> int:
        return len(self.c) - 1

    def coeff_x(self, n: int):
        return self.c[n]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, XSeries) and self.c == other.c

    def _same_order(self, other: "XSeries") -> int:
        if self.order != other.order:
            raise ValueError(f"series orders differ: {self.order} vs {other.order}")
        return self.order

    def __add__(self, other) -> "XSeries":
        """Sum with a series, or with a coefficient added at x^0."""
        if not isinstance(other, XSeries):
            return XSeries([self.c[0] + other] + self.c[1:])
        self._same_order(other)
        return XSeries(map(add, self.c, other.c))

    def __neg__(self) -> "XSeries":
        return XSeries(-u for u in self.c)

    def __sub__(self, other) -> "XSeries":
        return self + -other

    def __mul__(self, other: "XSeries") -> "XSeries":
        n = self._same_order(other)
        return XSeries(_row(self.c, other.c, k) for k in range(n + 1))

    def scale(self, f) -> "XSeries":
        return XSeries(u * f for u in self.c)

    def shift_x(self) -> "XSeries":
        """Multiply by x, truncating at the original order."""
        return XSeries([self.c[0] * 0] + self.c[:-1])

    def inverse(self) -> "XSeries":
        """Multiplicative inverse; the x^0 coefficient must be a nonzero rational."""
        if not self.c[0]:
            raise ValueError("series with a zero constant term has no inverse")
        inv0 = 1 / Fraction(self.c[0])
        out = [inv0]
        for n in range(1, self.order + 1):
            out.append(-inv0 * sum(self.c[i] * out[n - i] for i in range(1, n + 1)))
        return XSeries(out)


def online_fixpoint(p, alpha, beta, order: int) -> XSeries:
    """The series W with W = x*p*(W+alpha)*(W+beta), solved online.

    [x^n]W = p * [x^(n-1)]((W+alpha)(W+beta)) needs only W_0..W_(n-1),
    so each new coefficient costs one convolution row (van der Hoeven,
    "Relax, but don't be too lazy", J. Symbolic Comput., 2002).  One full
    re-substitution then confirms the fixpoint, raising ValueError if not.
    """
    w = [p * 0]
    u, v = [alpha], [beta]  # coefficients of W+alpha and W+beta
    for n in range(1, order + 1):
        w.append(_row(u, v, n - 1) * p)
        u.append(w[n])
        v.append(w[n])
    s = XSeries(w)
    if s != ((s + alpha) * (s + beta)).scale(p).shift_x():
        raise ValueError("online solve of W is not a fixpoint")
    return s


def solve_W(order: int) -> XSeries:
    """The unique series with W = x*ā*(1+a)*(W+1+a)*(W+a), ā = 1/a.

    Solved online and re-substituted once to confirm the fixpoint.  The
    a-exponents of [x^n]W must lie in [-(n-1), 2n] (by induction: each
    order adds at most a^2 and at least ā), else ValueError.

    >>> solve_W(2).coeff_x(1)
    1 + 2*a^1 + 1*a^2
    """
    at_least(order, 1, "order")
    w = online_fixpoint(laurent({-1: 1, 0: 1}), _ONE_PLUS_A, _A, order)
    for n in range(1, order + 1):
        exps = [e for (e,) in w.coeff_x(n).c]
        if not exps or min(exps) < -(n - 1) or max(exps) > 2 * n:
            raise ValueError(f"[x^{n}]W leaves the exponent window [{1 - n}, {2 * n}]")
    return w


def lagrange_coeff(s: int, k: int, i: int) -> Fraction:
    """[a^s x^k] W^i for i in {1,2,3} without solving for W.

    Equals (i/k) * sum_j C(k,j) C(k,j+i) C(k+j+i, j+s) over 0 <= j <= k-i.

    >>> lagrange_coeff(2, 1, 1)
    Fraction(1, 1)
    """
    if i not in (1, 2, 3) or k < 1:
        raise ValueError(f"need i in (1, 2, 3) and k >= 1, got i={i}, k={k}")
    total = sum(
        binom(k, j) * binom(k, j + i) * binom(k + j + i, j + s)
        for j in range(k - i + 1)
    )
    return Fraction(i * total, k)


_F_W1 = laurent({-5: 1, -4: 1, 0: 2, 1: 2})
_F_W2 = laurent({-5: -1, -4: -1, -3: 1, -2: -1, -1: -1, 0: 1})
_F_W3 = laurent({-4: 1, -2: -1})


def _assemble_F(w: XSeries, coeff: Callable) -> XSeries:
    """x ((1+a)^2 + _F_W1 W + _F_W2 W^2 + _F_W3 W^3), with each Laurent
    coefficient passed through coeff (kept as a Poly, or evaluated at a0)."""
    w2 = w * w
    f = w.scale(coeff(_F_W1)) + w2.scale(coeff(_F_W2)) + (w2 * w).scale(coeff(_F_W3))
    return (f + coeff(_ONE_PLUS_A * _ONE_PLUS_A)).shift_x()


def build_F(order: int) -> XSeries:
    """(1+a)^2 x + (ā^5+ā^4+2+2a) xW + (-ā^5-ā^4+ā^3-ā^2-ā+1) xW^2 + (ā^4-ā^2) xW^3.

    The a^0 coefficient of [x^n] is the n-th semi-Baxter number, and the
    nonnegative part in a matches the semi label polynomials at y=z=1+a.
    """
    return _assemble_F(solve_W(order), lambda c: c)


def omega_geq(s: XSeries) -> XSeries:
    """Keep only nonnegative a-exponents in every x-coefficient."""
    return XSeries(Poly({e: v for e, v in u.c.items() if e[0] >= 0}) for u in s.c)


class LabelSeries:
    """Per-size label distributions of a succession rule, read as the
    coefficient of x^n being the polynomial sum of S_{h,k} y^h z^k.

    Evaluating every level at y = z = 1 recovers the plain counting
    sequence of the rule.
    """

    def __init__(self, rule_name: str, order: int):
        at_least(order, 1, "order")
        self.rule_name = rule_name
        self.order = order
        self.levels = [{}, *islice(levels(RULES[rule_name]), order)]

    def poly(self, n: int) -> Poly:
        """Level n as the polynomial in (y, z)."""
        return Poly(self.levels[n])

    def eval_series(self, y0: Rat, z0: Rat) -> list[Fraction]:
        """Coefficient list of the x-series with (y, z) fixed to rationals."""
        return [Poly(lv).eval_at(y0, z0) for lv in self.levels]

    def series_in_one_plus_a(self) -> XSeries:
        """Sum of S_{h,k} (1+a)^(h+k) per x-order, as a series in x."""
        powers = [laurent({0: 1})]
        for _ in range(self.order + 1):
            powers.append(powers[-1] * _ONE_PLUS_A)
        out = [Poly()]
        for lv in self.levels[1:]:
            acc = Poly()
            for (h, k), v in lv.items():
                acc = acc + powers[h + k] * v
            out.append(acc)
        return XSeries(out)


_Y = Poly({(1, 0): 1})
_Z = Poly({(0, 1): 1})
_YZ = Poly({(1, 1): 1})
_ONE_MINUS_Y = Poly({(0, 0): 1, (1, 0): -1})
_ONE_MINUS_Z = Poly({(0, 0): 1, (0, 1): -1})
_Z_MINUS_Y = Poly({(0, 1): 1, (1, 0): -1})


Residual = tuple[int, tuple[int, int, int] | None]


def residual_scan(defects: Iterable[tuple[int, Poly]]) -> Residual:
    """(largest |coefficient|, (n, i, j) of the least exponent of the first
    nonzero defect) over (n, defect) pairs in increasing n; (0, None) if
    every defect is zero."""
    max_abs = 0
    offending: tuple[int, int, int] | None = None
    for n, d in defects:
        if d and offending is None:
            offending = (n, *min(d.c))
        max_abs = max([max_abs, *map(abs, d.c.values())])
    return max_abs, offending


def _label_residual(
    rule_name: str, order: int, kernel: Poly, step: Callable[[Poly], Poly]
) -> Residual:
    """residual_scan of K (S_n - [n=1] yz) - step(S_(n-1)), n = 1..order,
    for the equation K S = xyz K + x step(S) of the rule's label series S."""
    at_least(order, 2, "order")
    labels = LabelSeries(rule_name, order)
    s = [labels.poly(n) for n in range(order + 1)]
    return residual_scan(
        (n, kernel * (s[n] - _YZ if n == 1 else s[n]) - step(s[n - 1]))
        for n in range(1, order + 1)
    )


def residual_semi(order: int) -> Residual:
    """Coefficientwise defect of the semi label equation, cleared form:

        (1-y)(z-y) S = xyz(1-y)(z-y) + xyz(z-y)(S(1,z) - S(y,z))
                     + xyz(1-y)(S(y,z) - S(y,y)).

    Returns (max absolute residual, first offending (n, ydeg, zdeg) or
    None); (0, None) means the identity holds through x^order.
    """
    return _label_residual("semi", order, _ONE_MINUS_Y * _Z_MINUS_Y, lambda s: (
        _YZ * _Z_MINUS_Y * (s.map_exponents(lambda e: (0, e[1])) - s)
        + _YZ * _ONE_MINUS_Y * (s - s.map_exponents(lambda e: (e[0] + e[1], 0)))
    ))


def residual_strong(order: int) -> Residual:
    """Coefficientwise defect of the strong label equation, cleared form:

        (1-y)(1-z) I = xyz(1-y)(1-z) + x(1-z)(y I(1,z) - I(y,z))
                     + xz(1-y)(1-z) I + xyz(1-y)(I(y,1) - I(y,z)).
    """
    return _label_residual("strong", order, _ONE_MINUS_Y * _ONE_MINUS_Z, lambda s: (
        _ONE_MINUS_Z * (_Y * s.map_exponents(lambda e: (0, e[1])) - s)
        + _Z * _ONE_MINUS_Y * _ONE_MINUS_Z * s
        + _YZ * _ONE_MINUS_Y * (s.map_exponents(lambda e: (e[0], 0)) - s)
    ))


# group -> (kernel value at (a, b, x), the maps phi and psi that fix it,
# order of the group they generate: 10, or "open" for an infinite group).
_KERNELS: dict[str, tuple[Callable, Callable, Callable, int | str]] = {
    "semi": (
        lambda a, z, x: 1 - x * z * (1 + a) / a - x * z * (1 + a) / (z - 1 - a),
        lambda a, z: ((z - 1 - a) / (1 + a), z),
        lambda a, z: (a, (z + z * a - 1 - a) / (z - 1 - a)),
        10,
    ),
    "strong": (
        lambda a, b, x: 1 / a + 1 / b + a / b + a + 2 + b,
        lambda a, b: (a, (1 + a) / b),
        # Companion root of the quadratic in a fixing 1/a + a(1+b)/b: the
        # two roots have product b/(1+b), so a maps to b/(a(1+b)).  A sign
        # flip here would change the kernel value and is rejected by
        # kernel_invariance.
        lambda a, b: (b / (a * (1 + b)), b),
        "open",
    ),
}


def kernel_orbit(
    group: str, a: Rat, b: Rat, limit: int = 200
) -> tuple[int, bool]:
    """Closure size of (a, b) under the two kernel-preserving maps.

    Returns (size, closed).  Exploration stops once more than `limit`
    distinct points have been seen, reporting closed=False.

    >>> kernel_orbit("semi", Fraction(2, 3), Fraction(7, 5))
    (10, True)
    """
    _, phi, psi, _ = _KERNELS[group]
    start = (Fraction(a), Fraction(b))
    seen = {start}
    frontier = [start]
    while frontier:
        if len(seen) > limit:
            return len(seen), False
        fresh = []
        for p in frontier:
            for f in (phi, psi):
                q = f(*p)
                if q not in seen:
                    seen.add(q)
                    fresh.append(q)
        frontier = fresh
    return len(seen), True


def kernel_invariance(group: str, trials: int, seed: int = 0) -> dict:
    """Probe kernel invariance and orbit closure at random rational points.

    For each group of _KERNELS, both maps must fix the kernel value at a
    random point (a, b, x).  The semi orbit must close with exactly 10
    points; the strong orbit must stay open past 100 points.  Points that
    hit a pole, and semi points with a nontrivial stabiliser (an orbit
    that closes at a proper divisor of 10), are re-drawn, at most 10
    times each.
    """
    if group not in _KERNELS:
        raise ValueError(f"unknown kernel group {group!r}")
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    rng = random.Random(seed)
    value, phi, psi, order = _KERNELS[group]
    finite = order != "open"
    redraws = 0
    invariant_ok = True
    orbit_ok = True
    orbit_sizes: list[int] = []

    def draw() -> Fraction:
        return Fraction(rng.randint(1, 40), rng.randint(1, 40))

    for _ in range(trials):
        for attempt in range(11):
            a, b, x = draw(), draw(), Fraction(1, rng.randint(2, 97))
            try:
                k0 = value(a, b, x)
                same = value(*phi(a, b), x) == k0 and value(*psi(a, b), x) == k0
                size, closed = kernel_orbit(group, a, b, limit=order if finite else 100)
            except ZeroDivisionError:
                redraws += 1
                continue
            if finite and closed and size < order and order % size == 0:
                redraws += 1
                continue
            break
        else:
            raise RuntimeError("no generic point after 10 re-draws")
        invariant_ok = invariant_ok and same
        orbit_sizes.append(size)
        orbit_ok = orbit_ok and (closed and size == order if finite else not closed)
    return {
        "group": group,
        "trials": trials,
        "seed": seed,
        "redraws": redraws,
        "invariant_ok": invariant_ok,
        "orbit_ok": orbit_ok,
        "orbit_sizes": orbit_sizes,
        "ok": invariant_ok and orbit_ok,
    }


# Numerator N(a, z) of P, keyed (a-power, z-power); the F comparison in
# verify_reduced_identity pins every term.
_P_NUM = Poly({
    (4, 1): -1, (4, 2): 1, (3, 1): -1, (3, 2): 1, (2, 3): -1, (2, 0): -2, (2, 2): 1,
    (2, 1): 1, (1, 0): -4, (1, 1): 5, (1, 2): -3, (1, 3): 1, (0, 1): 3, (0, 2): -1,
    (0, 0): -2,
})


def _p_at(a0: Fraction, z: XSeries) -> XSeries:
    """P(a0, z) for a series argument z, by truncated series division.

    P(a,z) = (-z+1+a) * N(a,z) / (z a^4 (z-1)) with N the catalogued
    15-term polynomial; z and z-1 must have nonzero constant terms.
    """
    order = z.order
    zp = [XSeries([1] + [0] * order)]
    for _ in range(3):
        zp.append(zp[-1] * z)
    num = XSeries([0] * (order + 1))
    for (apow, zpow), coef in _P_NUM.c.items():
        num = num + zp[zpow].scale(coef * a0 ** apow)
    num = (-z + (1 + a0)) * num
    den = (z * (z - 1)).scale(a0 ** 4)
    return num * den.inverse()


def verify_reduced_identity(a0: Rat, order: int = 12) -> dict:
    """Check the two identities tying F, P and the semi label series at
    a fixed rational a0 (not 0, -1 or 1), everything truncated at x^order:

      (i)  F(a0, W) = -P(a0, Z) with Z = W + 1 + a0;
      (ii) S(1+a0, 1+a0) + ((1+a0)^2 x / a0^4) S(1, 1+1/a0) + P(a0, Z) = 0,

    with both S evaluations read off the semi rule's label distributions
    and F's coefficients those of build_F evaluated at a0.
    """
    a = Fraction(a0)
    if a in (0, -1, 1):
        raise ValueError(f"a0 must not be 0, -1 or 1, got {a}")
    at_least(order, 2, "order")
    w = online_fixpoint((1 + a) / a, 1 + a, a, order)
    z = w + (1 + a)

    f = _assemble_F(w, lambda c: c.eval_at(a))

    p = _p_at(a, z)

    first_fail_f = None
    for n in range(order + 1):
        if f.c[n] != -p.c[n]:
            first_fail_f = n
            break

    labels = LabelSeries("semi", order)
    s_diag = labels.eval_series(1 + a, 1 + a)
    s_top = labels.eval_series(1, 1 + 1 / a)
    factor = (1 + a) ** 2 / a ** 4
    first_fail_sum = None
    for n in range(order + 1):
        shifted = s_top[n - 1] if n >= 1 else 0
        if s_diag[n] + factor * shifted + p.c[n] != 0:
            first_fail_sum = n
            break

    return {
        "a0": a,
        "order": order,
        "f_matches_p": first_fail_f is None,
        "f_first_fail": first_fail_f,
        "sum_identity": first_fail_sum is None,
        "sum_first_fail": first_fail_sum,
        "ok": first_fail_f is None and first_fail_sum is None,
    }
