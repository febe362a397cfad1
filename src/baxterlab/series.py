"""Truncated series algebra behind the label generating functions.

The working objects are power series in x truncated at a fixed order
whose coefficients are Laurent polynomials in one variable a with exact
integer or rational coefficients.  On top of them sit the series W
solving W = x ā (1+a)(W+1+a)(W+a) with ā = 1/a, its companion F(a,W)
whose nonnegative part in a reproduces the semi-Baxter label polynomials
evaluated at y = z = 1+a, Lagrange-inversion coefficient extraction,
coefficientwise residuals of the functional equations satisfied by the
semi and strong label series, invariance probes for the two kernels, and
a rational-point identity tying F to an explicit rational function P by
series division.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Iterable, Mapping

from .formulas import binom
from .rules import RULES, next_level

Rat = int | Fraction


class LaurentPoly:
    """Laurent polynomial in a: finite map exponent -> nonzero value."""

    __slots__ = ("c",)

    def __init__(self, coeffs: Mapping[int, Rat] | None = None):
        self.c: dict[int, Rat] = {}
        if coeffs:
            for e, v in coeffs.items():
                if v:
                    self.c[e] = v

    def __bool__(self) -> bool:
        return bool(self.c)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LaurentPoly) and self.c == other.c

    def __hash__(self):
        raise TypeError("mutable")

    def __repr__(self) -> str:
        if not self.c:
            return "0"
        parts = [f"{v}*a^{e}" if e else f"{v}" for e, v in sorted(self.c.items())]
        return " + ".join(parts)

    def coeff(self, e: int) -> Rat:
        return self.c.get(e, 0)

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self.c)
        for e, v in other.c.items():
            w = out.get(e, 0) + v
            if w:
                out[e] = w
            elif e in out:
                del out[e]
        r = LaurentPoly()
        r.c = out
        return r

    def __neg__(self) -> "LaurentPoly":
        r = LaurentPoly()
        r.c = {e: -v for e, v in self.c.items()}
        return r

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly | Rat") -> "LaurentPoly":
        """Product with another Laurent polynomial or an exact scalar.

        >>> LaurentPoly({0: 1, 1: 1}) * LaurentPoly({-1: 1, 0: 1})
        1*a^-1 + 2 + 1*a^1
        """
        if isinstance(other, (int, Fraction)):
            r = LaurentPoly()
            if other:
                r.c = {e: v * other for e, v in self.c.items()}
            return r
        out: dict[int, Rat] = {}
        for e1, v1 in self.c.items():
            for e2, v2 in other.c.items():
                e = e1 + e2
                w = out.get(e, 0) + v1 * v2
                if w:
                    out[e] = w
                elif e in out:
                    del out[e]
        r = LaurentPoly()
        r.c = out
        return r

    def nonneg_part(self) -> "LaurentPoly":
        """Drop every term with a negative exponent.

        >>> LaurentPoly({-2: 5, 0: 7, 3: 1}).nonneg_part()
        7 + 1*a^3
        """
        return LaurentPoly({e: v for e, v in self.c.items() if e >= 0})

    def eval_at(self, a0: Rat) -> Fraction:
        a0 = Fraction(a0)
        return sum((Fraction(v) * a0 ** e for e, v in self.c.items()), Fraction(0))

    def exponent_range(self) -> tuple[int, int]:
        assert self.c, "zero polynomial has no exponent range"
        return min(self.c), max(self.c)


_A = LaurentPoly({1: 1})
_ONE_PLUS_A = LaurentPoly({0: 1, 1: 1})


class XSeries:
    """Power series in x truncated at a fixed order, LaurentPoly coefficients."""

    __slots__ = ("c",)

    def __init__(self, coeffs: Iterable[LaurentPoly]):
        self.c: list[LaurentPoly] = list(coeffs)

    @classmethod
    def zero(cls, order: int) -> "XSeries":
        return cls(LaurentPoly() for _ in range(order + 1))

    @property
    def order(self) -> int:
        return len(self.c) - 1

    def coeff_x(self, n: int) -> LaurentPoly:
        return self.c[n]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, XSeries) and self.c == other.c

    def __add__(self, other: "XSeries | LaurentPoly") -> "XSeries":
        if isinstance(other, LaurentPoly):
            out = list(self.c)
            out[0] = out[0] + other
            return XSeries(out)
        assert self.order == other.order
        return XSeries(u + v for u, v in zip(self.c, other.c))

    def __sub__(self, other: "XSeries") -> "XSeries":
        assert self.order == other.order
        return XSeries(u - v for u, v in zip(self.c, other.c))

    def __mul__(self, other: "XSeries") -> "XSeries":
        assert self.order == other.order
        n = self.order
        acc: list[dict[int, Rat]] = [{} for _ in range(n + 1)]
        for i, ci in enumerate(self.c):
            if not ci.c:
                continue
            for j in range(n - i + 1):
                cj = other.c[j]
                if not cj.c:
                    continue
                tgt = acc[i + j]
                for e1, v1 in ci.c.items():
                    for e2, v2 in cj.c.items():
                        e = e1 + e2
                        w = tgt.get(e, 0) + v1 * v2
                        if w:
                            tgt[e] = w
                        elif e in tgt:
                            del tgt[e]
        out = XSeries.zero(n)
        for k, d in enumerate(acc):
            out.c[k].c = d
        return out

    def scale(self, f: LaurentPoly | Rat) -> "XSeries":
        if not isinstance(f, LaurentPoly):
            f = LaurentPoly({0: f})
        return XSeries(u * f for u in self.c)

    def shift_x(self) -> "XSeries":
        """Multiply by x, truncating at the original order."""
        return XSeries([LaurentPoly()] + self.c[:-1])


def solve_W(order: int) -> XSeries:
    """The unique series with W = x*ā*(1+a)*(W+1+a)*(W+a), ā = 1/a.

    Iterating the right-hand side from 0 pins one more x-order per pass.
    The result is re-substituted once to confirm the fixpoint, and the
    a-exponents of [x^n]W are asserted to lie in [-(n-1), 2n], a window
    observed empirically (each pass multiplies by at most a^2/a per x).

    >>> solve_W(2).coeff_x(1)
    1 + 2*a^1 + 1*a^2
    """
    assert order >= 1
    prefactor = LaurentPoly({-1: 1, 0: 1})

    def step(w: XSeries) -> XSeries:
        return ((w + _ONE_PLUS_A) * (w + _A)).scale(prefactor).shift_x()

    w = XSeries.zero(order)
    for _ in range(order):
        w = step(w)
    assert w == step(w), "fixpoint not reached"
    for n in range(1, order + 1):
        lo, hi = w.coeff_x(n).exponent_range()
        assert -(n - 1) <= lo and hi <= 2 * n, (n, lo, hi)
    return w


def lagrange_coeff(s: int, k: int, i: int) -> Fraction:
    """[a^s x^k] W^i for i in {1,2,3} without solving for W.

    Equals (i/k) * sum_j C(k,j) C(k,j+i) C(k+j+i, j+s) over 0 <= j <= k-i.

    >>> lagrange_coeff(2, 1, 1)
    Fraction(1, 1)
    """
    assert i in (1, 2, 3) and k >= 1
    total = sum(
        binom(k, j) * binom(k, j + i) * binom(k + j + i, j + s)
        for j in range(k - i + 1)
    )
    return Fraction(i * total, k)


_F_W1 = LaurentPoly({-5: 1, -4: 1, 0: 2, 1: 2})
_F_W2 = LaurentPoly({-5: -1, -4: -1, -3: 1, -2: -1, -1: -1, 0: 1})
_F_W3 = LaurentPoly({-4: 1, -2: -1})


def build_F(order: int) -> XSeries:
    """(1+a)^2 x + (ā^5+ā^4+2+2a) xW + (-ā^5-ā^4+ā^3-ā^2-ā+1) xW^2 + (ā^4-ā^2) xW^3.

    The a^0 coefficient of [x^n] is the n-th semi-Baxter number, and the
    nonnegative part in a matches the semi label polynomials at y=z=1+a.
    """
    assert order >= 1
    w = solve_W(order)
    w2 = w * w
    base = w.scale(_F_W1) + w2.scale(_F_W2) + (w2 * w).scale(_F_W3)
    base = base + _ONE_PLUS_A * _ONE_PLUS_A
    return base.shift_x()


def omega_geq(s: XSeries) -> XSeries:
    """Keep only nonnegative a-exponents in every x-coefficient."""
    return XSeries(u.nonneg_part() for u in s.c)


class Poly2:
    """Sparse polynomial in (y, z): map (ydeg, zdeg) -> nonzero value."""

    __slots__ = ("c",)

    def __init__(self, coeffs: Mapping[tuple[int, int], Rat] | None = None):
        self.c: dict[tuple[int, int], Rat] = {}
        if coeffs:
            for k, v in coeffs.items():
                if v:
                    self.c[k] = v

    def __bool__(self) -> bool:
        return bool(self.c)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Poly2) and self.c == other.c

    def __add__(self, other: "Poly2") -> "Poly2":
        out = dict(self.c)
        for k, v in other.c.items():
            w = out.get(k, 0) + v
            if w:
                out[k] = w
            elif k in out:
                del out[k]
        r = Poly2()
        r.c = out
        return r

    def __neg__(self) -> "Poly2":
        r = Poly2()
        r.c = {k: -v for k, v in self.c.items()}
        return r

    def __sub__(self, other: "Poly2") -> "Poly2":
        return self + (-other)

    def __mul__(self, other: "Poly2") -> "Poly2":
        out: dict[tuple[int, int], Rat] = {}
        for (i1, j1), v1 in self.c.items():
            for (i2, j2), v2 in other.c.items():
                k = (i1 + i2, j1 + j2)
                w = out.get(k, 0) + v1 * v2
                if w:
                    out[k] = w
                elif k in out:
                    del out[k]
        r = Poly2()
        r.c = out
        return r

    def at_y1(self) -> "Poly2":
        """Substitute y = 1, leaving a polynomial in z."""
        out = Poly2()
        for (i, j), v in self.c.items():
            k = (0, j)
            w = out.c.get(k, 0) + v
            if w:
                out.c[k] = w
            elif k in out.c:
                del out.c[k]
        return out

    def at_z1(self) -> "Poly2":
        out = Poly2()
        for (i, j), v in self.c.items():
            k = (i, 0)
            w = out.c.get(k, 0) + v
            if w:
                out.c[k] = w
            elif k in out.c:
                del out.c[k]
        return out

    def diagonal(self) -> "Poly2":
        """Substitute z = y: the term y^i z^j becomes y^(i+j)."""
        out = Poly2()
        for (i, j), v in self.c.items():
            k = (i + j, 0)
            w = out.c.get(k, 0) + v
            if w:
                out.c[k] = w
            elif k in out.c:
                del out.c[k]
        return out

    def eval_at(self, y0: Rat, z0: Rat) -> Fraction:
        y0, z0 = Fraction(y0), Fraction(z0)
        return sum(
            (Fraction(v) * y0 ** i * z0 ** j for (i, j), v in self.c.items()),
            Fraction(0),
        )


class LabelSeries:
    """Per-size label distributions of a succession rule, read as the
    coefficient of x^n being the polynomial sum of S_{h,k} y^h z^k.

    Evaluating every level at y = z = 1 recovers the plain counting
    sequence of the rule.
    """

    def __init__(self, rule_name: str, order: int):
        assert order >= 1
        rule = RULES[rule_name]
        levels: list[dict[tuple[int, int], int]] = [{}, {rule.axiom: 1}]
        for _ in range(order - 1):
            levels.append(next_level(rule, levels[-1]))
        self.rule_name = rule_name
        self.order = order
        self.levels = levels

    def counts(self) -> list[int]:
        """Totals per size; index 0 is the empty level."""
        return [sum(lv.values()) for lv in self.levels]

    def poly2(self, n: int) -> Poly2:
        return Poly2(self.levels[n])

    def eval_series(self, y0: Rat, z0: Rat) -> list[Fraction]:
        """Coefficient list of the x-series with (y, z) fixed to rationals."""
        y0, z0 = Fraction(y0), Fraction(z0)
        out = []
        for lv in self.levels:
            out.append(
                sum(
                    (v * y0 ** h * z0 ** k for (h, k), v in lv.items()),
                    Fraction(0),
                )
            )
        return out

    def series_in_one_plus_a(self) -> XSeries:
        """Sum of S_{h,k} (1+a)^(h+k) per x-order, as a series in x."""
        powers = [LaurentPoly({0: 1})]
        for _ in range(self.order + 1):
            powers.append(powers[-1] * _ONE_PLUS_A)
        out = XSeries.zero(self.order)
        for n in range(1, self.order + 1):
            acc = LaurentPoly()
            for (h, k), v in self.levels[n].items():
                acc = acc + powers[h + k] * v
            out.c[n] = acc
        return out

    def perturbed(self, deltas: Mapping[tuple[int, int, int], int]) -> "LabelSeries":
        """Copy with levels[n][(h,k)] shifted by each given delta."""
        other = LabelSeries.__new__(LabelSeries)
        other.rule_name = self.rule_name
        other.order = self.order
        other.levels = [dict(lv) for lv in self.levels]
        for (n, h, k), d in deltas.items():
            assert 1 <= n <= self.order, (n, self.order)
            lv = other.levels[n]
            lv[(h, k)] = lv.get((h, k), 0) + d
        return other


_Y = Poly2({(1, 0): 1})
_YZ = Poly2({(1, 1): 1})
_ONE_MINUS_Y = Poly2({(0, 0): 1, (1, 0): -1})
_ONE_MINUS_Z = Poly2({(0, 0): 1, (0, 1): -1})
_Z_MINUS_Y = Poly2({(0, 1): 1, (1, 0): -1})

Residual = tuple[int, tuple[int, int, int] | None]


def residual_scan(diffs: Iterable[tuple[int, Mapping[tuple[int, int], int]]]) -> Residual:
    """(largest |entry|, first (n, i, j) holding an entry) over (n, table)
    pairs of defect tables that store no zeros; (0, None) if all are empty."""
    max_abs = 0
    offending: tuple[int, int, int] | None = None
    for n, d in diffs:
        for (i, j), v in sorted(d.items()):
            if offending is None:
                offending = (n, i, j)
            if abs(v) > max_abs:
                max_abs = abs(v)
    return max_abs, offending


def residual_semi(
    order: int,
    perturb: Mapping[tuple[int, int, int], int] | None = None,
) -> Residual:
    """Coefficientwise defect of the semi label equation, cleared form:

        (1-y)(z-y) S = xyz(1-y)(z-y) + xyz(z-y)(S(1,z) - S(y,z))
                     + xyz(1-y)(S(y,z) - S(y,y)).

    Returns (max absolute residual, first offending (n, ydeg, zdeg) or
    None); (0, None) means the identity holds through x^order.
    """
    assert order >= 2
    labels = LabelSeries("semi", order)
    if perturb:
        labels = labels.perturbed(perturb)
    diffs = []
    prev = Poly2()
    for n in range(1, order + 1):
        cur = labels.poly2(n)
        lhs = _ONE_MINUS_Y * _Z_MINUS_Y * cur
        rhs = _YZ * _Z_MINUS_Y * (prev.at_y1() - prev)
        rhs = rhs + _YZ * _ONE_MINUS_Y * (prev - prev.diagonal())
        if n == 1:
            rhs = rhs + _YZ * _ONE_MINUS_Y * _Z_MINUS_Y
        d = lhs - rhs
        if d:
            diffs.append((n, d.c))
        prev = cur
    return residual_scan(diffs)


def residual_strong(
    order: int,
    perturb: Mapping[tuple[int, int, int], int] | None = None,
) -> Residual:
    """Coefficientwise defect of the strong label equation, cleared form:

        (1-y)(1-z) I = xyz(1-y)(1-z) + x(1-z)(y I(1,z) - I(y,z))
                     + xz(1-y)(1-z) I + xyz(1-y)(I(y,1) - I(y,z)).
    """
    assert order >= 2
    labels = LabelSeries("strong", order)
    if perturb:
        labels = labels.perturbed(perturb)
    diffs = []
    prev = Poly2()
    for n in range(1, order + 1):
        cur = labels.poly2(n)
        lhs = _ONE_MINUS_Y * _ONE_MINUS_Z * cur
        rhs = _ONE_MINUS_Z * (_Y * prev.at_y1() - prev)
        rhs = rhs + Poly2({(0, 1): 1}) * _ONE_MINUS_Y * _ONE_MINUS_Z * prev
        rhs = rhs + _YZ * _ONE_MINUS_Y * (prev.at_z1() - prev)
        if n == 1:
            rhs = rhs + _YZ * _ONE_MINUS_Y * _ONE_MINUS_Z
        d = lhs - rhs
        if d:
            diffs.append((n, d.c))
        prev = cur
    return residual_scan(diffs)


def _kernel_semi(a: Fraction, z: Fraction, x: Fraction) -> Fraction:
    return 1 - x * z * (1 + a) / a - x * z * (1 + a) / (z - 1 - a)


def _phi_semi(a: Fraction, z: Fraction) -> tuple[Fraction, Fraction]:
    return ((z - 1 - a) / (1 + a), z)


def _psi_semi(a: Fraction, z: Fraction) -> tuple[Fraction, Fraction]:
    return (a, (z + z * a - 1 - a) / (z - 1 - a))


def _q_strong(a: Fraction, b: Fraction) -> Fraction:
    return 1 / a + 1 / b + a / b + a + 2 + b


def _phi_strong(a: Fraction, b: Fraction) -> tuple[Fraction, Fraction]:
    return (a, (1 + a) / b)


def _psi_strong(a: Fraction, b: Fraction) -> tuple[Fraction, Fraction]:
    # Companion root of the quadratic in a fixing 1/a + a(1+b)/b: the two
    # roots have product b/(1+b), so a maps to b/(a(1+b)).  A sign flip
    # here would change the kernel value and is rejected by the
    # invariance check below.
    return (b / (a * (1 + b)), b)


_KERNEL_MAPS = {
    "semi": (_phi_semi, _psi_semi),
    "strong": (_phi_strong, _psi_strong),
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
    phi, psi = _KERNEL_MAPS[group]
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

    For the semi kernel K(a,z) = 1 - xz(1+a)/a - xz(1+a)/(z-1-a) the two
    maps (a,z) -> ((z-1-a)/(1+a), z) and (a,z) -> (a, (z+za-1-a)/(z-1-a))
    must fix the kernel value, and the orbit must close with exactly 10
    points.  For the strong kernel Q(a,b) = 1/a+1/b+a/b+a+2+b the maps
    (a,b) -> (a,(1+a)/b) and (a,b) -> (b/(a(1+b)), b) must fix Q while
    the orbit stays open past 100 points.  Points that hit a pole, and
    semi points with a nontrivial stabiliser (an orbit that closes at a
    proper divisor of 10), are re-drawn, at most 10 times each.
    """
    if group not in _KERNEL_MAPS:
        raise ValueError(f"unknown kernel group {group!r}")
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    rng = random.Random(seed)
    phi, psi = _KERNEL_MAPS[group]
    limit = 10 if group == "semi" else 100
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
                if group == "semi":
                    k0 = _kernel_semi(a, b, x)
                    same = (
                        _kernel_semi(*phi(a, b), x) == k0
                        and _kernel_semi(*psi(a, b), x) == k0
                    )
                else:
                    q0 = _q_strong(a, b)
                    same = _q_strong(*phi(a, b)) == q0 and _q_strong(*psi(a, b)) == q0
                size, closed = kernel_orbit(group, a, b, limit=limit)
            except ZeroDivisionError:
                redraws += 1
                continue
            if group == "semi" and closed and size < 10 and 10 % size == 0:
                redraws += 1
                continue
            break
        else:
            raise RuntimeError("no generic point after 10 re-draws")
        invariant_ok = invariant_ok and same
        orbit_sizes.append(size)
        if group == "semi":
            orbit_ok = orbit_ok and closed and size == 10
        else:
            orbit_ok = orbit_ok and not closed
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


class RSeries:
    """Power series in x truncated at a fixed order, Fraction coefficients."""

    __slots__ = ("c",)

    def __init__(self, coeffs: Iterable[Rat]):
        self.c: list[Rat] = list(coeffs)

    @classmethod
    def zero(cls, order: int) -> "RSeries":
        return cls([0] * (order + 1))

    @property
    def order(self) -> int:
        return len(self.c) - 1

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RSeries) and self.c == other.c

    def __add__(self, other: "RSeries | Rat") -> "RSeries":
        if isinstance(other, (int, Fraction)):
            out = list(self.c)
            out[0] += other
            return RSeries(out)
        assert self.order == other.order
        return RSeries(u + v for u, v in zip(self.c, other.c))

    def __sub__(self, other: "RSeries | Rat") -> "RSeries":
        if isinstance(other, (int, Fraction)):
            return self + (-other)
        assert self.order == other.order
        return RSeries(u - v for u, v in zip(self.c, other.c))

    def __neg__(self) -> "RSeries":
        return RSeries(-u for u in self.c)

    def __mul__(self, other: "RSeries") -> "RSeries":
        assert self.order == other.order
        n = self.order
        out = [0] * (n + 1)
        for i, u in enumerate(self.c):
            if not u:
                continue
            for j in range(n - i + 1):
                v = other.c[j]
                if v:
                    out[i + j] += u * v
        return RSeries(out)

    def scale(self, f: Rat) -> "RSeries":
        return RSeries(u * f for u in self.c)

    def shift_x(self) -> "RSeries":
        return RSeries([0] + self.c[:-1])

    def inverse(self) -> "RSeries":
        """Multiplicative inverse; the constant term must be nonzero."""
        c0 = Fraction(self.c[0])
        assert c0 != 0, "series not invertible"
        out: list[Rat] = [1 / c0]
        for n in range(1, self.order + 1):
            s = sum(self.c[i] * out[n - i] for i in range(1, n + 1))
            out.append(-s / c0)
        return RSeries(out)


def _solve_w_at(a0: Fraction, order: int) -> RSeries:
    prefactor = (1 + a0) / a0

    def step(w: RSeries) -> RSeries:
        return ((w + (1 + a0)) * (w + a0)).scale(prefactor).shift_x()

    w = RSeries.zero(order)
    for _ in range(order):
        w = step(w)
    assert w == step(w)
    return w


# Numerator terms of P(a, z) as (coefficient in a, power of z), kept in
# the flat term order of the defining expression; the F comparison in
# verify_reduced_identity pins every entry.
_P_NUM_TERMS: tuple[tuple[tuple[int, int], int], ...] = (
    ((-1, 4), 1),
    ((1, 4), 2),
    ((-1, 3), 1),
    ((1, 3), 2),
    ((-1, 2), 3),
    ((-2, 2), 0),
    ((1, 2), 2),
    ((1, 2), 1),
    ((-4, 1), 0),
    ((5, 1), 1),
    ((-3, 1), 2),
    ((1, 1), 3),
    ((3, 0), 1),
    ((-1, 0), 2),
    ((-2, 0), 0),
)


def _p_at(a0: Fraction, z: RSeries) -> RSeries:
    """P(a0, z) for a series argument z, by truncated series division.

    P(a,z) = (-z+1+a) * N(a,z) / (z a^4 (z-1)) with N the catalogued
    15-term polynomial; z and z-1 must have nonzero constant terms.
    """
    order = z.order
    zp = [RSeries.zero(order) + 1]
    for _ in range(3):
        zp.append(zp[-1] * z)
    num = RSeries.zero(order)
    for (coef, apow), zpow in _P_NUM_TERMS:
        num = num + zp[zpow].scale(coef * a0 ** apow)
    num = (-z + (1 + a0)) * num
    den = (z * (z - 1)).scale(a0 ** 4)
    return num * den.inverse()


def verify_reduced_identity(
    a0: Rat, order: int = 12, drop_w3: bool = False
) -> dict:
    """Check the two identities tying F, P and the semi label series at
    a fixed rational a0 (not 0, -1 or 1), everything truncated at x^order:

      (i)  F(a0, W) = -P(a0, Z) with Z = W + 1 + a0;
      (ii) S(1+a0, 1+a0) + ((1+a0)^2 x / a0^4) S(1, 1+1/a0) + P(a0, Z) = 0,

    with both S evaluations read off the semi rule's label distributions.
    drop_w3 omits the W^3 term of F, a deliberate corruption used to
    exercise the failure reporting; the defect then first shows at x^4
    because the dropped term contributes nothing below that order.
    """
    a = Fraction(a0)
    if a in (0, -1, 1):
        raise ValueError(f"a0 must not be 0, -1 or 1, got {a}")
    if order < 2:
        raise ValueError(f"order must be at least 2, got {order}")
    w = _solve_w_at(a, order)
    z = w + (1 + a)

    ab = 1 / a
    w2 = w * w
    f = w.scale(ab ** 5 + ab ** 4 + 2 + 2 * a)
    f = f + w2.scale(-(ab ** 5) - ab ** 4 + ab ** 3 - ab ** 2 - ab + 1)
    if not drop_w3:
        f = f + (w2 * w).scale(ab ** 4 - ab ** 2)
    f = (f + (1 + a) ** 2).shift_x()

    p = _p_at(a, z)

    first_fail_f = None
    for n in range(order + 1):
        if f.c[n] != -p.c[n]:
            first_fail_f = n
            break

    labels = LabelSeries("semi", order)
    s_diag = labels.eval_series(1 + a, 1 + a)
    s_top = labels.eval_series(1, 1 + ab)
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
