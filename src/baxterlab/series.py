"""Truncated series algebra behind the label generating functions.

Two types carry all of it: Poly, a sparse polynomial keyed by exponent
pairs (a Laurent polynomial in a is keyed (e, 0); a polynomial in two
variables uses both slots), and XSeries, a power series in x truncated
at a fixed order whose coefficients are Polys in a or exact rationals.
On them sit the series W = x ā (1+a)(W+1+a)(W+a), ā = 1/a, solved online
on plain ints at a symbolic a and at a rational point; Lagrange-inversion
coefficient extraction; each rule's label equation, derived from its rows,
with its coefficientwise residuals, its kernel group as two Möbius
involutions (orbits counted mod a prime, recounted over Q when that proves
nothing) and its kernel method's half-orbit chain, off which semi's F = x g
(whose nonnegative part in a gives the semi label polynomials at y = z =
1+a) and P = num/den are read as polynomials in (a, W); and an identity
tying F, P and the labels at a rational a0, with den cleared so that no
series is divided.  One helper, _cleared, evaluates such polynomials on ints
at a = p/q (x = t*p*q) and at a = 2^b, each cleared by powers read off its
own terms.

solve_W and build_F compute on plain ints through one reader, _read
(Kronecker substitution).  With x = t*a the equation reads W =
t(1+a)(W+1+a)(W+a), whose coefficients in a are nonnegative, so every
[t^n]W is a polynomial in a with nonnegative int coefficients, each at
most its value at a = 1.  Solved once at a = 1 for that bound and once
at a = 2^b with b wide enough, each coefficient of W (or of any f(a, W),
such as F's g) is one int whose signed b-bit digits are its coefficients
in a.  What they return is a series of
Polys keyed (e, 0).  The label series keeps the live rows its rule carries
(rules._levels); the label residuals pack each level, and each image of it,
from its rows as one int at y = 2^b, z = 2^(bw), so a monomial of the
label equation is a shift and only a nonzero defect becomes a Poly.  Its
other readers take one-variable images, plain coefficient lists.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cache
from itertools import cycle, islice
from math import comb, lcm, prod
from operator import add
from typing import Iterable, Iterator, Mapping, Sequence

from .formulas import at_least
from .rules import RULES, Level, SuccessionRule, _levels, _lin
from .rules import next_level  # noqa: F401  (perfbench wraps this binding)

Rat = int | Fraction


class Poly:
    """Sparse polynomial with exact coefficients in two variables: a map
    from exponent pairs to nonzero values.  A Laurent polynomial in a is
    keyed (e, 0); polynomials in (y, z) or (a, b) use both slots, and
    exponents may be negative.  Treated as immutable once built.

    >>> Poly({(0, 0): 1, (1, 0): 1}) * Poly({(-1, 0): 1, (0, 0): 1})
    1*a^-1 + 2 + 1*a^1
    """

    __slots__ = ("c",)

    def __init__(self, coeffs: Mapping[tuple[int, int], Rat] | None = None):
        self.c: dict[tuple[int, int], Rat] = (
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

    def coeff(self, i: int, j: int) -> Rat:
        return self.c.get((i, j), 0)

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
        out: dict[tuple[int, int], Rat] = {}
        get = out.get
        theirs = list(other.c.items())
        for (x, y), v1 in self.c.items():
            for (u, w), v2 in theirs:
                k = x + u, y + w
                out[k] = get(k, 0) + v1 * v2
        return Poly(out)


def laurent(coeffs: Mapping[int, Rat]) -> Poly:
    """The Laurent polynomial in a with the given exponent -> value map."""
    return Poly({(e, 0): v for e, v in coeffs.items()})


def _one_plus(rows: Level) -> Poly:
    """The level's polynomial, v y^h z^k for each count v of its live rows, at
    y = 1+a, z = 1+b: each v y^h z^k becomes the sum of v C(h, i) C(k, j) a^i b^j.

    >>> _one_plus([(0, 2, 2, [1]), (1, 1, 1, [-1])])
    -1*b^1 + 1*a^1 + -1*a^1*b^1 + 1*a^2
    """
    out: dict[tuple[int, int], Rat] = {}
    get = out.get
    for k, h, v in ((k, h, v) for k, i, _, vals in rows for h, v in enumerate(vals, i) if v):
        ys = [comb(h, i) for i in range(h + 1)]
        for j in range(k + 1):
            d = comb(k, j) * v
            for i, c in enumerate(ys):
                out[i, j] = get((i, j), 0) + c * d
    return Poly(out)


def _width(bound: int) -> int:
    """The least whole-byte b with bound < 2^(b-1): the signed b-bit digits
    of a Kronecker-packed int then hold any coefficient of size at most bound.

    >>> _width(127), _width(128)
    (8, 16)
    """
    return 8 * (bound.bit_length() // 8 + 1)


def _digits(v: int, b: int, lo: int) -> Poly:
    """The Laurent polynomial sum d_i a^(lo+i) read off the signed b-bit
    digits of v = sum d_i 2^(b*i), |d_i| < 2^(b-1), b a whole number of
    bytes.

    >>> _digits(5 - (3 << 8), 8, -1)
    5*a^-1 + -3
    """
    n, w, half = abs(v).bit_length() // b + 1, b // 8, 1 << b - 1
    bias = int.from_bytes(half.to_bytes(w, "little") * n, "little")  # 2^(b-1) in every digit
    raw = (v + bias).to_bytes(n * w, "little")
    return laurent({e: int.from_bytes(raw[i:i + w], "little") - half
                    for e, i in enumerate(range(0, n * w, w), lo)})


def _row(u: list, v: list, k: int):
    """[x^k] of the product of the series with coefficients u and v."""
    terms = [u[i] * v[k - i] for i in range(k + 1) if u[i] and v[k - i]]
    return sum(terms[1:], terms[0]) if terms else u[0] * 0


class XSeries:
    """Power series in x truncated at a fixed order.

    The coefficients are Polys in a, ints or Fractions; the series needs
    only +, *, truth and equality of them (c * 0 is the zero).
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

    def __mul__(self, other: "XSeries") -> "XSeries":
        n = self._same_order(other)
        return XSeries(_row(self.c, other.c, k) for k in range(n + 1))

    def scale(self, f) -> "XSeries":
        return XSeries(u * f for u in self.c)

    def shift_x(self) -> "XSeries":
        """Multiply by x, truncating at the original order."""
        return XSeries([self.c[0] * 0] + self.c[:-1])


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


def _v_at(p: int, q: int, order: int) -> XSeries:
    """V = qW at a = p/q and x = t*p*q, a series in t over the ints:
    [t^n]V = q (pq)^n [x^n]W, and V = t(p+q)(V+p+q)(V+p).  At q = 1 it is
    W at the integer a with x = t*a."""
    return online_fixpoint(p + q, p + q, p, order)


def lagrange_coeff(s: int, k: int, i: int) -> Fraction:
    """[a^s x^k] W^i for i in {1,2,3} without solving for W.

    Equals (i/k) * sum_j C(k,j) C(k,j+i) C(k+j+i, j+s) over 0 <= j <= k-i, with C(m, r) = 0
    for r < 0 or r > m: j starts at max(0, -s), and math.comb gives the 0 for r > m.

    >>> lagrange_coeff(2, 1, 1)
    Fraction(1, 1)
    """
    if i not in (1, 2, 3) or k < 1:
        raise ValueError(f"need i in (1, 2, 3) and k >= 1, got i={i}, k={k}")
    total = sum(
        comb(k, j) * comb(k, j + i) * comb(k + j + i, j + s)
        for j in range(max(0, -s), k - i + 1)
    )
    return Fraction(i * total, k)


def _cleared(fs: Sequence[Poly], p: int, q: int, v: XSeries) -> list[tuple[int, int, XSeries]]:
    """(i, j, p^i q^j f(p/q, W)) for each f in fs, a Poly keyed (e, k) for
    a^e W^k, k >= 0, with v = qW an int series (_v_at): i = -min(0, least e)
    and j = max(0, largest e + k) are read off f's own terms, so its term x a^e
    W^k is the int x p^(e+i) q^(j-e-k) times V^k.  V^2, V^3, .. are formed
    once for all of fs.
    """
    powers = [1, v]  # V^k
    while len(powers) <= max((k for f in fs for _, k in f.c), default=0):
        powers.append(powers[-1] * v)
    out = []
    for f in fs:
        i, j = -min([0, *(e for e, _ in f.c)]), max([0, *map(sum, f.c)])
        cs = [sum(x * p ** (e + i) * q ** (j - e - n) for (e, n), x in f.c.items() if n == k)
              for k in range(len(powers))]
        out.append((i, j, sum(map(XSeries.scale, powers[2:], cs[2:]), v.scale(cs[1]) + cs[0])))
    return out


def _read(fs: Sequence[Poly], order: int) -> list[XSeries]:
    """f(a, W) through x^order as Polys in a for each f in fs, a Poly keyed
    (e, k) for a^e W^k, all read from one solve at a = 2^b (_v_at, x = t*a):
    [t^n] of _cleared of f is a^(n+i) [x^n]f.  b is the least whole-byte
    width above W and _cleared of every |f| at a = 1, which bound every
    coefficient in a, as W's are nonnegative.  The a-exponents of [x^n]W must
    lie in [-(n-1), 2n] (by induction: each order adds at most a^2 and at
    least ā), else ValueError; those of [t^n] in [1, 3n].
    """
    u = _v_at(1, 1, order)
    bounds = _cleared([Poly({e: abs(x) for e, x in f.c.items()}) for f in fs], 1, 1, u)
    b = _width(max(*u.c, *(c for _, _, bound in bounds for c in bound.c)))
    w = _v_at(1 << b, 1, order)
    for n in range(1, order + 1):
        v = w.c[n]
        if not v or v & (1 << b) - 1 or v >> b * (3 * n + 1):
            raise ValueError(f"[x^{n}]W leaves the exponent window [{1 - n}, {2 * n}]")
    return [XSeries(_digits(c, b, -n - i) for n, c in enumerate(cleared.c))
            for i, _, cleared in _cleared(fs, 1 << b, 1, w)]


def solve_W(order: int) -> XSeries:
    """The unique series with W = x*ā*(1+a)*(W+1+a)*(W+a), ā = 1/a.

    Solved online at a = 2^b, re-substituted once to confirm the fixpoint,
    and read back coefficient by coefficient; see _read.

    >>> solve_W(2).coeff_x(1)
    1 + 2*a^1 + 1*a^2
    """
    at_least(order, 1, "order")
    return _read([Poly({(0, 1): 1})], order)[0]


def build_F(order: int) -> XSeries:
    """(1+a)^2 x + (ā^5+ā^4+2+2a) xW + (-ā^5-ā^4+ā^3-ā^2-ā+1) xW^2 + (ā^4-ā^2) xW^3.

    The a^0 coefficient of [x^n] is the n-th semi-Baxter number, and the
    nonnegative part in a matches the semi label polynomials at y=z=1+a.

    F = x g (_kernel_data), so g is needed to x^(order-1), by _read.
    """
    at_least(order, 1, "order")
    return XSeries([Poly(), *_read([_kernel_data()[0]], order - 1)[0].c])


def omega_geq(s: XSeries) -> XSeries:
    """Keep only nonnegative a-exponents in every x-coefficient."""
    return XSeries(Poly({e: v for e, v in u.c.items() if e[0] >= 0}) for u in s.c)


_LinearMap = tuple[tuple[int, int], tuple[int, int]]  # ((a,b),(c,d)): y^(ah+bk) z^(ch+dk)
_IDENTITY: _LinearMap = (1, 0), (0, 1)


def _spread(rows: Level, sh: int, sk: int) -> list[int]:
    """The level's image under y^h z^k -> t^(sh*h + sk*k), listed from t^0 up to
    its top index: label (h, k)'s count added at index sh*h + sk*k, for sh and
    sk that keep every live label's index nonnegative.

    >>> _spread([(0, 1, 1, [2]), (1, 0, 1, [3, -1])], 1, 1)
    [0, 5, -1]
    """
    out = [0] * max([sh * h + sk * k + 1 for k, i, j, _ in rows for h in (i, j)], default=0)
    for k, i, _, vals in rows:  # one strided slice per row (a sum where sh = 0)
        if sh:
            stop = (a := sh * i + sk * k) + sh * len(vals)
            at = slice(a, stop if stop >= 0 else None, sh)
            out[at] = map(add, out[at], vals)
        else:
            out[sk * k] += sum(vals)
    return out


def _pack(rows: Level, m: _LinearMap, b: int, w: int) -> int:
    """S o M at y = 2^b, z = 2^(bw), S the level with live rows `rows`: the sum
    of v 2^(b(i + wj)) over the terms v y^i z^j of S o M (_spread puts each at
    index i + wj), for 0 <= i < w and every |v| < 2^(b-1), b a whole number of
    bytes.  Each v is written as its b-bit two's complement into one byte
    string, which for v < 0 is v + 2^b and has its cell's top bit set, so for
    each set top bit 2^(b(i + wj + 1)) is taken off again.

    >>> _pack([(0, 1, 1, [5]), (1, 0, 0, [-3])], ((1, 0), (0, 1)), 8, 2) == (5 << 8) - (3 << 16)
    True
    """
    (xh, xk), (yh, yk) = m
    cells, nb = _spread(rows, xh + w * yh, xk + w * yk), b // 8
    zero, top = bytes(nb), bytes(nb - 1) + b"\x80"
    v = int.from_bytes(b"".join([c.to_bytes(nb, "little", signed=True) if c else zero
                                 for c in cells]), "little")
    return v - ((v & int.from_bytes(top * len(cells), "little")) >> b - 1 << b)


class LabelSeries:
    """Levels 0 (empty) to order of the rule's tree as rules._levels yields them,
    each as its live rows (k, i, j, [S_{i,k}, ..., S_{j,k}]): x^n's coefficient
    is sum S_{h,k} y^h z^k, whose counts sum to the nth count."""

    def __init__(self, rule: SuccessionRule, order: int):
        at_least(order, 1, "order")
        self.rows = [[], *islice(_levels(rule), order)]

    def series_in_one_plus_a(self) -> XSeries:
        """Sum of S_{h,k} (1+a)^(h+k) per x-order, as a series in x: each
        level spread to sum_m c_m t^m on the diagonal, then t = 1+a."""
        return XSeries(_one_plus([(0, 0, len(cs) - 1, cs)])  # one row: t^m at h = m
                       for cs in (_spread(rows, 1, 1) for rows in self.rows))


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


def _equation(rule: SuccessionRule) -> tuple[Poly, dict[_LinearMap, Poly]]:
    """(K, {M: c}) with K S_n = sum c (S_(n-1) o M) for n >= 2, from rule.rows
    alone: a row's children are its first child minus its one-past-last, over
    1 - y^dx z^dy (its one child, span + 1 times, if d = (0, 0)), and K clears
    every such denominator and negative exponent.  A row with d = (0, 0) whose
    span depends on h or k, or one with d != (0, 0) whose span can fall below
    -1 at a positive label, raises ValueError.  Poly prints (y, z) as (a, b):

    >>> _equation(RULES["cat"])
    (1 + -1*a^1, {((0, 0), (0, 0)): 1*a^1*b^1, ((1, 0), (0, 0)): -1*a^2*b^1})
    """
    steps = {d: Poly({(0, 0): 1, d: -1}) for _, _, d, _ in rule.rows if d != (0, 0)}
    terms: dict[_LinearMap, Poly] = {}
    for x, y, d, span in rule.rows:
        if d not in steps and span[1:] != (0, 0):
            raise ValueError(f"rule {rule.name}: a row with step (0, 0) has a span "
                             f"that depends on h or k")
        if d in steps and (min(span[1:]) < 0 or sum(span) < -1):  # sum: at (1, 1)
            raise ValueError(f"rule {rule.name}: a row with step {d} has a span "
                             f"that can fall below -1")
        copies = 1 if d in steps else max(span[0] + 1, 0)
        past = _lin((1, span), (1, (1, 0, 0)))  # span + 1
        end = _lin((1, x), (d[0], past)), _lin((1, y), (d[1], past))
        others = prod((v for e, v in steps.items() if e != d), start=Poly({(0, 0): 1}))
        for sign, (x0, xh, xk), (y0, yh, yk) in ((copies, x, y), (-1 if d in steps else 0, *end)):
            m = (xh, xk), (yh, yk)
            terms[m] = terms.get(m, Poly()) + others * Poly({(x0, y0): sign})
    kernel = prod(steps.values(), start=Poly({(0, 0): 1}))
    lows = [min(0, *c) for c in zip(*(e for p in (kernel, *terms.values()) for e in p.c))]
    clear = Poly({(-lows[0], -lows[1]): 1})
    return kernel * clear, {m: c * clear for m, c in terms.items()}


def _label_residual(rule: SuccessionRule, order: int) -> Residual:
    """residual_scan of K (S_n - [n=1] axiom) - sum c (S_(n-1) o M) over
    n = 1..order, for the rule's equation (K, {M: c}) from _equation.

    Computed on ints: each level, and each image S o M but S itself, is
    packed once at y = 2^b, z = 2^(bw) straight from the level's live rows
    (_pack), so a monomial of K or c is a shift, and only a nonzero defect is
    read back (_digits, cell e at y^(e mod w) z^(e div w)).  No defect
    coefficient exceeds (|K|_1 + sum |c|_1)(largest level sum |S| + 1), and b
    is _width of that bound; w exceeds every y-exponent a product term can
    carry, read off the first and last live label of each row (an affine
    exponent peaks at one of them), so no two cells meet.
    """
    at_least(order, 2, "order")
    kernel, terms = _equation(rule)
    rows = LabelSeries(rule, order).rows

    def exponents(m: _LinearMap, rs: list[Level]) -> list[tuple[int, int]]:
        (xh, xk), (yh, yk) = m  # of the images of each row's first and last label
        return [(xh * h + xk * k, yh * h + yk * k) for r in rs for k, i, j, _ in r for h in (i, j)]

    images = {m: exponents(m, rows[:-1]) for m in terms if m != _IDENTITY}
    if any(min(e) < 0 for es in images.values() for e in es):
        raise ValueError(f"rule {rule.name}: a label image S o M has an exponent below 0")
    images[_IDENTITY] = [*exponents(_IDENTITY, rows), rule.axiom]
    w = 1 + max(max([i for i, _ in c.c], default=0) + max([i for i, _ in images[m]], default=0)
                for m, c in [(_IDENTITY, kernel), *terms.items()])
    b = _width(sum(sum(map(abs, c.c.values())) for c in (kernel, *terms.values()))
               * (max(sum(sum(map(abs, vals)) for *_, vals in r) for r in rows) + 1))
    axiom = 1 << b * (rule.axiom[0] + w * rule.axiom[1])

    def times(c: Poly, v: int) -> int:  # c(2^b, 2^(bw)) v
        return sum(x * (v << b * (i + w * j)) for (i, j), x in c.c.items())

    def defects() -> Iterable[tuple[int, Poly]]:
        last = 0  # S_(n-1) packed
        for n in range(1, order + 1):
            now = _pack(rows[n], _IDENTITY, b, w)
            v = times(kernel, now - axiom if n == 1 else now) - sum(
                times(c, last if m == _IDENTITY else _pack(rows[n - 1], m, b, w))
                for m, c in terms.items())
            if v:
                yield n, Poly({(e % w, e // w): x for (e, _), x in _digits(v, b, 0).c.items()})
            last = now

    return residual_scan(defects())


def residual_semi(order: int) -> Residual:
    """Defect of the derived semi equation; tests check it is -1 times the paper's:

        (1-y)(z-y) S = xyz(1-y)(z-y) + xyz(z-y)(S(1,z) - S(y,z))
                     + xyz(1-y)(S(y,z) - S(y,y)).

    Returns (max absolute residual, first offending (n, ydeg, zdeg) or
    None); (0, None) means the identity holds through x^order.
    """
    return _label_residual(RULES["semi"], order)


def residual_strong(order: int) -> Residual:
    """Defect of the derived strong equation; tests check it is the paper's:

        (1-y)(1-z) I = xyz(1-y)(1-z) + x(1-z)(y I(1,z) - I(y,z))
                     + xz(1-y)(1-z) I + xyz(1-y)(I(y,1) - I(y,z)).
    """
    return _label_residual(RULES["strong"], order)


def _divmod(f: list, g: list) -> tuple[list, list]:
    """Quotient and remainder over Fraction of polynomials in one variable,
    each listed from its constant term up with no trailing zero (0 is []).

    >>> _divmod([-1, 0, 1], [1, 1])
    ([Fraction(-1, 1), Fraction(1, 1)], [])
    """
    q, r = [Fraction(0)] * max(len(f) - len(g) + 1, 0), list(map(Fraction, f))
    while len(r) >= len(g):
        c, i = r[-1] / g[-1], len(r) - len(g)
        q[i] = c
        for j, v in enumerate(g):
            r[i + j] -= c * v
        while r and not r[-1]:
            r.pop()
    return q, r


_Mobius = tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]  # see _group


@cache
def _group(rule: SuccessionRule) -> tuple[Poly, Poly, tuple[_Mobius, _Mobius]]:
    """(N, D, (y-map, z-map)) for the kernel group of the rule, with N = c_I,
    the coefficient of the identity map in _equation(rule), and D = K: the
    group fixes g = N/D, which holds no x (Bousquet-Mélou and Mishna, "Walks
    with small steps in the quarter plane", 2010).  For u one variable, w the
    other, and n_i, d_i the u^i-coefficients of N and D (polynomials in w; a
    degree above 2 in u raises ValueError), the other root of N(t, w) -
    g(u, w) D(t, w) is u' = (al + be u) / (de u - be), al = n0 d1 - n1 d0,
    be = n0 d2 - n2 d0, de = n2 d1 - n1 d2: a Möbius involution.  al, be and
    de are divided by their common factor (else the map has poles the true
    map lacks), scaled to ints and kept as equally long coefficient tuples in w.
    """
    kernel, terms = _equation(rule)
    n, d = terms.get(_IDENTITY, Poly()), kernel
    maps = []
    for s in (0, 1):
        if any(e[s] > 2 for e in (*n.c, *d.c)):
            raise ValueError(f"rule {rule.name}: its kernel is not quadratic in {'yz'[s]}")
        (n0, n1, n2), (d0, d1, d2) = ([laurent({e[1 - s]: v for e, v in p.c.items() if e[s] == i})
                                      for i in range(3)] for p in (n, d))
        polys = [[f.coeff(e, 0) for e in range(1 + max((e for e, _ in f.c), default=-1))]
                 for f in (n0 * d1 - n1 * d0, n0 * d2 - n2 * d0, n2 * d1 - n1 * d2)]
        common = []
        for f in polys:  # Euclid
            while f:
                common, f = f, _divmod(common, f)[1]
        if not common:
            raise ValueError(f"rule {rule.name}: its kernel gives no map in {'yz'[s]}")
        qs = [_divmod(f, common)[0] for f in polys]
        scale, width = lcm(*(c.denominator for f in qs for c in f)), max(map(len, qs))
        maps.append(tuple(tuple(int(c * scale) for c in f + [0] * (width - len(f))) for f in qs))
    return n, d, (maps[0], maps[1])


# Orbits are counted mod this prime first; see kernel_orbit.
_P = 2**61 - 1
_SLOTS = 12  # cells per power of W when _kernel_data reads num off one int


def _mod_p(r: Rat) -> int:
    """The image of a rational in GF(_P); ValueError if _P divides its denominator."""
    r = Fraction(r)
    return r.numerator * pow(r.denominator, -1, _P) % _P


def _image(maps: tuple[_Mobius, _Mobius], i: int, p: tuple, prime: int) -> tuple:
    """p with coordinate i sent through its map, over Fraction (prime 0) or,
    on ints, mod prime, where a zero denominator raises pow's ValueError.  One int
    evaluation serves both: at w = s/t, u = r/q (t = q = 1 mod p) and al, be,
    de homogenised by t^deg, u' = (al q + be r) / (de r - be q)."""
    w, u = p[1 - i], p[i]
    s, t, r, q = w.numerator, w.denominator, u.numerator, u.denominator
    al = be = de = 0
    x = 1  # s^e
    for a, b, d in zip(*maps[i]):
        al, be, de, x = al * t + a * x, be * t + b * x, de * t + d * x, x * s
    num, den = al * q + be * r, de * r - be * q
    v = num * pow(den, -1, prime) % prime if prime else Fraction(num, den)
    return (v, p[1]) if i == 0 else (p[0], v)


def _walk(maps: tuple[_Mobius, _Mobius], p: tuple, prime: int) -> Iterator[tuple]:
    """p, ι₀p, ι₁ι₀p, ... (ι_i the map of coordinate i) until back at p after an
    even number of moves: the points of a finite orbit of the two involutions."""
    yield p
    q, i = _image(maps, 0, p, prime), 1
    while i or q != p:
        yield q
        q, i = _image(maps, i, q, prime), 1 - i


def _orbit_size(maps: tuple[_Mobius, _Mobius], start: tuple, limit: int, prime: int) -> int:
    """The distinct points of start's _walk, up to limit + 1 of them, read off
    its first 2 limit + 2 points (more only where a map is no involution)."""
    seen: set[tuple] = set()
    for q in islice(_walk(maps, start, prime), 2 * limit + 2):
        seen.add(q)
        if len(seen) > limit:
            break
    return len(seen)


def kernel_orbit(rule: SuccessionRule, y: Rat, z: Rat, limit: int) -> int:
    """Orbit size of (y, z) under the two maps of the kernel group of `rule`
    (_group, _walk); a size of limit + 1 means the orbit did not close by then.

    The orbit is first counted mod p = 2^61 - 1, whose residues stay at 61
    bits where the rational points grow to thousands of bits, and that count
    is kept only when it exceeds `limit`: with no denominator 0 mod p,
    reduction commutes with both maps, and points distinct mod p are
    distinct over Q.  An orbit that closes mod p (so every finite orbit)
    proves nothing over Q, nor does a pole mod p: both are recounted over
    Fraction, which raises ZeroDivisionError at a true pole.

    >>> kernel_orbit(RULES["semi"], Fraction(5, 3), Fraction(12, 5), 200)
    10
    """
    maps = _group(rule)[2]
    try:
        size = _orbit_size(maps, (_mod_p(y), _mod_p(z)), limit, _P)
    except ValueError:
        size = 0  # a pole mod p
    if size > limit:
        return size
    return _orbit_size(maps, (Fraction(y), Fraction(z)), limit, 0)


def kernel_invariance(rule: SuccessionRule, order: int | None, trials: int, seed: int) -> dict:
    """Probe kernel invariance and orbit closure of rule's group at random
    rational points, against the claimed order (None: the group is open).

    At a random p = (1 + r1, 1 + r2), both images p' under the maps of
    _group must fix g = N/D, checked exactly as N(p') D(p) == N(p) D(p').
    A finite group's orbits must close with exactly `order` points; an open
    group's must stay open past 100 points.  Points that hit a pole, and
    points with a nontrivial stabiliser (an orbit that closes at a proper
    divisor of `order`), are re-drawn, at most 10 times each; then it
    raises ValueError.
    """
    at_least(trials, 1, "trials")
    rng = random.Random(seed)
    n, d, maps = _group(rule)
    redraws, invariant_ok, orbit_sizes = 0, True, []

    for _ in range(trials):
        for attempt in range(11):
            p = tuple(1 + Fraction(rng.randint(1, 40), rng.randint(1, 40)) for _ in "yz")
            try:
                images = [_image(maps, i, p, 0) for i in (0, 1)]
                size = kernel_orbit(rule, *p, order or 100)
            except ZeroDivisionError:  # a pole
                size = 0
            if size and not (order and size < order and order % size == 0):
                break
            redraws += 1
        else:
            raise ValueError(f"no generic {rule.name} point after 10 re-draws")
        invariant_ok = invariant_ok and all(
            _at(n, q) * _at(d, p) == _at(n, p) * _at(d, q) for q in images)
        orbit_sizes.append(size)
    orbit_ok = all(s == order if order else s > 100 for s in orbit_sizes)
    return {"redraws": redraws, "invariant_ok": invariant_ok, "orbit_ok": orbit_ok,
            "orbit_sizes": orbit_sizes, "ok": invariant_ok and orbit_ok}


def _at(f: Poly, p: tuple[Fraction, Fraction]) -> Fraction:
    """f(y, z) at the rational point p, exactly, on ints (f has no exponent < 0)."""
    (r, s), (u, v) = ((c.numerator, c.denominator) for c in p)
    i, j = (max([e[k] for e in f.c], default=0) for k in (0, 1))
    return Fraction(sum(x * r ** h * s ** (i - h) * u ** k * v ** (j - k)
                        for (h, k), x in f.c.items()), s ** i * v ** j)


def _chain(rule: SuccessionRule, y: Rat, z: Rat) -> tuple[Fraction, Fraction, Fraction]:
    """(c, e, z') with B(y) = c + e A(z'), where on the kernel _equation reads
    0 = K y^h0 z^k0 + c_A A(z) + c_B B(y), (h0, k0) the axiom: from (y, z), solve
    for B, move by the y-map, solve for A, move by the z-map, and so on over half
    the orbit.  An open orbit, one of size not 2 mod 4 and a pole raise ValueError."""
    kernel, terms = _equation(rule)
    (c_a,), (c_b,) = ([c for m, c in terms.items() if m[i] == (0, 0)] for i in (0, 1))
    free, maps = kernel * Poly({rule.axiom: 1}), _group(rule)[2]
    try:
        size, c, e = kernel_orbit(rule, y, z, 200), 0, 1
        if size > 200 or size % 4 != 2:
            raise ValueError(f"rule {rule.name}: no half-orbit chain (orbit size {size})")
        *half, end = islice(_walk(maps, (Fraction(y), Fraction(z)), 0), size // 2 + 1)
        for i, p in zip(cycle((0, 1)), half):  # i = 0: the unknown is B(p[0])
            cs = _at(c_b, p), _at(c_a, p)
            c, e = c - e * _at(free, p) / cs[i], -e * cs[1 - i] / cs[i]
    except ZeroDivisionError:
        raise ValueError(f"rule {rule.name}: the chain from ({y}, {z}) meets a pole") from None
    return c, e, end[1]


@cache
def _kernel_data() -> tuple[Poly, Poly, Poly]:
    """(g, num, den), Polys keyed (e, k) for a^e W^k, with F = x g and P =
    num/den.  With Z = W+1+a, den = Z a^4 (Z-1) is typed here; the semi _chain
    from (1+a, Z) has c = -P, so num = -c den, read at a = 2^16, W = a^w, w =
    _SLOTS (signed 16-bit digit e at a^(e mod w) W^(e div w)) and confirmed at
    a rational point (else ValueError).  num is (1+a-Z) N(a, Z) = -W N(a, Z),
    and with x = a W / ((1+a) Z (Z-1)) from W's equation, F = -P holds for g =
    (1+a) a^-5 N(a, Z) = -(1+a) a^-5 num / W."""
    w, point = _SLOTS, (Fraction(3, 7), Fraction(27, 35))
    den = Poly({(4, 1): 1, (5, 0): 1}) * Poly({(0, 0): 1, (1, 0): 1, (0, 1): 1})  # a^4 (Z-1) Z
    v, want = (-_chain(RULES["semi"], 1 + a, 1 + a + x)[0] * _at(den, (a, x))
               for a, x in ((Fraction(1 << 16), Fraction(1 << 16 * w)), point))
    num = Poly({(e % w, e // w): x for (e, _), x in _digits(v.numerator, 16, 0).c.items()})
    if v.denominator != 1 or _at(num, point) != want:
        raise ValueError(f"semi kernel chain: P's numerator read with {w} slots fails at {point}")
    return num * Poly({(-5, -1): -1, (-4, -1): -1}), num, den


def verify_reduced_identity(a0: Rat, order: int) -> dict:
    """Check the two identities tying F, P and the semi label series at
    a fixed rational a0 (not 0, -1 or 1), everything truncated at x^order:

      (i)  F(a0, W) = -P(a0, Z) with Z = W + 1 + a0;
      (ii) S(1+a0, 1+a0) + ((1+a0)^2 x / a0^4) S(1, 1+1/a0) + P(a0, Z) = 0,

    with F = x g and P = num/den read off the semi kernel chain as
    polynomials in (a, W) (_kernel_data), and both S evaluations read off the
    semi rule's label levels, each level spread to its image in the one
    variable it is read in, a coefficient list (_spread).

    Each side X is compared as X den + num, which is (X + P) den through
    x^order.  den has the constant term a0^5 (1+a0), nonzero here, so that
    product first becomes nonzero at the same x^n as X + P does: the
    reported first failures are those of the uncleared comparison.

    On ints: with a0 = p/q in lowest terms (q > 0) and x = t p q, a ring map
    that multiplies [x^n] by (pq)^n != 0, V = q W is _v_at(p, q), and
    _cleared gives g, num and den, each times its own p^i q^j, as int series.
    The label side is cleared here, to q^sq p^(3+sp) X, sq and sp the extra
    powers of q and p that keep every exponent of the label levels read
    nonnegative (1 and 0 for the semi rule).  X den and num are then scaled
    by each other's powers, so each comparison is a nonzero constant times
    the uncleared one with x = t p q, zero at t^n exactly where that is at x^n.
    """
    a = Fraction(a0)
    p, q = a.numerator, a.denominator
    if p in (0, q, -q):
        raise ValueError(f"a0 must not be 0, -1 or 1, got {a}")
    at_least(order, 2, "order")
    (ig, jg, g), (im, jm, num), (id_, jd, den) = _cleared(_kernel_data(), p, q, _v_at(p, q, order))

    def first_fail(x: XSeries, i: int, j: int) -> int | None:  # of X den + num, x = p^i q^j X
        y = (x * den).scale(p ** im * q ** jm) + num.scale(p ** (i + id_) * q ** (j + jd))
        return next((n for n, c in enumerate(y.c) if c), None)

    rows = LabelSeries(RULES["semi"], order).rows
    diag, top = ([_spread(r, *m) for r in rows] for m in ((1, 1), (0, 1)))  # t^(h+k), t^k
    sq, sp = (max([0, *(len(lv) - 1 - n for n, lv in enumerate(s))]) for s in (diag, top))
    d = XSeries(sum(y * (p + q) ** m * p ** n * q ** (n + sq - m) for m, y in enumerate(lv) if y)
                for n, lv in enumerate(diag))
    t = XSeries(sum(y * (p + q) ** k * p ** (n + sp - k) * q ** n for k, y in enumerate(lv) if y)
                for n, lv in enumerate(top))
    xi = d.scale(p ** (3 + sp)) + t.scale((p + q) ** 2 * q ** (3 + sq)).shift_x()  # q^sq p^(3+sp) X
    f_fail = first_fail(g.shift_x().scale(p * q), ig, jg)  # F = x g, x = t p q
    sum_fail = first_fail(xi, 3 + sp, sq)
    return {"f_first_fail": f_fail, "sum_first_fail": sum_fail,
            "ok": f_fail is None and sum_fail is None}
