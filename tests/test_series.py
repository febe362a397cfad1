"""Formal series side: W, F, the nonneg-part theorem, residuals, kernels."""

import os
import re
import subprocess
import sys
from fractions import Fraction
from math import comb, prod
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import baxterlab
from baxterlab import formulas, rules, series

from conftest import SB


# ---------------------------------------------------------------------------
# Laurent / series primitives


def test_laurent_arithmetic():
    p = series.laurent({-1: 2, 1: 3})
    q = series.laurent({0: 1, 1: -3})
    assert (p + q).c == {(-1, 0): 2, (0, 0): 1}
    assert (p - p).c == {}
    assert (p * q).c == {(-1, 0): 2, (0, 0): -6, (1, 0): 3, (2, 0): -9}
    assert (p * 0).c == {}
    assert series.omega_geq(series.XSeries([p])).coeff_x(0).c == {(1, 0): 3}
    assert min(p.c) == (-1, 0) and max(p.c) == (1, 0)


def test_two_variable_poly():
    # 2y + 3z - yz as its live rows, as rules._read reads them off its terms,
    # spread to its images in z and on the diagonal
    p = series.Poly({(1, 0): 2, (0, 1): 3, (1, 1): -1})
    assert _level(p) == [(0, 1, 1, [2]), (1, 0, 1, [3, -1])] == rules._read(p.c)
    assert _poly(_level(p)) == p
    assert series._spread(_level(p), 0, 1) == [2, 2]
    assert series._spread(_level(p), 1, 1) == [0, 5, -1]
    assert (p * p).coeff(1, 1) == 12


def _level(p: series.Poly) -> list:
    """p in (y, z), no exponent below 0, as the live rows that rules._levels
    yields: (k, i, j, coefficients of y^i z^k .. y^j z^k) per k with a term,
    in increasing k, i and j the least and largest h with a term."""
    rows = []
    for k in sorted({k for _, k in p.c}):
        hs = [h for h, kk in p.c if kk == k]
        i, j = min(hs), max(hs)
        rows.append((k, i, j, [p.coeff(h, k) for h in range(i, j + 1)]))
    return rows


def _poly(rows: list) -> series.Poly:
    """A level's live rows as its polynomial in (y, z)."""
    return series.Poly({(h, k): v for k, i, _, vals in rows for h, v in enumerate(vals, i)})


def _levels_with(n: int, change):
    """A stand-in for rules._levels that yields change(rows) for level n's rows."""
    def levels(rule):
        for m, rows in enumerate(rules._levels(rule), 1):
            yield change(rows) if m == n else rows
    return levels


def _bump(label: tuple[int, int], delta: int):
    """The change that adds delta to label's count, opening or widening its row."""
    return lambda rows: _level(_poly(rows) + series.Poly({label: delta}))


def test_poly_coeff_needs_both_exponents():
    p = series.laurent({0: 5})
    assert p.coeff(0, 0) == 5
    with pytest.raises(TypeError):
        p.coeff(0)


_POLY = st.dictionaries(st.tuples(st.integers(0, 5), st.integers(0, 5)),
                        st.integers(-9, 9), max_size=6).map(series.Poly)


@settings(max_examples=100, deadline=None)
@given(p=_POLY, q=_POLY)
def test_one_plus_is_a_ring_map(p, q):
    """y -> 1+a, z -> 1+b is a ring map, taking yz to (1+a)(1+b)."""
    def one_plus(p):
        return series._one_plus(_level(p))

    assert one_plus(p * q) == one_plus(p) * one_plus(q)
    assert one_plus(p + q) == one_plus(p) + one_plus(q)
    assert one_plus(series.Poly({(0, 0): 1})) == series.Poly({(0, 0): 1})
    assert one_plus(series.Poly({(1, 1): 1})) == series.Poly(
        {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1})


# Laurent polynomials read back from their value at a = 2^b (series._digits).


@settings(max_examples=150, deadline=None)
@given(w=st.integers(1, 40), lo=st.integers(-12, 3), data=st.data())
def test_digits_round_trip_laurent_dicts(w, lo, data):
    """Any Laurent dict with every |c| < 2^(b-1), b = 8w bits from 8 to
    320, packed as the sum of c 2^(b(e-lo)), reads back unchanged; the
    extreme digits +-(2^(b-1) - 1), whose borrows reach the sign bit of the
    digit above, are drawn often."""
    b, half = 8 * w, 1 << 8 * w - 1
    coeff = st.integers(1 - half, half - 1) | st.sampled_from([1 - half, half - 1, -1, 1])
    d = data.draw(st.dictionaries(st.integers(lo, lo + 12), coeff, max_size=8))
    v = sum(c << b * (e - lo) for e, c in d.items())
    assert series._digits(v, b, lo) == series.laurent(d)


def test_xseries_product():
    zero = series.Poly()
    x = series.XSeries([zero, series.laurent({0: 1}), zero, zero])
    assert ((x * x) + x).coeff_x(2).c == {(0, 0): 1}
    assert (x * x).coeff_x(1).c == {}
    assert (x * x * x).coeff_x(3).c == {(0, 0): 1}
    with pytest.raises(ValueError, match="orders differ"):
        x * series.XSeries([zero, zero])


# ---------------------------------------------------------------------------
# W and F


def test_solve_w_low_orders():
    w = series.solve_W(6)
    assert w.coeff_x(1).c == {(0, 0): 1, (1, 0): 2, (2, 0): 1}
    # (1+a)^3 (1+2a) / a
    assert w.coeff_x(2).c == {(-1, 0): 1, (0, 0): 5, (1, 0): 9, (2, 0): 7, (3, 0): 2}


def test_solve_w_exponent_window():
    w = series.solve_W(10)
    for n in range(1, 11):
        (lo, _), (hi, _) = min(w.coeff_x(n).c), max(w.coeff_x(n).c)
        assert -(n - 1) <= lo and hi <= 2 * n, n


def test_f_constant_column_is_the_sequence():
    f = series.build_F(15)
    got = [f.coeff_x(n).coeff(0, 0) for n in range(1, 16)]
    assert got[:13] == SB
    assert got == formulas.sb_recurrence(15)[1:]


def test_nonneg_part_theorem():
    order = 10
    lhs = series.omega_geq(series.build_F(order))
    rhs = series.LabelSeries(rules.RULES["semi"], order).series_in_one_plus_a()
    for n in range(1, order + 1):
        assert lhs.coeff_x(n) == rhs.coeff_x(n), n


def test_nonneg_part_x3_spot_check():
    # level three carries labels (1,2):1, (1,3):1, (2,2):2, (3,1):2
    f3 = series.omega_geq(series.build_F(3)).coeff_x(3)
    dist = {(1, 2): 1, (1, 3): 1, (2, 2): 2, (3, 1): 2}
    want = series.Poly()
    one_plus_a = series.laurent({0: 1, 1: 1})
    for (h, k), cnt in dist.items():
        term = series.laurent({0: cnt})
        for _ in range(h + k):
            term = term * one_plus_a
        want = want + term
    assert f3 == want


def test_omega_trivial_cases():
    const = series.XSeries([series.laurent({0: 1})])
    assert series.omega_geq(const).coeff_x(0).c == {(0, 0): 1}
    neg = series.XSeries([series.Poly(), series.laurent({-1: 1})])
    assert series.omega_geq(neg).coeff_x(1).c == {}


# ---------------------------------------------------------------------------
# Lagrange inversion


@pytest.mark.parametrize("k", range(1, 13))
def test_lagrange_first_power(k):
    w = series.solve_W(12)
    assert series.lagrange_coeff(0, k, 1) == w.coeff_x(k).coeff(0, 0)


def test_lagrange_cube():
    w = series.solve_W(10)
    w3 = w * w * w
    for k in range(3, 11):
        for s in range(-5, 6):
            assert series.lagrange_coeff(s, k, 3) == w3.coeff_x(k).coeff(s, 0), (s, k)


def test_lagrange_sum_keeps_the_vanishing_convention():
    # the whole range 0 <= j <= k-i with C(m, r) = 0 for r < 0, on every s
    # where a term can be nonzero and a margin of empty sums on both sides
    def c(m, r):
        return comb(m, r) if r >= 0 else 0

    for k in range(1, 16):
        for i in (1, 2, 3):
            for s in range(-3 * k - 5, 3 * k + 6):
                total = sum(c(k, j) * c(k, j + i) * c(k + j + i, j + s) for j in range(k - i + 1))
                assert series.lagrange_coeff(s, k, i) == Fraction(i * total, k), (s, k, i)


def test_solve_w_past_256_bit_coefficients_matches_lagrange():
    """At order 80 the coefficients of W pass 256 bits; a sampled (s, k, i)
    grid of [a^s x^k] W^i equals the inversion formula.  W, W^2 and W^3
    are read from one solve at a = 2^b, with b the _width of W^3 at a = 1,
    as _read would take it for f = W^3, so that every row of all three
    reads back by _digits.  W^2 is formed one row at a time; W^3 needs
    every row of W^2 below k, so it is sampled lower."""
    order = 80
    u = series._v_at(1, 1, order)
    b = series._width(max((u * u * u).c))
    w = series._v_at(1 << b, 1, order)
    w2 = [series._row(w.c, w.c, k) for k in range(41)]
    powers = {
        1: {k: series._digits(w.c[k], b, -k) for k in (1, 37, 79, 80)},
        2: {k: series._digits(series._row(w.c, w.c, k), b, -k) for k in (2, 61, 80)},
        3: {k: series._digits(series._row(w.c, w2, k), b, -k) for k in (3, 40)},
    }
    assert max(abs(v).bit_length() for v in powers[1][order].c.values()) > 256
    for i, rows in powers.items():
        for k, got in rows.items():
            for s in [*range(1 - k, 2 * k + 1, 11), 2 * k]:
                assert series.lagrange_coeff(s, k, i) == got.coeff(s, 0), (s, k, i)


def test_width_is_the_least_byte_width_above_the_bound():
    """_width(bound) is the least multiple of 8 with bound < 2^(b-1)."""
    for bound, b in [(0, 8), (1, 8), (127, 8), (128, 16), (2 ** 15 - 1, 16), (2 ** 15, 24)]:
        assert series._width(bound) == b, bound
    for bound in range(1, 5000, 7):
        b = series._width(bound)
        assert b % 8 == 0 and bound < 1 << b - 1 and (b == 8 or bound >= 1 << b - 9)


def test_kronecker_width_keeps_the_sign_bit_clear(monkeypatch):
    """For f = W - top the bound at a = 1 is (top, 4, 24): _read takes b as
    the least whole-byte width with every entry below 2^(b-1), and -top
    reads back at x^0."""
    widths = []
    width = series._width
    monkeypatch.setattr(series, "_width", lambda bound: widths.append(width(bound)) or widths[-1])
    w = series.solve_W(2)
    for top, b in [(1, 8), (127, 8), (128, 16), (2 ** 15 - 1, 16), (2 ** 15, 24)]:
        got = series._read(series.Poly({(0, 0): -top, (0, 1): 1}), 2)
        assert widths[-1] == b, top
        assert got.c == [series.laurent({0: -top}), *w.c[1:]], top


@pytest.mark.parametrize("order", [1, 2, 5, 12])
def test_int_path_equals_the_dict_path(order):
    """solve_W and build_F at a = 2^b are a change of representation only:
    they equal the online solve and the paper's F display, x sum c_k W^k,
    both on Poly coefficients."""
    w = series.online_fixpoint(series.laurent({-1: 1, 0: 1}), series.laurent({0: 1, 1: 1}),
                               series.laurent({1: 1}), order)
    assert series.solve_W(order) == w
    w2 = w * w
    c = _F_DISPLAY
    f = w.scale(c[1]) + w2.scale(c[2]) + (w2 * w).scale(c[3]) + c[0]
    assert series.build_F(order) == f.shift_x()


# ---------------------------------------------------------------------------
# label series and functional-equation residuals

_ALL_RULES = [rules.RULES[name] for name in sorted(rules.RULES)]


def test_label_series_counts():
    ls = series.LabelSeries(rules.RULES["semi"], 10)
    # index 0 is the empty level; y = z = 1 gives the plain counts
    assert [sum(sum(vals) for *_, vals in rows) for rows in ls.rows] == [0] + SB[:10]


def test_residuals_vanish():
    assert series.residual_semi(10) == (0, None)
    assert series.residual_strong(10) == (0, None)
    assert series.residual_semi(2) == (0, None)
    for rule in rules.RULES.values():
        assert series._label_residual(rule, 10) == (0, None), rule.name
        assert series._label_residual(rule, 2) == (0, None), rule.name


def test_a_parsed_rule_needs_no_registry_entry():
    # the semi text parsed under a name no table holds: LabelSeries,
    # _label_residual and kernel_orbit act on the rule they are handed and
    # look nothing up, so they give the built-in's results and RULES is untouched
    before = dict(rules.RULES)
    semi = rules.RULES["semi"]
    parsed = rules.parse_rule(rules.RULE_FILE_SOURCES["semi"], "semi-copy")
    assert series.LabelSeries(parsed, 8).rows == series.LabelSeries(semi, 8).rows
    assert series._label_residual(parsed, 8) == series._label_residual(semi, 8) == (0, None)
    point = Fraction(5, 3), Fraction(12, 5)
    assert series.kernel_orbit(parsed, *point) == series.kernel_orbit(semi, *point) == 10
    assert rules.RULES == before


@pytest.mark.parametrize("text", [
    "axiom (1,1)\nrow (h, k) for i = 1..2\n",
    "axiom (1,1)\nrow (i, k+1) for i = 1..h\nrow (h+1, k) for i = 0..2\nrow (h, i) for i = 1..k\n",
], ids=["alone", "among-runs"])
def test_equation_counts_every_copy_of_a_repeated_child(text):
    """A row with step (0, 0) and constant span s puts s + 1 copies of one
    child, so its term carries the weight s + 1."""
    assert series._label_residual(rules.parse_rule(text, "dup"), 10) == (0, None)


def test_equation_rejects_a_repeat_count_that_depends_on_the_label():
    rule = rules.parse_rule("axiom (1,1)\nrow (h, k) for i = 1..h\n", "dup")
    with pytest.raises(ValueError, match=r"rule dup: a row with step \(0, 0\)"):
        series._equation(rule)


@pytest.mark.parametrize("row", ["row (i, k) for i = 1..h-2",  # span -2 at h = 1
                                 "row (i, k) for i = h..k"])   # span k - h
def test_equation_rejects_a_run_span_below_minus_one(row):
    """next_level counts no children where a run's span is below -1, but the
    first-child-minus-one-past-last term would count a negative number."""
    text = f"axiom (1,1)\nrow (i, k+1) for i = 1..h\n{row}\n"
    with pytest.raises(ValueError, match=r"rule low: a row with step \(1, 0\) has a span "
                                         r"that can fall below -1"):
        series._label_residual(rules.parse_rule(text, "low"), 6)


def test_residual_rejects_an_image_exponent_below_zero(monkeypatch):
    # no rule's equation has such a map; y^h becoming y^-h cannot be packed
    kernel, terms = series._equation(rules.RULES["cat"])
    flipped = {((-1, 0), (0, 0)) if m == ((1, 0), (0, 0)) else m: c for m, c in terms.items()}
    monkeypatch.setattr(series, "_equation", lambda rule: (kernel, flipped))
    with pytest.raises(ValueError, match="rule cat: .* below 0"):
        series._label_residual(rules.RULES["cat"], 4)


# The paper's cleared label equations, as in the residual_semi and
# residual_strong docstrings: the kernel K and {M: c} for K S_n = sum c
# (S_(n-1) o M), M = ((a, b), (c, d)) sending y^h z^k to y^(ah+bk) z^(ch+dk).
_ONE, _Y, _Z = series.Poly({(0, 0): 1}), series.Poly({(1, 0): 1}), series.Poly({(0, 1): 1})
_ID, _Y_IS_1 = ((1, 0), (0, 1)), ((0, 0), (0, 1))
_Z_IS_1, _Z_IS_Y = ((1, 0), (0, 0)), ((1, 1), (0, 0))
_PAPER = {
    # (1-y)(z-y) S = xyz(1-y)(z-y) + xyz(z-y)(S(1,z) - S(y,z)) + xyz(1-y)(S(y,z) - S(y,y))
    "semi": ((_ONE - _Y) * (_Z - _Y), {
        _ID: _Y * _Z * (_ONE - _Y) - _Y * _Z * (_Z - _Y),
        _Y_IS_1: _Y * _Z * (_Z - _Y),
        _Z_IS_Y: -(_Y * _Z * (_ONE - _Y)),
    }),
    # (1-y)(1-z) I = xyz(1-y)(1-z) + x(1-z)(y I(1,z) - I(y,z))
    #              + xz(1-y)(1-z) I + xyz(1-y)(I(y,1) - I(y,z))
    "strong": ((_ONE - _Y) * (_ONE - _Z), {
        _ID: _Z * (_ONE - _Y) * (_ONE - _Z) - (_ONE - _Z) - _Y * _Z * (_ONE - _Y),
        _Y_IS_1: _Y * (_ONE - _Z),
        _Z_IS_1: _Y * _Z * (_ONE - _Y),
    }),
}


def _proportional(derived, paper) -> bool:
    """K_paper c_derived[M] == K_derived c_paper[M] for every map M: the two
    equations then hold for the same label series, at every n."""
    (k, c), (kp, cp) = derived, paper
    return all(kp * c.get(m, series.Poly()) == k * cp.get(m, series.Poly())
               for m in c.keys() | cp.keys())


def test_derived_equations_are_the_papers():
    for rule, sign in (("semi", -1), ("strong", 1)):
        derived = series._equation(rules.RULES[rule])
        assert derived[0] == _PAPER[rule][0] * sign, rule
        assert _proportional(derived, _PAPER[rule]), rule
    # negative control: one changed paper coefficient breaks the match
    kernel, terms = _PAPER["strong"]
    wrong = (kernel, {**terms, _Y_IS_1: terms[_Y_IS_1] + _Z})
    assert not _proportional(series._equation(rules.RULES["strong"]), wrong)


def test_residual_detects_perturbation(monkeypatch):
    """Negative control: a single off-by-one label count is pinpointed.

    Bumping the count of label (1,1) at level 3 leaves levels 1..2 alone,
    so the first nonzero defect appears in the x^3 slice of the cleared
    equation; the strong variant flags its own perturbed label the same
    way.
    """
    monkeypatch.setattr(series, "_levels", _levels_with(3, _bump((1, 1), 1)))
    assert series.residual_semi(6) == (1, (3, 1, 2))
    monkeypatch.setattr(series, "_levels", _levels_with(3, _bump((2, 1), 1)))
    assert series.residual_strong(6) == (2, (3, 2, 1))


@settings(max_examples=40, deadline=None)
@given(rule=st.sampled_from(_ALL_RULES), n=st.integers(1, 6),
       h=st.integers(0, 6), k=st.integers(0, 6),
       delta=st.integers(-3, 3).filter(bool))
@example(rule=rules.RULES["bax"], n=1, h=1, k=1, delta=-1)  # level 1 left empty
def test_residuals_pinpoint_any_bumped_label(rule, n, h, k, delta):
    """Bumping label (h, k) at level n puts the first defect in the x^n
    slice, as the kernel times that label: its least term is (h, k+1)
    under (1-y)(y-z) for semi and tbax, and (h, k) under (1-y)(1-z) for
    bax and strong and under 1-y for cat."""
    residual = {"semi": series.residual_semi, "strong": series.residual_strong}.get(rule.name)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(series, "_levels", _levels_with(n, _bump((h, k), delta)))
        max_abs, where = series._label_residual(rule, 6)
        if residual:
            assert residual(6) == (max_abs, where)
    assert max_abs >= abs(delta)
    assert where == ((n, h, k + 1) if rule.name in ("semi", "tbax") else (n, h, k))


@settings(max_examples=200, deadline=None)
@given(p=_POLY, m=st.tuples(*[st.integers(0, 2)] * 4), w=st.integers(1, 12))
@example(p=series.Poly({(0, 0): -1, (3, 0): 2, (0, 4): -2 ** 70}), m=(1, 0, 0, 1), w=4)
def test_pack_is_the_naive_sum(p, m, w):
    """_pack, scattering the level's rows into one byte string, equals the sum
    of v 2^(b(i + wj)) over the terms v y^h z^k of S, with i = ah + bk and
    j = ch + dk, signed counts and labels on the axes included."""
    xh, xk, yh, yk = m
    b = series._width(sum(map(abs, p.c.values())))
    naive = sum(v << b * (xh * h + xk * k + w * (yh * h + yk * k)) for (h, k), v in p.c.items())
    assert series._pack(_level(p), ((xh, xk), (yh, yk)), b, w) == naive


def _compose(s: series.Poly, m) -> series.Poly:
    """S o M: each y^h z^k of s sent to y^(ah+bk) z^(ch+dk), M = ((a, b), (c, d)),
    summing the terms that meet."""
    (a, b), (c, d) = m
    out: dict = {}
    for (h, k), v in s.c.items():
        e = a * h + b * k, c * h + d * k
        out[e] = out.get(e, 0) + v
    return series.Poly(out)


def _poly_residual(rule: rules.SuccessionRule, order: int) -> series.Residual:
    """The label residual on Poly arithmetic, a product per term: the oracle
    for _label_residual's packed ints."""
    kernel, terms = series._equation(rule)
    s = list(map(_poly, series.LabelSeries(rule, order).rows))
    axiom = series.Poly({rule.axiom: 1})
    return series.residual_scan(
        (n, kernel * (s[n] - axiom if n == 1 else s[n])
         - sum((c * _compose(s[n - 1], m) for m, c in terms.items()), series.Poly()))
        for n in range(1, order + 1)
    )


@settings(max_examples=150, deadline=None)
@given(rule=st.sampled_from(_ALL_RULES), order=st.integers(2, 10), data=st.data(),
       h=st.integers(0, 8), k=st.integers(0, 8),
       delta=st.integers(1, 2 ** 200).flatmap(lambda d: st.sampled_from([d, -d])))
@example(rule=rules.RULES["strong"], order=10, data=None, h=0, k=0, delta=-2 ** 200)
def test_packed_residual_equals_the_poly_oracle(rule, order, data, h, k, delta):
    """One label count of one level changed by delta, up to 2^200 either
    way: the packed residual reports the oracle's (max_abs, first offending),
    including where the label (h, k) was absent or has a 0 slot."""
    n = data.draw(st.integers(1, order)) if data else order
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(series, "_levels", _levels_with(n, _bump((h, k), delta)))
        assert series._label_residual(rule, order) == _poly_residual(rule, order)


# ---------------------------------------------------------------------------
# kernel group

# The hand-derived maps that each derived group must reproduce, as (y-map,
# z-map), each sending a point to its image: semi's in a = y - 1 and z,
# strong's in a = y - 1 and b = z - 1.
_HAND_MAPS = {
    "semi": (lambda a, z: ((z - 1 - a) / (1 + a), z),
             lambda a, z: (a, (z + z * a - 1 - a) / (z - 1 - a))),
    # the companion root of the quadratic in a fixing 1/a + a(1+b)/b: the
    # two roots have product b/(1+b), so a maps to b/(a(1+b))
    "strong": (lambda a, b: (b / (a * (1 + b)), b),
               lambda a, b: (a, (1 + a) / b)),
}
_SHIFT = {"semi": (1, 0), "strong": (1, 1)}  # (y, z) = shift + (a, b)
_GROUP_RULES = [rules.RULES[name] for name in ("bax", "semi", "strong", "tbax")]
_ORDER_6_RULES = [rules.RULES["bax"], rules.RULES["tbax"]]
_POINT = st.fractions(min_value=-9, max_value=9, max_denominator=9)


def _maps(rule):
    return series._group(rule)[2]


def _or_pole(f, *args):
    """f(*args), or None where it divides by zero over Fraction."""
    try:
        return f(*args)
    except ZeroDivisionError:
        return None


@settings(max_examples=100, deadline=None)
@given(group=st.sampled_from(sorted(_HAND_MAPS)), i=st.sampled_from([0, 1]),
       a=_POINT, b=_POINT)
def test_derived_kernel_maps_are_the_hand_maps(group, i, a, b):
    """Each derived map is the hand map under the shift, with the same poles:
    dividing out the common factor of al, be and de leaves none extra."""
    sy, sz = _SHIFT[group]
    want = _or_pole(_HAND_MAPS[group][i], a, b)
    got = _or_pole(series._image, _maps(rules.RULES[group]), i, (sy + a, sz + b), 0)
    assert got == (want and (sy + want[0], sz + want[1]))


def test_derived_kernel_maps_are_the_papers_at_a_point():
    # y -> z/y and z -> y(z-1)/(z-y) for semi; y -> (yz-1)/(z(y-1)) and
    # z -> (y+z-1)/(z-1) for strong
    y, z = Fraction(5, 3), Fraction(12, 5)
    semi, strong = _maps(rules.RULES["semi"]), _maps(rules.RULES["strong"])
    assert series._image(semi, 0, (y, z), 0) == (z / y, z)
    assert series._image(semi, 1, (y, z), 0) == (y, y * (z - 1) / (z - y))
    assert series._image(strong, 0, (y, z), 0) == ((y * z - 1) / (z * (y - 1)), z)
    assert series._image(strong, 1, (y, z), 0) == (y, (y + z - 1) / (z - 1))


def _cleared_g(n, d, p):
    """(N(p), D(p)): g = N/D is fixed where N(p') D(p) == N(p) D(p')."""
    return tuple(sum(v * p[0] ** i * p[1] ** j for (i, j), v in f.c.items()) for f in (n, d))


@settings(max_examples=60, deadline=None)
@given(rule=st.sampled_from(_GROUP_RULES), y=_POINT, z=_POINT)
def test_kernel_maps_fix_kernel_value_at_random_points(rule, y, z):
    """Both maps of each group fix g = N/D, and every semi orbit closes at a
    divisor of 10; points that hit a pole are skipped."""
    n, d, maps = series._group(rule)
    images = [_or_pole(series._image, maps, i, (y, z), 0) for i in (0, 1)]
    size = _or_pole(series.kernel_orbit, rule, y, z, 10)
    assume(None not in images and size is not None)
    gn, gd = _cleared_g(n, d, (y, z))
    for q in images:
        qn, qd = _cleared_g(n, d, q)
        assert qn * gd == gn * qd, (q, rule.name)
    if rule.name == "semi":
        assert size <= 10 and 10 % size == 0, size


def test_kernel_orbit_sizes():
    assert series.kernel_orbit(rules.RULES["semi"], Fraction(5, 3), Fraction(7, 5)) == 10
    size = series.kernel_orbit(rules.RULES["strong"], Fraction(5, 2), Fraction(7, 5))
    assert size > 200


@pytest.mark.parametrize("limit", [30, 31, 32, 33])
def test_open_orbit_count_stops_at_limit_plus_one(limit):
    # the count stops at the first point past the limit, at odd limits too,
    # both mod p and over Fraction
    strong, point = rules.RULES["strong"], (Fraction(5, 2), Fraction(7, 5))
    assert series.kernel_orbit(strong, *point, limit) == limit + 1
    assert series._orbit_size(_maps(strong), point, limit, 0) == limit + 1


def test_walk_meets_a_finite_orbit_once_round():
    # ι0 then ι1 in turn, back at the start after 10 moves, each point once
    semi, point = rules.RULES["semi"], (Fraction(5, 3), Fraction(7, 5))
    walk = list(series._walk(_maps(semi), point, 0))
    assert walk[1] == series._image(_maps(semi), 0, point, 0)
    assert len(walk) == len(set(walk)) == _fraction_orbit(semi, *point, 30) == 10


@settings(max_examples=50, deadline=None)
@given(rule=st.sampled_from(_ORDER_6_RULES), y=_POINT, z=_POINT)
def test_bax_and_tbax_orbit_sizes_divide_6(rule, y, z):
    size = _or_pole(series.kernel_orbit, rule, y, z, 6)
    assume(size is not None)
    assert 6 % size == 0, size


def test_bax_and_tbax_groups_have_order_6():
    # a generic point has 6 images, far below the limit; (4, 4/3) is a
    # stabilised tbax point whose orbit closes at 3
    bax, tbax = _ORDER_6_RULES
    for rule in (bax, tbax):
        assert series.kernel_orbit(rule, Fraction(5, 3), Fraction(12, 5), 200) == 6
    assert series.kernel_orbit(tbax, 4, Fraction(4, 3), 200) == 3


def test_a_kernel_above_quadratic_has_no_group():
    # the identity coefficient of this rule's equation has degree 3 in y
    rule = rules.parse_rule("axiom (1,1)\nrow (i, k+1) for i = 1..h\n"
                            "row (h+2, i) for i = 1..k\n", "deep")
    assert max(i for i, _ in series._equation(rule)[1][series._IDENTITY].c) == 3
    with pytest.raises(ValueError, match="rule deep: its kernel is not quadratic in y"):
        series._group(rule)
    # Catalan's equation has no identity term, so N = 0 and no map is defined
    with pytest.raises(ValueError, match="rule cat: its kernel gives no map in y"):
        series._group(rules.RULES["cat"])


# Rationals whose denominators avoid p, so that reduction mod p is defined.
_UNITS = st.fractions(max_denominator=10**30).filter(
    lambda r: r.denominator % series._P)


@settings(max_examples=50, deadline=None)
@given(r=_UNITS, s=_UNITS)
def test_reduction_mod_p_is_a_ring_map(r, s):
    red, p = series._mod_p, series._P
    assert all(0 <= v < p and type(v) is int for v in (red(r), red(s)))
    assert red(r + s) == (red(r) + red(s)) % p
    assert red(r - s) == (red(r) - red(s)) % p
    assert red(r * s) == red(r) * red(s) % p
    if red(s):
        assert red(r / s) == red(r) * pow(red(s), -1, p) % p


@settings(max_examples=60, deadline=None)
@given(rule=st.sampled_from(_GROUP_RULES), i=st.sampled_from([0, 1]), y=_UNITS, z=_UNITS)
def test_int_map_evaluation_mod_p_is_the_reduced_fraction_image(rule, i, y, z):
    """The one int evaluation, run on residues, gives the reduction of its
    image over Fraction wherever neither is a pole."""
    image = _or_pole(series._image, _maps(rule), i, (y, z), 0)
    assume(image is not None)
    try:
        reduced = series._image(_maps(rule), i, (series._mod_p(y), series._mod_p(z)), series._P)
    except ValueError:
        assume(False)
    assert reduced == tuple(map(series._mod_p, image))


@settings(max_examples=25, deadline=None)
@given(k=st.integers(min_value=-3, max_value=3).filter(bool), y=_UNITS)
def test_a_pole_mod_p_raises_value_error(k, y):
    # strong's z-map divides by z - 1, which is 0 mod p at z = 1 + kp
    z = 1 + k * series._P
    maps = _maps(rules.RULES["strong"])
    assert series._image(maps, 1, (y, z), 0)[1] == (y + z - 1) / (z - 1)
    with pytest.raises(ValueError):
        series._image(maps, 1, (series._mod_p(y), series._mod_p(z)), series._P)
    with pytest.raises(ValueError):
        series._mod_p(Fraction(1, k * series._P))


def _fraction_orbit(rule, y, z, limit):
    """Plain breadth-first orbit over Fraction, the oracle for kernel_orbit."""
    maps = _maps(rule)
    level = {(Fraction(y), Fraction(z))}
    seen = set(level)
    while level and len(seen) <= limit:
        level = {series._image(maps, i, p, 0) for p in level for i in (0, 1)} - seen
        seen |= level
    return len(seen)


@settings(max_examples=60, deadline=None)
@given(rule=st.sampled_from(_GROUP_RULES), y=_POINT, z=_POINT)
def test_kernel_orbit_equals_a_fraction_oracle(rule, y, z):
    """The oracle applies both maps to every point; kernel_orbit walks the
    two maps in turn and finds the same orbit."""
    expected = _or_pole(_fraction_orbit, rule, y, z, 30)
    assume(expected is not None)
    assert series.kernel_orbit(rule, y, z, limit=30) == expected


@settings(max_examples=60, deadline=None)
@given(rule=st.sampled_from(_GROUP_RULES),
       y=st.fractions(min_value=-40, max_value=40, max_denominator=40),
       z=st.fractions(min_value=-40, max_value=40, max_denominator=40))
def test_kernel_maps_are_involutions(rule, y, z):
    """f(f(p)) == p for both maps, over Fraction and mod p: _walk relies
    on it in both rings."""
    maps = _maps(rule)
    checked = 0
    for p, prime in (((y, z), 0), ((series._mod_p(y), series._mod_p(z)), series._P)):
        for i in (0, 1):
            try:
                back = series._image(maps, i, series._image(maps, i, p, prime), prime)
            except (ZeroDivisionError, ValueError):
                continue
            assert back == p, (i, p)
            checked += 1
    assume(checked)


@pytest.mark.parametrize("y, z", [(2, 1 + series._P), (1 + Fraction(1, series._P), 4)],
                         ids=["z=1+p", "y=1+1/p"])
def test_strong_orbit_falls_back_to_fraction_at_a_pole_mod_p(monkeypatch, y, z):
    # z = 1 + p is 1 mod p, so the z-map's (y + z - 1) / (z - 1) is a pole
    # there but not over Q; 1/p has no image mod p at all.  With p as both
    # primes, neither prime counts the orbit and Fraction does
    monkeypatch.setattr(series, "_PRIMES", (series._P, series._P))
    assert series.kernel_orbit(rules.RULES["strong"], y, z, 100) == 101


@pytest.mark.parametrize("y, z", [(2, 1 + series._P), (1 + Fraction(1, series._P), 4)],
                         ids=["z=1+p", "y=1+1/p"])
def test_strong_orbit_at_a_pole_mod_p_is_counted_mod_the_second_prime(monkeypatch, y, z):
    # the second prime meets no pole there, so the open orbit is proved
    # open without a Fraction point
    fraction_walks = []
    walk = series._walk
    monkeypatch.setattr(series, "_walk", lambda maps, p, prime: (
        fraction_walks.append(p) if not prime else None, walk(maps, p, prime))[1])
    assert series.kernel_orbit(rules.RULES["strong"], y, z, 100) == 101
    assert fraction_walks == []
    with pytest.raises(ValueError):  # the first prime does meet a pole
        series._orbit_size(_maps(rules.RULES["strong"]), tuple(map(series._mod_p, (y, z))),
                           100, series._P)


def test_strong_orbit_raises_at_a_pole_over_q():
    with pytest.raises(ZeroDivisionError):
        series.kernel_orbit(rules.RULES["strong"], 2, 1, 100)


def _patch_maps(monkeypatch, rule, maps):
    """Give the rule's group other maps, keeping its N and D."""
    n, d, _ = series._group(rule)
    monkeypatch.setattr(series, "_group", lambda r: (n, d, maps))


def test_closed_open_orbit_is_counted_exactly(monkeypatch):
    # y -> z/y and z -> -z generate a group of order 8 under the "open"
    # marker: the orbit closes mod p, which proves nothing, so the exact
    # count decides and the probe fails
    strong = rules.RULES["strong"]
    _patch_maps(monkeypatch, strong, (((0, 1), (0, 0), (1, 0)), ((0,), (1,), (0,))))
    assert series.kernel_orbit(strong, Fraction(2, 3), Fraction(5, 7), 100) == 8
    assert series.kernel_orbit(strong, 2, 4, 100) == 4  # z = y^2: y -> z/y fixes it
    # 1 + p and 1 meet mod p, so the orbit closes at 4 points there
    assert series.kernel_orbit(strong, 1, 1 + series._P, 100) == 8
    rep = series.kernel_invariance("strong", trials=2, seed=11)
    assert not rep["orbit_ok"] and not rep["ok"]
    assert all(s <= 8 for s in rep["orbit_sizes"])


def test_lagrange_and_kernel_guards():
    for s, k, i in [(0, 1, 4), (0, 1, 0), (0, 0, 1)]:
        with pytest.raises(ValueError, match=re.escape(f"k >= 1, got i={i}, k={k}")):
            series.lagrange_coeff(s, k, i)
    with pytest.raises(ValueError, match="unknown kernel group 'bax'"):
        series.kernel_invariance("bax", 1)


def test_kernel_invariance_reports():
    rep = series.kernel_invariance("semi", trials=3, seed=11)
    assert rep["ok"] and rep["invariant_ok"] and rep["orbit_ok"]
    assert all(s == 10 for s in rep["orbit_sizes"])
    rep = series.kernel_invariance("strong", trials=2, seed=11)
    assert rep["ok"]
    assert all(s > 100 for s in rep["orbit_sizes"])


def test_kernel_invariance_redraws_stabilised_semi_points():
    # seed 5 draws two points whose semi orbits close at 5 points and one
    # pole (z = y); each is re-drawn, and every accepted orbit has 10 points
    rep = series.kernel_invariance("semi", 40, seed=5)
    assert rep["ok"]
    assert rep["orbit_sizes"] == [10] * 40
    assert rep["redraws"] == 3
    # a seed that draws only a pole (z = y) keeps its report
    rep = series.kernel_invariance("semi", 40, seed=7)
    assert rep["ok"] and rep["redraws"] == 1


def test_kernel_invariance_gives_up_with_value_error(monkeypatch):
    # maps whose every image is 0/0 make every point a pole and exhaust the re-draws
    _patch_maps(monkeypatch, rules.RULES["semi"], (((0,), (0,), (0,)),) * 2)
    with pytest.raises(ValueError, match="no generic semi point after 10 re-draws"):
        series.kernel_invariance("semi", 1)


# ---------------------------------------------------------------------------
# kernel method: the half-orbit chain, and F and P read off it

# The paper's F display and the numerator of its P, typed by hand: the
# oracle the derived kernel data must reproduce.  F = x sum c_k W^k with
# c_0..c_3 below, and P = (1+a-Z) N(a, Z) / (Z a^4 (Z-1)), N keyed
# (a-power, Z-power).  _G, _NUM and _DEN are the same F = x g and P =
# num/den as polynomials in (a, W), keyed (a-power, W-power), Z = 1+a+W.
_F_DISPLAY = [series.laurent({0: 1, 1: 2, 2: 1}),
              series.laurent({-5: 1, -4: 1, 0: 2, 1: 2}),
              series.laurent({-5: -1, -4: -1, -3: 1, -2: -1, -1: -1, 0: 1}),
              series.laurent({-4: 1, -2: -1})]
_P_NUM = series.Poly({
    (4, 1): -1, (4, 2): 1, (3, 1): -1, (3, 2): 1, (2, 3): -1, (2, 0): -2, (2, 2): 1,
    (2, 1): 1, (1, 0): -4, (1, 1): 5, (1, 2): -3, (1, 3): 1, (0, 1): 3, (0, 2): -1,
    (0, 0): -2,
})
_ONE = series.Poly({(0, 0): 1})
_ONE_A = series.Poly({(0, 0): 1, (1, 0): 1})
_Z = _ONE_A + series.Poly({(0, 1): 1})
_G = sum((c * series.Poly({(0, k): 1}) for k, c in enumerate(_F_DISPLAY)), series.Poly())
_NUM = (_ONE_A - _Z) * sum((series.Poly({(i, 0): x}) * prod([_Z] * j, start=_ONE)
                            for (i, j), x in _P_NUM.c.items()), series.Poly())
_DEN = _Z * series.Poly({(4, 0): 1}) * (_Z - _ONE)
_A = Fraction(2 ** 16)  # a point a, and two values of Z, that the chains start from
_ZS = [Fraction(2 ** 192), Fraction(7, 3)]


def test_kernel_data_is_the_papers_F_and_P():
    g, num, den = series._kernel_data()
    assert g == _G
    assert num == _NUM
    assert den == _DEN


def test_kernel_data_is_derived_on_first_use_only():
    # importing runs no chain; the first use derives g, num and den, and
    # later ones reuse them
    code = (
        "from baxterlab import series\n"
        "info = series._kernel_data.cache_info\n"
        "before = info().misses\n"
        "series.build_F(3)\n"
        "series.verify_reduced_identity(2, 4)\n"
        "raise SystemExit(0 if (before, info().misses, info().hits) == (0, 1, 1) else str(info()))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(baxterlab.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60, env=env)
    assert done.returncode == 0, done.stderr + done.stdout


@pytest.mark.parametrize("z", _ZS, ids=["Z=2^192", "Z=7/3"])
def test_semi_chain_is_the_papers_reduced_identity(z):
    """Five steps (half of 10) from (1+a, Z) end at A(1+1/a) = S(1, 1+1/a)
    with coefficient -(1+a)^2 x / a^4, x = K/c_I there: identity (ii)."""
    semi = rules.RULES["semi"]
    kernel, terms = series._equation(semi)
    x = series._at(kernel, (1 + _A, z)) / series._at(terms[((1, 0), (0, 1))], (1 + _A, z))
    assert series.kernel_orbit(semi, 1 + _A, z) == 10
    c, e, end = series._chain(semi, 1 + _A, z)
    assert (e, end) == (-(1 + _A) ** 2 * x / _A ** 4, 1 + 1 / _A)
    assert c == -(1 + _A - z) * series._at(_P_NUM, (_A, z)) / (z * _A ** 4 * (z - 1))


@pytest.mark.parametrize("z", _ZS, ids=["Z=2^192", "Z=7/3"])
@pytest.mark.parametrize("rule", _ORDER_6_RULES, ids=["bax", "tbax"])
def test_bax_and_tbax_chains_close_after_three_steps(rule, z):
    # an orbit of 6 points: three steps from (1+a, Z) end at A(1 + 1/a),
    # free of Z
    assert series.kernel_orbit(rule, 1 + _A, z) == 6
    assert series._chain(rule, 1 + _A, z)[2] == 1 + 1 / _A


@pytest.mark.parametrize("z", _ZS, ids=["Z=2^192", "Z=7/3"])
def test_bax_chain_gives_a_baxter_identity(z):
    # S(1+a, 1) = (Z-1)(a^3+a+1-Za)/a^3 - S(1, 1+1/a)/a^2 on the bax kernel
    c, e, _ = series._chain(rules.RULES["bax"], 1 + _A, z)
    assert (c, e) == ((z - 1) * (_A ** 3 + _A + 1 - z * _A) / _A ** 3, -1 / _A ** 2)


def test_strong_has_no_chain():
    with pytest.raises(ValueError, match=r"^rule strong: no half-orbit chain \(orbit size 201\)"):
        series._chain(rules.RULES["strong"], Fraction(5, 2), Fraction(7, 5))


@pytest.mark.parametrize("y, z", [(1, 3), (2, 2), (Fraction(3, 2), 1)])
def test_chain_raises_value_error_at_a_pole(y, z):
    with pytest.raises(ValueError, match="meets a pole"):
        series._chain(rules.RULES["semi"], y, z)


def test_chain_rejects_a_stabilised_orbit():
    # (3, 3/2) has a semi orbit of 5 points: half of it is no whole chain
    with pytest.raises(ValueError, match=r"no half-orbit chain \(orbit size 5\)"):
        series._chain(rules.RULES["semi"], 3, Fraction(3, 2))


def test_kernel_data_read_with_too_few_slots_is_caught(monkeypatch):
    # with 3 slots a cell holds a^i W^j and a^(i+3) W^(j-1) at once; the read
    # at a = 2^16, W = a^3 is still an int, so only the confirmation sees it
    monkeypatch.setattr(series, "_SLOTS", 3)
    with pytest.raises(ValueError, match="P's numerator read with 3 slots fails"):
        series._kernel_data.__wrapped__()


@pytest.mark.parametrize("z", _ZS, ids=["Z=2^192", "Z=7/3"])
@pytest.mark.parametrize("name", ["custom", "semi"])
def test_chain_runs_on_a_parsed_rule_by_its_own_group(name, z):
    # a parsed rule is not looked up by name: the bax text parsed as "custom"
    # (in no table) or as "semi" (the name of another rule) gives bax's chain
    parsed = rules.parse_rule(rules.RULE_FILE_SOURCES["bax"], name)
    assert series.kernel_orbit(parsed, 1 + _A, z) == 6
    assert series._chain(parsed, 1 + _A, z) == series._chain(rules.RULES["bax"], 1 + _A, z)


def test_series_guards_raise_under_optimize():
    # a bare assert would vanish under -O and report a vacuous pass
    code = (
        "from baxterlab import rules, series\n"
        "try:\n"
        "    series.kernel_invariance('semi', 0)\n"
        "except ValueError:\n"
        "    pass\n"
        "else:\n"
        "    raise SystemExit('kernel_invariance accepted zero trials')\n"
        "rule = rules.parse_rule('axiom (1,1)\\nrow (h, k) for i = 1..h\\n', 'dup')\n"
        "try:\n"
        "    series._equation(rule)\n"
        "except ValueError:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit('_equation accepted a span that depends on h')\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(baxterlab.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                          text=True, timeout=60, env=env)
    assert done.returncode == 0, done.stderr + done.stdout


# ---------------------------------------------------------------------------
# rational specialization identities


_RATIONAL = st.fractions(min_value=-6, max_value=6, max_denominator=7)


def _at(p: series.Poly, a0: Fraction) -> Fraction:
    """The Laurent polynomial p in a at a = a0, over Fraction."""
    return sum((v * Fraction(a0) ** e for (e, _), v in p.c.items()), Fraction(0))


def _at_w(f: series.Poly, a0: Fraction, w: series.XSeries) -> series.XSeries:
    """f(a0, W) over Fraction, for f keyed (a-power, W-power)."""
    one = series.XSeries([Fraction(1)] + [Fraction(0)] * w.order)
    return sum((prod([w] * k, start=one).scale(x * Fraction(a0) ** e)
                for (e, k), x in f.c.items()), one.scale(0))


_AW_POLY = st.dictionaries(st.tuples(st.integers(-4, 4), st.integers(0, 4)),
                           st.integers(-9, 9), max_size=6).map(series.Poly)


@settings(max_examples=60, deadline=None)
@given(fs=st.lists(_AW_POLY, min_size=1, max_size=3),
       a0=_RATIONAL.filter(lambda q: q != 0), order=st.integers(1, 6))
@example(fs=[series.Poly({(-3, 2): -4, (1, 0): 5, (2, 4): 1})], a0=Fraction(-7, 3), order=5)
def test_cleared_is_the_fraction_value_times_its_powers(fs, a0, order):
    """_cleared(fs, p, q, V) is p^i q^j f(a0, W) with W read at x = t p q,
    a series of ints, for Laurent polynomials f in (a, W)."""
    p, q = a0.numerator, a0.denominator
    w = series.online_fixpoint((1 + a0) / a0, 1 + a0, a0, order)
    w_t = series.XSeries([(p * q) ** n * c for n, c in enumerate(w.c)])
    got = series._cleared(fs, p, q, series._v_at(p, q, order))
    assert len(got) == len(fs)
    for f, (i, j, s) in zip(fs, got):
        assert all(type(c) is int for c in s.c), s.c
        assert s.c == _at_w(f, a0, w_t).scale(Fraction(p) ** i * Fraction(q) ** j).c


def test_cleared_forms_each_power_of_v_once(monkeypatch):
    # V^2..V^4 for W-degrees 4, 2 and 0: three products, none by 1 or V itself
    v, products = series._v_at(-7, 3, 6), []
    real = series.XSeries.__mul__
    monkeypatch.setattr(series.XSeries, "__mul__", lambda s, o: products.append(1) or real(s, o))
    fs = [series.Poly({(0, 4): 1}), series.Poly({(-2, 2): 3, (1, 1): -1}), series.Poly({(1, 0): 2})]
    series._cleared(fs, -7, 3, v)
    assert len(products) == 3


@settings(max_examples=60, deadline=None)
@given(a0=_RATIONAL.filter(lambda q: q not in (0, -1)), order=st.integers(1, 10))
def test_symbolic_w_at_a_point_is_the_rational_solve(a0, order):
    w = series.solve_W(order)
    at_a0 = series.online_fixpoint((1 + a0) / a0, 1 + a0, a0, order)
    assert [_at(w.coeff_x(n), a0) for n in range(order + 1)] == at_a0.c


_GENERIC_POINT = _RATIONAL.filter(lambda q: q not in (0, 1, -1))


@pytest.mark.parametrize("a0", [Fraction(3, 2), Fraction(2), Fraction(-2, 3)])
def test_reduced_identity_holds(a0):
    rep = series.verify_reduced_identity(a0, order=8)
    assert rep["ok"], rep


@settings(max_examples=25, deadline=None)
@given(a0=_GENERIC_POINT)
@example(a0=Fraction(5, 7))
@example(a0=Fraction(-7, 3))
def test_reduced_identity_holds_at_drawn_points(a0):
    rep = series.verify_reduced_identity(a0, order=8)
    assert rep["ok"], rep


def test_reduced_identity_rejects_unit_points():
    for bad in (Fraction(0), Fraction(1), Fraction(-1)):
        with pytest.raises(ValueError, match="a0"):
            series.verify_reduced_identity(bad, order=4)
    with pytest.raises(ValueError, match="order"):
        series.verify_reduced_identity(Fraction(3, 2), order=1)


def test_reduced_identity_detects_missing_cubic(monkeypatch):
    """Negative control: dropping the cubic term surfaces at x^4.

    The omitted summand is x times a Laurent factor times W^3, and W
    starts at order x, so the summand's expansion starts at x^4; orders
    x^1..x^3 of the comparison are unaffected and the first mismatch
    must land exactly on x^4.  The scalar sum identity uses the intact
    series, so it keeps holding.
    """
    g, num, den = series._kernel_data()
    low = series.Poly({e: x for e, x in g.c.items() if e[1] < 3})
    monkeypatch.setattr(series, "_kernel_data", lambda: (low, num, den))
    rep = series.verify_reduced_identity(Fraction(3, 2), order=6)
    assert not rep["ok"]
    assert rep["f_first_fail"] == 4
    assert rep["sum_first_fail"] is None


def test_reduced_identity_reads_its_shapes_off_its_polynomials(monkeypatch):
    """num with an extra W^5 term, the top term a Z^4 term of N brings: no
    W-degree or power of p and q is fixed in the identity, so it runs and
    both comparisons first fail at x^5, where W^5 starts, as over Fraction."""
    g, num, den = series._kernel_data()
    kernel = g, num + series.Poly({(0, 5): 1}), den
    monkeypatch.setattr(series, "_kernel_data", lambda: kernel)
    rep = series.verify_reduced_identity(Fraction(3, 2), 6)
    assert (rep["f_first_fail"], rep["sum_first_fail"]) == (5, 5)
    assert rep == _reduced_oracle(Fraction(3, 2), 6, kernel)


@settings(max_examples=25, deadline=None)
@given(a0=_GENERIC_POINT, n=st.integers(1, 8), pick=st.integers(0, 10**6))
def test_reduced_identity_detects_a_changed_label_count(a0, n, pick):
    """Negative control: one semi label count of level n raised by 1.

    The diagonal evaluation gains (1+a0)^(h+k) != 0 at x^n, and the shifted
    S(1, 1+1/a0) term only at x^(n+1), so the sum identity first fails
    exactly at x^n.  The F comparison does not read the labels.
    """
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(series, "_levels",
                   _levels_with(n, lambda rows: _level(_bumped(_poly(rows), pick))))
        rep = series.verify_reduced_identity(a0, order=8)
    assert rep["f_first_fail"] is None
    assert rep["sum_first_fail"] == n


def _reduced_oracle(a0: Fraction, order: int, kernel=(_G, _NUM, _DEN)) -> dict:
    """verify_reduced_identity's dict computed over Fraction at a0 itself:
    W solved at a0, F = x g and P = num/den with (g, num, den) = kernel at
    (a0, W), by default the typed display, every label level evaluated at
    its point, each side X compared as X den + num."""
    w = series.online_fixpoint((1 + a0) / a0, 1 + a0, a0, order)
    g, num, den = (_at_w(f, a0, w) for f in kernel)

    def first_fail(x):
        return next((k for k, c in enumerate((x * den + num).c) if c), None)

    labels = series.LabelSeries(rules.RULES["semi"], order)

    def collapsed(exponent, t):
        return series.XSeries(sum((v * t ** exponent(*e) for e, v in _poly(rows).c.items()),
                                  Fraction(0)) for rows in labels.rows)

    s_diag = collapsed(lambda h, k: h + k, 1 + a0)
    s_top = collapsed(lambda h, k: k, 1 + 1 / a0)
    f_fail = first_fail(g.shift_x())
    sum_fail = first_fail(s_diag + s_top.scale((1 + a0) ** 2 / a0 ** 4).shift_x())
    return {"f_first_fail": f_fail, "sum_first_fail": sum_fail,
            "ok": f_fail is None and sum_fail is None}


def _bumped(poly: series.Poly, pick: int) -> series.Poly:
    """poly with one of its coefficients raised by 1."""
    c = dict(poly.c)
    key = sorted(c)[pick % len(c)]
    c[key] += 1
    return series.Poly(c)


# g_k is g's W^k part, the c_k W^k of the F display
_CORRUPTIONS = ["clean", "num", "label", "new label",
                *(f"{how} g_{k}" for how in ("zero", "bump") for k in (1, 2, 3))]


@settings(max_examples=60, deadline=None)
@given(a0=_GENERIC_POINT, order=st.integers(2, 10), corruption=st.sampled_from(_CORRUPTIONS),
       n=st.integers(1, 10), pick=st.integers(0, 10**6))
@example(a0=Fraction(-7, 3), order=10, corruption="new label", n=3, pick=0)
def test_reduced_identity_equals_the_fraction_oracle(a0, order, corruption, n, pick):
    """The int comparisons at x = t p q report the first failures the
    Fraction comparisons at a0 report, clean and under every corruption:
    a bumped term of num, the W^k part g_k of g zeroed or bumped, a level-n label
    count raised by 1, or a level-n label far out of the semi shape
    (h + k > n+1, k > n) added.  The extra powers of p and q must absorb
    that label: a negative power would be a float, which overflows or
    underflows at these exponents."""
    relabelled = {"label": lambda rows: _level(_bumped(_poly(rows), pick)),
                  "new label": _bump((n + 1100, n + 1000), pick % 5 + 1)}.get(corruption)
    with pytest.MonkeyPatch.context() as mp:
        if relabelled:
            mp.setattr(series, "_levels", _levels_with(n, relabelled))
        g, num = _G, _NUM  # the typed F = x g and P's numerator, in (a, W)
        if corruption == "num":
            num = _bumped(num, pick)
        elif "g_" in corruption:
            how, name = corruption.split()
            part = series.Poly({e: x for e, x in g.c.items() if e[1] == int(name[2:])})
            g = g - part + (series.Poly() if how == "zero" else _bumped(part, pick))
        kernel = g, num, _DEN
        mp.setattr(series, "_kernel_data", lambda: kernel)
        assert series.verify_reduced_identity(a0, order) == _reduced_oracle(a0, order, kernel)


@settings(max_examples=40, deadline=None)
@given(a0=_RATIONAL.filter(lambda q: q != 0), n=st.integers(1, 10))
def test_integer_solve_is_the_rational_solve_rescaled(a0, n):
    """With a0 = p/q and x = t p q, V = q W is the int series the reduced
    identity runs on: [t^k]V = q (pq)^k [x^k]W for every k <= n."""
    p, q = a0.numerator, a0.denominator
    v = series.online_fixpoint(p + q, p + q, p, n)
    w = series.online_fixpoint((1 + a0) / a0, 1 + a0, a0, n)
    assert v.c == [q * (p * q) ** k * w.coeff_x(k) for k in range(n + 1)]


_FRACTION_OPS = ["__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__truediv__", "__rtruediv__", "__floordiv__", "__rfloordiv__", "__mod__",
                 "__rmod__", "__pow__", "__rpow__", "__neg__", "__pos__", "__abs__",
                 "__eq__", "__lt__", "__le__", "__gt__", "__ge__", "__bool__"]


@pytest.mark.parametrize("a0", [Fraction(3, 2), Fraction(-2, 3)])
def test_reduced_identity_builds_no_fraction(monkeypatch, a0):
    """The reduced identity reads a0's numerator and denominator and then
    computes on ints only: Fraction arithmetic and comparison raise here."""
    series._kernel_data()  # F and N are derived once per process, over Fraction

    def refuse(*_):
        raise AssertionError("Fraction arithmetic in verify_reduced_identity")

    for name in _FRACTION_OPS:
        monkeypatch.setattr(Fraction, name, refuse)
    rep = series.verify_reduced_identity(a0, 12)
    monkeypatch.undo()
    assert rep == {"f_first_fail": None, "sum_first_fail": None, "ok": True}
