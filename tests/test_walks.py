"""Quarter-plane walks: step parsing, tables, excursions, growth."""

from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from baxterlab import rules, walks
from baxterlab.series import Poly, _digits, residual_scan

from conftest import STRONG, naive_walk_tables


def test_parse_steps_presets_and_dsl():
    assert walks.parse_steps("five") == walks.FIVE
    assert walks.parse_steps("seven") == walks.SEVEN
    custom = walks.parse_steps("(0,1); 2x(1,0)")
    assert custom.mult == {(0, 1): 1, (1, 0): 2}
    assert walks.parse_steps("(-1,0);(0,-1);(1,-1);(1,0);(0,1)") == walks.FIVE


def test_parse_steps_rejects_garbage():
    for bad in ("", "nonsense", "(2,0)", "0x(1,0)", "(1,0)x2"):
        with pytest.raises(ValueError):
            walks.parse_steps(bad)
    # stray separators are tolerated
    assert walks.parse_steps("(1,0);;(0,1);").mult == {(1, 0): 1, (0, 1): 1}


@pytest.mark.parametrize("text, message", [
    ("0x(1,0)", r"need a multiplicity of at least 1, got 0x\(1,0\)"),
    ("(2,0)", r"need small steps, coordinates in \{-1, 0, 1\}, got \(2,0\)"),
    ("3x(0,-2)", r"need small steps, coordinates in \{-1, 0, 1\}, got \(0,-2\)"),
])
def test_parse_steps_leaves_step_checks_to_step_multiset(text, message):
    """Each fault has its own message, naming the step at fault."""
    with pytest.raises(ValueError, match=f"^{message}$"):
        walks.parse_steps(text)


def test_seven_is_five_plus_two_pauses():
    assert walks.SEVEN.mult == {**walks.FIVE.mult, (0, 0): 2}
    assert sum(walks.SEVEN.mult.values()) == 7
    assert sum(walks.FIVE.mult.values()) == 5


@pytest.mark.parametrize("call", [
    lambda: walks.StepMultiset([(2, 0)]),
    lambda: walks.StepMultiset([(0, 1, 0)]),
    lambda: walks.count_walks(walks.FIVE, -1),
    lambda: walks.excursions(walks.FIVE, -1),
    lambda: walks.residual_walk_equation(0),
    lambda: walks.w2_consistency(0),
    lambda: walks.strong_from_walks(0),
    lambda: walks.strong_refinement_residual(0),
    lambda: walks.growth_estimate(walks.FIVE, 49),
    lambda: walks.walk_grids(walks.FIVE, -1),
])
def test_guards_raise_value_error(call):
    with pytest.raises(ValueError):
        call()


def test_fit_growth_needs_fifty_terms_past_the_first():
    e = walks.excursions(walks.FIVE, 50)
    assert walks.fit_growth(walks.FIVE, e)["n_max"] == 50
    with pytest.raises(ValueError):
        walks.fit_growth(walks.FIVE, e[:50])


def test_fitted_five_exponent_approaches_theory():
    # Denisov and Wachtel: alpha = -1 - pi/arccos(-r) = -3.32019 for FIVE.  The fit
    # measured -3.2286 at n = 200 and -3.2611 at n = 300; never widen these bands.
    e = walks.excursions(walks.FIVE, 300)
    assert -3.235 < walks.fit_growth(walks.FIVE, e[:201])["alpha_hat"] < -3.222
    assert -3.267 < walks.fit_growth(walks.FIVE, e)["alpha_hat"] < -3.255


def test_fitted_five_growth_constant_approaches_theory():
    # rho = 4.7290315, the real root of t^3+t^2-18t-43.  The fit measured 4.7280599 at
    # n = 200 and 4.7285973 at n = 300; a Richardson partner at n_max - 2 reads 4.7282745
    # and 4.7286580, outside both bands.  Never widen these bands.
    e = walks.excursions(walks.FIVE, 300)
    assert 4.72800 < walks.fit_growth(walks.FIVE, e[:201])["rho_hat"] < 4.72815
    assert 4.72857 < walks.fit_growth(walks.FIVE, e)["rho_hat"] < 4.72863


def test_count_walks_small():
    tables = walks.count_walks(walks.FIVE, 3)
    assert [t.coeff(0, 0) for t in tables] == [1, 0, 2, 1]
    assert [sum(t.c.values()) for t in tables] == [1, 2, 7, 24]
    assert tables[1] == Poly({(1, 0): 1, (0, 1): 1})


def test_tables_and_excursions_match_the_naive_counter():
    for steps in (walks.FIVE, walks.SEVEN):
        want = naive_walk_tables(steps.mult, 12)
        assert [t.c for t in walks.count_walks(steps, 12)] == want, steps.name
        assert walks.excursions(steps, 12) == [t.get((0, 0), 0) for t in want], steps.name


def _returns_within(mult: dict, k_max: int) -> set:
    """Cells of the quadrant from which some walk reaches the origin in at
    most k_max steps, by a naive backward search."""
    seen = frontier = {(0, 0)}
    for _ in range(k_max):
        frontier = {(x - dx, y - dy) for x, y in frontier for dx, dy in mult
                    if x - dx >= 0 and y - dy >= 0} - seen
        seen = seen | frontier
    return seen


def _unpacked(grid: tuple) -> dict:
    """Cell -> count of one yielded packed grid, cell x of a row of width w
    in slot w - 1 - x; no bit may sit at or past a row's width."""
    b, rows, widths = grid
    assert all(row >> (w * b) == 0 for row, w in zip(rows, widths))
    cells = {}
    for y, (row, w) in enumerate(zip(rows, widths)):
        digits = _digits(row, b, 0)
        cells.update({(x, y): digits.coeff(w - 1 - x, 0) for x in range(w)})
    return cells


def test_trimmed_grids_keep_exact_cells():
    """Kept cells equal the naive counts, and a nonzero cell is dropped
    only when no walk from it reaches the origin by length n_max."""
    n_max = 11
    for text in ("five", "seven", "(1,0);(-1,1);(0,-1)", "(1,1);(-1,0);(0,-1)"):
        steps = walks.parse_steps(text)
        naive = naive_walk_tables(steps.mult, n_max)
        for returning in (False, True):
            for t, grid in enumerate(walks.walk_grids(steps, n_max, returning)):
                kept = _unpacked(grid)
                assert all(v == naive[t].get(cell, 0) for cell, v in kept.items())
                dropped = {cell for cell, v in naive[t].items() if v and cell not in kept}
                live = _returns_within(steps.mult, n_max - t) if returning else set()
                assert not dropped & live, (text, returning, t)


def test_grids_trim_five_and_seven_to_the_triangle():
    n_max = 9
    for steps in (walks.FIVE, walks.SEVEN):
        for t, grid in enumerate(walks.walk_grids(steps, n_max, returning=True)):
            top = min(t, n_max - t)
            assert grid[2] == list(range(top + 1, 0, -1))
            assert set(_unpacked(grid)) == {(x, y) for y in range(top + 1)
                                            for x in range(top + 1 - y)}
        assert list(walks.walk_grids(steps, n_max))[-1][2] == list(range(n_max + 1, 0, -1))


@pytest.mark.parametrize("text", ["five", "seven", "3x(0,0);2x(1,1);(-1,0);(0,-1)",
                                  "(1,0);(-1,0);(1,1);(-1,-1)"])
def test_packed_rows_stay_exact_across_slot_widenings(text):
    """Slots widen every few steps; past two widenings every kept cell, the
    tables and the excursions still equal the naive counts."""
    steps = walks.parse_steps(text)
    n_max = 2 * walks._WIDEN_EVERY + 8
    naive = naive_walk_tables(steps.mult, n_max)
    for returning in (False, True):
        grids = list(walks.walk_grids(steps, n_max, returning))
        assert len({b for b, _, _ in grids}) >= 3
        for t, grid in enumerate(grids):
            assert all(v == naive[t].get(cell, 0) for cell, v in _unpacked(grid).items())
    assert [t.c for t in walks.count_walks(steps, n_max)] == naive
    assert walks.excursions(steps, n_max) == [t.get((0, 0), 0) for t in naive]


_SMALL_STEPS = st.dictionaries(
    st.tuples(st.integers(-1, 1), st.integers(-1, 1)), st.integers(1, 3),
    min_size=1, max_size=9,
)


def _multiset(mult: dict) -> walks.StepMultiset:
    return walks.StepMultiset([(dx, dy, m) for (dx, dy), m in mult.items()])


@settings(max_examples=80, deadline=None)
@given(mult=_SMALL_STEPS, n_max=st.integers(0, 12))
def test_random_step_sets_match_the_naive_counter(mult, n_max):
    want = naive_walk_tables(mult, n_max)
    steps = _multiset(mult)
    tables = walks.count_walks(steps, n_max)
    assert [t.c for t in tables] == want
    assert walks.excursions(steps, n_max) == [t.get((0, 0), 0) for t in want]
    assert walks.walk_totals(steps, n_max) == [sum(t.values()) for t in want]
    assert residual_scan(walks._walk_defects(steps, tables)) == (0, None)


@settings(max_examples=20, deadline=None)
@given(mult=_SMALL_STEPS, returning=st.booleans(),
       n_max=st.integers(2 * walks._WIDEN_EVERY + 1, 2 * walks._WIDEN_EVERY + 6))
def test_random_step_sets_stay_exact_across_slot_widenings(mult, returning, n_max):
    """Past two slot widenings every kept cell of a random step set equals
    the naive count, no bit sits past a row's width, and the totals and
    excursions read off the grids are the naive ones."""
    want = naive_walk_tables(mult, n_max)
    steps = _multiset(mult)
    for t, grid in enumerate(walks.walk_grids(steps, n_max, returning)):
        assert all(v == want[t].get(cell, 0) for cell, v in _unpacked(grid).items())
    assert walks.excursions(steps, n_max) == [t.get((0, 0), 0) for t in want]
    assert walks.walk_totals(steps, n_max) == [sum(t.values()) for t in want]


@settings(max_examples=60, deadline=None)
@given(mult=_SMALL_STEPS, pauses=st.integers(1, 3), n_max=st.integers(0, 12))
def test_added_pauses_give_the_binomial_transform(mult, pauses, n_max):
    """m extra (0,0) steps choose their places among t steps freely, so
    the length-t table becomes the sum of C(t,n) m^(t-n) times the
    length-n table without them."""
    steps = _multiset(mult)
    padded = _multiset({**mult, (0, 0): mult.get((0, 0), 0) + pauses})
    base, e_base = walks.count_walks(steps, n_max), walks.excursions(steps, n_max)
    e_padded = walks.excursions(padded, n_max)
    for t, table in enumerate(walks.count_walks(padded, n_max)):
        want: dict = {}
        for n in range(t + 1):
            for cell, c in base[n].c.items():
                want[cell] = want.get(cell, 0) + comb(t, n) * pauses ** (t - n) * c
        assert table.c == want
        assert e_padded[t] == sum(comb(t, n) * pauses ** (t - n) * e_base[n]
                                  for n in range(t + 1))


@settings(max_examples=60, deadline=None)
@given(seq=st.lists(st.integers(-10**6, 10**6), max_size=25), pauses=st.integers(0, 3))
def test_binomial_transform_is_the_explicit_sum(seq, pauses):
    want = [sum(comb(m, n) * pauses ** (m - n) * seq[n] for n in range(m + 1))
            for m in range(len(seq))]
    assert walks.binomial_transform(seq, pauses) == want
    assert walks.binomial_transform(seq, 0) == seq


@settings(max_examples=30, deadline=None)
@given(mult=_SMALL_STEPS, pauses=st.integers(0, 3), n_max=st.integers(0, 10))
def test_binomial_transform_of_tables_is_the_explicit_sum(mult, pauses, n_max):
    tables = walks.count_walks(_multiset(mult), n_max)
    want = [sum((tables[n] * (comb(m, n) * pauses ** (m - n)) for n in range(m + 1)), Poly())
            for m in range(n_max + 1)]
    assert walks.binomial_transform(tables, pauses) == want


def test_excursion_prefixes():
    assert walks.excursions(walks.FIVE, 3) == [1, 0, 2, 1]
    assert walks.excursions(walks.SEVEN, 2) == [1, 2, 6]


def test_strong_from_walks():
    assert walks.strong_from_walks(13) == [1] + STRONG


def test_walk_equation_residual_vanishes():
    assert walks.residual_walk_equation(1) == (0, None)
    assert walks.residual_walk_equation(10) == (0, None)


# The paper's cleared FIVE equation, as (sign, part of ab S) per row:
# ab W = ab + t(b + a + a^2 + a^2 b + a b^2) W - t b W(t;0,b) - t a(1+a) W(t;a,0)
_PAPER_FIVE = [
    (1, Poly({(0, 1): 1, (1, 0): 1, (2, 0): 1, (2, 1): 1, (1, 2): 1})),
    (-1, Poly({(0, 1): 1})),
    (-1, Poly({(1, 0): 1, (2, 0): 1})),
    (1, Poly()),
]


def test_derived_five_equation_is_the_papers():
    assert [(sign, part) for sign, part, _ in walks._walk_equation(walks.FIVE)] == _PAPER_FIVE


_GESSEL = "(1,0);(-1,0);(1,1);(-1,-1)"


@pytest.mark.parametrize("text", ["seven", "(1,1);(-1,0);(0,-1)", _GESSEL])
def test_derived_walk_equation_vanishes(text):
    steps = walks.parse_steps(text)
    assert residual_scan(walks._walk_defects(steps, walks.count_walks(steps, 10))) == (0, None)


def test_derived_walk_equation_needs_its_origin_row(monkeypatch):
    """Negative control: without the row that adds back the walks leaving
    through both axes at once, Gessel's (-1,-1) step breaks the equation
    at length 1; FIVE has no such step, so its defect stays zero."""
    derived = walks._walk_equation
    monkeypatch.setattr(walks, "_walk_equation", lambda steps: derived(steps)[:3])
    gessel = walks.parse_steps(_GESSEL)
    assert residual_scan(walks._walk_defects(gessel, walks.count_walks(gessel, 10))) == (
        782, (1, 0, 0))
    assert walks.residual_walk_equation(10) == (0, None)


def test_walk_equation_detects_perturbation(monkeypatch):
    """Negative control: one corrupted table entry breaks the equation.

    The cleared equation couples length n to length n-1, so bumping the
    count at (2, 1) in the length-3 table must produce a defect in the
    x^3 or x^4 slice and the scan reports the first one.
    """
    exact = walks.count_walks

    def bumped(steps, n_max):
        tables = exact(steps, n_max)
        tables[3] = tables[3] + Poly({(2, 1): 1})
        return tables

    monkeypatch.setattr(walks, "count_walks", bumped)
    max_abs, where = walks.residual_walk_equation(6)
    assert max_abs > 0
    assert where is not None and where[0] in (3, 4)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 6), x=st.integers(0, 6), y=st.integers(0, 6),
       delta=st.integers(-3, 3).filter(bool))
def test_walk_equation_pinpoints_any_bumped_cell(n, x, y, delta):
    """The cleared left side multiplies the length-n table by ab, so a
    bump at cell (x, y) of that table first shows at (n, x+1, y+1)."""
    exact = walks.count_walks

    def bumped(steps, n_max):
        tables = exact(steps, n_max)
        tables[n] = tables[n] + Poly({(x, y): delta})
        return tables

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(walks, "count_walks", bumped)
        max_abs, where = walks.residual_walk_equation(6)
    assert max_abs >= abs(delta)
    assert where == (n, x + 1, y + 1)


def test_w2_transform_consistency():
    rep = walks.w2_consistency(10)
    assert rep["ok"] and rep["first_fail"] is None
    rep = walks.w2_consistency(20, origin_only=True)
    assert rep["ok"]


def test_strong_from_walks_equals_the_seven_dp():
    # strong_from_walks transforms the FIVE excursions; the SEVEN DP is direct
    n = 120
    assert walks.strong_from_walks(n)[1:] == walks.excursions(walks.SEVEN, n - 1)


def test_w2_transform_lowest_order():
    # the x^0 slice compares the single empty walk on both sides
    rep = walks.w2_consistency(1)
    assert rep["ok"] and rep["first_fail"] is None


def test_seven_growth_fit_from_transformed_five_counts():
    e7 = walks.binomial_transform(walks.excursions(walks.FIVE, 80), 2)
    assert e7 == walks.excursions(walks.SEVEN, 80)
    assert walks.fit_growth(walks.SEVEN, e7) == walks.growth_estimate(walks.SEVEN, 80)


def test_strong_refinement():
    assert walks.strong_refinement_residual(8) == (0, None)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 6), x=st.integers(0, 6), y=st.integers(0, 6),
       delta=st.integers(-3, 3).filter(bool))
def test_refinement_pinpoints_any_bumped_cell(n, x, y, delta):
    """Size n pairs with the SEVEN table of length n-1, times (1+a)(1+b),
    so a bump at cell (x, y) of that table first shows at (n, x, y)."""
    exact = walks.count_walks

    def bumped(steps, n_max):
        tables = exact(steps, n_max)
        tables[n - 1] = tables[n - 1] + Poly({(x, y): delta})
        return tables

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(walks, "count_walks", bumped)
        max_abs, where = walks.strong_refinement_residual(6)
    assert max_abs >= abs(delta)
    assert where == (n, x, y)


def test_seven_excursions_monotone_in_steps_of_two():
    e = walks.excursions(walks.SEVEN, 40)
    assert all(e[n + 2] >= e[n] for n in range(len(e) - 2))


def test_five_excursion_aperiodicity():
    e = walks.excursions(walks.FIVE, 60)
    assert e[1] == 0
    assert all(e[n] > 0 for n in range(2, 61))


def test_minpoly_of_growth_constant():
    rho = walks.RHO_FIVE_QUOTED
    assert abs(walks.minpoly_five(rho)) < 1e-6


def test_growth_estimate_five():
    rep = walks.growth_estimate(walks.FIVE, 200)
    assert rep["target"] == pytest.approx(walks.RHO_FIVE_QUOTED)
    assert rep["rel_err"] < 0.02


def test_growth_estimate_seven():
    rep = walks.growth_estimate(walks.SEVEN, 200)
    assert rep["target"] == pytest.approx(walks.RHO_FIVE_QUOTED + 2)
    assert rep["rel_err"] < 0.02


def test_growth_estimate_custom_steps_has_no_target():
    # simple walk plus one pause: aperiodic, growth 4 + 1
    rep = walks.growth_estimate(
        walks.parse_steps("(1,0);(-1,0);(0,1);(0,-1);(0,0)"), 120
    )
    assert rep["target"] is None and rep["rel_err"] is None
    assert 4.8 < rep["rho_hat"] < 5.2


def test_growth_estimate_rejects_degenerate_counts():
    # x never decreases here, so no walk of positive length returns
    with pytest.raises(ValueError):
        walks.growth_estimate(walks.parse_steps("(1,0);(0,1);(1,-1)"), 60)
    # parity-periodic counts put a zero in every fitting triple
    with pytest.raises(ValueError):
        walks.growth_estimate(walks.parse_steps("(1,0);(-1,0);(0,1);(0,-1)"), 60)


def test_strong_walks_route_matches_the_rule_route_at_depth():
    n = 100
    assert walks.strong_from_walks(n)[1:] == rules.count_sequence(rules.RULES["strong"], n)


def test_strong_three_routes_agree():
    from_walks = walks.strong_from_walks(10)[1:]
    from_rule = rules.count_sequence(rules.RULES["strong"], 10)
    assert from_walks == from_rule == STRONG[:10]


GESSEL = walks.parse_steps("(1,0);(-1,0);(1,1);(-1,-1)")
KREWERAS = walks.parse_steps("(-1,0);(0,-1);(1,1)")


def _brackets_hold(steps, n_max, keep):
    """Whether every narrow bracket holds its exact excursion count, and
    how many brackets are wider than one value."""
    runs = list(walks._brackets(steps, n_max, keep))
    exact = walks.excursions(steps, n_max)
    return all(lo <= e <= hi for (lo, hi), e in zip(runs, exact)), sum(lo < hi for lo, hi in runs)


@pytest.mark.parametrize("steps", [walks.FIVE, walks.SEVEN, GESSEL, KREWERAS],
                         ids=["five", "seven", "gessel", "kreweras"])
@pytest.mark.parametrize("keep", [0, 8])
def test_narrow_brackets_hold_the_exact_excursions(steps, keep):
    holds, wide = _brackets_hold(steps, 150, keep)
    assert holds and wide > 50  # the low bytes were dropped, several times over


@settings(max_examples=20, deadline=None)
@given(mult=_SMALL_STEPS, keep=st.integers(0, 16),
       n_max=st.integers(2 * walks._WIDEN_EVERY + 1, 2 * walks._WIDEN_EVERY + 6))
def test_random_step_sets_bracket_their_excursions_across_drops(mult, keep, n_max):
    assert _brackets_hold(_multiset(mult), n_max, keep)[0]


def _cells(row, w, b):
    """The w b-bit slots of a packed row, lowest first, unpacked with to_bytes."""
    raw = row.to_bytes(w * b // 8, "little")
    return [int.from_bytes(raw[i:i + b // 8], "little") for i in range(0, len(raw), b // 8)]


def test_an_in_place_drop_is_the_floor_of_each_cell():
    # the widest and the width-1 row of a narrow FIVE grid past its cap, and
    # rows whose every slot is all ones or has only its lowest bit set
    grid = list(walks._grids(walks.FIVE.items(), 150, True, walks._width(5 ** 4) + 40))[100]
    b, rows, widths, e, _ = grid
    assert e > 0 and len(rows) > 2 and widths[-1] == 1
    full, low = (sum(v << u * b for u in range(widths[0])) for v in ((1 << b) - 1, 1))
    for d in (1, 5, 17, b - 1):
        for row, w in ((rows[0], widths[0]), (rows[-1], 1), (full, widths[0]), (low, widths[0])):
            dropped = walks._drop([row], widths[0], b, d)[0]
            assert _cells(dropped, w, b) == [v >> d for v in _cells(row, w, b)], (d, w)
            assert dropped >> w * b == 0


def test_the_slot_widens_to_the_cap_exactly_once(monkeypatch):
    # the slots widen as on the exact path until that passes the cap, then
    # to the cap in whole bytes, and only drops make room after that: one
    # re-pack per slot width, none at the cap's fixed width
    formats = []
    struct = walks.Struct
    monkeypatch.setattr(walks, "Struct", lambda fmt: formats.append(fmt) or struct(fmt))
    exact = [b for b, *_ in walks._grids(walks.FIVE.items(), 300, True)]
    assert len(formats) == len(set(exact)) - 1 == -(-300 // walks._WIDEN_EVERY)
    formats.clear()
    cap = walks._width(5 ** walks._DROP_EVERY) + 96 + 300 // 8
    grids = list(walks._grids(walks.FIVE.items(), 300, True, cap))
    widths, k = [b for b, *_ in grids], next(t for t, b in enumerate(exact) if b > cap)
    assert widths[:k] == exact[:k] and set(widths[k:]) == {cap + -cap % 8}
    assert len(formats) == len(set(widths)) - 1 and grids[-1][3] > 0


@pytest.mark.parametrize("n", [100, 200, 300])
def test_certified_doubles_are_the_nearest_doubles_of_the_exact_terms(n):
    e5, e7 = walks._fit_terms(walks.FIVE, n, (0, 2))
    exact5 = walks.excursions(walks.FIVE, n)
    assert e5 == list(map(float, exact5)) and all(type(v) is float for v in e5)
    assert e7 == list(map(float, walks.binomial_transform(exact5, 2)))
    seven = walks._fit_terms(walks.SEVEN, n)[0]
    assert seven == e7 and all(type(v) is float for v in seven)


def _exact_growth(steps, n):
    return walks.fit_growth(steps, walks.excursions(steps, n))


def test_a_parity_step_set_falls_back_to_the_same_error():
    # odd lengths never return: the first zero read after a drop is no double
    steps = walks.parse_steps("(1,0);(-1,0);(0,1);(0,-1)")
    assert walks._fit_terms(steps, 300)[0] == walks.excursions(steps, 300)
    with pytest.raises(ValueError) as want:
        _exact_growth(steps, 300)
    with pytest.raises(ValueError, match=f"^{want.value}$"):
        walks.growth_estimate(steps, 300)


def test_a_tiny_precision_falls_back_to_the_exact_terms(monkeypatch):
    brackets = walks._brackets
    monkeypatch.setattr(walks, "_brackets", lambda steps, n, keep: brackets(steps, n, 0))
    terms = walks._fit_terms(walks.FIVE, 300, (0, 2))
    exact = walks.excursions(walks.FIVE, 300)
    assert terms == [exact, walks.binomial_transform(exact, 2)]
    assert all(type(v) is int for v in terms[0])


def test_seven_at_400_never_narrows(monkeypatch):
    # 7^400 > 2^1023: a term might not fit a double
    monkeypatch.setattr(walks, "_brackets", None)
    assert walks._fit_terms(walks.SEVEN, 400) == [walks.excursions(walks.SEVEN, 400)]


@pytest.mark.parametrize("steps, n", [
    (walks.FIVE, 300), (walks.SEVEN, 300), (walks.parse_steps("(-1,0);(0,-1);(1,1);(0,0)"), 120),
    (walks.parse_steps("(1,0);(-1,0);(0,1);(0,-1);(0,0)"), 120)],
    ids=["five", "seven", "kreweras+pause", "simple+pause"])
def test_growth_estimate_is_unchanged_when_the_narrow_path_fails(monkeypatch, steps, n):
    narrow = walks.growth_estimate(steps, n)
    monkeypatch.setattr(walks, "_brackets", lambda steps, n, keep: iter([(0, 1)]))
    assert walks.growth_estimate(steps, n) == narrow == _exact_growth(steps, n)
