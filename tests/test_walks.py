"""Quarter-plane walks: step parsing, tables, excursions, growth."""

import pytest

from baxterlab import rules, walks

from conftest import STRONG


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


def test_seven_is_five_plus_two_pauses():
    assert walks.SEVEN.mult == {**walks.FIVE.mult, (0, 0): 2}
    assert walks.SEVEN.total() == 7
    assert walks.FIVE.total() == 5


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
])
def test_guards_raise_value_error(call):
    with pytest.raises(ValueError):
        call()


def test_count_walks_small():
    tables = walks.count_walks(walks.FIVE, 3)
    assert [t.at(0, 0) for t in tables] == [1, 0, 2, 1]
    assert [t.total() for t in tables] == [1, 2, 7, 24]
    assert tables[1].counts == {(1, 0): 1, (0, 1): 1}


def test_excursions_match_full_tables():
    # the clipped recursion must agree with plain counting everywhere
    for steps in (walks.FIVE, walks.SEVEN):
        full = [t.at(0, 0) for t in walks.count_walks(steps, 12)]
        assert walks.excursions(steps, 12) == full, steps.name


def test_excursion_prefixes():
    assert walks.excursions(walks.FIVE, 3) == [1, 0, 2, 1]
    assert walks.excursions(walks.SEVEN, 2) == [1, 2, 6]


def test_strong_from_walks():
    assert walks.strong_from_walks(13) == [1] + STRONG


def test_walk_equation_residual_vanishes():
    assert walks.residual_walk_equation(1) == (0, None)
    assert walks.residual_walk_equation(10) == (0, None)


def test_walk_equation_detects_perturbation():
    """Negative control: one corrupted table entry breaks the equation.

    The cleared equation couples length n to length n-1, so bumping the
    count at (2, 1) in the length-3 table must produce a defect in the
    x^3 or x^4 slice and the scan reports the first one.
    """
    max_abs, where = walks.residual_walk_equation(6, perturb={(3, 2, 1): 1})
    assert max_abs > 0
    assert where is not None and where[0] in (3, 4)


def test_w2_transform_consistency():
    rep = walks.w2_consistency(10)
    assert rep["ok"] and rep["first_fail"] is None
    rep = walks.w2_consistency(20, origin_only=True)
    assert rep["ok"]


def test_w2_transform_lowest_order():
    # the x^0 slice compares the single empty walk on both sides
    rep = walks.w2_consistency(1)
    assert rep["ok"] and rep["first_fail"] is None


def test_strong_refinement():
    assert walks.strong_refinement_residual(8) == (0, None)


def test_seven_excursions_monotone_in_steps_of_two():
    e = walks.excursions(walks.SEVEN, 40)
    assert all(e[n + 2] >= e[n] for n in range(39 - 2))


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


def test_strong_three_routes_agree():
    from_walks = walks.strong_from_walks(10)[1:]
    from_rule = rules.count_sequence(rules.RULES["strong"], 10)
    assert from_walks == from_rule == STRONG[:10]
