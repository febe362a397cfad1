"""The consistency suite: registry, determinism, failure reporting."""

import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import baxterlab
from baxterlab import checks, formulas, invseq, perms, rules, series, walks

from conftest import SB


def test_compare_routes_agree():
    ok, detail = checks.compare_routes({"x": [1, 2, 6], "y": [1, 2, 6, 23]})
    assert ok
    assert "x to n=3" in detail and "y to n=4" in detail


def test_compare_routes_names_smallest_mismatch():
    ok, detail = checks.compare_routes(
        {"good": [1, 2, 6, 23], "bad": [1, 2, 7, 9]}, offset=1
    )
    assert not ok
    assert "first differ at n=3" in detail
    assert "7" in detail and "6" in detail


def test_registry_is_alphabetical_and_complete():
    names = [r.name for r in checks.run_suite("quick")]
    assert names == sorted(names)
    assert len(names) == len(checks._REGISTRY) == 25
    assert list(checks._REGISTRY) == names


# Every check's (quick sizes, full sizes).  A size changes only with a
# CHANGES.md note that says why, and it is never lowered: a check that
# got cheaper by checking less proves nothing new.
FROZEN_SIZES = {
    "apery-closed-vs-recurrence": ((8, 30), (10, 30)),
    "baxter-five-routes": ((8, 12), (10, 12)),
    "catalan-three-routes": ((8, 14), (10, 14)),
    "census-labels-vs-rules": ((5,), (7,)),
    "conjecture-exp1423-vs-sb": ((8, 8), (10, 10)),
    "invseq-growth-labels": ((6,), (7,)),
    "invseq-three-routes": ((8, 13), (10, 13)),
    "kernel-semi": ((3,), (5,)),
    "kernel-strong": ((2,), (5,)),
    "lagrange-vs-series": ((8,), (12,)),
    "numbers-asymptotics": ((500, 0.05), (2000, 0.02)),
    "plane-vs-semi": ((8, 8), (10, 10)),
    "rules-dsl-mirrors": ((10,), (10,)),
    "semi-all-routes": ((8, 13), (10, 13)),
    "series-extraction-vs-recurrence": ((12,), (20,)),
    "series-reduced-identity": (
        (((Fraction(3, 2), 10),),),
        (((Fraction(3, 2), 12), (Fraction(2), 12)),),
    ),
    "series-residual-semi": ((10,), (10,)),
    "series-residual-strong": ((10,), (10,)),
    "series-theorem-nonneg-part": ((10,), (15,)),
    "strong-three-routes": ((8, 13), (10, 13)),
    "twisted-vs-baxter": ((8, 12), (10, 12)),
    "walks-equation-residual": ((8,), (10,)),
    "walks-growth-constants": ((100,), (300,)),
    "walks-refinement": ((10,), (10,)),
    "walks-w2-transform": ((8, 12), (10, 20)),
}


def test_suite_sizes_are_frozen():
    assert {name: tuple(sizes) for name, (_, *sizes) in checks._REGISTRY.items()} == FROZEN_SIZES


def _route_rows():
    # name -> (family, borrowed "family:route"s, quick sizes, full sizes)
    return {name: (*fn.args, quick, full)
            for name, (fn, quick, full) in checks._REGISTRY.items()
            if getattr(fn, "func", None) is checks._routes_agree}


def test_every_family_has_a_route_check():
    # semi shares its routes with sb
    checked = {family for family, *_ in _route_rows().values()}
    assert checked | {"semi"} == set(checks.FAMILIES)


def test_route_checks_name_every_route_and_its_size():
    for name, (family, borrowed, *suites) in _route_rows().items():
        for brute, n in suites:
            ok, detail = checks._REGISTRY[name][0](brute, n, 0)
            assert ok, detail
            want = {route: brute if route == "brute" else n
                    for route in [*checks.FAMILIES[family]["routes"], *borrowed]}
            spans = detail.removeprefix("routes agree (").removesuffix(")")
            got = {route: int(top) for route, top in
                   (span.split(" to n=") for span in spans.split(", "))}
            assert got == want, (name, brute, n)


def test_quick_suite_passes():
    reports = checks.run_suite("quick")
    bad = [r for r in reports if not r.ok]
    assert not bad, [(r.name, r.detail) for r in bad]


def test_suite_is_deterministic_under_seed():
    one = checks.run_suite("quick", seed=7)
    two = checks.run_suite("quick", seed=7)
    assert [(r.name, r.status, r.detail) for r in one] == [
        (r.name, r.status, r.detail) for r in two
    ]


def test_report_serialization():
    rep = checks.run_suite("quick")[0]
    d = rep._asdict()
    assert set(d) == {"name", "status", "detail", "elapsed_ms"}
    assert d["status"] in ("pass", "fail")


def test_exception_becomes_failure(monkeypatch):
    def boom(n, seed):
        raise RuntimeError(f"synthetic at n={n}")

    monkeypatch.setitem(checks._REGISTRY, "synthetic-check", (boom, (3,), (4,)))
    reports = checks.run_suite("quick")
    rep = {r.name: r for r in reports}["synthetic-check"]
    assert not rep.ok
    assert "raised RuntimeError" in rep.detail
    assert "synthetic at n=3" in rep.detail


def test_elapsed_times_sum_within_wall_time():
    # the checks run one after another, so their own times add up to at
    # most the wall time of the whole call
    t0 = time.perf_counter()
    reports = checks.run_suite("quick")
    wall_ms = (time.perf_counter() - t0) * 1000.0
    assert sum(r.elapsed_ms for r in reports) <= wall_ms * 1.05
    assert all(r.elapsed_ms > 0 for r in reports)


def test_compare_routes_names_terms_past_the_int_str_limit():
    # str() of a term past 4,300 digits raises; the detail gives its size
    big = 10 ** 4400
    ok, detail = checks.compare_routes({"x": [1, big], "y": [1, big + 1]}, offset=5)
    assert not ok
    assert detail == "x vs y first differ at n=6: <14617-bit int> != <14617-bit int>"
    ok, detail = checks.compare_routes({"good": [1, 2, 6], "bad": [1, 2, -7]})
    assert detail == "bad vs good first differ at n=3: -7 != 6"


def test_exact_div_names_terms_past_the_int_str_limit():
    # the guard's message shares compare_routes' rule for huge terms
    with pytest.raises(ValueError, match=r"^SB_9999 simple-a: <14617-bit int>/2 is not an"):
        formulas._exact_div(10 ** 4400 + 1, 2, "SB_9999 simple-a")
    with pytest.raises(ValueError, match=r"^B_3: 7/2 is not an integer$"):
        formulas._exact_div(7, 2, "B_3")


def test_series_reduced_names_a_point_past_the_int_str_limit(monkeypatch):
    # a0 is named part by part, so a huge numerator or denominator prints too
    assert checks.series_reduced([(Fraction(-7, 3), 2)]) == (
        True, "both identities hold at a0=-7/3 to order 2")
    _plant_kernel_data(monkeypatch)
    assert checks.series_reduced([(Fraction(-3, 10 ** 5000), 4)]) == (False, (
        "at a0=-3/<16610-bit int>: F-vs-P first fail 4, sum identity first fail None"))
    assert checks.series_reduced([(Fraction(-7, 3), 2), (Fraction(2), 4)]) == (False, (
        "both identities hold at a0=-7/3 to order 2; "
        "at a0=2: F-vs-P first fail 4, sum identity first fail None"))


def test_every_route_returns_plain_ints():
    # Decimal terms are for printing only: no check may compare them
    for family, cfg in checks.FAMILIES.items():
        for route, terms in cfg["routes"].items():
            values = terms(6)
            assert values and all(type(v) is int for v in values), (family, route)


@pytest.mark.parametrize("check, family, route, detail", [
    ("strong-three-routes", "strong", "walks", "route walks returned 12 terms for n up to 13"),
    ("apery-closed-vs-recurrence", "apery", "closed",
     "route closed returned 30 terms for n up to 30"),
], ids=["strong-walks", "apery-closed"])
def test_route_check_fails_a_route_with_too_few_terms(monkeypatch, check, family, route,
                                                      detail):
    _plant_short_route(family, route)(monkeypatch)
    fn, sizes, _ = checks._REGISTRY[check]
    assert fn(*sizes, 0) == (False, detail)


def test_compare_routes_needs_two_routes():
    with pytest.raises(ValueError, match="two routes"):
        checks.compare_routes({"only": [1, 2, 6]})


def test_run_suite_rejects_unknown_suite():
    with pytest.raises(ValueError, match="unknown suite"):
        checks.run_suite("medium")


def test_guards_raise_under_optimize():
    code = (
        "from baxterlab import checks, perms, series, walks\n"
        "for call in (lambda: checks.run_suite('medium'),\n"
        "             lambda: checks.compare_routes({'only': [1]}),\n"
        "             lambda: perms.AvoidanceClass('x', ('1[32]',)),\n"
        "             lambda: perms.label_census(perms.CLASSES['semi'], 0),\n"
        "             lambda: walks.StepMultiset([(2, 0)]),\n"
        "             lambda: walks.excursions(walks.FIVE, -1),\n"
        "             lambda: walks.walk_grids(walks.FIVE, -1),\n"
        "             lambda: walks.growth_estimate(walks.FIVE, 49),\n"
        "             lambda: series.solve_W(0),\n"
        "             lambda: series.lagrange_coeff(0, 1, 4),\n"
        "             lambda: series.residual_semi(1),\n"
        "             lambda: series.verify_reduced_identity(1, 4)):\n"
        "    try:\n"
        "        call()\n"
        "    except ValueError:\n"
        "        continue\n"
        "    raise SystemExit('guard did not fire')\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(baxterlab.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                          text=True, timeout=60, env=env)
    assert done.returncode == 0, done.stderr + done.stdout


# Planted faults: each plant breaks one engine in one place through a
# monkeypatch, and the check that covers that engine must fail, naming the
# place where its detail can.  _PLANTS gives every check of the registry one.

def _plant_short_route(family: str, route: str):
    """A route that drops its last term: compare_routes reads only common
    prefixes, so the check counts terms itself."""
    def plant(mp):
        routes = checks.FAMILIES[family]["routes"]
        full = routes[route]
        mp.setitem(routes, route, lambda n: full(n)[:-1])
    return plant


def _plant_rule_level(mp):
    """One more node at the first live label of level 5 of every rule, in
    the level stream every level reader steps; series imports that name, so
    both bindings are patched."""
    levels = rules._levels

    def planted(rule):
        for n, rows in enumerate(levels(rule), 1):
            if n == 5:
                (k, i, j, vals), *rest = rows
                rows = [(k, i, j, [vals[0] + 1, *vals[1:]]), *rest]
            yield rows

    mp.setattr(rules, "_levels", planted)
    mp.setattr(series, "_levels", planted)


def _plant_census(mp):
    levels = perms._levels

    def planted(cls):
        for n, level in enumerate(levels(cls), 1):
            if n == 4:  # one more node with last = 1 and no forbidden slot: label (1, 4)
                level = dict(level)
                level[1, 0, ()] += 1
            yield level

    mp.setattr(perms, "_levels", planted)


def _plant_stair(mp):
    # [14]23's mask step also forbids slot 1 once the stair holds 3 ascents, in
    # the canonicalised levels and in the streamed last level alike; a class
    # captures its steps when it is built, so exp1423 is built again
    mask_step, stair_step = perms._STEPS["[14]23"]

    def planted(mask, stair, last, a):
        child = mask_step(mask, stair, last, a)
        return child | 1 if len(stair) >= 3 else child

    mp.setitem(perms._STEPS, "[14]23", (planted, stair_step))
    mp.setitem(perms.CLASSES, "exp1423", perms.AvoidanceClass("exp1423", ("[14]23",)))


def _plant_extensions(mp):
    children = invseq.children
    mp.setattr(invseq, "children",  # the state (2, 1, -1), the avoider (0, 1), loses its last child
               lambda state: children(state)[:-1] if state == (2, 1, -1) else children(state))


def _plant_invseq_brute(size: int):
    """One more avoider of the given size on the brute-force route."""
    def plant(mp):
        routes = checks.FAMILIES["invseq"]["routes"]
        brute = routes["brute"]
        mp.setitem(routes, "brute",
                   lambda n: [v + (m == size) for m, v in enumerate(brute(n), 1)])
    return plant


def _plant_kernel_map(mp):
    group = series._group

    def planted(rule):  # the y-map's al gains 1 in its last coefficient
        n, d, ((al, be, de), z_map) = group(rule)
        return n, d, ((al[:-1] + (al[-1] + 1,), be, de), z_map)

    mp.setattr(series, "_group", planted)


def _plant_inversion(mp):
    coeff = series.lagrange_coeff
    mp.setattr(series, "lagrange_coeff",
               lambda s, k, i: coeff(s, k, i) + ((s, k, i) == (2, 3, 2)))


def _plant_amplitude(mp):
    mp.setattr(formulas, "AMP_A", formulas.AMP_A * 1.5)


def _plant_expansion(mp):
    expand = rules.expand_level

    def planted(rule, dist):  # bax's level 4 gets one more (1, 1)
        out = expand(rule, dist)
        if rule.name == "bax" and sum(dist.values()) == 6:
            out[1, 1] = out.get((1, 1), 0) + 1
        return out

    mp.setattr(rules, "expand_level", planted)


def _plant_recurrence(mp):
    table = formulas.sb_table
    mp.setattr(formulas, "sb_table",  # SB_5 off by one
               lambda n, *route: [v + (i == 5) for i, v in enumerate(table(n, *route))])


def _plant_kernel_data(mp):
    g, num, den = series._kernel_data()  # F = x g with g's W^3 part dropped
    low = series.Poly({e: x for e, x in g.c.items() if e[1] < 3})
    mp.setattr(series, "_kernel_data", lambda: (low, num, den))


def _plant_one_plus(mp):
    one_plus = series.LabelSeries.series_in_one_plus_a

    def planted(self):  # one more a^2 at x^4
        s = one_plus(self)
        s.c[4] = s.c[4] + series.laurent({2: 1})
        return s

    mp.setattr(series.LabelSeries, "series_in_one_plus_a", planted)


def _plant_count(name: str, steps, n: int, one):
    """Add one to walks.name's count for the step set steps at length n."""
    def plant(mp):
        count = getattr(walks, name)

        def planted(s, n_max):
            out = count(s, n_max)
            if s is steps and n_max >= n:
                out[n] = out[n] + one
            return out

        mp.setattr(walks, name, planted)
    return plant


def _plant_growth(mp):
    # counts of a walk model growing twice as fast, on the exact and the narrow route
    excursions, brackets = walks.excursions, walks._brackets
    mp.setattr(walks, "excursions",
               lambda steps, n: [v << m for m, v in enumerate(excursions(steps, n))])
    mp.setattr(walks, "_brackets", lambda steps, n, keep: (
        (lo << m, hi << m) for m, (lo, hi) in enumerate(brackets(steps, n, keep))))


_PLANTS = {
    "apery-closed-vs-recurrence": _plant_short_route("apery", "closed"),
    "baxter-five-routes": _plant_rule_level,
    "catalan-three-routes": _plant_rule_level,
    "census-labels-vs-rules": _plant_census,
    "conjecture-exp1423-vs-sb": _plant_stair,
    "invseq-growth-labels": _plant_extensions,
    "invseq-three-routes": _plant_invseq_brute(8),
    "kernel-semi": _plant_kernel_map,
    "kernel-strong": _plant_kernel_map,
    "lagrange-vs-series": _plant_inversion,
    "numbers-asymptotics": _plant_amplitude,
    "plane-vs-semi": _plant_rule_level,
    "rules-dsl-mirrors": _plant_expansion,
    "semi-all-routes": _plant_rule_level,
    "series-extraction-vs-recurrence": _plant_recurrence,
    "series-reduced-identity": _plant_kernel_data,
    "series-residual-semi": _plant_rule_level,
    "series-residual-strong": _plant_rule_level,
    "series-theorem-nonneg-part": _plant_one_plus,
    "strong-three-routes": _plant_short_route("strong", "walks"),
    "twisted-vs-baxter": _plant_rule_level,
    "walks-equation-residual": _plant_count("count_walks", walks.FIVE, 5,
                                            series.Poly({(0, 0): 1})),
    "walks-growth-constants": _plant_growth,
    "walks-refinement": _plant_rule_level,
    "walks-w2-transform": _plant_count("count_walks", walks.SEVEN, 5, series.Poly({(0, 0): 1})),
}


def test_every_check_has_a_planted_fault():
    # a check added to the registry needs a plant here before the suite passes
    assert _PLANTS.keys() == checks._REGISTRY.keys()


@pytest.mark.parametrize("name", list(checks._REGISTRY))
def test_every_check_fails_under_its_planted_fault(monkeypatch, name):
    _PLANTS[name](monkeypatch)
    fn, quick, _ = checks._REGISTRY[name]
    ok, detail = fn(*quick, 0)
    assert not ok, detail


# the checks that read rule levels: every one steps them through rules._levels
_LEVEL_READERS = {
    "baxter-five-routes", "catalan-three-routes", "census-labels-vs-rules", "plane-vs-semi",
    "rules-dsl-mirrors", "semi-all-routes", "strong-three-routes", "twisted-vs-baxter",
    "series-reduced-identity", "series-residual-semi", "series-residual-strong",
    "series-theorem-nonneg-part", "walks-refinement",
}


def test_a_planted_rule_level_fails_every_check_that_reads_levels(monkeypatch):
    # one more node at level 5 of every rule: each reader that drops or
    # misreads a row of it fails, and no check that reads no level does
    _plant_rule_level(monkeypatch)
    assert {r.name for r in checks.run_suite("quick") if not r.ok} == _LEVEL_READERS


@pytest.mark.parametrize("name, detail", [
    ("conjecture-exp1423-vs-sb", "brute vs sb:recurrence first differ at n=6: 525 != 530"),
    ("kernel-semi", "semi: invariant=False orbits=[11, 11, 11] redraws=0"),
    ("kernel-strong", "strong: invariant=False orbits=[101, 101] redraws=0"),
    ("walks-equation-residual",
     "walk tables vs cleared equation: residual 1 at (n, adeg, bdeg)=(5, 1, 1)"),
], ids=["exp1423", "kernel-semi", "kernel-strong", "walk-equation"])
def test_check_names_its_planted_fault(monkeypatch, name, detail):
    _PLANTS[name](monkeypatch)
    fn, quick, _ = checks._REGISTRY[name]
    assert fn(*quick, 0) == (False, detail)


def test_stair_plant_reaches_both_level_paths_and_fails_both_suites(monkeypatch):
    # size 6 is a canonicalised level at n_max = 8 and the streamed level at 6
    _plant_stair(monkeypatch)
    exp1423 = perms.CLASSES["exp1423"]
    assert perms.enumerate_class(exp1423, 8)[5] == perms.enumerate_class(exp1423, 6)[5] == 525
    fn, quick, full = checks._REGISTRY["conjecture-exp1423-vs-sb"]
    assert not fn(*quick, 0)[0] and not fn(*full, 0)[0]


def test_census_check_names_a_planted_level_fault(monkeypatch):
    _plant_census(monkeypatch)
    assert checks._chk_census(5, 0) == (
        False, "class semi census vs rule semi distribution differ at n=4, label (1, 4)")


def test_census_check_walks_each_class_once(monkeypatch):
    # one level stream per class/rule pair, whatever the top size
    started = []
    levels = perms._levels
    monkeypatch.setattr(perms, "_levels", lambda cls: started.append(cls.name) or levels(cls))
    assert checks._chk_census(7, 0)[0]
    assert started == ["semi", "plane", "baxter", "twisted", "strong"]


def test_invseq_labels_check_names_a_planted_extension_fault(monkeypatch):
    _plant_extensions(monkeypatch)
    assert checks._chk_invseq_labels(6, 0) == (
        False, "extension labels vs rule-semi productions differ at (n, top, bottom)=(2, 1, -1)")


def test_invseq_labels_check_reports_every_avoider_below_its_full_size():
    # the walk visits every avoider of size 1..top-1, so one size less shows in the count
    fn, _, (top,) = checks._REGISTRY["invseq-growth-labels"]
    seen = sum(SB[:top - 1])
    assert fn(top, 0) == (True, f"growth labels match the semi rule on {seen} avoiders "
                                f"(sizes < {top})")


def test_invseq_routes_check_names_a_planted_brute_fault(monkeypatch):
    # size 9 lies past the quick size: the full-size check compares that far
    _plant_invseq_brute(9)(monkeypatch)
    fn, _, sizes = checks._REGISTRY["invseq-three-routes"]
    assert fn(*sizes, 0) == (False, "brute vs dp first differ at n=9: 112658 != 112657")


def test_extraction_check_names_a_planted_recurrence_fault(monkeypatch):
    _plant_recurrence(monkeypatch)
    assert checks.series_extraction(12) == (False, "extraction vs recurrence at n=5: 104 != 105")


def test_nonneg_part_check_names_a_planted_label_fault(monkeypatch):
    _plant_one_plus(monkeypatch)
    assert checks.series_nonneg_part(10) == (
        False, "nonneg part vs label evaluation at n=4, exponent a^2")


def test_lagrange_check_names_a_planted_inversion_fault(monkeypatch):
    _plant_inversion(monkeypatch)
    assert checks._chk_lagrange(8, 0) == (
        False, "inversion formula vs series extraction differ at (s,k,i)=(2,3,2)")


def test_lagrange_check_compares_its_top_order(monkeypatch):
    # a coefficient wrong only at k = kmax fails the check at its full size
    fn, _, (kmax,) = checks._REGISTRY["lagrange-vs-series"]
    coeff = series.lagrange_coeff
    monkeypatch.setattr(series, "lagrange_coeff", lambda s, k, i: coeff(s, k, i) + (k == kmax))
    assert fn(kmax, 0) == (
        False, f"inversion formula vs series extraction differ at (s,k,i)=(-6,{kmax},1)")


def test_w2_check_names_a_planted_table_fault(monkeypatch):
    _plant_count("count_walks", walks.SEVEN, 5, series.Poly({(0, 0): 1}))(monkeypatch)
    assert checks._chk_w2(8, 12, 0) == (
        False, "seven-step tables vs binomial transform of five-step tables differ at n=5")


def test_w2_check_names_a_planted_excursion_fault(monkeypatch):
    _plant_count("excursions", walks.SEVEN, 7, 1)(monkeypatch)
    assert checks._chk_w2(8, 12, 0) == (
        False, "seven-step excursions vs transformed five-step excursions differ at n=7")


def test_growth_check_fails_on_planted_excursion_counts(monkeypatch):
    _plant_growth(monkeypatch)
    ok, detail = checks._chk_growth(100, 0)
    assert not ok and detail.startswith("estimate vs minimal-polynomial root: ")


def test_asymptotics_check_fails_on_a_planted_amplitude(monkeypatch):
    _plant_amplitude(monkeypatch)
    ok, detail = checks._chk_asymptotics(500, 0.05, 0)
    assert not ok and detail.startswith("recurrence asymptotics vs constants: ")


def test_rule_dsl_check_names_a_planted_axiom(monkeypatch):
    monkeypatch.setitem(rules.RULES, "bax", rules.RULES["bax"]._replace(axiom=(2, 1)))
    assert checks._chk_rule_dsl(10, 0) == (False, "bax axiom is (2, 1), not (1, 1)")


def test_rule_dsl_check_names_a_planted_expansion_fault(monkeypatch):
    _plant_expansion(monkeypatch)
    assert checks._chk_rule_dsl(10, 0) == (
        False, "bax interval-sum level vs node expansion differ at n=4, label (1, 1)")
