"""The acceptance gate: one test per stated criterion.

Each test prints a single line ``criterion NN: PASS/FAIL (elapsed)`` and
enforces both the exact claim and its runtime budget.  Criterion 09 has
two clauses; the plain-ratio clause is asserted exactly as stated and
fails, with the analysis in its docstring.
"""

import time
from fractions import Fraction

from baxterlab import checks, formulas, invseq, perms, rules, series, walks

from conftest import BAXTER, SB, STRONG


class _Gate:
    def __init__(self, num: str, budget: float):
        self.num = num
        self.budget = budget
        self.t0 = time.monotonic()

    def done(self, ok: bool, detail: str) -> None:
        elapsed = time.monotonic() - self.t0
        status = "PASS" if ok else "FAIL"
        line = f"criterion {self.num}: {status} ({elapsed:.1f}s of {self.budget:.0f}s) {detail}"
        print(line)
        assert elapsed < self.budget, line
        assert ok, line


def test_c01_semi_terms_every_route():
    gate = _Gate("01", 60)
    routes = {
        "brute": perms.enumerate_class(perms.CLASSES["semi"], 10),
        "rule": rules.count_sequence(rules.RULES["semi"], 13),
        "invseq": [invseq.total_via_formula(n) for n in range(1, 14)],
    }
    for fr in ("recurrence", "sum", "a", "b", "c", "d", "apery"):
        routes[fr] = formulas.sb_table(13, fr)[1:]
    ok = all(seq == SB[: len(seq)] for seq in routes.values())
    ok = ok and all(
        len(seq) == (10 if name == "brute" else 13) for name, seq in routes.items()
    )
    gate.done(ok, f"{len(routes)} routes end at {SB[-1]}")


def test_c02_strong_terms_three_routes():
    gate = _Gate("02", 60)
    brute = perms.enumerate_class(perms.CLASSES["strong"], 10)
    rule = rules.count_sequence(rules.RULES["strong"], 13)
    via_walks = walks.strong_from_walks(13)[1:]
    ok = brute == STRONG[:10] and rule == STRONG and via_walks == STRONG
    gate.done(ok, f"brute/rule/walks end at {STRONG[-1]}")


def test_c03_baxter_terms_four_routes():
    gate = _Gate("03", 10)
    seqs = [
        rules.count_sequence(rules.RULES["bax"], 12),
        rules.count_sequence(rules.RULES["tbax"], 12),
        [formulas.baxter_closed(n) for n in range(1, 13)],
        formulas.baxter_recurrence(12)[1:],
    ]
    ok = all(s == BAXTER for s in seqs)
    gate.done(ok, f"four routes end at {BAXTER[-1]}")


def test_c04_nonneg_part_theorem_to_x15():
    gate = _Gate("04", 60)
    order = 15
    lhs = series.omega_geq(series.build_F(order))
    rhs = series.LabelSeries(rules.RULES["semi"], order).series_in_one_plus_a()
    bad = [n for n in range(1, order + 1) if lhs.coeff_x(n) != rhs.coeff_x(n)]
    gate.done(not bad, f"coefficientwise equal for x^1..x^{order}")


def test_c05_functional_equation_residuals():
    gate = _Gate("05", 30)
    results = {
        "semi": series.residual_semi(10),
        "strong": series.residual_strong(10),
        "walk": walks.residual_walk_equation(10),
    }
    ok = all(r == (0, None) for r in results.values())
    gate.done(ok, "all three cleared equations vanish to order 10")


def test_c06_reduced_identity_two_points():
    gate = _Gate("06", 30)
    reports = [
        series.verify_reduced_identity(Fraction(3, 2), order=12),
        series.verify_reduced_identity(Fraction(2), order=12),
    ]
    ok = all(r["ok"] for r in reports)
    gate.done(ok, "series match and sum identity hold at a0=3/2 and a0=2")


def test_c07_kernel_orbits():
    gate = _Gate("07", 10)
    semi = series.kernel_invariance(rules.RULES["semi"], 10, 5, 0)
    strong = series.kernel_invariance(rules.RULES["strong"], None, 5, 0)
    ok = (
        semi["ok"]
        and strong["ok"]
        and all(s == 10 for s in semi["orbit_sizes"])
        and all(s > 100 for s in strong["orbit_sizes"])
    )
    gate.done(ok, f"semi orbits {semi['orbit_sizes']}, strong all above 100")


def test_c08_lagrange_vs_extraction():
    gate = _Gate("08", 10)
    w = series.solve_W(12)
    powers = {1: w, 2: w * w, 3: w * w * w}
    bad = []
    for i, wi in powers.items():
        for k in range(i, 13):
            coeff = wi.coeff_x(k)
            for s in range(-6, 2 * k + 1):
                if series.lagrange_coeff(s, k, i) != coeff.coeff(s, 0):
                    bad.append((s, k, i))
    gate.done(not bad, "binomial triple sums match extraction for i<=3, k<=12")


def test_c09a_plain_ratio_at_n2000():
    """Plain consecutive-term ratio against a 0.1% window at n=2000.

    The terms grow like K mu^n n^-6, so the plain ratio approaches mu
    only as mu(1 - 6/n + O(1/n^2)).  At n=2000 the relative gap is
    therefore about 6/2000 = 3.0e-3, three times the asserted window;
    reaching 0.1% this way needs n near 6000.  The polynomially
    corrected ratio (the library's own diagnostic) is already within
    4e-6 at this n, which the companion clause and the consistency
    suite assert instead.  The claim is kept verbatim here rather than
    silently weakened, so this test fails by design.
    """
    gate = _Gate("09a", 120)
    rep = formulas.asymptotic_check(2000)
    deviation = abs(rep["ratio"] / formulas.MU - 1)
    gate.done(
        deviation < 1e-3,
        f"plain ratio off by {deviation:.2e} (corrected ratio off by "
        f"{abs(rep['corrected_ratio'] / formulas.MU - 1):.1e})",
    )


def test_c09b_seven_walk_growth_at_n300():
    gate = _Gate("09b", 120)
    rep = walks.growth_estimate(walks.SEVEN, 300)
    target = 6.729031538
    rel = abs(rep["rho_hat"] - target) / target
    gate.done(rel < 0.02, f"growth estimate within {rel:.2e} of {target}")


def test_c10_conjectured_family_tracks_sb():
    gate = _Gate("10", 120)
    got = perms.enumerate_class(perms.CLASSES["exp1423"], 10)
    gate.done(
        got == SB[:10],
        "consistent with the conjectured equality for n<=10 (informative)",
    )


def test_consistency_suite_quick_all_pass():
    # not a numbered criterion: the packaged suite must agree with the gate
    reports = checks.run_suite("quick")
    bad = [(r.name, r.detail) for r in reports if not r.ok]
    assert not bad, bad
