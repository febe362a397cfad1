"""Cross-route consistency suite.

Every count in the package is reachable by at least two independent
routes (direct enumeration, succession rules, closed formulas, series
extraction, walk models).  Each check here pits routes against one
another and, on disagreement, reports the two route names and the
smallest size where they differ.  The checks run one after another, so
each report's elapsed_ms is that check's own wall time.  The quick suite
runs in under a second; the full suite raises every bound to its
documented budget and runs in a few seconds.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Callable, Mapping, Sequence

from . import formulas, invseq, perms, rules, series, walks


@dataclass(frozen=True)
class CheckReport:
    name: str
    status: str
    detail: str
    elapsed_ms: float

    @property
    def ok(self) -> bool:
        return self.status == "pass"

    def as_dict(self) -> dict:
        return asdict(self)


def compare_routes(
    seqs: Mapping[str, Sequence[int]], offset: int = 1
) -> tuple[bool, str]:
    """Compare aligned sequences pairwise; index i holds n = offset + i.

    Sequences may have different lengths; only the common prefix of each
    pair is compared.  On mismatch the detail names both routes and the
    smallest n of disagreement.
    """
    names = sorted(seqs)
    if len(names) < 2:
        raise ValueError(f"need at least two routes to compare, got {names}")
    base = seqs[names[0]]
    for other in names[1:]:
        o = seqs[other]
        for i in range(min(len(base), len(o))):
            if base[i] != o[i]:
                n = offset + i
                return False, (
                    f"{names[0]} vs {other} first differ at n={n}: "
                    f"{base[i]} != {o[i]}"
                )
    spans = ", ".join(f"{k} to n={offset + len(seqs[k]) - 1}" for k in names)
    return True, f"routes agree ({spans})"


Bounds = dict[str, object]

_BOUNDS: dict[str, Bounds] = {
    "quick": {
        "brute": 8,
        "rule": 13,
        "census": 5,
        "invseq_labels": 6,
        "theorem_order": 10,
        "extraction_order": 12,
        "residual_order": 10,
        "lagrange_k": 8,
        "reduced_points": ((Fraction(3, 2), 10),),
        "kernel_semi_trials": 3,
        "kernel_strong_trials": 2,
        "walk_residual": 8,
        "w2": 8,
        "w2_origin": 12,
        "growth_n": 100,
        "asym_n": 500,
        "amp_tol": 0.05,
        "conjecture": 8,
    },
    "full": {
        "brute": 10,
        "rule": 13,
        "census": 7,
        "invseq_labels": 7,
        "theorem_order": 15,
        "extraction_order": 20,
        "residual_order": 10,
        "lagrange_k": 12,
        "reduced_points": ((Fraction(3, 2), 12), (Fraction(2), 12)),
        "kernel_semi_trials": 5,
        "kernel_strong_trials": 5,
        "walk_residual": 10,
        "w2": 10,
        "w2_origin": 20,
        "growth_n": 300,
        "asym_n": 2000,
        "amp_tol": 0.02,
        "conjecture": 10,
    },
}

Outcome = tuple[bool, str]


def _chk_semi_all_routes(b: Bounds, seed: int) -> Outcome:
    n = b["rule"]
    seqs: dict[str, Sequence[int]] = {
        "perm-brute": perms.enumerate_class(perms.CLASSES["semi"], b["brute"]),
        "rule-semi": rules.count_sequence(rules.RULES["semi"], n),
        "recurrence": formulas.sb_table(n, "recurrence")[1:],
        "sum-formula": formulas.sb_table(n, "sum")[1:],
        "apery-identity": formulas.sb_table(n, "apery")[1:],
        "invseq-formula": [invseq.total_via_formula(m) for m in range(1, n + 1)],
    }
    for v in "abcd":
        seqs[f"simple-{v}"] = formulas.sb_table(n, v)[1:]
    return compare_routes(seqs)


def _chk_strong_routes(b: Bounds, seed: int) -> Outcome:
    n = b["rule"]
    return compare_routes(
        {
            "perm-brute": perms.enumerate_class(perms.CLASSES["strong"], b["brute"]),
            "rule-strong": rules.count_sequence(rules.RULES["strong"], n),
            "walk-excursions": walks.strong_from_walks(n)[1:],
        }
    )


def _chk_baxter_routes(b: Bounds, seed: int) -> Outcome:
    return compare_routes(
        {
            "perm-brute": perms.enumerate_class(perms.CLASSES["baxter"], b["brute"]),
            "rule-bax": rules.count_sequence(rules.RULES["bax"], 12),
            "rule-tbax": rules.count_sequence(rules.RULES["tbax"], 12),
            "closed-sum": [formulas.baxter_closed(m) for m in range(1, 13)],
            "ollerton-recurrence": formulas.baxter_recurrence(12)[1:],
        }
    )


def _chk_twisted_vs_baxter(b: Bounds, seed: int) -> Outcome:
    return compare_routes(
        {
            "twisted-brute": perms.enumerate_class(perms.CLASSES["twisted"], b["brute"]),
            "rule-tbax": rules.count_sequence(rules.RULES["tbax"], 12),
            "baxter-closed": [formulas.baxter_closed(m) for m in range(1, 13)],
        }
    )


def _chk_plane_vs_semi(b: Bounds, seed: int) -> Outcome:
    n = b["brute"]
    return compare_routes(
        {
            "plane-brute": perms.enumerate_class(perms.CLASSES["plane"], n),
            "rule-semi": rules.count_sequence(rules.RULES["semi"], n),
        }
    )


def _chk_catalan_routes(b: Bounds, seed: int) -> Outcome:
    return compare_routes(
        {
            "av231-brute": perms.enumerate_class(perms.CLASSES["av231"], b["brute"]),
            "rule-cat": rules.count_sequence(rules.RULES["cat"], 14),
            "catalan-closed": [formulas.catalan(m) for m in range(1, 15)],
        }
    )


def _chk_census(b: Bounds, seed: int) -> Outcome:
    pairs = (
        ("semi", "semi"),
        ("plane", "semi"),
        ("baxter", "bax"),
        ("twisted", "tbax"),
        ("strong", "strong"),
    )
    top = b["census"]
    for cls_name, rule_name in pairs:
        for n in range(1, top + 1):
            got = perms.label_census(perms.CLASSES[cls_name], n)
            want = rules.distribution(rules.RULES[rule_name], n)
            if got != want:
                label = min(set(got) ^ set(want) | {
                    lb for lb in got if want.get(lb) != got[lb]
                })
                return False, (
                    f"class {cls_name} census vs rule {rule_name} distribution "
                    f"differ at n={n}, label {label}"
                )
    return True, f"5 class/rule label censuses agree for n<={top}"


def _chk_invseq_routes(b: Bounds, seed: int) -> Outcome:
    n = b["rule"]
    return compare_routes(
        {
            "invseq-dfs": invseq.count_avoiders_bruteforce(b["brute"]),
            "invseq-table-sum": [invseq.total_via_formula(m) for m in range(1, n + 1)],
            "sb-recurrence": formulas.sb_table(n)[1:],
        }
    )


def _chk_invseq_labels(b: Bounds, seed: int) -> Outcome:
    semi = rules.RULES["semi"]
    top = b["invseq_labels"]
    stack: list[invseq.ISeq] = [(0,)]
    seen = 0
    while stack:
        e = stack.pop()
        kids = [invseq.growth_label(e + (p,)) for p in invseq.valid_extensions(e)]
        if sorted(kids) != sorted(semi.produce(invseq.growth_label(e))):
            return False, (
                f"extension labels vs rule-semi productions differ at e={e}"
            )
        seen += 1
        if len(e) + 1 < top:
            stack.extend(e + (p,) for p in invseq.valid_extensions(e))
    return True, f"growth labels match the semi rule on {seen} avoiders (sizes < {top})"


def _chk_theorem(b: Bounds, seed: int) -> Outcome:
    order = b["theorem_order"]
    lhs = series.omega_geq(series.build_F(order))
    rhs = series.LabelSeries("semi", order).series_in_one_plus_a()
    for n in range(1, order + 1):
        if lhs.coeff_x(n) != rhs.coeff_x(n):
            e = min((lhs.coeff_x(n) - rhs.coeff_x(n)).c)
            return False, (
                f"series nonneg-part vs rule-semi label evaluation differ "
                f"at n={n}, exponent a^{e}"
            )
    return True, f"nonneg-part route vs rule route agree for x^1..x^{order}"


def _chk_extraction(b: Bounds, seed: int) -> Outcome:
    order = b["extraction_order"]
    f = series.build_F(order)
    return compare_routes(
        {
            "series-a0-extraction": [f.coeff_x(n).coeff(0) for n in range(1, order + 1)],
            "sb-recurrence": formulas.sb_table(order)[1:],
        }
    )


def _chk_residual_semi(b: Bounds, seed: int) -> Outcome:
    order = b["residual_order"]
    max_abs, offending = series.residual_semi(order)
    if max_abs:
        return False, (
            f"rule-semi labels vs cleared equation: residual {max_abs} "
            f"at (n, ydeg, zdeg)={offending}"
        )
    return True, f"label equation residual is 0 through x^{order}"


def _chk_residual_strong(b: Bounds, seed: int) -> Outcome:
    order = b["residual_order"]
    max_abs, offending = series.residual_strong(order)
    if max_abs:
        return False, (
            f"rule-strong labels vs cleared equation: residual {max_abs} "
            f"at (n, ydeg, zdeg)={offending}"
        )
    return True, f"label equation residual is 0 through x^{order}"


def _chk_lagrange(b: Bounds, seed: int) -> Outcome:
    kmax = b["lagrange_k"]
    w = series.solve_W(kmax)
    w2 = w * w
    powers = {1: w, 2: w2, 3: w2 * w}
    for i in (1, 2, 3):
        for k in range(1, kmax + 1):
            for s in range(-6, 2 * k + 1):
                if series.lagrange_coeff(s, k, i) != powers[i].coeff_x(k).coeff(s):
                    return False, (
                        f"inversion formula vs series extraction differ at "
                        f"(s,k,i)=({s},{k},{i})"
                    )
    return True, f"coefficient grid agrees for i<=3, k<={kmax}, -6<=s<=2k"


def _chk_reduced(b: Bounds, seed: int) -> Outcome:
    points = b["reduced_points"]
    for a0, order in points:
        rep = series.verify_reduced_identity(a0, order)
        if not rep["ok"]:
            which = "F-vs-P" if not rep["f_matches_p"] else "sum-identity"
            where = rep["f_first_fail"] if rep["f_first_fail"] is not None else rep["sum_first_fail"]
            return False, f"{which} fails at a0={a0}, first bad order x^{where}"
    pts = ", ".join(str(a0) for a0, _ in points)
    return True, f"both identities hold at a0 in {{{pts}}}"


def _chk_kernel_semi(b: Bounds, seed: int) -> Outcome:
    rep = series.kernel_invariance("semi", b["kernel_semi_trials"], seed=seed)
    if not rep["ok"]:
        return False, f"invariance or orbit defect: {rep}"
    return True, (
        f"kernel fixed and orbit size 10 at {rep['trials']} rational points "
        f"(redraws {rep['redraws']})"
    )


def _chk_kernel_strong(b: Bounds, seed: int) -> Outcome:
    rep = series.kernel_invariance("strong", b["kernel_strong_trials"], seed=seed)
    if not rep["ok"]:
        return False, f"invariance or orbit defect: {rep}"
    return True, (
        f"kernel fixed and orbit open past 100 at {rep['trials']} rational points"
    )


def _chk_walk_equation(b: Bounds, seed: int) -> Outcome:
    order = b["walk_residual"]
    max_abs, offending = walks.residual_walk_equation(order)
    if max_abs:
        return False, (
            f"walk tables vs cleared equation: residual {max_abs} "
            f"at (n, adeg, bdeg)={offending}"
        )
    return True, f"walk equation residual is 0 through t^{order}"


def _chk_w2(b: Bounds, seed: int) -> Outcome:
    rep = walks.w2_consistency(b["w2"])
    if not rep["ok"]:
        return False, (
            f"seven-step tables vs binomial transform of five-step tables "
            f"differ at n={rep['first_fail']}"
        )
    rep0 = walks.w2_consistency(b["w2_origin"], origin_only=True)
    if not rep0["ok"]:
        return False, (
            f"seven-step excursions vs transformed five-step excursions "
            f"differ at n={rep0['first_fail']}"
        )
    return True, (
        f"transform matches tables to n={b['w2']} and excursions to n={b['w2_origin']}"
    )


def _chk_refinement(b: Bounds, seed: int) -> Outcome:
    max_abs, offending = walks.strong_refinement_residual(10)
    if max_abs:
        return False, (
            f"rule-strong labels vs walk endpoint tables: residual {max_abs} "
            f"at (n, adeg, bdeg)={offending}"
        )
    return True, "refined label/endpoint match holds for n<=10"


def _chk_growth(b: Bounds, seed: int) -> Outcome:
    n = b["growth_n"]
    r5 = walks.growth_estimate(walks.FIVE, n)
    r7 = walks.growth_estimate(walks.SEVEN, n)
    ok = r5["rel_err"] < 0.02 and r7["rel_err"] < 0.02
    detail = (
        f"five rho_hat={r5['rho_hat']:.6f} (err {r5['rel_err']:.1e}), "
        f"seven rho_hat={r7['rho_hat']:.6f} (err {r7['rel_err']:.1e}) at n={n}"
    )
    if not ok:
        return False, "estimate vs minimal-polynomial root: " + detail
    return True, detail


def _chk_asymptotics(b: Bounds, seed: int) -> Outcome:
    rep = formulas.asymptotic_check(b["asym_n"])
    dev = abs(rep["corrected_ratio"] - rep["target_mu"]) / rep["target_mu"]
    amp = abs(rep["n6_scaled"] - rep["target_A"]) / rep["target_A"]
    ok = dev < 1e-3 and amp < b["amp_tol"]
    detail = (
        f"corrected ratio {rep['corrected_ratio']:.7f} vs mu {rep['target_mu']:.7f} "
        f"(rel dev {dev:.1e}); plain ratio {rep['ratio']:.7f} drifts like 6/n; "
        f"amplitude {rep['n6_scaled']:.3f} vs {rep['target_A']:.3f} at n={rep['n']}"
    )
    if not ok:
        return False, "recurrence asymptotics vs constants: " + detail
    return True, detail


def _chk_conjecture(b: Bounds, seed: int) -> Outcome:
    n = b["conjecture"]
    ok, detail = compare_routes(
        {
            "exp-pattern-brute": perms.enumerate_class(perms.CLASSES["exp1423"], n),
            "sb-recurrence": formulas.sb_table(n)[1:],
        }
    )
    if ok:
        return True, f"consistent with the conjectured equality for n<={n}"
    return False, detail


def _chk_apery(b: Bounds, seed: int) -> Outcome:
    return compare_routes(
        {
            "apery-closed": [formulas.apery_closed(m) for m in range(31)],
            "apery-recurrence": formulas.apery_recurrence(30),
        },
        offset=0,
    )


def _chk_rule_dsl(b: Bounds, seed: int) -> Outcome:
    for name, text in rules.RULE_FILE_SOURCES.items():
        built = rules.RULES[name]
        parsed = rules.parse_rule(text, name=f"{name}-mirror")
        if parsed.axiom != built.axiom:
            return False, f"{name} mirror axiom differs"
        for h in range(1, 7):
            for k in range(1, 7):
                if name == "cat" and k != 1:
                    continue
                if parsed.produce((h, k)) != built.produce((h, k)):
                    return False, (
                        f"{name} mirror vs built-in productions differ at ({h},{k})"
                    )
        if rules.count_sequence(parsed, 10) != rules.count_sequence(built, 10):
            return False, f"{name} mirror vs built-in counts differ"
    return True, "all 5 rule-file mirrors reproduce the built-in rules"


_REGISTRY: tuple[tuple[str, Callable[[Bounds, int], Outcome]], ...] = (
    ("apery-closed-vs-recurrence", _chk_apery),
    ("baxter-five-routes", _chk_baxter_routes),
    ("catalan-three-routes", _chk_catalan_routes),
    ("census-labels-vs-rules", _chk_census),
    ("conjecture-exp1423-vs-sb", _chk_conjecture),
    ("invseq-growth-labels", _chk_invseq_labels),
    ("invseq-three-routes", _chk_invseq_routes),
    ("kernel-semi", _chk_kernel_semi),
    ("kernel-strong", _chk_kernel_strong),
    ("lagrange-vs-series", _chk_lagrange),
    ("numbers-asymptotics", _chk_asymptotics),
    ("plane-vs-semi", _chk_plane_vs_semi),
    ("rules-dsl-mirrors", _chk_rule_dsl),
    ("semi-all-routes", _chk_semi_all_routes),
    ("series-extraction-vs-recurrence", _chk_extraction),
    ("series-reduced-identity", _chk_reduced),
    ("series-residual-semi", _chk_residual_semi),
    ("series-residual-strong", _chk_residual_strong),
    ("series-theorem-nonneg-part", _chk_theorem),
    ("strong-three-routes", _chk_strong_routes),
    ("twisted-vs-baxter", _chk_twisted_vs_baxter),
    ("walks-equation-residual", _chk_walk_equation),
    ("walks-growth-constants", _chk_growth),
    ("walks-refinement", _chk_refinement),
    ("walks-w2-transform", _chk_w2),
)


def run_suite(suite: str = "quick", seed: int = 0) -> list[CheckReport]:
    """Run every registered check; reports sorted by name.

    A check that raises is reported as failing with the exception text.
    """
    if suite not in _BOUNDS:
        raise ValueError(f"unknown suite {suite!r} (known: {', '.join(_BOUNDS)})")
    bounds = _BOUNDS[suite]
    reports = []
    for name, fn in _REGISTRY:
        t0 = time.perf_counter()
        try:
            ok, detail = fn(bounds, seed)
        except Exception as exc:
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        elapsed = (time.perf_counter() - t0) * 1000.0
        reports.append(CheckReport(name, "pass" if ok else "fail", detail, elapsed))
    return sorted(reports, key=lambda r: r.name)
