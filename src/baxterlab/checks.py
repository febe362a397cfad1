"""The family->route table and the cross-route consistency suite.

Every count in the package is reachable by at least two independent
routes (direct enumeration, succession rules, closed formulas, series
extraction, walk models).  FAMILIES names them; `baxterlab seq` prints
any one of them, and the route checks of the suite run all routes of a
family (plus a few borrowed from another family) and compare them.  On
disagreement a check reports the two route names and the smallest size
where they differ.  The series-side verdicts that `baxterlab series
--check` prints are the functions their checks call.  The checks run
one after another, so each report's elapsed_ms is that check's own wall
time.  The quick suite runs in under a second; the full suite raises
every bound to its documented budget and runs in a few seconds.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Callable, Mapping, Sequence

from . import formulas, invseq, perms, rules, series, walks

Route = Callable[[int], Sequence[int]]


def _perm_brute(cls_name: str) -> Route:
    return lambda n: perms.enumerate_class(perms.CLASSES[cls_name], n)


def _rule_counts(rule_name: str) -> Route:
    return lambda n: rules.count_sequence(rules.RULES[rule_name], n)


def _sb_formula(route: str) -> Route:
    return lambda n: formulas.sb_table(n, route)[1:]


_SB_ROUTES: dict[str, Route] = {
    "brute": _perm_brute("semi"),
    "rule": _rule_counts("semi"),
    "recurrence": _sb_formula("recurrence"),
    "sum": _sb_formula("sum"),
    "a": _sb_formula("a"),
    "b": _sb_formula("b"),
    "c": _sb_formula("c"),
    "d": _sb_formula("d"),
    "apery": _sb_formula("apery"),
    "invseq": invseq.totals_via_formula,
}

# family -> first index, default route and routes; a route maps n_max to
# the terms for n = offset..n_max.
FAMILIES: dict[str, dict] = {
    "sb": {"offset": 1, "default": "recurrence", "routes": _SB_ROUTES},
    "semi": {"offset": 1, "default": "recurrence", "routes": _SB_ROUTES},
    "plane": {
        "offset": 1,
        "default": "rule",
        "routes": {"brute": _perm_brute("plane"), "rule": _rule_counts("semi")},
    },
    "baxter": {
        "offset": 1,
        "default": "closed",
        "routes": {
            "brute": _perm_brute("baxter"),
            "rule": _rule_counts("bax"),
            "twisted-rule": _rule_counts("tbax"),
            "closed": lambda n: [formulas.baxter_closed(m) for m in range(1, n + 1)],
            "ollerton": lambda n: formulas.baxter_recurrence(n)[1:],
        },
    },
    "twisted": {
        "offset": 1,
        "default": "rule",
        "routes": {"brute": _perm_brute("twisted"), "rule": _rule_counts("tbax")},
    },
    "strong": {
        "offset": 1,
        "default": "rule",
        "routes": {
            "brute": _perm_brute("strong"),
            "rule": _rule_counts("strong"),
            "walks": lambda n: walks.strong_from_walks(n)[1:],
        },
    },
    "av231": {
        "offset": 1,
        "default": "closed",
        "routes": {
            "brute": _perm_brute("av231"),
            "rule": _rule_counts("cat"),
            "closed": lambda n: [formulas.catalan(m) for m in range(1, n + 1)],
        },
    },
    "exp1423": {
        "offset": 1,
        "default": "brute",
        "routes": {"brute": _perm_brute("exp1423")},
    },
    "apery": {
        "offset": 0,
        "default": "closed",
        "routes": {
            "closed": lambda n: [formulas.apery_closed(m) for m in range(n + 1)],
            "recurrence": lambda n: formulas.apery_recurrence(n),
        },
    },
    "invseq": {
        "offset": 1,
        "default": "formula",
        "routes": {
            "formula": invseq.totals_via_formula,
            "dp": lambda n: [sum(q.values()) for q in invseq.q_levels(n)],
            "brute": lambda n: invseq.count_avoiders_bruteforce(n),
        },
    },
}


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
        "census": 5,
        "invseq_labels": 6,
        "theorem_order": 10,
        "extraction_order": 12,
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
    },
    "full": {
        "brute": 10,
        "census": 7,
        "invseq_labels": 7,
        "theorem_order": 15,
        "extraction_order": 20,
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
    },
}

Outcome = tuple[bool, str]

# check name -> (family, size of its non-brute routes as a bounds key or a
# literal, "family:route"s borrowed from other families).  Brute-force
# routes always run at the "brute" bound.
_ROUTE_CHECKS: dict[str, tuple[str, str | int, tuple[str, ...]]] = {
    "apery-closed-vs-recurrence": ("apery", 30, ()),
    "baxter-five-routes": ("baxter", 12, ()),
    "catalan-three-routes": ("av231", 14, ()),
    "conjecture-exp1423-vs-sb": ("exp1423", "brute", ("sb:recurrence",)),
    "invseq-three-routes": ("invseq", 13, ("sb:recurrence",)),
    "plane-vs-semi": ("plane", "brute", ()),
    "semi-all-routes": ("sb", 13, ()),
    "strong-three-routes": ("strong", 13, ()),
    "twisted-vs-baxter": ("twisted", 12, ("baxter:closed",)),
}


def _route_check(
    family: str, size: str | int, borrowed: tuple[str, ...]
) -> Callable[[Bounds, int], Outcome]:
    """The check that every route of `family` and each borrowed route agree."""
    picks = [(family, r, r) for r in FAMILIES[family]["routes"]]
    picks += [(*key.split(":"), key) for key in borrowed]

    def check(b: Bounds, seed: int) -> Outcome:
        n = b[size] if isinstance(size, str) else size
        return compare_routes(
            {
                label: FAMILIES[fam]["routes"][route](b["brute"] if route == "brute" else n)
                for fam, route, label in picks
            },
            offset=FAMILIES[family]["offset"],
        )

    return check


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


def _chk_invseq_labels(b: Bounds, seed: int) -> Outcome:
    semi = rules.RULES["semi"]
    top = b["invseq_labels"]
    stack: list[invseq.ISeq] = [(0,)]
    seen = 0
    while stack:
        e = stack.pop()
        kids = [invseq.growth_label(e + (p,)) for p in invseq.valid_extensions(e)]
        if sorted(kids) != sorted(rules.productions(semi, invseq.growth_label(e))):
            return False, (
                f"extension labels vs rule-semi productions differ at e={e}"
            )
        seen += 1
        if len(e) + 1 < top:
            stack.extend(e + (p,) for p in invseq.valid_extensions(e))
    return True, f"growth labels match the semi rule on {seen} avoiders (sizes < {top})"


def series_extraction(order: int) -> Outcome:
    """The a^0 column of F against the semi-Baxter recurrence, n = 1..order."""
    f = series.build_F(order)
    want = formulas.sb_table(order)[1:]
    for n in range(1, order + 1):
        got = f.coeff_x(n).coeff(0)
        if got != want[n - 1]:
            return False, f"extraction vs recurrence at n={n}: {got} != {want[n - 1]}"
    return True, f"a^0 column matches the recurrence for n=1..{order}"


def series_nonneg_part(order: int) -> Outcome:
    """Nonnegative part of F against the semi labels evaluated at 1+a."""
    lhs = series.omega_geq(series.build_F(order))
    rhs = series.LabelSeries("semi", order).series_in_one_plus_a()
    for n in range(1, order + 1):
        if lhs.coeff_x(n) != rhs.coeff_x(n):
            (e,) = min((lhs.coeff_x(n) - rhs.coeff_x(n)).c)
            return False, f"nonneg part vs label evaluation at n={n}, exponent a^{e}"
    return True, f"nonneg part matches label evaluation for x^1..x^{order}"


def _residual_verdict(res: series.Residual, fail: str, passed: str) -> Outcome:
    """Pass with `passed` on a zero residual, else `fail` formatted with the
    largest defect and its first place."""
    return (False, fail.format(*res)) if res[0] else (True, passed)


def series_residual(group: str, order: int) -> Outcome:
    """The cleared label equation of `group` ("semi" or "strong")."""
    fn = {"semi": series.residual_semi, "strong": series.residual_strong}[group]
    return _residual_verdict(
        fn(order), "residual {} at (n, ydeg, zdeg)={}", f"residual 0 through x^{order}"
    )


def series_reduced(a0: Fraction, order: int) -> Outcome:
    """Both reduced identities at the rational point a0."""
    rep = series.verify_reduced_identity(a0, order)
    if rep["ok"]:
        return True, f"both identities hold at a0={a0} to order {order}"
    return False, (
        f"at a0={a0}: F-vs-P first fail {rep['f_first_fail']}, "
        f"sum identity first fail {rep['sum_first_fail']}"
    )


def series_kernel(group: str, trials: int, seed: int) -> Outcome:
    """Kernel invariance and orbit sizes of `group` at random points."""
    rep = series.kernel_invariance(group, trials, seed=seed)
    return rep["ok"], (
        f"{group}: invariant={rep['invariant_ok']} "
        f"orbits={rep['orbit_sizes']} redraws={rep['redraws']}"
    )


def _reduced_points(b: Bounds, seed: int) -> Outcome:
    outcomes = [series_reduced(a0, order) for a0, order in b["reduced_points"]]
    return all(ok for ok, _ in outcomes), "; ".join(d for _, d in outcomes)


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


def _chk_walk_equation(b: Bounds, seed: int) -> Outcome:
    order = b["walk_residual"]
    return _residual_verdict(
        walks.residual_walk_equation(order),
        "walk tables vs cleared equation: residual {} at (n, adeg, bdeg)={}",
        f"walk equation residual is 0 through t^{order}",
    )


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
    return _residual_verdict(
        walks.strong_refinement_residual(10),
        "rule-strong labels vs walk endpoint tables: residual {} at (n, adeg, bdeg)={}",
        "refined label/endpoint match holds for n<=10",
    )


def _chk_growth(b: Bounds, seed: int) -> Outcome:
    n = b["growth_n"]
    e5 = walks.excursions(walks.FIVE, n)
    # SEVEN is FIVE plus two pauses; walks-w2-transform checks that identity on the DP
    r5 = walks.fit_growth(walks.FIVE, e5)
    r7 = walks.fit_growth(walks.SEVEN, walks.binomial_transform(e5, 2))
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


def _chk_rule_dsl(b: Bounds, seed: int) -> Outcome:
    for name, rule in rules.RULES.items():
        if rule.axiom != (1, 1):
            return False, f"{name} axiom is {rule.axiom}, not (1, 1)"
        dist = {rule.axiom: 1}
        for n in range(2, 11):
            fast, slow = rules.next_level(rule, dist), rules.expand_level(rule, dist)
            if fast != slow:
                label = min(lb for lb in fast.keys() | slow.keys() if fast.get(lb) != slow.get(lb))
                return False, (f"{name} interval-sum level vs node expansion differ at "
                               f"n={n}, label {label}")
            dist = fast
    return True, "all 5 rules: interval-sum levels match node expansion for n<=10"


_REGISTRY: tuple[tuple[str, Callable[[Bounds, int], Outcome]], ...] = tuple(sorted(
    [(name, _route_check(*row)) for name, row in _ROUTE_CHECKS.items()] + [
        ("census-labels-vs-rules", _chk_census),
        ("invseq-growth-labels", _chk_invseq_labels),
        ("kernel-semi", lambda b, seed: series_kernel("semi", b["kernel_semi_trials"], seed)),
        ("kernel-strong",
         lambda b, seed: series_kernel("strong", b["kernel_strong_trials"], seed)),
        ("lagrange-vs-series", _chk_lagrange),
        ("numbers-asymptotics", _chk_asymptotics),
        ("rules-dsl-mirrors", _chk_rule_dsl),
        ("series-extraction-vs-recurrence",
         lambda b, seed: series_extraction(b["extraction_order"])),
        ("series-reduced-identity", _reduced_points),
        ("series-residual-semi", lambda b, seed: series_residual("semi", 10)),
        ("series-residual-strong", lambda b, seed: series_residual("strong", 10)),
        ("series-theorem-nonneg-part", lambda b, seed: series_nonneg_part(b["theorem_order"])),
        ("walks-equation-residual", _chk_walk_equation),
        ("walks-growth-constants", _chk_growth),
        ("walks-refinement", _chk_refinement),
        ("walks-w2-transform", _chk_w2),
    ],
    key=lambda item: item[0],
))


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
