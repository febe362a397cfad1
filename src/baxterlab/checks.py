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
time.  Each row of the registry gives its check's sizes for the quick
and the full suite; as whole commands on a 2-vCPU machine the quick
suite runs in about 0.11 s and the full suite in about 0.21 s.
"""

from __future__ import annotations

import time
from decimal import Decimal
from fractions import Fraction
from functools import partial
from itertools import islice, pairwise
from typing import Callable, Iterator, Mapping, NamedTuple, Sequence

from . import formulas, invseq, perms, rules, series, walks
from .formulas import _term_text

Route = Callable[[int], Sequence[int]]


def _perm_brute(cls_name: str) -> Route:
    return lambda n: perms.enumerate_class(perms.CLASSES[cls_name], n)


def _rule_counts(rule_name: str) -> Route:
    return lambda n: rules.count_sequence(rules.RULES[rule_name], n)


def _sb_formula(route: str) -> Route:
    return lambda n: formulas.sb_table(n, route)[1:]


class Recurrence(NamedTuple):
    """A route run by a formulas recurrence, whose terms start at index skip.

    Called, it returns ints like every route.  digits(n_max) streams the
    same terms as decimal strings, run in exact Decimal arithmetic: the
    CLI prints from it, since str() of a deep int term is quadratic.
    """

    run: Callable[..., list]
    skip: int

    def __call__(self, n_max: int) -> list[int]:
        return self.run(n_max)[self.skip:]

    def digits(self, n_max: int) -> Iterator[str]:
        return map(str, islice(self.run(n_max, Decimal(1)), self.skip, None))


_SB_ROUTES: dict[str, Route] = {
    "recurrence": Recurrence(lambda n, unit=1: formulas.sb_recurrence(n, unit), 1),
    **{route: _sb_formula(route) for route in formulas.SB_ROUTES if route != "recurrence"},
    "brute": _perm_brute("semi"),
    "rule": _rule_counts("semi"),
    "invseq": invseq.totals_via_formula,
}

# family -> first index and routes, the default route first; a route maps
# n_max to the terms for n = offset..n_max.
FAMILIES: dict[str, dict] = {
    "sb": {"offset": 1, "routes": _SB_ROUTES},
    "semi": {"offset": 1, "routes": _SB_ROUTES},
    "plane": {"offset": 1, "routes": {"rule": _rule_counts("semi"), "brute": _perm_brute("plane")}},
    "baxter": {
        "offset": 1,
        "routes": {
            "closed": lambda n: [formulas.baxter_closed(m) for m in range(1, n + 1)],
            "ollerton": Recurrence(lambda n, unit=1: formulas.baxter_recurrence(n, unit), 1),
            "rule": _rule_counts("bax"),
            "twisted-rule": _rule_counts("tbax"),
            "brute": _perm_brute("baxter"),
        },
    },
    "twisted": {"offset": 1, "routes": {"rule": _rule_counts("tbax"),
                                        "brute": _perm_brute("twisted")}},
    "strong": {
        "offset": 1,
        "routes": {
            "rule": _rule_counts("strong"),
            "brute": _perm_brute("strong"),
            "walks": lambda n: walks.strong_from_walks(n)[1:],
        },
    },
    "av231": {
        "offset": 1,
        "routes": {
            "closed": lambda n: [formulas.catalan(m) for m in range(1, n + 1)],
            "rule": _rule_counts("cat"),
            "brute": _perm_brute("av231"),
        },
    },
    "exp1423": {"offset": 1, "routes": {"brute": _perm_brute("exp1423")}},
    "apery": {
        "offset": 0,
        "routes": {
            "closed": lambda n: [formulas.apery_closed(m) for m in range(n + 1)],
            "recurrence": Recurrence(lambda n, unit=1: formulas.apery_recurrence(n, unit), 0),
        },
    },
    "invseq": {
        "offset": 1,
        "routes": {
            "formula": invseq.totals_via_formula,
            "dp": lambda n: [sum(q.values()) for q in invseq.q_levels(n)],
            "brute": lambda n: invseq.count_avoiders_bruteforce(n),
        },
    },
}


class CheckReport(NamedTuple):
    name: str
    status: str
    detail: str
    elapsed_ms: float

    @property
    def ok(self) -> bool:
        return self.status == "pass"


def compare_routes(seqs: Mapping[str, Sequence[int]], offset: int = 1) -> tuple[bool, str]:
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
                return False, (f"{names[0]} vs {other} first differ at n={offset + i}: "
                               f"{_term_text(base[i])} != {_term_text(o[i])}")
    spans = ", ".join(f"{k} to n={offset + len(seqs[k]) - 1}" for k in names)
    return True, f"routes agree ({spans})"


Outcome = tuple[bool, str]


def _routes_agree(family: str, borrowed: tuple[str, ...], brute: int, n: int, seed: int) -> Outcome:
    picks = [(family, r, r) for r in FAMILIES[family]["routes"]]
    picks += [(*key.split(":"), key) for key in borrowed]
    seqs = {}
    for fam, route, label in picks:
        size = brute if route == "brute" else n
        seqs[label] = got = FAMILIES[fam]["routes"][route](size)
        if len(got) != size - FAMILIES[fam]["offset"] + 1:
            return False, f"route {label} returned {len(got)} terms for n up to {size}"
    return compare_routes(seqs, offset=FAMILIES[family]["offset"])


def _chk_census(top: int, seed: int) -> Outcome:
    pairs = (("semi", "semi"), ("plane", "semi"), ("baxter", "bax"), ("twisted", "tbax"),
             ("strong", "strong"))
    for cls_name, rule_name in pairs:
        levels = islice(rules.levels(rules.RULES[rule_name]), top)
        for n, (want, got) in enumerate(zip(levels, perms.censuses(perms.CLASSES[cls_name])), 1):
            if cls_name == "plane":  # the semi rule counts plane's labels with h and k swapped
                got = {(k, h): c for (h, k), c in got.items()}
            if got != want:
                label = min(lb for lb in got.keys() | want.keys() if got.get(lb) != want.get(lb))
                return False, (
                    f"class {cls_name} census vs rule {rule_name} distribution "
                    f"differ at n={n}, label {label}"
                )
    return True, f"{len(pairs)} class/rule label censuses agree for n<={top}"


def _chk_invseq_labels(top: int, seed: int) -> Outcome:
    semi = rules.RULES["semi"]
    stack = [invseq.ROOT]
    seen = 0
    while stack:
        state = stack.pop()
        kids = invseq.children(state)
        want = rules.productions(semi, invseq.growth_label(state))
        if sorted(map(invseq.growth_label, kids)) != sorted(want):
            return False, ("extension labels vs rule-semi productions differ at "
                           f"(n, top, bottom)={state}")
        seen += 1
        if state[0] + 1 < top:
            stack += kids
    return True, f"growth labels match the semi rule on {seen} avoiders (sizes < {top})"


def series_extraction(order: int) -> Outcome:
    """The a^0 column of F against the semi-Baxter recurrence, n = 1..order."""
    f = series.build_F(order)
    want = formulas.sb_table(order)[1:]
    for n in range(1, order + 1):
        got = f.coeff_x(n).coeff(0, 0)
        if got != want[n - 1]:
            return False, f"extraction vs recurrence at n={n}: {got} != {want[n - 1]}"
    return True, f"a^0 column matches the recurrence for n=1..{order}"


def series_nonneg_part(order: int) -> Outcome:
    """Nonnegative part of F against the semi labels evaluated at 1+a."""
    lhs = series.omega_geq(series.build_F(order))
    rhs = series.LabelSeries(rules.RULES["semi"], order).series_in_one_plus_a()
    for n in range(1, order + 1):
        if lhs.coeff_x(n) != rhs.coeff_x(n):
            e, _ = min((lhs.coeff_x(n) - rhs.coeff_x(n)).c)
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


def series_reduced(points: Sequence[tuple[Fraction, int]]) -> Outcome:
    """Both reduced identities at each rational point a0 to its order."""
    details, ok = [], True
    for a0, order in points:
        rep = series.verify_reduced_identity(a0, order)
        num, den = a0.numerator, a0.denominator
        name = _term_text(num) + (f"/{_term_text(den)}" if den != 1 else "")
        ok = ok and rep["ok"]
        details.append(f"both identities hold at a0={name} to order {order}" if rep["ok"] else (
            f"at a0={name}: F-vs-P first fail {rep['f_first_fail']}, "
            f"sum identity first fail {rep['sum_first_fail']}"))
    return ok, "; ".join(details)


def series_kernel(group: str, trials: int, seed: int) -> Outcome:
    """Kernel invariance and orbit sizes of `group` at random points."""
    rep = series.kernel_invariance(group, trials, seed=seed)
    return rep["ok"], (
        f"{group}: invariant={rep['invariant_ok']} "
        f"orbits={rep['orbit_sizes']} redraws={rep['redraws']}"
    )


def _chk_lagrange(kmax: int, seed: int) -> Outcome:
    w = series.solve_W(kmax)
    w2 = w * w
    powers = {1: w, 2: w2, 3: w2 * w}
    for i in (1, 2, 3):
        for k in range(1, kmax + 1):
            for s in range(-6, 2 * k + 1):
                if series.lagrange_coeff(s, k, i) != powers[i].coeff_x(k).coeff(s, 0):
                    return False, (
                        f"inversion formula vs series extraction differ at "
                        f"(s,k,i)=({s},{k},{i})"
                    )
    return True, f"coefficient grid agrees for i<=3, k<={kmax}, -6<=s<=2k"


def _chk_walk_equation(order: int, seed: int) -> Outcome:
    return _residual_verdict(
        walks.residual_walk_equation(order),
        "walk tables vs cleared equation: residual {} at (n, adeg, bdeg)={}",
        f"walk equation residual is 0 through t^{order}",
    )


def _chk_w2(n: int, n_origin: int, seed: int) -> Outcome:
    for size, only, what in ((n, False, "tables vs binomial transform of five-step tables"),
                             (n_origin, True, "excursions vs transformed five-step excursions")):
        rep = walks.w2_consistency(size, origin_only=only)
        if not rep["ok"]:
            return False, f"seven-step {what} differ at n={rep['first_fail']}"
    return True, f"transform matches tables to n={n} and excursions to n={n_origin}"


def _chk_refinement(n: int, seed: int) -> Outcome:
    return _residual_verdict(
        walks.strong_refinement_residual(n),
        "rule-strong labels vs walk endpoint tables: residual {} at (n, adeg, bdeg)={}",
        f"refined label/endpoint match holds for n<={n}",
    )


def _chk_growth(n: int, seed: int) -> Outcome:
    # SEVEN is FIVE plus two pauses; walks-w2-transform checks that identity on the DP
    e5, e7 = walks._fit_terms(walks.FIVE, n, (0, 2))
    r5, r7 = walks.fit_growth(walks.FIVE, e5), walks.fit_growth(walks.SEVEN, e7)
    ok = r5["rel_err"] < 0.02 and r7["rel_err"] < 0.02
    detail = (
        f"five rho_hat={r5['rho_hat']:.6f} (err {r5['rel_err']:.1e}), "
        f"seven rho_hat={r7['rho_hat']:.6f} (err {r7['rel_err']:.1e}) at n={n}"
    )
    return ok, detail if ok else "estimate vs minimal-polynomial root: " + detail


def _chk_asymptotics(n: int, amp_tol: float, seed: int) -> Outcome:
    rep = formulas.asymptotic_check(n)
    dev = abs(rep["corrected_ratio"] - rep["target_mu"]) / rep["target_mu"]
    amp = abs(rep["n6_scaled"] - rep["target_A"]) / rep["target_A"]
    ok = dev < 1e-3 and amp < amp_tol
    detail = (
        f"corrected ratio {rep['corrected_ratio']:.7f} vs mu {rep['target_mu']:.7f} "
        f"(rel dev {dev:.1e}); plain ratio {rep['ratio']:.7f} drifts like 6/n; "
        f"amplitude {rep['n6_scaled']:.3f} vs {rep['target_A']:.3f} at n={rep['n']}"
    )
    return ok, detail if ok else "recurrence asymptotics vs constants: " + detail


def _chk_rule_dsl(n_max: int, seed: int) -> Outcome:
    for name, rule in rules.RULES.items():
        if rule.axiom != (1, 1):
            return False, f"{name} axiom is {rule.axiom}, not (1, 1)"
        for n, (dist, fast) in enumerate(pairwise(islice(rules.levels(rule), n_max)), 2):
            slow = rules.expand_level(rule, dist)
            if fast != slow:
                label = min(lb for lb in fast.keys() | slow.keys() if fast.get(lb) != slow.get(lb))
                return False, (f"{name} interval-sum level vs node expansion differ at "
                               f"n={n}, label {label}")
    return True, (f"all {len(rules.RULES)} rules: interval-sum levels match node "
                  f"expansion for n<={n_max}")


_SUITES = ("quick", "full")
# check name -> (check, quick sizes, full sizes); run_suite calls
# check(*sizes, seed).  A route check's sizes are (brute, n): its
# brute-force routes run to `brute` and its other routes to `n`.
_REGISTRY: dict[str, tuple[Callable[..., Outcome], tuple, tuple]] = {
    "apery-closed-vs-recurrence": (partial(_routes_agree, "apery", ()), (8, 30), (10, 30)),
    "baxter-five-routes": (partial(_routes_agree, "baxter", ()), (8, 12), (10, 12)),
    "catalan-three-routes": (partial(_routes_agree, "av231", ()), (8, 14), (10, 14)),
    "census-labels-vs-rules": (_chk_census, (5,), (7,)),
    "conjecture-exp1423-vs-sb": (
        partial(_routes_agree, "exp1423", ("sb:recurrence",)), (8, 8), (10, 10)),
    "invseq-growth-labels": (_chk_invseq_labels, (6,), (7,)),
    "invseq-three-routes": (
        partial(_routes_agree, "invseq", ("sb:recurrence",)), (8, 13), (10, 13)),
    "kernel-semi": (partial(series_kernel, "semi"), (3,), (5,)),
    "kernel-strong": (partial(series_kernel, "strong"), (2,), (5,)),
    "lagrange-vs-series": (_chk_lagrange, (8,), (12,)),
    "numbers-asymptotics": (_chk_asymptotics, (500, 0.05), (2000, 0.02)),
    "plane-vs-semi": (partial(_routes_agree, "plane", ()), (8, 8), (10, 10)),
    "rules-dsl-mirrors": (_chk_rule_dsl, (10,), (10,)),
    "semi-all-routes": (partial(_routes_agree, "sb", ()), (8, 13), (10, 13)),
    "series-extraction-vs-recurrence": (
        lambda order, seed: series_extraction(order), (12,), (20,)),
    "series-reduced-identity": (lambda points, seed: series_reduced(points),
                                (((Fraction(3, 2), 10),),),
                                (((Fraction(3, 2), 12), (Fraction(2), 12)),)),
    "series-residual-semi": (lambda order, seed: series_residual("semi", order), (10,), (10,)),
    "series-residual-strong": (
        lambda order, seed: series_residual("strong", order), (10,), (10,)),
    "series-theorem-nonneg-part": (lambda order, seed: series_nonneg_part(order), (10,), (15,)),
    "strong-three-routes": (partial(_routes_agree, "strong", ()), (8, 13), (10, 13)),
    "twisted-vs-baxter": (partial(_routes_agree, "twisted", ("baxter:closed",)), (8, 12), (10, 12)),
    "walks-equation-residual": (_chk_walk_equation, (8,), (10,)),
    "walks-growth-constants": (_chk_growth, (100,), (300,)),
    "walks-refinement": (_chk_refinement, (10,), (10,)),
    "walks-w2-transform": (_chk_w2, (8, 12), (10, 20)),
}


def run_suite(suite: str = "quick", seed: int = 0) -> list[CheckReport]:
    """Run every registered check at the suite's sizes; reports in registry
    order, by name.

    A check that raises is reported as failing with the exception text.
    """
    if suite not in _SUITES:
        raise ValueError(f"unknown suite {suite!r} (known: {', '.join(_SUITES)})")
    column = _SUITES.index(suite)
    reports = []
    for name, (fn, *sizes) in _REGISTRY.items():
        t0 = time.perf_counter()
        try:
            ok, detail = fn(*sizes[column], seed)
        except Exception as exc:
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        elapsed = (time.perf_counter() - t0) * 1000.0
        reports.append(CheckReport(name, "pass" if ok else "fail", detail, elapsed))
    return reports
