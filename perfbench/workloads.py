"""The benchmark's workloads: fixed request lists for ``baxterlab.cli.main``.

Each request is one CLI invocation.  Its stdout is checked in one of three
ways:

* ``digest``: sha256 and byte count of stdout must match the entry for the
  request's argv in ``references.json`` (see ``references.py`` for where
  each reference comes from);
* ``check-suite``: the JSON report of ``check`` must pass every check of
  the frozen registry below;
* ``kernel``: the two verdict lines of ``series --check kernel`` must pass
  with the orbit sizes theory predicts; the redraw count depends on the
  seed and is not checked.

A failure whose description starts with a key of ``KNOWN_DEFECTS`` is a
defect of the program this benchmark was defined against.  It still
counts as a failed request; it only does not make the run incorrect, so
the defect stays visible in ``failed`` until it is fixed.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass

WORKLOADS = ("check-full", "terms-deep", "series-deep")

# Seconds one full-size pass takes at the reference speed of calibrate.py,
# rounded from the medians in BASELINE.json.  A run makes a fixed number of
# passes, so that one seed always attempts the same requests: the kernel
# defect below fails on some seeds only, and a time-limited loop would make
# the failure count of a seed depend on how fast its passes ran.
PASS_S = {"check-full": 21.0, "terms-deep": 9.1, "series-deep": 4.6}


def planned_passes(workload: str, seconds: float) -> int:
    """Passes of an untraced run: enough for ``seconds`` at reference speed."""
    return max(1, math.ceil(seconds / PASS_S[workload]))

# The registry of ``baxterlab check``; every refactor must keep these names.
CHECK_NAMES = (
    "apery-closed-vs-recurrence",
    "baxter-five-routes",
    "catalan-three-routes",
    "census-labels-vs-rules",
    "conjecture-exp1423-vs-sb",
    "invseq-growth-labels",
    "invseq-three-routes",
    "kernel-semi",
    "kernel-strong",
    "lagrange-vs-series",
    "numbers-asymptotics",
    "plane-vs-semi",
    "rules-dsl-mirrors",
    "semi-all-routes",
    "series-extraction-vs-recurrence",
    "series-reduced-identity",
    "series-residual-semi",
    "series-residual-strong",
    "series-theorem-nonneg-part",
    "strong-three-routes",
    "twisted-vs-baxter",
    "walks-equation-residual",
    "walks-growth-constants",
    "walks-refinement",
    "walks-w2-transform",
)

DEGENERATE_ORBIT = "degenerate semi kernel orbit"

KNOWN_DEFECTS = {
    # SB_n has more than 4300 digits from n = 4464 on (ROADMAP item 5).
    "raised ValueError: Exceeds the limit (4300 digits) for integer string conversion":
        "seq prints terms through CPython's int->str limit and dies",
    # A false failure of the check, not of the series: with 40 trials, 32 of
    # the seeds 0..199 draw such a point; with the 5 of the full suite, 4 of
    # the seeds 0..399 do.
    DEGENERATE_ORBIT:
        "series.kernel_invariance wants every semi orbit to have exactly 10 points, "
        "but points with a nontrivial stabiliser have 5",
}


def known_defect(problem: str) -> str | None:
    """The KNOWN_DEFECTS key a failure description matches, if any."""
    return next((key for key in KNOWN_DEFECTS if problem.startswith(key)), None)


@dataclass(frozen=True)
class Request:
    argv: tuple[str, ...]
    verify: str = "digest"

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def _seq(family: str, route: str, n: int, fmt: str = "plain") -> tuple[str, ...]:
    argv = ("seq", "--family", family, "--route", route, "--n-max", str(n))
    return argv + ("--format", fmt) if fmt != "plain" else argv


def _series(check: str, order: int, *extra: str) -> tuple[str, ...]:
    return ("series", "--check", check, "--order", str(order)) + extra


# Full sizes and the reduced sizes of the smoke mode the benchmark's own
# tests use.  Smoke mode never feeds a reported metric.
_SIZES = {
    False: {"rule": 80, "walks": 300, "growth": 300, "invseq": 40, "sb_a": 300,
            "closed": 400, "ollerton": 4000, "sb_rec": 5000, "order": 30,
            "omega": 25, "deep": 40, "trials": 40},
    True: {"rule": 20, "walks": 40, "growth": 50, "invseq": 10, "sb_a": 40,
           "closed": 40, "ollerton": 200, "sb_rec": 300, "order": 8,
           "omega": 8, "deep": 8, "trials": 3},
}


def requests(workload: str, seed: int, smoke: bool = False) -> list[Request]:
    """The request list of one pass over ``workload``."""
    z = _SIZES[smoke]
    if workload == "check-full":
        suite = "quick" if smoke else "full"
        argv = ("check", "--suite", suite, "--format", "json", "--seed", str(seed))
        return [Request(argv, verify="check-suite")]
    if workload == "terms-deep":
        reqs = [Request(_seq(f, "rule", z["rule"]))
                for f in ("sb", "baxter", "twisted", "strong")]
        reqs += [
            Request(_seq("strong", "walks", z["walks"])),
            Request(("walks", "--steps", "five", "--n-max", str(z["growth"]),
                     "--estimate-growth")),
            Request(_seq("sb", "invseq", z["invseq"])),
            Request(_seq("sb", "a", z["sb_a"])),
            Request(_seq("baxter", "closed", z["closed"])),
            Request(_seq("baxter", "ollerton", z["ollerton"], "bfile")),
            Request(_seq("sb", "recurrence", z["sb_rec"], "bfile")),
        ]
        return reqs
    if workload == "series-deep":
        deep = str(z["deep"])
        return [
            Request(_series("W", z["order"])),
            Request(_series("F", z["order"])),
            Request(_series("omega", z["omega"])),
            Request(_series("residual-semi", z["deep"])),
            Request(_series("residual-strong", z["deep"])),
            Request(("series", "--check", "reduced", "--order", deep, "--a0=3/2")),
            Request(("series", "--check", "reduced", "--order", deep, "--a0=-2/3")),
            Request(("series", "--check", "kernel", "--trials", str(z["trials"]),
                     "--seed", str(seed)), verify="kernel"),
        ]
    raise ValueError(f"unknown workload {workload!r} (known: {', '.join(WORKLOADS)})")


def _degenerate(sizes: list[int]) -> bool:
    """Orbit sizes of the order-10 semi group with some stabilised point."""
    return all(10 % v == 0 for v in sizes) and min(sizes) < 10


def check_suite_problem(rc: int, text: str, argv: tuple[str, ...]) -> str | None:
    """Why a ``check --format json`` run is wrong, or None if it passes."""
    try:
        rep = json.loads(text)
    except ValueError:
        return f"exit code {rc}, check report is not JSON"
    names = tuple(r.get("name") for r in rep.get("reports", ()))
    if names != CHECK_NAMES:
        return f"check names differ from the registry: {names}"
    bad = {r["name"]: r["detail"] for r in rep["reports"] if r.get("status") != "pass"}
    suite, seed = argv[argv.index("--suite") + 1], int(argv[argv.index("--seed") + 1])
    if (rep.get("suite"), rep.get("seed"), rep.get("passed"), rep.get("failed"), rc) != (
        suite, seed, len(CHECK_NAMES) - len(bad), len(bad), 1 if bad else 0
    ):
        return "check summary fields or exit code are wrong"
    if not bad:
        return None
    detail = bad.get("kernel-semi", "")
    sizes = re.search(r"'orbit_sizes': \[([0-9, ]+)\]", detail)
    if (list(bad) == ["kernel-semi"] and "'invariant_ok': True" in detail and sizes
            and _degenerate([int(v) for v in sizes.group(1).split(",")])):
        return f"{DEGENERATE_ORBIT}: kernel-semi {detail}"
    return f"checks failed: {', '.join(bad)}"


# Every trial reports orbit size 10 for the finite semi group and 101 ("open
# past 100") for the infinite strong group.
_KERNEL_LINE = re.compile(
    r"^(PASS|FAIL) (semi|strong): invariant=True orbits=\[([0-9, ]*)\] redraws=\d+$"
)


def kernel_problem(rc: int, text: str, argv: tuple[str, ...]) -> str | None:
    """Why a ``series --check kernel`` run is wrong, or None if it passes."""
    trials = int(argv[argv.index("--trials") + 1])
    verdicts = {}
    for line in text.splitlines():
        m = _KERNEL_LINE.match(line)
        if not m:
            return f"exit code {rc}, unexpected kernel line {line!r}"
        verdicts[m.group(2)] = (m.group(1), [int(v) for v in m.group(3).split(",")])
    if list(verdicts) != ["semi", "strong"] or verdicts["strong"] != ("PASS", [101] * trials):
        return f"exit code {rc}, unexpected kernel verdicts {text!r}"
    status, sizes = verdicts["semi"]
    if len(sizes) != trials or rc != (0 if status == "PASS" else 1):
        return f"exit code {rc}, unexpected kernel verdicts {text!r}"
    if status == "PASS" and sizes == [10] * trials:
        return None
    if status == "FAIL" and _degenerate(sizes):
        return f"{DEGENERATE_ORBIT}: semi orbit sizes {sizes}"
    return f"exit code {rc}, unexpected kernel verdicts {text!r}"
