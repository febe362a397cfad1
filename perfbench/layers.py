"""Which baxterlab functions the traced run wraps, and the per-layer metrics.

Layers are the modules of ``src/baxterlab``.  Every engine function that
``cli`` calls directly is wrapped, so that ``cli.self_s`` (the self time of
``cli.main``) is parsing, formatting and printing only.  Hot private
helpers (``perms._forbidden_mask``, ``formulas.binom``, ``LaurentPoly``
operators) are not wrapped: their per-call cost would swamp the layer.

Work counters are read from outside the program: from return values, from
the arguments of a call, from a replay of the rule level steps after the
traced pass, and from the bytes the CLI printed.  Every ratio is reported
next to its base.
"""

from __future__ import annotations

from collections import defaultdict

from baxterlab import rules

from tracer import Span, Target, Tracer, self_times


def _nodes(tr: Tracer, args, kwargs, counts) -> None:
    # the DFS computes a forbidden mask for every node below the last level
    tr.add("perms.nodes", sum(counts[:-1]))


def _leaves(tr: Tracer, args, kwargs, census) -> None:
    tr.add("perms.census_leaves", sum(census.values()))


def _level(tr: Tracer, args, kwargs, result) -> None:
    tr.record("rules.next_level", (args[0], args[1]))


def grid_cells(n_max: int) -> int:
    """Cells the clipped excursion DP updates, by the rule in walks.excursions."""
    return sum((min(t + 1, n_max - t - 1) + 1) ** 2 for t in range(n_max))


def _cells(tr: Tracer, args, kwargs, result) -> None:
    n_max = args[1] if len(args) > 1 else kwargs["n_max"]
    tr.add("walks.grid_cells", grid_cells(n_max))


def _bits(tr: Tracer, args, kwargs, result) -> None:
    if isinstance(result, int):
        tr.maximum("formulas.max_bits", abs(result).bit_length())
    elif isinstance(result, list) and result and isinstance(result[0], int):
        tr.maximum("formulas.max_bits", max(abs(v).bit_length() for v in result))


def _elapsed(tr: Tracer, args, kwargs, reports) -> None:
    tr.add("checks.elapsed_s", sum(r.elapsed_ms for r in reports) / 1000.0)


_FORMULAS = (
    "catalan", "sb_table", "sb_recurrence", "sb_sum_formula", "sb_simple_formula",
    "sb_via_apery", "apery_closed", "apery_recurrence", "baxter_closed",
    "baxter_recurrence", "asymptotic_check",
)


def targets() -> list[Target]:
    t = [
        Target("cli.main", "baxterlab.cli", "main"),
        Target("checks.run_suite", "baxterlab.checks", "run_suite", _elapsed),
        Target("perms.enumerate_class", "baxterlab.perms", "enumerate_class", _nodes),
        Target("perms.label_census", "baxterlab.perms", "label_census", _leaves),
        Target("rules.next_level", "baxterlab.rules", "next_level", _level),
        Target("rules.distribution", "baxterlab.rules", "distribution"),
        Target("rules.count_sequence", "baxterlab.rules", "count_sequence"),
    ]
    t += [Target(f"formulas.{f}", "baxterlab.formulas", f, _bits) for f in _FORMULAS]
    t += [Target(f"invseq.{f}", "baxterlab.invseq", f)
          for f in ("q_table", "total_via_formula", "count_avoiders_bruteforce")]
    t += [Target(f"series.{f}", "baxterlab.series", f)
          for f in ("solve_W", "build_F", "omega_geq", "lagrange_coeff", "residual_semi",
                    "residual_strong", "verify_reduced_identity", "kernel_invariance")]
    t += [
        Target("series.XSeries.mul", "baxterlab.series:XSeries", "__mul__"),
        Target("series.LabelSeries", "baxterlab.series:LabelSeries", "__init__"),
        Target("series.LabelSeries.series_in_one_plus_a", "baxterlab.series:LabelSeries",
               "series_in_one_plus_a"),
        Target("walks.excursions", "baxterlab.walks", "excursions", _cells),
    ]
    t += [Target(f"walks.{f}", "baxterlab.walks", f)
          for f in ("count_walks", "strong_from_walks", "growth_estimate",
                    "residual_walk_equation", "w2_consistency", "strong_refinement_residual")]
    return t


def replay_levels(levels: list) -> tuple[int, int]:
    """Labels and productions of the recorded rule level steps, untimed."""
    labels = productions = 0
    for rule, dist in levels:
        labels += len(dist)
        productions += sum(len(rules.productions(rule, label)) for label in dist)
    return labels, productions


# name -> (unit, better); the order is the order of BENCHMARK.json.
METRICS = {
    "perms.enumerate_class.self_s": ("s", "lower"),
    "perms.nodes": ("count", "lower"),
    "perms.us_per_node": ("us", "lower"),
    "perms.label_census.self_s": ("s", "lower"),
    "perms.census_leaves": ("count", "lower"),
    "checks.run_suite.wall_s": ("s", "lower"),
    "checks.elapsed_sum_over_wall": ("ratio", "lower"),
    "checks.span_sum_over_wall": ("ratio", "lower"),
    "rules.next_level.self_s": ("s", "lower"),
    "rules.next_level.calls": ("count", "lower"),
    "rules.labels": ("count", "lower"),
    "rules.productions": ("count", "lower"),
    "rules.ns_per_production": ("ns", "lower"),
    "rules.distribution.self_s": ("s", "lower"),
    "walks.excursions.self_s": ("s", "lower"),
    "walks.grid_cells": ("count", "lower"),
    "walks.ns_per_cell": ("ns", "lower"),
    "walks.count_walks.self_s": ("s", "lower"),
    "formulas.self_s": ("s", "lower"),
    "formulas.max_bits": ("bits", "lower"),
    "invseq.q_table.self_s": ("s", "lower"),
    "invseq.q_table.calls": ("count", "lower"),
    "series.solve_W.self_s": ("s", "lower"),
    "series.XSeries.mul.calls": ("count", "lower"),
    "series.XSeries.mul.self_s": ("s", "lower"),
    "series.verify_reduced_identity.self_s": ("s", "lower"),
    "series.kernel_invariance.self_s": ("s", "lower"),
    "series.residual.self_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.bytes_out": ("bytes", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def _per(num: float, base: float, scale: float) -> float:
    return num / base * scale if base else 0.0


def per_layer(spans: list[Span], counters: dict, labels: int, productions: int,
              bytes_out: int, main_thread: int, overhead_s: float) -> dict[str, float]:
    """The per-layer metrics of one traced pass, by name."""
    own = self_times(spans)
    self_s: dict[str, float] = defaultdict(float)
    wall: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    pool_spans = 0.0
    for s in spans:
        self_s[s.name] += own[s.sid]
        wall[s.name] += s.t1 - s.t0
        calls[s.name] += 1
        if s.parent is None and s.thread != main_thread:
            pool_spans += s.t1 - s.t0
    suite = wall["checks.run_suite"]
    nodes, cells = counters["perms.nodes"], counters["walks.grid_cells"]
    return {
        "perms.enumerate_class.self_s": self_s["perms.enumerate_class"],
        "perms.nodes": int(nodes),
        "perms.us_per_node": _per(self_s["perms.enumerate_class"], nodes, 1e6),
        "perms.label_census.self_s": self_s["perms.label_census"],
        "perms.census_leaves": int(counters["perms.census_leaves"]),
        "checks.run_suite.wall_s": suite,
        "checks.elapsed_sum_over_wall": _per(counters["checks.elapsed_s"], suite, 1.0),
        "checks.span_sum_over_wall": _per(pool_spans, suite, 1.0),
        "rules.next_level.self_s": self_s["rules.next_level"],
        "rules.next_level.calls": calls["rules.next_level"],
        "rules.labels": labels,
        "rules.productions": productions,
        "rules.ns_per_production": _per(self_s["rules.next_level"], productions, 1e9),
        "rules.distribution.self_s": self_s["rules.distribution"],
        "walks.excursions.self_s": self_s["walks.excursions"],
        "walks.grid_cells": int(cells),
        "walks.ns_per_cell": _per(self_s["walks.excursions"], cells, 1e9),
        "walks.count_walks.self_s": self_s["walks.count_walks"],
        "formulas.self_s": sum(v for k, v in self_s.items() if k.startswith("formulas.")),
        "formulas.max_bits": int(counters["formulas.max_bits"]),
        "invseq.q_table.self_s": self_s["invseq.q_table"],
        "invseq.q_table.calls": calls["invseq.q_table"],
        "series.solve_W.self_s": self_s["series.solve_W"],
        "series.XSeries.mul.calls": calls["series.XSeries.mul"],
        "series.XSeries.mul.self_s": self_s["series.XSeries.mul"],
        "series.verify_reduced_identity.self_s": self_s["series.verify_reduced_identity"],
        "series.kernel_invariance.self_s": self_s["series.kernel_invariance"],
        "series.residual.self_s": self_s["series.residual_semi"] + self_s["series.residual_strong"],
        "cli.self_s": self_s["cli.main"],
        "cli.bytes_out": bytes_out,
        "trace.overhead_s": overhead_s,
    }
