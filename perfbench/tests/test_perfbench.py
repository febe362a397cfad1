"""Tests of the benchmark itself.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q perfbench/tests

``test_reference_digests_full_size`` makes one full pass over every
workload (about 40 s on 2 cores); the rest use the reduced smoke sizes.
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import threading
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import layers  # noqa: E402
import references  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from baxterlab import series  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402

COUNTERS = (
    "perms.nodes", "perms.census_leaves", "rules.next_level.calls", "rules.labels",
    "rules.productions", "walks.grid_cells", "formulas.max_bits", "invseq.q_table.calls",
    "series.XSeries.mul.calls", "cli.bytes_out",
)


def _bindings() -> dict[tuple[str, str], object]:
    out = {}
    for name, mod in list(sys.modules.items()):
        if mod is not None and name.startswith("baxterlab"):
            out.update({(name, k): v for k, v in vars(mod).items()})
    for cls in (series.XSeries, series.LabelSeries):
        out.update({(cls.__name__, k): v for k, v in vars(cls).items()})
    return out


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_pass_is_correct(workload):
    result = worker.run_workload(workload, seed=3, seconds=0, trace=False, smoke=True)
    assert result["failures"] == []
    assert (result["correct"], result["failed"]) == (True, 0)
    assert result["attempted"] == len(workloads.requests(workload, 3, smoke=True))
    assert set(result["metrics"]) == {"wall_s", "cpu_s", "peak_rss_mb"}


def test_pass_count_does_not_depend_on_speed():
    # Smoke passes run far faster than PASS_S; a time-limited loop would
    # make many more than the two planned.
    seconds = 2 * workloads.PASS_S["series-deep"]
    assert workloads.planned_passes("series-deep", seconds) == 2
    result = worker.run_workload("series-deep", seed=3, seconds=seconds, trace=False,
                                 smoke=True)
    assert (result["passes"], result["failed"]) == (2, 0)
    assert result["attempted"] == 2 * len(workloads.requests("series-deep", 3, smoke=True))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_restores_every_wrapper(workload):
    before = _bindings()
    alarm = signal.getsignal(signal.SIGALRM)
    result = worker.run_workload(workload, seed=3, seconds=0, trace=True, smoke=True)
    after = _bindings()
    assert signal.getsignal(signal.SIGALRM) is alarm
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert result["correct"]
    assert set(result["metrics"]) == set(layers.METRICS)
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []


def test_untraced_run_installs_no_wrapper(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("untraced run built a tracer")

    monkeypatch.setattr(worker, "Tracer", refuse)
    assert worker.run_workload("series-deep", seed=1, seconds=0, trace=False, smoke=True)["correct"]


def test_tracer_wraps_every_binding_site():
    from baxterlab import rules

    original = rules.next_level
    tracer = Tracer()
    tracer.install([t for t in layers.targets() if t.name == "rules.next_level"])
    try:
        assert rules.next_level is not original
        assert series.next_level is rules.next_level
    finally:
        tracer.restore()
    assert rules.next_level is original and series.next_level is original


def test_pool_spans_have_parents_on_their_own_thread():
    tracer = Tracer()
    tracer.install(layers.targets())
    try:
        reqs = workloads.requests("check-full", 0, smoke=True)
        worker.run_pass(reqs, references.load(), tracer)
    finally:
        tracer.restore()
    by_id = {s.sid: s for s in tracer.spans}
    threads = {s.thread for s in tracer.spans}
    assert threading.main_thread().ident in threads and len(threads) > 1
    assert all(by_id[s.parent].thread == s.thread for s in tracer.spans if s.parent)
    own = self_times(tracer.spans)
    assert all(own[s.sid] >= -1e-6 for s in tracer.spans)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_counters_repeat_exactly(workload):
    runs = [worker.run_workload(workload, seed=5, seconds=0, trace=True, smoke=True)
            for _ in range(2)]
    # the check report embeds elapsed_ms, so its length varies from run to run
    keys = [k for k in COUNTERS if not (workload == "check-full" and k == "cli.bytes_out")]
    first, second = ({k: r["metrics"][k] for k in keys} for r in runs)
    assert first == second
    assert all(r["metrics"]["cli.bytes_out"] > 0 for r in runs)


def test_grid_cells_follow_the_clipping_rule():
    # width at time t is min(t + 1, n_max - t - 1) + 1
    assert layers.grid_cells(3) == 2 ** 2 + 2 ** 2 + 1 ** 2
    assert layers.grid_cells(1) == 1


def test_smoke_references_rebuild_from_their_routes():
    refs = references.load()
    smoke = {r.key for w in workloads.WORKLOADS for r in workloads.requests(w, 0, smoke=True)}
    for req in references.digest_requests():
        if req.key in smoke:
            text, source = references.expected(req.argv)
            assert references.entry(text, source) == refs[req.key], req.key


def test_reference_digests_full_size():
    refs = references.load()
    for workload in workloads.WORKLOADS:
        done = worker.run_pass(workloads.requests(workload, seed=2), refs)
        failed = {o.request.key: workloads.known_defect(o.problem)
                  for o in done if o.problem is not None}
        if workload == "terms-deep":
            # the one documented failure of terms-deep, at full size
            key = "seq --family sb --route recurrence --n-max 5000 --format bfile"
            assert failed == {key: next(iter(workloads.KNOWN_DEFECTS))}
        else:
            assert failed == {}


def test_degenerate_kernel_orbit_is_a_known_defect():
    argv = ("series", "--check", "kernel", "--trials", "3", "--seed", "0")
    strong = "PASS strong: invariant=True orbits=[101, 101, 101] redraws=0\n"
    ok = "PASS semi: invariant=True orbits=[10, 10, 10] redraws=1\n" + strong
    degenerate = "FAIL semi: invariant=True orbits=[10, 5, 10] redraws=0\n" + strong
    broken = "FAIL semi: invariant=True orbits=[10, 7, 10] redraws=0\n" + strong
    assert workloads.kernel_problem(0, ok, argv) is None
    problem = workloads.kernel_problem(1, degenerate, argv)
    assert workloads.known_defect(problem) == workloads.DEGENERATE_ORBIT
    assert workloads.known_defect(workloads.kernel_problem(1, broken, argv)) is None
    assert workloads.known_defect(workloads.kernel_problem(0, degenerate, argv)) is None


def test_degenerate_kernel_orbit_in_the_suite_is_a_known_defect():
    argv = ("check", "--suite", "full", "--format", "json", "--seed", "118")
    reports = [{"name": n, "status": "pass", "detail": ""} for n in workloads.CHECK_NAMES]
    rep = {"suite": "full", "seed": 118, "passed": 24, "failed": 1, "reports": reports}
    semi = reports[workloads.CHECK_NAMES.index("kernel-semi")]
    semi.update(status="fail", detail="invariance or orbit defect: {'invariant_ok': True, "
                "'orbit_ok': False, 'orbit_sizes': [10, 10, 5, 10, 10], 'ok': False}")
    problem = workloads.check_suite_problem(1, json.dumps(rep), argv)
    assert workloads.known_defect(problem) == workloads.DEGENERATE_ORBIT
    semi["detail"] = semi["detail"].replace("'invariant_ok': True", "'invariant_ok': False")
    assert workloads.known_defect(workloads.check_suite_problem(1, json.dumps(rep), argv)) is None


def test_benchmark_json_lists_the_metrics_the_runs_print():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == {
        "setup_s": "s", **worker.END_TO_END}
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        (name, unit, better) for name, (unit, better) in layers.METRICS.items()]


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "terms-deep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
