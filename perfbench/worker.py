"""One workload run, in a process of its own so that its peak RSS is its own.

A single simulated user issues the workload's requests one after another
(a closed loop) by calling ``baxterlab.cli.main(argv)``; this module starts
no threads.  Each request's stdout streams into a counting, hashing sink,
so that the program's memory is what ``peak_rss_mb`` measures, and is then
checked against its reference (see ``workloads.py``).

Untraced, the worker makes ``workloads.planned_passes`` passes over the
request list, enough to fill ``--seconds`` at reference speed, and reports
a median pass, with times taken to reference machine speed by
``calibrate.py``; the summary line also prints them as measured.  The pass
count does not depend on how fast the passes run, so two runs with one
seed attempt the same requests and fail the same ones.
Traced, it makes one untraced pass, then one pass with the tracer's
wrappers installed, and restores them before it computes anything.

The result is one JSON object on stdout; ``run.py`` prints the final line.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import resource
import statistics
import sys
import threading
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

from baxterlab import cli

import calibrate
import layers
import references
import workloads
from tracer import Tracer


END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
GUARD = 4  # no pass starts after GUARD * --seconds


class Sink(io.TextIOBase):
    """A stdout stand-in that counts and hashes what is written."""

    def __init__(self, keep: bool = False) -> None:
        self.bytes = 0
        self._hash = hashlib.sha256()
        self._kept: list[str] | None = [] if keep else None

    def writable(self) -> bool:
        return True

    def write(self, s: str) -> int:
        data = s.encode()
        self.bytes += len(data)
        self._hash.update(data)
        if self._kept is not None:
            self._kept.append(s)
        return len(s)

    def hexdigest(self) -> str:
        return self._hash.hexdigest()

    def text(self) -> str:
        return "".join(self._kept or ())


class Outcome(NamedTuple):
    request: workloads.Request
    problem: str | None
    bytes_out: int
    wall_s: float
    cpu_s: float
    scale: float  # to reference speed, from the probes around and during the request


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def _call(req: workloads.Request) -> tuple[object, str | None, Sink]:
    out = Sink(keep=req.verify != "digest")
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, Sink()
    try:
        rc, exc = cli.main(list(req.argv)), None
    except SystemExit as e:
        rc, exc = e.code, None
    except Exception as e:
        rc, exc = None, f"raised {type(e).__name__}: {e}"
    finally:
        sys.stdout, sys.stderr = saved
    return rc, exc, out


def _problem(req: workloads.Request, rc, exc: str | None, out: Sink, refs: dict) -> str | None:
    if exc is not None:
        return exc
    if req.verify == "check-suite":
        return workloads.check_suite_problem(rc, out.text(), req.argv)
    if req.verify == "kernel":
        return workloads.kernel_problem(rc, out.text(), req.argv)
    if rc != 0:
        return f"exit code {rc}"
    ref = refs[req.key]
    if (out.bytes, out.hexdigest()) != (ref["bytes"], ref["sha256"]):
        return f"stdout differs from reference ({out.bytes} bytes, want {ref['bytes']})"
    return None


def run_pass(reqs: list[workloads.Request], refs: dict,
             tracer: Tracer | None = None) -> list[Outcome]:
    raw = []
    with calibrate.Sampler() as sampler:
        marks = [sampler.mark()]
        for i, req in enumerate(reqs):
            if tracer is not None:
                tracer.request = i
            cpu0, t0 = _cpu_s(), perf_counter()
            rc, exc, out = _call(req)
            raw.append((rc, exc, out, perf_counter() - t0, _cpu_s() - cpu0))
            marks.append(sampler.mark())
    return [Outcome(req, _problem(req, rc, exc, out, refs), out.bytes, w, c,
                    sampler.scale(marks[i], marks[i + 1]))
            for i, (req, (rc, exc, out, w, c)) in enumerate(zip(reqs, raw))]


def _median_pass(passes: list[list[Outcome]], field: str, scaled: bool = True) -> float:
    """Sum over requests of the request's median over passes.

    A burst of load elsewhere on the machine slows the requests it overlaps
    in one pass; a per-request median drops it where a median of pass
    totals would keep part of it.
    """
    def value(o: Outcome) -> float:
        return getattr(o, field) * (o.scale if scaled else 1.0)

    return sum(statistics.median(value(p[i]) for p in passes) for i in range(len(passes[0])))


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False, spans_out: Path | None = None) -> dict:
    """Run one workload and return its result object (see module docstring)."""
    reqs = workloads.requests(workload, seed, smoke)
    refs = references.load()
    planned = 1 if trace else workloads.planned_passes(workload, seconds)
    start = perf_counter()
    passes = [run_pass(reqs, refs)]
    # The guard only keeps a run on a badly overloaded host within the
    # time limit of a run; at up to 4x slowdown every planned pass runs.
    while len(passes) < planned and perf_counter() - start < GUARD * seconds:
        passes.append(run_pass(reqs, refs))
    if trace:
        tracer = Tracer()
        tracer.install(layers.targets())
        try:
            traced = run_pass(reqs, refs, tracer)
        finally:
            tracer.restore()
        passes.append(traced)
    outcomes = [o for p in passes for o in p]
    failed = [o for o in outcomes if o.problem is not None]
    result = {
        "correct": all(workloads.known_defect(o.problem) for o in failed),
        "attempted": len(outcomes),
        "failed": len(failed),
        "passes": len(passes),
        "failures": sorted({f"{o.request.key}: {o.problem}" for o in failed}),
    }
    if trace:
        labels, productions = layers.replay_levels(tracer.records["rules.next_level"])
        result["metrics"] = layers.per_layer(
            tracer.spans, tracer.counters, labels, productions,
            bytes_out=sum(o.bytes_out for o in traced),
            main_thread=threading.main_thread().ident,
            overhead_s=_median_pass([traced], "wall_s") - _median_pass(passes[:1], "wall_s"),
        )
        if spans_out is not None:
            tracer.dump(spans_out)
    else:
        result["metrics"] = {
            "wall_s": _median_pass(passes, "wall_s"),
            "cpu_s": _median_pass(passes, "cpu_s"),
            "peak_rss_mb": peak_rss_mb(),
        }
        result["measured"] = {
            "wall_s": _median_pass(passes, "wall_s", scaled=False),
            "cpu_s": _median_pass(passes, "cpu_s", scaled=False),
        }
    return result


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--spans-out", type=Path, default=None)
    args = p.parse_args(argv)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                          spans_out=args.spans_out)
    units = {n: u for n, (u, _) in layers.METRICS.items()} if args.trace else END_TO_END
    result["units"] = {name: units[name] for name in result["metrics"]}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
