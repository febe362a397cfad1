"""baxterlab benchmark: one command prints every metric and verifies every output.

Usage, from the repository root:

    python3 perfbench/run.py --workload terms-deep --seed 1 --seconds 20 --trace 0

With ``--trace 0`` it prints the end-to-end metrics of one workload:
``setup_s`` (median import time of ``baxterlab.cli`` over fresh
interpreters), and ``wall_s``, ``cpu_s`` and ``peak_rss_mb`` from a worker
process that runs the workload alone.  With ``--trace 1`` it
prints the per-layer metrics of a traced pass instead and writes the spans
to ``.perfbench_out/``.  The last line of stdout is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

It exits 2 without a result when the tree holds no baxterlab sources, and
1 when the worker fails or runs out of time.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402  (stdlib-only; importable without the sources)

# Every run must end within this many seconds, set-up included.
DEADLINE_S = 170.0
SETUP_SAMPLES = 21

# The speed probes run after the timed import, in the same interpreter, so
# that they see the same core and import nothing ahead of baxterlab.
_IMPORT_PROBE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "import baxterlab.cli\n"
    "elapsed = time.perf_counter() - t0\n"
    f"sys.path.append({str(HERE)!r})\n"
    "import calibrate\n"
    "print(repr(elapsed), repr(calibrate.scale_now()))\n"
)


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def setup_samples(count: int, deadline: float) -> list[tuple[float, float]]:
    """(measured, reference-speed) seconds to import baxterlab.cli, once in
    each of ``count`` fresh interpreters."""
    samples = []
    for _ in range(count):
        out = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE], cwd=ROOT, env=_env(),
            capture_output=True, text=True, check=True,
            timeout=max(1.0, deadline - monotonic()),
        )
        measured, scale = map(float, out.stdout.split())
        samples.append((measured, measured * scale))
    return samples


def run_worker(args: argparse.Namespace, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans = ROOT / ".perfbench_out" / f"{args.workload}-seed{args.seed}.spans.jsonl"
        cmd += ["--spans-out", str(spans)]
    out = subprocess.run(cmd, cwd=ROOT, env=_env(), capture_output=True, text=True,
                         check=True, timeout=max(1.0, deadline - monotonic()))
    return json.loads(out.stdout.splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    deadline = monotonic() + DEADLINE_S
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "baxterlab" / "cli.py").is_file():
        print(f"error: no baxterlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.trace:
            setup = []
        else:
            # The first import may write bytecode caches and is not counted.  Half
            # the samples are taken after the worker, so that a burst of load on
            # the machine does not skew them all.
            setup = setup_samples(1 + SETUP_SAMPLES // 2, deadline)[1:]
        result = run_worker(args, deadline)
        if not args.trace:
            setup += setup_samples(SETUP_SAMPLES - len(setup), deadline)
    except subprocess.CalledProcessError as exc:
        print(f"error: {exc}\n{exc.stderr}", file=sys.stderr)
        return 1
    except subprocess.TimeoutExpired as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    metrics, units = result["metrics"], result["units"]
    if setup:
        metrics = {"setup_s": statistics.median(v for _, v in setup), **metrics}
        units = {"setup_s": "s", **units}
        result["measured"]["setup_s"] = statistics.median(v for v, _ in setup)
    print(f"workload {args.workload}, seed {args.seed}: {result['passes']} passes, "
          f"{result['attempted']} requests, {result['failed']} failed "
          f"(fail_frac {result['failed'] / result['attempted']:.4g})")
    for failure in result["failures"]:
        print(f"  failed: {failure}")
    measured = result.get("measured", {})
    for name, value in metrics.items():
        note = f" (measured {measured[name]:.6g})" if name in measured else ""
        print(f"  {name} = {value:.6g} {units[name]}{note}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
