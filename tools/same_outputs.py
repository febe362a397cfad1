"""Compare baxterlab's outputs in two source trees, request by request.

    python tools/same_outputs.py OLD_TREE NEW_TREE

Each tree is a checkout that holds ``src/baxterlab``.  Every request runs
as ``python -m baxterlab ARGV`` in a fresh interpreter with that tree's
``src`` on ``PYTHONPATH``, two requests at a time.  The tool prints each
request whose exit code or stdout sha256 differs between the trees, then a
summary line, and exits 1 when any request differs (2 on a usage error).

The requests are:

* every terms-deep and series-deep request of the benchmark, read from
  ``perfbench/workloads.requests`` of the tree this file sits in;
* ``check --suite quick|full --format json`` at seeds 0 and 1000, with
  every report's ``elapsed_ms`` removed, since wall times differ from run
  to run;
* ``series --check kernel --trials 40`` at seeds 0 to 20;
* ``series --check`` F at order 20, omega at order 15 and reduced at
  order 12 with a0 = 2: the full suite's own series sizes, which no
  benchmark request reaches;
* ``walks --estimate-growth`` in plain and json for FIVE and SEVEN at
  n_max 50, 100, 300 and 400, for FIVE at 440 and SEVEN at 364 (the
  largest n_max whose terms the narrow DP may read as doubles), and for
  one custom aperiodic step set (Kreweras' steps plus a pause) at n_max 120;
* ``walks --estimate-growth`` in plain for FIVE plus three pauses at
  n_max 100, whose target is FIVE's plus 3;
* ``walks --excursions`` (the exact DP, which re-packs as its slots widen)
  for FIVE and SEVEN at n_max 300 and for Kreweras' steps, a box-shaped
  grid, at n_max 120;
* ``seq --route brute`` for exp1423 at n_max 3, 4, 10 and 11, and for
  semi, plane, baxter, twisted, strong and av231 at n_max 10;
* ``seq --family sb`` on the ``sum`` and ``d`` routes at n_max 150, which
  no benchmark request reaches past n = 13;
* ``seq --family strong --route walks`` at n_max 1, 2 and 60: the edges of
  the split of the walk model's pauses and of their binomial transform;
* ``seq --family invseq`` on the ``formula`` and ``dp`` routes at n_max 40
  and on the ``brute`` route (exponential) at n_max 10.

A change that claims to keep every output, such as a refactor, should
report no difference against its parent commit (exported with, say,
``git archive``).  Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 600
JOBS = 2  # requests run at once


def request_list() -> list[tuple[str, ...]]:
    """The argvs to compare, each once, in a fixed order."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        from workloads import requests
    finally:
        sys.path.pop(0)
    argvs = [r.argv for w in ("terms-deep", "series-deep") for r in requests(w, seed=0)]
    argvs += [("check", "--suite", suite, "--format", "json", "--seed", str(seed))
              for suite in ("quick", "full") for seed in (0, 1000)]
    argvs += [("series", "--check", "kernel", "--trials", "40", "--seed", str(seed))
              for seed in range(21)]
    argvs += [("series", "--check", "F", "--order", "20"),
              ("series", "--check", "omega", "--order", "15"),
              ("series", "--check", "reduced", "--order", "12", "--a0=2")]
    growth = [(steps, str(n)) for steps in ("five", "seven") for n in (50, 100, 300, 400)]
    growth += [("five", "440"), ("seven", "364"), ("(-1,0);(0,-1);(1,1);(0,0)", "120")]
    argvs += [("walks", "--steps", steps, "--n-max", n, "--estimate-growth", *fmt)
              for steps, n in growth for fmt in ((), ("--format", "json"))]
    argvs.append(("walks", "--steps", "(-1,0);(0,-1);(1,-1);(1,0);(0,1);3x(0,0)", "--n-max", "100",
                  "--estimate-growth"))
    argvs += [("walks", "--steps", steps, "--n-max", n, "--excursions")
              for steps, n in (("five", "300"), ("seven", "300"), ("(-1,0);(0,-1);(1,1)", "120"))]
    brute = [("exp1423", n) for n in (3, 4, 10, 11)]
    brute += [(family, 10) for family in ("semi", "plane", "baxter", "twisted", "strong", "av231")]
    argvs += [("seq", "--family", family, "--route", "brute", "--n-max", str(n))
              for family, n in brute]
    argvs += [("seq", "--family", "sb", "--route", route, "--n-max", "150") for route in ("sum", "d")]
    argvs += [("seq", "--family", "strong", "--route", "walks", "--n-max", n)
              for n in ("1", "2", "60")]
    argvs += [("seq", "--family", "invseq", "--route", route, "--n-max", n)
              for route, n in (("formula", "40"), ("dp", "40"), ("brute", "10"))]
    return list(dict.fromkeys(argvs))


def digest(argv: tuple[str, ...], stdout: bytes) -> str:
    """sha256 of stdout, with elapsed_ms dropped from a check JSON report."""
    if argv[0] == "check":
        try:
            report = json.loads(stdout)
            for r in report["reports"]:
                r.pop("elapsed_ms", None)
            stdout = json.dumps(report).encode()
        except (ValueError, KeyError, TypeError):
            pass  # not a JSON report: compare the raw bytes
    return hashlib.sha256(stdout).hexdigest()


def run(tree: Path, argv: tuple[str, ...]) -> tuple[str, str]:
    """(exit code, stdout digest) of one request in one tree."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        done = subprocess.run([sys.executable, "-m", "baxterlab", *argv], cwd=tree, env=env,
                              capture_output=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "timeout", "-"
    return str(done.returncode), digest(argv, done.stdout)


def compare(old: Path, new: Path, argvs: list[tuple[str, ...]]) -> list[tuple]:
    """(argv, old outcome, new outcome) for each request whose outcomes differ."""
    with ThreadPoolExecutor(max_workers=JOBS) as pool:
        olds = pool.map(run, [old] * len(argvs), argvs)
        news = pool.map(run, [new] * len(argvs), argvs)
        return [(argv, a, b) for argv, a, b in zip(argvs, olds, news) if a != b]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    for tree in (args.old, args.new):
        if not (tree / "src" / "baxterlab").is_dir():
            parser.error(f"{tree} holds no src/baxterlab")
    argvs = request_list()
    diffs = compare(args.old.resolve(), args.new.resolve(), argvs)
    for cmd, (code_a, sha_a), (code_b, sha_b) in diffs:
        print(f"DIFF {' '.join(cmd)}: exit {code_a} vs {code_b}, "
              f"stdout {sha_a[:12]} vs {sha_b[:12]}")
    print(f"{len(diffs)} of {len(argvs)} requests differ")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
