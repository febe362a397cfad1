"""List the lines of baxterlab that no benchmark request reaches.

    python tools/traffic.py [TREE] [--smoke]

TREE is a checkout that holds ``src/baxterlab`` (by default the tree this
file sits in).  The tool imports that package and runs every request of
every benchmark workload at seed 0, read from ``perfbench/workloads.requests``
of the tree this file sits in, through ``baxterlab.cli.main`` in this one
interpreter under the standard library's ``trace.Trace``, with stdout
discarded.  It then prints, for each package module, how many of its
executable lines no request reached, and those lines by function, as
``module.function: lines`` (a nested function's lines count as its
enclosing function's).  A request that exits nonzero is named on stderr,
and the tool then exits 1.

A line is executable when an instruction of the module's code sits on it
(``co_lines``), so a docstring never is.  A ``def`` line is reached when
the enclosing code runs.  ``--smoke`` runs the reduced sizes of the
benchmark's own tests: about 0.5 s traced, against 0.08 s untraced; the
full sizes take about 2.8 s (one Xeon core, Python 3.11).  Standard
library only.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import sys
import trace
from inspect import CO_NEWLOCALS
from itertools import groupby
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parents[1]


def reached(run) -> dict[str, set[int]]:
    """The lines of each file that run() reaches."""
    # no ignoredirs: Trace caches its ignore verdict by bare module name, so
    # an ignored library __init__ would hide the package's own __init__
    tracer = trace.Trace(count=1, trace=0)
    tracer.runfunc(run)
    hit: dict[str, set[int]] = {}
    for filename, line in tracer.results().counts:
        hit.setdefault(filename, set()).add(line)
    return hit


def _owned(code: CodeType, name: str, prefix: str):
    """(code, owner name) for code and every code object nested in it; code
    nested in a function is owned by that function."""
    yield code, name
    for const in code.co_consts:
        if isinstance(const, CodeType):
            if code.co_flags & CO_NEWLOCALS:
                yield from _owned(const, name, prefix)
            else:
                inner = f"{prefix}.{const.co_name}"
                yield from _owned(const, inner, inner)


def _ranges(lines: list[int]) -> str:
    """Sorted lines as "3-5, 9": each run of consecutive lines is one range."""
    runs = [[v for _, v in g] for _, g in groupby(enumerate(lines), lambda p: p[1] - p[0])]
    return ", ".join(f"{r[0]}-{r[-1]}" if len(r) > 1 else f"{r[0]}" for r in runs)


def report(package: Path, hit: dict[str, set[int]]) -> list[str]:
    """Per module of package: its unreached executable lines, by function."""
    out = []
    for path in sorted(package.glob("*.py")):
        module, owner = path.stem, {}
        top = compile(path.read_text(), str(path), "exec")
        for code, name in _owned(top, f"{module}.<module>", module):
            for _, _, v in code.co_lines():
                if v:
                    owner.setdefault(v, name)
        missed = sorted(set(owner) - hit.get(str(path), set()))
        out.append(f"{module}: {len(missed)} of {len(owner)} executable lines unreached")
        by_owner: dict[str, list[int]] = {}
        for v in missed:
            by_owner.setdefault(owner[v], []).append(v)
        out += [f"  {name}: {_ranges(vs)}" for name, vs in by_owner.items()]
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree", type=Path, nargs="?", default=ROOT)
    parser.add_argument("--smoke", action="store_true", help="the reduced request sizes")
    args = parser.parse_args(argv)
    package = (args.tree / "src" / "baxterlab").resolve()
    if not package.is_dir():
        parser.error(f"{args.tree} holds no src/baxterlab")
    sys.path[:0] = [str(ROOT / "perfbench"), str(package.parent)]
    from workloads import WORKLOADS, requests

    argvs = [r.argv for w in WORKLOADS for r in requests(w, 0, smoke=args.smoke)]
    failed = []

    def run():
        from baxterlab.cli import main as cli

        for a in argvs:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = cli(list(a))
            if code:
                failed.append((a, code))

    hit = reached(run)
    sizes = "smoke" if args.smoke else "full"
    print(f"{len(argvs)} requests of {', '.join(WORKLOADS)} ({sizes} sizes, seed 0)")
    print("\n".join(report(package, hit)))
    for a, code in failed:
        print(f"request exited {code}: {' '.join(a)}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
