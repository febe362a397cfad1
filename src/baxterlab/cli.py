"""Command line front end.

Subcommands: seq (term streams for every family/route of
checks.FAMILIES), check (the cross-route consistency suite), series (the
verdicts of checks registry rows at the requested size, plus the W
fixpoint) and walks.  Exit codes: 0 success, 1 a requested
verification failed or stdout closed before the output was written, 2
usage error, including an engine rejecting its arguments with ValueError.
json and csv are imported only where a request prints them, off start-up.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from typing import Iterable

from . import checks, series, walks
from .checks import FAMILIES


def _emit_terms(
    family: str, route: str, offset: int, digits: Iterable[str], fmt: str
) -> None:
    """Print the terms n = offset, offset + 1, ... from their decimal digit
    strings, one at a time; json is the text json.dumps gives the int terms."""
    # int terms are converted lazily in the loops below and can outgrow
    # CPython's int->str digit limit; lift it while printing
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        if fmt == "plain":
            for d in digits:
                print(d)
        elif fmt == "bfile":
            for n, d in enumerate(digits, offset):
                print(f"{n} {d}")
        elif fmt == "csv":
            import csv
            writer = csv.writer(sys.stdout)
            writer.writerow(["n", "value"])
            writer.writerows(enumerate(digits, offset))
        else:
            import json
            head = json.dumps({"family": family, "route": route, "offset": offset, "terms": []})
            print(head[:-2], end="")
            sep = ""
            for d in digits:
                print(sep, d, sep="", end="")
                sep = ", "
            print("]}")
    finally:
        sys.set_int_max_str_digits(limit)


def _run_family(family: str, route: str | None, n_max: int, fmt: str) -> int:
    cfg = FAMILIES[family]
    routes = cfg["routes"]
    route = route or next(iter(routes))
    if route not in routes:
        known = ", ".join(sorted(routes))
        print(f"error: family {family!r} has no route {route!r} (known: {known})", file=sys.stderr)
        return 2
    offset = cfg["offset"]
    if n_max < offset:
        print(f"error: --n-max must be at least {offset}", file=sys.stderr)
        return 2
    terms_of = routes[route]
    if isinstance(terms_of, checks.Recurrence):
        digits = terms_of.digits(n_max)
    else:
        digits = map(str, terms_of(n_max))
    _emit_terms(family, route, offset, digits, fmt)
    return 0


def _cmd_seq(args: argparse.Namespace) -> int:
    return _run_family(args.family, args.route, args.n_max, args.format)


def _cmd_check(args: argparse.Namespace) -> int:
    reports = checks.run_suite(args.suite, seed=args.seed)
    failed = [r for r in reports if not r.ok]
    if args.format == "json":
        import json
        print(
            json.dumps(
                {
                    "suite": args.suite,
                    "seed": args.seed,
                    "passed": len(reports) - len(failed),
                    "failed": len(failed),
                    "reports": [r._asdict() for r in reports],
                }
            )
        )
    else:
        for r in reports:
            print(f"{r.status.upper():4} {r.name} ({r.elapsed_ms:.1f} ms): {r.detail}")
        print(f"{len(reports) - len(failed)}/{len(reports)} checks passed")
    return 1 if failed else 0


# series --check choice other than W -> the registry rows it prints, in order
_SERIES_ROWS = {
    "F": ("series-extraction-vs-recurrence",),
    "omega": ("series-theorem-nonneg-part",),
    "residual-semi": ("series-residual-semi",),
    "residual-strong": ("series-residual-strong",),
    "kernel": ("kernel-semi", "kernel-strong"),
    "reduced": ("series-reduced-identity",),
}


def _cmd_series(args: argparse.Namespace) -> int:
    order = args.order
    if order < 2 and args.check != "kernel":  # the kernel probe reads no order
        print("error: --order must be at least 2", file=sys.stderr)
        return 2
    if args.check == "W":
        w = series.solve_W(order)
        print(f"fixpoint verified to order {order}")
        print(f"[x^1] = {w.coeff_x(1)}")
        print(f"[x^2] = {w.coeff_x(2)}")
        return 0
    sizes = {"kernel": (args.trials,), "reduced": (((args.a0, order),),)}.get(args.check, (order,))
    outcomes = [checks._REGISTRY[row][0](*sizes, args.seed) for row in _SERIES_ROWS[args.check]]
    for ok, detail in outcomes:
        print(f"{'PASS' if ok else 'FAIL'} {detail}")
    return 0 if all(ok for ok, _ in outcomes) else 1


def _cmd_walks(args: argparse.Namespace) -> int:
    steps = walks.parse_steps(args.steps)
    if args.n_max < 0:
        print("error: --n-max must be nonnegative", file=sys.stderr)
        return 2
    if args.estimate_growth:
        if args.format in ("bfile", "csv"):
            print(f"error: --estimate-growth has no {args.format} format "
                  "(use plain or json)", file=sys.stderr)
            return 2
        if args.n_max < 50:
            print("error: growth estimation needs --n-max of at least 50", file=sys.stderr)
            return 2
        rep = walks.growth_estimate(steps, args.n_max)
        if args.format == "json":
            import json
            print(json.dumps(rep))
        else:
            for key, value in rep.items():
                print(f"{key} = {value}")
        return 0
    if args.excursions:
        values = walks.excursions(steps, args.n_max)
    else:
        values = walks.walk_totals(steps, args.n_max)
    label = "excursions" if args.excursions else "walks"
    _emit_terms(label, steps.name or args.steps, 0, map(str, values), args.format)
    return 0


def _fraction(text: str) -> Fraction:
    """Fraction(text), with a zero denominator a usage error too."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"invalid Fraction value: {text!r}") from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="baxterlab",
        description="Exact enumeration toolkit for Baxter-like permutation families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    term_formats = ("plain", "bfile", "csv", "json")

    p = sub.add_parser("seq", help="emit terms of a family via a chosen route")
    p.add_argument("--family", required=True, choices=sorted(FAMILIES))
    p.add_argument("--route", default=None, help="counting route (family-specific)")
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--format", default="plain", choices=term_formats)
    p.set_defaults(func=_cmd_seq)

    p = sub.add_parser("check", help="run the cross-route consistency suite")
    p.add_argument("--suite", default="quick", choices=("quick", "full"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", default="text", choices=("text", "json"))
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("series", help="series-side constructions and identities")
    p.add_argument("--check", required=True, choices=("W", *_SERIES_ROWS))
    p.add_argument("--order", type=int, default=10)
    p.add_argument("--a0", type=_fraction, default=Fraction(3, 2))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=5)
    p.set_defaults(func=_cmd_series)

    p = sub.add_parser("walks", help="quarter-plane walk tables and growth")
    p.add_argument("--steps", default="five", help="'five', 'seven' or a step list")
    p.add_argument("--n-max", type=int, required=True)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--excursions", action="store_true")
    mode.add_argument("--estimate-growth", action="store_true")
    p.add_argument("--format", default="plain", choices=term_formats)
    p.set_defaults(func=_cmd_walks)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout early (say, `| head`); point stdout at
        # devnull so the flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
