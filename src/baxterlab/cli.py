"""Command line front end.

Subcommands: seq (term streams for every family/route of
checks.FAMILIES), check (the cross-route consistency suite), series (the
series-side verdicts of the suite at a chosen size, plus the W
fixpoint), walks, and invseq and numbers (views of seq restricted to one
family or to the formula routes).  Exit codes: 0 success, 1 a requested
verification failed, 2 usage error, including an engine rejecting its
arguments with ValueError.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from fractions import Fraction
from typing import Sequence

from . import checks, series, walks
from .checks import FAMILIES

# The numbers view exposes only the closed-form and recurrence routes.
_NUMBERS_ROUTES: dict[str, tuple[str, ...]] = {
    "sb": ("recurrence", "sum", "a", "b", "c", "d", "apery"),
    "baxter": ("closed", "ollerton"),
    "apery": ("closed", "recurrence"),
}


def _emit_terms(
    family: str, route: str, offset: int, values: Sequence[int], fmt: str
) -> None:
    # terms can outgrow CPython's int->str digit limit; lift it while printing
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        if fmt == "plain":
            for v in values:
                print(v)
        elif fmt == "bfile":
            for i, v in enumerate(values):
                print(f"{offset + i} {v}")
        elif fmt == "csv":
            writer = csv.writer(sys.stdout)
            writer.writerow(["n", "value"])
            for i, v in enumerate(values):
                writer.writerow([offset + i, v])
        else:
            print(
                json.dumps(
                    {
                        "family": family,
                        "route": route,
                        "offset": offset,
                        "terms": list(values),
                    }
                )
            )
    finally:
        sys.set_int_max_str_digits(limit)


def _run_family(
    family: str, route: str | None, n_max: int, fmt: str, allowed: tuple[str, ...] | None = None
) -> int:
    cfg = FAMILIES[family]
    route = route or cfg["default"]
    routes = cfg["routes"]
    if allowed is not None:
        routes = {k: v for k, v in routes.items() if k in allowed}
    if route not in routes:
        known = ", ".join(sorted(routes))
        print(
            f"error: family {family!r} has no route {route!r} (known: {known})",
            file=sys.stderr,
        )
        return 2
    offset = cfg["offset"]
    if n_max < offset:
        print(f"error: --n-max must be at least {offset}", file=sys.stderr)
        return 2
    _emit_terms(family, route, offset, routes[route](n_max), fmt)
    return 0


def _cmd_seq(args: argparse.Namespace) -> int:
    return _run_family(args.family, args.route, args.n_max, args.format)


def _cmd_numbers(args: argparse.Namespace) -> int:
    return _run_family(
        args.family, args.route, args.n_max, args.format,
        allowed=_NUMBERS_ROUTES[args.family],
    )


def _cmd_check(args: argparse.Namespace) -> int:
    reports = checks.run_suite(args.suite, seed=args.seed)
    failed = [r for r in reports if not r.ok]
    if args.format == "json":
        print(
            json.dumps(
                {
                    "suite": args.suite,
                    "seed": args.seed,
                    "passed": len(reports) - len(failed),
                    "failed": len(failed),
                    "reports": [r.as_dict() for r in reports],
                }
            )
        )
    else:
        for r in reports:
            print(f"{r.status.upper():4} {r.name} ({r.elapsed_ms:.1f} ms): {r.detail}")
        print(f"{len(reports) - len(failed)}/{len(reports)} checks passed")
    return 1 if failed else 0


def _cmd_series(args: argparse.Namespace) -> int:
    order = args.order
    if order < 2:
        print("error: --order must be at least 2", file=sys.stderr)
        return 2
    if args.check == "W":
        w = series.solve_W(order)
        print(f"fixpoint verified to order {order}")
        print(f"[x^1] = {w.coeff_x(1)}")
        print(f"[x^2] = {w.coeff_x(2)}")
        return 0
    if args.check == "kernel":
        outcomes = [
            checks.series_kernel(group, args.trials, args.seed) for group in ("semi", "strong")
        ]
    elif args.check == "reduced":
        outcomes = [checks.series_reduced(args.a0, order)]
    elif args.check == "F":
        outcomes = [checks.series_extraction(order)]
    elif args.check == "omega":
        outcomes = [checks.series_nonneg_part(order)]
    else:
        outcomes = [checks.series_residual(args.check.removeprefix("residual-"), order)]
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
            print(json.dumps(rep))
        else:
            for key in ("steps", "n_max", "alpha_hat", "rho_hat", "target", "rel_err"):
                print(f"{key} = {rep[key]}")
            print(f"residual_of_minpoly = {rep['residual_of_minpoly']}")
        return 0
    if args.excursions:
        values = walks.excursions(steps, args.n_max)
    else:
        values = [sum(map(sum, g)) for g in walks.walk_grids(steps, args.n_max)]
    label = "excursions" if args.excursions else "walks"
    _emit_terms(label, steps.name or args.steps, 0, values, args.format)
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
    p.add_argument(
        "--check",
        required=True,
        choices=("W", "F", "omega", "residual-semi", "residual-strong", "kernel", "reduced"),
    )
    p.add_argument("--order", type=int, default=10)
    p.add_argument("--a0", type=_fraction, default=Fraction(3, 2))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=5)
    p.set_defaults(func=_cmd_series)

    p = sub.add_parser("walks", help="quarter-plane walk tables and growth")
    p.add_argument("--steps", default="five", help="'five', 'seven' or a step list")
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--excursions", action="store_true")
    p.add_argument("--estimate-growth", action="store_true")
    p.add_argument("--format", default="plain", choices=term_formats)
    p.set_defaults(func=_cmd_walks)

    p = sub.add_parser("invseq", help="inversion-sequence avoider counts")
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--route", default=None, choices=sorted(FAMILIES["invseq"]["routes"]))
    p.add_argument("--format", default="plain", choices=term_formats)
    p.set_defaults(func=_cmd_seq, family="invseq")

    p = sub.add_parser("numbers", help="closed-form and recurrence tables")
    p.add_argument("--family", required=True, choices=sorted(_NUMBERS_ROUTES))
    p.add_argument("--route", default=None)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--format", default="bfile", choices=term_formats)
    p.set_defaults(func=_cmd_numbers)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
