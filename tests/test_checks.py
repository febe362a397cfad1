"""The consistency suite: registry, determinism, failure reporting."""

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import baxterlab
from baxterlab import checks


def test_compare_routes_agree():
    ok, detail = checks.compare_routes({"x": [1, 2, 6], "y": [1, 2, 6, 23]})
    assert ok
    assert "x to n=3" in detail and "y to n=4" in detail


def test_compare_routes_names_smallest_mismatch():
    ok, detail = checks.compare_routes(
        {"good": [1, 2, 6, 23], "bad": [1, 2, 7, 9]}, offset=1
    )
    assert not ok
    assert "first differ at n=3" in detail
    assert "7" in detail and "6" in detail


def test_registry_is_alphabetical_and_complete():
    names = [r.name for r in checks.run_suite("quick")]
    assert names == sorted(names)
    assert len(names) == len(checks._REGISTRY) == 25
    assert sorted(name for name, _ in checks._REGISTRY) == names


def test_every_family_has_a_route_check():
    # semi shares its routes with sb
    checked = {family for family, _, _ in checks._ROUTE_CHECKS.values()}
    assert checked | {"semi"} == set(checks.FAMILIES)


def test_route_checks_name_every_route_and_its_size():
    bounds = checks._BOUNDS["quick"]
    details = {r.name: r.detail for r in checks.run_suite("quick")}
    for name, (family, size, borrowed) in checks._ROUTE_CHECKS.items():
        n = bounds[size] if isinstance(size, str) else size
        want = {route: bounds["brute"] if route == "brute" else n
                for route in [*checks.FAMILIES[family]["routes"], *borrowed]}
        spans = details[name].removeprefix("routes agree (").removesuffix(")")
        got = {route: int(top) for route, top in
               (span.split(" to n=") for span in spans.split(", "))}
        assert got == want, name


def test_quick_suite_passes():
    reports = checks.run_suite("quick")
    bad = [r for r in reports if not r.ok]
    assert not bad, [(r.name, r.detail) for r in bad]


def test_suite_is_deterministic_under_seed():
    one = checks.run_suite("quick", seed=7)
    two = checks.run_suite("quick", seed=7)
    assert [(r.name, r.status, r.detail) for r in one] == [
        (r.name, r.status, r.detail) for r in two
    ]


def test_report_serialization():
    rep = checks.run_suite("quick")[0]
    d = rep.as_dict()
    assert set(d) == {"name", "status", "detail", "elapsed_ms"}
    assert d["status"] in ("pass", "fail")


def test_exception_becomes_failure(monkeypatch):
    def boom(bounds, seed):
        raise RuntimeError("synthetic")

    monkeypatch.setattr(
        checks, "_REGISTRY", checks._REGISTRY + (("synthetic-check", boom),)
    )
    reports = checks.run_suite("quick")
    rep = {r.name: r for r in reports}["synthetic-check"]
    assert not rep.ok
    assert "raised RuntimeError" in rep.detail
    assert "synthetic" in rep.detail


def test_elapsed_times_sum_within_wall_time():
    # the checks run one after another, so their own times add up to at
    # most the wall time of the whole call
    t0 = time.perf_counter()
    reports = checks.run_suite("quick")
    wall_ms = (time.perf_counter() - t0) * 1000.0
    assert sum(r.elapsed_ms for r in reports) <= wall_ms * 1.05


def test_compare_routes_needs_two_routes():
    with pytest.raises(ValueError, match="two routes"):
        checks.compare_routes({"only": [1, 2, 6]})


def test_run_suite_rejects_unknown_suite():
    with pytest.raises(ValueError, match="unknown suite"):
        checks.run_suite("medium")


def test_guards_raise_under_optimize():
    code = (
        "from baxterlab import checks, perms, series, walks\n"
        "for call in (lambda: checks.run_suite('medium'),\n"
        "             lambda: checks.compare_routes({'only': [1]}),\n"
        "             lambda: perms.AvoidanceClass('x', ('1[32]',)),\n"
        "             lambda: perms.label_census(perms.CLASSES['semi'], 0),\n"
        "             lambda: walks.StepMultiset([(2, 0)]),\n"
        "             lambda: walks.excursions(walks.FIVE, -1),\n"
        "             lambda: walks.walk_grids(walks.FIVE, -1),\n"
        "             lambda: walks.growth_estimate(walks.FIVE, 49),\n"
        "             lambda: series.solve_W(0),\n"
        "             lambda: series.lagrange_coeff(0, 1, 4),\n"
        "             lambda: series.residual_semi(1),\n"
        "             lambda: series.verify_reduced_identity(1, 4)):\n"
        "    try:\n"
        "        call()\n"
        "    except ValueError:\n"
        "        continue\n"
        "    raise SystemExit('guard did not fire')\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(baxterlab.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                          text=True, timeout=60, env=env)
    assert done.returncode == 0, done.stderr + done.stdout
