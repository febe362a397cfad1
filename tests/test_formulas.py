"""Closed forms, recurrences, and their cross-agreements."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import baxterlab
from baxterlab import formulas

from conftest import APERY, BAXTER, CATALAN, SB


def test_binom_and_catalan():
    assert formulas.binom(5, 2) == 10
    assert formulas.binom(5, -1) == 0
    assert formulas.binom(3, 7) == 0
    assert [formulas.catalan(n) for n in range(1, 11)] == CATALAN


def test_sb_recurrence_prefix():
    assert formulas.sb_recurrence(13)[1:] == SB


@pytest.mark.parametrize("route", ["recurrence", "sum", "a", "b", "c", "d", "apery"])
def test_sb_table_routes(route):
    assert formulas.sb_table(13, route)[1:] == SB


@pytest.mark.parametrize("n_max", [0, 1, 5])
def test_sb_table_rejects_unknown_route_at_any_size(n_max):
    with pytest.raises(ValueError, match="unknown semi-Baxter route 'bogus'"):
        formulas.sb_table(n_max, "bogus")


@pytest.mark.parametrize("route", ["recurrence", "sum", "a", "b", "c", "d", "apery"])
def test_sb_table_needs_n_max_at_least_1_on_every_route(route):
    with pytest.raises(ValueError, match="n_max must be at least 1"):
        formulas.sb_table(0, route)
    assert formulas.sb_table(1, route) == [0, 1]


def test_sb_routes_cross_agree_to_30():
    base = formulas.sb_recurrence(30)
    for route in ("sum", "a", "b", "c", "d", "apery"):
        assert formulas.sb_table(30, route) == base, route


def test_sb_summand_is_exact_fraction():
    total = sum(formulas.sb_summand(6, j) for j in range(0, 9))
    assert total == Fraction(SB[5])


def test_apery_closed_prefix():
    assert [formulas.apery_closed(n) for n in range(10)] == APERY


def test_apery_recurrence_matches_closed_to_50():
    rec = formulas.apery_recurrence(50)
    assert rec[:10] == APERY
    assert rec == [formulas.apery_closed(n) for n in range(51)]


def test_sb_via_apery_values():
    # the combination needs n >= 2; the table route covers n=1 directly
    assert [formulas.sb_via_apery(n) for n in range(2, 14)] == SB[1:]
    with pytest.raises(ValueError, match="at least 2"):
        formulas.sb_via_apery(1)


def test_baxter_closed_and_recurrence():
    assert [formulas.baxter_closed(n) for n in range(1, 13)] == BAXTER
    assert formulas.baxter_recurrence(12)[1:] == BAXTER
    assert formulas.baxter_recurrence(30) == [0] + [
        formulas.baxter_closed(n) for n in range(1, 31)
    ]


def test_exact_division_guard():
    with pytest.raises(ValueError):
        formulas._exact_div(7, 2, "parity check")


def test_exact_division_guard_raises_under_optimize():
    # bare asserts would vanish under -O: total_via_formula(0) returned 1,
    # q_table(0) {}, and the others died with IndexError or ZeroDivisionError
    code = (
        "from baxterlab import formulas, invseq\n"
        "for call in (lambda: formulas._exact_div(7, 2, 'parity check'),\n"
        "             lambda: formulas.binom(-1, 0),\n"
        "             lambda: formulas.sb_sum_formula(1),\n"
        "             lambda: formulas.sb_simple_formula(4, 'e'),\n"
        "             lambda: formulas.baxter_closed(0),\n"
        "             lambda: formulas.asymptotic_check(9),\n"
        "             lambda: invseq.total_via_formula(0),\n"
        "             lambda: invseq.q_table(0),\n"
        "             lambda: invseq.count_avoiders_bruteforce(0)):\n"
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


def test_asymptotic_constants():
    import math

    assert abs(formulas.MU - 11.090169943749474) < 1e-12
    assert abs(formulas.MU - formulas.LAMBDA ** -5) < 1e-9
    assert abs(formulas.NU - math.sqrt(5) / formulas.LAMBDA ** 2) < 1e-9


def test_asymptotic_check_fields():
    rep = formulas.asymptotic_check(200)
    assert rep["target_mu"] == formulas.MU
    # the corrected ratio converges an order faster than the plain one
    plain_err = abs(rep["ratio"] / formulas.MU - 1)
    corr_err = abs(rep["corrected_ratio"] / formulas.MU - 1)
    assert corr_err < plain_err / 50
    assert corr_err < 1e-3
