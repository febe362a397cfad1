"""Closed forms, recurrences, and their cross-agreements."""

import math
import os
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

import baxterlab
from baxterlab import formulas

from conftest import APERY, BAXTER, CATALAN, SB, corrupt_recurrences


def test_binom_and_catalan():
    assert [formulas.catalan(n) for n in range(1, 11)] == CATALAN


def test_binom_and_simple_formula_guards():
    with pytest.raises(ValueError, match="unknown simple-formula variant 'e'"):
        formulas.sb_simple_formula(5, "e")


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


def test_closed_sums_agree_with_recurrences_at_depth():
    base = formulas.sb_recurrence(150)
    for route in ("a", "b", "c", "d", "apery"):
        assert formulas.sb_table(150, route) == base, route
    bax = formulas.baxter_recurrence(200)
    assert [formulas.baxter_closed(n) for n in range(1, 201)] == bax[1:]
    assert [formulas.apery_closed(n) for n in range(151)] == formulas.apery_recurrence(150)


# The closed sums' summands as plain math.comb products over their whole range of j,
# with each sum's prefactor: the oracle for the term-ratio stepping.
_SIMPLE_SUMMANDS = {
    "a": lambda n, j: math.comb(n, j + 2) * math.comb(n + 2, j) * math.comb(n + j + 2, j + 1),
    "b": lambda n, j: math.comb(n, j + 2) * math.comb(n + 1, j) * math.comb(n + j + 2, j + 3),
    "c": lambda n, j: math.comb(n + 1, j + 3) * math.comb(n + 2, j + 1) * math.comb(n + j + 3, j),
    "d": lambda n, j: math.comb(n + 1, j + 3) * math.comb(n + 1, j) * math.comb(n + j + 2, j + 2),
}


@pytest.mark.parametrize("variant", "abcd")
def test_simple_formulas_equal_plain_binomial_sums(variant):
    for n in range(2, 61):
        s = sum(_SIMPLE_SUMMANDS[variant](n, j) for j in range(n + 2))
        den = (n - 1) * n * (n + 1) * (n + 2) * (n + 1 if variant == "d" else n)
        assert formulas.sb_simple_formula(n, variant) == Fraction(24 * s, den), n


def test_baxter_closed_equals_the_full_symmetric_sum():
    # n = 1..60 gives odd and even N = n + 1, so the half-range sum is checked
    # both without and with its middle term
    for n in range(1, 61):
        top = n + 1
        s = sum(math.comb(top, j - 1) * math.comb(top, j) * math.comb(top, j + 1)
                for j in range(1, top))
        assert formulas.baxter_closed(n) == Fraction(2 * s, n * top ** 2), n


def test_apery_closed_equals_the_plain_binomial_sum():
    for n in range(61):
        assert formulas.apery_closed(n) == sum(math.comb(n, j) ** 2 * math.comb(n + j, j)
                                               for j in range(n + 1)), n


def test_ratio_sum_names_the_term_that_is_not_an_integer():
    assert formulas._ratio_sum(5, [], [], "t") == (5, 5)
    with pytest.raises(ValueError, match=r"^t: term 1 is not an integer$"):
        formulas._ratio_sum(1, [1], [2], "t")
    with pytest.raises(ValueError, match=r"^SB: term 3 is not an integer$"):
        formulas._ratio_sum(1, [2, 3, 5], [1, 2, 7], "SB")


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
        "from decimal import Decimal\n"
        "from baxterlab import formulas, invseq\n"
        "for call in (lambda: formulas._exact_div(7, 2, 'parity check'),\n"
        "             lambda: formulas._ratio_sum(1, [1], [2], 't'),\n"
        "             lambda: formulas._order2('t', 1, 1, 5, 1, lambda n: (1, 1, 3)),\n"
        "             lambda: formulas._order2('t', 1, 1, 5, Decimal(1), lambda n: (1, 1, 3)),\n"
        "             lambda: formulas._order2('t', 1, 1, 5, Decimal(1), lambda n: (1, 1, 0)),\n"
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


# The recurrences behind the printed routes, and the name of their term n.
_RECURRENCES = [(formulas.sb_recurrence, "SB"), (formulas.baxter_recurrence, "B"),
                (formulas.apery_recurrence, "apery a")]


@pytest.mark.parametrize("recurrence, name", _RECURRENCES)
def test_decimal_recurrence_terms_equal_the_int_terms(recurrence, name):
    ints, decs = recurrence(400), recurrence(400, Decimal(1))
    assert all(type(d) is Decimal for d in decs)
    assert [int(d) for d in decs] == ints
    assert [str(d) for d in decs] == [str(v) for v in ints]


@pytest.mark.parametrize("unit", [1, Decimal(1)])
@pytest.mark.parametrize("recurrence, name", _RECURRENCES)
@pytest.mark.parametrize("corrupt, why", [
    (lambda p, q, r: (p + 1, q, r), "does not divide"),
    (lambda p, q, r: (p, q, 0), "ZeroDivisionError|InvalidOperation"),  # int or Decimal
    (lambda p, q, r: (p, q, Decimal("sNaN")), "InvalidOperation"),
])
def test_corrupted_recurrence_step_names_its_term(monkeypatch, unit, recurrence, name,
                                                  corrupt, why):
    corrupt_recurrences(monkeypatch, 40, corrupt)
    with pytest.raises(ValueError, match=f"^{name}_40: .*({why})"):
        recurrence(60, unit)


def test_asymptotic_constants():
    assert abs(formulas.MU - 11.090169943749474) < 1e-12
    assert abs(formulas.MU - formulas.LAMBDA ** -5) < 1e-9


def test_asymptotic_check_fields():
    rep = formulas.asymptotic_check(200)
    assert rep["n"] == 200 and isinstance(rep["n"], int)
    assert rep["target_mu"] == formulas.MU
    # the corrected ratio converges an order faster than the plain one
    plain_err = abs(rep["ratio"] / formulas.MU - 1)
    corr_err = abs(rep["corrected_ratio"] / formulas.MU - 1)
    assert corr_err < plain_err / 50
    assert corr_err < 1e-3
