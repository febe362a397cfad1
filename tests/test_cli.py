"""End-to-end command line behavior, format for format."""

import json
import sys

import pytest

from baxterlab import checks, cli

from conftest import naive_walk_tables


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_seq_bfile_contract(capsys):
    code, out, _ = run(
        capsys,
        ["seq", "--family", "sb", "--route", "rule", "--n-max", "5", "--format", "bfile"],
    )
    assert code == 0
    assert out == "1 1\n2 2\n3 6\n4 23\n5 104\n"


def test_seq_strong_walks_plain(capsys):
    code, out, _ = run(capsys, ["seq", "--family", "strong", "--route", "walks", "--n-max", "3"])
    assert code == 0
    assert out == "1\n2\n6\n"


def test_seq_apery_starts_at_zero(capsys):
    code, out, _ = run(capsys, ["seq", "--family", "apery", "--n-max", "2"])
    assert code == 0
    assert out == "1\n3\n19\n"


def test_seq_json_format(capsys):
    code, out, _ = run(capsys, ["seq", "--family", "baxter", "--n-max", "4", "--format", "json"])
    assert code == 0
    assert json.loads(out) == {
        "family": "baxter",
        "route": "closed",
        "offset": 1,
        "terms": [1, 2, 6, 22],
    }


def test_seq_csv_format(capsys):
    code, out, _ = run(capsys, ["seq", "--family", "av231", "--n-max", "3", "--format", "csv"])
    assert code == 0
    assert out.splitlines() == ["n,value", "1,1", "2,2", "3,5"]


def test_seq_every_family_every_route(capsys):
    for family, cfg in cli.FAMILIES.items():
        for route in cfg["routes"]:
            n = str(max(cfg["offset"], 4))
            code, out, _ = run(capsys, ["seq", "--family", family, "--route", route, "--n-max", n])
            assert code == 0, (family, route)
            assert out


def test_seq_unknown_route_exits_2(capsys):
    code, _, err = run(capsys, ["seq", "--family", "exp1423", "--route", "rule", "--n-max", "3"])
    assert code == 2
    assert "no route" in err


def test_seq_bad_n_max_exits_2(capsys):
    code, _, err = run(capsys, ["seq", "--family", "sb", "--n-max", "0"])
    assert code == 2
    assert "--n-max" in err


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["seq", "--family", "nonsense", "--n-max", "3"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_series_residual_ok(capsys):
    code, out, _ = run(capsys, ["series", "--check", "residual-semi", "--order", "6"])
    assert code == 0
    assert "PASS" in out


def test_series_kernel_reports_both_groups(capsys):
    code, out, _ = run(capsys, ["series", "--check", "kernel", "--trials", "2"])
    assert code == 0
    lines = out.splitlines()
    assert any(l.startswith("PASS semi") for l in lines)
    assert any(l.startswith("PASS strong") for l in lines)


def test_series_reduced_accepts_fraction_point(capsys):
    # a leading-dash value must be attached with '='
    code, out, _ = run(
        capsys, ["series", "--check", "reduced", "--order", "6", "--a0=-2/3"]
    )
    assert code == 0
    assert "a0=-2/3" in out


def test_walks_excursions(capsys):
    code, out, _ = run(capsys, ["walks", "--n-max", "3", "--excursions"])
    assert code == 0
    assert out == "1\n0\n2\n1\n"


@pytest.mark.parametrize("steps, mult, n_max", [
    ("five", {(-1, 0): 1, (0, -1): 1, (1, -1): 1, (1, 0): 1, (0, 1): 1}, 40),
    ("(1,1);(-1,0);(0,-1);2x(0,0)", {(1, 1): 1, (-1, 0): 1, (0, -1): 1, (0, 0): 2}, 25),
])
def test_walks_totals_match_the_naive_counter(capsys, steps, mult, n_max):
    code, out, _ = run(capsys, ["walks", "--steps", steps, "--n-max", str(n_max)])
    assert code == 0
    assert out == "".join(f"{sum(t.values())}\n" for t in naive_walk_tables(mult, n_max))


def test_walks_length_zero(capsys):
    code, out, _ = run(capsys, ["walks", "--n-max", "0"])
    assert code == 0
    assert out == "1\n"


def test_walks_custom_steps_bfile(capsys):
    code, out, _ = run(
        capsys,
        ["walks", "--steps", "(0,1);2x(1,0)", "--n-max", "2", "--format", "bfile"],
    )
    assert code == 0
    assert out == "0 1\n1 3\n2 9\n"


def test_walks_bad_steps_exit_2(capsys):
    code, _, err = run(capsys, ["walks", "--steps", "(5,0)", "--n-max", "3"])
    assert code == 2
    assert "small steps" in err


def test_walks_growth_json(capsys):
    code, out, _ = run(
        capsys,
        ["walks", "--steps", "seven", "--n-max", "60", "--estimate-growth", "--format", "json"],
    )
    assert code == 0
    rep = json.loads(out)
    assert abs(rep["rho_hat"] - rep["target"]) / rep["target"] < 0.01


def test_invseq_routes_agree(capsys):
    outs = set()
    for route in ("brute", "dp", "formula"):
        code, out, _ = run(capsys, ["invseq", "--n-max", "6", "--route", route])
        assert code == 0
        outs.add(out)
    assert outs == {"1\n2\n6\n23\n104\n530\n"}


@pytest.mark.parametrize("fmt", ["plain", "bfile", "csv", "json"])
def test_invseq_is_seq_of_the_invseq_family(capsys, fmt):
    for route in checks.FAMILIES["invseq"]["routes"]:
        tail = ["--route", route, "--n-max", "7", "--format", fmt]
        code, out, _ = run(capsys, ["invseq"] + tail)
        assert code == 0
        assert run(capsys, ["seq", "--family", "invseq"] + tail) == (0, out, "")


def test_numbers_default_bfile(capsys):
    code, out, _ = run(capsys, ["numbers", "--family", "sb", "--n-max", "4"])
    assert code == 0
    assert out == "1 1\n2 2\n3 6\n4 23\n"


def test_numbers_rejects_enumerative_route(capsys):
    code, _, err = run(capsys, ["numbers", "--family", "sb", "--route", "brute", "--n-max", "3"])
    assert code == 2
    assert "no route" in err


def test_numbers_print_terms_past_the_int_str_limit(capsys):
    # SB_n has more than 4300 digits from n = 4464 on
    limit = sys.get_int_max_str_digits()
    code, out, _ = run(capsys, ["numbers", "--family", "sb", "--n-max", "4470"])
    assert code == 0
    last = out.splitlines()[-1]
    assert last.startswith("4470 ") and len(last) > 4300 + len("4470 ")
    assert sys.get_int_max_str_digits() == limit


@pytest.mark.parametrize(
    "argv",
    [
        ["series", "--check", "kernel", "--trials", "0"],
        ["series", "--check", "reduced", "--a0=0"],
        ["walks", "--steps", "(1,0)", "--estimate-growth", "--n-max", "50"],
    ],
)
def test_engine_value_error_exits_2_without_traceback(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("check", ["W", "reduced"])
def test_zero_denominator_a0_is_a_usage_error(capsys, check):
    with pytest.raises(SystemExit) as exc:
        cli.main(["series", "--check", check, "--order", "3", "--a0=1/0"])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "error: argument --a0: invalid Fraction value: '1/0'" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("fmt", ["bfile", "csv"])
def test_growth_estimate_rejects_term_formats(capsys, fmt):
    argv = ["walks", "--n-max", "60", "--estimate-growth", "--format", fmt]
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err == f"error: --estimate-growth has no {fmt} format (use plain or json)\n"


# The series verdicts are the texts of the suite's checks; these lines are
# what scripts and the benchmark digests read.
@pytest.mark.parametrize(
    "argv, want",
    [
        (["--check", "F", "--order", "8"],
         "PASS a^0 column matches the recurrence for n=1..8\n"),
        (["--check", "omega", "--order", "8"],
         "PASS nonneg part matches label evaluation for x^1..x^8\n"),
        (["--check", "residual-semi", "--order", "8"], "PASS residual 0 through x^8\n"),
        (["--check", "residual-strong", "--order", "8"], "PASS residual 0 through x^8\n"),
        (["--check", "reduced", "--order", "8", "--a0=-2/3"],
         "PASS both identities hold at a0=-2/3 to order 8\n"),
    ],
)
def test_series_verdict_lines_are_pinned(capsys, argv, want):
    assert run(capsys, ["series"] + argv) == (0, want, "")


def test_check_quick_text(capsys):
    code, out, _ = run(capsys, ["check", "--suite", "quick"])
    assert code == 0
    assert out.strip().splitlines()[-1] == "25/25 checks passed"


def test_check_failure_sets_exit_code(capsys, monkeypatch):
    def fake_run_suite(suite, seed=0):
        return [
            checks.CheckReport("alpha", "pass", "fine", 1.0),
            checks.CheckReport("beta", "fail", "synthetic defect", 2.0),
        ]

    monkeypatch.setattr(checks, "run_suite", fake_run_suite)
    code, out, _ = run(capsys, ["check", "--suite", "quick"])
    assert code == 1
    assert "1/2 checks passed" in out
    code, out, _ = run(capsys, ["check", "--format", "json"])
    assert code == 1
    assert json.loads(out)["failed"] == 1
