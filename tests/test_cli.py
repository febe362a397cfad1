"""End-to-end command line behavior, format for format."""

import csv
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import baxterlab
from baxterlab import checks, cli, rules, series, walks

from conftest import corrupt_recurrences, naive_walk_tables


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


@pytest.mark.parametrize("family, route, n_max", [
    (family, route, cfg["offset"] + k)
    for family, cfg in checks.FAMILIES.items() for route in cfg["routes"] for k in range(3)])
def test_seq_every_route_at_its_smallest_sizes(capsys, family, route, n_max):
    # the reference is the family's first route at a larger size, cut to n_max
    cfg = checks.FAMILIES[family]
    want = next(iter(cfg["routes"].values()))(cfg["offset"] + 5)[:n_max - cfg["offset"] + 1]
    argv = ["seq", "--family", family, "--route", route, "--n-max", str(n_max)]
    assert run(capsys, argv) == (0, "".join(f"{v}\n" for v in want), "")


DEFAULT_ROUTES = {
    "sb": "recurrence", "semi": "recurrence", "plane": "rule", "twisted": "rule",
    "strong": "rule", "baxter": "closed", "av231": "closed", "exp1423": "brute",
    "apery": "closed", "invseq": "formula",
}


def test_every_family_has_a_pinned_default_route():
    assert DEFAULT_ROUTES.keys() == cli.FAMILIES.keys()


@pytest.mark.parametrize("family, route", DEFAULT_ROUTES.items())
def test_seq_default_route_is_the_first_listed(capsys, family, route):
    # the json format names the route, so this pins which one ran
    argv = ["seq", "--family", family, "--n-max", "6", "--format", "json"]
    code, out, err = run(capsys, argv)
    assert (code, out, err) == run(capsys, argv + ["--route", route])
    assert code == 0 and json.loads(out)["route"] == route


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


@pytest.mark.parametrize("argv", [["numbers", "--family", "sb", "--n-max", "4"],
                                  ["invseq", "--n-max", "6"]])
def test_retired_views_are_usage_errors(capsys, argv):
    # neither name is a subcommand: seq prints the terms these views printed
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert f"invalid choice: '{argv[0]}'" in err
    assert "Traceback" not in err


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


def test_series_order_is_checked_only_where_it_is_read(capsys):
    # the kernel probe reads --trials and --seed, never --order
    code, out, err = run(capsys, ["series", "--check", "kernel", "--order", "1", "--trials", "2"])
    assert (code, err) == (0, "")
    assert out.startswith("PASS semi")
    assert run(capsys, ["series", "--check", "W", "--order", "1"]) == (
        2, "", "error: --order must be at least 2\n")


def test_series_reduced_accepts_fraction_point(capsys):
    # a leading-dash value must be attached with '='
    code, out, _ = run(
        capsys, ["series", "--check", "reduced", "--order", "6", "--a0=-2/3"]
    )
    assert code == 0
    assert "a0=-2/3" in out


def test_series_reduced_names_a_huge_point(capsys):
    # 10^5000 outgrows the int->str digit limit, so a0 is named by its bit length
    code, out, err = run(
        capsys, ["series", "--check", "reduced", "--order", "2", "--a0=1e5000"]
    )
    assert (code, err) == (0, "")
    assert out == "PASS both identities hold at a0=<16610-bit int> to order 2\n"


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


@pytest.mark.parametrize("steps, message", [
    ("(5,0)", "need small steps, coordinates in {-1, 0, 1}, got (5,0)"),
    ("(2,0)", "need small steps, coordinates in {-1, 0, 1}, got (2,0)"),
    ("(1,0);0x(0,1)", "need a multiplicity of at least 1, got 0x(0,1)"),
])
def test_walks_bad_steps_exit_2(capsys, steps, message):
    code, out, err = run(capsys, ["walks", "--steps", steps, "--n-max", "3"])
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


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
        code, out, _ = run(capsys, ["seq", "--family", "invseq", "--n-max", "6", "--route", route])
        assert code == 0
        outs.add(out)
    assert outs == {"1\n2\n6\n23\n104\n530\n"}


def test_numbers_print_terms_past_the_int_str_limit(capsys):
    # SB_n has more than 4300 digits from n = 4464 on
    limit = sys.get_int_max_str_digits()
    code, out, _ = run(capsys, ["seq", "--family", "sb", "--n-max", "4470", "--format", "bfile"])
    assert code == 0
    lines = out.splitlines()
    last = lines[-1]
    assert last.startswith("4470 ") and len(last) > 4300 + len("4470 ")
    assert sys.get_int_max_str_digits() == limit
    code, out, _ = run(capsys, ["seq", "--family", "sb", "--n-max", "4470", "--format", "json"])
    assert code == 0
    head = '{"family": "sb", "route": "recurrence", "offset": 1, "terms": ['
    assert out.startswith(head) and out.endswith("]}\n")
    assert out[len(head):-3].split(", ") == [line.split()[1] for line in lines]
    assert sys.get_int_max_str_digits() == limit


RECURRENCE_ROUTES = [("sb", "recurrence"), ("baxter", "ollerton"), ("apery", "recurrence")]


@pytest.mark.parametrize("family, route", RECURRENCE_ROUTES)
def test_recurrence_routes_print_the_text_of_their_int_terms(capsys, family, route):
    # these routes print from Decimal terms; every format must match the ints'
    offset = checks.FAMILIES[family]["offset"]
    terms = checks.FAMILIES[family]["routes"][route](300)
    table = io.StringIO()
    csv.writer(table).writerows([("n", "value"), *enumerate(terms, offset)])
    want = {
        "plain": "".join(f"{v}\n" for v in terms),
        "bfile": "".join(f"{n} {v}\n" for n, v in enumerate(terms, offset)),
        "csv": table.getvalue(),
        "json": json.dumps({"family": family, "route": route, "offset": offset,
                            "terms": terms}) + "\n",
    }
    for fmt, text in want.items():
        argv = ["seq", "--family", family, "--route", route, "--n-max", "300", "--format", fmt]
        assert run(capsys, argv) == (0, text, ""), fmt


@pytest.mark.parametrize("family, route", RECURRENCE_ROUTES)
@pytest.mark.parametrize("corrupt", [lambda p, q, r: (p + 1, q, r),
                                     lambda p, q, r: (p, q, 0)])
def test_corrupted_recurrence_exits_2_without_traceback(capsys, monkeypatch, family, route,
                                                        corrupt):
    corrupt_recurrences(monkeypatch, 40, corrupt)
    argv = ["seq", "--family", family, "--route", route, "--n-max", "60", "--format", "bfile"]
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "_40: " in err and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["series", "--check", "kernel", "--trials", "0"],
        ["series", "--check", "reduced", "--a0=0"],
        ["walks", "--steps", "(1,0)", "--estimate-growth", "--n-max", "50"],
        # the walks command's own guards, then two step texts the parser rejects
        ["walks", "--steps", "five", "--n-max", "-1"],
        ["walks", "--steps", "five", "--estimate-growth", "--n-max", "49"],
        ["walks", "--steps", ";", "--n-max", "3"],
        ["walks", "--steps", "(1,0)x", "--n-max", "3"],
    ],
)
def test_engine_value_error_exits_2_without_traceback(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_kernel_above_quadratic_exits_2_without_traceback(capsys, monkeypatch):
    # a rule whose kernel has no group of Möbius involutions is a usage error
    rule = rules.parse_rule("axiom (1,1)\nrow (i, k+1) for i = 1..h\n"
                            "row (h+2, i) for i = 1..k\n", "deep")
    monkeypatch.setitem(rules.RULES, "semi", rule)
    assert run(capsys, ["series", "--check", "kernel", "--trials", "2"]) == (
        2, "", "error: rule deep: its kernel is not quadratic in y\n")


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


def test_excursions_and_growth_estimate_are_exclusive(capsys):
    # a growth report would otherwise silently drop the --excursions request
    with pytest.raises(SystemExit) as exc:
        cli.main(["walks", "--steps", "five", "--n-max", "60", "--excursions",
                  "--estimate-growth"])
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert "argument --estimate-growth: not allowed with argument --excursions" in err
    assert "Traceback" not in err


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


@pytest.mark.parametrize("check, traced", [
    ("W", "solve_W"), ("F", "build_F"), ("omega", "omega_geq"),
    ("residual-semi", "residual_semi"), ("residual-strong", "residual_strong"),
    ("reduced", "verify_reduced_identity"), ("kernel", "kernel_invariance"),
])
def test_each_series_choice_reaches_its_traced_function(capsys, monkeypatch, check, traced):
    # the tracer wraps the series attribute, so a choice must call it there
    real, calls = getattr(series, traced), []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(series, traced, counted)
    code, _, err = run(capsys, ["series", "--check", check, "--order", "4", "--trials", "1"])
    assert (code, err) == (0, "") and calls


def test_series_rejects_an_unknown_check_listing_the_seven(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["series", "--check", "nope"])
    err = capsys.readouterr().err
    assert exc.value.code == 2 and "argument --check: invalid choice: 'nope'" in err
    assert re.findall(r"[\w-]+", err.split("choose from", 1)[1]) == [
        "W", "F", "omega", "residual-semi", "residual-strong", "kernel", "reduced"]


def test_series_w_prints_its_first_two_rows(capsys):
    assert run(capsys, ["series", "--check", "W", "--order", "5"]) == (0, (
        "fixpoint verified to order 5\n"
        "[x^1] = 1 + 2*a^1 + 1*a^2\n"
        "[x^2] = 1*a^-1 + 5 + 9*a^1 + 7*a^2 + 2*a^3\n"), "")


def test_walks_growth_plain_prints_one_key_per_line(capsys):
    code, out, err = run(capsys, ["walks", "--n-max", "60", "--estimate-growth"])
    rep = walks.growth_estimate(walks.FIVE, 60)
    keys = ("steps", "n_max", "alpha_hat", "rho_hat", "target", "rel_err", "residual_of_minpoly")
    assert (code, out, err) == (0, "".join(f"{key} = {rep[key]}\n" for key in keys), "")


def test_walks_growth_plain_lines_are_the_report_items_in_order(capsys):
    argv = ["walks", "--steps", "seven", "--n-max", "60", "--estimate-growth"]
    code, out, err = run(capsys, argv)
    rep = walks.growth_estimate(walks.SEVEN, 60)
    assert (code, err) == (0, "")
    assert out.splitlines() == [f"{key} = {value}" for key, value in rep.items()]
    # the text report and the JSON one carry the same keys in the same order
    _, out_json, _ = run(capsys, argv + ["--format", "json"])
    assert list(json.loads(out_json)) == [line.split(" = ")[0] for line in out.splitlines()]


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


def test_check_json_report_keys_are_in_order(capsys):
    code, out, _ = run(capsys, ["check", "--suite", "quick", "--format", "json"])
    doc = json.loads(out)
    assert (code, list(doc)) == (0, ["suite", "seed", "passed", "failed", "reports"])
    assert len(doc["reports"]) == 25
    for rep in doc["reports"]:
        assert list(rep) == ["name", "status", "detail", "elapsed_ms"], rep


# The reader closes stdout early, as `| head -1` does: after one line of
# the multi-megabyte seq output, and before any of the check output.
@pytest.mark.parametrize(
    "argv, lines_read",
    [
        (["seq", "--family", "sb", "--route", "recurrence", "--n-max", "3000"], 1),
        (["check", "--suite", "full", "--format", "json"], 0),
    ],
    ids=["seq", "check"],
)
def test_closed_stdout_exits_1_without_traceback(argv, lines_read):
    env = dict(os.environ, PYTHONPATH=str(Path(baxterlab.__file__).parents[1]))
    proc = subprocess.Popen([sys.executable, "-m", "baxterlab", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    for _ in range(lines_read):
        proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (1, b"")


def test_broken_pipe_points_stdout_at_devnull_and_exits_1(monkeypatch, tmp_path):
    # the handler the subprocess test above reaches, run in this process on
    # a stdout of its own: main points that descriptor at devnull, so the
    # flush at exit cannot raise again
    def closed(args):
        raise BrokenPipeError

    with open(tmp_path / "out", "w") as out:
        monkeypatch.setattr(sys, "stdout", out)
        monkeypatch.setattr(cli, "_cmd_seq", closed)
        assert cli.main(["seq", "--family", "sb", "--n-max", "3"]) == 1
        assert os.path.samestat(os.fstat(out.fileno()), os.stat(os.devnull))
