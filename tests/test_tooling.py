"""The traced benchmark binds baxterlab functions by name, so a rename
must fail here instead of crashing the traced run, and so must a registry
row or family route that holds a traced function; tools/same_outputs.py
must list every request it promises and report each one that differs; and
tools/traffic.py must name the lines no benchmark request reaches."""

import functools
import importlib
import importlib.util
import re
import runpy
import subprocess
import sys
import types
from pathlib import Path

from baxterlab import checks

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def _traced_owners(monkeypatch):
    """Each traced target with the module or class that holds its attribute,
    None where that class is gone."""
    # layers imports its sibling tracer by bare name; both are only read
    monkeypatch.syspath_prepend(str(PERFBENCH))
    owners = []
    for t in importlib.import_module("layers").targets():
        module, _, cls = t.owner.partition(":")
        owner = importlib.import_module(module)
        owners.append((t, vars(owner).get(cls) if cls else owner))
    return owners


def test_every_traced_target_resolves(monkeypatch):
    owners = _traced_owners(monkeypatch)
    missing = [t.name for t, owner in owners if owner is None or t.attr not in vars(owner)]
    assert owners and not missing, missing


def test_no_registry_row_or_route_captures_a_traced_function(monkeypatch):
    # the tracer rebinds module attributes: a row or route holding a traced
    # function object would call the original and hide its calls
    traced = {id(vars(owner)[t.attr]): t.name for t, owner in _traced_owners(monkeypatch)}
    todo = [fn for fn, *_ in checks._REGISTRY.values()]
    todo += [route for cfg in checks.FAMILIES.values() for route in cfg["routes"].values()]
    captured = set()
    while todo:
        obj = todo.pop()
        if id(obj) in traced:
            captured.add(traced[id(obj)])
        elif isinstance(obj, functools.partial):
            todo += [obj.func, *obj.args, *obj.keywords.values()]
        elif isinstance(obj, checks.Recurrence):
            todo.append(obj.run)
        elif isinstance(obj, types.FunctionType):
            todo += [*(obj.__defaults__ or ()), *(c.cell_contents for c in obj.__closure__ or ())]
    assert not captured, sorted(captured)


def _tool(name):
    path = ROOT / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_same_outputs_lists_every_benchmark_request_and_the_seeded_ones(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    argvs = _tool("same_outputs").request_list()
    bench = [r.argv for w in ("terms-deep", "series-deep") for r in workloads.requests(w, 0)]
    assert set(bench) <= set(argvs) and len(argvs) == len(set(argvs))
    checks = [a for a in argvs if a[0] == "check"]
    kernel = [a for a in argvs if a[:3] == ("series", "--check", "kernel")]
    assert sorted((a[2], a[-1]) for a in checks) == [
        ("full", "0"), ("full", "1000"), ("quick", "0"), ("quick", "1000")]
    assert sorted(int(a[-1]) for a in kernel) == list(range(21))
    assert all(a[a.index("--trials") + 1] == "40" for a in kernel)
    assert {("series", "--check", "F", "--order", "20"),
            ("series", "--check", "omega", "--order", "15"),
            ("series", "--check", "reduced", "--order", "12", "--a0=2")} <= set(argvs)
    growth = [a for a in argvs if "--estimate-growth" in a]
    assert len(growth) == 23
    assert {a[2] for a in growth} == {"five", "seven", "(-1,0);(0,-1);(1,1);(0,0)",
                                      "(-1,0);(0,-1);(1,-1);(1,0);(0,1);3x(0,0)"}
    assert {("five", "440"), ("seven", "364")} <= {(a[2], a[4]) for a in growth}
    excursions = [(a[2], a[4]) for a in argvs if "--excursions" in a]
    assert excursions == [("five", "300"), ("seven", "300"), ("(-1,0);(0,-1);(1,1)", "120")]
    brute = sorted((a[2], int(a[-1])) for a in argvs if "brute" in a)
    assert brute == sorted([("exp1423", n) for n in (3, 4, 10, 11)] + [
        (family, 10) for family in ("semi", "plane", "baxter", "twisted", "strong", "av231",
                                    "invseq")])
    invseq = [(a[4], a[-1]) for a in argvs if a[:3] == ("seq", "--family", "invseq")]
    assert invseq == [("formula", "40"), ("dp", "40"), ("brute", "10")]
    closed = [(a[4], a[-1]) for a in argvs if a[:3] == ("seq", "--family", "sb")
              and a[4] in ("sum", "d")]
    assert closed == [("sum", "150"), ("d", "150")]
    strong = [a[-1] for a in argvs if a[:5] == ("seq", "--family", "strong", "--route", "walks")]
    assert {"1", "2", "60", "300"} <= set(strong)


def test_same_outputs_digest_drops_only_the_check_timings():
    digest = _tool("same_outputs").digest
    a = b'{"reports": [{"name": "x", "status": "pass", "elapsed_ms": 1.5}]}'
    b = b'{"reports": [{"name": "x", "status": "pass", "elapsed_ms": 7.0}]}'
    c = b'{"reports": [{"name": "x", "status": "fail", "elapsed_ms": 1.5}]}'
    argv = ("check", "--format", "json")
    assert digest(argv, a) == digest(argv, b) != digest(argv, c)
    assert digest(("seq",), a) != digest(("seq",), b)
    assert digest(argv, b"not json") == digest(("seq",), b"not json")


def _tree(root, text):
    """A source tree whose baxterlab prints text and its argv, and exits 3 on "bad"."""
    package = root / "src" / "baxterlab"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "__main__.py").write_text(
        f"import sys\nprint({text!r}, sys.argv[1:])\nsys.exit(3 if 'bad' in sys.argv else 0)\n")
    return root


def test_same_outputs_reports_each_request_that_differs(tmp_path):
    tool = _tool("same_outputs")
    old, same, new = (_tree(tmp_path / d, t) for d, t in (("a", "x"), ("b", "x"), ("c", "y")))
    argvs = [("seq",), ("bad",)]
    assert tool.compare(old, same, argvs) == []
    diffs = tool.compare(old, new, argvs)
    assert [(argv, a[0], b[0]) for argv, a, b in diffs] == [(("seq",), "0", "0"),
                                                           (("bad",), "3", "3")]
    assert all(a[1] != b[1] for _, a, b in diffs)


def test_traffic_names_every_module_and_the_lines_the_smoke_run_reaches():
    # a fresh interpreter, which traces the package's import too
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "traffic.py"), "--smoke"],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0].endswith("(smoke sizes, seed 0)")
    modules = [m[1] for m in map(re.compile(r"(\w+): \d+ of \d+ executable lines").match, lines)
               if m]
    assert modules == sorted(p.stem for p in (ROOT / "src" / "baxterlab").glob("*.py"))
    # the kernel request runs all of _mod_p, and the import all of rules' module body
    assert not any(v.startswith(("  series._mod_p:", "  rules.<module>:")) for v in lines)


def test_traffic_lists_by_function_the_lines_no_run_reaches(tmp_path):
    package = tmp_path / "planted"
    package.mkdir()
    module = package / "mod.py"
    module.write_text(
        '"""doc"""\n'
        "def used(x):\n"
        "    return x + 1\n"
        "\n"
        "def unused(x):\n"
        '    """doc"""\n'
        "    y = x * 2\n"
        "    return [v for v in (y,)]\n"
        "\n"
        "class C:\n"
        "    def m(self):\n"
        "        return 1\n")
    tool = _tool("traffic")
    hit = tool.reached(lambda: runpy.run_path(str(module))["used"](1))
    assert tool.report(package, hit) == [
        "mod: 3 of 9 executable lines unreached", "  mod.unused: 7-8", "  mod.C.m: 12"]
