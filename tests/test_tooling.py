"""The traced benchmark binds baxterlab functions by name, so a rename
must fail here instead of crashing the traced run; and tools/same_outputs.py
must list every request it promises and report each one that differs."""

import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_traced_target_resolves(monkeypatch):
    # layers imports its sibling tracer by bare name; both are only read
    monkeypatch.syspath_prepend(str(PERFBENCH))
    targets = importlib.import_module("layers").targets()
    missing = []
    for t in targets:
        module, _, cls = t.owner.partition(":")
        owner = importlib.import_module(module)
        owner = vars(owner).get(cls) if cls else owner
        if owner is None or t.attr not in vars(owner):
            missing.append(t.name)
    assert targets and not missing, missing


def _same_outputs():
    path = Path(__file__).resolve().parents[1] / "tools" / "same_outputs.py"
    spec = importlib.util.spec_from_file_location("same_outputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_same_outputs_lists_every_benchmark_request_and_the_seeded_ones(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    argvs = _same_outputs().request_list()
    bench = [r.argv for w in ("terms-deep", "series-deep") for r in workloads.requests(w, 0)]
    assert set(bench) <= set(argvs) and len(argvs) == len(set(argvs))
    checks = [a for a in argvs if a[0] == "check"]
    kernel = [a for a in argvs if a[:3] == ("series", "--check", "kernel")]
    assert sorted((a[2], a[-1]) for a in checks) == [
        ("full", "0"), ("full", "1000"), ("quick", "0"), ("quick", "1000")]
    assert sorted(int(a[-1]) for a in kernel) == list(range(21))
    assert all(a[a.index("--trials") + 1] == "40" for a in kernel)
    growth = [a for a in argvs if "--estimate-growth" in a]
    assert len(growth) == 22
    assert {a[2] for a in growth} == {"five", "seven", "(-1,0);(0,-1);(1,1);(0,0)"}
    assert {("five", "440"), ("seven", "364")} <= {(a[2], a[4]) for a in growth}
    brute = sorted((a[2], int(a[-1])) for a in argvs if "brute" in a)
    assert brute == sorted([("exp1423", n) for n in (3, 4, 10, 11)] + [
        (family, 10) for family in ("semi", "plane", "baxter", "twisted", "strong", "av231")])


def test_same_outputs_digest_drops_only_the_check_timings():
    digest = _same_outputs().digest
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
    tool = _same_outputs()
    old, same, new = (_tree(tmp_path / d, t) for d, t in (("a", "x"), ("b", "x"), ("c", "y")))
    argvs = [("seq",), ("bad",)]
    assert tool.compare(old, same, argvs) == []
    diffs = tool.compare(old, new, argvs)
    assert [(argv, a[0], b[0]) for argv, a, b in diffs] == [(("seq",), "0", "0"),
                                                           (("bad",), "3", "3")]
    assert all(a[1] != b[1] for _, a, b in diffs)
