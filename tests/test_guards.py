"""Source lints: the package stays under its line cap; series.py types no
polynomial table at module level and W's equation in one place, _v_at;
only rules.py builds or reads a flat level grid; series.py and walks.py
look a rule up by name only in their fixed claims and perms.py reads a
class's name only in messages, so all three act on the rule or class they
are handed; guards must
raise in every interpreter mode, so the package has no assert; a guard
raises ValueError, the one error the CLI reports as a usage error; every
name the package imports is read; every private top-level name it defines
is read; every public one is read or bound by the traced benchmark; and so
is every method of a package class; and `import baxterlab.cli` loads every
package module but not dataclasses, inspect, json or csv."""

import ast
import builtins
import importlib
import os
import subprocess
import sys
from pathlib import Path

import baxterlab


def test_package_has_no_assert_statements():
    root = Path(baxterlab.__file__).parent
    found = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.relative_to(root)}:{node.lineno}")
    assert found == []


def test_package_stays_under_its_line_cap():
    # new code is paid for with deletions: the package's modules hold at
    # most 2,950 lines in all, counted as `wc -l src/baxterlab/*.py` counts
    root = Path(baxterlab.__file__).parent
    total = sum(path.read_bytes().count(b"\n") for path in root.glob("*.py"))
    assert total <= 2950, total


def _module_level_polys(path: Path) -> list[str]:
    """file:line name of each top-level assignment in path whose value
    calls Poly(...) or laurent(...)."""
    found = []
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None and any(
                isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                and call.func.id in ("Poly", "laurent") for call in ast.walk(node.value)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [f"{path.name}:{node.lineno} {ast.unparse(t)}" for t in targets]
    return found


def test_series_types_no_polynomial_at_module_level():
    # each rule's equation, its kernel group, and F and P of the semi kernel
    # method are derived; a module-level Poly or laurent literal in series.py
    # would be hand-typed series maths coming back
    assert _module_level_polys(Path(baxterlab.__file__).parent / "series.py") == []


def test_w_equation_is_typed_once():
    # every solve of W, at a symbolic a, at a = 2^b or at a0 = p/q, goes
    # through series._v_at, the one call of online_fixpoint in the package
    root = Path(baxterlab.__file__).parent

    def calls(node: ast.AST) -> list[int]:
        return [n.lineno for n in ast.walk(node) if isinstance(n, ast.Call) and "online_fixpoint"
                in (getattr(n.func, "id", None), getattr(n.func, "attr", None))]

    found = [f"{path.relative_to(root)}:{line}" for path in sorted(root.rglob("*.py"))
             for line in calls(ast.parse(path.read_text(), filename=str(path)))]
    in_v_at = [f"series.py:{line}" for name, fn in _functions(root / "series.py")
               if name == "_v_at" for line in calls(fn)]
    assert len(in_v_at) == 1 and found == in_v_at, found


def test_grid_layout_stays_in_rules():
    # a level travels as its live rows, and rules._step adds suffix sums row by
    # row into the next level's rows without a grid, so no module outside
    # rules.py builds a level grid (_grid) or reads one back (_rows).  Names in
    # doctest strings are text, not references.
    root = Path(baxterlab.__file__).parent
    found = [f"{path.relative_to(root)}:{node.lineno}" for path in sorted(root.rglob("*.py"))
             if path.name != "rules.py"
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if {"_rows", "_grid"} & {getattr(node, "id", None), getattr(node, "attr", None),
                                      *(a.name for a in getattr(node, "names", ()))}]
    assert found == []


def _functions(path: Path):
    """(qualified name, node) of each top-level function and method in path."""
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{f.name}", f) for f in node.body
                        if isinstance(f, ast.FunctionDef))


# the fixed claims about named built-in rules; every other function in
# series.py acts on the SuccessionRule it is handed
_NAMED_CLAIMS = {"residual_semi", "residual_strong", "_kernel_data", "verify_reduced_identity"}


def _rules_lookups(path: Path) -> set[str]:
    """Names of the top-level functions and methods in path that subscript RULES."""
    return {name for name, fn in _functions(path) for node in ast.walk(fn)
            if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
            and node.value.id == "RULES"}


def test_series_looks_rules_up_only_in_its_fixed_claims():
    # a rule parsed at run time must work without an entry in RULES; the
    # kernel probe takes its rule and claimed order from the checks registry
    assert _rules_lookups(Path(baxterlab.__file__).parent / "series.py") <= _NAMED_CLAIMS


def test_walks_looks_rules_up_only_in_its_strong_claims():
    # every other walks function acts on the step multiset or rule it is handed
    assert _rules_lookups(Path(baxterlab.__file__).parent / "walks.py") == {
        "strong_from_walks", "strong_refinement_residual"}


def _outside_f_strings(node: ast.AST):
    """node and the nodes below it, not descending into f-strings."""
    stack = [node]
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, ast.JoinedStr):
            stack.extend(ast.iter_child_nodes(node))


def test_perms_reads_a_class_name_only_in_messages():
    # what a class can do follows from its patterns; checks pairs classes
    # with rules, so no function in perms.py branches on a class's name
    path = Path(baxterlab.__file__).parent / "perms.py"
    found = [f"perms.py:{node.lineno} {name}" for name, fn in _functions(path)
             for node in _outside_f_strings(fn)
             if isinstance(node, ast.Attribute) and node.attr == "name"]
    assert found == []


def test_package_raises_no_builtin_exception_but_value_error():
    # `raise _not_positive(...)` and argparse.ArgumentTypeError pass: only
    # a bare builtin name such as RuntimeError or KeyError is flagged
    root = Path(baxterlab.__file__).parent
    found = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            builtin = isinstance(exc, ast.Name) and getattr(builtins, exc.id, None)
            if (isinstance(builtin, type) and issubclass(builtin, BaseException)
                    and builtin is not ValueError):
                found.append(f"{path.relative_to(root)}:{node.lineno} {exc.id}")
    assert found == []


def test_package_has_no_unused_imports():
    # a name imported but never read is dead weight; "# noqa" keeps one
    # binding that code outside the package looks up on purpose
    root = Path(baxterlab.__file__).parent
    found = []
    for path in sorted(root.rglob("*.py")):
        text = path.read_text()
        lines = text.splitlines()
        tree = ast.parse(text, filename=str(path))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read and "# noqa" not in lines[alias.lineno - 1]:
                    found.append(f"{path.relative_to(root)}:{alias.lineno} {name}")
    assert found == []


def _top_level_names():
    """(module, name, where) of every name a package module defines at top
    level, and the set of names the package reads anywhere."""
    root = Path(baxterlab.__file__).parent
    defined = []
    read = set()
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        module = ".".join(("baxterlab", *path.relative_to(root).with_suffix("").parts))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            defined += [(module, name, f"{path.relative_to(root)}:{node.lineno} {name}")
                        for name in names if not name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    return defined, read


def test_package_reads_every_private_top_level_name():
    # a private helper that only tests (or nothing) read belongs in the tests
    defined, read = _top_level_names()
    private = [(name, where) for _, name, where in defined if name.startswith("_")]
    assert private
    found = [where for name, where in private if name not in read]
    assert found == []


def _traced(monkeypatch) -> set:
    """(module, name) of each top-level name and (module, class, method) of
    each method that perfbench/layers.targets() binds."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    bound = set()
    for t in importlib.import_module("layers").targets():
        module, _, cls = t.owner.partition(":")
        bound.add((module, cls, t.attr) if cls else (module, t.attr))
    return bound


def test_every_public_top_level_name_is_read_or_traced(monkeypatch):
    # a public name that neither the package reads nor the traced benchmark
    # binds (perfbench/layers.targets()) is API nobody calls; the names only
    # the benchmark binds are listed so that moving the benchmark onto other
    # entry points shows which of them can go
    bound = {(module, cls) for module, cls, *_ in _traced(monkeypatch)}
    defined, read = _top_level_names()
    public = [(module, name, where) for module, name, where in defined
              if not name.startswith("_")]
    assert public
    assert [where for module, name, where in public
            if name not in read and (module, name) not in bound] == []
    assert sorted(name for module, name, _ in public
                  if name not in read and (module, name) in bound) == [
        "distribution", "label_census", "q_table", "sb_via_apery", "total_via_formula"]


def test_every_method_is_read_or_traced(monkeypatch):
    # a method or property of a package class that the package never reads
    # is API only tests call; dunders are left out, as Python reads them
    bound = _traced(monkeypatch)
    _, read = _top_level_names()
    root = Path(baxterlab.__file__).parent
    methods = []
    for path in sorted(root.rglob("*.py")):
        module = ".".join(("baxterlab", *path.relative_to(root).with_suffix("").parts))
        for cls in ast.parse(path.read_text(), filename=str(path)).body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if isinstance(node, ast.FunctionDef) and not node.name.startswith("__"):
                    where = f"{path.relative_to(root)}:{node.lineno} {cls.name}.{node.name}"
                    methods.append((module, cls.name, node.name, where))
    assert methods
    assert [where for module, cls, name, where in methods
            if name not in read and (module, cls, name) not in bound] == []


def test_cli_import_loads_the_package_but_not_unneeded_stdlib():
    # every CLI request pays this import before it works: the package's
    # modules load there (none lazily), while dataclasses (which pulls in
    # inspect), json and csv stay off the path; -S keeps what site-packages
    # preload out of the "before" set
    code = ("import sys; before = set(sys.modules); import baxterlab.cli; "
            "print(*sorted(set(sys.modules) - before))")
    root = Path(baxterlab.__file__).parent
    env = dict(os.environ, PYTHONPATH=str(root.parent))
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          timeout=60, env=env, check=True)
    new = set(done.stdout.split())
    assert new.isdisjoint({"dataclasses", "inspect", "json", "csv"}), sorted(new)
    package = {f"baxterlab.{path.stem}" for path in root.glob("*.py")
               if path.stem not in ("__init__", "__main__")}
    assert package and package <= new, sorted(package - new)
