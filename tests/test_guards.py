"""Guards must raise in every interpreter mode, so the package has no assert."""

import ast
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
