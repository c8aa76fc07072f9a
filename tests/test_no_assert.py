"""Library invariants raise errors: `python -O` strips `assert` statements."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "diagcat"


def test_library_has_no_assert_statements():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    found = []
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert not found, f"assert statements in the library: {found}"
