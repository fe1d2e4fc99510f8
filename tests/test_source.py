"""Rules on the library source itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "polyquot"


def test_library_checks_do_not_rest_on_assert():
    # python -O strips assert statements, so a check in the library must
    # raise instead
    modules = sorted(SRC.glob("*.py"))
    assert modules
    asserts = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert asserts == []
