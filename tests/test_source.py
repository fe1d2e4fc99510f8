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


def _outside_functions(body):
    """The statements of a module body, into if/try/with/for blocks but not
    into function or class bodies."""
    for node in body:
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            for field in ("body", "orelse", "finalbody", "handlers"):
                yield from _outside_functions(getattr(node, field, []))


def test_library_keeps_no_module_level_cache():
    # a result worth keeping is kept on the object it belongs to (as
    # MonomialIdeal keeps its componentwise verdicts), never in a table
    # shared by the whole process: no lru_cache/cache decorator and no
    # module-level dict, list or set
    containers = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            for dec in getattr(node, "decorator_list", ()):
                dec = dec.func if isinstance(dec, ast.Call) else dec
                if getattr(dec, "attr", getattr(dec, "id", None)) in ("lru_cache", "cache"):
                    found.append(f"{path.name}:{dec.lineno} decorator")
        for node in _outside_functions(tree.body):
            value = getattr(node, "value", None)
            if not isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                continue
            if isinstance(value, containers) or (
                isinstance(value, ast.Call)
                and getattr(value.func, "id", None) in ("dict", "list", "set")
            ):
                found.append(f"{path.name}:{node.lineno} module-level container")
    assert found == []


def test_library_reads_no_environment():
    # every setting reaches the library as an argument or a command-line
    # option, never through an environment variable
    modules = sorted(SRC.glob("*.py"))
    assert modules
    found = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                used = node.attr if getattr(node.value, "id", None) == "os" else None
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                used = next((a.name for a in node.names
                             if a.name in ("environ", "getenv")), None)
            else:
                continue
            if used in ("environ", "getenv"):
                found.append(f"{path.name}:{node.lineno} os.{used}")
    assert found == []
