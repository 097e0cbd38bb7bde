"""An integer argument is checked in one place: ``errors.require_int``.

A hand-written ``isinstance(x, bool)`` beside an ``isinstance(x, int)`` is a
second copy of that check, with its own gaps. The one kept is
``radial_ground_state``'s real-number check on ``alpha``, where a bool is not
a real either. Hot paths that must not pay for a call spell the check
``type(x) is int``. This reads the library sources and changes nothing.
"""

import ast
from pathlib import Path

SOURCES = Path(__file__).resolve().parent.parent / "src" / "dimspec"

# (module, function) pairs allowed to test for bool
ALLOWED = {("errors.py", "require_int"), ("oracle.py", "radial_ground_state")}


def _tests_for_bool(node: ast.AST) -> bool:
    """Whether ``node`` is a call isinstance(x, bool) or isinstance(x, (..., bool))."""
    if not (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"):
        return False
    kinds = node.args[1] if len(node.args) == 2 else None
    names = kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]
    return any(getattr(name, "id", None) == "bool" for name in names)


def test_no_function_but_the_helper_tests_for_bool():
    checked, found = 0, []
    for path in sorted(SOURCES.glob("*.py")):
        checked += 1
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = [
            range(func.lineno, func.end_lineno + 1)
            for func in ast.walk(tree)
            if isinstance(func, ast.FunctionDef) and (path.name, func.name) in ALLOWED
        ]
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if _tests_for_bool(node) and not any(node.lineno in lines for lines in allowed)
        ]
    assert checked > 0
    assert found == []
