"""The library computes in floats; mpmath is imported but never called.

``oracle.py`` keeps a bare ``import mpmath`` only because the benchmark's
``-X importtime`` probe requires ``import dimspec`` to load it. One 40-digit
mpmath evaluation costs about twice a whole float ``minimize_v_eff`` call, so
any ``mpmath.<name>`` in the library is a cost paid per query. ROADMAP item 1
relaxes the probe, and the change that does so deletes the import too. This
reads the library sources and changes nothing.
"""

import ast
from pathlib import Path

SOURCES = Path(__file__).resolve().parent.parent / "src" / "dimspec"


def test_no_module_calls_into_mpmath():
    checked, found = 0, []
    for path in sorted(SOURCES.glob("*.py")):
        checked += 1
        tree = ast.parse(path.read_text(encoding="utf-8"))
        # every name the module binds to mpmath itself, aliases included
        names = {
            alias.asname or alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.Import)
            for alias in node.names
            if alias.name == "mpmath"
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "mpmath":
                found.append(f"{path.name}:{node.lineno}: from {node.module} import")
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in names
            ):
                found.append(f"{path.name}:{node.lineno}: {node.value.id}.{node.attr}")
    assert checked > 0
    assert found == []
