"""A log magnitude becomes an ordinary float only in ``SignedLogReal.to_float``.

``signedlog.py`` owns the float range's edge; any other module that spells
``math.exp``'s overflow threshold (709.78) as a literal carries a second copy
of that rule. This reads the library sources and changes nothing.
"""

import ast
import math
from pathlib import Path

SOURCES = Path(__file__).resolve().parent.parent / "src" / "dimspec"


def test_no_module_but_signedlog_spells_the_overflow_threshold():
    checked, found = 0, []
    for path in sorted(SOURCES.glob("*.py")):
        if path.name == "signedlog.py":
            continue
        checked += 1
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            value = node.value if isinstance(node, ast.Constant) else None
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                if math.isfinite(value) and math.floor(abs(value)) == 709:
                    found.append(f"{path.name}:{node.lineno}: {value!r}")
    assert checked > 0
    assert found == []
