"""The benchmark harness imports library names at module level; a name that
no longer resolves makes every benchmark run die before it measures anything.
This reads the harness sources and changes nothing under ``benchmarks/``."""

import ast
import importlib
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
HARNESS_FILES = ("probes.py", "workloads.py", "warmup.py")
LIBRARY_MODULES = ("dimspec", "dimspec.cli")


def test_harness_imports_resolve():
    imported, missing = 0, []
    for name in HARNESS_FILES:
        tree = ast.parse((BENCHMARKS / name).read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module in LIBRARY_MODULES:
                module = importlib.import_module(node.module)
                for alias in node.names:
                    imported += 1
                    if not hasattr(module, alias.name):
                        missing.append(f"{name}: from {node.module} import {alias.name}")
    assert imported > 0
    assert missing == []
