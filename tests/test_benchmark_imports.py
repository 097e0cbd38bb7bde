"""The benchmark harness imports library names at module level; a name that
no longer resolves makes every benchmark run die before it measures anything.
This reads the harness sources and changes nothing under ``benchmarks/``."""

import ast
import importlib
import os
import subprocess
import sys
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


def test_import_loads_what_the_importtime_probe_requires():
    """The harness's ``-X importtime`` probe (``probes.py::cli``) counts a
    failed operation unless ``import dimspec`` loads dimspec, numpy and
    mpmath, and then drops its three ``cli.import_*`` metrics from the result
    line. Two earlier changes made those imports lazy and both ended with a
    malformed benchmark result this way; this keeps that from recurring
    unnoticed until the probe itself changes. The library makes no mpmath
    call: ``oracle.py`` keeps its ``import mpmath`` only for this probe."""
    src = str(BENCHMARKS.parent / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import dimspec"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    # "import time: self [us] | cumulative | <indent>package", the probe's format
    loaded = {line.rsplit("|", 1)[-1].strip() for line in done.stderr.splitlines()}
    assert {"dimspec", "numpy", "mpmath"} <= loaded
