"""Which lines of ``src/dimspec/`` the tier-1 suite runs, and whether every
failure path is among them.

Usage, from any directory, with pytest and hypothesis installed::

    python tools/linecov.py

It runs the suite under ``tests/`` in this process, as tier-1 does, with
``--hypothesis-seed=0 -p no:cacheprovider``, under a ``sys.settrace`` line
tracer that records the line events of ``src/dimspec/``. Tracing starts
before pytest loads ``tests/conftest.py``, the first module that imports
dimspec, so module and class bodies run under it too; since every such body
runs at import, the report lists only the statements of function bodies.
It then prints

* each module's unreached function-body statements, as line spans;
* for each test file, the number of ``src/dimspec/`` lines that no other
  test file, and no import or collection, reaches.

A statement is reached when any of its lines ran; one without bytecode, such
as a docstring, is never counted. The tool exits 1 when the suite fails, when
another tracer replaced this one, or when any ``raise`` statement, or any
statement in an ``except`` body, anywhere under ``src/dimspec/`` is
unreached; otherwise 0. It does not follow child processes, so code that only
a subprocess test runs reads as unreached. The traced suite takes about four
times as long as the untraced one.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
import types
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = ROOT / "src" / "dimspec"
PYTEST_ARGS = [
    str(ROOT / "tests"),
    "-q",
    "--continue-on-collection-errors",
    "-p",
    "no:cacheprovider",
    "--hypothesis-seed=0",
]
# the context of lines run outside any test: imports and collection
OUTSIDE = "(import and collection)"


class LineTracer:
    """Records each (file, line) of ``src/dimspec/`` that runs, per test
    file; a pytest plugin, so that it knows which test file runs."""

    def __init__(self) -> None:
        self.prefix = os.path.join(SOURCES, "")
        self.reached: dict[str, set] = defaultdict(set)
        self.current = self.reached[OUTSIDE]

    def call(self, frame, event, arg):
        if frame.f_code.co_filename.startswith(self.prefix):
            return self.line
        return None

    def line(self, frame, event, arg):
        if event == "line":
            self.current.add((frame.f_code.co_filename, frame.f_lineno))
        return self.line

    @pytest.hookimpl(hookwrapper=True)
    def pytest_runtest_protocol(self, item, nextitem):
        self.current = self.reached[item.location[0]]
        yield
        self.current = self.reached[OUTSIDE]


def _code_lines(code: types.CodeType) -> set:
    """The lines that ``code`` and the code nested in it have bytecode on."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= _code_lines(const)
    return lines


def _statements(node: ast.AST, in_function=False, in_except=False):
    """(statement, in a function body, in an except body) for every
    statement under ``node``."""
    for field in ("body", "orelse", "finalbody", "handlers"):
        for child in getattr(node, field, ()):
            if isinstance(child, ast.ExceptHandler):
                yield from _statements(child, in_function, True)
                continue
            yield child, in_function, in_except
            yield from _statements(
                child,
                in_function or isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)),
                in_except,
            )


def _lines(stmt: ast.stmt) -> range:
    """A simple statement's lines, or a compound statement's header lines."""
    body = getattr(stmt, "body", None)
    end = body[0].lineno - 1 if body else stmt.end_lineno
    first = min([stmt.lineno, *(d.lineno for d in getattr(stmt, "decorator_list", ()))])
    return range(first, end + 1)


def _spans(ranges: list) -> str:
    """``ranges`` as "a-b" spans, adjacent ones merged."""
    merged: list = []
    for lines in sorted(ranges, key=lambda r: r.start):
        if merged and lines.start <= merged[-1][1] + 1:
            merged[-1][1] = max(merged[-1][1], lines.stop - 1)
        else:
            merged.append([lines.start, lines.stop - 1])
    return ", ".join(f"{a}" if a == b else f"{a}-{b}" for a, b in merged)


def report(tracer: LineTracer) -> int:
    """Prints the report; the number of unreached failure-path statements."""
    reached = set().union(*tracer.reached.values())
    failures = 0
    print("\nUnreached function-body statements of src/dimspec/:")
    for path in sorted(SOURCES.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        live = _code_lines(compile(text, str(path), "exec"))
        unreached, gated = [], []
        for stmt, in_function, in_except in _statements(ast.parse(text)):
            lines = _lines(stmt)
            ran = [(str(path), n) in reached for n in lines if n in live]
            if not ran or any(ran):
                continue
            if in_except or isinstance(stmt, ast.Raise):
                gated.append(lines)
            if in_function:
                unreached.append(lines)
        if unreached:
            print(f"  {path.name}: {_spans(unreached)}")
        if gated:
            print(f"  {path.name}: UNREACHED FAILURE PATH at {_spans(gated)}")
            failures += len(gated)

    seen_by: dict = defaultdict(set)
    for context, lines in tracer.reached.items():
        for key in lines:
            seen_by[key].add(context)
    unique = {context: 0 for context in tracer.reached if context != OUTSIDE}
    for contexts in seen_by.values():
        if len(contexts) == 1 and OUTSIDE not in contexts:
            unique[next(iter(contexts))] += 1
    print("\nsrc/dimspec/ lines only one test file reaches:")
    for context, count in sorted(unique.items(), key=lambda kv: (-kv[1], kv[0])):
        print(f"  {count:5d}  {context}")
    return failures


def main() -> int:
    tracer = LineTracer()
    threading.settrace(tracer.call)
    sys.settrace(tracer.call)
    try:
        status = pytest.main(PYTEST_ARGS, plugins=[tracer])
    finally:
        replaced = sys.gettrace() != tracer.call
        sys.settrace(None)
        threading.settrace(None)
    module = sys.modules.get("dimspec")
    if module is None or not Path(module.__file__).resolve().is_relative_to(SOURCES):
        print(f"linecov: the suite did not import dimspec from {SOURCES}")
        return 1
    failures = report(tracer)
    if status != 0:
        print(f"\nlinecov: the suite failed (pytest exit {int(status)})")
    if replaced:
        print("\nlinecov: another tracer replaced this one during the run")
    if failures:
        print(f"\nlinecov: {failures} raise or except-body statement(s) never ran")
    return 1 if status != 0 or replaced or failures else 0


if __name__ == "__main__":
    sys.exit(main())
