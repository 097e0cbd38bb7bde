"""Rules about where a decision may be written in the library's source.

Each rule names the one place that owns a decision and fails on a second
copy of it elsewhere:

* a log magnitude becomes an ordinary float only in
  ``SignedLogReal.to_float``: no other module spells ``math.exp``'s overflow
  threshold (709.78) as a literal;
* an integer argument is checked in ``errors.require_int``: no other
  function tests ``isinstance(x, bool)``, except ``radial_ground_state``'s
  real-number check on ``alpha``, where a bool is not a real either. The
  inline ``type(x) is int`` gates are left only in ``classify_coupling``
  and ``SignedLogReal.to_decimal``, which raise their own error;
* ``model.py`` is the one statement of the short-range outcome: no other
  module spells its reason, "the potential is short-range", or its code,
  "short-range";
* each computation has one checked entry point: no library module imports
  an underscore name from ``spectrum.py`` or ``potential.py``, so every
  energy and coupling, a scan record's included, comes through
  ``e0_general`` and its gate ``EnergyQuery``, or ``alpha_coefficient``;
* no library module imports a name it never reads, except
  ``__init__.py``, whose imports are the package's re-exports, and
  ``oracle.py``'s ``import mpmath`` (next rule); ``from __future__``
  directives bind no name the code reads;
* the value types a record is built from (``SystemParams``,
  ``PotentialSpec``, ``EnergyOutcome``, ``ScanRecord``, ``SignedLogReal``,
  ``EnergyQuery``) are ``@dataclass(frozen=True, slots=True)``: the grid
  memo keeps up to 2 016 records for the life of the process, a parser
  rebuilds every row the memo does not hold, and an instance dict would
  cost time and memory on each;
* the library computes in floats and makes no mpmath call: ``oracle.py``
  keeps a bare ``import mpmath`` only because the benchmark's
  ``-X importtime`` probe requires ``import dimspec`` to load it, and one
  40-digit mpmath evaluation costs about twice a whole float
  ``minimize_v_eff`` call. ROADMAP item 1a relaxes the probe, and the change
  that does so deletes the import too;
* ``model.scheme_m`` is the one statement of which m a coupling scheme
  uses: no other function compares against ``Scheme.M_EQUALS_N`` or
  ``Scheme.M_EQUALS_ONE``, except ``evaluate_point``, which attaches the
  published energies that belong to the m = n scheme;
* each wire format has one writer: only ``report._render_cells`` builds a
  ``csv.writer``, and only ``report.render_json`` calls ``json.dumps``. A
  memoized record's cached CSV line or JSON object is cut from one call of
  its format's writer over the records a write lacks, so a whole document
  joined from them is what the writers write;
* each wire format has two read paths, the whole-text match and the
  rebuild: in ``report.py`` only ``_wire_texts`` reads the grid memo
  ``_GRID_RECORDS``, so no parser looks a row up in it;
* the numpy floor in ``pyproject.toml`` is 2 or more while the library
  calls ``np.trapezoid``, which numpy 2.0 added;
* an exact sum of float exponents, a + b + k v, is ``oracle._exact_sum``,
  exact float parts rounded once by ``math.fsum``: no module calls
  ``as_integer_ratio``, so no big-integer form of the same sum is kept
  beside it.
* a failure's kind is its code and its class is its exit code:
  ``errors.py`` defines exactly ``DimspecError``, ``InvalidParameterError``
  (exit 1, its ``code`` naming the kind) and ``NoConvergenceError``, no other
  library module defines an exception class, and ``run_cli``'s ``except``
  clauses name, besides argparse's ``SystemExit``, only
  ``InvalidParameterError`` (exit 1) and ``DimspecError`` (exit 2), one
  handler each;
* each public name is stated once as an export: every module
  ``__init__.py`` star-imports declares a literal ``__all__`` of names it
  defines at its top level, no name is in two modules' lists, and
  ``__init__.py`` defines no public name but ``__version__`` and
  ``THREADS_ENV_VAR``, so its ``__all__`` is those two plus each module's
  ``__all__``, and ``from dimspec import *`` binds exactly that.

Every rule reads the library sources and changes nothing.
"""

import ast
import math
import re
from pathlib import Path

import pytest

import dimspec

SOURCES = Path(__file__).resolve().parent.parent / "src" / "dimspec"


def _modules() -> list[tuple[str, ast.Module]]:
    """(file name, syntax tree) of every library module, in name order."""
    return [
        (path.name, ast.parse(path.read_text(encoding="utf-8")))
        for path in sorted(SOURCES.glob("*.py"))
    ]


def _lines_of(tree: ast.Module, module: str, allowed: set) -> list[range]:
    """The line ranges of the functions whose (module, name) is allowed."""
    return [
        range(func.lineno, func.end_lineno + 1)
        for func in ast.walk(tree)
        if isinstance(func, ast.FunctionDef) and (module, func.name) in allowed
    ]


def test_no_module_but_signedlog_spells_the_overflow_threshold():
    checked, found = 0, []
    for name, tree in _modules():
        if name == "signedlog.py":
            continue
        checked += 1
        for node in ast.walk(tree):
            value = node.value if isinstance(node, ast.Constant) else None
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                if math.isfinite(value) and math.floor(abs(value)) == 709:
                    found.append(f"{name}:{node.lineno}: {value!r}")
    assert checked > 0
    assert found == []


def test_no_module_but_model_spells_the_short_range_outcome():
    checked, found = 0, []
    for name, tree in _modules():
        if name == "model.py":
            continue
        checked += 1
        found += [
            f"{name}:{node.lineno}: {node.value!r}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and (node.value == "short-range" or "the potential is short-range" in node.value)
        ]
    assert checked > 0
    assert found == []


def test_numpy_floor_admits_what_the_library_calls():
    tomllib = pytest.importorskip("tomllib")
    pyproject = SOURCES.parent.parent / "pyproject.toml"
    dependencies = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["dependencies"]
    floors = [int(m[1]) for dep in dependencies if (m := re.fullmatch(r"numpy>=(\d+)[.\d]*", dep))]
    assert len(floors) == 1
    calls = [
        f"{name}:{node.lineno}"
        for name, tree in _modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "trapezoid"
    ]
    assert floors[0] >= 2 or calls == []


def test_no_module_sums_by_integer_ratios():
    checked, found = 0, []
    for name, tree in _modules():
        checked += 1
        found += [
            f"{name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "as_integer_ratio"
        ]
    assert checked > 0
    assert found == []


# (module, function) pairs allowed to test for bool
BOOL_ALLOWED = {("errors.py", "require_int"), ("oracle.py", "radial_ground_state")}


def _tests_for_bool(node: ast.AST) -> bool:
    """Whether ``node`` is a call isinstance(x, bool) or isinstance(x, (..., bool))."""
    if not (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"):
        return False
    kinds = node.args[1] if len(node.args) == 2 else None
    names = kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]
    return any(getattr(name, "id", None) == "bool" for name in names)


def test_no_function_but_the_helper_tests_for_bool():
    checked, found = 0, []
    for name, tree in _modules():
        checked += 1
        allowed = _lines_of(tree, name, BOOL_ALLOWED)
        found += [
            f"{name}:{node.lineno}"
            for node in ast.walk(tree)
            if _tests_for_bool(node) and not any(node.lineno in lines for lines in allowed)
        ]
    assert checked > 0
    assert found == []


def test_no_module_calls_into_mpmath():
    checked, found = 0, []
    for name, tree in _modules():
        checked += 1
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
                found.append(f"{name}:{node.lineno}: from {node.module} import")
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in names
            ):
                found.append(f"{name}:{node.lineno}: {node.value.id}.{node.attr}")
    assert checked > 0
    assert found == []


# (module, class) of the value types every record is built from
SLOTTED = {
    ("model.py", "SystemParams"),
    ("model.py", "PotentialSpec"),
    ("model.py", "EnergyOutcome"),
    ("model.py", "ScanRecord"),
    ("signedlog.py", "SignedLogReal"),
    ("spectrum.py", "EnergyQuery"),
}


def _dataclass_options(cls: ast.ClassDef) -> dict:
    """The constant keyword arguments of ``cls``'s ``@dataclass(...)``."""
    for deco in cls.decorator_list:
        if isinstance(deco, ast.Call) and getattr(deco.func, "id", None) == "dataclass":
            return {kw.arg: getattr(kw.value, "value", None) for kw in deco.keywords}
    return {}


def test_record_value_types_stay_frozen_and_slotted():
    options = {
        (name, node.name): _dataclass_options(node)
        for name, tree in _modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and (name, node.name) in SLOTTED
    }
    assert set(options) == SLOTTED
    assert [
        f"{name}: {cls}"
        for (name, cls), kw in sorted(options.items())
        if not (kw.get("frozen") is True and kw.get("slots") is True)
    ] == []


# (module, function) pairs allowed to compare against a scheme that fixes m
SCHEME_ALLOWED = {("model.py", "scheme_m"), ("feasibility.py", "evaluate_point")}
_SCHEMES_WITH_M = {"M_EQUALS_N", "M_EQUALS_ONE"}
_COMPARISONS = (ast.Is, ast.IsNot, ast.Eq, ast.NotEq, ast.In, ast.NotIn)


def _compares_a_scheme(node: ast.AST) -> bool:
    """Whether ``node`` is an is/==/in comparison (or its negation) with
    Scheme.M_EQUALS_N or Scheme.M_EQUALS_ONE among its operands, a tuple or
    list of schemes included."""
    if not (isinstance(node, ast.Compare) and any(isinstance(op, _COMPARISONS) for op in node.ops)):
        return False
    return any(
        isinstance(part, ast.Attribute)
        and part.attr in _SCHEMES_WITH_M
        and getattr(part.value, "id", None) == "Scheme"
        for operand in (node.left, *node.comparators)
        for part in ast.walk(operand)
    )


def test_no_function_but_scheme_m_tells_the_schemes_apart():
    checked, found = 0, []
    for name, tree in _modules():
        checked += 1
        allowed = _lines_of(tree, name, SCHEME_ALLOWED)
        found += [
            f"{name}:{node.lineno}"
            for node in ast.walk(tree)
            if _compares_a_scheme(node) and not any(node.lineno in lines for lines in allowed)
        ]
    assert checked > 0
    assert found == []


# the modules whose public functions are the one checked entry point of
# each energy and coupling
EVALUATORS = {"spectrum", "potential"}


def test_no_module_imports_a_private_name_of_the_evaluators():
    checked, found = 0, []
    for name, tree in _modules():
        checked += 1
        found += [
            f"{name}:{node.lineno}: from .{node.module} import {alias.name}"
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module in EVALUATORS
            for alias in node.names
            if alias.name.startswith("_")
        ]
    assert checked > 0
    assert found == []


# (module, name) pairs allowed to be imported and never read
UNREAD_IMPORT_ALLOWED = {("oracle.py", "mpmath")}


def _imported_names(tree: ast.Module):
    """(line, name) of each name an import binds, ``from __future__``
    directives aside; ``import a.b`` binds ``a``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name


def test_no_module_imports_a_name_it_never_reads():
    checked, found = 0, []
    for name, tree in _modules():
        if name == "__init__.py":
            continue
        checked += 1
        read = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        found += [
            f"{name}:{line}: {imported}"
            for line, imported in _imported_names(tree)
            if imported not in read and (name, imported) not in UNREAD_IMPORT_ALLOWED
        ]
    assert checked > 0
    assert found == []


# (module, function) pairs allowed to write each wire format, and the names
# that write it
WRITERS = {
    ("report.py", "_render_cells"): {"csv.writer", "csv.DictWriter"},
    ("report.py", "render_json"): {"json.dump", "json.dumps"},
}


def _dotted(node: ast.AST) -> str:
    """``csv.writer`` for an attribute read off a module name, the name
    itself for a bare name, else the empty string."""
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        return f"{node.value.id}.{node.attr}"
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        return node.id
    return ""


def test_each_wire_format_has_one_writer():
    names = set().union(*WRITERS.values())
    checked, seen, found = 0, set(), []
    for name, tree in _modules():
        checked += 1
        functions = {
            func.name: range(func.lineno, func.end_lineno + 1)
            for func in ast.walk(tree)
            if isinstance(func, ast.FunctionDef)
        }
        for node in ast.walk(tree):
            written = _dotted(node)
            if written not in names:
                continue
            owners = [
                (module, func)
                for (module, func), allowed in WRITERS.items()
                if written in allowed and module == name and node.lineno in functions.get(func, ())
            ]
            if owners:
                seen.update(owners)
            else:
                found.append(f"{name}:{node.lineno}: {written}")
    assert checked > 0
    assert seen == set(WRITERS)
    assert found == []


def test_only_the_wire_entry_reads_the_grid_memo():
    memo = {"_GRID_RECORDS"}
    readers = [
        func.name
        for func in ast.walk(dict(_modules())["report.py"])
        if isinstance(func, ast.FunctionDef)
        and any(getattr(n, "id", getattr(n, "attr", None)) in memo for n in ast.walk(func))
    ]
    assert readers == ["_wire_texts"]


ERROR_CLASSES = ["DimspecError", "InvalidParameterError", "NoConvergenceError"]


def _is_exception_class(node: ast.AST) -> bool:
    """Whether ``node`` is a class with a base named like an exception."""
    return isinstance(node, ast.ClassDef) and any(
        _dotted(base).rpartition(".")[2].endswith(("Error", "Exception")) for base in node.bases
    )


def _handled(handler: ast.ExceptHandler) -> list[str]:
    """The names an ``except`` clause catches, a tuple's in order."""
    kinds = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return [_dotted(kind) for kind in kinds]


def test_one_error_mechanism():
    modules = dict(_modules())
    defined = [
        (name, node.name)
        for name, tree in modules.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        and (name == "errors.py" or _is_exception_class(node))
    ]
    assert defined == [("errors.py", cls) for cls in ERROR_CLASSES]
    (run_cli,) = [
        func
        for func in ast.walk(modules["cli.py"])
        if isinstance(func, ast.FunctionDef) and func.name == "run_cli"
    ]
    handlers = [_handled(node) for node in ast.walk(run_cli) if isinstance(node, ast.ExceptHandler)]
    assert handlers == [["SystemExit"], ["InvalidParameterError"], ["DimspecError"]]


def _literal_all(tree: ast.Module):
    """The names of a module's one top-level ``__all__ = [...]`` of string
    literals, or None if it has no such list."""
    lists = [
        [elt.value for elt in node.value.elts]
        for node in tree.body
        if isinstance(node, ast.Assign)
        and [getattr(target, "id", None) for target in node.targets] == ["__all__"]
        and isinstance(node.value, ast.List)
        and all(isinstance(getattr(elt, "value", None), str) for elt in node.value.elts)
    ]
    return lists[0] if len(lists) == 1 else None


def _defined(tree: ast.Module) -> set:
    """The names a module's top-level def, class and assignment statements bind."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(
                n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)
            )
    return names


def test_each_public_name_is_stated_once():
    modules = dict(_modules())
    init = modules["__init__.py"]
    starred = [
        node.module
        for node in init.body
        if isinstance(node, ast.ImportFrom)
        and node.level == 1
        and [alias.name for alias in node.names] == ["*"]
    ]
    imports = [node for node in ast.walk(init) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert len(starred) == len(imports) > 0
    assert {n for n in _defined(init) if not n.startswith("_")} == {"THREADS_ENV_VAR"}
    assert _literal_all(init) == ["THREADS_ENV_VAR", "__version__"]
    extended = [
        _dotted(node.value.value)
        for node in init.body
        if isinstance(node, ast.AugAssign)
        and getattr(node.target, "id", None) == "__all__"
        and isinstance(node.value, ast.Attribute)
        and node.value.attr == "__all__"
    ]
    assert extended == starred

    exports, found = {}, []
    for module in starred:
        tree = modules[f"{module}.py"]
        names = _literal_all(tree)
        if names is None:
            found.append(f"{module}.py: no literal __all__")
            continue
        found += [f"{module}.py: {n} is not defined" for n in names if n not in _defined(tree)]
        for n in names:
            if n in exports:
                found.append(f"{module}.py: {n} is also in {exports[n]}.py")
            exports[n] = module
    assert found == []

    namespace = {}
    exec("from dimspec import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(dimspec.__all__)
    assert set(dimspec.__all__) == {"THREADS_ENV_VAR", "__version__", *exports}
