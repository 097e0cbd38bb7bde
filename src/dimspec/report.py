"""Comparison reports and CSV/JSON serialization of scan records.

``table1_compare`` and ``scheme_m1_discrepancies`` set the printed m = n and
m = 1 forms against the general one, ``oracle_equivalence_report`` sets the
general one, read from each point's ``scan`` record, against the V_eff
search over both schemes' windows.

The CSV header is part of the wire contract and is emitted bit-exactly:

    D,n,m,beta,alpha_sign,alpha_lnmag,E0_sign,E0_lnmag,E0_decimal,classification,formula,paper_E0,ratio_log10

Signed-log values are split into their sign and lnmag columns (lossless,
floats written with shortest round-trip repr) plus a 3-significant-digit
decimal string for humans. JSON uses the same keys, with null for fields
that do not apply. ``_record_row`` is the one formatter of a record's cells;
``record_fields`` and every CLI table take their cells from it.

Each record of ``scan``'s memo (``feasibility._GRID_RECORDS``, at most 2 016
records, one per grid point and scheme) gets one wire entry, made the first
time a writer meets it in a list of memoized records: its two texts, its CSV
line as ``_render_cells`` writes it and its JSON object as ``render_json``
writes it inside an array, less its opening brace. The entries a list lacks
are cut from one call of each writer over those records. Each format has its
own index from text to record. A list of records that are all the memoized
objects is written as its entries' texts joined, the CSV header first, each
JSON body after its brace in the array's frame. Equality is not enough: a
coupling lnmag of -0.0 equals the memoized 0.0 but writes its own sign. Any
other list is written record by record by the one formatter and makes no
entry, not even for the memoized records in it.

Each format has two read paths. A ``str`` document that is exactly the
header line and memoized records' lines, or exactly the array's frame
around memoized records' objects, is those records: it is byte for byte what
the writers write for them, so the rebuild path would return equal records
and raise nothing. Any other document is read whole, row by row, by the
rebuild path, and no single line of it is trusted, since a quoted CSV cell
may span lines. The rebuild path raises every error: it reads only the
input cells (D, n, m, beta, the coupling's sign and lnmag, and whether
paper_E0 is set), rebuilds the record with ``build_record``, through the
same checked ``e0_general`` every caller uses, and accepts it only if the
rebuilt record renders to exactly the cells read, and in JSON only if each
cell has its column's type; otherwise it names the first column that
differs, or an unexpected extra field. ``_csv_cells`` converts each CSV row
cell by cell and names the first cell its column cannot read. A document
the reader cannot split at all, a CSV cell past ``csv.field_size_limit()``
or JSON nested past the recursion limit, is rejected as ``bad-header`` (in
the CSV header), ``unparseable`` (in a CSV row) or ``bad-json``. So
``parse(render(x)) == x`` for every record this library writes, no parsed
record contradicts the evaluator, and a parse adds no wire entry.

``render_csv`` and ``render_json`` are the writers behind every CLI table;
``_render_cells``, behind ``render_csv`` and ``render_records_csv``, is the
one ``csv.writer``, and ``render_json``, ``json.dumps(indent=2)`` of any
payload, the one JSON encoder.
"""

from __future__ import annotations

__all__ = [
    "CSV_HEADER",
    "M1Discrepancy",
    "OraclePoint",
    "OracleReport",
    "Table1Row",
    "oracle_equivalence_report",
    "parse_records_csv",
    "parse_records_json",
    "render_records_csv",
    "render_records_json",
    "scheme_m1_discrepancies",
    "sort_records",
    "table1_compare",
]

import csv
import io
import json
import math
from dataclasses import dataclass
from itertools import product
from operator import itemgetter
from typing import Iterable, NamedTuple, Optional, Sequence

from .errors import DimspecError, InvalidParameterError, _shown, require_int
from .feasibility import (
    D_MAX,
    D_MIN,
    N_MAX,
    N_MIN,
    _GRID_RECORDS,
    bound_dims,
    build_record,
    scan,
)
from .model import EnergyOutcome, ScanRecord, Scheme, SystemParams
from .refdata import TABLE1_E0
from .signedlog import SignedLogReal, _LN10
from .spectrum import EnergyQuery, e0_scheme_m1, e0_scheme_m1_rederived, e0_scheme_mn
from .oracle import minimize_v_eff
from .potential import D_LIMIT

CSV_COLUMNS = [
    "D",
    "n",
    "m",
    "beta",
    "alpha_sign",
    "alpha_lnmag",
    "E0_sign",
    "E0_lnmag",
    "E0_decimal",
    "classification",
    "formula",
    "paper_E0",
    "ratio_log10",
]
CSV_HEADER = ",".join(CSV_COLUMNS)

# the formula column's one cell: every record comes from the general closed form
FORMULA = "Eq2"


# -- reference-table comparison ---------------------------------------------


def _ln_ratio(energy: SignedLogReal, paper_E0: float) -> float:
    """ln(computed / published) of a bound energy and its published value."""
    return energy.lnmag - math.log(abs(paper_E0))


@dataclass(frozen=True)
class Table1Row:
    """Computed-versus-published energy at one (D, n) of the m = n scheme."""

    D: int
    n: int
    paper_E0: float  # as printed
    computed_E0: EnergyOutcome

    @property
    def ratio(self) -> Optional[SignedLogReal]:
        """computed / published, when the computed state is bound."""
        if not self.computed_E0.is_bound:
            return None
        return SignedLogReal(1, _ln_ratio(self.computed_E0.energy, self.paper_E0))

    @property
    def ratio_log10(self) -> Optional[float]:
        ratio = self.ratio
        return ratio.lnmag / _LN10 if ratio is not None else None


def table1_compare() -> list[Table1Row]:
    """Evaluate the m = n closed form at every embedded reference point.

    The (3, 1) row is asserted to match the published value at its printed
    two-figure precision; every other row is reported, never asserted, since
    the published n > 1 values do not follow from the printed formulas.
    """
    rows = [
        Table1Row(D, n, TABLE1_E0[(D, n)], e0_scheme_mn(D, n))
        for (D, n) in sorted(TABLE1_E0, key=lambda k: (k[1], k[0]))
    ]
    anchor = next(r for r in rows if (r.D, r.n) == (3, 1))
    if not anchor.computed_E0.is_bound:
        raise DimspecError("anchor row (3,1) failed to evaluate as bound")
    rel = abs(anchor.computed_E0.energy.to_float() - anchor.paper_E0) / abs(anchor.paper_E0)
    if rel > 2e-2:
        raise DimspecError(
            f"anchor row (3,1) deviates from the published value by {rel:.3e}"
        )
    return rows


@dataclass(frozen=True)
class M1Discrepancy:
    """One window point where the printed m = 1 form and the general route differ."""

    D: int
    n: int
    printed: EnergyOutcome
    rederived: EnergyOutcome
    lnmag_gap: Optional[float]  # ln|E_printed| - ln|E_rederived| when both bound


def scheme_m1_discrepancies(n: int) -> list[M1Discrepancy]:
    """Compare the printed m = 1 form against the rederived route over its window.

    Empty for n = 1 (the forms coincide there); non-empty for every n > 1,
    which is the point: the printed form is not a rewriting of the general
    result once n exceeds 1. Two bound energies agree when their ln|E| differ
    by at most 1e-12 relative. n runs up to (D_LIMIT - 1) // 2, where the
    window's last D reaches D_LIMIT; the gamma sums cost ~n^2, seconds there.
    """
    require_int("n", n, 1, (D_LIMIT - 1) // 2)
    out: list[M1Discrepancy] = []
    for D in bound_dims(n, Scheme.M_EQUALS_ONE).members:
        printed = e0_scheme_m1(D, n)
        rederived = e0_scheme_m1_rederived(D, n)
        if printed.is_bound and rederived.is_bound:
            gap = printed.energy.lnmag - rederived.energy.lnmag
            if abs(gap) <= 1e-12 * max(1.0, abs(rederived.energy.lnmag)):
                continue
            out.append(M1Discrepancy(D, n, printed, rederived, gap))
        elif printed.classification is not rederived.classification:
            out.append(M1Discrepancy(D, n, printed, rederived, None))
    return out


# -- record serialization ----------------------------------------------------


def _record_row(rec: ScanRecord) -> tuple:
    """The wire cells of one record, in ``CSV_COLUMNS`` order: the one
    formatter of a record, behind both writers and every CLI table."""
    alpha = rec.alpha
    energy = rec.outcome.energy
    paper = rec.paper_value
    params = rec.params
    if energy is None:
        e_sign = e_lnmag = e_decimal = ratio_log10 = None
    else:
        e_sign, e_lnmag, e_decimal = energy.sign, energy.lnmag, energy.to_decimal()
        ratio_log10 = _ln_ratio(energy, paper) / _LN10 if paper is not None else None
    return (
        params.D,
        params.n,
        params.m,
        rec.beta,
        alpha.sign if alpha is not None else None,
        alpha.lnmag if alpha is not None else None,
        e_sign,
        e_lnmag,
        e_decimal,
        rec.outcome.classification.value,
        FORMULA,
        paper,
        ratio_log10,
    )


def record_fields(rec: ScanRecord) -> dict:
    """The wire fields of one record, keyed and ordered as ``CSV_COLUMNS``."""
    return dict(zip(CSV_COLUMNS, _record_row(rec)))


def _record_from_fields(f: dict) -> ScanRecord:
    """The record rebuilt from its input cells, accepted only if it renders
    back to exactly ``f``. A missing field, a value of the wrong type or out
    of its domain, or any cell the inputs do not give makes it unparseable."""
    try:
        beta = f["beta"]
        if type(beta) is not int:
            raise InvalidParameterError(
                "unparseable", f"beta must be an integer, got {_shown(beta)}"
            )
        alpha = None
        if f["alpha_sign"] is not None:
            try:
                alpha = SignedLogReal(f["alpha_sign"], f["alpha_lnmag"])
            except InvalidParameterError as exc:
                raise InvalidParameterError(
                    "unparseable", f"'alpha_sign' and 'alpha_lnmag' give no coupling: {exc}"
                ) from None
        params = SystemParams(f["D"], f["n"], f["m"])
        rec = build_record(params, beta, alpha, reference=f["paper_E0"] is not None)
    except KeyError as exc:
        raise InvalidParameterError("unparseable", f"record has no {exc.args[0]!r} field") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidParameterError("unparseable", f"unreadable record value: {exc}") from None
    expected = record_fields(rec)
    if expected != f:
        raise InvalidParameterError("unparseable", _first_mismatch(f, expected))
    return rec


class _WireEntry(NamedTuple):
    """The texts of one memoized record, as the one writer of each format
    writes them: its CSV line, ending in its newline, and its JSON object as
    it stands inside an array, after its opening brace."""

    rec: ScanRecord
    csv_line: str
    json_body: str


# The wire entry of every memoized record a writer has met, keyed by id(rec):
# an entry holds its record, so no other object takes that id while the
# entry lives. Beside it, one index per format keys each such record by its
# text there, its CSV line without the newline or its JSON body, which that
# format's parser matches whole documents against. Only a record in
# _GRID_RECORDS gets an entry, so _WIRE and each index hold at most 2 016.
_WIRE: dict[int, _WireEntry] = {}
_CSV_ROWS: dict[str, ScanRecord] = {}
_JSON_ROWS: dict[str, ScanRecord] = {}


def _wire_entries(records: list) -> Optional[list[_WireEntry]]:
    """The wire entry of each of ``records``, if every one is the very record
    the grid memo holds; None if any is not, an equal one included: a
    coupling's lnmag of -0.0 equals the memoized 0.0 but writes its own sign.
    The entries a list lacks are made together, cut from one call of each
    writer over those records; a list that gets None gets no entry."""
    entries = [_WIRE.get(id(rec)) for rec in records]
    if all(entries):
        return entries
    missing = {id(rec): rec for rec, entry in zip(records, entries) if entry is None}
    for rec in missing.values():
        if not isinstance(rec, ScanRecord):
            raise InvalidParameterError("not-a-record", f"need a ScanRecord, got {_shown(rec)}")
    for rec in missing.values():
        key = (rec.params.D, rec.params.n)
        if not any(memo.get(key) is rec for memo in _GRID_RECORDS.values()):
            return None
    rows = [_record_row(rec) for rec in missing.values()]
    # the writers' own output for these records, cut at the record
    # boundaries: the CSV text at each newline after the header line, since
    # no cell holds one, and the JSON array into its objects' bodies
    lines = _render_cells(CSV_COLUMNS, rows).split("\n")[1:-1]
    bodies = _json_bodies(render_json([dict(zip(CSV_COLUMNS, row)) for row in rows]))
    for rec, line, body in zip(missing.values(), lines, bodies, strict=True):
        _WIRE[id(rec)] = _WireEntry(rec, line + "\n", body)
        _CSV_ROWS[line] = rec
        _JSON_ROWS[body] = rec
    return [_WIRE[id(rec)] for rec in records]


def _where(f: dict) -> str:
    return f"record at D={f['D']}, n={f['n']}, m={f['m']}, beta={f['beta']}"


def _first_mismatch(f: dict, expected: dict) -> str:
    """Names the first column of ``f`` that its inputs do not give."""
    where = _where(f)
    for col, value in expected.items():
        if col not in f:
            return f"record has no {col!r} field"
        if f[col] != value:
            return f"{where}: {col!r} reads {f[col]!r}, its inputs give {value!r}"
    extra = next(key for key in f if key not in expected)
    return f"{where}: unexpected field {extra!r}"


def render_csv(rows: Iterable[dict], columns: Sequence[str]) -> str:
    """The CSV writer behind every table: a ``columns`` header, then each
    row's cells in that order."""
    cells = itemgetter(*columns)
    if len(columns) == 1:  # itemgetter of one key returns the cell, not a tuple
        return _render_cells(columns, ((cells(row),) for row in rows))
    return _render_cells(columns, map(cells, rows))


def _render_cells(columns: Sequence[str], rows: Iterable[Sequence]) -> str:
    """The one CSV writer: a ``columns`` header, then each row of cells.
    ``csv.writer`` writes None as an empty cell, a float by ``repr`` and
    anything else by ``str``."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)
    return buf.getvalue()


def render_json(payload) -> str:
    """The one JSON writer, behind every table: ``json.dumps(payload,
    indent=2)``."""
    return json.dumps(payload, indent=2)


def _json_bodies(array: str) -> list[str]:
    r"""The bodies of the objects of a non-empty JSON array as ``render_json``
    writes it: each object as it stands inside the array, after its opening
    brace. At the array's level it joins them by ",\n  "; each opens with
    "{", and an escaped string never holds a raw newline, so ",\n  {" falls
    only between two objects, inside the frame "[\n  {" ... "\n]"."""
    return array[5:-2].split(",\n  {")


def _record_list(records: Iterable[ScanRecord]) -> list:
    """``records`` read once: a list as it is, any other iterable into a new
    list, so a writer can pass over it twice."""
    if isinstance(records, list):
        return records
    try:
        it = iter(records)
    except TypeError:
        raise InvalidParameterError(
            "not-a-record", f"need an iterable of ScanRecords, got {_shown(records)}"
        ) from None
    return list(it)


def render_records_csv(records: Iterable[ScanRecord]) -> str:
    """Records to CSV, input order preserved. A list of memoized records is
    the header and its entries' lines joined; any other list is written
    row by row by the one formatter."""
    records = _record_list(records)
    entries = _wire_entries(records)
    if entries is not None:
        return CSV_HEADER + "\n" + "".join([entry.csv_line for entry in entries])
    return _render_cells(CSV_COLUMNS, map(_record_row, records))


# cell type of each column, in CSV_COLUMNS order: the CSV reader converts each
# cell to it and the JSON reader requires it. An empty cell or a null is None,
# except in the integer key columns, which every record fills
_CSV_KINDS = (int, int, int, int, int, float, int, float, str, str, str, float, float)
_COLUMN_KINDS = tuple(zip(CSV_COLUMNS, _CSV_KINDS))
_CSV_KEYS = frozenset(("D", "n", "m", "beta"))


def parse_records_csv(text: str) -> list[ScanRecord]:
    if not isinstance(text, str):
        raise InvalidParameterError("bad-header", f"expected CSV text, got {_shown(text)}")
    # a text that is the header line and then only memoized records' lines,
    # each with its newline, is byte for byte what render_records_csv writes
    # for those records, so the rebuild path below would return equal
    # records and raise nothing. Any other text is rebuilt whole, row by row:
    # a quoted cell may span lines, so no single line of it is trusted
    lines = text.split("\n")
    if lines[0] == CSV_HEADER and lines[-1] == "":
        by_text = _CSV_ROWS
        try:
            return [by_text[line] for line in lines[1:-1]]
        except KeyError:
            pass
    # the reader raises csv.Error on a text it cannot split: a cell past
    # csv.field_size_limit(), or a carriage return inside an unquoted cell
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader, None)
    except csv.Error as exc:
        raise InvalidParameterError("bad-header", f"unreadable CSV header: {exc}") from None
    if header != CSV_COLUMNS:
        raise InvalidParameterError("bad-header", f"unexpected CSV header {header!r}")
    try:
        return [_record_from_fields(_csv_cells(row)) for row in reader if row]
    except csv.Error as exc:
        raise InvalidParameterError("unparseable", f"unreadable CSV row: {exc}") from None


def _csv_cells(row: list) -> dict:
    """The fields of one CSV row, converted cell by cell in column order, so
    a row of the wrong length or the first cell its column cannot read is
    named."""
    if len(row) != len(CSV_COLUMNS):
        raise InvalidParameterError(
            "unparseable", f"CSV row has {len(row)} cells, expected {len(CSV_COLUMNS)}"
        )
    fields = {}
    for col, kind, cell in zip(CSV_COLUMNS, _CSV_KINDS, row):
        try:
            fields[col] = kind(cell) if cell or col in _CSV_KEYS else None
        except ValueError:
            raise InvalidParameterError(
                "unparseable", f"CSV column {col!r}: cannot read {cell!r} as {kind.__name__}"
            ) from None
    return fields


def render_records_json(records: Iterable[ScanRecord]) -> str:
    """Records to a JSON array of flat objects, input order preserved. A
    non-empty list of memoized records is its entries' objects joined in
    the array's frame; any other list is encoded whole by the one formatter."""
    records = _record_list(records)
    entries = _wire_entries(records)
    if entries:
        return "[\n  {" + ",\n  {".join([entry.json_body for entry in entries]) + "\n]"
    return render_json([record_fields(rec) for rec in records])


def parse_records_json(text: str) -> list[ScanRecord]:
    # a text in the array's frame whose objects are all memoized records'
    # objects is byte for byte what render_records_json writes for those
    # records, so the rebuild path below would return equal records and
    # raise nothing. Any other text, bytes included, is rebuilt whole
    if isinstance(text, str) and text.startswith("[\n  {") and text.endswith("\n]"):
        by_text = _JSON_ROWS
        try:
            return [by_text[body] for body in _json_bodies(text)]
        except KeyError:
            pass
    try:
        payload = json.loads(text)
    except (TypeError, ValueError) as exc:
        raise InvalidParameterError("bad-json", f"not JSON: {exc}") from None
    except RecursionError:
        raise InvalidParameterError("bad-json", "JSON nested too deeply to read") from None
    if not isinstance(payload, list):
        raise InvalidParameterError("bad-json", "expected a top-level JSON array")
    return [_json_record(i, entry) for i, entry in enumerate(payload)]


def _json_record(i: int, entry: dict) -> ScanRecord:
    """``_record_from_fields`` of the array's entry ``i``, an object, with every
    cell of its column's type as well: a JSON 1.0 or true compares equal to
    1, and 0 to 0.0, but the writer never writes one for the other."""
    if type(entry) is not dict:
        raise InvalidParameterError(
            "unparseable", f"JSON array entry {i} is not an object, got {_shown(entry)}"
        )
    rec = _record_from_fields(entry)
    for col, kind in _COLUMN_KINDS:
        value = entry[col]
        if value is not None and type(value) is not kind:
            raise InvalidParameterError(
                "unparseable",
                f"{_where(entry)}: {col!r} reads {value!r} of type {type(value).__name__}, "
                f"not {kind.__name__}",
            )
    return rec


def sort_records(records: Iterable[ScanRecord]) -> list[ScanRecord]:
    """Canonical report order: ascending n, then ascending D."""
    try:
        return sorted(_record_list(records), key=lambda r: (r.params.n, r.params.D, r.params.m))
    except AttributeError as exc:  # a value that is not a ScanRecord
        raise InvalidParameterError("not-a-record", f"need ScanRecords: {exc}") from None


# -- oracle equivalence sweep -------------------------------------------------


@dataclass(frozen=True)
class OraclePoint:
    """ln|E| and r* of one bound point, from the V_eff search and from the
    closed form: its r* is the stationary point at the closed-form depth."""

    D: int
    n: int
    scheme: Scheme
    lnmag_closed: float
    lnmag_oracle: float
    r_star_search: float
    r_star_closed: float

    @property
    def lnmag_deviation(self) -> float:
        return abs(self.lnmag_oracle - self.lnmag_closed) / max(
            1.0, abs(self.lnmag_closed)
        )

    @property
    def r_star_deviation(self) -> float:
        return abs(self.r_star_search - self.r_star_closed) / self.r_star_closed


@dataclass(frozen=True)
class OracleReport:
    """The sweep's points; ``worst_lnmag`` and ``worst_r_star`` are the points
    with the largest ln|E| and r* deviations."""

    points: list[OraclePoint]
    worst_lnmag: OraclePoint
    worst_r_star: OraclePoint

    @property
    def max_lnmag_deviation(self) -> float:
        return self.worst_lnmag.lnmag_deviation

    @property
    def max_r_star_deviation(self) -> float:
        return self.worst_r_star.r_star_deviation


def oracle_equivalence_report(max_n: int = 5, max_D: int = 20) -> OracleReport:
    """Minimize the effective potential at every bound grid point and compare.

    Walks the window of every n up to ``max_n`` in the m = n scheme, then in
    the m = 1 scheme, dimensions capped at ``max_D``. Both caps must lie on
    the scan grid, [N_MIN, N_MAX] and [D_MIN, D_MAX]; they are checked
    before any work. Each point's coupling and closed form are its ``scan``
    record's, so the sweep reads the grid memo and fills it as a scan does.
    """
    require_int("max_n", max_n, N_MIN, N_MAX, "range-bounds")
    require_int("max_D", max_D, D_MIN, D_MAX, "range-bounds")
    points: list[OraclePoint] = []
    for scheme, n in product((Scheme.M_EQUALS_N, Scheme.M_EQUALS_ONE), range(1, max_n + 1)):
        window = [D for D in bound_dims(n, scheme).members if D <= max_D]
        if not window:  # scan rejects an empty axis
            continue
        for rec in scan(window, (n,), scheme):
            alpha, beta, closed = rec.alpha, rec.beta, rec.outcome.energy.lnmag
            found = minimize_v_eff(EnergyQuery(alpha, beta, n, rec.params.D))
            # the closed form's r*: |E0| = alpha r*^-beta (1 - beta/2n)
            ln_r_closed = (alpha.lnmag + math.log1p(-beta / (2 * n)) - closed) / beta
            points.append(
                OraclePoint(
                    D=rec.params.D,
                    n=n,
                    scheme=scheme,
                    lnmag_closed=closed,
                    lnmag_oracle=found.e_min.lnmag,
                    r_star_search=found.r_star,
                    r_star_closed=SignedLogReal(1, ln_r_closed).to_float(),
                )
            )
    if not points:
        raise InvalidParameterError(
            "empty-sweep", f"no bound point with n <= {max_n} and D <= {max_D}"
        )
    return OracleReport(
        points=points,
        worst_lnmag=max(points, key=lambda p: p.lnmag_deviation),
        worst_r_star=max(points, key=lambda p: p.r_star_deviation),
    )
