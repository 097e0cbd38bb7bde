"""Command-line interface.

One verb per capability: ``energy`` and ``potential`` for single points,
``feasible`` for bound-state windows, ``scan`` for grids, ``table1`` for the
comparison against the embedded reference energies, ``verify`` for the
oracle sweep, ``radial`` for the shooting eigensolver. Data goes to stdout,
diagnostics to stderr. Every verb builds its cells once and returns through
one writer, ``_write``, which picks the format and the destination: --out
gets exactly the bytes stdout would. Exit codes: 0 success, 1 invalid
arguments or parameters (a usage error or an ``InvalidParameterError``, whose
code names the kind), 2 numerical failure (any other ``DimspecError``).
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import asdict
from itertools import chain
from pathlib import Path
from typing import Iterator, Optional

from .errors import DimspecError, InvalidParameterError
from .feasibility import bound_dims, build_record, evaluate_point, scan
from .model import ScanRecord, Scheme, SystemParams, scheme_m
from .oracle import KineticConvention, radial_ground_state
from .potential import alpha_coefficient
from .refdata import PAPER_OMITTED_FLAG
from .report import (
    CSV_COLUMNS,
    OraclePoint,
    oracle_equivalence_report,
    record_fields,
    render_csv,
    render_json,
    scheme_m1_discrepancies,
    sort_records,
    table1_compare,
)
from .signedlog import SignedLogReal


def _parse_int_values(text: str) -> Iterator[int]:
    """Accept '7', '3:11' (inclusive) and comma-separated mixes like '1,3:5'.

    The values come out lazily: ``scan`` stops at the first one outside its
    bounds, so a huge range is never expanded.
    """
    spans: list[range] = []
    try:
        for token in text.split(","):
            token = token.strip()
            if ":" in token:
                lo_s, hi_s = token.split(":", 1)
                lo, hi = int(lo_s), int(hi_s)
                if hi < lo:
                    raise argparse.ArgumentTypeError(f"empty range {token!r}")
                spans.append(range(lo, hi + 1))
            elif token:
                value = int(token)
                spans.append(range(value, value + 1))
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse integer set {text!r}") from None
    if not spans:
        raise argparse.ArgumentTypeError(f"empty integer set {text!r}")
    return chain.from_iterable(spans)


def _write(args, text, payload=None, csv_rows=None, csv_columns=()) -> None:
    """The one writer behind every verb, and the only reader of ``args.format``
    and ``args.out``. It renders ``payload`` by ``render_json``, ``csv_rows``
    by ``render_csv`` or calls ``text()``, so only a text run formats the text
    table, and writes the result, newline-terminated, to --out or stdout."""
    if args.format == "json":
        body = render_json(payload)
    elif args.format == "csv":
        body = render_csv(csv_rows, csv_columns)
    else:
        body = text()
    if not body.endswith("\n"):
        body += "\n"
    if args.out:
        try:
            Path(args.out).write_text(body, encoding="utf-8")
        except OSError as exc:
            raise InvalidParameterError(
                "unwritable-output", f"cannot write {args.out}: {exc.strerror or exc}"
            ) from None
    else:
        sys.stdout.write(body)


def _json_float(value: Optional[SignedLogReal]) -> Optional[float]:
    """A plain-float JSON cell: null when the value is missing or no float
    holds it, that is when ``to_float`` saturates to +-inf, which strict JSON
    cannot write, or flushes a nonzero value to 0.0, which would read as a
    zero. The lossless sign and lnmag cells beside it carry the value.
    """
    if value is None:
        return None
    x = value.to_float()
    if math.isinf(x) or (x == 0.0 and value.sign != 0):
        return None
    return x


def _add_io_flags(sub: argparse.ArgumentParser, formats=("csv", "json", "text")) -> None:
    """--out, and --format with the formats the verb writes, if it has a choice."""
    if formats:
        sub.add_argument("--format", choices=formats, default="text")
    else:
        sub.set_defaults(format="text")
    sub.add_argument("--out", metavar="PATH", default=None, help="write output to PATH")


def _energy_record(args) -> ScanRecord:
    scheme = Scheme(args.scheme)
    if scheme is Scheme.EXPLICIT:
        if args.alpha is None or args.beta is None:
            raise InvalidParameterError(
                "missing-coupling", "explicit scheme requires --alpha and --beta"
            )
        if not math.isfinite(args.alpha):
            raise InvalidParameterError("non-finite", f"--alpha must be finite, got {args.alpha!r}")
        params = SystemParams(args.D, args.n, args.m if args.m is not None else 1)
        alpha = SignedLogReal.from_float(args.alpha)
        return build_record(params, args.beta, alpha if alpha.sign != 0 else None, reference=False)
    for flag, value in (("--alpha", args.alpha), ("--beta", args.beta)):
        if value is not None:
            raise InvalidParameterError(
                "scheme-mismatch",
                f"{flag} needs scheme explicit; scheme {args.scheme} derives the coupling",
            )
    if args.m is not None and args.m != scheme_m(args.n, scheme):
        raise InvalidParameterError(
            "scheme-mismatch", f"--m {args.m} conflicts with scheme {args.scheme}"
        )
    return evaluate_point(args.D, args.n, scheme)


# keys of the energy verb's JSON object: the record's wire fields plus the
# coupling and energy as plain floats, minus the reference columns
_ENERGY_JSON_KEYS = (
    "D", "n", "m", "beta", "alpha", "E0", "classification", "formula",
    "alpha_sign", "alpha_lnmag", "E0_sign", "E0_lnmag", "E0_decimal",
)


def cmd_energy(args) -> int:
    rec = _energy_record(args)
    fields = record_fields(rec)
    cells = {**fields, "alpha": _json_float(rec.alpha), "E0": _json_float(rec.outcome.energy)}

    def text() -> str:
        # the requested scheme: an n = 1 point is one record under mn and m1
        lines = [
            f"D={fields['D']} n={fields['n']} m={fields['m']} beta={fields['beta']}"
            f" (scheme {args.scheme})"
        ]
        if rec.alpha is not None:
            lines.append(f"alpha = {rec.alpha.to_decimal(6)} hartree*bohr^beta")
        lines.append(f"classification: {fields['classification']}")
        if rec.outcome.is_bound:
            lines.append(
                f"E0 = {rec.outcome.energy.to_decimal(6)} hartree"
                f" (ln|E0| = {rec.outcome.energy.lnmag!r})"
            )
        elif rec.outcome.reason:
            lines.append(f"reason: {rec.outcome.reason}")
        return "\n".join(lines)

    _write(args, text, {key: cells[key] for key in _ENERGY_JSON_KEYS}, [fields], CSV_COLUMNS)
    return 0


def cmd_potential(args) -> int:
    spec = alpha_coefficient(args.D, args.m)
    row = {
        "D": args.D,
        "m": args.m,
        "beta": spec.beta,
        "nature": spec.nature.value,
        "alpha": _json_float(spec.alpha),
        "alpha_sign": spec.alpha.sign if spec.alpha is not None else None,
        "alpha_lnmag": spec.alpha.lnmag if spec.alpha is not None else None,
        "alpha_decimal": spec.alpha.to_decimal(6) if spec.alpha is not None else None,
    }

    def text() -> str:
        if spec.alpha is None:
            return f"D={args.D} m={args.m}: logarithmic potential (beta = 0), no power-law coupling"
        return (
            f"D={args.D} m={args.m}: alpha = {row['alpha_decimal']} "
            f"({row['nature']}), beta = {spec.beta}"
        )

    _write(args, text, row, [row], [key for key in row if key != "alpha"])
    return 0


def cmd_feasible(args) -> int:
    window = bound_dims(args.n, Scheme(args.scheme))
    for D in window.paper_omitted:
        print(
            f"note: D={D} is {PAPER_OMITTED_FLAG}: the published discussion "
            "skips it although the window inequality admits it",
            file=sys.stderr,
        )
    payload = {**asdict(window), "scheme": window.scheme.value}
    _write(args, lambda: " ".join(map(str, window.members)), payload)
    return 0


def cmd_scan(args) -> int:
    records = sort_records(scan(args.D, args.n, Scheme(args.scheme)))
    rows = [record_fields(rec) for rec in records]

    def text() -> str:
        lines = [f"{'D':>4} {'n':>3} {'m':>3} {'beta':>5}  {'classification':<12} {'E0':>12}"]
        lines.extend(
            f"{row['D']:>4} {row['n']:>3} {row['m']:>3} {row['beta']:>5}  "
            f"{row['classification']:<12} {row['E0_decimal'] or '-':>12}"
            for row in rows
        )
        return "\n".join(lines)

    _write(args, text, rows, rows, CSV_COLUMNS)
    return 0


def cmd_table1(args) -> int:
    table = [
        {
            "D": r.D,
            "n": r.n,
            "computed_E0_decimal": r.computed_E0.energy.to_decimal(),
            "computed_E0_lnmag": r.computed_E0.energy.lnmag,
            "paper_E0": r.paper_E0,
            "ratio": _json_float(r.ratio),
            "ratio_log10": r.ratio_log10,
        }
        for r in table1_compare()
    ]

    def text() -> str:
        lines = [f"{'D':>4} {'n':>3} {'computed':>12} {'published':>12} {'log10 ratio':>12}"]
        lines.extend(
            f"{row['D']:>4} {row['n']:>3} {row['computed_E0_decimal']:>12} "
            f"{row['paper_E0']:>12.2e} {row['ratio_log10']:>12.3f}"
            for row in table
        )
        return "\n".join(lines)

    _write(args, text, table, table, [key for key in table[0] if key != "ratio"])
    return 0


def _point_label(p: OraclePoint) -> str:
    return f"({p.D}, {p.n}, {p.scheme.value})"


def cmd_verify(args) -> int:
    report = oracle_equivalence_report(max_n=args.max_n, max_D=args.max_D)
    m1_windows = (scheme_m1_discrepancies(n) for n in range(2, args.max_n + 1))
    discrepancies = sum(d.D <= args.max_D for window in m1_windows for d in window)
    print(
        f"checked {len(report.points)} bound points: "
        f"max ln|E| deviation {report.max_lnmag_deviation:.3e}, "
        f"max r* deviation {report.max_r_star_deviation:.3e}, "
        f"{discrepancies} printed-m1-form discrepancies, "
        f"worst ln|E| at {_point_label(report.worst_lnmag)}, "
        f"worst r* at {_point_label(report.worst_r_star)}",
        file=sys.stderr,
    )
    crossed = []
    if not report.max_lnmag_deviation <= 1e-8:
        crossed.append("1e-8 in ln|E|")
    if not report.max_r_star_deviation <= 1e-9:
        crossed.append("1e-9 in r*")
    verdict = "exceeds " + " and ".join(crossed) if crossed else "≤ 1e-8"
    _write(args, lambda: f"oracle–closed-form max relative deviation {verdict}")
    return 2 if crossed else 0


def cmd_radial(args) -> int:
    solution = radial_ground_state(
        args.D,
        args.alpha,
        args.beta,
        KineticConvention(args.convention),
        args.excitation,
    )
    payload = {
        "D": args.D,
        "alpha": args.alpha,
        "beta": args.beta,
        "convention": args.convention,
        "excitation": args.excitation,
        "E": solution.energy,
        "shift": solution.shift,
        "nodes": solution.nodes,
        "r_max": solution.r_max,
        "h": solution.h,
        "sweeps": solution.sweeps,
        "matches": solution.matches,
        "steps": solution.steps,
    }

    def text() -> str:
        return (
            f"E = {solution.energy:.9g} hartree (shift={solution.shift:.2g}, "
            f"nodes={solution.nodes}, convention={args.convention}, "
            f"r_max={solution.r_max}, h={solution.h}, "
            f"sweeps={solution.sweeps}, matches={solution.matches}, steps={solution.steps})"
        )

    _write(args, text, payload)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dimspec",
        description=(
            "Bound-state ground energies of a hydrogen atom governed by an "
            "iterated-Laplacian wave equation in D dimensions"
        ),
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_energy = subs.add_parser("energy", help="ground-state energy at one (D, n)")
    p_energy.add_argument("--D", type=int, required=True)
    p_energy.add_argument("--n", type=int, required=True)
    p_energy.add_argument("--m", type=int, default=None)
    p_energy.add_argument("--scheme", choices=sorted(s.value for s in Scheme), default="mn")
    p_energy.add_argument("--alpha", type=float, default=None, help="explicit coupling")
    p_energy.add_argument("--beta", type=int, default=None, help="explicit decay exponent")
    _add_io_flags(p_energy)
    p_energy.set_defaults(func=cmd_energy)

    p_pot = subs.add_parser("potential", help="power-law coupling sourced by a point charge")
    p_pot.add_argument("--D", type=int, required=True)
    p_pot.add_argument("--m", type=int, required=True)
    _add_io_flags(p_pot)
    p_pot.set_defaults(func=cmd_potential)

    p_feas = subs.add_parser("feasible", help="dimensions admitting a bound state")
    p_feas.add_argument("--n", type=int, required=True)
    p_feas.add_argument("--scheme", choices=("mn", "m1"), default="mn")
    _add_io_flags(p_feas, ("json", "text"))
    p_feas.set_defaults(func=cmd_feasible)

    p_scan = subs.add_parser("scan", help="evaluate a (D, n) grid")
    p_scan.add_argument("--D", type=_parse_int_values, required=True, metavar="SET")
    p_scan.add_argument("--n", type=_parse_int_values, required=True, metavar="SET")
    p_scan.add_argument("--scheme", choices=("mn", "m1"), default="mn")
    _add_io_flags(p_scan)
    p_scan.set_defaults(func=cmd_scan)

    p_table = subs.add_parser("table1", help="computed versus embedded reference energies")
    _add_io_flags(p_table)
    p_table.set_defaults(func=cmd_table1)

    p_verify = subs.add_parser("verify", help="oracle sweep against the closed forms")
    p_verify.add_argument("--max-n", type=int, default=5, dest="max_n")
    p_verify.add_argument("--max-D", type=int, default=20, dest="max_D")
    _add_io_flags(p_verify, ())
    p_verify.set_defaults(func=cmd_verify)

    p_radial = subs.add_parser("radial", help="Numerov shooting eigensolver (n = 1)")
    p_radial.add_argument("--D", type=int, required=True)
    p_radial.add_argument("--alpha", type=float, required=True)
    p_radial.add_argument("--beta", type=int, default=1)
    p_radial.add_argument(
        "--convention", choices=sorted(c.value for c in KineticConvention), default="full"
    )
    p_radial.add_argument("--excitation", type=int, default=0)
    _add_io_flags(p_radial, ("json", "text"))
    p_radial.set_defaults(func=cmd_radial)

    return parser


def run_cli(argv: Optional[list[str]] = None) -> int:
    """Parse and execute; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage; this CLI reserves 2 for numerical
        # failures and reports usage errors as 1
        code = exc.code or 0
        return 1 if code != 0 else 0
    try:
        return args.func(args)
    except InvalidParameterError as exc:
        print(f"dimspec: invalid parameters: {exc}", file=sys.stderr)
        return 1
    except DimspecError as exc:
        print(f"dimspec: numerical failure: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
