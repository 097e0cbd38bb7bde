"""Command-line interface.

One verb per capability: ``energy`` and ``potential`` for single points,
``feasible`` for bound-state windows, ``scan`` for grids, ``table1`` for the
comparison against the embedded reference energies, ``verify`` for the
oracle sweep, ``radial`` for the shooting eigensolver. Data goes to stdout
(or --out), diagnostics to stderr. Exit codes: 0 success, 1 invalid
arguments or parameters, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from itertools import chain
from pathlib import Path
from typing import Iterator, Optional

from .errors import (
    DimspecError,
    GammaPoleError,
    InvalidParameterError,
)
from .feasibility import bound_dims, evaluate_point, scan
from .model import Formula, ScanRecord, Scheme, SystemParams
from .oracle import KineticConvention, radial_ground_state
from .potential import alpha_coefficient
from .refdata import PAPER_OMITTED_FLAG
from .report import (
    OraclePoint,
    oracle_equivalence_report,
    record_fields,
    render_csv,
    render_json,
    render_records_csv,
    render_records_json,
    sort_records,
    table1_compare,
)
from .signedlog import SignedLogReal
from .spectrum import EnergyQuery, e0_general, scheme_m1_discrepancies

_SCHEMES = {s.value: s for s in Scheme}
_CONVENTIONS = {c.value: c for c in KineticConvention}


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


def _emit(payload: str, out_path: Optional[str]) -> None:
    if not payload.endswith("\n"):
        payload += "\n"
    if out_path:
        Path(out_path).write_text(payload, encoding="utf-8")
    else:
        sys.stdout.write(payload)


def _add_io_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=("csv", "json", "text"), default="text")
    sub.add_argument("--out", metavar="PATH", default=None, help="write output to PATH")


def _energy_record(args) -> ScanRecord:
    scheme = _SCHEMES[args.scheme]
    if scheme is Scheme.EXPLICIT:
        if args.alpha is None or args.beta is None:
            raise InvalidParameterError(
                "missing-coupling", "explicit scheme requires --alpha and --beta"
            )
        if not math.isfinite(args.alpha):
            raise InvalidParameterError("non-finite", f"--alpha must be finite, got {args.alpha!r}")
        params = SystemParams(args.D, args.n, args.m if args.m is not None else 1, scheme)
        alpha = SignedLogReal.from_float(args.alpha)
        outcome = e0_general(EnergyQuery(alpha, args.beta, args.n, args.D))
        return ScanRecord(
            params=params,
            beta=args.beta,
            alpha=alpha if alpha.sign != 0 else None,
            outcome=outcome,
            formula=Formula.GENERAL,
        )
    if args.m is not None:
        expected = args.n if scheme is Scheme.M_EQUALS_N else 1
        if args.m != expected:
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
    if args.format == "csv":
        _emit(render_records_csv([rec]), args.out)
    elif args.format == "json":
        fields["alpha"] = rec.alpha.to_float() if rec.alpha is not None else None
        fields["E0"] = rec.outcome.energy.to_float() if rec.outcome.is_bound else None
        _emit(render_json({key: fields[key] for key in _ENERGY_JSON_KEYS}), args.out)
    else:
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
        _emit("\n".join(lines), args.out)
    return 0


def cmd_potential(args) -> int:
    spec = alpha_coefficient(args.D, args.m)
    row = {
        "D": args.D,
        "m": args.m,
        "beta": spec.beta,
        "nature": spec.nature.value,
        "alpha": spec.alpha.to_float() if spec.alpha is not None else None,
        "alpha_sign": spec.alpha.sign if spec.alpha is not None else None,
        "alpha_lnmag": spec.alpha.lnmag if spec.alpha is not None else None,
        "alpha_decimal": spec.alpha.to_decimal(6) if spec.alpha is not None else None,
    }
    if args.format == "json":
        _emit(render_json(row), args.out)
    elif args.format == "csv":
        _emit(render_csv([row], [key for key in row if key != "alpha"]), args.out)
    else:
        if spec.alpha is None:
            _emit(
                f"D={args.D} m={args.m}: logarithmic potential (beta = 0), "
                "no power-law coupling",
                args.out,
            )
        else:
            _emit(
                f"D={args.D} m={args.m}: alpha = {spec.alpha.to_decimal(6)} "
                f"({spec.nature.value}), beta = {spec.beta}",
                args.out,
            )
    return 0


def cmd_feasible(args) -> int:
    scheme = _SCHEMES[args.scheme]
    window = bound_dims(args.n, scheme)
    for D in window.paper_omitted:
        print(
            f"note: D={D} is {PAPER_OMITTED_FLAG}: the published discussion "
            "skips it although the window inequality admits it",
            file=sys.stderr,
        )
    if args.format == "json":
        obj = {
            "n": window.n,
            "scheme": window.scheme.value,
            "d_min": window.d_min,
            "d_max": window.d_max,
            "members": list(window.members),
            "paper_omitted": list(window.paper_omitted),
        }
        _emit(render_json(obj), args.out)
    else:
        _emit(" ".join(str(D) for D in window.members), args.out)
    return 0


def cmd_scan(args) -> int:
    records = scan(args.D, args.n, _SCHEMES[args.scheme])
    records = sort_records(records)
    if args.format == "csv":
        _emit(render_records_csv(records), args.out)
    elif args.format == "json":
        _emit(render_records_json(records), args.out)
    else:
        lines = [f"{'D':>4} {'n':>3} {'m':>3} {'beta':>5}  {'classification':<12} {'E0':>12}"]
        for rec in records:
            e0 = rec.outcome.energy.to_decimal() if rec.outcome.is_bound else "-"
            lines.append(
                f"{rec.params.D:>4} {rec.params.n:>3} {rec.params.m:>3} "
                f"{rec.beta:>5}  {rec.outcome.classification.value:<12} {e0:>12}"
            )
        _emit("\n".join(lines), args.out)
    return 0


def cmd_table1(args) -> int:
    rows = table1_compare()
    table = [
        {
            "D": r.D,
            "n": r.n,
            "computed_E0_decimal": r.computed_E0.energy.to_decimal(),
            "computed_E0_lnmag": r.computed_E0.energy.lnmag,
            "paper_E0": r.paper_E0.to_float(),
            "ratio": r.ratio,
            "ratio_log10": r.ratio_log10,
        }
        for r in rows
    ]
    if args.format == "json":
        _emit(render_json(table), args.out)
    elif args.format == "csv":
        _emit(render_csv(table, [key for key in table[0] if key != "ratio"]), args.out)
    else:
        lines = [f"{'D':>4} {'n':>3} {'computed':>12} {'published':>12} {'log10 ratio':>12}"]
        for r in rows:
            lines.append(
                f"{r.D:>4} {r.n:>3} {r.computed_E0.energy.to_decimal():>12} "
                f"{r.paper_E0.to_decimal():>12} {r.ratio_log10:>12.3f}"
            )
        _emit("\n".join(lines), args.out)
    return 0


def _point_label(p: OraclePoint) -> str:
    return f"({p.D}, {p.n}, {p.scheme.value})"


def cmd_verify(args) -> int:
    report = oracle_equivalence_report(max_n=args.max_n, max_D=args.max_D)
    discrepancies = sum(len(scheme_m1_discrepancies(n)) for n in range(2, args.max_n + 1))
    print(
        f"checked {len(report.points)} bound points: "
        f"max ln|E| deviation {report.max_lnmag_deviation:.3e}, "
        f"max r* deviation {report.max_r_star_deviation:.3e}, "
        f"{discrepancies} printed-m1-form discrepancies, "
        f"worst ln|E| at {_point_label(report.worst_lnmag)}, "
        f"worst r* at {_point_label(report.worst_r_star)}",
        file=sys.stderr,
    )
    ok = report.max_lnmag_deviation <= 1e-8 and report.max_r_star_deviation <= 1e-9
    if ok:
        _emit("oracle–closed-form max relative deviation ≤ 1e-8", args.out)
        return 0
    _emit("oracle–closed-form max relative deviation exceeds 1e-8", args.out)
    return 2


def cmd_radial(args) -> int:
    solution = radial_ground_state(
        args.D,
        args.alpha,
        args.beta,
        _CONVENTIONS[args.convention],
        args.excitation,
    )
    if args.format == "json":
        obj = {
            "D": args.D,
            "alpha": args.alpha,
            "beta": args.beta,
            "convention": args.convention,
            "excitation": args.excitation,
            "E": solution.energy,
            "nodes": solution.nodes,
            "r_max": solution.r_max,
            "h": solution.h,
            "sweeps": solution.sweeps,
        }
        _emit(render_json(obj), args.out)
    else:
        _emit(
            f"E = {solution.energy:.9g} hartree (nodes={solution.nodes}, "
            f"convention={args.convention}, r_max={solution.r_max}, h={solution.h}, "
            f"sweeps={solution.sweeps})",
            args.out,
        )
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
    p_energy.add_argument("--scheme", choices=sorted(_SCHEMES), default="mn")
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
    _add_io_flags(p_feas)
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
    _add_io_flags(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_radial = subs.add_parser("radial", help="Numerov shooting eigensolver (n = 1)")
    p_radial.add_argument("--D", type=int, required=True)
    p_radial.add_argument("--alpha", type=float, required=True)
    p_radial.add_argument("--beta", type=int, default=1)
    p_radial.add_argument("--convention", choices=sorted(_CONVENTIONS), default="full")
    p_radial.add_argument("--excitation", type=int, default=0)
    _add_io_flags(p_radial)
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
    except (InvalidParameterError, GammaPoleError) as exc:
        print(f"dimspec: invalid parameters: {exc}", file=sys.stderr)
        return 1
    except DimspecError as exc:
        print(f"dimspec: numerical failure: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
