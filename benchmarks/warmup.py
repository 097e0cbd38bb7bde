"""One warm-up call into each ``dimspec`` module.

Imported, ``warm_up()`` fills the caches of the harness process before any
timing starts. Run as a script it is the set-up probe that ``setup_s``
times from the outside: a fresh interpreter, ``import dimspec``, one call
per module, exit.
"""

from __future__ import annotations

import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path


def warm_up() -> None:
    from dimspec import (
        EnergyQuery,
        Scheme,
        SignedLogReal,
        alpha_coefficient,
        classify_outcome,
        e0_general,
        minimize_v_eff,
        parse_records_csv,
        render_records_csv,
        scan,
        table1_compare,
    )
    from dimspec.cli import run_cli

    SignedLogReal.from_float(-0.25).to_decimal()  # signedlog
    classify_outcome(7, 3, 3)  # model
    spec = alpha_coefficient(7, 3)  # potential
    query = EnergyQuery(spec.alpha, 1, 3, 7)
    e0_general(query)  # spectrum
    records = scan(range(3, 12), range(1, 4), Scheme.M_EQUALS_N)  # feasibility
    parse_records_csv(render_records_csv(records))  # report
    table1_compare()  # refdata through report
    minimize_v_eff(query)  # oracle
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        run_cli(["feasible", "--n", "3"])  # cli


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    warm_up()
