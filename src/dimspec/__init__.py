"""Bound-state energies of a hydrogen atom under iterated-Laplacian dynamics.

The wave equation (-1)^n Laplacian^n psi - (alpha / r^beta) psi = E psi in D
spatial dimensions admits a negative ground-state energy only inside narrow
integer windows of (D, n). This package evaluates those energies in
leading-order large-dimension approximation, derives the generalized
Coulomb couplings alpha(D, m), enumerates the feasibility windows, and
checks everything against two independent numerical oracles.
"""

from .errors import DimspecError, InvalidParameterError, NoConvergenceError
from .feasibility import (
    FeasibilityWindow,
    bound_dims,
    evaluate_point,
    excluded_dims_universal,
    scan,
)
from .model import (
    Classification,
    EnergyOutcome,
    PotentialNature,
    PotentialSpec,
    ScanRecord,
    Scheme,
    SystemParams,
    classify_coupling,
    classify_outcome,
    classify_regime,
)
from .oracle import (
    KineticConvention,
    RadialSolution,
    VeffMinimum,
    minimize_v_eff,
    radial_ground_state,
)
from .potential import (
    alpha_coefficient,
    alpha_m1_closed_form,
    log_gamma_half,
)
from .refdata import TABLE1_E0
from .report import (
    CSV_HEADER,
    M1Discrepancy,
    OraclePoint,
    OracleReport,
    Table1Row,
    oracle_equivalence_report,
    parse_records_csv,
    parse_records_json,
    render_records_csv,
    render_records_json,
    scheme_m1_discrepancies,
    sort_records,
    table1_compare,
)
from .signedlog import SignedLogReal
from .spectrum import (
    EnergyQuery,
    QuantumNumber,
    e0_general,
    e0_scheme_m1,
    e0_scheme_m1_rederived,
    e0_scheme_mn,
    effective_quantum_number,
)

__version__ = "0.1.0"

# Name of the retired scan thread-pool variable; the library no longer reads
# it. benchmarks/probes.py still imports it, and a benchmark-only change
# removes both together.
THREADS_ENV_VAR = "DIMSPEC_THREADS"

__all__ = [
    "Classification",
    "CSV_HEADER",
    "DimspecError",
    "EnergyOutcome",
    "EnergyQuery",
    "FeasibilityWindow",
    "InvalidParameterError",
    "KineticConvention",
    "M1Discrepancy",
    "NoConvergenceError",
    "OraclePoint",
    "OracleReport",
    "PotentialNature",
    "PotentialSpec",
    "QuantumNumber",
    "RadialSolution",
    "ScanRecord",
    "Scheme",
    "SignedLogReal",
    "SystemParams",
    "TABLE1_E0",
    "Table1Row",
    "THREADS_ENV_VAR",
    "VeffMinimum",
    "alpha_coefficient",
    "alpha_m1_closed_form",
    "bound_dims",
    "classify_coupling",
    "classify_outcome",
    "classify_regime",
    "e0_general",
    "e0_scheme_m1",
    "e0_scheme_m1_rederived",
    "e0_scheme_mn",
    "effective_quantum_number",
    "evaluate_point",
    "excluded_dims_universal",
    "log_gamma_half",
    "minimize_v_eff",
    "oracle_equivalence_report",
    "parse_records_csv",
    "parse_records_json",
    "radial_ground_state",
    "render_records_csv",
    "render_records_json",
    "scan",
    "scheme_m1_discrepancies",
    "sort_records",
    "table1_compare",
    "__version__",
]
