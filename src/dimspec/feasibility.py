"""Bound-state windows over (D, n) and grid scans across parameter space.

For m = n the window is the open interval (2n, 4n), empty for even n since
the coupling turns repulsive; for m = 1 it is (2, 2(n+1)). The scan walks a
rectangular (D, n) grid, classifies every point and evaluates the general
closed form wherever a bound state exists. ``build_record`` makes every
record: the scan's, the ``energy`` verb's and each one the parsers read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .errors import InvalidParameterError
from .model import (
    EnergyOutcome,
    ScanRecord,
    Scheme,
    SystemParams,
    classify_regime,
    Classification,
)
from .potential import alpha_coefficient
from .refdata import PUBLISHED_MEMBERS_M1, PUBLISHED_MEMBERS_MN, TABLE1_E0_SLR
from .signedlog import SignedLogReal
from .spectrum import N_LIMIT, EnergyQuery, e0_general

# Bounds of the (D, n) grid that scan accepts: the paper's whole parameter
# space, 1008 closed-form points per scheme.
D_MIN, D_MAX = 2, 64
N_MIN, N_MAX = 1, 16


@dataclass(frozen=True)
class FeasibilityWindow:
    """Open dimension interval admitting bound states for one (n, scheme)."""

    n: int
    scheme: Scheme
    d_min: int  # exclusive
    d_max: int  # exclusive
    members: tuple[int, ...]
    paper_omitted: tuple[int, ...] = ()


def bound_dims(n: int, scheme: Scheme) -> FeasibilityWindow:
    """Enumerate the integer dimensions inside the bound-state window, for
    1 <= n <= N_LIMIT: the window holds ~2n dimensions."""
    if n < 1:
        raise InvalidParameterError("bad-power", f"n must be >= 1, got {n}")
    if n > N_LIMIT:
        raise InvalidParameterError("out-of-range", f"need n <= {N_LIMIT}, got n={n}")
    if scheme is Scheme.M_EQUALS_N:
        d_min, d_max = 2 * n, 4 * n
        m = n
        published = PUBLISHED_MEMBERS_MN.get(n)
    elif scheme is Scheme.M_EQUALS_ONE:
        d_min, d_max = 2, 2 * (n + 1)
        m = 1
        published = PUBLISHED_MEMBERS_M1.get(n)
    else:
        raise InvalidParameterError("bad-scheme", "windows exist only for the mn and m1 schemes")
    members = tuple(
        D
        for D in range(d_min + 1, d_max)
        if classify_regime(D, n, m) is Classification.BOUND
    )
    omitted = ()
    if published is not None:
        omitted = tuple(sorted(set(members) - set(published)))
    return FeasibilityWindow(n, scheme, d_min, d_max, members, omitted)


def excluded_dims_universal(max_n: int = 64) -> list[int]:
    """Dimensions 4, 5, 6 admit no bound state for any n in the m = n scheme.

    Verified by exhaustive enumeration of every window up to ``max_n`` before
    the set is returned.
    """
    excluded = {4, 5, 6}
    for n in range(1, max_n + 1):
        window = bound_dims(n, Scheme.M_EQUALS_N)
        overlap = excluded & set(window.members)
        if overlap:  # cannot happen: (2n, 4n) misses {4,5,6} for every odd n
            raise InvalidParameterError(
                "exclusion-violated", f"window for n={n} contains {sorted(overlap)}"
            )
    return sorted(excluded)


def build_record(
    params: SystemParams, beta: int, alpha: Optional[SignedLogReal], reference: bool
) -> ScanRecord:
    """The record of the coupling alpha r^-beta at ``params``: the one place a
    record's outcome is decided, for the scan, the ``energy`` verb and both
    parsers.

    A short-range potential (beta < 0) is invalid; every other beta goes to
    the general evaluator. ``reference`` attaches the published energy at
    (D, n), if the table has one.
    """
    if beta < 0:
        source = "D - 2m = " if beta == params.beta else ""
        outcome = EnergyOutcome.invalid(
            "short-range", f"beta = {source}{beta} < 0: the potential is short-range"
        )
    else:
        outcome = e0_general(EnergyQuery(alpha, beta, params.n, params.D))
    paper = TABLE1_E0_SLR.get((params.D, params.n)) if reference else None
    return ScanRecord(params=params, beta=beta, alpha=alpha, outcome=outcome, paper_value=paper)


def evaluate_point(D: int, n: int, scheme: Scheme) -> ScanRecord:
    """Classify one grid point and evaluate its energy when bound.

    The coupling is the point charge's alpha(D, m), which exists only for
    beta > 0; the m = n scheme carries the published reference energy.
    """
    if scheme not in (Scheme.M_EQUALS_N, Scheme.M_EQUALS_ONE):
        raise InvalidParameterError("bad-scheme", "grid points exist only in the mn and m1 schemes")
    params = SystemParams(D, n, n if scheme is Scheme.M_EQUALS_N else 1)
    alpha = alpha_coefficient(D, params.m).alpha if params.beta > 0 else None
    return build_record(params, params.beta, alpha, reference=scheme is Scheme.M_EQUALS_N)


def scan(D_values: Iterable[int], n_values: Iterable[int], scheme: Scheme) -> list[ScanRecord]:
    """Evaluate every point of the (D, n) grid, one record per point.

    Duplicates are dropped and the order is row-major, ascending D outer and
    ascending n inner; ``sort_records`` gives the report order. D must lie in
    [D_MIN, D_MAX] and n in [N_MIN, N_MAX].
    """
    Ds = _grid_axis("D", D_values, D_MIN, D_MAX)
    ns = _grid_axis("n", n_values, N_MIN, N_MAX)
    return [evaluate_point(D, n, scheme) for D in Ds for n in ns]


def _grid_axis(name: str, values: Iterable[int], lo: int, hi: int) -> list[int]:
    """The distinct values, ascending. A non-integer or a value outside
    [lo, hi] is rejected as soon as it is met, so an oversized range costs
    no more than its in-bound part."""
    seen = set()
    for v in values:
        if not isinstance(v, int) or isinstance(v, bool):
            raise InvalidParameterError("non-integer", f"{name} values must be integers")
        if not lo <= v <= hi:
            raise InvalidParameterError(
                "range-bounds", f"{name} values must lie in [{lo}, {hi}]"
            )
        seen.add(v)
    if not seen:
        raise InvalidParameterError("empty-range", f"{name} range is empty")
    return sorted(seen)
