"""Bound-state windows over (D, n) and grid scans across parameter space.

A scheme fixes m (``model.scheme_m``) and the window follows from one
classification: 0 < beta = D - 2m < 2n is the open interval (2m, 2(m+n)),
every D of which has the coupling sign of m, so (2n, 4n) for m = n, empty
for even n since the coupling turns repulsive, and (2, 2(n+1)) for m = 1.
The scan walks a rectangular (D, n) grid, classifies every point and
evaluates the general closed form wherever a bound state exists.
``build_record`` makes every record: the scan's, the ``energy`` verb's and
each one a parser rebuilds. A record takes the same checked entry points a
caller of the library does: its coupling comes from ``alpha_coefficient``
and its energy from ``e0_general`` through the ``EnergyQuery`` gate, so each
limit is checked in one place.

The record of a grid point is a pure function of (D, n, scheme), so each one
is made once per process: ``scan`` keeps every record it makes in
``_GRID_RECORDS``, and the grid bounds that memo at (D_MAX - D_MIN + 1) x
(N_MAX - N_MIN + 1) points x 2 schemes = 2 016 records. ``evaluate_point``,
which also takes points off the grid, makes a fresh record on every call,
and a parser never adds one. The verify sweep takes its points' records
from ``scan``, so it reads this memo and fills it as a scan does. Each wire
format in ``report`` keeps at most one text per memoized record it writes
(``_CSV_TEXT``/``_CSV_ROWS``, ``_JSON_TEXT``/``_JSON_ROWS``), so those memos
are bounded by this one.
"""

from __future__ import annotations

__all__ = ["FeasibilityWindow", "bound_dims", "evaluate_point", "scan"]

from dataclasses import dataclass
from typing import Iterable, Optional

from .errors import InvalidParameterError, require_int
from .model import (
    ScanRecord,
    Scheme,
    SystemParams,
    _short_range,
    classify_regime,
    Classification,
    scheme_m,
)
from .potential import N_LIMIT, alpha_coefficient
from .refdata import PUBLISHED_MEMBERS, TABLE1_E0
from .signedlog import SignedLogReal
from .spectrum import EnergyQuery, e0_general

# Bounds of the (D, n) grid that scan accepts: the paper's whole parameter
# space, 1008 closed-form points per scheme.
D_MIN, D_MAX = 2, 64
N_MIN, N_MAX = 1, 16

# The record of each grid point, one dict per scheme keyed by (D, n), made on
# first use and kept for the life of the process: at most 2 016 entries.
_GRID_RECORDS: dict[Scheme, dict[tuple[int, int], ScanRecord]] = {
    Scheme.M_EQUALS_N: {},
    Scheme.M_EQUALS_ONE: {},
}


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
    """The integer dimensions of the bound-state window, 1 <= n <= N_LIMIT:
    ~2n dimensions, all of them or none, as one classification says."""
    require_int("n", n, 1, N_LIMIT)
    m = scheme_m(n, scheme)
    d_min, d_max = 2 * m, 2 * (m + n)
    # every D of the open window has 0 < beta < 2n and the coupling sign of
    # m, so the classifier gives one verdict for all of them: ask it once
    bound = classify_regime(d_min + 1, n, m) is Classification.BOUND
    members = tuple(range(d_min + 1, d_max)) if bound else ()
    published = PUBLISHED_MEMBERS.get((scheme, n))
    omitted = tuple(sorted(set(members) - set(published))) if published else ()
    return FeasibilityWindow(n, scheme, d_min, d_max, members, omitted)


def build_record(
    params: SystemParams, beta: int, alpha: Optional[SignedLogReal], reference: bool
) -> ScanRecord:
    """The record of the coupling alpha r^-beta at ``params``: the one place a
    record's outcome is decided, for the scan, the ``energy`` verb and both
    parsers.

    A short-range potential (beta < 0) is invalid; every other beta goes to
    ``e0_general`` through its gate, ``EnergyQuery``, which rejects an n past
    N_LIMIT. ``reference`` attaches the published energy at (D, n), if the
    table has one.
    """
    if beta < 0:
        outcome = _short_range(beta, beta == params.beta)
    else:
        outcome = e0_general(EnergyQuery(alpha, beta, params.n, params.D))
    paper = TABLE1_E0.get((params.D, params.n)) if reference else None
    return ScanRecord(params, beta, alpha, outcome, paper)


def evaluate_point(D: int, n: int, scheme: Scheme) -> ScanRecord:
    """Classify one grid point and evaluate its energy when bound.

    The coupling is the point charge's alpha(D, m) from
    ``alpha_coefficient``, which exists only for beta > 0 and rejects a D
    past D_LIMIT; the m = n scheme carries the published reference energy.
    """
    params = SystemParams(D, n, scheme_m(n, scheme))
    beta = params.beta
    alpha = alpha_coefficient(D, params.m).alpha if beta > 0 else None
    return build_record(params, beta, alpha, reference=scheme is Scheme.M_EQUALS_N)


def scan(D_values: Iterable[int], n_values: Iterable[int], scheme: Scheme) -> list[ScanRecord]:
    """Evaluate every point of the (D, n) grid, one record per point.

    Duplicates are dropped and the order is row-major, ascending D outer and
    ascending n inner; ``sort_records`` gives the report order. D must lie in
    [D_MIN, D_MAX] and n in [N_MIN, N_MAX]. Each record comes from the grid
    memo, so a repeated scan returns the same record objects.
    """
    Ds = _grid_axis("D", D_values, D_MIN, D_MAX)
    ns = _grid_axis("n", n_values, N_MIN, N_MAX)
    scheme_m(N_MIN, scheme)  # any scheme but mn and m1 is rejected before the memo
    memo = _GRID_RECORDS[scheme]
    return [
        memo.get((D, n)) or memo.setdefault((D, n), evaluate_point(D, n, scheme))
        for D in Ds
        for n in ns
    ]


def _grid_axis(name: str, values: Iterable[int], lo: int, hi: int) -> list[int]:
    """The distinct values, ascending. A non-integer or a value outside
    [lo, hi] is rejected as soon as it is met, so an oversized range costs
    no more than its in-bound part."""
    try:
        values = iter(values)
    except TypeError:
        raise InvalidParameterError("non-integer", f"{name} values must be iterable") from None
    seen = set()
    message = "{name} values must lie in [{lo}, {hi}]"
    for v in values:
        seen.add(require_int(name, v, lo, hi, "range-bounds", message))
    if not seen:
        raise InvalidParameterError("empty-range", f"{name} range is empty")
    return sorted(seen)
