"""Embedded reference values from the published table of predicted energies.

These constants are comparison data, not inputs to any computation: scans
and reports carry them alongside computed values. Only the (3, 1) entry is
ever asserted against (at its printed two-figure precision); the n > 1 rows
are known not to follow from the printed formulas and are reported with a
log-ratio instead.
"""

from __future__ import annotations

from .model import Scheme

# (D, n) -> published ground-state energy in hartree, m = n scheme
TABLE1_E0: dict[tuple[int, int], float] = {
    (3, 1): -0.11,
    (7, 3): -0.00041,
    (8, 3): -6.06e-6,
    (9, 3): -1.52e-8,
    (10, 3): -1.95e-13,
    (11, 3): -9.92e-28,
    (11, 5): -1.75e-7,
    (12, 5): -3.23e-9,
    (18, 5): -5.70e-47,
    (19, 5): -4.41e-97,
}

# Dimension lists quoted in the published discussion, used to flag members
# our enumeration finds that the discussion omits (and vice versa).
PUBLISHED_MEMBERS: dict[tuple[Scheme, int], tuple[int, ...]] = {
    (Scheme.M_EQUALS_N, 1): (3,),
    (Scheme.M_EQUALS_N, 3): (7, 8, 9, 10, 11),
    # omits D = 4 although the governing inequality admits it
    (Scheme.M_EQUALS_ONE, 3): (3, 5, 6, 7),
}

PAPER_OMITTED_FLAG = "paper-omitted"
