# Computed energies against the published reference table.
#
# The library embeds the ten published (D, n) ground-state values for the
# m = n scheme. The (3, 1) entry reproduces to its printed precision. The
# n > 1 rows do not follow from the printed formulas under the stated
# coupling (two independent routes here agree with each other and not with
# the table), so the report shows both values and the log10 ratio rather
# than forcing a match.

import math

from dimspec import SignedLogReal, table1_compare


def effective_k(energy):
    """k* with E = -1/(2 k*^2), and the integer nearest it."""
    k_star = math.exp(-(math.log(2.0) + energy.lnmag) / 2)
    return k_star, math.floor(k_star + 0.5)


print(f"{'(D,n)':>8} {'computed':>13} {'published':>12} {'log10 ratio':>12}")
for row in table1_compare():
    print(
        f"({row.D:>2},{row.n})   {row.computed_E0.energy.to_decimal():>13} "
        f"{row.paper_E0:>12.2e} {row.ratio_log10:>12.3f}"
    )
print()

# How weakly bound are the higher-dimensional states? Express each energy
# as the principal quantum number of an ordinary hydrogen level with the
# same energy: E = -1/(2 k^2). The published (7,3) value corresponds to a
# Rydberg-like k of 35.
published_7_3 = SignedLogReal.from_float(-0.00041)
k_star, nearest = effective_k(published_7_3)
print(f"published (7,3) energy -0.00041 Ha -> k* = {k_star:.2f} (nearest {nearest})")

computed_7_3 = next(r for r in table1_compare() if (r.D, r.n) == (7, 3))
k_star, nearest = effective_k(computed_7_3.computed_E0.energy)
print(f"computed  (7,3) energy {computed_7_3.computed_E0.energy.to_decimal()} Ha "
      f"-> k* = {k_star:.2f} (nearest {nearest})")
