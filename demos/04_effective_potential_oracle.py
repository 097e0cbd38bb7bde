# Checking the closed forms the hard way.
#
# The closed-form energy is, by construction, the minimum of the effective
# potential V_eff(r) = (D/2)^(2n) r^(-2n) - alpha r^(-beta). An honest
# check therefore minimizes V_eff numerically, pretending the closed form
# does not exist, and compares. The search runs in ln r (the minimizers
# span sixteen decades across the grid), in floats: it finds the zero of
# the potential's slope, which floats resolve to ~1e-16 in ln r, where the
# potential itself, a difference of two nearly equal terms, is flat to
# double precision over ~1e-7. The reported depth is that difference
# factored, -alpha r^-beta (1 - e^d) with d = ln of the ratio of the two
# terms, whose logarithm floats give to about one rounding.

from dimspec import (
    EnergyQuery,
    SignedLogReal,
    alpha_coefficient,
    e0_general,
    minimize_v_eff,
    oracle_equivalence_report,
)

# The textbook case first: V_eff = 2.25/r^2 - 1/r has its minimum at
# r* = 4.5 bohr with depth -1/9 hartree. Here plain floats are enough.
D, n, alpha, beta = 3, 1, 1.0, 1
print("V_eff on a crude grid (D=3, n=1, alpha=1, beta=1):")
for r in (1.0, 2.0, 4.5, 8.0, 16.0):
    v = (D / 2) ** (2 * n) * r ** (-2 * n) - alpha * r ** (-beta)
    print(f"  V({r:>4}) = {v:+.6f}")
q = EnergyQuery(SignedLogReal.from_float(alpha), beta, n, D)
found = minimize_v_eff(q)
print(f"search minimum: r* = {found.r_star}, E = {found.e_min.to_float()}")
print(f"  ({found.evaluations} slope evaluations)")
print()

# Now a point far from any textbook: D = 7, n = 3, with the coupling the
# field equation actually produces.
spec = alpha_coefficient(7, 3)
q = EnergyQuery(spec.alpha, 1, 3, 7)
found = minimize_v_eff(q)
closed = e0_general(q)
print(f"(7,3): r* = {found.r_star:.6f} bohr")
print(f"  search  E = {found.e_min.to_float():.12e}")
print(f"  closed  E = {closed.energy.to_float():.12e}")
print()

# And the full sweep the acceptance gate runs: every bound point with
# n <= 5, D <= 20, in both coupling schemes.
report = oracle_equivalence_report(max_n=5, max_D=20)
print(f"swept {len(report.points)} bound points:")
print(f"  worst ln|E| relative deviation: {report.max_lnmag_deviation:.3e}")
print(f"  worst r* relative deviation:    {report.max_r_star_deviation:.3e}")
worst = report.worst_r_star
print(f"  worst r* point: D={worst.D}, n={worst.n}, scheme {worst.scheme.value}")
