# Ground-state energies of the generalized hydrogen atom.
#
# With the wave operator (-1)^n Laplacian^n and an attractive power law
# alpha / r^beta, the leading-order large-dimension approximation gives a
# closed-form ground energy whenever 0 < beta < 2n. This script evaluates
# it across coupling schemes and shows why all arithmetic runs in log
# space: bound energies span more than 150 decades.

from dimspec import (
    EnergyQuery,
    Scheme,
    SignedLogReal,
    alpha_coefficient,
    bound_dims,
    e0_general,
    e0_scheme_m1,
    e0_scheme_m1_rederived,
    e0_scheme_mn,
    scheme_m1_discrepancies,
)

# The ordinary hydrogen atom: D = 3, n = 1, alpha = 1, beta = 1.
out = e0_general(EnergyQuery(SignedLogReal(1, 0.0), 1, 1, 3))
print("D=3, n=1:", out.energy.to_float(), "hartree  (= -1/9)")
print()

# Tying the potential to the same Laplacian power (m = n), the windows are
# narrow and the energies collapse with dimension at a staggering rate.
print("m = n scheme")
print(" D   n   E0 (hartree)")
for n in (1, 3, 5):
    for D in bound_dims(n, Scheme.M_EQUALS_N).members:
        out = e0_scheme_mn(D, n)
        print(f"{D:>2}  {n:>2}   {out.energy.to_decimal()}")
print()

# The (19, 5) point is the stress case: the dimensional factor inside the
# formula reaches 10^115 while the energy lands near 1e-159. In log space
# neither end is a problem.
out = e0_scheme_mn(19, 5)
print("E0(19,5) =", out.energy.to_decimal(), " ln|E0| =", out.energy.lnmag)
print()

# The m = 1 convention keeps the familiar 1/r^(D-2) potential for any n.
print("m = 1 scheme, n = 3")
print(" D   E0 (hartree)")
for D in bound_dims(3, Scheme.M_EQUALS_ONE).members:
    out = e0_scheme_m1_rederived(D, 3)
    print(f"{D:>2}   {out.energy.to_decimal()}")
print()

# The published algebraic form for the m = 1 scheme is implemented exactly
# as printed, and it disagrees with the route through the general formula
# once n > 1: on part of its own window its bracket base goes negative.
print("printed m = 1 form versus the general route, n = 3:")
for entry in scheme_m1_discrepancies(3):
    printed = (
        entry.printed.energy.to_decimal()
        if entry.printed.is_bound
        else entry.printed.classification.value
    )
    rederived = entry.rederived.energy.to_decimal()
    print(f"  D={entry.D}: printed -> {printed:<12} general -> {rederived}")
print()

# Classifications outside the window, for the m = n scheme at n = 3:
for D in (6, 12, 13):
    print(f"D={D}, n=3:", e0_scheme_mn(D, 3).classification.value)
print("D=2, n=1:", e0_scheme_m1(2, 1).classification.value)
