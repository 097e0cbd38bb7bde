# What does the Coulomb potential look like away from three dimensions?
#
# If the field of a point charge is governed by an iterated Laplacian of
# power m in D spatial dimensions, the potential comes out as a power law
# alpha(D, m) / r^(D - 2m). This script walks the coefficient table and
# shows the three regimes: attractive, repulsive (even m), and the
# logarithmic degeneration at D = 2m.

import math

from dimspec import alpha_coefficient, log_gamma_half


def nature(spec):
    """Logarithmic when the power law has no coefficient, else its sign."""
    if spec.alpha is None:
        return "logarithmic"
    return "attractive" if spec.alpha.sign > 0 else "repulsive"


# The coefficients are built from gamma values on the half-integer lattice,
# evaluated by exact recurrence in log space; log_gamma_half takes twice the
# argument. A few familiar anchors:
print("Gamma(1/2) =", math.exp(log_gamma_half(1)), "= sqrt(pi)")
print("Gamma(3)   =", math.exp(log_gamma_half(6)))
print("Gamma(7/2) =", math.exp(log_gamma_half(7)))
print()

# The ordinary world sits at D = 3, m = 1: alpha = 1, V = 1/r exactly.
spec = alpha_coefficient(3, 1)
print(f"D=3, m=1: alpha = {spec.alpha.to_float():.15f}, beta = {spec.beta}")
print()

# Walking up in dimension with m = 1, the coupling keeps a closed form,
# 2 Gamma(D/2) / (pi^(D/2 - 1) (D - 2)); the general expression and this
# reduced m = 1 version, here through math.lgamma, must agree.
print(" D   alpha (general)      alpha (m=1 closed form)")
for D in (3, 4, 5, 7, 9, 12):
    general = alpha_coefficient(D, 1).alpha
    closed = math.exp(
        math.log(2) + math.lgamma(D / 2) - (D / 2 - 1) * math.log(math.pi) - math.log(D - 2)
    )
    print(f"{D:>2}   {general.to_float():<20.12g} {closed:.12g}")
print()

# Even powers m flip the overall sign: the "Coulomb" force becomes
# repulsive and can never bind. Odd powers stay attractive.
print(" m   D=2m+3 coefficient    nature")
for m in range(1, 6):
    spec = alpha_coefficient(2 * m + 3, m)
    print(f"{m:>2}   {spec.alpha.to_float():>+.6e}     {nature(spec)}")
print()

# At D = 2m the power law collapses (beta = 0): the potential turns
# logarithmic and the coefficient is undefined rather than an error.
spec = alpha_coefficient(6, 3)
print(f"D=6, m=3: beta = {spec.beta}, nature = {nature(spec)}, alpha = {spec.alpha}")
