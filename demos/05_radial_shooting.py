# A second, completely different check: solve the n = 1 radial equation.
#
# For n = 1 the wave equation is an ordinary Schroedinger problem and the
# reduced radial equation can be integrated directly. Numerov sweeps in
# ln r, node counting and a matching-condition root give the low-lying
# levels to ~1e-10 relative, which pins down the kinetic-term convention
# question: with the literal operator -Laplacian the hydrogen ground state
# sits at -1/4 hartree, while the conventional -Laplacian/2 puts it at the
# familiar -1/2.

import numpy as np

from dimspec import KineticConvention, radial_ground_state

for convention, label, exact in [
    (KineticConvention.FULL_LAPLACIAN, "-Laplacian - 1/r      ", -0.25),
    (KineticConvention.HALF_LAPLACIAN, "-Laplacian/2 - 1/r    ", -0.5),
]:
    sol = radial_ground_state(3, 1.0, 1, convention, 0)
    print(f"{label} ground state: E = {sol.energy:+.9f}  (exact {exact:+.4f})")

# The first excited s-level of the conventional Hamiltonian: -1/(2*2^2).
sol = radial_ground_state(3, 1.0, 1, KineticConvention.HALF_LAPLACIAN, 1)
print(f"-Laplacian/2 - 1/r     first excited: E = {sol.energy:+.9f}  (exact -0.1250)")
print()

# The returned wavefunction is normalized and clean at both grid ends; for
# the full-Laplacian ground state it is r e^(-r/2) up to normalization,
# peaking at r = 2 bohr.
sol = radial_ground_state(3, 1.0, 1, KineticConvention.FULL_LAPLACIAN, 0)
peak_index = int(np.argmax(np.abs(sol.u)))
print(f"ground-state peak at r = {sol.grid[peak_index]:.3f} bohr, "
      f"u_max = {sol.u[peak_index]:.6f}")
print(f"norm = {np.trapezoid(sol.u**2, sol.grid):.9f}, "
      f"boundary values u = ({sol.u[0]:.2e}, {sol.u[-1]:.2e})")
print(f"cutoff r_max = {sol.r_max:.1f} bohr (turning point plus 40 decay lengths), "
      f"{len(sol.grid)} grid points, {sol.sweeps} Numerov sweeps")
