# A second, completely different check: solve the n = 1 radial equation.
#
# For n = 1 the wave equation is an ordinary Schroedinger problem and the
# reduced radial equation can be integrated directly. Near the origin the
# regular solution is its power series, so the Numerov sweeps in ln r start
# where that series' first-order term reaches 0.1, from the series itself.
# Each sweep carries the ratio of successive values, which never overflows,
# and counts a node at each negative ratio. Node counting from the Hardy
# floor, a proven lower bound on every level, isolates a level on a coarse
# mesh, and Brent's zero finder on the matching condition polishes it. A fine
# mesh at half the step needs only Brent's zero finder from a tight bracket
# about that level, and Richardson's (16 E_h - E_2h) / 15 removes Numerov's
# h^4 error: the low-lying levels come out to a few parts in 1e12, and the
# shift |E - E_h| is printed beside each. That pins down the kinetic-term
# convention question: with the literal operator -Laplacian the hydrogen
# ground state sits at -1/4 hartree, while the conventional -Laplacian/2 puts
# it at the familiar -1/2.

import numpy as np

from dimspec import KineticConvention, radial_ground_state

for convention, label, exact in [
    (KineticConvention.FULL_LAPLACIAN, "-Laplacian - 1/r      ", -0.25),
    (KineticConvention.HALF_LAPLACIAN, "-Laplacian/2 - 1/r    ", -0.5),
]:
    sol = radial_ground_state(3, 1.0, 1, convention, 0)
    print(f"{label} ground state: E = {sol.energy:+.9f}  (exact {exact:+.4f}, "
          f"shift {sol.shift:.1e})")

# The first excited s-level of the conventional Hamiltonian: -1/(2*2^2).
sol = radial_ground_state(3, 1.0, 1, KineticConvention.HALF_LAPLACIAN, 1)
print(f"-Laplacian/2 - 1/r     first excited: E = {sol.energy:+.9f}  (exact -0.1250, "
      f"shift {sol.shift:.1e})")
print()

# The wavefunction is built on first read of sol.u or sol.grid, by one more
# sweep on the fine mesh at its level E_h that sol.steps does not count. It is
# normalized and clean at both grid ends; for the full-Laplacian ground
# state it is r e^(-r/2) up to normalization, peaking at r = 2 bohr.
sol = radial_ground_state(3, 1.0, 1, KineticConvention.FULL_LAPLACIAN, 0)
peak_index = int(np.argmax(np.abs(sol.u)))
print(f"ground-state peak at r = {sol.grid[peak_index]:.3f} bohr, "
      f"u_max = {sol.u[peak_index]:.6f}")
print(f"norm = {np.trapezoid(sol.u**2, sol.grid):.9f}, "
      f"boundary values u = ({sol.u[0]:.2e}, {sol.u[-1]:.2e})")
print(f"cutoff r_max = {sol.r_max:.1f} bohr (turning point plus 40 decay lengths), "
      f"{len(sol.grid)} grid points at h = {sol.h}; over both meshes {sol.sweeps} "
      f"Numerov sweeps ({sol.matches} matches of two sweeps each), {sol.steps} steps")
