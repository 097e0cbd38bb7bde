"""Bound-state energies of a hydrogen atom under iterated-Laplacian dynamics.

The wave equation (-1)^n Laplacian^n psi - (alpha / r^beta) psi = E psi in D
spatial dimensions admits a negative ground-state energy only inside narrow
integer windows of (D, n). This package evaluates those energies in
leading-order large-dimension approximation, derives the generalized
Coulomb couplings alpha(D, m), enumerates the feasibility windows, and
checks everything against two independent numerical oracles.
"""

from .errors import *
from .feasibility import *
from .model import *
from .oracle import *
from .potential import *
from .refdata import *
from .report import *
from .signedlog import *
from .spectrum import *

__version__ = "0.1.0"

# Name of the retired scan thread-pool variable; the library no longer reads
# it. benchmarks/probes.py still imports it, and a benchmark-only change
# removes both together.
THREADS_ENV_VAR = "DIMSPEC_THREADS"

# Each module's __all__ is its share of the package API.
__all__ = ["THREADS_ENV_VAR", "__version__"]
__all__ += errors.__all__
__all__ += feasibility.__all__
__all__ += model.__all__
__all__ += oracle.__all__
__all__ += potential.__all__
__all__ += refdata.__all__
__all__ += report.__all__
__all__ += signedlog.__all__
__all__ += spectrum.__all__
