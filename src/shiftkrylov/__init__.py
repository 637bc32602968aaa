"""Shifted-system Krylov solvers with a shared pivoted Hessenberg basis.

The package solves families ``(A - sigma_i I) x_i = b`` for many shifts
at the cost of one Krylov basis, offers restarted FOM as the orthogonal
reference, predicts process costs in flops, and applies matrix functions
(exponential, Mittag-Leffler) through rational approximations whose
poles become one shifted family.
"""

from . import errors, sparse, mmio, reduced, processes, solvers, costs, problems, matfunc
from .errors import *
from .sparse import *
from .mmio import *
from .reduced import *
from .processes import *
from .solvers import *
from .costs import *
from .problems import *
from .matfunc import *

__version__ = "0.1.0"

# each public name is declared once, in its module's __all__
__all__ = [
    name
    for module in (errors, sparse, mmio, reduced, processes, solvers, costs, problems, matfunc)
    for name in module.__all__
] + ["__version__"]
