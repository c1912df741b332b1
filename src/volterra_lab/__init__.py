"""Numerical laboratory for the open Volterra lattice.

The lattice du_n/dt = u_n (u_{n+1} - u_{n-1}) is integrated in three
provably equivalent forms (direct, Lax commutator, double bracket), its
isospectral geometry is made computable (centralizer projection, normal
metric, orbit gradient), and every identity tying the forms together is
checkable by a seeded verification battery.

The package root re-exports the public names of ``geometry``, ``integrate``
and ``lattice``; each module's ``__all__`` is the one list.
"""

from . import geometry, integrate, lattice

__version__ = "0.1.0"

# Read integrate.__all__ while the name is still the submodule: the star
# import below rebinds volterra_lab.integrate to the integrate() function.
__all__ = ["__version__"]
__all__ += geometry.__all__
__all__ += integrate.__all__
__all__ += lattice.__all__

from .geometry import *  # noqa: E402,F403
from .integrate import *  # noqa: E402,F403
from .lattice import *  # noqa: E402,F403
