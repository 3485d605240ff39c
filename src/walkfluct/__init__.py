"""Fluctuation transforms for random walks built from dependent increment pairs.

The walk steps are differences B - A of a nonnegative pair with joint
Laplace-Stieltjes transform h(s1, s2).  The package evaluates the transforms
of the first-passage functionals (number of steps, accumulated B at passage,
overshoot) and of the running maximum, by contour quadrature for general
kernels and by root products for rational ones, with Monte Carlo cross-checks.
"""

from . import contour, errors, fluct, model, oracle, roots
from .contour import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .fluct import *  # noqa: F401,F403
from .model import *  # noqa: F401,F403
from .oracle import *  # noqa: F401,F403
from .roots import *  # noqa: F401,F403

__all__ = (contour.__all__ + errors.__all__ + fluct.__all__ + model.__all__
           + oracle.__all__ + roots.__all__)
__version__ = "0.1.0"
