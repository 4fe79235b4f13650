"""Weak-type (1,1) lower bounds for the radial averaging operators.

Builds the extremal two-piece power families, applies the operators in
closed form and by an independent quadrature oracle, maximizes the
weak-type ratio functionals over their feasible regions, and verifies the
resulting bounds, including the duality between the forward and adjoint
constructions and the uniform lower bound 1.34.

The package namespace is the union of the library modules' ``__all__``;
each module's list is the one declaration of what it makes public.
"""

from .piecewise import *
from .operators import *
from .families import *
from .functionals import *
from .optimize import *
from .verify import *

__version__ = "0.1.0"
