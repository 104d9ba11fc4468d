"""Discrete nabla fractional calculus on integer half-lines.

Taylor monomials by stable recurrence, Riemann-Liouville nabla sums and
differences with explicit base bookkeeping, method-of-steps solvers for
linear fractional initial value problems, a stability criterion with its
envelope bound and decay classification.  The package root re-exports the
``__all__`` of each of :mod:`~nablafrac.formats`, :mod:`~nablafrac.grid`,
:mod:`~nablafrac.monomial`, :mod:`~nablafrac.solver` and
:mod:`~nablafrac.stability`, so a public name is listed once, in its own
module.  The exact-rational twins of every floating kernel, the tests'
oracle, live in :mod:`nablafrac.exact`, which the package does not import:
``from nablafrac.exact import oracle_solve``.
"""

from .formats import *
from .grid import *
from .monomial import *
from .solver import *
from .stability import *

__version__ = "0.5.0"
