"""Discrete nabla fractional calculus on integer half-lines.

Taylor monomials by stable recurrence, Riemann-Liouville nabla sums and
differences with explicit base bookkeeping, method-of-steps solvers for
linear fractional initial value problems, a stability criterion with its
envelope bound and decay classification.  The exact-rational twins of every
floating kernel, the tests' oracle, live in :mod:`nablafrac.exact`, which
the package does not import: ``from nablafrac.exact import oracle_solve``.
"""

from .formats import (
    GridCsvError,
    read_grid_csv,
    write_document,
    write_grid_csv,
    write_report_json,
    write_scan_csv,
    write_table,
    write_trace_csv,
    write_trace_json,
)
from .grid import (
    DivergentSolutionError,
    DomainTooShortError,
    GridFunction,
    nabla_diff,
    nabla_diff_n,
    nabla_frac_diff_composed,
    nabla_frac_diff_direct,
    nabla_sum,
    power_rule_check,
)
from .monomial import (
    convolution_weights,
    monomial_limit_sequence,
    monomial_sequence,
)
from .solver import (
    SINGULAR_PIVOT_TOL,
    FirstOrderForm,
    LinearProblem,
    SingularStepError,
    SolutionTrace,
    coefficient_array,
    envelope_sequence,
    mittag_leffler_seq,
    solve_first_order,
    solve_general,
    solve_lagged,
)
from .stability import (
    BOUND_SLACK,
    DecayClass,
    OrderComparison,
    ScanCell,
    StabilityReport,
    bound_check,
    compare_orders,
    criterion_check,
    decay_classify,
    default_window,
    stability_scan,
    tail_exponent,
)

__version__ = "0.4.0"
