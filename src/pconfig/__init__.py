"""pconfig: two-map interval dynamical systems ("P-configurations").

The toolkit validates and classifies pairs of increasing interval
self-maps with the additive/boundary axioms, computes the unique
conjugating homeomorphism of any regular pair to the standard affine pair
exactly at the orbit points of the anchors, turns conjugations into
continuous nonlinear solutions of the functional equation
f(t) = f(delta1(t)) + f(delta2(t)), and probes the (non-)smoothness and
non-isomorphism phenomena that come with them.
"""

from .analysis import (
    DyadicCheckTable,
    ExperimentReport,
    QuotientEnclosure,
    QuotientProbe,
    difference_quotients,
    dyadic_fixed_point_check,
    nonregular_experiment,
    oracle_quotient_enclosure,
)
from .cauchy import (
    SolutionCertificate,
    fe_residual,
    induced_system,
    nonlinearity_gap,
    solve_nonlinear,
)
from .conjugacy import (
    BranchInverse,
    ConvergenceLog,
    build_orbit_grid,
    conjugate,
    conjugate_to_standard,
    contraction_step,
    orbit_points,
)
from .errors import BadArgument, InvalidPair, PConfigError
from .families import (
    MapPair,
    SetApprox,
    ValidationReport,
    build_family,
    flat_interval,
    perturbed_flat_pair,
    quadratic_pair,
    standard_pair,
    validate,
)
from .funcspace import (
    MonotoneFunction,
    compose,
    evaluate,
    from_csv,
    identity,
    invert,
    to_csv,
)

__version__ = "0.1.0"
