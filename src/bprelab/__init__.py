"""Branching processes in varying and random environments: exact moment
tables, critical-rate calculators, and Monte Carlo convergence-rate checks."""

import types

from ._version import __version__
from .environment import EnvPath, Environment, FixedPath, IIDMixture
from .errors import (
    BpreLabError,
    ConfigError,
    EstimateUnavailableError,
    FitUnavailableError,
    ParameterError,
    SimulationError,
    TableOverflowError,
    UnsupportedOperationError,
)
from .estimators import (
    DecayFit,
    LpEstimate,
    burkholder_constants,
    burkholder_sandwich,
    fit_decay,
    lp_norm,
    w_moment,
)
from .exact_moments import (
    GrowthEnvelope,
    MomentTable,
    P2ClosedForms,
    annealed_moment_table,
    annealed_u,
    conditional_moment_coeffs,
    growth_envelope,
    growth_envelope_check,
    p2_closed_forms,
    quenched_increment_second_moments,
    quenched_moments,
    quenched_p2_tail,
    recursion_inequality_slacks,
)
from .offspring import OffspringLaw
from .rates import (
    RateReport,
    annealed_critical_conditions,
    annealed_lp_criterion,
    annealed_rates,
    default_rho_grid,
    quenched_bounds,
    rate_report,
    series_diagnostic,
)
from .simulate import SimConfig, TrajectoryBatch, increment_identity_check, run

# the public names are the ones imported above
__all__ = ["__version__"] + [
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, types.ModuleType)
]
