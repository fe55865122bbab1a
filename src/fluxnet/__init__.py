"""Heat-flux large-deviation toolkit for thermally driven harmonic networks.

Build a model from a network description, then interrogate the steady-state
flux statistics:

>>> from fluxnet import assemble_model, parse_spec, lineality_space
>>> model = assemble_model(parse_spec(open("network.json").read()))
>>> geometry = lineality_space(model)
"""

__version__ = "0.1.0"

from .errors import (
    ConvergenceError,
    DomainError,
    FluxnetError,
    NumericalError,
    QuadratureError,
    RiccatiError,
    SpecificationError,
    StabilityError,
)
from .network import (
    LinearModel,
    NetworkSpec,
    TiltLift,
    assemble_model,
    canonical_lift,
    kalman_controllable,
    load_spec,
    parse_spec,
)
from .solvers import (
    HamiltonianData,
    RiccatiSolution,
    SteadyState,
    hamiltonian,
    integrate_frequency,
    matrix_exponential,
    riccati_pair,
    solve_lyapunov,
    steady_covariance,
)
from .cgf import (
    DomainGeometry,
    E_matrix,
    LambdaPair,
    TiltState,
    commuting_lift,
    g_hessian_quadform,
    g_value,
    in_domain,
    lineality_space,
    section_boundary,
    section_inf_boundary,
)
from .ldp import (
    ConservedDirection,
    EntropyProduction,
    GapScan,
    RateResult,
    condition_R_scan,
    conserved_direction,
    conserved_rate,
    entropy_production,
    fr_defect,
    rate_function,
)
from .simulate import (
    CgfEstimate,
    ConservedCheck,
    ExactOUStep,
    SimConfig,
    TrajectoryStats,
    accumulate_flux,
    cross_accumulator_ratio,
    empirical_cgf,
    finite_horizon_cgf,
    propagate,
    sample_stationary,
)

__all__ = [name for name in dir() if not name.startswith("_")]
