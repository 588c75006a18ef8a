"""Bound states of the D-dimensional Hulthen potential.

Closed-form spectrum, Jacobi-polynomial wavefunctions with exact
normalization constants, expectation values from parameter derivatives,
and an independent shooting-method eigensolver of the exact radial
equation for cross-validation.
"""

from .expectation import (
    ExpectationReport,
    QuadratureError,
    dE_dl,
    expectation_report,
    inv_r2_expect,
    kinetic_expect,
    potential_expect,
    quadrature_expect,
)
from .model import (
    BoundState,
    DimensionlessParams,
    Level,
    NoBoundState,
    PotentialParams,
    QuantumNumbers,
    RadialGrid,
    RadialSamples,
    bound_state_count,
    centrifugal_approx,
    coulomb_limit_energy,
    count_nodes,
    default_grid,
    energy,
    level,
    normalization_constant,
    nu_problem,
    potential,
    spectrum,
    wavefunction_samples,
)
from .oracle import (
    BracketError,
    ConvergenceError,
    NodeCountError,
    OracleError,
    OracleResult,
    ShootingConfig,
    approximation_error,
    count_bound_states,
    default_config,
    interior_nodes,
    solve_exact,
)

__version__ = "0.1.0"
