"""The screened-Coulomb (Hulthen) potential in D spatial dimensions.

The potential -Z*alpha*exp(-alpha*r)/(1 - exp(-alpha*r)) behaves like
-Z/r near the origin and decays exponentially.  After separating the
hyperangular part, the reduced radial function U(r) = r^((D-1)/2) R(r)
obeys a one-dimensional equation with the centrifugal coefficient
gamma = (2l+D-1)(2l+D-3)/4.  Replacing 1/r^2 by its exponential
counterpart alpha^2 e^{-ar}/(1-e^{-ar})^2 (accurate for small alpha)
makes the equation hypergeometric-type in s = exp(-alpha*r), which
yields a closed-form spectrum and Jacobi-polynomial eigenfunctions.

Dimensionless quantities used throughout:

    epsilon = sqrt(-2 mu E) / (alpha hbar)      scaled decay momentum
    delta   = 2 Z mu / (alpha hbar^2)           screening-scaled strength
    gamma   = (2l+D-1)(2l+D-3)/4                centrifugal coefficient
    v       = 2l+D-1
    Lambda  = 2n+2l+D-1

A bound state with radial index n exists iff delta > m^2 with
m = n + l + (D-1)/2 = Lambda/2 (and m > 0), in which case

    epsilon = (delta - m^2) / (2 m),   E = -(alpha hbar epsilon)^2 / (2 mu).

Its reduced wavefunction is U(r) = C_n s^eps (1-s)^(v/2) P_n^(2eps, v-1)(1-2s).
level(params, qn) builds one frozen Level record per bound state: the
dimensionless set above, E, C_n (a closed form in Gamma functions) and the
Jacobi recurrence.  Every consumer reads the level's quantities from it,
and calling it evaluates U from alpha*r, never through s itself.  A level
that does not exist raises NoBoundState.
"""

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from . import specfun
from .nu import NUProblem, QuadPoly

__all__ = [
    "PotentialParams",
    "QuantumNumbers",
    "DimensionlessParams",
    "BoundState",
    "Level",
    "NoBoundState",
    "RadialGrid",
    "RadialSamples",
    "dimensionless",
    "potential",
    "centrifugal_approx",
    "energy",
    "level",
    "spectrum",
    "bound_state_count",
    "coulomb_limit_energy",
    "normalization_constant",
    "wavefunction_u",
    "wavefunction_samples",
    "default_grid",
    "count_nodes",
    "nu_problem",
]


@dataclass(frozen=True)
class PotentialParams:
    """Physical inputs: strength Z, screening alpha, mass mu, hbar, dimension D."""

    Z: float
    alpha: float
    mu: float = 1.0
    hbar: float = 1.0
    D: int = 3

    def __post_init__(self):
        for name in ("Z", "alpha", "mu", "hbar"):
            val = getattr(self, name)
            if not (math.isfinite(val) and val > 0.0):
                raise ValueError(f"{name} must be a finite positive real, got {val!r}")
        if self.D != int(self.D) or self.D < 1:
            raise ValueError(f"dimension must be an integer >= 1, got {self.D!r}")


@dataclass(frozen=True)
class QuantumNumbers:
    """Radial index n >= 0 (ground state n = 0) and angular momentum l >= 0."""

    n: int
    l: int = 0

    def __post_init__(self):
        if self.n != int(self.n) or self.n < 0:
            raise ValueError(f"n must be an integer >= 0, got {self.n!r}")
        if self.l != int(self.l) or self.l < 0:
            raise ValueError(f"l must be an integer >= 0, got {self.l!r}")


@dataclass(frozen=True)
class DimensionlessParams:
    epsilon: float
    delta: float
    gamma: float
    v: float
    Lambda: float


@dataclass(frozen=True)
class BoundState:
    """One (n, l) level.  energy/epsilon are None when no bound state exists."""

    qn: QuantumNumbers
    energy: float | None
    epsilon: float | None
    exists: bool


class NoBoundState(ValueError):
    """The requested (n, l) level does not exist for these parameters."""


@dataclass(frozen=True)
class Level(DimensionlessParams):
    """One existing bound state, built once by level(params, qn).

    The dimensionless set, E, C_n and the recurrence of P_n^(2eps, v-1).
    Called with t = alpha*r (a float or an array) it returns U.
    s^eps = exp(-eps t), 1 - s = -expm1(-t) and 1 - 2s = -1 - 2 expm1(-t):
    s itself is never formed, so U underflows only where U itself does.
    """

    qn: QuantumNumbers
    energy: float
    norm: float
    poly: Callable = field(repr=False, compare=False)

    def __call__(self, t):
        xp = math if isinstance(t, float) else np
        em = xp.expm1(-t)  # -(1 - s)
        amp = xp.exp(-self.epsilon * t) * (-em) ** (0.5 * self.v)
        return self.norm * amp * self.poly(-1.0 - 2.0 * em)


@dataclass(frozen=True)
class RadialGrid:
    """Sampling grid specification on (0, inf)."""

    r_min: float
    r_max: float
    points: int
    spacing: str = "linear"

    def __post_init__(self):
        if not (0.0 < self.r_min < self.r_max):
            raise ValueError("grid requires 0 < r_min < r_max")
        if self.points < 2:
            raise ValueError("grid requires at least 2 points")
        if self.spacing not in ("linear", "log"):
            raise ValueError(f"unknown grid spacing {self.spacing!r}")

    def radii(self) -> np.ndarray:
        if self.spacing == "log":
            return np.geomspace(self.r_min, self.r_max, self.points)
        return np.linspace(self.r_min, self.r_max, self.points)


@dataclass(frozen=True)
class RadialSamples:
    """Sampled reduced wavefunction U(r) and hyperradial R(r) = r^-(D-1)/2 U."""

    r_values: np.ndarray
    U_values: np.ndarray
    R_values: np.ndarray
    meta: dict = field(default_factory=dict)


def _gamma_coeff(l: int, dim: int) -> float:
    return (2 * l + dim - 1) * (2 * l + dim - 3) / 4.0


def _angular_v(l: int, dim: int) -> int:
    return 2 * l + dim - 1


def _lambda(n: int, l: int, dim: int) -> float:
    return 2.0 * n + 2.0 * l + dim - 1.0


def _delta(params: PotentialParams) -> float:
    return 2.0 * params.Z * params.mu / (params.alpha * params.hbar**2)


def _fixed_set(params: PotentialParams, qn: QuantumNumbers) -> dict:
    """delta, gamma, v and Lambda: the dimensionless set apart from epsilon."""
    return dict(delta=_delta(params), gamma=_gamma_coeff(qn.l, params.D),
                v=float(_angular_v(qn.l, params.D)), Lambda=_lambda(qn.n, qn.l, params.D))


def dimensionless(params: PotentialParams, qn: QuantumNumbers, E: float) -> DimensionlessParams:
    """Dimensionless parameter set for a given (non-positive) energy."""
    if not math.isfinite(E) or E > 0.0:
        raise ValueError(f"scattering states (E > 0) are out of scope, got E = {E!r}")
    eps = math.sqrt(-2.0 * params.mu * E) / (params.alpha * params.hbar)
    return DimensionlessParams(epsilon=eps, **_fixed_set(params, qn))


def potential(r, params: PotentialParams):
    """The screened potential -Z alpha e^{-ar}/(1 - e^{-ar}) at radius r > 0,
    for a float or an array of radii.

    1 - e^{-ar} is taken as -expm1(-ar), so the Coulomb-like small-r regime
    -Z/r + Z alpha/2 + ... is reproduced without cancellation and nothing
    overflows at large r.
    """
    if isinstance(r, np.ndarray):
        if not np.all((r > 0.0) & (r < math.inf)):
            raise ValueError("radii must be finite positive reals")
        xp = np
    elif not (0.0 < r < math.inf):
        raise ValueError(f"radius must be a finite positive real, got {r!r}")
    else:
        xp = math
    u = params.alpha * r
    return params.Z * params.alpha * xp.exp(-u) / xp.expm1(-u)


def centrifugal_approx(r: float, alpha: float) -> float:
    """Exponential stand-in for 1/r^2: alpha^2 e^{-ar}/(1 - e^{-ar})^2.

    Equals 1/r^2 - alpha^2/12 + O(alpha^4 r^2) for small alpha*r.
    """
    if not (r > 0.0) or math.isinf(r):
        raise ValueError(f"radius must be a finite positive real, got {r!r}")
    u = alpha * r
    if u < 1.0:
        em = math.expm1(u)
        return alpha * alpha * math.exp(u) / (em * em)
    t = math.exp(-u)
    return alpha * alpha * t / ((1.0 - t) * (1.0 - t))


def energy(params: PotentialParams, qn: QuantumNumbers) -> BoundState:
    """Closed-form bound-state energy for (n, l), or a no-state marker.

    Uses the compact form epsilon = (delta - m^2)/(2m), m = n+l+(D-1)/2,
    which is algebraically identical to the full bracket expression (see
    the test suite for the verified equivalence).  Existence additionally
    requires m > 0, which only fails for n = l = 0 in D = 1 where the
    level formula is singular and the would-be state is spurious.
    """
    m = 0.5 * _lambda(qn.n, qn.l, params.D)
    delta = _delta(params)
    if m <= 0.0 or delta <= m * m:
        return BoundState(qn=qn, energy=None, epsilon=None, exists=False)
    eps = (delta - m * m) / (2.0 * m)
    e_val = -((params.alpha * params.hbar * eps) ** 2) / (2.0 * params.mu)
    return BoundState(qn=qn, energy=e_val, epsilon=eps, exists=True)


def level(params: PotentialParams, qn: QuantumNumbers) -> Level:
    """The Level record of (n, l); NoBoundState when the level does not exist.

    Its norm is the positive constant C_n making U unit-normed.  With
    s = exp(-alpha r), a = 2eps and b = v-1, the integral of U^2 dr is
    C_n^2 I / alpha, where

        I = int_0^1 s^(a-1) (1-s)^v [P_n^(a,b)(1-2s)]^2 ds
          = Gamma(n+a+1) Gamma(n+v) (2n+v) / (n! Gamma(n+a+v) a (2n+a+v)).

    In x = 1-2s, writing the weight's 1+x as 2 - (1-x) splits I into the
    two standard Jacobi integrals with weights (1-x)^(a-1) (1+x)^b and
    (1-x)^a (1+x)^b.  I is B(2eps, v+1) at n = 0 and holds at v = 0 by
    continuity.  Evaluated in log space, C_n = sqrt(alpha/I) costs O(1)
    and neither overflows nor cancels at any n.
    """
    st = energy(params, qn)
    if not st.exists:
        raise NoBoundState(f"no bound state for n={qn.n}, l={qn.l}, D={params.D}")
    fixed = _fixed_set(params, qn)
    n, a, v = qn.n, 2.0 * st.epsilon, fixed["v"]
    log_i = (
        math.lgamma(n + a + 1.0) + math.lgamma(n + v) + math.log(2 * n + v)
        - math.lgamma(n + 1.0) - math.lgamma(n + a + v) - math.log(a) - math.log(2 * n + a + v)
    )
    return Level(epsilon=st.epsilon, **fixed, qn=qn, energy=st.energy,
                 norm=math.sqrt(params.alpha) * math.exp(-0.5 * log_i),
                 poly=specfun.jacobi_poly(n, a, v - 1.0))


def spectrum(params: PotentialParams, l: int = 0, n_max: int = 64) -> list[BoundState]:
    """All levels n = 0 .. last existing (capped at n_max), in order.

    Empty when no bound state exists.  The returned list can contain a
    leading non-existing entry (n = 0 in D = 1, l = 0) so that row
    indices always equal n.
    """
    states = [energy(params, QuantumNumbers(n=n, l=l)) for n in range(n_max + 1)]
    last = -1
    for st in states:
        if st.exists:
            last = st.qn.n
    return states[: last + 1]


def bound_state_count(params: PotentialParams, l: int = 0, n_max: int = 64) -> int:
    """Number of radial indices n <= n_max supporting a bound state."""
    return sum(st.exists for st in spectrum(params, l, n_max))


def coulomb_limit_energy(params: PotentialParams, qn: QuantumNumbers) -> float:
    """alpha -> 0 limit of the level: -(mu/2 hbar^2) (2Z/Lambda)^2."""
    lam = _lambda(qn.n, qn.l, params.D)
    if lam <= 0:
        raise ValueError("level is singular: 2n+2l+D-1 must be positive")
    return -(params.mu / (2.0 * params.hbar**2)) * (2.0 * params.Z / lam) ** 2


def normalization_constant(params: PotentialParams, qn: QuantumNumbers) -> float:
    """Positive constant C_n making the reduced wavefunction unit-normed
    (derivation in level)."""
    return level(params, qn).norm


def wavefunction_u(s, params: PotentialParams, qn: QuantumNumbers):
    """Reduced wavefunction C_n s^eps (1-s)^(v/2) P_n^(2eps, v-1)(1-2s).

    s = exp(-alpha r) must lie in (0, 1); scalar or array input.  It is
    evaluated by the Level at alpha*r = -ln s, so it underflows to an
    exact 0 instead of raising.
    """
    u = level(params, qn)
    s_arr = np.asarray(s, dtype=float)
    if not np.all((s_arr > 0.0) & (s_arr < 1.0)):
        raise ValueError("s must lie strictly inside (0, 1)")
    return u(-np.log(s_arr))  # a 0-d array gives a numpy scalar, so a float


def default_grid(params: PotentialParams, qn: QuantumNumbers, points: int = 4000) -> RadialGrid:
    """Linear grid covering the state: r up to 40/kappa with kappa = alpha*eps."""
    kappa = params.alpha * level(params, qn).epsilon
    r_max = 40.0 / kappa
    return RadialGrid(r_min=r_max / (4.0 * points), r_max=r_max, points=points)


def wavefunction_samples(
    params: PotentialParams,
    qn: QuantumNumbers,
    grid: RadialGrid | np.ndarray | None = None,
) -> RadialSamples:
    """Sample U and R = r^-(D-1)/2 U on a radial grid.

    U has exactly n interior sign changes (n - 1 when 2l+D-1 = 0, where
    one polynomial root sits on the r = 0 boundary itself).
    """
    if grid is None:
        grid = default_grid(params, qn)
    if isinstance(grid, RadialGrid):
        r = grid.radii()
        meta = {
            "r_min": grid.r_min,
            "r_max": grid.r_max,
            "points": grid.points,
            "spacing": grid.spacing,
        }
    else:
        r = np.asarray(grid, dtype=float)
        meta = {"points": int(r.size), "spacing": "explicit"}
    if r.ndim != 1 or r.size < 1:
        raise ValueError("radial grid must be a 1-D array")
    if not np.all(r > 0.0):
        raise ValueError("all radii must be positive")
    if not np.all(np.diff(r) > 0.0):
        raise ValueError("radii must be strictly increasing")

    lv = level(params, qn)
    u = lv(params.alpha * r)
    rr = u * r ** (-(params.D - 1) / 2.0)
    meta.update({"epsilon": lv.epsilon, "norm_const": lv.norm, "units": "hbar,mu as given"})
    return RadialSamples(r_values=r, U_values=u, R_values=rr, meta=meta)


def count_nodes(values: np.ndarray, rel_floor: float = 1e-9) -> int:
    """Sign changes of a sampled function, ignoring near-zero samples."""
    v = np.asarray(values, dtype=float)
    peak = np.max(np.abs(v)) if v.size else 0.0
    if peak == 0.0:
        return 0
    signs = np.sign(v[np.abs(v) > rel_floor * peak])
    return int(np.sum(signs[1:] != signs[:-1]))


def nu_problem(dp: DimensionlessParams) -> NUProblem:
    """Hypergeometric-type coefficients of the s = exp(-alpha r) equation.

    sigma = s(1-s), tau_t = 1-s, and sigma_t collects the energy,
    strength and centrifugal terms of the transformed radial equation.
    """
    e2 = dp.epsilon * dp.epsilon
    return NUProblem(
        sigma=QuadPoly(0.0, 1.0, -1.0),
        sigma_tilde=QuadPoly(-e2, 2.0 * e2 + dp.delta - dp.gamma, -(e2 + dp.delta)),
        tau_tilde=QuadPoly(1.0, -1.0, 0.0),
    )
