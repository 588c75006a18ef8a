"""Independent numerical cross-checks for the closed forms.

solve_exact integrates the exact reduced radial equation

    U'' = [gamma/r^2 + (2 mu/hbar^2)(V(r) - E)] U,
    gamma = (2l+D-1)(2l+D-3)/4,

with no exponential approximation of the centrifugal barrier, and finds
eigenvalues by shooting outward plus bisection on the node count and the
sign of U at the outer boundary.  The integration runs on a uniform grid
in x = ln(r): substituting U = sqrt(r) y turns the equation into
y''(x) = [r^2 W(r) + 1/4] y(x), which stays resolvable near the Coulomb
singularity at the origin without millions of linear-grid points.  The
marching scheme is Numerov (fourth order in the step).

adaptive_quad is a general-purpose globally adaptive Gauss-Kronrod
(G7, K15) integrator used for normalization and expectation-value
cross-checks; endpoint singularities x^p with p > -1 are handled by
subdivision toward the endpoint (no node ever touches an endpoint).
"""

import heapq
import math
from dataclasses import dataclass

from . import model
from .model import PotentialParams, QuantumNumbers

__all__ = [
    "OracleError",
    "BracketError",
    "ConvergenceError",
    "NodeCountError",
    "QuadratureError",
    "ShootingConfig",
    "OracleResult",
    "default_config",
    "interior_nodes",
    "solve_exact",
    "count_bound_states",
    "approximation_error",
    "adaptive_quad",
]


class OracleError(RuntimeError):
    """Base class for eigensolver failures."""


class BracketError(OracleError):
    """The supplied energy bracket does not straddle the target eigenvalue."""


class ConvergenceError(OracleError):
    """Bisection failed to reach tolerance within max_iter."""


class NodeCountError(OracleError):
    """The converged eigenfunction has the wrong number of interior nodes."""


class QuadratureError(RuntimeError):
    """Adaptive refinement budget exhausted or non-finite integrand."""


@dataclass(frozen=True)
class ShootingConfig:
    r_min: float
    r_max: float
    energy_bracket: tuple[float, float]
    step_count: int = 24000
    tolerance: float = 1e-9
    max_iter: int = 300

    def __post_init__(self):
        if not (0.0 < self.r_min < self.r_max):
            raise ValueError("shooting grid requires 0 < r_min < r_max")
        lo, hi = self.energy_bracket
        if not (lo < hi <= 0.0):
            raise ValueError("energy bracket must satisfy E_lo < E_hi <= 0")
        if self.tolerance <= 0.0:
            raise ValueError("tolerance must be positive")
        if self.step_count < 16:
            raise ValueError("step_count too small")
        if self.max_iter < 1:
            raise ValueError("max_iter must be positive")


@dataclass(frozen=True)
class OracleResult:
    """energy is the bracket midpoint at convergence; residual is the final
    half-width of the energy bracket (the outward-shooting boundary value
    itself is dominated by the growing mode for any double-precision
    energy, so it is not a usable mismatch measure)."""

    energy: float
    node_count: int
    converged: bool
    residual: float


def default_config(
    params: PotentialParams,
    qn: QuantumNumbers,
    step_count: int = 24000,
    tolerance: float | None = None,
) -> ShootingConfig:
    """Grid and bracket from the closed-form level as the initial guess.

    r_min = 1e-6/alpha sits deep in the power-law region; r_max is where
    the closed-form tail exp(-kappa r) drops below ~1e-17.  The bracket
    is the closed-form energy +/- 20%.  The default energy tolerance is
    1e-9, tightened to 1e-8|E| for very shallow levels.
    """
    st = model._existing(params, qn)
    kappa = math.sqrt(-2.0 * params.mu * st.energy) / params.hbar
    r_min = 1e-6 / params.alpha
    r_max = max(40.0 / kappa, 20.0 / params.alpha)
    if tolerance is None:
        tolerance = min(1e-9, 1e-8 * abs(st.energy))
    return ShootingConfig(
        r_min=r_min,
        r_max=r_max,
        energy_bracket=(1.2 * st.energy, 0.8 * st.energy),
        step_count=step_count,
        tolerance=tolerance,
    )


def interior_nodes(qn: QuantumNumbers, dim: int) -> int:
    """Interior node count of the closed-form state labelled n.

    Equals n except when 2l+D-1 = 0 (l = 0 in D = 1), where one root of
    the Jacobi factor sits exactly on the r = 0 boundary and only n - 1
    sign changes are interior.
    """
    return qn.n - 1 if model._angular_v(qn.l, dim) == 0 else qn.n


def _log_grid(params: PotentialParams, l: int, r_min: float, r_max: float, n: int, pot):
    """Uniform ln(r) grid with the E-independent Numerov inputs.

    Returns (h, P, Q, y0, y1) where g_i = P_i - E*Q_i is the coefficient
    of y'' = g y and (y0, y1) start the march on the regular power-law
    branch y ~ r^{|v-1|/2}.
    """
    gam = model._gamma_coeff(l, params.D)
    v = model._angular_v(l, params.D)
    c = 2.0 * params.mu / params.hbar**2
    x0 = math.log(r_min)
    h = (math.log(r_max) - x0) / (n - 1)
    radii = [math.exp(x0 + i * h) for i in range(n)]
    p_arr = [gam + 0.25 + c * r * r * pot(r) for r in radii]
    q_arr = [c * r * r for r in radii]
    y0 = 1.0
    y1 = math.exp(h * abs(v - 1) / 2.0)
    return h, p_arr, q_arr, y0, y1


def _march(p_arr, q_arr, h, energy_val, y0, y1):
    """Numerov march of y'' = (P - E Q) y; returns (nodes, y_end).

    Rescales on the fly so the growing tail cannot overflow; node
    counting and the end sign are scale-invariant.
    """
    h12 = h * h / 12.0
    c_prev = 1.0 - h12 * (p_arr[0] - energy_val * q_arr[0])
    c_cur = 1.0 - h12 * (p_arr[1] - energy_val * q_arr[1])
    y_prev, y_cur = y0, y1
    nodes = 0
    last_sign = 0.0 if y_cur == 0.0 else math.copysign(1.0, y_cur)
    n = len(p_arr)
    for i in range(1, n - 1):
        c_next = 1.0 - h12 * (p_arr[i + 1] - energy_val * q_arr[i + 1])
        y_next = ((12.0 - 10.0 * c_cur) * y_cur - c_prev * y_prev) / c_next
        if abs(y_next) > 1e250:
            y_next *= 1e-250
            y_cur *= 1e-250
        if y_next != 0.0:
            sign = math.copysign(1.0, y_next)
            if last_sign != 0.0 and sign != last_sign:
                nodes += 1
            last_sign = sign
        y_prev, y_cur = y_cur, y_next
        c_prev, c_cur = c_cur, c_next
    return nodes, y_cur


def solve_exact(
    params: PotentialParams,
    l: int,
    target_nodes: int,
    cfg: ShootingConfig,
    potential=None,
) -> OracleResult:
    """Eigenvalue of the exact radial problem with the given node count.

    `potential` may override the radial potential (a callable of r), e.g.
    to solve the pure Coulomb problem as a sanity check; the default is
    the screened potential of `params`.

    Raises BracketError when the bracket does not straddle the target
    eigenvalue, ConvergenceError when bisection stalls, NodeCountError if
    the converged eigenfunction has the wrong node count.
    """
    if potential is None:
        pot = lambda r: model.potential(r, params)
    else:
        pot = potential
    k = int(target_nodes)
    if k < 0:
        raise ValueError("target_nodes must be >= 0")
    h, p_arr, q_arr, y0, y1 = _log_grid(
        params, l, cfg.r_min, cfg.r_max, cfg.step_count, pot
    )
    parity = -1.0 if k % 2 else 1.0

    def shoot(e_val):
        return _march(p_arr, q_arr, h, e_val, y0, y1)

    def above(nodes, y_end):
        # True once E has passed the k-th eigenvalue: either an extra node
        # appeared or the tail flipped against the (-1)^k convention.
        if nodes != k:
            return nodes > k
        return parity * y_end < 0.0

    e_lo, e_hi = cfg.energy_bracket
    nodes_lo, y_lo = shoot(e_lo)
    if above(nodes_lo, y_lo):
        raise BracketError(
            f"lower bracket E={e_lo!r} already lies above the target eigenvalue "
            f"(nodes={nodes_lo})"
        )
    nodes_hi, y_hi = shoot(e_hi)
    if not above(nodes_hi, y_hi):
        raise BracketError(
            f"upper bracket E={e_hi!r} lies below the target eigenvalue "
            f"(nodes={nodes_hi})"
        )

    iterations = 0
    while e_hi - e_lo > cfg.tolerance:
        if iterations >= cfg.max_iter:
            raise ConvergenceError(
                f"bisection did not reach {cfg.tolerance!r} within "
                f"{cfg.max_iter} iterations (width {e_hi - e_lo!r})"
            )
        mid = 0.5 * (e_lo + e_hi)
        nodes_mid, y_mid = shoot(mid)
        if above(nodes_mid, y_mid):
            e_hi = mid
        else:
            e_lo = mid
            nodes_lo = nodes_mid
        iterations += 1

    if nodes_lo != k:
        raise NodeCountError(
            f"converged eigenfunction has {nodes_lo} interior nodes, expected {k}"
        )
    return OracleResult(
        energy=0.5 * (e_lo + e_hi),
        node_count=nodes_lo,
        converged=True,
        residual=0.5 * (e_hi - e_lo),
    )


def count_bound_states(
    params: PotentialParams, l: int = 0, step_count: int = 24000
) -> int:
    """Number of bound levels from the node count of the near-zero-energy
    shooting solution (Sturm oscillation count)."""
    r_min = 1e-6 / params.alpha
    r_max = 30.0 / params.alpha
    h, p_arr, q_arr, y0, y1 = _log_grid(
        params, l, r_min, r_max, step_count, lambda r: model.potential(r, params)
    )
    probe = -1e-12 * (params.alpha * params.hbar) ** 2 / (2.0 * params.mu)
    nodes, _ = _march(p_arr, q_arr, h, probe, y0, y1)
    return nodes


def approximation_error(
    params: PotentialParams, qn: QuantumNumbers, cfg: ShootingConfig | None = None
) -> float:
    """|E_closed - E_oracle| / |E_oracle| for one level.

    Quantifies the error introduced by the exponential stand-in for the
    centrifugal barrier; it vanishes (to solver tolerance) whenever the
    centrifugal coefficient is zero and shrinks as alpha -> 0 otherwise.
    """
    st = model._existing(params, qn)
    if cfg is None:
        cfg = default_config(params, qn)
    res = solve_exact(params, qn.l, interior_nodes(qn, params.D), cfg)
    return abs(st.energy - res.energy) / abs(res.energy)


# 15-point Kronrod extension of 7-point Gauss on [-1, 1] (QUADPACK dqk15)
_XGK = (
    0.9914553711208126,
    0.9491079123427585,
    0.8648644233597691,
    0.7415311855993945,
    0.5860872354676911,
    0.4058451513773972,
    0.2077849550078985,
    0.0,
)
_WGK = (
    0.0229353220105292,
    0.0630920926299786,
    0.1047900103222502,
    0.1406532597155259,
    0.1690047266392679,
    0.1903505780647854,
    0.2044329400752989,
    0.2094821410847278,
)
_WG = (
    0.1294849661688697,
    0.2797053914892767,
    0.3818300505051189,
    0.4179591836734694,
)


def _gk15(f, a, b):
    """One Gauss-Kronrod panel: returns (K15 value, error estimate).

    The estimate follows QUADPACK: |K15 - G7| inflated against the
    variation sum resasc, so panels containing an integrable singularity
    (where both rules agree yet both are wrong) still report a large
    error and keep attracting refinement.
    """
    center = 0.5 * (a + b)
    half = 0.5 * (b - a)
    fc = f(center)
    if not math.isfinite(fc):
        raise QuadratureError(f"non-finite integrand sample at x = {center!r}")
    samples = [fc]
    res_g = _WG[3] * fc
    res_k = _WGK[7] * fc
    res_abs = _WGK[7] * abs(fc)
    for i in range(7):
        x = half * _XGK[i]
        f1 = f(center - x)
        f2 = f(center + x)
        if not (math.isfinite(f1) and math.isfinite(f2)):
            raise QuadratureError("non-finite integrand sample")
        samples.append((i, f1, f2))
        both = f1 + f2
        res_k += _WGK[i] * both
        res_abs += _WGK[i] * (abs(f1) + abs(f2))
        if i % 2 == 1:
            res_g += _WG[i // 2] * both
    mean = 0.5 * res_k
    res_asc = _WGK[7] * abs(fc - mean)
    for i, f1, f2 in samples[1:]:
        res_asc += _WGK[i] * (abs(f1 - mean) + abs(f2 - mean))
    err = abs(res_k - res_g) * half
    res_asc *= half
    if res_asc != 0.0 and err != 0.0:
        err = res_asc * min(1.0, (200.0 * err / res_asc) ** 1.5)
    err = max(err, 50.0 * 2.2e-16 * res_abs * half)
    return res_k * half, err


def adaptive_quad(f, a: float, b: float, abs_tol: float = 1e-10, max_intervals: int = 5000) -> float:
    """Globally adaptive integral of f over [a, b] to absolute tolerance.

    The worst panel is bisected until the summed error estimate falls
    below abs_tol; raises QuadratureError when the panel budget is
    exhausted first.  Integrable endpoint singularities x^p, p > -1, are
    handled by subdivision toward the endpoint; note that a singularity
    at x = 0 resolves fully (the float grid is dense there), while one at
    a nonzero endpoint is limited to ~sqrt(machine eps) of the local
    scale because refinement bottoms out on ulp-wide panels.  Extreme
    refinement can round a node onto an endpoint, so integrands must
    tolerate being called there.
    """
    if not (abs_tol > 0.0):
        raise ValueError("abs_tol must be positive")
    if not (b > a):
        raise ValueError("integration bounds must satisfy a < b")
    value, err = _gk15(f, a, b)
    heap = [(-err, a, b, value)]
    total_err = err
    total_val = value
    while total_err > abs_tol:
        if len(heap) >= max_intervals:
            raise QuadratureError(
                f"adaptive refinement budget exhausted ({max_intervals} panels, "
                f"error estimate {total_err:.3e} > {abs_tol:.3e})"
            )
        neg_err, lo, hi, val = heapq.heappop(heap)
        total_err += neg_err  # remove this panel's error
        total_val -= val
        mid = 0.5 * (lo + hi)
        if not (lo < mid < hi):
            raise QuadratureError("panel width underflow during refinement")
        v1, e1 = _gk15(f, lo, mid)
        v2, e2 = _gk15(f, mid, hi)
        heapq.heappush(heap, (-e1, lo, mid, v1))
        heapq.heappush(heap, (-e2, mid, hi, v2))
        total_err += e1 + e2
        total_val += v1 + v2
    return total_val
