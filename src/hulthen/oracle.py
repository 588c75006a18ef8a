"""Independent numerical cross-checks for the closed forms.

solve_exact integrates the exact reduced radial equation

    U'' = [gamma/r^2 + (2 mu/hbar^2)(V(r) - E)] U,
    gamma = (2l+D-1)(2l+D-3)/4,

with no exponential approximation of the centrifugal barrier.  The
integration runs on a uniform grid in x = ln(r): substituting U = sqrt(r) y
turns the equation into y''(x) = [r^2 W(r) + 1/4] y(x), which stays
resolvable near the Coulomb singularity at the origin without millions of
linear-grid points.  The scheme is Numerov (fourth order in the step), with
y = 0 at r_max, on a 24000-point grid (_STEPS).

Numerov is marched in ratio form (B. R. Johnson, J. Chem. Phys. 67, 4086
(1977)): with T_i = h^2 g_i / 12 and F_i = (1 - T_i) y_i, the ratios
R_i = F_{i+1}/F_i obey R_i = U_i - 1/R_{i-1}, U_i = (2 + 10 T_i)/(1 - T_i),
and cannot overflow.  They are the pivots of the tridiagonal Numerov
matrix, so the number of negative R_i counts the grid levels below E (a
Sturm count).  A solve starts at the bracket midpoint and moves E by
Cooley's matching-point correction (Math. Comp. 15, 363 (1961)) from an
outward and an inward march that meet at the last classical turning point;
their Sturm count shrinks the bracket, and a step that leaves it is
replaced by bisection.  Once the correction is below a quarter of the
tolerance, counts at E -/+ tolerance/2 certify the level.  A count inside
the bracket proves its upper end if it lies above the target and its lower
end if not; an end no count has proven is marched on its own only where
the solve needs it: when it first falls back to bisection, and before it
returns or fails.  A solve makes at most 300 Cooley passes (_MAX_PASSES).

The solver reads no closed form: the caller names the node count it
targets (model.Level.nodes for a closed-form level), and default_config
is the only code here that reads the level, for its grid, bracket and
tolerance.  A grid whose coefficients are not finite raises OracleError
before its points are marched, and so does a count in which every pivot
is negative.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import model
from .model import PotentialParams, QuantumNumbers

__all__ = [
    "OracleError",
    "BracketError",
    "ConvergenceError",
    "NodeCountError",
    "ShootingConfig",
    "OracleResult",
    "default_config",
    "solve_exact",
    "count_bound_states",
]


class OracleError(RuntimeError):
    """Base class for eigensolver failures."""


class BracketError(OracleError):
    """The supplied energy bracket does not straddle the target eigenvalue."""


class ConvergenceError(OracleError):
    """The tolerance cannot be reached: finer than the float spacing, or not
    within 300 Cooley passes (_MAX_PASSES)."""


class NodeCountError(OracleError):
    """The converged eigenfunction has the wrong number of interior nodes."""


# points of the ln(r) grid of solve_exact and count_bound_states
_STEPS = 24000
# Cooley passes a solve may make before it raises ConvergenceError
_MAX_PASSES = 300


@dataclass(frozen=True)
class ShootingConfig:
    """Inputs of one solve_exact call.

    r_min, r_max: the ends of the 24000-point ln(r) grid (_STEPS points),
        0 < r_min < r_max < inf.
    energy_bracket: (E_lo, E_hi) with E_lo < E_hi <= 0, which must straddle
        the target level.
    tolerance: the width of the certified window (the level lies within
        energy -/+ tolerance/2); finite, positive and below the bracket
        width.
    """

    r_min: float
    r_max: float
    energy_bracket: tuple[float, float]
    tolerance: float = 1e-9

    def __post_init__(self):
        if not (0.0 < self.r_min < self.r_max < math.inf):
            raise ValueError("shooting grid requires 0 < r_min < r_max < inf")
        lo, hi = self.energy_bracket
        if not (lo < hi <= 0.0):
            raise ValueError("energy bracket must satisfy E_lo < E_hi <= 0")
        if not (0.0 < self.tolerance < math.inf):
            raise ValueError(f"tolerance must be a finite positive real, got {self.tolerance!r}")
        # a bracket within the tolerance would be returned as its midpoint
        # without a single pass
        if self.tolerance >= hi - lo:
            raise ValueError(
                f"tolerance {self.tolerance!r} is not below the energy bracket width {hi - lo!r}"
            )


@dataclass(frozen=True)
class OracleResult:
    """energy is the level and residual the half-width of an interval around
    it that node counts prove to hold the level: the Sturm count is at most
    node_count at energy - residual and above it at energy + residual.
    shots is the number of passes over the grid the solve made: its Cooley
    passes plus its Sturm marches (the two of the certificate, and one at
    each bracket end that no count had proven)."""

    energy: float
    node_count: int
    converged: bool
    residual: float
    shots: int


def default_config(
    params: PotentialParams,
    qn: QuantumNumbers,
    tolerance: float | None = None,
) -> ShootingConfig:
    """Grid and bracket from the closed-form level as the initial guess.

    r_min = 1e-6/alpha sits deep in the power-law region; r_max is where
    the closed-form tail exp(-kappa r) drops below ~1e-17.  The bracket
    is the closed-form energy +/- 20%.  The default energy tolerance is
    1e-9, tightened to 1e-8|E| for very shallow levels.
    """
    e_val = model.level(params, qn).energy
    kappa = math.sqrt(-2.0 * params.mu * e_val) / params.hbar
    r_min = 1e-6 / params.alpha
    r_max = max(40.0 / kappa, 20.0 / params.alpha)
    if tolerance is None:
        tolerance = min(1e-9, 1e-8 * abs(e_val))
    return ShootingConfig(
        r_min=r_min,
        r_max=r_max,
        energy_bracket=(1.2 * e_val, 0.8 * e_val),
        tolerance=tolerance,
    )


# grid points per block of count_bound_states.  A block's arrays (32 kB)
# are reused from the allocator's free lists; grid-sized temporaries were
# handed back to the OS after each call and faulted in again by the next,
# about 250 page faults a call.
_BLOCK = 4096


def _log_coeffs(params: PotentialParams, l: int, r_min: float, r_max: float, n: int):
    """Uniform ln(r) grid of n points with the E-independent Numerov inputs.

    Returns (h, coeffs, y1): coeffs(lo, hi) gives the arrays P and Q on grid
    points lo .. hi-1, where g_i = P_i - E*Q_i is the coefficient of
    y'' = g y, and y_0 = 1, y_1 = y1 start the march on the regular branch
    y ~ r^{|v-1|/2} (1 + a r).  The Frobenius term a = -(2 mu Z/hbar^2) /
    (|v-1| + 1) comes from the -Z/r core of V; without it the start leaves
    an energy error of order r_min^2 that no step count removes.

    coeffs raises OracleError naming the first radius where P or Q is not
    finite: Q = c r^2 overflows towards r_max (once r >~ 1e154
    hbar/sqrt(mu)), V towards r_min for a huge Z, and Q V in between.
    """
    gam = model._gamma_coeff(l, params.D)
    v = model._angular_v(l, params.D)
    c = 2.0 * params.mu / params.hbar**2
    x0 = math.log(r_min)
    h = (math.log(r_max) - x0) / (n - 1)

    def coeffs(lo, hi):
        radii = np.exp(x0 + h * np.arange(lo, hi))
        # pot before q_arr: the other order made a solve fault in up to three
        # times the pages (the grid's temporaries are handed back to the OS)
        with np.errstate(all="ignore"):
            pot = model.potential(radii, params)
            q_arr = c * radii * radii
            p_arr = gam + 0.25 + q_arr * pot
        # V <= 0, so P is not finite wherever Q = c r^2 overflows
        finite = np.isfinite(p_arr)
        if not finite.all():
            raise OracleError(
                f"the grid coefficients are not finite at r = {float(radii[finite.argmin()])!r}")
        return p_arr, q_arr

    a = -c * params.Z / (abs(v - 1) + 1.0)
    y1 = math.exp(h * abs(v - 1) / 2.0) * (1.0 + a * r_min * math.exp(h)) / (1.0 + a * r_min)
    return h, coeffs, y1


def _log_grid(params: PotentialParams, l: int, r_min: float, r_max: float, n: int):
    """The grid of _log_coeffs as (h, P, Q, y1), with P and Q on all n points."""
    h, coeffs, y1 = _log_coeffs(params, l, r_min, r_max, n)
    return (h, *coeffs(0, n), y1)


def _numerov(h, p_arr, q_arr, energy_val):
    """T_i = h^2 g_i / 12 (an array) and U_i = (2 + 10 T_i)/(1 - T_i) (a
    memoryview of floats: fast to iterate, no copy) at one energy."""
    t = (h * h / 12.0) * (p_arr - energy_val * q_arr)
    return t, memoryview((2.0 + 10.0 * t) / (1.0 - t))


def _r0(t, y1):
    """R_0 = F_1/F_0, where F_i = (1 - T_i) y_i."""
    return float((1.0 - t[1]) * y1 / (1.0 - t[0]))


def _sturm_count(h, y1, blocks, energy_val) -> int:
    """Sturm count at energy_val: the number of grid levels below it.

    Marches R_i = F_{i+1}/F_i = U_i - 1/R_{i-1} outward over grid points
    1 .. n-2, whose P and Q `blocks` yields in order as pairs of arrays.
    The R_i are the pivots of the Numerov matrix, so the negative ones are
    the nodes of y and count the levels below energy_val.
    """
    r = None
    nodes = 0
    for p_blk, q_blk in blocks:
        t, u = _numerov(h, p_blk, q_blk, energy_val)
        if r is None:  # the first block: start at U_1 from R_0
            r, u = _r0(t, y1), u[1:]
        for u_i in u:
            try:
                r = u_i - 1.0 / r
            except ZeroDivisionError:  # F_i = 0 exactly, so F_{i+1} = -F_{i-1}
                r = -math.inf
            if r < 0.0:
                nodes += 1
    return nodes


def _march(grid, energy_val) -> int:
    """Sturm count at energy_val on a (h, P, Q, y1) grid of _log_grid."""
    h, p_arr, q_arr, y1 = grid
    return _sturm_count(h, y1, [(p_arr[:-1], q_arr[:-1])], energy_val)


def _ratios(u_seq, r):
    """r, then R = U - 1/R for each U of u_seq, as in _sturm_count (outward
    R_i = F_{i+1}/F_i, or inward F_{i-1}/F_i).

    _sturm_count keeps its own loop: counting in place takes about two
    thirds of the time of draining this generator, and it runs four times a
    solve.
    """
    yield r
    for u_i in u_seq:
        try:
            r = u_i - 1.0 / r
        except ZeroDivisionError:
            r = -math.inf
        yield r


def _cooley(grid, energy_val):
    """Sturm count and Cooley's energy correction dE at energy_val.

    R_i = F_{i+1}/F_i is marched outward to the last classical turning
    point m (g_m < 0) and S_i = F_{i-1}/F_i inward from F = 0 at r_max.
    Joined at F_m = 1, the two solutions miss the Numerov equation at m by
    gamma = U_m - 1/R_{m-1} - 1/S_{m+1}, the twisted pivot of the Numerov
    matrix: the negative R, S and gamma add up to the Sturm count, and
    dE = gamma / (c_m h^2 sum Q y^2) with c = 1 - T and y = F/c.
    """
    h, p_arr, q_arr, y1 = grid
    t, u = _numerov(h, p_arr, q_arr, energy_val)
    r0 = _r0(t, y1)
    n = t.size
    allowed = np.flatnonzero(t < 0.0)
    m = min(max(int(allowed[-1] if allowed.size else np.argmin(t)), 1), n - 3)
    # R_0 .. R_{m-1} and S_{n-2} .. S_{m+1}
    r_out = np.fromiter(_ratios(u[1:m], r0), float, m)
    s_in = np.fromiter(_ratios(u[n - 3 : m : -1], u[n - 2]), float, n - 2 - m)
    with np.errstate(all="ignore"):
        gamma = u[m] - 1.0 / r_out[-1] - 1.0 / s_in[-1]
        c = 1.0 - t
        w = q_arr / (c * c)
        f_out = np.cumprod(1.0 / r_out[::-1])  # F_{m-1} .. F_0
        f_in = np.cumprod(1.0 / s_in[::-1])  # F_{m+1} .. F_{n-2}
        norm = w[m] + w[m - 1 :: -1] @ (f_out * f_out) + w[m + 1 : n - 1] @ (f_in * f_in)
        step = float(gamma / (c[m] * h * h * norm))
    nodes = np.count_nonzero(r_out[1:] < 0.0) + np.count_nonzero(s_in < 0.0) + (gamma < 0.0)
    return int(nodes), step


def solve_exact(
    params: PotentialParams, l: int, target_nodes: int, cfg: ShootingConfig
) -> OracleResult:
    """Eigenvalue of the exact radial problem with the given node count.

    Raises BracketError when the bracket does not straddle the target
    eigenvalue, found when the solve first falls back to bisection or
    before it returns or fails (an end is marched on its own only if no
    count of the solve has proven it); ConvergenceError when the tolerance
    is finer than the float spacing of the bracket energies or the solve
    takes more than 300 Cooley passes (_MAX_PASSES); NodeCountError if the
    certified level has the wrong node count.  The grid has 24000 points
    (_STEPS) from cfg.r_min to cfg.r_max.
    """
    model._check_index("l", l)
    model._check_index("target_nodes", target_nodes)
    k = int(target_nodes)
    e_lo, e_hi = cfg.energy_bracket
    tol = cfg.tolerance
    if tol < 4.0 * math.ulp(e_lo):
        raise ConvergenceError(
            f"tolerance {tol!r} is below 4 float spacings of the bracket energy "
            f"{e_lo!r}"
        )
    grid = _log_grid(params, l, cfg.r_min, cfg.r_max, _STEPS)
    # the Sturm count at each end of the bracket, None until a count proves it
    nodes_lo = nodes_hi = None
    shots = 0

    def march_ends():
        # an end no count has proven is still at its energy from cfg
        nonlocal nodes_lo, nodes_hi, shots
        if nodes_lo is None:
            nodes_lo = _march(grid, e_lo)
            shots += 1
            if nodes_lo > k:
                raise BracketError(
                    f"lower bracket E={e_lo!r} already lies above the target "
                    f"eigenvalue (nodes={nodes_lo})"
                )
        if nodes_hi is None:
            nodes_hi = _march(grid, e_hi)
            shots += 1
            if nodes_hi <= k:
                raise BracketError(
                    f"upper bracket E={e_hi!r} lies below the target eigenvalue "
                    f"(nodes={nodes_hi})"
                )

    def narrow(e_val, nodes):
        nonlocal e_lo, e_hi, nodes_lo, nodes_hi
        if nodes > k:
            if e_val <= e_hi:
                e_hi, nodes_hi = e_val, nodes
        elif e_val > e_lo:
            e_lo, nodes_lo = e_val, nodes
        if not e_lo < e_hi:
            march_ends()
            raise ConvergenceError(
                f"node counts disagree at E={e_val!r}: the tolerance is at the "
                f"float resolution of the march"
            )

    e_val = 0.5 * (e_lo + e_hi)
    passes = 0
    while e_hi - e_lo > tol:
        if passes >= _MAX_PASSES:
            march_ends()
            raise ConvergenceError(
                f"no level to {tol!r} within {_MAX_PASSES} passes "
                f"(bracket width {e_hi - e_lo!r})"
            )
        passes += 1
        nodes, step = _cooley(grid, e_val)
        shots += 1
        narrow(e_val, nodes)
        e_val += step
        if not e_lo < e_val < e_hi:
            march_ends()
            e_val = 0.5 * (e_lo + e_hi)
        elif abs(step) <= 0.25 * tol:
            lo, hi = e_val - 0.5 * tol, e_val + 0.5 * tol
            n_lo, n_hi = _march(grid, lo), _march(grid, hi)
            shots += 2
            # inside the bracket these counts prove its ends as well
            narrow(lo, n_lo)
            narrow(hi, n_hi)
            march_ends()
            if n_lo <= k < n_hi:
                if n_lo != k:
                    raise NodeCountError(
                        f"certified level has {n_lo} interior nodes, expected {k}"
                    )
                return OracleResult(e_val, n_lo, True, 0.5 * tol, shots)
            e_val = 0.5 * (e_lo + e_hi)

    march_ends()
    if nodes_lo != k:
        raise NodeCountError(
            f"converged eigenfunction has {nodes_lo} interior nodes, expected {k}"
        )
    return OracleResult(0.5 * (e_lo + e_hi), nodes_lo, True, 0.5 * (e_hi - e_lo), shots)


def count_bound_states(params: PotentialParams, l: int = 0) -> int:
    """Number of bound levels from the node count of the near-zero-energy
    shooting solution (Sturm oscillation count).

    The grid has 24000 points (_STEPS) and reaches r = 100/alpha, since
    the shallowest levels reach far out: at alpha = 0.22, D = 3, l = 0 the
    third level has E = -5.6e-6 and a decay length of ~300 = 66/alpha, and
    a march to 30/alpha misses it.  OracleError when every pivot is
    negative: that count is the grid's cap, not the number of levels.
    """
    model._check_index("l", l)
    h, coeffs, y1 = _log_coeffs(params, l, 1e-6 / params.alpha, 100.0 / params.alpha, _STEPS)
    probe = -1e-12 * (params.alpha * params.hbar) ** 2 / (2.0 * params.mu)
    last = _STEPS - 1  # the march stops short of the Dirichlet end
    blocks = (coeffs(lo, min(lo + _BLOCK, last)) for lo in range(0, last, _BLOCK))
    nodes = _sturm_count(h, y1, blocks, probe)
    if nodes == last - 1:  # the pivots R_1 .. R_{n-2}
        raise OracleError(f"all {nodes} pivots of the grid are negative: the count "
                          f"exceeds what {_STEPS} points resolve")
    return nodes
