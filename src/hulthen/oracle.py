"""Independent numerical cross-checks for the closed forms.

solve_exact integrates the exact reduced radial equation

    U'' = [gamma/r^2 + (2 mu/hbar^2)(V(r) - E)] U,
    gamma = (2l+D-1)(2l+D-3)/4,

with no exponential approximation of the centrifugal barrier.  The
integration runs on a uniform grid in x = ln(r): substituting U = sqrt(r) y
turns the equation into y''(x) = [r^2 W(r) + 1/4] y(x), which stays
resolvable near the Coulomb singularity at the origin without millions of
linear-grid points.  The scheme is Numerov (fourth order in the step), with
y = 0 at r_max.

solve_exact and count_bound_states march one ladder of grids, each every
other point of the next; _ladder states where it starts and stops.
solve_exact chooses its grid by its error: its ladder starts from the
fewest steps of at most ln(2e7)/1500 = 0.0112 in ln(r) (_MAX_LOG_STEP),
the level is converged on each grid in turn, and the solve returns E_N +
(E_N - E_N/2)/15 once the Richardson estimate |E_N - E_N/2|/15 of the
O(h^4) error is at most half the tolerance.  A doubling that shrinks the
estimate by less than 4 shows an error that is not O(h^4), such as
rounding, and raises ConvergenceError, as does the end of the ladder: no
unchecked energy is returned.  A solve's grid spans only the level
(_grid_ends), so most levels are converged on ~680 and ~1350 steps and
end on the second.
count_bound_states climbs its ladder on r = r_min .. 100/alpha, r_min a
solve's clamped to [1e-6/alpha, 0.1/alpha], from steps of at most
ln(1e8)/3000 in ln(r) until two successive counts agree.

Numerov is marched in ratio form (B. R. Johnson, J. Chem. Phys. 67, 4086
(1977)): with T_i = h^2 g_i / 12 and F_i = (1 - T_i) y_i, the ratios
R_i = F_{i+1}/F_i obey R_i = U_i - 1/R_{i-1}, U_i = (2 + 10 T_i)/(1 - T_i),
and cannot overflow.  They are the pivots of the tridiagonal Numerov
matrix, so the number of negative R_i counts the grid levels below E (a
Sturm count).  Every march carries them as D_i = R_i - 1 and U_i as
W_i = U_i - 2, which keeps the digits that hold the energy, and starts on
the regular branch, a Frobenius series in r summed to machine precision
with the energy in it (_log_grid).

A Sturm count (_march) stops once it is final.  Past the last interior
point where W_i <= 0 or is not finite, every W is positive and finite,
and a finite D >= 0 makes the next D positive: 1 + D >= 1, so D/(1 + D)
lies in [0, 1] (rounding is monotone), and W + D/(1 + D) >= W > 0.  So
no later pivot is negative, and the march stops at the first check that
finds D >= 0 there, once every 64 points (_CHUNK).  A nan D never passes
the check, and an infinite D turns nan, which counts no pivot.  The
counts of the census inputs of bench/ march ~58 % of their grid points,
and the certificate marches of its spectra levels ~86 %.

A solve starts at the bracket midpoint and moves E by Cooley's
matching-point correction (Math. Comp. 15, 363 (1961)) from an outward and
an inward march that meet at the last classical turning point; their Sturm
count shrinks the bracket, and a step that leaves it is replaced by
bisection.  A grid's level is converged once the correction is below a
quarter of the tolerance, and only then: every grid's level, and so each
side of the Richardson step, is a Cooley level.  The verdict comes from
counts on the final grid alone: at E -/+ tolerance/2 around the
extrapolated energy they must read the target node count k and k + 1, so
that the window holds the level with k nodes and no other, or
ConvergenceError.  No tolerance finer than 128 float spacings of the
larger of |E_lo| and Z alpha is accepted (_tolerance_floor): rounding in
the marches moves a level by up to ~20 of them, and a finer window can
miss it.  A count inside the bracket proves its upper end if it lies
above the target and its lower end if not; counts on one grid prove
nothing on another, and an end no count on the grid has proven is marched
on its own only where the solve needs it: when it first falls back to
bisection, and before it certifies or fails.  A solve makes at most 300 Cooley passes over all its
grids (_MAX_PASSES).

A Cooley pass within 1e-4 |E| (_CHORD_SPAN) of the last full pass is a
chord pass (the simplified Newton method): it matches at that pass's
point m, counts in place and reuses its norm, as the next grid's first
pass reuses the coarse grid's, doubled, at 2m.

The solver reads no closed form: the caller names the node count it
targets (model.Level.nodes for a closed-form level), and default_config
is the only code here that reads the level, for its bracket and
tolerance.  A grid whose coefficients are not finite, or whose start is
not summed to machine precision, raises OracleError before its points
are marched.
"""

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import model
from .model import PotentialParams, QuantumNumbers

__all__ = [
    "OracleError",
    "BracketError",
    "ConvergenceError",
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
    """The tolerance cannot be reached: below the floor of _tolerance_floor,
    not within 300 Cooley passes (_MAX_PASSES), not on the grids of
    _ladder, or with an error estimate that stops shrinking as O(h^4); or
    counts on a grid close its bracket on no level; or the final grid's
    counts below and above the window are not the target node count k and
    k + 1, so they certify no single level with k nodes.  For
    count_bound_states: no two successive grids of _ladder agree on the
    count.  For both: _ladder has no first grid within its cap."""


# the largest step in ln(r) of a solve's coarsest grid: that of 1500 steps
# over the ln(2e7) of r = 1e-6/alpha to 20/alpha.  On the first two grids
# most levels already pass the Richardson test; with ln(2e7)/1000 the
# spectra levels of bench/ marched 13 % fewer points, but 212 of 1008 (59
# here) needed a third grid, at 7.4 shots a solve (6.4), and solved no
# faster, on the grid ends of _grid_ends as on those from r_min = 1e-3
# hbar^2/(mu Z)
_MAX_LOG_STEP = math.log(2e7) / 1500
# a count's step in ln(r) is at most ln(1e8)/3000, that of 3000 steps
# over r = 1e-6/alpha .. 100/alpha: at twice that step (1500 steps there)
# its two coarsest grids can agree on a wrong count
_MIN_STEPS = 3000
# steps of the finest grid of _ladder
_MAX_STEPS = 96000
# Cooley passes a solve may make before it raises ConvergenceError
_MAX_PASSES = 300
# the finest tolerance a solve accepts, in float spacings of the larger of
# |E_lo| and Z alpha (_tolerance_floor).  Rounding in the marches moves a
# level by up to ~20 of them: over 2400 random gamma = 0 levels, windows
# of 64 and 128 missed none, and the worst was 20.4 off, a 3.1-fold margin
# at 128.  A shallow level lies in a well ~Z alpha deep, and spacings of
# |E_lo| alone do not bound its rounding: at 128 of them 3 levels missed,
# one by 350 (Z alpha = 325 |E|)
_FLOOR_SPACINGS = 128
# terms of the regular series a start may sum (_log_grid); at the r_min of
# _grid_ends every level's series ends within ~20
_START_TERMS = 64
# the series ends once two successive terms are within 2^-60 of its sum
_START_TAIL = 2.0**-60
# terms whose magnitudes add up to more than 2^20 times the sum leave it
# less than 33 of its 53 bits
_START_LOSS = 2.0**20


def _bernoulli_ratios(count):
    """B_m/m!, m < count: the Taylor coefficients of x/(e^x - 1), from
    sum_{j <= m} B_j/j! / (m + 1 - j)! = 0 (m > 0).

    B_m = 0 at odd m > 1, but the recurrence keeps the rounding residues
    it finds there: with them every even entry of 64 holds within 2e-14 of
    B_m/m!, and with zeros in their place the error grows ~4-fold per even
    entry (3e-12 at m = 14, 23 % at m = 50).  The returned odd entries past
    1 are 0."""
    inverse_factorials = [1.0 / math.factorial(j) for j in range(count + 1)]
    ratios = [1.0]
    for m in range(1, count):
        ratios.append(-math.fsum(ratios[j] * inverse_factorials[m + 1 - j] for j in range(m)))
    return tuple(ratio if m < 2 or m % 2 == 0 else 0.0 for m, ratio in enumerate(ratios))


_BERNOULLI = _bernoulli_ratios(_START_TERMS)


@dataclass(frozen=True)
class ShootingConfig:
    """Inputs of one solve_exact call; the solve picks its grid from
    params, l and the bracket's upper end (_grid_ends).

    energy_bracket: (E_lo, E_hi) with E_lo < E_hi < 0, which must straddle
        the target level.
    tolerance: the width of the certified window (the level lies within
        energy -/+ tolerance/2); finite, positive and below the bracket
        width.  It has no default: default_config picks it from the
        level, and solve_exact refuses one below 128 float spacings of
        the larger of |E_lo| and Z alpha (_tolerance_floor).

    The window certifies the level of the final grid and the Richardson
    estimate bounds that grid's step error; the start's error from r_min
    is not part of either.  That start is summed to within 2^-60 of the
    regular series, or the solve raises OracleError (_log_grid), and on
    the levels of tests/test_oracle.py a solve from r_min/100 moves the
    level by at most 1.2e-2 of its tolerance.
    """

    energy_bracket: tuple[float, float]
    tolerance: float

    def __post_init__(self):
        lo, hi = self.energy_bracket
        if not (lo < hi < 0.0):
            raise ValueError("energy bracket must satisfy E_lo < E_hi < 0")
        if not (0.0 < self.tolerance < math.inf):
            raise ValueError(f"tolerance must be a finite positive real, got {self.tolerance!r}")
        # a window as wide as the bracket would certify no more than the
        # bracket already claims
        if self.tolerance >= hi - lo:
            raise ValueError(
                f"tolerance {self.tolerance!r} is not below the energy bracket width {hi - lo!r}"
            )


@dataclass(frozen=True)
class OracleResult:
    """energy is the level and residual the half-width of an interval around
    it that node counts on the final grid, of `points` points, prove to hold
    that grid's level with node_count nodes, the target k, and no other: the
    Sturm count is k at energy - residual and k + 1 at energy + residual.
    A solve that cannot prove this raises, so converged is no field but a
    class constant that reads True.  error_estimate is the Richardson
    estimate |E_N - E_N/2|/15 of the final grid's discretization error,
    from the Cooley levels of the last two grids, at most residual.  shots
    is the number of passes over a grid the solve made on all its grids:
    its Cooley passes plus its Sturm marches (the two of the certificate,
    and one at each bracket end that no count on its grid had proven); a
    Sturm march counts as one shot wherever it stops (_march)."""

    # kept only because bench/ops.py reads it
    converged: ClassVar[bool] = True
    energy: float
    node_count: int
    residual: float
    shots: int
    error_estimate: float
    points: int


def default_config(
    params: PotentialParams,
    qn: QuantumNumbers,
    tolerance: float | None = None,
) -> ShootingConfig:
    """Bracket and tolerance from the closed-form level as the initial guess.

    The bracket is the closed-form energy +/- 20%, and the default energy
    tolerance 1e-9, tightened to 1e-8|E| for very shallow levels, and
    raised to the floor of solve_exact (_tolerance_floor) where that is
    larger: for deep levels (|E| >~ 2.7e4), and for levels within ~5e-6 Z
    alpha of 0.
    """
    e_val = model.level(params, qn).energy
    if tolerance is None:
        tolerance = max(min(1e-9, 1e-8 * abs(e_val)), _tolerance_floor(params, 1.2 * e_val))
    return ShootingConfig(energy_bracket=(1.2 * e_val, 0.8 * e_val), tolerance=tolerance)


def _tolerance_floor(params: PotentialParams, e_lo: float) -> float:
    """The finest tolerance solve_exact accepts for the lower bracket end
    e_lo: 128 float spacings (_FLOOR_SPACINGS) of max(-e_lo, Z alpha)."""
    return _FLOOR_SPACINGS * math.ulp(max(-e_lo, params.Z * params.alpha))


def _grid_ends(params: PotentialParams, e_hi: float) -> tuple[float, float]:
    """(r_min, r_max) of each ln(r) grid of a solve with the upper bracket e_hi.

    The grid spans only the level.  r_min = 0.1 hbar^2/(mu Z), a tenth of
    the Coulomb radius of the core, for every (D, l): the start there is
    the regular series of _log_grid summed to machine precision, whose
    scaled terms do not depend on the units (c Z r_min = 0.2, and alpha
    r_min < 0.8, well inside the series' radius 2 pi, at every closed-form
    level), so it ends within ~20 terms.  A third-order start needed r_min
    = 1e-3 hbar^2/(mu Z), and 1e-4 at D = 2, l = 0, for its O(r_min^4)
    error, and its grids spent ~36 % of their points below 0.1.
    r_max = ln(1 + Z alpha/|E_hi|)/alpha + 40/kappa_hi is the outer turning
    point of V at E_hi, plus 40 decay lengths of a level there (kappa_hi =
    sqrt(-2 mu E_hi)/hbar): past 40/kappa alone the polynomial envelope of
    a high level still holds weight: there D = 1, alpha = 0.001, n = 21 was
    off by 7.4e-10, 107 times its tolerance of 6.9e-12.

    BracketError unless 0 < r_min < r_max < inf.  r_max <= r_min needs E_hi
    < -8e4 mu Z^2/hbar^2, below every level of the -Z/r core and so of V.
    """
    kappa_hi = math.sqrt(-2.0 * params.mu * e_hi) / params.hbar
    r_min = 0.1 * params.hbar**2 / (params.mu * params.Z)
    # kappa_hi = 0 (-2 mu E_hi rounds to 0) puts r_max at inf, raised below
    r_max = (math.log1p(params.Z * params.alpha / -e_hi) / params.alpha + 40.0 / kappa_hi
             if kappa_hi else math.inf)
    if not 0.0 < r_min < r_max < math.inf:
        raise BracketError(f"upper bracket E={e_hi!r} gives no grid: it would run from "
                           f"r_min = {r_min!r} to r_max = {r_max!r}")
    return r_min, r_max


def _log_grid(params: PotentialParams, l: int, r_min: float, r_max: float, n: int,
              coarse=None):
    """Uniform ln(r) grid of n points as (h, P, Q, start): g_i = P_i - E*Q_i
    is the coefficient of y'' = g y at grid point i, and start(E) is the
    y_1 - 1 of a march at E (y_0 = 1).

    coarse, the grid of every other point (_ladder), gives P and Q at the
    even points: its step is 2h exactly, so its radius i is this grid's 2i.

    Raises OracleError naming the first radius where P or Q is not finite:
    Q = c r^2 overflows towards r_max (once r >~ 1e154 hbar/sqrt(mu)), V
    towards r_min for a huge Z, and Q V in between.

    start follows the regular branch y = r^s f(r), f = sum_k a_k r^k, a_0 =
    1 and s = |v-1|/2, by its Frobenius series: with r^2 c (V - E) = sum_j
    g_j r^j, k (2s + k) a_k = g_1 a_{k-1} + ... + g_k a_0.  As r^2 c V =
    -c Z r (alpha r)/(e^{alpha r} - 1), g_j = -c Z B_{j-1} alpha^{j-1}/(j-1)!
    - [j = 2] c E with the Bernoulli numbers B_m (_BERNOULLI): g_1 comes
    from the -Z/r core, and g_j = 0 at even j > 2.  The series is summed in
    its scaled terms b_k = a_k r_min^k until two successive terms are
    within 2^-60 of the sum, and y_1 - 1 = (e^{hs} f(r_1) - f(r_min)) /
    f(r_min) is formed from f(r_1) - f(r_min) = sum b_k (e^{kh} - 1),
    without the cancellation.  A start short of that order leaves an
    energy error that no step count removes: at s = 0 (D = 2, l = 0) the
    other branch, y ~ ln r, does not die out outward.  A first-order start
    at Z = 3.61, mu = 0.41, hbar = 0.51, alpha = 0.068 moved the ground
    state by 4.6e-6 when r_min shrank 100-fold, and its energy converged
    only as O(h).

    start raises OracleError naming r_min and E when the series is not
    summed to machine precision: its terms have not passed 2^-60 within 64
    (_START_TERMS), as at a deep E or an alpha r_min past 2 pi; their
    magnitudes add up to more than 2^20 times the sum, which leaves it
    fewer than 33 good bits, as at a large c Z r_min; or the sum or y_1 - 1
    is not finite.  The terms are built only as a start needs them, so a
    grid that is never marched builds none.
    """
    s = abs(model._angular_v(l, params.D) - 1) / 2.0
    c = 2.0 * params.mu / params.hbar**2
    x0 = math.log(r_min)
    h = (math.log(r_max) - x0) / (n - 1)
    radii = np.exp(x0 + h * (np.arange(n) if coarse is None else np.arange(1, n, 2)))
    # pot before q_arr: the other order made a solve fault in up to three
    # times the pages (the grid's temporaries are handed back to the OS)
    with np.errstate(all="ignore"):
        pot = model.potential(radii, params)
        q_arr = c * radii * radii
        # gamma + 1/4 = s^2, both k^2/4 with k = 2l + D - 2
        p_arr = s * s + q_arr * pot
    # V <= 0, so P is not finite wherever Q = c r^2 overflows
    finite = np.isfinite(p_arr)
    if not finite.all():
        raise OracleError(
            f"the grid coefficients are not finite at r = {float(radii[finite.argmin()])!r}")
    if coarse is not None:
        odd = p_arr, q_arr
        p_arr, q_arr = np.empty(n), np.empty(n)
        p_arr[::2], q_arr[::2] = coarse[1], coarse[2]
        p_arr[1::2], q_arr[1::2] = odd
    czr, ar = c * params.Z * r_min, params.alpha * r_min
    # of each term k = 0, 1, ...: G_k = g_k r_min^k at odd k (G_k = 0 at
    # even k > 2, where B_{k-1} = 0, and G_2 holds the energy), k (2s + k)
    # and e^{kh} - 1.  Each start extends the lists as far as its terms need
    odd_g, scales, rises = [0.0], [1.0], [0.0]

    def start(energy_val):
        g2 = c * (0.5 * params.Z * params.alpha - energy_val) * r_min * r_min
        # b_k = a_k r_min^k: f(r_min) = f0 = sum b_k, and f(r_1) - f0 = df =
        # sum b_k (e^{kh} - 1) without the cancellation
        b, f0, df, size, dy1 = [1.0], 1.0, 0.0, 1.0, math.nan
        try:
            for k in range(1, _START_TERMS):
                if k == len(odd_g):
                    odd_g.append(-czr * _BERNOULLI[k - 1] * ar ** (k - 1) if k % 2 else 0.0)
                    scales.append(k * (2.0 * s + k))
                acc = -czr * b[k - 1] + (g2 * b[k - 2] if k > 1 else 0.0)
                for j in range(3, k + 1, 2):
                    acc += odd_g[j] * b[k - j]
                b_k = acc / scales[k]
                b.append(b_k)
                f0 += b_k
                # after b_k: a start whose e^{kh} - 1 overflows has k + 1 terms
                if k == len(rises):
                    rises.append(math.expm1(k * h))
                df += b_k * rises[k]
                size += abs(b_k)
                if abs(b[k - 1]) + abs(b_k) <= _START_TAIL * abs(f0):
                    # y_1 - 1 = (e^{hs} f(r_1) - f0)/f0
                    dy1 = (math.expm1(h * s) * (f0 + df) + df) / f0
                    break
        except (OverflowError, ZeroDivisionError):
            pass
        if not (math.isfinite(dy1) and size <= _START_LOSS * abs(f0)):
            raise OracleError(
                f"the regular series at r_min = {r_min!r} is not summed to machine precision "
                f"at E={energy_val!r}: its first {len(b)} terms add up to {f0!r} ({size:.3g} "
                f"in magnitude), y_1 - 1 = {dy1!r}")
        return dy1

    return h, p_arr, q_arr, start


# D after a pivot R = 0: R = U - 1/R would be -inf, and the next D/(1 + D)
# rounds to 1, as the next 1/R does to 0
_D_AFTER_ZERO = -1e300
# points a Sturm march takes past its last W <= 0 between checks of D >= 0
# (_march).  Chunks of 32 to 128 points timed alike on the census and
# spectra marches of bench/, ~0.6 of the time of a march in full on the
# census grids; 16 and 256 were a little slower
_CHUNK = 64


def _offsets(grid, energy_val):
    """T_i = h^2 g_i / 12 (an array), W_i = U_i - 2 = 12 T_i/(1 - T_i) (a
    memoryview) and D_0 = R_0 - 1 of a march at one energy on a (h, P, Q,
    start) grid of _log_grid, where R_0 = F_1/F_0 and F_i = (1 - T_i) y_i."""
    h, p_arr, q_arr, start = grid
    t = (h * h / 12.0) * (p_arr - energy_val * q_arr)
    w = memoryview(12.0 * t / (1.0 - t))
    return t, w, float(((1.0 - t[1]) * start(energy_val) + (t[0] - t[1])) / (1.0 - t[0]))


def _deviations(w_seq, d):
    """d, then D = W + D/(1 + D) for each W of w_seq: the pivots R = U - 1/R
    of the Numerov matrix as D = R - 1 (outward R_i = F_{i+1}/F_i, or
    inward F_{i-1}/F_i).

    Where y is smooth R is near 1 and U near 2, and the energy sits in
    their small parts, which R and U round off: a level marched as R moves
    by up to ~eps |E|/h^2, 6.3e-9 at E = -14.4 on a 96001-point grid, and
    more on each halving of h.  D and W keep their relative precision.
    Every march carries D, so Cooley passes and counts see the same levels.
    """
    yield d
    for w_i in w_seq:
        try:
            d = w_i + d / (1.0 + d)
        except ZeroDivisionError:  # F_i = 0 exactly, so F_{i+1} = -F_{i-1}
            d = _D_AFTER_ZERO
        yield d


def _count(w_seq, d):
    """(nodes, D): D = W + D/(1 + D) (_deviations) from d over w_seq, in
    place: the D below -1 (negative pivots; not d) and the last D."""
    nodes = 0
    for w_i in w_seq:
        try:
            d = w_i + d / (1.0 + d)
        except ZeroDivisionError:
            d = _D_AFTER_ZERO
        if d < -1.0:
            nodes += 1
    return nodes, d


def _march(grid, energy_val) -> int:
    """Sturm count at energy_val on a (h, P, Q, start) grid of _log_grid: the
    pivots R_i = 1 + D_i of _deviations below 0, over grid points 1 .. n-2.

    It marches every point up to the last interior one where W <= 0 or is
    not finite, then stops at the first chunk end (every _CHUNK points)
    where D >= 0: past that point no pivot turns negative (see the module
    docstring), so the count is final.  Checking once per chunk, not once
    per point, leaves the loop over the points that of a march without the
    stop, and the points before the tail share it.  It counts in place
    (_count), in about two thirds of the time of draining _deviations.
    """
    _, w, d = _offsets(grid, energy_val)
    end = len(w) - 1
    inner = np.asarray(w)[1:end]
    barred = np.flatnonzero(~((inner > 0.0) & (inner < math.inf)))
    start, stop = 1, int(barred[-1]) + 2 if barred.size else 1
    nodes = 0
    while start < end:
        found, d = _count(w[start:stop], d)
        nodes += found
        if d >= 0.0:
            break
        start, stop = stop, min(stop + _CHUNK, end)
    return nodes


# the reach in |E| of a chord pass (_cooley), which matches at the point
# m_b of its basis: within it m_b, the last turning point at E_b, is still
# a stable one.  On the 1008 spectra levels of bench/ (seeds 1-3) a solve
# makes 2.05 full and 2.36 chord passes (4.4 full passes with no chord
# passes), and none of the 1073 finer grids begins on a full pass.  No
# level is 1e-4 of its tolerance from that of a solve with no chord passes
_CHORD_SPAN = 1e-4
_NO_BASIS = (0, 0.0, 0.0)  # no matching point is 0


def _cooley(grid, energy_val, basis=_NO_BASIS):
    """Sturm count, Cooley's energy correction dE and its basis at energy_val.

    R_i = F_{i+1}/F_i is marched outward to the last classical turning
    point m (g_m < 0) and S_i = F_{i-1}/F_i inward from F = 0 at r_max, both
    as D = R - 1 (_deviations).  Joined at F_m = 1, the two solutions miss
    the Numerov equation at m by gamma = U_m - 1/R_{m-1} - 1/S_{m+1} =
    W_m + D_{m-1}/(1 + D_{m-1}) + D_{m+1}/(1 + D_{m+1}), the twisted pivot
    of the Numerov matrix: the negative R, S and gamma add up to the Sturm
    count, and dE = gamma / (c_m h^2 norm), norm = sum Q y^2, with c = 1 -
    T and y = F/c.  A full pass returns the basis (m, norm, energy_val).
    Offered a basis (m_b, norm_b, E_b) within _CHORD_SPAN |E|, it is a
    chord pass: it matches at m = m_b, where norm_b is the norm of the
    basis's solution at F_{m_b} = 1, counts in place (_count), with the
    same count, and steps on norm_b, off by the norm's relative change
    since E_b.  Cooley's step and the count hold at any matching point:
    the last turning point is only a stable choice, and m_b is that of
    E_b.  A basis with m_b outside 1 .. n-3, or a norm_b that is not a
    finite positive float, gets a full pass.
    """
    h, _, q_arr, _ = grid
    t, w, d0 = _offsets(grid, energy_val)
    n = t.size
    d_end = w[n - 2] + 1.0  # S_{n-2} = U_{n-2}, less 1
    m, norm, e_b = basis
    # on a norm of inf a chord pass would step by 0, as at a converged level
    if (1 <= m <= n - 3 and abs(energy_val - e_b) <= _CHORD_SPAN * abs(energy_val)
            and 0.0 < norm < math.inf):
        nodes_out, d_lo = _count(w[1:m], d0)
        nodes_in, d_hi = _count(w[n - 3 : m : -1], d_end)
        nodes = nodes_out + nodes_in + (d_end < -1.0)
    else:
        allowed = np.flatnonzero(t < 0.0)
        m = min(max(int(allowed[-1] if allowed.size else np.argmin(t)), 1), n - 3)
        # R_0 .. R_{m-1} and S_{n-2} .. S_{m+1}, less 1
        d_out = np.fromiter(_deviations(w[1:m], d0), float, m)
        d_in = np.fromiter(_deviations(w[n - 3 : m : -1], d_end), float, n - 2 - m)
        with np.errstate(all="ignore"):
            c = 1.0 - t
            weight = q_arr / (c * c)
            f_out = np.cumprod(1.0 / (1.0 + d_out[::-1]))  # F_{m-1} .. F_0
            f_in = np.cumprod(1.0 / (1.0 + d_in[::-1]))  # F_{m+1} .. F_{n-2}
            norm = float(weight[m] + weight[m - 1 :: -1] @ (f_out * f_out)
                         + weight[m + 1 : n - 1] @ (f_in * f_in))
        nodes = np.count_nonzero(d_out[1:] < -1.0) + np.count_nonzero(d_in < -1.0)
        d_lo, d_hi, basis = d_out[-1], d_in[-1], (m, norm, energy_val)
    with np.errstate(all="ignore"):
        d_lo, d_hi = np.float64(d_lo), np.float64(d_hi)
        gamma = w[m] + d_lo / (1.0 + d_lo) + d_hi / (1.0 + d_hi)
        step = float(gamma / ((1.0 - t[m]) * h * h * norm))
    return int(nodes + (gamma < 0.0)), step, basis


def solve_exact(
    params: PotentialParams, l: int, target_nodes: int, cfg: ShootingConfig
) -> OracleResult:
    """Eigenvalue of the exact radial problem with the given node count.

    The grids are those of _ladder at E_lo, on the ends _grid_ends gives at
    E_hi, from the fewest steps (at least 8) of at most _MAX_LOG_STEP =
    ln(2e7)/1500 in ln(r), the step of 1500 steps over r = 1e-6/alpha ..
    20/alpha.  The level is converged on each grid in turn, until the
    Richardson estimate |E_N - E_N/2|/15 is at most tolerance/2.  The
    returned energy is E_N + (E_N - E_N/2)/15, certified by counts on the
    final grid alone.

    Raises BracketError when _grid_ends finds no grid for E_hi or the
    bracket does not straddle the target eigenvalue on a grid, found when
    the solve first falls back to bisection there or before it certifies or
    fails (an end is marched on its own only if no count of the solve on
    that grid has proven it); and ConvergenceError when the tolerance is
    below the floor of _tolerance_floor, _ladder has no first grid, the
    solve takes more than 300 Cooley passes over all grids (_MAX_PASSES),
    the estimate is still above tolerance/2 on the last grid of _ladder or
    shrinks by less than 4 on a doubling (an error that is not O(h^4)), the
    counts of a grid close its bracket on no level, or the final grid's
    counts at energy -/+ tolerance/2 are not target_nodes and target_nodes
    + 1.
    """
    model._check_index("l", l)
    model._check_index("target_nodes", target_nodes)
    k = int(target_nodes)
    tol = cfg.tolerance
    floor = _tolerance_floor(params, cfg.energy_bracket[0])
    if tol < floor:
        raise ConvergenceError(f"tolerance {tol!r} is below {floor!r}, {_FLOOR_SPACINGS} float "
                               f"spacings of the larger of -E_lo and Z alpha")
    # the grid being solved and the Sturm count at each end of its bracket,
    # None until a count on that grid proves it
    grid = e_lo = e_hi = nodes_lo = nodes_hi = None
    passes = shots = 0

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

    def converge(new_grid, e_val, basis):
        """The level of new_grid by Cooley passes from e_val, once a
        correction is below a quarter of the tolerance, and the basis of
        its last full pass; ConvergenceError once the solve has made
        _MAX_PASSES passes.  Its first pass is offered basis (_cooley)."""
        nonlocal grid, e_lo, e_hi, nodes_lo, nodes_hi, passes, shots
        grid = new_grid
        (e_lo, e_hi), nodes_lo, nodes_hi = cfg.energy_bracket, None, None
        while passes < _MAX_PASSES:
            passes += 1
            nodes, step, basis = _cooley(grid, e_val, basis)
            shots += 1
            narrow(e_val, nodes)
            e_val += step
            # a step below the float spacing leaves e_val on the end its
            # count just proved
            if abs(step) <= 0.25 * tol and e_lo <= e_val <= e_hi:
                return e_val, basis
            if not e_lo < e_val < e_hi:
                march_ends()
                e_val = 0.5 * (e_lo + e_hi)
        march_ends()
        raise ConvergenceError(
            f"no level to {tol!r} within {_MAX_PASSES} passes (bracket width {e_hi - e_lo!r})")

    r_min, r_max = _grid_ends(params, cfg.energy_bracket[1])
    # a march needs points on both sides of its matching point
    steps = max(8, math.ceil((math.log(r_max) - math.log(r_min)) / _MAX_LOG_STEP))
    grids = _ladder(params, l, r_min, r_max, cfg.energy_bracket[0], steps)
    coarse, basis = converge(next(grids)[1], 0.5 * sum(cfg.energy_bracket), _NO_BASIS)
    last = None
    for steps, fine_grid in grids:
        # the coarse point m is the fine 2m, and a fine norm sums twice the points
        fine, basis = converge(fine_grid, coarse, (2 * basis[0], 2.0 * basis[1], basis[2]))
        estimate = abs(fine - coarse) / 15.0
        if estimate <= 0.5 * tol:
            break
        where = f"error estimate {estimate:.3g} of the {steps + 1}-point grid"
        if last is not None and estimate > 0.25 * last:
            raise ConvergenceError(
                f"{where} shrank by less than 4 from {last:.3g}: the error is "
                f"not O(h^4) at the tolerance {tol!r}"
            )
        coarse, last = fine, estimate
    else:
        raise ConvergenceError(
            f"{where} is above half the tolerance {tol!r}, and a finer grid "
            f"would pass {_MAX_STEPS} steps"
        )

    energy_val = fine + (fine - coarse) / 15.0
    lo, hi = energy_val - 0.5 * tol, energy_val + 0.5 * tol
    n_lo, n_hi = _march(grid, lo), _march(grid, hi)
    shots += 2
    # inside the bracket these counts prove its ends as well
    narrow(lo, n_lo)
    narrow(hi, n_hi)
    march_ends()
    if (n_lo, n_hi) != (k, k + 1):
        raise ConvergenceError(
            f"the node counts {n_lo} and {n_hi} of the {steps + 1}-point grid at "
            f"E={energy_val!r} -/+ {0.5 * tol!r} do not certify the level with {k} nodes"
        )
    return OracleResult(energy_val, k, 0.5 * tol, shots, estimate, steps + 1)


def _ladder(params: PotentialParams, l: int, r_min: float, r_max: float, e_lo: float,
            steps: int):
    """(steps, grid) of each ln(r) grid from r_min to r_max that a solve or
    a count may march, each every other point of the next.  The first has
    the fewest steps * 2^j on which T = h^2 g/12 <= 1/2 for every g = P -
    e_lo Q: finer grids only lower T, and past T = 1 the pivots turn
    negative between levels, so the counts of a coarser grid count
    spurious nodes.  As T falls as h^2, a grid with T > 1/2 skips to the
    first steps * 2^j where it should pass.  Then the steps double up to
    96000 (_MAX_STEPS).  ConvergenceError, before any march, when the first
    grid has no doubling within 96000 steps, naming T if T > 1/2 there."""
    while True:
        grid = _log_grid(params, l, r_min, r_max, steps + 1)
        h = grid[0]
        with np.errstate(over="ignore"):
            t_max = h * h * float(np.max(np.abs(grid[1] - e_lo * grid[2]))) / 12.0
        # an infinite T has no log, and passes on no grid
        skip = 0
        if 0.5 < t_max < math.inf:
            skip = max(1, math.ceil(0.5 * math.log2(2.0 * t_max)))
        if t_max == math.inf or 2 * (steps << skip) > _MAX_STEPS:
            cause = (f"the first grid has {steps} steps" if t_max <= 0.5 else
                     f"T = h^2 g/12 reaches {t_max:.3g} at E={e_lo!r} on the "
                     f"{steps + 1}-point grid")
            raise ConvergenceError(f"{cause}: counts need T <= 1/2 on both grids of the first "
                                   f"doubling, and the finer may not pass {_MAX_STEPS} steps")
        if not skip:
            break
        steps <<= skip
    yield steps, grid
    # rebinding grid keeps no grid alive here but the last one yielded
    while 2 * steps <= _MAX_STEPS:
        steps *= 2
        grid = _log_grid(params, l, r_min, r_max, steps + 1, grid)
        yield steps, grid


def count_bound_states(params: PotentialParams, l: int = 0) -> int:
    """Number of bound levels: the Sturm count of the ln(r) grid at a probe
    energy just below 0 (-1e-12 alpha^2 hbar^2/(2 mu)).

    The grids run from r_min = min(max(0.1 hbar^2/(mu Z), 1e-6/alpha),
    0.1/alpha), a solve's r_min (_grid_ends) between two bounds, to r_max =
    100/alpha.  The first node of the zero-energy regular solution lies
    near 2 mu Z r/hbar^2 = 3.67, well above 0.1 hbar^2/(mu Z), so no node
    is lost below it.  The lower bound 1e-6/alpha keeps every first grid
    within 3000 steps, so a count at large mu Z/hbar^2 keeps its doublings
    up to 96000 steps: counts with mu Z/hbar^2 >= 1e5 alpha march the
    grids of r = 1e-6/alpha .. 100/alpha.  The upper bound keeps alpha
    r_min at most 0.1, well inside the series' radius 2 pi, where the start
    is summed (at Z = 1, alpha = 100 the start at 0.1 hbar^2/(mu Z) is
    not).  The first grid has the fewest steps of at most ln(1e8)/3000 in
    ln(r) (_MIN_STEPS), and at most 3000.  Levels above about E = -(1.2
    alpha hbar/100)^2/(2 mu) may be missed: the end at r_max lifts a level
    above the probe once its kappa = sqrt(-2 mu E)/hbar is below about
    1.2/r_max (where the 96001-point grid's count drops, kappa r_max is
    1.03-1.09 at gamma = 0, 1.13-1.17 at D = 2, l = 0 and 0.14-0.21 at
    gamma > 0).  The grids are those of _ladder at the probe from that
    first grid, and the count is returned once two successive grids agree.
    Each march stops once its count is final (_march).
    The count may still be one too high: the phase error of the coarse
    grids in a deep core binds one level more, just below the probe, and
    the two coarsest grids agree on it.  At Z = 13.4497, mu = 2.8839, hbar
    = 0.61093, alpha = 0.0029265, D = 5, l = 4 the 2833- and 5665-point
    grids read 261, with a 261st level at E = -1.6e-8, and the grids of
    12001 to 192001 points from 1e-6/alpha read 260; 10 of 1488 random
    potentials with Z in [1, 316] and hbar down to 0.2 read one too many.
    Raises ConvergenceError when no two successive grids of _ladder agree,
    before any march if _ladder has no first grid, and OracleError from
    _log_grid when a grid's coefficients or its start are not finite.
    """
    model._check_index("l", l)
    r_min = min(max(0.1 * params.hbar**2 / (params.mu * params.Z), 1e-6 / params.alpha),
                0.1 / params.alpha)
    r_max = 100.0 / params.alpha
    # at r_min = 1e-6/alpha the quotient rounds to 3000 (1 + eps), and 3001
    # steps would double past _MAX_STEPS where 3000 stay within it
    steps = min(_MIN_STEPS, math.ceil(
        _MIN_STEPS * (math.log(r_max) - math.log(r_min)) / math.log(1e8)))
    probe = -1e-12 * (params.alpha * params.hbar) ** 2 / (2.0 * params.mu)
    coarse = None
    for steps, grid in _ladder(params, l, r_min, r_max, probe, steps):
        nodes = _march(grid, probe)
        if nodes == coarse:
            return nodes
        coarse = nodes
    raise ConvergenceError(
        f"the count of levels did not settle: {nodes} on the {steps + 1}-point "
        f"grid, and a finer grid would pass {_MAX_STEPS} steps")
