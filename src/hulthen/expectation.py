"""Quadrature cross-checks of the level's Feynman-Hellmann values.

model.Level holds the closed-form <r^-2>, <V> and <T> of a level.  The
identities are exact for the model the eigenfunctions solve, so the
|U|^2-weighted quadratures here agree with them to quadrature accuracy;
the quadrature of the true 1/r^2 is reported separately as a diagnostic
of the exponential approximation.  One report builds the level once and
shares it, and each U^2 value, among its integrals; model.level keeps the
level it built last, so a report that follows the normalization and the
samples of the same level builds none.

The quadratures use the exp-sinh rule (Takahasi & Mori, Publ. RIMS 9,
721 (1974); Mori & Sugihara, J. Comput. Appl. Math. 127, 287 (2001)):
r = s exp(pi/2 sinh t) maps the line onto (0, inf) with weights that
decay double-exponentially at both ends, so the trapezoid sum in t about
doubles its correct digits per halving of the step, even with the
integrands' r^p behaviour at the origin.  The scale s is the level's
decay length 1/kappa, kappa = alpha epsilon, so |U|^2 ~ exp(-2r/s) dies
out at the same t for every level and no end of the range is guessed.
U^2 and each weight are evaluated once per node, as arrays: the 417 nodes
of the first six trapezoid sums (step 1/64 in t) in one pass, the nodes
each later halving adds in a pass of their own.  The first pass's nodes
and their factors exp(pi/2 sinh t) and pi/2 cosh t do not depend on the
level, so they are computed once, at import.  V and the centrifugal
stand-in are formed from one decay pair e^{-ar}, e^{-ar} - 1 per node
array (model._decay), by the same expressions as model.potential and
model.centrifugal_approx.  The nodes increase with t, so they are checked
at the first pass's two ends before any sample (model._check_ends), not
node by node.  The error estimate is the last halving's change plus the
integral left beyond the outermost nodes, taken as r |f U^2| at each of
them.  Only the node arrays are numpy:
the one to three running sums, their tails and error estimates are Python
floats, with the same IEEE operations the arrays did, so the sums are
those of the arrays bit for bit at a fraction of the calls.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import model
from .model import PotentialParams, QuantumNumbers

__all__ = [
    "QuadratureError",
    "ExpectationReport",
    "expectation_report",
]


class QuadratureError(RuntimeError):
    """A decay length that is not a finite positive float, a non-finite
    integrand sample, or no convergence within the cap on step halvings (as
    for an integral that diverges at an end)."""


@dataclass(frozen=True)
class ExpectationReport:
    """Closed-form values plus quadrature cross-checks for one level.

    The three inv_r2 fields are None for l = 0 in D = 2: the derivative
    prefactor 2l+D-2 vanishes there, and consistently the |U|^2-weighted
    integrals of both 1/r^2 and its exponential stand-in diverge
    logarithmically at the origin (U^2 ~ r near r = 0 in that case).
    """

    inv_r2_hft: float | None
    v_hft: float
    t_value: float
    inv_r2_quad_approx: float | None
    inv_r2_quad_exact: float | None
    v_quad: float


# the rule's t range: its nodes run from r = 8.0e-22 s to r = 4.3e3 s.  The
# inner end weighs two limits of the float range.  The integral left out
# below it, ~r |f U^2| there, is 1.6e-21 of <r^-2> at l = 0, D = 3, so it
# stays below the absolute tolerance up to <r^-2> ~ 6e10; and alpha r there,
# 8.0e-22/epsilon, stays above the smallest float up to epsilon ~ 3e302,
# beyond which U reads 0 and V -inf.  Past the outer end U^2 has died out
# (at alpha = 1e-7, D = 3, for n up to 140; at n = 64 it falls below 1e-17
# of its peak by r = 180 s), and U of n = 150 is nan there.  ~5 % of the
# 417 first-pass nodes on the bench's levels lie past the underflow of U^2.
_T = (-4.125, 2.375)
# by np.cosh, as the tails always were: math.cosh(-4.125) differs in its last bit
_COSH_T = np.cosh(_T).tolist()
_HALVINGS = 12
# absolute error every quadrature is taken to
_ABS_TOL = 1e-10
# halvings 0 .. _FIRST_PASS are evaluated together, on the 417 nodes of step
# 1/64 in t.  5 because nearly every level returns by then: of the first 960
# levels in the bench's `reports` inputs for seed 1, 77 return at halving 3,
# 526 at 4, 297 at 5 and 60 at 6.  The 60 are the n = 20, 25 and 30 levels at
# alpha = 1e-3; every other level returns by 5.  So a level needs a single
# evaluation, and a larger first pass would be wasted on nearly all of them.
_FIRST_PASS = 5


def _node_factors(t):
    """At the nodes t: exp(pi/2 sinh t), which r = s exp(pi/2 sinh t)
    scales, and d(ln r)/dt = pi/2 cosh t."""
    return np.exp(0.5 * np.pi * np.sinh(t)), 0.5 * np.pi * np.cosh(t)


# the first pass's nodes and factors, which no level changes.  The ends and
# every step are dyadic, so each node t is exact
_FIRST_STEP = 0.5 ** (_FIRST_PASS + 1)
_FIRST_FACTORS = _node_factors(np.arange(_T[0], _T[1] + 0.5 * _FIRST_STEP, _FIRST_STEP))
# its two end factors, as floats: every later node lies strictly between them
_FIRST_ENDS = _FIRST_FACTORS[0][[0, -1]].tolist()


def _exp_sinh(g, weights, s: float) -> list[float]:
    """integral over (0, inf) of w(r) g(r) dr for each w of weights(r), a
    list of floats or arrays for the radii r, on the nodes
    r = s exp(pi/2 sinh t) of scale s; the integral beyond each outermost
    node is estimated as r |w g| there.

    The nodes are evaluated in passes: one for halvings 0 .. _FIRST_PASS,
    then one for each later halving.  A halving's new nodes are summed in
    ascending t, and the sums, tails and error estimates are Python floats
    from there on.  Each pass is checked for finite values once, as a
    whole; only if it holds a non-finite sample is each of its halvings
    checked node by node when the sums reach it.  So the sums, the halving
    that returns and the r a non-finite sample names are those of
    evaluating each halving on its own.  The radii are not checked here:
    _weighted_integrals checks the first pass's two ends, which hold every
    node."""
    with np.errstate(all="ignore"):  # a non-finite sample raises below
        for halving in range(_HALVINGS + 1):
            h = 0.5 ** (halving + 1)
            # a pass starts: halvings 0 .. _FIRST_PASS at once, later ones alone
            fresh = halving == 0 or halving > _FIRST_PASS
            if fresh:
                stretch, dlnr_dt = (_FIRST_FACTORS if halving == 0 else
                                    _node_factors(np.arange(_T[0] + h, _T[1], 2.0 * h)))
                r = s * stretch
                gw = g(r) * (dlnr_dt * r)  # g dr/dt
                pass_vals = np.array([w * gw for w in weights(r)])  # a row per weight
                # one check for the whole pass; per node only if it fails
                ok = np.isfinite(pass_vals)
                finite = None if ok.all() else ok.all(axis=0)
            # the pass's step is h/k: its first halving holds every k-th
            # node, a later one (in the first pass) the odd multiples of k
            k = 1 << max(_FIRST_PASS - halving, 0)
            new = slice(0, None, k) if fresh else slice(k, None, 2 * k)
            vals = pass_vals[:, new]
            if finite is not None and not finite[new].all():
                bad = float(r[new][~finite[new]][0])
                raise QuadratureError(f"non-finite integrand sample at r = {bad!r}")
            if halving == 0:
                # r |w g| = |w g dr/dt| / (pi/2 cosh t) at each end
                tails = [(abs(lo) / _COSH_T[0] + abs(hi) / _COSH_T[1]) / (0.5 * math.pi)
                         for lo, hi in vals[:, [0, -1]].tolist()]
                sums = [0.0] * len(tails)
            prev = sums
            sums = [0.5 * p + h * v for p, v in zip(prev, vals.sum(axis=1).tolist())]
            err = [abs(a - p) + t for a, p, t in zip(sums, prev, tails)]
            if halving and all(e <= _ABS_TOL for e in err):
                return sums
    raise QuadratureError(
        f"no convergence to {_ABS_TOL!r} within {_HALVINGS} step halvings "
        f"(error estimate {np.max(err):.3e})"
    )


def _weighted_integrals(weights, lv: model.Level) -> list[float]:
    """integral of w(r) |U(r)|^2 dr over (0, inf) for each w of weights(r),
    with U^2 computed once per node and shared among the integrals, on the
    scale of the level's decay length 1/kappa.  The nodes increase, so
    they are checked at the first pass's two ends before any sample
    (model._check_ends): every later node lies strictly between them."""
    alpha = lv.params.alpha
    s = 1.0 / (alpha * lv.epsilon)
    if not 0.0 < s < math.inf:
        raise QuadratureError(f"the decay length 1/kappa = {s!r} is not a finite positive float")
    model._check_ends(s * _FIRST_ENDS[0], s * _FIRST_ENDS[1])
    return _exp_sinh(lambda r: lv(alpha * r) ** 2, weights, s)


def expectation_report(params: PotentialParams, qn: QuantumNumbers) -> ExpectationReport:
    """The level's closed-form values and their quadrature cross-checks."""
    lv = model.level(params, qn)
    # the closed forms first: one that leaves the float range raises before
    # any quadrature runs
    inv_r2, v_hft, t_value = lv.inv_r2, lv.v_mean, lv.t_mean

    def weights(r):
        """V, and for <r^-2> its exponential stand-in and 1/r^2, at the
        radii r, from one decay pair"""
        e, em = model._decay(r, params.alpha)
        if inv_r2 is None:
            return [model._potential(e, em, params)]
        return [model._potential(e, em, params), model._centrifugal(e, em, params.alpha),
                1.0 / (r * r)]

    v_quad, *inv_r2_quad = _weighted_integrals(weights, lv)
    inv_r2_approx, inv_r2_exact = inv_r2_quad or (None, None)
    return ExpectationReport(
        inv_r2_hft=inv_r2,
        v_hft=v_hft,
        t_value=t_value,
        inv_r2_quad_approx=inv_r2_approx,
        inv_r2_quad_exact=inv_r2_exact,
        v_quad=v_quad,
    )
