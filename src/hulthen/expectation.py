"""Quadrature cross-checks of the level's Feynman-Hellmann values.

model.Level holds the closed-form <r^-2>, <V> and <T> of a level.  The
identities are exact for the model the eigenfunctions solve, so the
|U|^2-weighted quadratures here agree with them to quadrature accuracy;
the quadrature of the true 1/r^2 is reported separately as a diagnostic
of the exponential approximation.  One report builds the level once and
shares it, and each U^2 value, among its integrals.

The quadratures use the tanh-sinh rule (Takahasi & Mori, Publ. RIMS 9,
721 (1974)): r = r_max / (1 + exp(-pi sinh t)) maps the line onto
[0, r_max] with weights that decay double-exponentially, so the trapezoid
sum in t about doubles its correct digits per halving of the step, even
with the integrands' r^p behaviour at the origin.  U^2 and each weight
are evaluated once per node, as arrays: the 449 nodes of the first six
trapezoid sums (step 1/64 in t) in one pass, the nodes each later halving
adds in a pass of their own.  The error estimate is the last halving's
change plus the integral left beyond the outermost nodes.
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
    """A non-finite integration range or integrand sample, or no
    convergence within the cap on step halvings (as for an integral that
    diverges at an end)."""


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


# the rule's t range: the outermost nodes lie 2.6e-23 r_max from an end
_T_MAX = 3.5
_HALVINGS = 12
# absolute error every quadrature is taken to
_ABS_TOL = 1e-10
# halvings 0 .. _FIRST_PASS are evaluated together, on the 449 nodes of step
# 1/64 in t.  5 because nearly every level returns by then: of the 5403
# levels in the bench's `reports` inputs for seed 1, 3 return at halving 3,
# 4057 at 4 and 1342 at 5.  The n = 20 and 25 levels at alpha = 1e-3 return
# at 5 as well; only n = 30 there goes on, to 6.  So a level needs a single
# evaluation, and a larger first pass would be wasted on nearly all of them.
_FIRST_PASS = 5


def _tanh_sinh(g, fs, b: float) -> list[float]:
    """integral over [0, b] of f(r) g(r) dr for each f in fs.  A node is
    placed by its offset d from the nearer end, so none rounds onto r = 0;
    the integral beyond the outermost nodes is estimated as d |f g| there.

    One evaluation covers every node of halvings 0 .. _FIRST_PASS; each
    later halving is evaluated on its own.  A halving's new nodes are
    summed as a contiguous copy, in ascending t, and checked for finite
    values only when the sums reach it, so the sums, the halving that
    returns and the r a non-finite sample names are those of evaluating
    each halving on its own."""
    if not math.isfinite(b):
        raise QuadratureError(f"the integration range [0, {b!r}] is not finite")
    m = int(2 * _T_MAX)

    def sample(t):
        """r at the nodes t, and f g dr/dt there: one row per f"""
        d = b / (1.0 + np.exp(np.pi * np.sinh(np.abs(t))))  # offset from the nearer end
        r = np.where(t < 0.0, d, b - d)
        gw = g(r) * (np.pi * np.cosh(t) * d * (1.0 - d / b))  # g dr/dt
        return r, np.array([f(r) * gw for f in fs])

    sums = np.zeros(len(fs))
    with np.errstate(all="ignore"):  # a non-finite sample raises below
        last = m << _FIRST_PASS
        first_r, first_vals = sample(0.5 ** (_FIRST_PASS + 1) * np.arange(-last, last + 1))
        first_finite = np.isfinite(first_vals).all(axis=0)
        for halving in range(_HALVINGS + 1):
            h = 0.5 ** (halving + 1)
            if halving <= _FIRST_PASS:
                # the first pass's step is h/s: halving 0 holds every s-th
                # node, a later one the odd multiples of s
                s = 1 << (_FIRST_PASS - halving)
                new = slice(0, None, s) if halving == 0 else slice(s, None, 2 * s)
                r, finite = first_r[new], first_finite[new]
                vals = np.ascontiguousarray(first_vals[:, new])
            else:
                r, vals = sample(h * np.arange(1 - (m << halving), m << halving, 2))
                finite = np.isfinite(vals).all(axis=0)
            if not finite.all():
                bad = float(r[~finite][0])
                raise QuadratureError(f"non-finite integrand sample at r = {bad!r}")
            if halving == 0:
                tail = (np.abs(vals[:, 0]) + np.abs(vals[:, -1])) / (np.pi * math.cosh(_T_MAX))
            prev, sums = sums, 0.5 * sums + h * vals.sum(axis=1)
            err = np.abs(sums - prev) + tail
            if halving and err.max() <= _ABS_TOL:
                return sums.tolist()
    raise QuadratureError(
        f"no convergence to {_ABS_TOL!r} within {_HALVINGS} step halvings "
        f"(error estimate {err.max():.3e})"
    )


def _weighted_integrals(fs, lv: model.Level) -> list[float]:
    """integral of f(r) |U(r)|^2 dr over (0, inf) for each f in fs, with
    U^2 computed once per node and shared among the integrals.  r_max cuts
    off a |U|^2 tail (polynomial envelope included) below ~1e-14 of the total."""
    alpha = lv.params.alpha
    # |P_n| on the interval is bounded by its s -> 0 (x = 1, y = 2) endpoint value here
    poly_peak = lv.poly(2.0)
    r_max = (50.0 + max(0.0, 2.0 * math.log(lv.norm * poly_peak))) / (2.0 * alpha * lv.epsilon)
    return _tanh_sinh(lambda r: lv(alpha * r) ** 2, fs, r_max)


def expectation_report(params: PotentialParams, qn: QuantumNumbers) -> ExpectationReport:
    """The level's closed-form values and their quadrature cross-checks."""
    lv = model.level(params, qn)
    # the closed forms first: one that leaves the float range raises before
    # any quadrature runs
    inv_r2, v_hft, t_value = lv.inv_r2, lv.v_mean, lv.t_mean
    weights = [lambda r: model.potential(r, params)]
    if inv_r2 is not None:
        weights += [lambda r: model.centrifugal_approx(r, params.alpha), lambda r: 1.0 / (r * r)]
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
