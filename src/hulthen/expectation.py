"""Expectation values from parameter derivatives of the level formula.

For a Hamiltonian depending on a parameter q, dE/dq equals the
expectation of dH/dq in the corresponding eigenstate.  Differentiating
the closed-form level in the angular momentum gives <1/r^2> (more
precisely, the expectation of the exponential centrifugal stand-in the
eigenfunctions actually solve), and differentiating in the strength Z
gives <V>.  <T> follows from E = <T> + <V>.

With Lambda = 2n+2l+D-1 and delta = 2 Z mu/(alpha hbar^2):

    dE/dl    = alpha^2 hbar^2 (16 delta^2 - Lambda^4) / (8 mu Lambda^3)
    <r^-2>   = (alpha^2/4) (16 delta^2 - Lambda^4) / ((2l+D-2) Lambda^3)
    <V>      = (2 alpha Z / Lambda) [1/2 + (n(n+2l+D-2) + gamma - delta)/Lambda]

The identities are exact for the model the eigenfunctions solve, so the
quadrature cross-checks in this module agree to quadrature accuracy; the
quadrature of the true 1/r^2 is reported separately as a diagnostic of
the exponential approximation.  Every value here reads delta, gamma,
Lambda, E and U from the level's model.Level; one report builds it once
and shares it, and each U^2 value, among its closed forms and integrals.
"""

import functools
import math
from dataclasses import dataclass

from . import model
from .model import PotentialParams, QuantumNumbers
from .oracle import adaptive_quad

__all__ = [
    "ExpectationReport",
    "dE_dl",
    "inv_r2_expect",
    "potential_expect",
    "kinetic_expect",
    "quadrature_expect",
    "expectation_report",
]


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


def dE_dl(params: PotentialParams, qn: QuantumNumbers) -> float:
    """Derivative of the closed-form level in the (continuous) angular
    momentum; always matches a central difference of that expression.

    (For l = 0 in D = 1 the expression's continuation is not the
    physical branch, so this is the formula derivative, not dE/dl of the
    true level curve.)
    """
    lv = model.level(params, qn)
    return (
        params.alpha**2
        * params.hbar**2
        * (16.0 * lv.delta**2 - lv.Lambda**4)
        / (8.0 * params.mu * lv.Lambda**3)
    )


def _inv_r2_expect(params: PotentialParams, lv: model.Level) -> float:
    w = lv.v - 1.0  # 2l+D-2
    if w == 0:
        raise ValueError("<r^-2> degenerates for l = 0 in D = 2 (2l+D-2 = 0)")
    return (params.alpha**2 / 4.0) * (16.0 * lv.delta**2 - lv.Lambda**4) / (abs(w) * lv.Lambda**3)


def inv_r2_expect(params: PotentialParams, qn: QuantumNumbers) -> float:
    """<r^-2> of the level (expectation of the exponential centrifugal
    operator, which the eigenfunctions solve exactly).

    Undefined for l = 0 in D = 2 where 2l+D-2 = 0.  The divisor enters
    as |2l+D-2|: for l = 0 in D = 1 both dgamma/dl and the physical
    branch of the continued level flip sign together, so the expectation
    stays positive (confirmed by the quadrature cross-check).
    """
    return _inv_r2_expect(params, model.level(params, qn))


def _v_expect(params: PotentialParams, lv: model.Level) -> float:
    n, lam = lv.qn.n, lv.Lambda
    bracket = 0.5 + (n * (n + 2 * lv.qn.l + params.D - 2) + lv.gamma - lv.delta) / lam
    return (2.0 * params.alpha * params.Z / lam) * bracket


def potential_expect(params: PotentialParams, qn: QuantumNumbers) -> float:
    """<V> from the strength derivative; negative for every bound state."""
    return _v_expect(params, model.level(params, qn))


def kinetic_expect(params: PotentialParams, qn: QuantumNumbers) -> float:
    """<T> = E - <V>."""
    lv = model.level(params, qn)
    return lv.energy - _v_expect(params, lv)


def _weighted_integrals(fs, params: PotentialParams, u: model.Level, abs_tol: float) -> list[float]:
    """integral of f(r) |U(r)|^2 dr over (0, inf) for each f in fs, with
    U^2 computed once per radius and shared among the integrals."""
    alpha = params.alpha
    # |P_n| on the interval is bounded by its s -> 0 (x = 1) endpoint value here
    poly_peak = u.poly(1.0)
    r_max = (50.0 + max(0.0, 2.0 * math.log(u.norm * poly_peak))) / (2.0 * alpha * u.epsilon)
    # a shallow level's r_max lies far beyond the Coulomb core, where one
    # pass over [0, r_max] would place no node of its first panels
    edges = sorted({0.0, min(r_max, 20.0 / alpha), r_max})
    tol = abs_tol / (len(edges) - 1)

    @functools.cache
    def u_squared(r):
        return u(alpha * r) ** 2

    return [
        sum(adaptive_quad(lambda r: f(r) * u_squared(r), a, b, abs_tol=tol)
            for a, b in zip(edges, edges[1:]))
        for f in fs
    ]


def quadrature_expect(f, params: PotentialParams, qn: QuantumNumbers, abs_tol: float = 1e-10) -> float:
    """integral of f(r) |U(r)|^2 dr over (0, inf) by adaptive quadrature.

    The upper limit r_max is cut where the |U|^2 tail (including the
    polynomial envelope) is below ~1e-14 of the total.  With r_core =
    min(r_max, 20/alpha) < r_max, [0, r_core] and [r_core, r_max] are
    integrated apart, each to abs_tol/2.
    """
    return _weighted_integrals([f], params, model.level(params, qn), abs_tol)[0]


def expectation_report(params: PotentialParams, qn: QuantumNumbers) -> ExpectationReport:
    """All closed-form values and quadrature cross-checks for one level."""
    lv = model.level(params, qn)
    degenerate = lv.v == 1.0  # 2l+D-2 = 0
    v_hft = _v_expect(params, lv)
    weights = [lambda r: model.potential(r, params)]
    if not degenerate:
        weights += [lambda r: model.centrifugal_approx(r, params.alpha), lambda r: 1.0 / (r * r)]
    v_quad, *inv_r2 = _weighted_integrals(weights, params, lv, 1e-10)
    inv_r2_approx, inv_r2_exact = inv_r2 or (None, None)
    return ExpectationReport(
        inv_r2_hft=None if degenerate else _inv_r2_expect(params, lv),
        v_hft=v_hft,
        t_value=lv.energy - v_hft,
        inv_r2_quad_approx=inv_r2_approx,
        inv_r2_quad_exact=inv_r2_exact,
        v_quad=v_quad,
    )
