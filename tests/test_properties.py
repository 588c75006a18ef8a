"""Properties of the Level record over random parameters (hypothesis)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hulthen import (
    NoBoundState,
    PotentialParams,
    QuantumNumbers,
    dimensionless,
    energy,
    interior_nodes,
    level,
    normalization_constant,
    nu_problem,
)
from hulthen.nu import branches, eigen_condition, select_branch


def log_uniform(lo_exp, hi_exp):
    return st.floats(min_value=lo_exp, max_value=hi_exp).map(lambda x: 10.0**x)


params_st = st.builds(
    PotentialParams,
    Z=log_uniform(-1, 1),
    alpha=log_uniform(-3, 0.5),
    mu=log_uniform(-1, 1),
    hbar=log_uniform(-0.7, 0.5),
    D=st.integers(1, 6),
)
qn_st = st.builds(QuantumNumbers, n=st.integers(0, 8), l=st.integers(0, 4))

PROPERTY = settings(max_examples=300, deadline=None, derandomize=True)


@PROPERTY
@given(params_st, qn_st)
def test_level_agrees_with_energy(params, qn):
    bs = energy(params, qn)
    if not bs.exists:
        with pytest.raises(NoBoundState, match=f"^no bound state for n={qn.n}, l={qn.l}, "
                                               f"D={params.D}$"):
            level(params, qn)
        return
    lv = level(params, qn)
    assert lv.qn == qn
    assert lv.energy == bs.energy and lv.epsilon == bs.epsilon
    assert lv.norm == normalization_constant(params, qn)
    dp = dimensionless(params, qn, bs.energy)
    assert (lv.delta, lv.gamma, lv.v, lv.Lambda) == (dp.delta, dp.gamma, dp.v, dp.Lambda)


@PROPERTY
@given(params_st, qn_st)
def test_level_zeroes_nu_termination_condition(params, qn):
    if not energy(params, qn).exists:
        return
    lv = level(params, qn)
    prob = nu_problem(lv)
    residual = eigen_condition(select_branch(branches(prob)), prob.sigma,
                               interior_nodes(qn, params.D))
    # the admissible t = delta - gamma +/- eps |v-1| are roots of a quadratic
    # rounded from terms of order T^2, T = 1 + eps^2 + delta, so they carry an
    # error of order ulp T^2 / (eps |v-1|) (the double root at v = 1 is taken
    # directly); the root of the under-root's leading coefficient, of order
    # eps^2 and rounded from terms of order T, adds ulp T / eps
    t_scale = 1.0 + lv.epsilon**2 + lv.delta
    gap = lv.epsilon * abs(lv.v - 1.0)
    cond = max(1.0, 1.0 / lv.epsilon, t_scale / gap if gap else 1.0)
    assert abs(residual) <= 1e-13 * t_scale * cond


@PROPERTY
@given(params_st, log_uniform(-3, 0.5), log_uniform(-1, 1), log_uniform(-0.7, 0.5), qn_st)
def test_scaled_energy_depends_on_delta_only(params, alpha2, mu2, hbar2, qn):
    # a second parameter set with the same delta = 2 Z mu / (alpha hbar^2)
    delta = 2.0 * params.Z * params.mu / (params.alpha * params.hbar**2)
    other = PotentialParams(Z=delta * alpha2 * hbar2**2 / (2.0 * mu2), alpha=alpha2,
                            mu=mu2, hbar=hbar2, D=params.D)
    st1, st2 = energy(params, qn), energy(other, qn)
    m = qn.n + qn.l + (params.D - 1) / 2.0
    if st1.exists != st2.exists:
        # only a rounding of delta across the threshold m^2 may split them
        assert math.isclose(delta, m * m, rel_tol=1e-14)
        return
    if not st1.exists:
        return
    e1 = st1.energy * params.mu / (params.alpha * params.hbar) ** 2
    e2 = st2.energy * other.mu / (other.alpha * other.hbar) ** 2
    # a rounding change of delta moves -eps^2/2 by eps * d(delta) / (2m)
    assert abs(e1 - e2) <= 1e-14 * (abs(e1) + st1.epsilon * delta / m)
