import math

import numpy as np
import pytest

from hulthen import (
    NoBoundState,
    PotentialParams,
    QuadratureError,
    QuantumNumbers,
    centrifugal_approx,
    energy,
    expectation_report,
    level,
    potential,
)
from hulthen.expectation import _weighted_integrals
from special_reference import bracket_energy

ANCHOR = PotentialParams(Z=1.0, alpha=0.05)
GROUND = QuantumNumbers(0, 0)


def weighted_integral(f, params, qn):
    """integral of f(r) |U(r)|^2 dr over (0, inf) for the level (params, qn)."""
    return _weighted_integrals([f], level(params, qn))[0]


def test_dE_dl_anchor_and_fd():
    # delta = 40, Lambda = 2: alpha^2 (16*1600 - 16) / 64 = 0.999375
    val = level(ANCHOR, GROUND).dE_dl
    assert val == pytest.approx(0.999375, rel=1e-13)
    h = 1e-5
    fd = (
        bracket_energy(1.0, 0.05, 1.0, 1.0, 3, 0, +h)
        - bracket_energy(1.0, 0.05, 1.0, 1.0, 3, 0, -h)
    ) / (2.0 * h)
    assert val == pytest.approx(fd, rel=1e-6)


def test_derivative_vanishes_at_existence_boundary():
    # at delta = m^2 the factor 16 delta^2 - Lambda^4 vanishes identically
    for m in (1.0, 2.5, 4.0):
        delta = m * m
        lam = 2.0 * m
        assert 16.0 * delta**2 - lam**4 == 0.0
    # the non-existing state itself has no level to read it from
    with pytest.raises(ValueError):
        level(PotentialParams(Z=1.0, alpha=2.5), GROUND)


def test_inv_r2_anchor_and_quadrature():
    val = level(ANCHOR, GROUND).inv_r2
    assert val == pytest.approx(1.99875, rel=1e-13)
    quad = weighted_integral(lambda r: centrifugal_approx(r, ANCHOR.alpha), ANCHOR, GROUND)
    assert quad == pytest.approx(val, rel=1e-6)


def test_inv_r2_degenerate_dimension():
    p2 = PotentialParams(Z=1.0, alpha=0.05, D=2)
    assert level(p2, GROUND).inv_r2 is None
    # fine for l >= 1 in D = 2
    assert level(p2, QuantumNumbers(0, 1)).inv_r2 > 0.0


def test_inv_r2_exact_operator_diagnostic():
    # the quadrature of the true 1/r^2 approaches the closed form as the
    # screening weakens
    rel = []
    for alpha in (0.2, 0.1, 0.05, 0.025):
        params = PotentialParams(Z=1.0, alpha=alpha)
        hft = level(params, GROUND).inv_r2
        exact = weighted_integral(lambda r: 1.0 / (r * r), params, GROUND)
        rel.append(abs(exact - hft) / abs(hft))
    assert all(b < a for a, b in zip(rel, rel[1:]))


def test_potential_expect_quadrature_and_fd():
    val = level(ANCHOR, GROUND).v_mean
    assert val == pytest.approx(-0.975, rel=1e-13)
    quad = weighted_integral(lambda r: potential(r, ANCHOR), ANCHOR, GROUND)
    assert quad == pytest.approx(val, rel=1e-6)
    h = 1e-5
    fd = (
        bracket_energy(1.0 + h, 0.05, 1.0, 1.0, 3, 0, 0)
        - bracket_energy(1.0 - h, 0.05, 1.0, 1.0, 3, 0, 0)
    ) / (2.0 * h)
    assert 1.0 * fd == pytest.approx(val, rel=1e-6)


def test_potential_expect_virial_limit():
    # alpha -> 0: <V> -> 2E (virial theorem for the 1/r limit)
    tiny = PotentialParams(Z=1.0, alpha=1e-6)
    lv = level(tiny, GROUND)
    v = lv.v_mean
    assert v == pytest.approx(2.0 * (-0.5), rel=1e-5)
    t = lv.t_mean
    assert t == pytest.approx(0.5, rel=1e-5)


def test_kinetic_identity_and_signs():
    rng = np.random.default_rng(47)
    checked = 0
    while checked < 40:
        n = int(rng.integers(0, 5))
        l = int(rng.integers(0, 4))
        dim = int(rng.integers(1, 7))
        alpha = rng.uniform(0.01, 0.2)
        Z = rng.uniform(0.5, 2.0)
        params = PotentialParams(Z=Z, alpha=alpha, D=dim)
        qn = QuantumNumbers(n, l)
        st = energy(params, qn)
        if not st.exists:
            continue
        lv = level(params, qn)
        v = lv.v_mean
        t = lv.t_mean
        assert v < 0.0
        assert t > 0.0
        assert t + v == pytest.approx(st.energy, rel=1e-12)
        if 2 * l + dim - 2 != 0:
            assert lv.inv_r2 > 0.0
        checked += 1


def test_quadrature_normalization_various_states():
    cases = [
        (ANCHOR, QuantumNumbers(0, 0)),
        (ANCHOR, QuantumNumbers(3, 0)),
        (ANCHOR, QuantumNumbers(2, 2)),
        (PotentialParams(Z=1.0, alpha=0.05, D=1), QuantumNumbers(2, 0)),
        (PotentialParams(Z=1.0, alpha=0.05, D=2), QuantumNumbers(1, 0)),
        (PotentialParams(Z=1.0, alpha=0.05, D=4), QuantumNumbers(1, 1)),
    ]
    for params, qn in cases:
        total = weighted_integral(lambda r: 1.0, params, qn)
        assert total == pytest.approx(1.0, abs=1e-8)


def test_shallow_level_potential_quadrature():
    # epsilon = 0.0015 puts the tail cut-off near r = 1e5 while <V> comes
    # from the Coulomb core r < 20/alpha; the quadrature must still see it
    params = PotentialParams(Z=1.0, alpha=0.0987, D=4)
    qn = QuantumNumbers(1, 2)
    rep = expectation_report(params, qn)
    assert rep.v_quad == pytest.approx(rep.v_hft, rel=1e-6)
    assert rep.inv_r2_quad_approx == pytest.approx(rep.inv_r2_hft, rel=1e-6)
    assert weighted_integral(lambda r: 1.0, params, qn) == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_quadratures_at_extreme_alpha(n):
    # 1 - 2s rounds onto -1 here, where P_n^(2eps, -1) has a root: with P_n
    # evaluated in x, U read 0 at every node and so did every quadrature
    params = PotentialParams(Z=1.0, alpha=1e-90, D=1)
    qn = QuantumNumbers(n, 0)
    rep = expectation_report(params, qn)
    assert abs(weighted_integral(lambda r: 1.0, params, qn) - 1.0) <= 1e-10
    assert abs(rep.v_quad - rep.v_hft) <= 1e-10
    assert abs(rep.inv_r2_quad_approx - rep.inv_r2_hft) <= 1e-10
    assert abs(rep.inv_r2_quad_exact - rep.inv_r2_hft) <= 1e-10


def test_report_fields():
    rep = expectation_report(ANCHOR, GROUND)
    st = energy(ANCHOR, GROUND)
    assert rep.v_hft + rep.t_value == pytest.approx(st.energy, rel=1e-15)
    assert rep.inv_r2_hft == pytest.approx(rep.inv_r2_quad_approx, rel=1e-6)
    assert rep.v_hft == pytest.approx(rep.v_quad, rel=1e-6)
    assert rep.inv_r2_quad_exact > 0.0


def test_report_degenerate_dimension():
    # all three inv_r2 fields are undefined at l = 0, D = 2: the closed
    # form divides by zero and the quadratures diverge logarithmically
    p2 = PotentialParams(Z=1.0, alpha=0.05, D=2)
    rep = expectation_report(p2, GROUND)
    assert rep.inv_r2_hft is None
    assert rep.inv_r2_quad_approx is None
    assert rep.inv_r2_quad_exact is None
    assert rep.v_hft < 0.0
    assert math.isfinite(rep.v_quad)


def test_nonexistent_state_errors():
    weak = PotentialParams(Z=1.0, alpha=2.5)
    # the closed-form values are read from a level, which does not exist
    for fn in (level, expectation_report):
        with pytest.raises(NoBoundState):
            fn(weak, GROUND)


def test_normalization_at_tiny_alpha():
    # the four log-Gamma terms C_n was built from left it 1.9e-9 off here
    tiny = PotentialParams(Z=1.0, alpha=1e-6)
    assert abs(weighted_integral(lambda r: 1.0, tiny, GROUND) - 1.0) <= 1e-12


def test_quadrature_errors():
    # a non-finite sample is reported, not summed
    with pytest.raises(QuadratureError, match="^non-finite integrand sample at r = "):
        weighted_integral(lambda r: np.where(r > 1.0, np.inf, 1.0), ANCHOR, GROUND)
    # U^2 ~ r at l = 0 in D = 2, so the integral of U^2/r^2 diverges like
    # log r at the origin: no step halving brings the estimate down
    p2 = PotentialParams(Z=1.0, alpha=0.05, D=2)
    with pytest.raises(QuadratureError, match="^no convergence to 1e-10 within 12 step halvings"):
        weighted_integral(lambda r: 1.0 / (r * r), p2, GROUND)


@pytest.mark.parametrize("params, qn, message", [
    # r_max = inf: C_n times P_n(1) overflows in its log
    (PotentialParams(Z=1.0, alpha=1e-300, D=2), QuantumNumbers(1, 0),
     r"the integration range \[0, inf\] is not finite"),
    (PotentialParams(Z=1.0, alpha=2.0, hbar=1e-20, D=4), QuantumNumbers(4, 2),
     r"the integration range \[0, inf\] is not finite"),
    (PotentialParams(Z=2.0, alpha=0.5, mu=1e-200, hbar=1e-150), QuantumNumbers(2, 0),
     r"the integration range \[0, inf\] is not finite"),
    # V overflows near the origin
    (PotentialParams(Z=1e150, alpha=0.05, hbar=3.0, D=2), GROUND,
     "non-finite integrand sample at r = 4.4905998443128965e-170"),
    (PotentialParams(Z=1e150, alpha=1.0, mu=0.05, hbar=0.05, D=1), QuantumNumbers(1, 0),
     "non-finite integrand sample at r = 7.372142333969932e-172"),
])
def test_report_out_of_range_raises_without_warnings(params, qn, message):
    # warnings are errors here: each of these printed RuntimeWarnings first
    with pytest.raises(QuadratureError, match=f"^{message}$"):
        expectation_report(params, qn)
