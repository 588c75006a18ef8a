import math

import numpy as np
import pytest
import scipy.integrate
import scipy.special

from hulthen.specfun import jacobi_poly
from special_reference import beta, hyp_terminating, pochhammer

# reference values frozen from a 40-digit arbitrary-precision evaluation
LN_GAMMA_HALF = 0.5723649429247001
LN_24 = 3.1780538303479458
BETA_2P5_3P5 = 0.03681553890925539
JACOBI_3_ANCHOR = -0.5075  # P_3^(0.5,-0.5)(0.3), exact decimal
JACOBI_5_ANCHOR = 1.00849  # P_5^(2,3)(-0.4), exact decimal


# special_reference.beta, the reference for the n = 0 normalization, is built
# on math.lgamma; the three ln_gamma tests pin the accuracy it relies on


def test_ln_gamma_anchors():
    assert math.lgamma(1.0) == pytest.approx(0.0, abs=1e-14)
    assert math.lgamma(2.0) == pytest.approx(0.0, abs=1e-14)
    assert math.lgamma(5.0) == pytest.approx(LN_24, rel=1e-14)
    assert math.lgamma(0.5) == pytest.approx(LN_GAMMA_HALF, rel=1e-14)


def test_ln_gamma_accuracy_sweep():
    # relative error <= 1e-13 over [1e-3, 1e6]; around the zeros of
    # ln Gamma (x = 1 and x = 2) no double-precision routine can hold a
    # relative bound, so the check becomes absolute there.
    xs = np.geomspace(1e-3, 1e6, 4001)
    ref = scipy.special.gammaln(xs)
    ours = np.array([math.lgamma(x) for x in xs])
    near_zero = np.abs(ref) < 1e-2
    assert np.all(np.abs(ours[near_zero] - ref[near_zero]) <= 1e-14)
    rel = np.abs(ours[~near_zero] - ref[~near_zero]) / np.abs(ref[~near_zero])
    assert np.max(rel) <= 1e-13


def test_ln_gamma_recurrence():
    # ln G(x+1) - ln G(x) = ln x; the subtraction cancels to the scale of
    # ln x, so the tolerance is relative to the larger operand.
    for x in np.geomspace(0.1, 1e4, 300):
        lhs = math.lgamma(x + 1.0) - math.lgamma(x)
        scale = max(abs(math.lgamma(x + 1.0)), abs(math.log(x)), 1.0)
        assert abs(lhs - math.log(x)) <= 1e-12 * scale


def test_beta_anchors():
    assert beta(1.0, 1.0) == pytest.approx(1.0, rel=1e-14)
    assert beta(2.0, 3.0) == pytest.approx(1.0 / 12.0, rel=1e-13)
    assert beta(2.5, 3.5) == pytest.approx(BETA_2P5_3P5, rel=1e-13)


def test_beta_symmetry_exact():
    for x, y in [(0.3, 4.7), (2.0, 9.5), (1e-2, 1e3)]:
        assert beta(x, y) == beta(y, x)


def test_pochhammer_values():
    assert pochhammer(3.7, 0) == 1.0
    assert pochhammer(-12.0, 0) == 1.0
    assert pochhammer(-3.0, 4) == 0.0
    assert pochhammer(2.0, 3) == 24.0
    assert pochhammer(0.5, 2) == pytest.approx(0.75, rel=1e-15)


def test_pochhammer_recurrence():
    rng = np.random.default_rng(7)
    for _ in range(200):
        a = rng.uniform(-10, 10)
        k = int(rng.integers(0, 20))
        lhs = pochhammer(a, k + 1)
        rhs = pochhammer(a, k) * (a + k)
        assert lhs == pytest.approx(rhs, rel=5e-16, abs=1e-300)


def test_pochhammer_domain():
    with pytest.raises(ValueError):
        pochhammer(1.0, -1)


def test_hyp_terminating_values():
    assert hyp_terminating(0, 3.3, 0.7, 0.9) == 1.0
    assert hyp_terminating(4, 3.3, 0.7, 0.0) == 1.0
    assert hyp_terminating(1, 2.0, 1.0, 0.5) == pytest.approx(0.0, abs=1e-15)


def test_hyp_terminating_denominator_guard():
    with pytest.raises(ValueError):
        hyp_terminating(5, 1.0, -2.0, 0.3)
    with pytest.raises(ValueError):
        hyp_terminating(1, 1.0, 0.0, 0.3)
    # c = -7 is fine for n = 5: (c)_k never vanishes for k <= 5
    assert math.isfinite(hyp_terminating(5, 1.0, -7.0, 0.3))


def test_jacobi_low_degrees():
    rng = np.random.default_rng(11)
    for _ in range(50):
        a = rng.uniform(-0.9, 5)
        b = rng.uniform(-0.9, 5)
        x = rng.uniform(-1, 1)
        assert jacobi_poly(0, a, b)(1.0 + x) == 1.0
        expect1 = 0.5 * (a - b) + 0.5 * (a + b + 2.0) * x
        assert jacobi_poly(1, a, b)(1.0 + x) == pytest.approx(expect1, rel=1e-14, abs=1e-14)


def test_jacobi_endpoint_value():
    # P_n^(a,b)(1) = (a+1)_n / n!, at y = 1 + x = 2
    for n in range(0, 15):
        for a, b in [(0.0, 0.0), (0.5, -0.5), (2.0, 3.0), (6.3, 0.1)]:
            expect = pochhammer(a + 1.0, n) / math.factorial(n)
            assert jacobi_poly(n, a, b)(2.0) == pytest.approx(expect, rel=1e-12)


def test_jacobi_frozen_anchors():
    assert jacobi_poly(3, 0.5, -0.5)(1.0 + 0.3) == pytest.approx(JACOBI_3_ANCHOR, rel=1e-13)
    assert jacobi_poly(5, 2.0, 3.0)(1.0 - 0.4) == pytest.approx(JACOBI_5_ANCHOR, rel=1e-13)


def _hyp_condition_scale(n, b, c, s):
    """Sum of |term_k| of the terminating series: its conditioning scale.

    The finite sum is alternating; for large n with small c its terms
    reach ~1e12 times the value, so double precision cannot agree with
    the recurrence relative to the *value* there.  Agreement to 1e-12 of
    this scale is the float-arithmetic content of the identity.
    """
    total = 1.0
    term = 1.0
    for k in range(n):
        term *= abs((k - n) * (b + k) / ((c + k) * (k + 1)) * s)
        total += term
    return total


def test_jacobi_matches_hypergeometric_form():
    # recurrence vs Gamma(n+a+1)/(n! Gamma(1+a)) 2F1(-n, a+b+n+1; 1+a; s)
    # at x = 1-2s (y = 2-2s), over n <= 20, a, b in (-0.9, 10], s in [0, 1]
    rng = np.random.default_rng(13)
    for n in range(0, 21):
        for _ in range(12):
            a = rng.uniform(-0.9, 10.0)
            b = rng.uniform(-0.9, 10.0)
            s = rng.uniform(0.0, 1.0)
            k_fac = pochhammer(a + 1.0, n) / math.factorial(n)
            lhs = jacobi_poly(n, a, b)(2.0 - 2.0 * s)
            rhs = k_fac * hyp_terminating(n, a + b + n + 1.0, 1.0 + a, s)
            scale = max(
                abs(lhs),
                abs(rhs),
                abs(k_fac) * _hyp_condition_scale(n, a + b + n + 1.0, 1.0 + a, s),
            )
            assert abs(lhs - rhs) <= 1e-12 * scale


def test_jacobi_matches_hypergeometric_well_conditioned():
    # where the series is well conditioned the agreement is plain
    # relative 1e-12, with no conditioning allowance
    rng = np.random.default_rng(17)
    checked = 0
    for n in range(0, 21):
        for _ in range(30):
            a = rng.uniform(-0.5, 10.0)
            b = rng.uniform(-0.9, 10.0)
            s = rng.uniform(0.0, 0.5)
            k_fac = pochhammer(a + 1.0, n) / math.factorial(n)
            cond = abs(k_fac) * _hyp_condition_scale(n, a + b + n + 1.0, 1.0 + a, s)
            lhs = jacobi_poly(n, a, b)(2.0 - 2.0 * s)
            if cond > 1e3 * max(abs(lhs), 1e-300):
                continue
            rhs = k_fac * hyp_terminating(n, a + b + n + 1.0, 1.0 + a, s)
            assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs))
            checked += 1
    assert checked > 200


def test_jacobi_orthogonality_by_quadrature():
    # weight="alg" applies (1+x)^b (1-x)^a exactly (QUADPACK dqawse), so
    # the endpoint singularities need no sampling
    for a, b in [(0.0, 0.0), (0.5, 0.0), (2.0, 3.0), (-0.25, 0.3), (-0.9, -0.7)]:
        for m in range(0, 8):
            for n in range(m + 1, 9):
                integral, _ = scipy.integrate.quad(
                    lambda x: jacobi_poly(m, a, b)(1.0 + x) * jacobi_poly(n, a, b)(1.0 + x),
                    -1.0, 1.0, weight="alg", wvar=(b, a), epsabs=1e-12,
                )
                assert abs(integral) <= 1e-9


def test_jacobi_near_minus_one_keeps_relative_precision():
    # b = -1 puts a root of P_n on x = -1, where the slope gives
    # P_n^(a,-1) = (-1)^(n-1) (n+a)/2 y (1 + O(n^2 y)) in y = 1 + x; a
    # recurrence in x reads 1 + x with an absolute error of ~1e-16 there
    for n in range(1, 12):
        for a in (1e-3, 0.7, 5.0, 40.0):
            for y in (1e-300, 1e-100, 1e-15):
                expect = (-1) ** (n - 1) * 0.5 * (n + a) * y
                assert jacobi_poly(n, a, -1.0)(y) == pytest.approx(expect, rel=1e-12)


def test_jacobi_array_input():
    y = 1.0 + np.linspace(-1, 1, 17)
    arr = jacobi_poly(6, 1.2, 0.3)(y)
    scalars = np.array([jacobi_poly(6, 1.2, 0.3)(yi) for yi in y])
    np.testing.assert_allclose(arr, scalars, rtol=1e-15)


def test_jacobi_domain():
    with pytest.raises(ValueError):
        jacobi_poly(-1, 0.0, 0.0)(1.5)
    # inf raised a bare OverflowError from int(), and nan int()'s own message
    for n in (math.inf, math.nan, 2.5):
        with pytest.raises(ValueError, match=f"^degree must be a nonnegative integer, got {n}$"):
            jacobi_poly(n, 1.0, 1.0)
    # (s-1) s (s-2) overflows in A_2, so P_2 came out nan at every x
    with pytest.raises(ValueError, match="^Jacobi recurrence of P_2.* outside the float range$"):
        jacobi_poly(2, 1e120, -1.0)
    assert math.isfinite(jacobi_poly(1, 1e120, -1.0)(1.5))
