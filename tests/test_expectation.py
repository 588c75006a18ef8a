import dataclasses
import math
import re
from fractions import Fraction

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
from hulthen import expectation
from hulthen.expectation import _exp_sinh, _weighted_integrals
from special_reference import bracket_energy, feynman_hellmann_exact

ANCHOR = PotentialParams(Z=1.0, alpha=0.05)
GROUND = QuantumNumbers(0, 0)


def weighted_integral(f, params, qn):
    """integral of f(r) |U(r)|^2 dr over (0, inf) for the level (params, qn)."""
    return _weighted_integrals(lambda r: [f(r)], level(params, qn))[0]


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
    # a level exists while alpha < alpha_c = 2 Z mu/(hbar^2 m^2) (delta > m^2),
    # and kappa = (m/2)(alpha_c - alpha): kappa, dE/dl and <V> go to 0 with
    # alpha_c - alpha, each with the slope of its one-term form
    z, mu, hbar = 1.3, 0.7, 1.1
    for dim, n, l in ((3, 0, 0), (3, 1, 1), (2, 2, 0), (5, 0, 2)):
        m = n + l + 0.5 * (dim - 1)
        alpha_c = 2.0 * z * mu / (hbar * m) ** 2
        for gap in (1e-2, 1e-4, 1e-6):
            alpha = alpha_c * (1.0 - gap)
            lv = level(PotentialParams(Z=z, mu=mu, hbar=hbar, alpha=alpha, D=dim),
                       QuantumNumbers(n, l))
            dist = alpha_c - alpha
            assert alpha * lv.epsilon / dist == pytest.approx(0.5 * m, rel=1e-8)
            assert lv.dE_dl / dist == pytest.approx(
                0.5 * m * (z / m**2 + alpha * hbar**2 / (2.0 * mu)), rel=1e-8)
            assert lv.v_mean / dist == pytest.approx(-0.5 * z, rel=1e-8)
    # past alpha_c the state does not exist, and there is no level to read
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


@pytest.mark.parametrize("dim, n, l", [(1, 1, 0), (1, 3, 2), (2, 0, 0), (2, 2, 1), (3, 0, 0),
                                       (3, 4, 2), (4, 1, 3), (5, 2, 0)])
def test_coulomb_limit_virial(dim, n, l):
    # alpha -> 0: <V> = 2E and <T> = -E, and <r^-2> tends to the Coulomb
    # 2 (Z mu/hbar^2)^2 / (m^3 |2l+D-2|), m = n + l + (D-1)/2; the
    # corrections are of relative order alpha m^2 hbar^2/(mu Z) ~ 1e-11
    params = PotentialParams(Z=1.3, alpha=1e-12, mu=0.7, hbar=1.1, D=dim)
    lv = level(params, QuantumNumbers(n, l))
    assert lv.v_mean == pytest.approx(2.0 * lv.energy, rel=1e-10)
    assert lv.t_mean == pytest.approx(-lv.energy, rel=1e-10)
    w, m = abs(2 * l + dim - 2), n + l + (dim - 1) / 2
    if w:
        coulomb = 2.0 * (params.Z * params.mu / params.hbar**2) ** 2 / (m**3 * w)
        assert lv.inv_r2 == pytest.approx(coulomb, rel=1e-10)
    else:
        assert lv.inv_r2 is None


def _ulps(value, exact):
    """|value - exact| in units of the last place of the float nearest exact."""
    return abs(Fraction(value) - exact) / Fraction(math.ulp(float(exact)))


def test_feynman_hellmann_values_match_exact_printed_forms():
    # the kappa/m forms against the paper's 16 delta^2 - Lambda^4 forms in
    # exact rationals of the same float inputs, on levels with delta >=
    # 1.5 m^2; the error includes that of eps and E themselves
    rng = np.random.default_rng(19)
    checked, worst = 0, [0, 0, 0, 0]
    while checked < 2000:
        Z, mu = 10.0 ** rng.uniform(-1.0, 1.0, 2)
        hbar, alpha = 10.0 ** rng.uniform(-0.7, 0.5), 10.0 ** rng.uniform(-4.0, 0.5)
        dim, l, n = int(rng.integers(1, 6)), int(rng.integers(0, 5)), int(rng.integers(0, 9))
        m = n + l + (dim - 1) / 2
        if m <= 0 or 2.0 * Z * mu / (alpha * hbar**2) < 1.5 * m * m:
            continue
        lv = level(PotentialParams(Z=Z, alpha=alpha, mu=mu, hbar=hbar, D=dim), QuantumNumbers(n, l))
        exact = feynman_hellmann_exact(Z, alpha, mu, hbar, dim, n, l)
        for i, (value, ref) in enumerate(zip((lv.dE_dl, lv.inv_r2, lv.v_mean, lv.t_mean), exact)):
            assert (value is None) == (ref is None)
            if ref is not None:
                worst[i] = max(worst[i], _ulps(value, ref))
        checked += 1
    assert max(worst) <= 8, [float(w) for w in worst]


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
    # <r^-2> = 3.0e199: every halving moves its sum by ~1e-16 of itself, far
    # more than the absolute tolerance 1e-10
    (PotentialParams(Z=2.0, alpha=0.5, mu=1e-200, hbar=1e-150), QuantumNumbers(2, 0),
     r"no convergence to 1e-10 within 12 step halvings \(error estimate 1\.421e\+179\)"),
    # 1/kappa overflows (kappa = 1.75e-310)
    (PotentialParams(Z=1e290, alpha=1e-310, mu=1e-300, hbar=1e150, D=2), GROUND,
     "the decay length 1/kappa = inf is not a finite positive float"),
    # U is nan at the outer end, r = 4.3e3/kappa, where its Jacobi factor
    # overflows; with r_max = 25/kappa, cut short by P_n(2) = nan, the
    # quadrature returned <V> 81 % off the closed form
    (PotentialParams(Z=1.0, alpha=1e-7), QuantumNumbers(150, 0),
     "non-finite integrand sample at r = 652909.0636221785"),
    # V overflows near the origin
    (PotentialParams(Z=1e150, alpha=0.05, hbar=3.0, D=2), GROUND,
     "non-finite integrand sample at r = 3.5973424695460584e-171"),
    (PotentialParams(Z=1e150, alpha=1.0, mu=0.05, hbar=0.05, D=1), QuantumNumbers(1, 0),
     "non-finite integrand sample at r = 3.9970471883845105e-173"),
])
def test_report_out_of_range_raises_without_warnings(params, qn, message):
    # warnings are errors here: each of these printed RuntimeWarnings first
    with pytest.raises(QuadratureError, match=f"^{message}$"):
        expectation_report(params, qn)


@pytest.mark.parametrize("params, qn", [
    (PotentialParams(Z=1.0, alpha=1e-300, D=2), QuantumNumbers(1, 0)),
    (PotentialParams(Z=1.0, alpha=2.0, hbar=1e-20, D=4), QuantumNumbers(4, 2)),
    (PotentialParams(Z=1.0, alpha=1e-7), QuantumNumbers(100, 0)),
])
def test_quadratures_where_the_range_end_failed(params, qn):
    # the range end r_max was read from log(C_n P_n(2)): that overflowed to
    # inf on the first two levels, and the quadrature raised; on the third
    # P_n(2) was nan, r_max fell to 25/kappa and <V> read 77 % off.  On the
    # scale 1/kappa no end is needed
    rep = expectation_report(params, qn)
    assert rep.v_quad == pytest.approx(rep.v_hft, rel=1e-13)
    if rep.inv_r2_hft is not None:
        assert rep.inv_r2_quad_approx == pytest.approx(rep.inv_r2_hft, rel=1e-13)


def test_decay_length_past_the_float_range_raises_before_any_sample(monkeypatch):
    # every node r = s exp(...) would be inf, and U rejects such radii
    params = PotentialParams(Z=1e290, alpha=1e-310, mu=1e-300, hbar=1e150, D=2)
    monkeypatch.setattr(expectation, "_exp_sinh", None)
    with pytest.raises(QuadratureError, match="^the decay length 1/kappa = inf "):
        expectation_report(params, GROUND)


@pytest.mark.parametrize("epsilon, end", [
    # s = 1/kappa = 1e305: the outermost node, 4.3e3 s, overflows to inf
    (2e-304, math.inf),
    # s = 1e-303: the innermost node, 8.0e-22 s, underflows to 0
    (2e304, 0.0),
])
def test_nodes_past_the_float_range_raise_before_any_sample(epsilon, end):
    # the nodes increase, so the first pass's two ends are checked before U
    # is sampled; each pass's radii were checked in its weights, after U^2
    # had been sampled at every node
    base = level(ANCHOR, GROUND)
    samples = []
    lv = dataclasses.replace(base, epsilon=epsilon,
                             poly=lambda y: samples.append(y) or base.poly(y))
    weights = lambda r: samples.append(r) or [np.ones_like(r)]
    s = 1.0 / (ANCHOR.alpha * epsilon)
    with np.errstate(over="ignore", under="ignore"):
        assert 0.0 < s < math.inf and end in (s * expectation._FIRST_FACTORS[0]).tolist()
    with pytest.raises(ValueError, match="^radii must be finite positive reals$"):
        _weighted_integrals(weights, lv)
    assert samples == []
    # the count sees every sample: at the level's own epsilon its one pass
    # samples U and the weights once each
    _weighted_integrals(weights, dataclasses.replace(lv, epsilon=base.epsilon))
    assert len(samples) == 2


def _plain_nodes(s, halving):
    # reference: t and r of the nodes a halving adds, in ascending t; the
    # range [-4.125, 2.375] is 13 steps of halving 0
    h, m = 0.5 ** (halving + 1), 13 << halving
    t = -4.125 + h * (np.arange(m + 1) if halving == 0 else np.arange(1, m, 2))
    return t, s * np.exp(0.5 * np.pi * np.sinh(t))


def _plain_exp_sinh(g, weights, s):
    # reference: the exp-sinh sums with each halving evaluated on its own;
    # (sums, the halving that returns them)
    with np.errstate(all="ignore"):
        for halving in range(13):
            t, r = _plain_nodes(s, halving)
            gw = g(r) * (0.5 * np.pi * np.cosh(t) * r)
            vals = np.array([w * gw for w in weights(r)])
            if halving == 0:
                sums = np.zeros(len(vals))
            bad = ~np.isfinite(vals).all(axis=0)
            if bad.any():
                raise QuadratureError(f"non-finite integrand sample at r = {float(r[bad][0])!r}")
            if halving == 0:
                tail = (np.abs(vals[:, 0]) / (0.5 * np.pi * math.cosh(-4.125))
                        + np.abs(vals[:, -1]) / (0.5 * np.pi * math.cosh(2.375)))
            prev, sums = sums, 0.5 * sums + 0.5 ** (halving + 1) * vals.sum(axis=1)
            err = np.abs(sums - prev) + tail
            if halving and err.max() <= 1e-10:
                return sums.tolist(), halving
    raise QuadratureError(f"no convergence to 1e-10 within 12 step halvings "
                          f"(error estimate {err.max():.3e})")


def _report_quadrature(monkeypatch, params, qn):
    """The (g, fs, s) that expectation_report integrates."""
    calls = []
    with monkeypatch.context() as patch:
        patch.setattr(expectation, "_exp_sinh",
                      lambda *args: calls.append(args) or [1.0] * _count(args[1]))
        expectation_report(params, qn)
    return calls[0]


def _count(weights) -> int:
    """How many integrals weights(r) asks for."""
    return len(weights(np.ones(1)))


# levels whose quadratures return at halvings 3, 4, 5 (the first pass's
# last) and 6 (the first evaluated on its own); D = 2, l = 0 has <V> alone
@pytest.mark.parametrize("params, qn, halving", [
    (ANCHOR, QuantumNumbers(1, 0), 4),
    (PotentialParams(Z=1.0, alpha=0.002, D=5), QuantumNumbers(20, 3), 5),
    (PotentialParams(Z=1.0, alpha=0.001), QuantumNumbers(30, 0), 6),
    (PotentialParams(Z=1.0, alpha=0.05, D=2), QuantumNumbers(1, 0), 4),
    (ANCHOR, GROUND, 3),
])
def test_one_pass_sums_as_halving_by_halving(monkeypatch, params, qn, halving):
    g, fs, s = _report_quadrature(monkeypatch, params, qn)
    assert _count(fs) == (1 if (params.D, qn.l) == (2, 0) else 3)
    sums = _exp_sinh(g, fs, s)
    assert (sums, halving) == _plain_exp_sinh(g, fs, s)
    # it returns at that halving: allowed one less, it does not converge
    monkeypatch.setattr(expectation, "_HALVINGS", halving)
    assert _exp_sinh(g, fs, s) == sums
    monkeypatch.setattr(expectation, "_HALVINGS", halving - 1)
    with pytest.raises(QuadratureError, match=f"^no convergence to 1e-10 within {halving - 1} "):
        _exp_sinh(g, fs, s)


def test_first_pass_samples_each_radius_once():
    # the tanh-sinh nodes were placed by their offset d from the nearer end
    # of [0, r_max], and b - d rounded onto r_max on ~5 % of them; U^2 was
    # sampled there more than once
    radii = []
    _exp_sinh(lambda r: radii.append(r) or np.exp(-2.0 * r), lambda r: [1.0], 1.0)
    r = radii[0]
    assert r.size == 417 and r[0] > 0.0 and np.all(np.diff(r) > 0.0)


def _raised(quadrature, *args) -> str:
    with pytest.raises(QuadratureError) as info:
        quadrature(*args)
    return str(info.value)


@pytest.mark.parametrize("b", [math.inf, math.nan])
def test_infinite_range_error_is_unchanged(b):
    # a scale s = b puts every node at r = b: the first sample is not finite
    fs = lambda r: [1.0]
    message = _raised(_exp_sinh, lambda r: r, fs, b)
    assert message == _raised(_plain_exp_sinh, lambda r: r, fs, b)
    assert message == f"non-finite integrand sample at r = {b!r}"


def _poisoned(fs, radii):
    """The weights fs and one more, which is nan at the radii and 0
    elsewhere."""
    return lambda r: [*fs(r), np.where(np.isin(r, radii), np.nan, 0.0)]


def test_non_finite_sample_names_the_r_of_its_halving(monkeypatch):
    g, fs, s = _report_quadrature(monkeypatch, ANCHOR, GROUND)
    # the outermost node of halving 2 comes after the innermost of halving
    # 3 in the first pass's t order; halving 2 is summed first, so its r is
    # the one named
    r2, r3 = _plain_nodes(s, 2)[1][-1], _plain_nodes(s, 3)[1][0]
    fs = _poisoned(fs, [r2, r3])
    message = _raised(_exp_sinh, g, fs, s)
    assert message == _raised(_plain_exp_sinh, g, fs, s)
    assert message == f"non-finite integrand sample at r = {float(r2)!r}"


@pytest.mark.parametrize("params, qn, halving", [
    # returns at 4: halving 5 is in the first pass but never summed
    (ANCHOR, QuantumNumbers(1, 0), 5),
    # returns at 5: halving 6 is never evaluated
    (PotentialParams(Z=1.0, alpha=0.002, D=5), QuantumNumbers(20, 3), 6),
])
def test_non_finite_sample_past_the_last_halving_is_not_reported(monkeypatch, params, qn,
                                                                  halving):
    g, fs, s = _report_quadrature(monkeypatch, params, qn)
    poisoned = _poisoned(fs, _plain_nodes(s, halving)[1])
    sums = _exp_sinh(g, poisoned, s)
    assert (sums, halving - 1) == _plain_exp_sinh(g, poisoned, s)
    assert sums == _exp_sinh(g, fs, s) + [0.0]


def test_no_convergence_error_keeps_its_estimate():
    # U^2/r^2 diverges like log r at the origin for l = 0 in D = 2
    p2 = PotentialParams(Z=1.0, alpha=0.05, D=2)
    lv = level(p2, GROUND)
    g, s = lambda r: lv(p2.alpha * r) ** 2, 1.0 / (p2.alpha * lv.epsilon)
    fs = lambda r: [1.0 / (r * r)]
    message = _raised(_exp_sinh, g, fs, s)
    assert message == _raised(_plain_exp_sinh, g, fs, s)
    assert re.fullmatch(r"no convergence to 1e-10 within 12 step halvings "
                        r"\(error estimate \d\.\d{3}e[+-]\d+\)", message)
