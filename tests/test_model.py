import decimal
import math
import re
import sys
from fractions import Fraction

import numpy as np
import pytest

from hulthen import (
    NoBoundState,
    PotentialParams,
    QuantumNumbers,
    centrifugal_approx,
    default_grid,
    energy,
    level,
    normalization_constant,
    potential,
    spectrum,
    wavefunction_samples,
)
from nu_reference import branches, eigen_condition, hulthen_problem, select_branch
from special_reference import (
    beta,
    bracket_energy,
    feynman_hellmann_exact,
    level_bracket,
    sign_changes,
)

# frozen from a 40-digit evaluation of the defining expressions
POT_ANCHOR = -0.05819767068693264  # Z=1, alpha=0.1, r=10
CENT_ANCHOR = 0.9997916927057501  # alpha=0.05, r=1

ANCHOR = PotentialParams(Z=1.0, alpha=0.05)  # delta = 40, mu = hbar = 1, D = 3


def test_params_validation():
    with pytest.raises(ValueError):
        PotentialParams(Z=0.0, alpha=0.1)
    with pytest.raises(ValueError):
        PotentialParams(Z=1.0, alpha=-0.1)
    with pytest.raises(ValueError):
        PotentialParams(Z=1.0, alpha=0.1, mu=math.inf)
    # inf raised a bare OverflowError from int(), nan int()'s own message
    for dim in (0, math.inf, math.nan):
        with pytest.raises(ValueError, match=f"^dimension must be an integer >= 1, got {dim}$"):
            PotentialParams(Z=1.0, alpha=0.1, D=dim)
    for n in (-1, math.inf, math.nan):
        with pytest.raises(ValueError, match=f"^n must be an integer >= 0, got {n}$"):
            QuantumNumbers(n=n)
    with pytest.raises(ValueError):
        QuantumNumbers(n=0, l=-2)


def test_dimensionless_values():
    # the dimensionless set of a level, with epsilon = (delta - m^2)/(2m)
    dp = level(ANCHOR, QuantumNumbers(0, 1))
    assert dp.gamma == 2.0  # l(l+1) at D = 3
    assert dp.v == 4.0
    assert dp.Lambda == 4.0
    assert dp.epsilon == pytest.approx(9.0, rel=1e-15)
    dp0 = level(ANCHOR, QuantumNumbers(2, 0))
    assert dp0.gamma == 0.0
    assert dp0.v == 2.0
    assert dp0.Lambda == 6.0
    assert dp0.delta == pytest.approx(40.0, rel=1e-15)
    assert dp0.epsilon == pytest.approx(31.0 / 6.0, rel=1e-15)
    d1 = level(PotentialParams(Z=1.0, alpha=0.05, D=1), QuantumNumbers(1, 0))
    assert (d1.gamma, d1.v, d1.Lambda) == (0.0, 0.0, 2.0)  # v = 0 for l = 0 in D = 1


def test_potential_values():
    p = PotentialParams(Z=1.0, alpha=0.1)
    assert potential(10.0, p) == pytest.approx(POT_ANCHOR, rel=1e-14)
    # Coulomb-like near the origin: V ~ -Z/r + Z alpha / 2
    p1 = PotentialParams(Z=1.0, alpha=1.0)
    r = 1e-6
    assert potential(r, p1) + 1.0 / r == pytest.approx(0.5, abs=1e-5)
    # exponential decay at large r
    assert potential(1e4, p) == pytest.approx(0.0, abs=1e-300)
    assert potential(1e4, p) < 0.0 or potential(1e4, p) == 0.0
    with pytest.raises(ValueError):
        potential(0.0, p)
    with pytest.raises(ValueError):
        potential(-1.0, p)


def test_potential_rejects_invalid_arrays():
    p = PotentialParams(Z=1.0, alpha=0.1)
    for bad in (np.array([1.0, 0.0]), np.array([1.0, np.inf]), np.array([np.nan])):
        with pytest.raises(ValueError):
            potential(bad, p)


def test_centrifugal_values():
    assert centrifugal_approx(1.0, 0.05) == pytest.approx(CENT_ANCHOR, rel=1e-13)
    # small alpha*r: 1/r^2 - alpha^2/12 + O(alpha^4 r^2)
    val = centrifugal_approx(1.0, 1e-3)
    assert val - 1.0 == pytest.approx(-(1e-3) ** 2 / 12.0, rel=1e-5)
    # the same function as alpha^2/(4 sinh^2(u/2))
    for u in (0.5, 1.0 - 1e-9, 1.0 + 1e-9, 2.0, 50.0):
        alpha = 0.25
        r = u / alpha
        expect = alpha**2 / (4.0 * math.sinh(0.5 * u) ** 2)
        assert centrifugal_approx(r, alpha) == pytest.approx(expect, rel=1e-12)
    assert centrifugal_approx(1e6, 0.05) == pytest.approx(0.0, abs=1e-300)
    # alpha^2 and em^2 underflow on their own here: these gave nan (0/0) and inf
    assert centrifugal_approx(1.0, 1e-170) == 1.0
    assert centrifugal_approx(1e-20, 1e-150) == pytest.approx(1e40, rel=1e-15)
    with pytest.raises(ValueError):
        centrifugal_approx(0.0, 0.05)
    for bad in (np.array([1.0, 0.0]), np.array([1.0, np.inf]), np.array([np.nan])):
        with pytest.raises(ValueError):
            centrifugal_approx(bad, 0.05)


def test_energy_anchor():
    st = energy(ANCHOR, QuantumNumbers(0, 0))
    assert st.exists
    assert st.epsilon == pytest.approx(19.5, rel=1e-15)
    assert st.energy == pytest.approx(-0.4753125, rel=1e-14)
    # energy = -(alpha hbar eps)^2 / (2 mu) as stored
    assert st.energy == pytest.approx(
        -((ANCHOR.alpha * st.epsilon) ** 2) / 2.0, rel=1e-15
    )


def test_energy_bracket_equivalence():
    # compact (delta - m^2)/(2m) form vs the original bracket expression
    rng = np.random.default_rng(41)
    for _ in range(500):
        n = int(rng.integers(0, 11))
        l = int(rng.integers(0, 6))
        dim = int(rng.integers(1, 9))
        if n == 0 and l == 0 and dim == 1:
            continue
        alpha = rng.uniform(1e-4, 0.2)
        Z = rng.uniform(0.5, 2.0)
        mu = rng.uniform(0.5, 2.0)
        hbar = rng.uniform(0.5, 2.0)
        params = PotentialParams(Z=Z, alpha=alpha, mu=mu, hbar=hbar, D=dim)
        st = energy(params, QuantumNumbers(n, l))
        e_bracket = bracket_energy(Z, alpha, mu, hbar, dim, n, l)
        bracket = level_bracket(Z, alpha, mu, hbar, dim, n, l)
        m = n + l + (dim - 1) / 2.0
        delta = 2.0 * Z * mu / (alpha * hbar**2)
        assert bracket == pytest.approx((m * m - delta) / (2.0 * m), rel=1e-12)
        if st.exists:
            assert bracket < 0.0
            assert st.energy == pytest.approx(e_bracket, rel=1e-12)
        else:
            assert bracket >= 0.0


def test_three_dimensional_reduction():
    # at D = 3 the level must agree with the standard closed form
    # -(hbar^2/2mu) [Z mu / (hbar^2 (n+l+1)) - (n+l+1) alpha / 2]^2
    rng = np.random.default_rng(43)
    for _ in range(300):
        n = int(rng.integers(0, 11))
        l = int(rng.integers(0, 6))
        alpha = rng.uniform(1e-4, 0.2)
        Z = rng.uniform(0.5, 2.0)
        mu = rng.uniform(0.5, 2.0)
        hbar = rng.uniform(0.5, 2.0)
        k = n + l + 1
        ref = -(hbar**2 / (2.0 * mu)) * (Z * mu / (hbar**2 * k) - 0.5 * k * alpha) ** 2
        e_bracket = bracket_energy(Z, alpha, mu, hbar, 3, n, l)
        assert e_bracket == pytest.approx(ref, rel=1e-12)


def test_interdimensional_degeneracy():
    # the level depends on (l, D) only through 2l+D
    for dim in range(3, 9):
        for l in range(0, 4):
            for n in range(0, 4):
                a = energy(PotentialParams(Z=1.3, alpha=0.07, D=dim), QuantumNumbers(n, l))
                b = energy(PotentialParams(Z=1.3, alpha=0.07, D=dim - 2), QuantumNumbers(n, l + 1))
                assert a.exists == b.exists
                if a.exists:
                    assert a.energy == b.energy
                    assert a.epsilon == b.epsilon


def test_energy_monotone_in_n():
    states = spectrum(ANCHOR, l=0)
    existing = [st for st in states if st.exists]
    assert len(existing) == 6
    energies = [st.energy for st in existing]
    assert all(e2 > e1 for e1, e2 in zip(energies, energies[1:]))


def test_sqrt_identity():
    # sqrt(1 + 4 gamma) equals 2l+D-2 exactly for integer l, D with
    # 2l+D-2 >= 0 (the coefficient is a perfect square)
    for l in range(0, 51):
        for dim in range(1, 13):
            w = 2 * l + dim - 2
            if w < 0:
                continue
            gamma = (2 * l + dim - 1) * (2 * l + dim - 3) / 4.0
            assert math.sqrt(1.0 + 4.0 * gamma) == float(w)


def test_nonexistence_is_a_value():
    # delta = 0.8 < 1: no states at l = 0, D = 3
    weak = PotentialParams(Z=1.0, alpha=2.5)
    st = energy(weak, QuantumNumbers(0, 0))
    assert not st.exists
    assert st.energy is None and st.epsilon is None
    assert spectrum(weak, 0) == []


def test_d1_spurious_ground_state():
    # n = l = 0 in D = 1 makes the level formula singular (m = 0); it is
    # reported as non-existing even though delta > 0
    p1 = PotentialParams(Z=1.0, alpha=0.05, D=1)
    assert not energy(p1, QuantumNumbers(0, 0)).exists
    assert energy(p1, QuantumNumbers(1, 0)).exists
    # levels n = 1..6 for delta = 40
    assert sum(st.exists for st in spectrum(p1, 0)) == 6
    states = spectrum(p1, 0)
    assert states[0].exists is False and states[1].exists is True
    assert len(states) == 7


def test_bound_state_count_examples():
    assert sum(st.exists for st in spectrum(ANCHOR, 0)) == 6
    # delta = 0.1 needs delta > 1 at l = 0, D = 3
    assert sum(st.exists for st in spectrum(PotentialParams(Z=1.0, alpha=20.0), 0)) == 0
    # enumeration cap applies when delta is huge
    assert sum(st.exists for st in spectrum(PotentialParams(Z=1.0, alpha=1e-4), 0, 10)) == 11


def test_negative_n_max_is_a_value_error():
    # it used to end in an IndexError
    for n_max in (-1, math.inf, math.nan):
        with pytest.raises(ValueError, match=f"^n_max must be an integer >= 0, got {n_max}$"):
            spectrum(ANCHOR, 0, n_max=n_max)


@pytest.mark.parametrize(
    "kwargs, what",
    [
        # delta overflowed to inf: epsilon = inf, energy = -inf, exists
        ({"Z": 1.0, "alpha": 1e-320}, "delta = 2 Z mu/(alpha hbar^2)"),
        # hbar^2 underflowed to 0 (ZeroDivisionError) or overflowed
        ({"Z": 1.0, "alpha": 0.05, "hbar": 1e-200}, "delta = 2 Z mu/(alpha hbar^2)"),
        ({"Z": 1.0, "alpha": 0.05, "hbar": 1e200}, "delta = 2 Z mu/(alpha hbar^2)"),
        # Z mu underflowed to 0
        ({"Z": 1e-300, "alpha": 0.05, "mu": 1e-300}, "delta = 2 Z mu/(alpha hbar^2)"),
        # an existing level's E underflowed to -0.0
        ({"Z": 1e-300, "alpha": 1e-300}, "energy of n=0, l=0, D=3"),
        # squaring alpha hbar eps raised OverflowError
        ({"Z": 1e300, "alpha": 0.05}, "energy of n=0, l=0, D=3"),
    ],
    ids=["delta-inf", "hbar2-zero", "hbar2-overflow", "delta-zero", "energy-zero",
         "energy-overflow"],
)
def test_levels_outside_the_float_range_raise(kwargs, what):
    params = PotentialParams(**kwargs)
    message = f"^{re.escape(what)} is outside the float range$"
    for call in (lambda: energy(params, QuantumNumbers(0)),
                 lambda: level(params, QuantumNumbers(0)),
                 lambda: spectrum(params)):
        with pytest.raises(ValueError, match=message) as info:
            call()
        assert type(info.value) is ValueError


def test_normalization_outside_the_float_range_raises():
    # C_n^2 = alpha a (2n+a+v)/(2n+v) * prod ~ a^8/5040 * 1e-300 at
    # a = 2 eps ~ 6e299, so C_n ~ 1e1047 is itself not a float; E and the
    # level itself are finite
    params, qn = PotentialParams(Z=1.0, alpha=1e-300, D=4), QuantumNumbers(0, 2)
    assert math.isfinite(energy(params, qn).energy)
    message = "^normalization constant of n=0, l=2, D=4 is outside the float range$"
    for call in (level, normalization_constant, default_grid, wavefunction_samples):
        with pytest.raises(ValueError, match=message) as info:
            call(params, qn)
        assert type(info.value) is ValueError


def test_normalization_whose_square_overflows():
    # at alpha = 1e-300, D = 3 the level is hydrogen's ground state: C_n^2
    # = 4 alpha eps^3 (1 + O(1/eps)) ~ 4e600 is not a float, but C_n ~ 2e300 is
    params = PotentialParams(Z=1.0, alpha=1e-300)
    eps = energy(params, QuantumNumbers(0)).epsilon
    assert normalization_constant(params, QuantumNumbers(0)) == pytest.approx(
        2.0 * eps * math.sqrt(params.alpha * eps), rel=1e-15)


@pytest.mark.parametrize("alpha, n", [(1e-200, 0), (1e-300, 1)])
def test_normalization_from_an_odd_power_of_two(alpha, n):
    # C_n^2 overflows, and its factors multiply to a mantissa times 2^1331
    # (alpha = 1e-200, n = 0) or 2^1991 (alpha = 1e-300, n = 1): C_n is the
    # root of 2 mant times the even power below.  Against a 60-digit root of
    # the exact product, formed from epsilon, C_n = 2e200 is 0.14 ulp off and
    # 3.5355e299 0.03 ulp
    params, qn = PotentialParams(Z=1.0, alpha=alpha), QuantumNumbers(n)
    lv = level(params, qn)
    a, v = 2 * Fraction(lv.epsilon), 2
    square = Fraction(alpha) * a * (2 * n + a + v) / (2 * n + v)
    for j in range(1, v):
        square *= (n + a + j) / (n + j)
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        root = (decimal.Decimal(square.numerator) / square.denominator).sqrt()
        assert abs(decimal.Decimal(lv.norm) - root) <= decimal.Decimal(math.ulp(lv.norm))


def test_recurrence_outside_the_float_range_raises():
    # at D = 1, l = 0 the level and C_n are finite, but a = 2 eps = 1e120
    # overflows the numerator of A_2 (U was nan everywhere)
    params = PotentialParams(Z=1.0, alpha=1e-120, D=1)
    assert math.isfinite(energy(params, QuantumNumbers(2)).energy)
    message = re.escape("Jacobi recurrence of P_2^(1e+120, -1.0) is outside the float range")
    for call in (level, normalization_constant, default_grid, wavefunction_samples):
        with pytest.raises(ValueError, match=f"^{message}$") as info:
            call(params, QuantumNumbers(2))
        assert type(info.value) is ValueError


@pytest.mark.parametrize(
    "kwargs,qn,raised",
    [
        # 16 delta^2 overflowed at delta = 2e160, and dE/dl and <r^-2> raised;
        # they are 1 and 2
        ({"Z": 1.0, "alpha": 1e-160, "D": 1}, QuantumNumbers(1), ()),
        # alpha^2 overflowed at alpha = 1e200 (delta = 2), and dE/dl raised;
        # it is about 7.5e199, while <r^-2> is about 2^1329
        ({"Z": 1.0, "alpha": 1e200, "hbar": 1e-100}, QuantumNumbers(0), ("<r^-2>",)),
        # 2 alpha Z = 2e308 as well, and <V> raised: E is -1.25e307, dE/dl
        # about 7.5e307, <V> about -5e307 and <T> about 3.75e307
        ({"Z": 1e108, "alpha": 1e200, "hbar": 1e-46}, QuantumNumbers(0), ("<r^-2>",)),
    ],
    ids=["delta2-overflow", "alpha2-overflow", "alpha-Z-overflow"],
)
def test_feynman_hellmann_values_outside_the_float_range_raise(kwargs, qn, raised):
    # a value raises only when the paper's form, evaluated exactly, is not
    # a float; each one returned is within 1e-15 of it
    params = PotentialParams(**kwargs)
    lv = level(params, qn)
    exact = feynman_hellmann_exact(params.Z, params.alpha, params.mu, params.hbar, params.D,
                                   qn.n, qn.l)
    label = f"of n={qn.n}, l={qn.l}, D={params.D} is outside the float range"
    for name, what, ref in zip(("dE_dl", "inv_r2", "v_mean", "t_mean"),
                               ("dE/dl", "<r^-2>", "<V>", "<T>"), exact):
        if what in raised:
            assert abs(ref) > sys.float_info.max
            with pytest.raises(ValueError, match=f"^{re.escape(what)} {label}$") as info:
                getattr(lv, name)
            assert type(info.value) is ValueError
        else:
            assert abs(Fraction(getattr(lv, name)) - ref) <= 1e-15 * abs(ref)
    assert math.isfinite(lv.energy) and lv.nodes == 0


def test_levels_near_the_float_range_edge_are_kept():
    # E = -(alpha hbar eps)^2/(2 mu) and delta close to either end of the
    # float range are still formed by the same arithmetic
    for params in (PotentialParams(Z=1e150, alpha=1.0), PotentialParams(Z=1e-150, alpha=1e-150),
                   PotentialParams(Z=1.0, alpha=1e-300)):
        st = energy(params, QuantumNumbers(0))
        delta = 2.0 * params.Z * params.mu / (params.alpha * params.hbar**2)
        assert st.epsilon == (delta - 1.0) / 2.0
        assert st.energy == -((params.alpha * params.hbar * st.epsilon) ** 2) / (2.0 * params.mu)
        assert st.energy < 0.0 and math.isfinite(st.energy)


def test_spectrum_stops_at_first_missing_level(monkeypatch):
    # m = n + l + (D-1)/2 grows with n, so spectrum need not evaluate past
    # the first missing level after n = 0, whatever n_max is
    calls = []

    def counted(params, qn):
        calls.append(qn.n)
        return energy(params, qn)

    monkeypatch.setattr("hulthen.model.energy", counted)
    for params, l in [(ANCHOR, 0), (ANCHOR, 3), (PotentialParams(Z=1.0, alpha=0.05, D=1), 0),
                      (PotentialParams(Z=1.0, alpha=2.5), 0)]:
        calls.clear()
        states = spectrum(params, l, n_max=1000)
        assert len(calls) <= sum(st.exists for st in states) + 2
        assert states == spectrum(params, l, n_max=len(states) + 5)


def test_energy_approaches_the_coulomb_limit():
    st = energy(PotentialParams(Z=1.0, alpha=1e-6), QuantumNumbers(0, 0))
    assert abs(st.energy - (-0.5)) / 0.5 < 1e-4


def test_normalization_ground_state_closed_form():
    for params, l in [(ANCHOR, 0), (ANCHOR, 2), (PotentialParams(Z=1, alpha=0.05, D=5), 1)]:
        qn = QuantumNumbers(0, l)
        st = energy(params, qn)
        v = 2 * l + params.D - 1
        expect = math.sqrt(params.alpha / beta(2.0 * st.epsilon, v + 1.0))
        assert normalization_constant(params, qn) == pytest.approx(expect, rel=1e-12)


def _norm_integral_reference(params, qn):
    """int_0^1 s^(2eps-1) (1-s)^v [P_n^(2eps, v-1)(1-2s)]^2 ds by scipy's
    adaptive quadrature and Jacobi polynomials, with epsilon from the
    level formula; the closed form alpha / C_n^2 must reproduce it."""
    from scipy import integrate, special

    m = qn.n + qn.l + (params.D - 1) / 2.0
    delta = 2.0 * params.Z * params.mu / (params.alpha * params.hbar**2)
    a = (delta - m * m) / m  # 2 epsilon
    v = 2 * qn.l + params.D - 1

    def f(s):
        return s ** (a - 1.0) * (1.0 - s) ** v * special.eval_jacobi(qn.n, a, v - 1.0, 1.0 - 2.0 * s) ** 2

    breaks = np.linspace(0.0, 1.0, qn.n + 2)[1:-1]
    val, err = integrate.quad(f, 0.0, 1.0, epsabs=0.0, epsrel=1e-13, limit=1000, points=breaks)
    assert err < 1e-12 * val
    return val


@pytest.mark.parametrize(
    "params, qn",
    [(PotentialParams(Z=1.0, alpha=1e-3), QuantumNumbers(n, 0)) for n in (15, 20, 25, 30, 40)]
    + [(PotentialParams(Z=1.0, alpha=0.05, D=1), QuantumNumbers(n, 0)) for n in (1, 5)]
    + [(PotentialParams(Z=0.7612, alpha=0.008279, mu=1.0931, hbar=0.8738, D=5), QuantumNumbers(8, 2))],
)
def test_normalization_matches_independent_quadrature(params, qn):
    # high n at small alpha, the v = 0 case (D = 1, l = 0) and an ordinary
    # D = 5 level: the integral of U^2 is 1 and C_n agrees to 1e-12
    ref = _norm_integral_reference(params, qn)
    c_n = normalization_constant(params, qn)
    assert c_n * c_n * ref / params.alpha == pytest.approx(1.0, abs=1e-10)
    assert c_n == pytest.approx(math.sqrt(params.alpha / ref), rel=1e-12)


def test_normalization_errors():
    with pytest.raises(ValueError):
        normalization_constant(PotentialParams(Z=1.0, alpha=2.5), QuantumNumbers(0, 0))


def test_wavefunction_endpoints_and_domain():
    qn = QuantumNumbers(0, 0)
    u = level(ANCHOR, qn)
    c0 = normalization_constant(ANCHOR, qn)
    st = energy(ANCHOR, qn)
    # ground state is C_0 s^eps (1-s)^(v/2), evaluated at alpha*r = -ln s
    for s in (0.2, 0.5, 0.9):
        expect = c0 * s**st.epsilon * (1.0 - s) ** 1.0  # v/2 = 1 at l=0, D=3
        assert u(-math.log(s)) == pytest.approx(expect, rel=1e-12)
    # endpoint limits vanish (s -> 0 is r -> inf, s -> 1 is r -> 0)
    assert u(-math.log(1e-12)) == pytest.approx(0.0, abs=1e-200)
    assert u(-math.log1p(-1e-14)) == pytest.approx(0.0, abs=1e-10)
    with pytest.raises(ValueError):
        level(PotentialParams(Z=1.0, alpha=2.5), qn)
    # array input matches scalar evaluation
    t_arr = -np.log(np.array([0.1, 0.4, 0.8]))
    scalars = [u(float(t)) for t in t_arr]
    np.testing.assert_allclose(u(t_arr), scalars, rtol=1e-14)


def test_wavefunction_near_origin():
    # U/(alpha r)^(v/2) -> C_n P_n^(2eps, v-1)(-1) = C_n (-1)^n binom(n+v-1, n)
    # as r -> 0; for v = 0 (l = 0 in D = 1) P_n has a root at x = -1 and
    # U/r -> (-1)^(n-1) C_n alpha (n + 2 eps), from the slope of P_n there
    for dim, l in [(1, 0), (1, 1), (2, 0), (3, 0), (3, 2), (5, 1)]:
        for alpha in (1e-3, 0.05, 0.3):
            params = PotentialParams(Z=1.0, alpha=alpha, D=dim)
            for st in spectrum(params, l, n_max=6):
                if not st.exists:
                    continue
                lv = level(params, st.qn)
                n, v = st.qn.n, int(lv.v)
                for r in (1e-40, 1e-15, 1e-12):
                    if v == 0:
                        got = lv(alpha * r) / r
                        expect = (-1) ** (n - 1) * lv.norm * alpha * (n + 2.0 * lv.epsilon)
                    else:
                        got = lv(alpha * r) / (alpha * r) ** (0.5 * v)
                        expect = (-1) ** n * lv.norm * math.comb(n + v - 1, n)
                    assert got == pytest.approx(expect, rel=1e-9), (dim, l, alpha, n, r)
    # P_n in x = 1 - 2s read -1.3156 here
    d1 = PotentialParams(Z=1.0, alpha=0.05, D=1)
    assert level(d1, QuantumNumbers(2, 0))(0.05 * 1e-15) / 1e-15 == pytest.approx(
        -0.70356236397, rel=1e-10)


def test_samples_structure_and_nodes():
    for n in range(0, 4):
        qn = QuantumNumbers(n, 0)
        samples = wavefunction_samples(ANCHOR, qn)
        # R r^((D-1)/2) = U pointwise
        np.testing.assert_allclose(
            samples.R_values * samples.r_values ** ((ANCHOR.D - 1) / 2.0),
            samples.U_values,
            rtol=1e-12,
        )
        assert sign_changes(samples.U_values) == n
    # l = 1 states
    for n in range(0, 3):
        samples = wavefunction_samples(ANCHOR, QuantumNumbers(n, 1))
        assert sign_changes(samples.U_values) == n


def test_samples_d1():
    p1 = PotentialParams(Z=1.0, alpha=0.05, D=1)
    samples = wavefunction_samples(p1, QuantumNumbers(2, 0))
    # R = U identically in D = 1
    np.testing.assert_array_equal(samples.R_values, samples.U_values)
    # one Jacobi root sits on the r = 0 boundary: n - 1 interior nodes
    assert sign_changes(samples.U_values) == 1


def test_samples_grid_handling():
    qn = QuantumNumbers(0, 0)
    # any increasing radii: the meta holds the grid's ends and size
    log_r = np.geomspace(0.1, 50.0, 100)
    samples = wavefunction_samples(ANCHOR, qn, log_r)
    assert {k: samples.meta[k] for k in ("r_min", "r_max", "points")} == {
        "r_min": float(log_r[0]), "r_max": float(log_r[-1]), "points": 100}
    assert "spacing" not in samples.meta
    np.testing.assert_array_equal(samples.r_values, log_r)
    np.testing.assert_array_equal(samples.U_values, level(ANCHOR, qn)(ANCHOR.alpha * log_r))
    for bad in ([2.0, 1.0], [1.0, 1.0], [], [[1.0, 2.0]]):
        with pytest.raises(ValueError):
            wavefunction_samples(ANCHOR, qn, np.array(bad))
    # an inf radius gave a row with U = R = 0
    for bad in ([-1.0, 2.0], [0.0, 1.0], [1.0, math.inf], [math.nan, 1.0]):
        with pytest.raises(ValueError, match="^radii must be finite positive reals$"):
            wavefunction_samples(ANCHOR, qn, np.array(bad))


def test_default_grid():
    qn = QuantumNumbers(2, 1)
    r_max = 40.0 / (ANCHOR.alpha * level(ANCHOR, qn).epsilon)
    for points in (2, 7, 4000):
        grid = default_grid(ANCHOR, qn, points)
        np.testing.assert_array_equal(grid, np.linspace(r_max / (4.0 * points), r_max, points))
    samples = wavefunction_samples(ANCHOR, qn)
    assert (samples.meta["r_min"], samples.meta["r_max"], samples.meta["points"]) == (
        r_max / 16000.0, r_max, 4000)
    # 2.5 passed the old grid class, then failed in linspace with a TypeError
    for points in (1, 2.5, 0, -3, math.inf, math.nan):
        with pytest.raises(ValueError, match=f"^points must be an integer >= 2, got {points}$"):
            default_grid(ANCHOR, qn, points)


@pytest.mark.parametrize("params, qn", [
    (ANCHOR, QuantumNumbers(2, 1)),
    (PotentialParams(Z=1.0, alpha=0.05, D=1), QuantumNumbers(2, 0)),
    (PotentialParams(Z=1.0, alpha=0.05, D=2), QuantumNumbers(1, 0)),
    (PotentialParams(Z=1.0, alpha=0.002), QuantumNumbers(8, 0)),
    # C_n ~ 2e300 meets a subnormal (1 - s)^(v/2)
    (PotentialParams(Z=1.0, alpha=1e-300), QuantumNumbers(0, 0)),
])
def test_default_grid_samples_as_the_explicit_grid(params, qn):
    # without a grid only the ends of the default one are checked; the
    # samples keep every bit of those of the same grid passed in
    own = wavefunction_samples(params, qn)
    given = wavefunction_samples(params, qn, default_grid(params, qn))
    for name in ("r_values", "U_values", "R_values"):
        assert getattr(own, name).tobytes() == getattr(given, name).tobytes(), name
    assert own.meta == given.meta


def test_default_grid_past_the_float_range_raises():
    # kappa = alpha eps = 1e-309, so r_max = 40/kappa is inf: linspace(inf,
    # inf) ran and warned before the radii check raised
    params, qn = PotentialParams(Z=2e-9, alpha=2e-309, hbar=1e150), QuantumNumbers(0, 0)
    assert 40.0 / (params.alpha * level(params, qn).epsilon) == math.inf
    for call in (default_grid, wavefunction_samples):
        with pytest.raises(ValueError, match="^radii must be finite positive reals$"):
            call(params, qn)


def test_level_keeps_the_last_record():
    qn = QuantumNumbers(2, 1)
    lv = level(ANCHOR, qn)
    assert level(ANCHOR, qn) is lv
    assert level(PotentialParams(Z=1.0, alpha=0.05), QuantumNumbers(2, 1)) is lv
    # one slot: after another level the first is built anew, equal to it
    other = level(ANCHOR, QuantumNumbers(0, 0))
    assert other is not lv
    again = level(ANCHOR, qn)
    assert again is not lv and again == lv


def test_level_that_raises_raises_on_every_call():
    missing = PotentialParams(Z=1.0, alpha=2.5), QuantumNumbers(0, 0)
    no_norm = PotentialParams(Z=1.0, alpha=1e-300, D=4), QuantumNumbers(0, 2)
    for _ in range(2):
        with pytest.raises(NoBoundState):
            level(*missing)
        with pytest.raises(ValueError, match="^normalization constant of n=0, l=2, D=4 "):
            level(*no_norm)


def test_samples_outside_the_float_range_raise():
    # both returned a non-finite R after a RuntimeWarning
    with pytest.raises(ValueError, match=r"^R = U r\^-\(D-1\)/2 is outside the float range "
                                         r"at r = 1e-320$"):
        wavefunction_samples(ANCHOR, QuantumNumbers(0, 0), np.linspace(1e-320, 1.0, 3))
    params = PotentialParams(Z=1.0, alpha=1e-5, D=200)
    with pytest.raises(ValueError, match=r"at r = 0\.0001$"):
        wavefunction_samples(params, QuantumNumbers(0, 0), np.linspace(1e-4, 1000.0, 4))


def test_samples_keep_shallow_tail():
    # epsilon = 0.0015: the state reaches far past alpha*r = 745, where
    # exp(-alpha r) underflows; U must still be sampled there
    params = PotentialParams(Z=1.0, alpha=0.0987, D=4)
    qn = QuantumNumbers(1, 2)
    r_max = default_grid(params, qn)[-1]
    r = np.linspace(r_max * 1e-6, r_max, 200001)
    samples = wavefunction_samples(params, qn, r)
    assert np.count_nonzero(samples.U_values[r * params.alpha > 800.0]) > 0
    assert np.trapezoid(samples.U_values**2, r) == pytest.approx(1.0, abs=1e-6)


def test_default_grid_covers_state():
    qn = QuantumNumbers(0, 0)
    grid = default_grid(ANCHOR, qn, points=2000)
    samples = wavefunction_samples(ANCHOR, qn, grid)
    total = np.trapezoid(samples.U_values**2, samples.r_values)
    assert total == pytest.approx(1.0, abs=1e-4)


def test_nu_consistency():
    # the closed-form epsilon zeroes the pipeline's termination residual;
    # the polynomial degree is the interior node count (n, or n-1 when
    # 2l+D-1 = 0)
    cases = [
        (ANCHOR, QuantumNumbers(0, 0)),
        (ANCHOR, QuantumNumbers(3, 1)),
        (PotentialParams(Z=1.0, alpha=0.05, D=5), QuantumNumbers(2, 0)),
        (PotentialParams(Z=1.0, alpha=0.05, D=1), QuantumNumbers(2, 0)),
        (PotentialParams(Z=1.0, alpha=0.05, D=2), QuantumNumbers(1, 0)),
    ]
    for params, qn in cases:
        lv = level(params, qn)
        prob = hulthen_problem(lv.epsilon, lv.delta, lv.gamma)
        chosen = select_branch(branches(prob))
        v = 2 * qn.l + params.D - 1
        degree = qn.n - 1 if v == 0 else qn.n
        assert abs(eigen_condition(chosen, prob.sigma, degree)) <= 1e-9
