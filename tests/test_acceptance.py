"""Acceptance suite: every criterion at its stated tolerance, one
pass/fail line per criterion (run with -s to see them)."""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from hulthen import (
    PotentialParams,
    QuantumNumbers,
    centrifugal_approx,
    count_bound_states,
    default_config,
    energy,
    level,
    normalization_constant,
    potential,
    solve_exact,
    spectrum,
    wavefunction_samples,
)
from hulthen.expectation import _weighted_integrals
from hulthen.specfun import jacobi_poly
from nu_reference import branches, eigen_condition, hulthen_problem, select_branch
from special_reference import beta, bracket_energy, hyp_terminating, pochhammer, sign_changes


@contextmanager
def criterion(num, name, budget_s):
    t0 = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {num} ({name}): FAIL")
        raise
    elapsed = time.perf_counter() - t0
    assert elapsed < budget_s, f"runtime {elapsed:.1f}s exceeds {budget_s}s budget"
    print(f"ACCEPTANCE {num} ({name}): PASS [{elapsed:.2f}s]")


def level_3d_form(Z, alpha, mu, hbar, n, l):
    """The standard three-dimensional closed form."""
    k = n + l + 1
    return -(hbar**2 / (2.0 * mu)) * (Z * mu / (hbar**2 * k) - 0.5 * k * alpha) ** 2


def test_criterion_1_3d_reduction():
    with criterion(1, "3D reduction identity", 1.0):
        rng = np.random.default_rng(101)
        for _ in range(1000):
            n = int(rng.integers(0, 11))
            l = int(rng.integers(0, 6))
            alpha = rng.uniform(1e-4, 0.2)
            Z = rng.uniform(0.5, 2.0)
            mu = rng.uniform(0.5, 2.0)
            hbar = rng.uniform(0.5, 2.0)
            e_gen = bracket_energy(Z, alpha, mu, hbar, 3, n, l)
            e_3d = level_3d_form(Z, alpha, mu, hbar, n, l)
            assert abs(e_gen - e_3d) <= 1e-12 * abs(e_3d)
            # the library evaluates the same number for existing states
            st = energy(PotentialParams(Z=Z, alpha=alpha, mu=mu, hbar=hbar, D=3),
                        QuantumNumbers(n, l))
            if st.exists:
                assert abs(st.energy - e_3d) <= 1e-12 * abs(e_3d)


def test_criterion_2_coulomb_limit():
    with criterion(2, "Coulomb limit", 1.0):
        qn = QuantumNumbers(0, 0)
        st = energy(PotentialParams(Z=1.0, alpha=1e-6), qn)
        assert abs(st.energy - (-0.5)) / 0.5 < 1e-4
        gaps = []
        for alpha in (1e-2, 1e-3, 1e-4, 1e-5):
            e_val = energy(PotentialParams(Z=1.0, alpha=alpha), qn).energy
            gaps.append(abs(e_val - (-0.5)))
        assert all(b < a for a, b in zip(gaps, gaps[1:]))


def test_criterion_3_exact_s_wave_cross_validation():
    with criterion(3, "exact s-wave vs oracle", 30.0):
        anchor_checked = False
        for dim in (1, 3):
            for alpha in (0.05, 0.1):
                params = PotentialParams(Z=1.0, alpha=alpha, D=dim)
                for st in spectrum(params, l=0):
                    if not st.exists:
                        continue
                    cfg = default_config(params, st.qn)
                    res = solve_exact(params, 0, level(params, st.qn).nodes, cfg)
                    assert res.converged
                    assert abs(st.energy - res.energy) <= 1e-6 * abs(res.energy)
                    if dim == 3 and alpha == 0.05 and st.qn.n == 0:
                        assert st.energy == pytest.approx(-0.4753125, rel=1e-12)
                        anchor_checked = True
        assert anchor_checked


def test_criterion_4_approximation_validity():
    with criterion(4, "centrifugal approximation error decreases with alpha", 60.0):
        qn = QuantumNumbers(0, 1)
        errors = []
        for alpha in (0.2, 0.1, 0.05, 0.025):
            params = PotentialParams(Z=1.0, alpha=alpha, D=3)
            lv = level(params, qn)
            res = solve_exact(params, qn.l, lv.nodes, default_config(params, qn))
            errors.append(abs(lv.energy - res.energy) / abs(res.energy))
        assert all(b < a for a, b in zip(errors, errors[1:])), errors


def test_criterion_5_normalization():
    with criterion(5, "normalization from the double sum", 10.0):
        for dim, l in [(3, 0), (3, 1), (3, 2), (5, 0), (4, 1)]:
            params = PotentialParams(Z=1.0, alpha=0.05, D=dim)
            for n in range(0, 6):
                qn = QuantumNumbers(n, l)
                if not energy(params, qn).exists:
                    continue
                total = _weighted_integrals([lambda r: 1.0], level(params, qn))[0]
                assert abs(total - 1.0) <= 1e-8
            # ground state: the double sum collapses to the closed form
            qn0 = QuantumNumbers(0, l)
            st0 = energy(params, qn0)
            v = 2 * l + dim - 1
            closed = math.sqrt(params.alpha / beta(2.0 * st0.epsilon, v + 1.0))
            assert normalization_constant(params, qn0) == pytest.approx(closed, rel=1e-12)


def _sample_existing_states(count, seed):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        n = int(rng.integers(0, 6))
        l = int(rng.integers(0, 5))
        dim = int(rng.integers(1, 7))
        if l == 0 and dim == 2:
            continue  # inv_r2 relation degenerates there
        m = n + l + (dim - 1) / 2.0
        if m <= 0:
            continue
        alpha = float(np.exp(rng.uniform(np.log(0.01), np.log(0.2))))
        Z = rng.uniform(0.5, 2.0)
        mu = rng.uniform(0.5, 2.0)
        hbar = rng.uniform(0.5, 2.0)
        delta = 2.0 * Z * mu / (alpha * hbar**2)
        if delta <= 1.15 * m * m:
            continue  # too close to the existence boundary for relative checks
        out.append((PotentialParams(Z=Z, alpha=alpha, mu=mu, hbar=hbar, D=dim),
                    QuantumNumbers(n, l)))
    return out


def test_criterion_6_hft_closed_forms():
    with criterion(6, "parameter-derivative identities", 60.0):
        states = _sample_existing_states(200, seed=613)
        h = 1e-5
        for params, qn in states:
            Z, alpha, mu, hbar, dim = params.Z, params.alpha, params.mu, params.hbar, params.D
            n, l = qn.n, qn.l
            # dE/dl closed form vs central difference in l
            fd_l = (
                bracket_energy(Z, alpha, mu, hbar, dim, n, l + h)
                - bracket_energy(Z, alpha, mu, hbar, dim, n, l - h)
            ) / (2.0 * h)
            lv = level(params, qn)
            closed_l = lv.dE_dl
            assert abs(closed_l - fd_l) <= 1e-6 * abs(closed_l)
            # <V> closed form vs Z * central difference in Z
            fd_z = Z * (
                bracket_energy(Z + h, alpha, mu, hbar, dim, n, l)
                - bracket_energy(Z - h, alpha, mu, hbar, dim, n, l)
            ) / (2.0 * h)
            v_closed = lv.v_mean
            assert abs(v_closed - fd_z) <= 1e-6 * abs(v_closed)
            # model-exact identities against |U|^2 quadrature
            v_quad = _weighted_integrals([lambda r: potential(r, params)], lv)[0]
            assert abs(v_closed - v_quad) <= 1e-6 * abs(v_closed)
            r2_closed = lv.inv_r2
            r2_quad = _weighted_integrals([lambda r: centrifugal_approx(r, alpha)], lv)[0]
            assert abs(r2_closed - r2_quad) <= 1e-6 * abs(r2_closed)


def test_criterion_7_nu_engine_regression():
    with criterion(7, "reduction-pipeline regression", 1.0):
        rng = np.random.default_rng(717)
        for _ in range(100):
            eps = rng.uniform(0.05, 15.0)
            delta = rng.uniform(0.2, 80.0)
            gamma = rng.uniform(0.0, 30.0)
            prob = hulthen_problem(eps, delta, gamma)
            chosen = select_branch(branches(prob))
            q = math.sqrt(1.0 + 4.0 * gamma)
            # the physically valid branch: pi = eps - (1 + 2 eps + q) s / 2
            scale = max(1.0, eps, q)
            assert abs(chosen.pi.c0 - eps) <= 1e-10 * scale
            assert abs(chosen.pi.c1 + 0.5 * (1.0 + 2.0 * eps + q)) <= 1e-10 * scale
            assert chosen.tau_slope < 0.0
            # its eigenvalue parameter (the printed closed form carries a
            # sign typo on delta - gamma; the worked 3D/Coulomb limits fix
            # the sign used here)
            lam_expect = delta - gamma - 0.5 * (1.0 + 2.0 * eps) * (1.0 + q)
            assert abs(chosen.lam - lam_expect) <= 1e-10 * max(1.0, abs(lam_expect))
        # the closed-form epsilon zeroes the termination residual
        rng2 = np.random.default_rng(719)
        checked = 0
        while checked < 60:
            n = int(rng2.integers(0, 8))
            l = int(rng2.integers(0, 4))
            dim = int(rng2.integers(1, 7))
            m = n + l + (dim - 1) / 2.0
            v = 2 * l + dim - 1
            degree = n - 1 if v == 0 else n
            if m <= 0 or degree < 0:
                continue
            delta = rng2.uniform(1.05, 4.0) * m * m
            gamma = (2 * l + dim - 1) * (2 * l + dim - 3) / 4.0
            eps = (delta - m * m) / (2.0 * m)
            prob = hulthen_problem(eps, delta, gamma)
            chosen = select_branch(branches(prob))
            assert abs(eigen_condition(chosen, prob.sigma, degree)) <= 1e-9
            checked += 1


def test_criterion_8_structural_properties():
    with criterion(8, "structural properties", 30.0):
        params = PotentialParams(Z=1.0, alpha=0.05)
        # node count equals the radial index
        for n in range(0, 6):
            samples = wavefunction_samples(params, QuantumNumbers(n, 0))
            assert sign_changes(samples.U_values) == n
        # interdimensional degeneracy: (l, D) enters only through 2l+D
        for dim in (3, 4, 5, 6):
            for l in (0, 1, 2):
                for n in (0, 1, 3):
                    a = energy(PotentialParams(Z=1.0, alpha=0.05, D=dim),
                               QuantumNumbers(n, l))
                    b = energy(PotentialParams(Z=1.0, alpha=0.05, D=dim - 2),
                               QuantumNumbers(n, l + 1))
                    assert a.exists == b.exists
                    if a.exists:
                        assert a.energy == b.energy
        # closed-form state count equals the oracle's oscillation count
        for alpha in (0.05, 0.1):
            p = PotentialParams(Z=1.0, alpha=alpha)
            assert sum(st.exists for st in spectrum(p, 0)) == count_bound_states(p, 0)
        # Jacobi recurrence vs terminating hypergeometric form, n <= 20
        rng = np.random.default_rng(813)
        for n in range(0, 21):
            for _ in range(10):
                a = rng.uniform(-0.9, 10.0)
                b = rng.uniform(-0.9, 10.0)
                s = rng.uniform(0.0, 1.0)
                k_fac = pochhammer(a + 1.0, n) / math.factorial(n)
                lhs = jacobi_poly(n, a, b)(2.0 - 2.0 * s)
                rhs = k_fac * hyp_terminating(n, a + b + n + 1.0, 1.0 + a, s)
                # conditioning scale of the alternating finite sum
                cond = 1.0
                term = 1.0
                for k in range(n):
                    term *= abs(
                        (k - n) * (a + b + n + 1.0 + k) / ((1.0 + a + k) * (k + 1)) * s
                    )
                    cond += term
                scale = max(abs(lhs), abs(rhs), abs(k_fac) * cond)
                assert abs(lhs - rhs) <= 1e-12 * scale
