import math

import numpy as np
import pytest

from hulthen import (
    BracketError,
    ConvergenceError,
    PotentialParams,
    QuantumNumbers,
    QuadratureError,
    ShootingConfig,
    adaptive_quad,
    approximation_error,
    bound_state_count,
    count_bound_states,
    default_config,
    energy,
    interior_nodes,
    solve_exact,
)
from hulthen.oracle import _BLOCK, _log_coeffs, _log_grid, _march

ANCHOR = PotentialParams(Z=1.0, alpha=0.05)


def test_config_validation():
    with pytest.raises(ValueError):
        ShootingConfig(r_min=1.0, r_max=0.5, energy_bracket=(-1.0, -0.5))
    with pytest.raises(ValueError):
        ShootingConfig(r_min=0.1, r_max=10.0, energy_bracket=(-0.5, -1.0))
    with pytest.raises(ValueError):
        ShootingConfig(r_min=0.1, r_max=10.0, energy_bracket=(-1.0, 0.5))
    with pytest.raises(ValueError):
        ShootingConfig(r_min=0.1, r_max=10.0, energy_bracket=(-1.0, -0.5), tolerance=0.0)


def test_interior_nodes_mapping():
    assert interior_nodes(QuantumNumbers(2, 0), 3) == 2
    assert interior_nodes(QuantumNumbers(2, 1), 3) == 2
    assert interior_nodes(QuantumNumbers(2, 0), 1) == 1  # boundary root in D=1
    assert interior_nodes(QuantumNumbers(1, 0), 2) == 1


def test_exact_s_wave_anchor():
    # gamma vanishes at l = 0, D = 3, so the closed form is exact and the
    # integrator must reproduce it
    qn = QuantumNumbers(0, 0)
    cfg = default_config(ANCHOR, qn)
    res = solve_exact(ANCHOR, 0, 0, cfg)
    assert res.converged
    assert res.node_count == 0
    assert res.residual <= cfg.tolerance
    assert res.energy == pytest.approx(-0.4753125, rel=1e-6)
    assert res.shots <= 10


def _plain_numerov_nodes(grid, energy_val):
    # reference: march y itself and count its sign changes, rescaling the
    # growing tail so it cannot overflow
    h, p_arr, q_arr, y1 = grid
    h12 = h * h / 12.0
    c = [1.0 - h12 * (p - energy_val * q) for p, q in zip(p_arr.tolist(), q_arr.tolist())]
    y_prev, y_cur = 1.0, y1
    nodes = 0
    for i in range(1, len(c) - 1):
        y_next = ((12.0 - 10.0 * c[i]) * y_cur - c[i - 1] * y_prev) / c[i + 1]
        if abs(y_next) > 1e250:
            y_next *= 1e-250
            y_cur *= 1e-250
        if y_next * y_cur < 0.0:
            nodes += 1
        y_prev, y_cur = y_cur, y_next
    return nodes


@pytest.mark.parametrize("dim,l,alpha", [(3, 0, 0.05), (3, 2, 0.11), (2, 0, 0.2), (1, 1, 0.05)])
def test_ratio_march_matches_plain_numerov(dim, l, alpha):
    params = PotentialParams(Z=1.0, alpha=alpha, D=dim)
    grid = _log_grid(params, l, 1e-6 / alpha, 40.0 / alpha, 6000)
    for energy_val in (-0.6, -0.1, -0.03, -0.01, -1e-3, -1e-6):
        assert _march(grid, energy_val) == _plain_numerov_nodes(grid, energy_val)


def test_grid_blocks_match_whole_grid():
    # count_bound_states builds its grid block by block as it marches
    params = PotentialParams(Z=1.0, alpha=0.05, D=4)
    n = 2 * _BLOCK + 1000
    _, coeffs, _ = _log_coeffs(params, 2, 2e-5, 2000.0, n)
    _, p_arr, q_arr, _ = _log_grid(params, 2, 2e-5, 2000.0, n)
    blocks = [coeffs(lo, min(lo + _BLOCK, n)) for lo in range(0, n, _BLOCK)]
    assert np.array_equal(np.concatenate([b[0] for b in blocks]), p_arr)
    assert np.array_equal(np.concatenate([b[1] for b in blocks]), q_arr)


@pytest.mark.parametrize("steps", [3000, 24000])
def test_streamed_count_matches_whole_grid(steps):
    for dim, l, alpha in ((3, 0, 0.22), (5, 2, 0.05), (1, 1, 0.4)):
        params = PotentialParams(Z=1.0, alpha=alpha, D=dim)
        grid = _log_grid(params, l, 1e-6 / alpha, 100.0 / alpha, steps)
        probe = -1e-12 * alpha**2 / 2.0
        assert count_bound_states(params, l, steps) == _march(grid, probe)


def _certified(params, l, k, cfg, res):
    grid = _log_grid(params, l, cfg.r_min, cfg.r_max, cfg.step_count)
    below = _march(grid, res.energy - res.residual)
    above = _march(grid, res.energy + res.residual)
    return below <= k < above


def test_residual_is_certified_bracket():
    p2 = PotentialParams(Z=1.0, alpha=0.05)
    for params, qn in ((ANCHOR, QuantumNumbers(0, 0)), (p2, QuantumNumbers(1, 2))):
        cfg = default_config(params, qn)
        k = interior_nodes(qn, params.D)
        res = solve_exact(params, qn.l, k, cfg)
        assert 0.0 < res.residual <= cfg.tolerance
        assert _certified(params, qn.l, k, cfg, res)


def test_level_near_bracket_edge():
    # the level sits 0.7% below the bracket's upper end, so corrector steps
    # from the bracket midpoint overshoot it and must fall back to bisection
    params = PotentialParams(Z=1.0, alpha=0.11)
    qn = QuantumNumbers(0, 2)
    cfg = default_config(params, qn)
    res = solve_exact(params, 2, 0, cfg)
    assert res.energy == pytest.approx(-0.011413042361, abs=cfg.tolerance)
    assert _certified(params, 2, 0, cfg, res)


def test_convergence_errors():
    # a tolerance below the float spacing of the energies fails at once
    cfg = default_config(ANCHOR, QuantumNumbers(0, 0), tolerance=1e-30)
    with pytest.raises(ConvergenceError):
        solve_exact(ANCHOR, 0, 0, cfg)
    cfg = ShootingConfig(
        r_min=cfg.r_min, r_max=cfg.r_max, energy_bracket=cfg.energy_bracket, max_iter=1
    )
    with pytest.raises(ConvergenceError):
        solve_exact(ANCHOR, 0, 0, cfg)


def test_d1_state():
    p1 = PotentialParams(Z=1.0, alpha=0.05, D=1)
    qn = QuantumNumbers(2, 0)
    st = energy(p1, qn)
    cfg = default_config(p1, qn)
    res = solve_exact(p1, 0, interior_nodes(qn, 1), cfg)
    assert res.energy == pytest.approx(st.energy, rel=1e-6)


def test_eigenvalue_ordering():
    energies = []
    for k in range(0, 3):
        qn = QuantumNumbers(k, 0)
        cfg = default_config(ANCHOR, qn)
        energies.append(solve_exact(ANCHOR, 0, k, cfg).energy)
    assert energies[0] < energies[1] < energies[2]


def test_grid_refinement_contract():
    qn = QuantumNumbers(0, 0)
    cfg_a = default_config(ANCHOR, qn, step_count=12000, tolerance=1e-9)
    cfg_b = default_config(ANCHOR, qn, step_count=24000, tolerance=1e-9)
    e_a = solve_exact(ANCHOR, 0, 0, cfg_a).energy
    e_b = solve_exact(ANCHOR, 0, 0, cfg_b).energy
    assert abs(e_a - e_b) < 4.0 * 1e-9


def test_bracket_error():
    # a bracket above the ground state (toward zero) cannot straddle it
    cfg = ShootingConfig(
        r_min=1e-6 / 0.05,
        r_max=400.0,
        energy_bracket=(-0.2, -0.15),
        tolerance=1e-9,
    )
    with pytest.raises(BracketError):
        solve_exact(ANCHOR, 0, 0, cfg)


def test_count_matches_closed_form():
    for alpha in (0.05, 0.1):
        params = PotentialParams(Z=1.0, alpha=alpha)
        assert count_bound_states(params, 0) == bound_state_count(params, 0)


def test_count_bound_states_shallow_third_level():
    # the third level (E = -5.6e-6) decays over ~300 length units, well
    # beyond 30/alpha
    params = PotentialParams(Z=1.0, alpha=0.22)
    assert count_bound_states(params, 0) == 3


def test_approximation_error_exact_case():
    # s-wave in D = 3: no centrifugal term, error at solver tolerance
    err = approximation_error(ANCHOR, QuantumNumbers(0, 0))
    assert err < 1e-7


def test_approximation_error_nonzero_gamma():
    # D = 5, l = 0 has gamma = 2: the closed form is genuinely approximate
    p5 = PotentialParams(Z=1.0, alpha=0.1, D=5)
    err = approximation_error(p5, QuantumNumbers(0, 0))
    assert err > 1e-5


def test_adaptive_quad_examples():
    assert adaptive_quad(lambda x: 1.0, 0.0, 1.0) == pytest.approx(1.0, abs=1e-13)
    val = adaptive_quad(lambda x: x**-0.5 if x > 0 else 0.0, 0.0, 1.0, abs_tol=1e-10)
    assert val == pytest.approx(2.0, abs=1e-9)
    val = adaptive_quad(lambda x: math.exp(-x), 0.0, 40.0, abs_tol=1e-12)
    assert val == pytest.approx(1.0, abs=1e-12)


def test_adaptive_quad_errors():
    with pytest.raises(ValueError):
        adaptive_quad(lambda x: 1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        adaptive_quad(lambda x: 1.0, 0.0, 1.0, abs_tol=0.0)
    with pytest.raises(QuadratureError):
        # non-finite integrand sample (the first panel center is 0.5)
        adaptive_quad(lambda x: math.inf if x == 0.5 else 1.0, 0.0, 1.0)
    with pytest.raises(QuadratureError):
        adaptive_quad(
            lambda x: x**-0.999 if x > 0 else 0.0, 0.0, 1.0, abs_tol=1e-10, max_intervals=20
        )
