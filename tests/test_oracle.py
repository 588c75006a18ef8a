import json
import math
import re
import warnings

import numpy as np
import pytest

from hulthen import (
    BracketError,
    ConvergenceError,
    PotentialParams,
    QuantumNumbers,
    ShootingConfig,
    count_bound_states,
    default_config,
    energy,
    level,
    oracle,
    solve_exact,
    spectrum,
)
from hulthen.cli import main
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
    # a nan tolerance made solve_exact return the bracket midpoint unchecked
    for tol in (math.nan, math.inf, -1.0):
        with pytest.raises(ValueError, match="^tolerance must be a finite positive real"):
            ShootingConfig(r_min=0.1, r_max=10.0, energy_bracket=(-1.0, -0.5), tolerance=tol)
    with pytest.raises(ValueError, match="r_max < inf"):
        ShootingConfig(r_min=0.1, r_max=math.inf, energy_bracket=(-1.0, -0.5))
    # a bracket within the tolerance was returned as its midpoint unchecked
    for tol in (0.5, 0.6):
        with pytest.raises(ValueError, match=f"^tolerance {tol} is not below the energy "
                                             f"bracket width 0.5$"):
            ShootingConfig(r_min=0.1, r_max=10.0, energy_bracket=(-1.0, -0.5), tolerance=tol)


def test_solver_input_checks():
    # l = -1 and l = 1.5 used to solve or count with the gamma of another (l, D)
    cfg = default_config(ANCHOR, QuantumNumbers(0, 0))
    with pytest.raises(ValueError, match="^l must be an integer >= 0, got -1$"):
        solve_exact(ANCHOR, -1, 0, cfg)
    for l in (-1, 1.5):
        with pytest.raises(ValueError, match=f"^l must be an integer >= 0, got {l}$"):
            count_bound_states(ANCHOR, l)
    # 0.7 and -0.5 both solved the ground state as int(target_nodes) = 0
    for k in (0.7, -0.5, -1):
        with pytest.raises(ValueError, match=f"^target_nodes must be an integer >= 0, got {k}$"):
            solve_exact(ANCHOR, 0, k, cfg)


def test_interior_nodes_mapping():
    def nodes(n, l, dim):
        return level(PotentialParams(Z=1.0, alpha=0.05, D=dim), QuantumNumbers(n, l)).nodes

    assert nodes(2, 0, 3) == 2
    assert nodes(2, 1, 3) == 2
    assert nodes(2, 0, 1) == 1  # boundary root in D=1
    assert nodes(1, 0, 2) == 1


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
    # one Cooley pass and the two certificate marches; its counts prove
    # both bracket ends, so neither is marched on its own
    assert res.shots == 3


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
def test_streamed_count_matches_whole_grid(monkeypatch, steps):
    monkeypatch.setattr(oracle, "_STEPS", steps)
    for dim, l, alpha in ((3, 0, 0.22), (5, 2, 0.05), (1, 1, 0.4)):
        params = PotentialParams(Z=1.0, alpha=alpha, D=dim)
        grid = _log_grid(params, l, 1e-6 / alpha, 100.0 / alpha, steps)
        probe = -1e-12 * alpha**2 / 2.0
        assert count_bound_states(params, l) == _march(grid, probe)


def _certified(params, l, k, cfg, res):
    # fresh marches at E -/+ residual bracket k, and so do marches at the
    # ends of the configured bracket: the solve skips those marches when its
    # counts prove the ends, so a level must never solve from a bracket that
    # does not straddle it
    grid = _log_grid(params, l, cfg.r_min, cfg.r_max, oracle._STEPS)
    below = _march(grid, res.energy - res.residual)
    above = _march(grid, res.energy + res.residual)
    e_lo, e_hi = cfg.energy_bracket
    return below <= k < above and _march(grid, e_lo) <= k < _march(grid, e_hi)


def test_residual_is_certified_bracket():
    p2 = PotentialParams(Z=1.0, alpha=0.05)
    for params, qn in ((ANCHOR, QuantumNumbers(0, 0)), (p2, QuantumNumbers(1, 2))):
        cfg = default_config(params, qn)
        k = level(params, qn).nodes
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


@pytest.mark.parametrize("dim,l,alpha,n", [
    (1, 0, 0.05, 2), (1, 1, 0.2, 0), (1, 2, 0.02, 4),
    (3, 0, 0.3, 1), (3, 1, 0.1, 1), (3, 2, 0.05, 2),
    (5, 0, 0.1, 0), (5, 1, 0.05, 1), (5, 2, 0.02, 3),
])
def test_levels_solve_only_from_straddling_brackets(dim, l, alpha, n):
    # (3, 2, 0.05, 2) falls back to bisection once and marches one end there
    params = PotentialParams(Z=1.0, alpha=alpha, D=dim)
    qn = QuantumNumbers(n, l)
    cfg = default_config(params, qn)
    k = level(params, qn).nodes
    res = solve_exact(params, l, k, cfg)
    assert res.node_count == k
    assert _certified(params, l, k, cfg, res)
    if (dim, l, alpha, n) == (5, 1, 0.05, 1):
        # five Cooley passes and the two certificate marches
        assert res.shots == 7


def test_certificate_counts_both_sides_afresh():
    # the Cooley count flips ~7.5e-13 below the march count here, so a
    # certificate that reused the last Cooley count for one side would
    # certify a level the marches put outside its window
    params = PotentialParams(Z=1.0, alpha=0.2)
    cfg = default_config(params, QuantumNumbers(0, 0), tolerance=1e-12)
    with pytest.raises(ConvergenceError, match="^node counts disagree"):
        solve_exact(params, 0, 0, cfg)


def test_convergence_errors(monkeypatch):
    # a tolerance below the float spacing of the energies fails at once
    cfg = default_config(ANCHOR, QuantumNumbers(0, 0), tolerance=1e-30)
    with pytest.raises(ConvergenceError):
        solve_exact(ANCHOR, 0, 0, cfg)
    # from the default bracket one corrector pass already certifies the
    # level; this wider one needs five, so a single pass cannot converge
    wide = ShootingConfig(r_min=cfg.r_min, r_max=cfg.r_max, energy_bracket=(-1.0, -0.3))
    with monkeypatch.context() as patch:
        patch.setattr(oracle, "_MAX_PASSES", 1)
        with pytest.raises(ConvergenceError, match="^no level to 1e-09 within 1 passes"):
            solve_exact(ANCHOR, 0, 0, wide)
    assert solve_exact(ANCHOR, 0, 0, wide).converged


@pytest.mark.parametrize("dim,l,n,alpha", [
    (3, 0, 0, 0.05), (3, 0, 3, 0.05), (3, 0, 20, 1e-3),
    (1, 0, 1, 0.05), (1, 0, 21, 1e-3),
    (1, 1, 2, 0.05), (1, 1, 20, 1e-3),
])
def test_exact_levels_without_centrifugal_term(dim, l, n, alpha):
    # gamma = 0 here, so the closed form is the exact level; the series
    # start leaves the oracle well inside 1e-9 of it even at n = 20
    params = PotentialParams(Z=1.0, alpha=alpha, D=dim)
    qn = QuantumNumbers(n, l)
    res = solve_exact(params, l, level(params, qn).nodes, default_config(params, qn))
    e_closed = energy(params, qn).energy
    assert abs(res.energy - e_closed) <= 1e-9 * abs(e_closed)


def test_d1_state():
    p1 = PotentialParams(Z=1.0, alpha=0.05, D=1)
    qn = QuantumNumbers(2, 0)
    st = energy(p1, qn)
    cfg = default_config(p1, qn)
    res = solve_exact(p1, 0, level(p1, qn).nodes, cfg)
    assert res.energy == pytest.approx(st.energy, rel=1e-6)


def test_eigenvalue_ordering():
    energies = []
    for k in range(0, 3):
        qn = QuantumNumbers(k, 0)
        cfg = default_config(ANCHOR, qn)
        energies.append(solve_exact(ANCHOR, 0, k, cfg).energy)
    assert energies[0] < energies[1] < energies[2]


def test_grid_refinement_contract(monkeypatch):
    qn = QuantumNumbers(0, 0)
    cfg = default_config(ANCHOR, qn, tolerance=1e-9)
    e_b = solve_exact(ANCHOR, 0, 0, cfg).energy
    monkeypatch.setattr(oracle, "_STEPS", 12000)
    e_a = solve_exact(ANCHOR, 0, 0, cfg).energy
    assert abs(e_a - e_b) < 4.0 * 1e-9


def test_bracket_error():
    # a bracket above the ground state (toward zero) cannot straddle it
    cfg = ShootingConfig(
        r_min=1e-6 / 0.05,
        r_max=400.0,
        energy_bracket=(-0.2, -0.15),
        tolerance=1e-9,
    )
    with pytest.raises(BracketError, match="^lower bracket E=-0.2 already lies above"):
        solve_exact(ANCHOR, 0, 0, cfg)


def test_upper_bracket_error():
    # the exact level lies below the closed form's bracket; the lazy march
    # of the upper end reports it as the eager one did
    params = PotentialParams(Z=1.0, alpha=0.3)
    qn = QuantumNumbers(0, 1)
    message = ("upper bracket E=-0.016000000000000004 lies below the target "
               "eigenvalue (nodes=0)")
    with pytest.raises(BracketError, match=f"^{re.escape(message)}$"):
        solve_exact(params, 1, 0, default_config(params, qn))


def test_count_matches_closed_form():
    for alpha in (0.05, 0.1):
        params = PotentialParams(Z=1.0, alpha=alpha)
        assert count_bound_states(params, 0) == sum(st.exists for st in spectrum(params, 0))


@pytest.mark.parametrize("alpha", [1e-154, 1e-160])
def test_overflowing_grid_raises(alpha):
    # Q = 2 mu r^2/hbar^2 overflows at r_max = 100/alpha: in D = 3 the count
    # read 17929 at alpha = 1e-154 (after RuntimeWarnings) and 0 at 1e-160,
    # where the closed form has at least 65 levels
    message = "^the grid coefficients are not finite at r = "
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for dim in (1, 3):
            with pytest.raises(oracle.OracleError, match=message):
                count_bound_states(PotentialParams(Z=1.0, alpha=alpha, D=dim), 0)
        # r_max = 20/alpha here; D = 1 keeps C_n of the level a float
        params = PotentialParams(Z=1.0, alpha=alpha, D=1)
        cfg = default_config(params, QuantumNumbers(1))
        with pytest.raises(oracle.OracleError, match=message):
            solve_exact(params, 0, 0, cfg)


@pytest.mark.parametrize("Z,alpha,radius", [
    # V overflows at the r_min end: the count read 0 after RuntimeWarnings
    (1e308, 1.0, "1.0000000000000004e-06"),
    # Q V overflows only inside the grid, both ends finite: it read 11866
    (1e305, 1e-5, "903.2989241519973"),
])
def test_grid_overflowing_off_r_max_raises(Z, alpha, radius):
    message = f"^the grid coefficients are not finite at r = {re.escape(radius)}$"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(oracle.OracleError, match=message):
            count_bound_states(PotentialParams(Z=Z, alpha=alpha), 0)


@pytest.mark.parametrize("Z,alpha", [(1.0, 1e-151), (1e200, 1.0)])
def test_saturated_count_raises(Z, alpha):
    # every pivot was negative and the count read 23998, the grid's cap;
    # the closed form has about 1e75 and 1e100 levels here
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(oracle.OracleError, match="^all 23998 pivots of the grid are negative"):
            count_bound_states(PotentialParams(Z=Z, alpha=alpha), 0)


def test_count_bound_states_shallow_third_level():
    # the third level (E = -5.6e-6) decays over ~300 length units, well
    # beyond 30/alpha
    params = PotentialParams(Z=1.0, alpha=0.22)
    assert count_bound_states(params, 0) == 3


def validate_rel_error(capsys, *argv) -> float:
    """The rel_error column of `hulthen validate ARGV`: |E_closed - E_oracle|
    / |E_oracle| of one level, solved from default_config."""
    assert main(["validate", "--format", "json", *argv]) == 0
    return json.loads(capsys.readouterr().out)["rel_error"]


def test_approximation_error_exact_case(capsys):
    # s-wave in D = 3: no centrifugal term, error at solver tolerance
    err = validate_rel_error(capsys, "--alpha", "0.05")
    assert err < 1e-7


def test_approximation_error_nonzero_gamma(capsys):
    # D = 5, l = 0 has gamma = 2: the closed form is genuinely approximate
    err = validate_rel_error(capsys, "--alpha", "0.1", "--dim", "5")
    assert err > 1e-5
