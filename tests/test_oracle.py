import json
import math
import re
import warnings

import numpy as np
import pytest

from hulthen import (
    BracketError,
    ConvergenceError,
    NodeCountError,
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
from hulthen.oracle import _cooley, _deviations, _log_grid, _march

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
    # one Cooley pass on each of the 964- and 1927-point grids and the two
    # certificate marches; on the final grid its counts prove both bracket
    # ends, so neither is marched on its own
    assert res.points == 1927
    assert res.shots == 4


def _plain_numerov_nodes(grid, energy_val):
    # reference: march y itself and count its sign changes, rescaling the
    # growing tail so it cannot overflow
    h, p_arr, q_arr, start = grid
    h12 = h * h / 12.0
    c = [1.0 - h12 * (p - energy_val * q) for p, q in zip(p_arr.tolist(), q_arr.tolist())]
    y_prev, y_cur = 1.0, 1.0 + start(energy_val)
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


def test_deviation_march_passes_an_exact_zero_pivot():
    # R = 0 (D = -1) makes the next R = -inf, a node, and the one after it
    # R = U, as the ratio march R = U - 1/R gives
    w1, w2 = 0.25, 0.125
    d = list(_deviations([w1, w2], -1.0))
    assert d[1] < -1.0
    assert d[2] == w2 + 1.0
    # the count loop of _march does the same: on this grid T_0 = T_1 = 0
    # and y_1 = 0 (R_0 = 0), and T_2 = -1/2 gives R_2 = U_2 = -2
    grid = (1.0, np.array([0.0, 0.0, -6.0, 0.0]), np.zeros(4), lambda energy_val: -1.0)
    assert _march(grid, -0.5) == 2


@pytest.mark.parametrize("dim,l,alpha", [
    (3, 0, 0.00207970698), (3, 0, 0.494912171), (5, 2, 0.0599727272),
    (5, 2, 0.0864050966), (1, 1, 0.00274128354), (2, 0, 0.00264762269),
    (2, 0, 0.980185366), (4, 1, 0.131331744), (3, 2, 0.157661960),
])
def test_count_near_threshold_matches_finest_grid(dim, l, alpha):
    # alpha is where the count of the 96001-point grid drops by one, to 10
    # digits; 1e-6 to either side the count of the grid ladder must read
    # the finest grid's count, and the two must differ
    counts = []
    for a in (alpha * (1 - 1e-6), alpha * (1 + 1e-6)):
        params = PotentialParams(Z=1.0, alpha=a, D=dim)
        grid = _log_grid(params, l, 1e-6 / a, 100.0 / a, 96001)
        counts.append(_march(grid, -1e-12 * a**2 / 2.0))
        assert count_bound_states(params, l) == counts[-1]
    assert counts[0] == counts[1] + 1


@pytest.mark.parametrize("dim,l,levels", [(3, 0, 1), (3, 0, 2), (3, 0, 3), (3, 0, 10),
                                          (3, 0, 30), (1, 1, 5)])
def test_count_sees_levels_within_its_stated_reach(dim, l, levels):
    # gamma = 0, where the closed form is exact: alpha puts the shallowest of
    # `levels` levels at kappa r_max = 100 eps = 1.5, past the 1.2 below
    # which count_bound_states may miss it (it drops at 1.03-1.09)
    m = levels  # n + l + (D-1)/2 of the shallowest level, n = levels - 1
    alpha = 2.0 / (m * m + 0.03 * m)  # delta = 2/alpha = m^2 + 2 m eps
    params = PotentialParams(Z=1.0, alpha=alpha, D=dim)
    shallowest = level(params, QuantumNumbers(levels - 1, l))
    assert 100.0 * shallowest.epsilon == pytest.approx(1.5, rel=1e-9)
    assert sum(st.exists for st in spectrum(params, l, n_max=levels + 5)) == levels
    assert count_bound_states(params, l) == levels


def _certified(params, l, k, cfg, res):
    # fresh marches on the final grid at E -/+ residual bracket k, and so do
    # marches at the ends of the configured bracket: the solve skips those
    # marches when its counts prove the ends, so a level must never solve
    # from a bracket that does not straddle it
    grid = _log_grid(params, l, cfg.r_min, cfg.r_max, res.points)
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
        # five Cooley passes on the 1137-point grid, two on the 2273-point
        # grid and the two certificate marches
        assert res.points == 2273
        assert res.shots == 9


def test_certificate_counts_both_sides_afresh(monkeypatch):
    # a Cooley count comes from two marches joined at a turning point, and
    # at a tolerance this tight it can disagree with a march near the level;
    # a certificate that reused it for one side could certify a level the
    # marches put outside its window, so both sides are fresh marches on
    # the final grid, after its last Cooley pass
    calls = []

    def spy(name, func):
        def wrapper(grid, energy_val):
            calls.append((name, grid[1].size, energy_val))
            return func(grid, energy_val)
        monkeypatch.setattr(oracle, name, wrapper)

    spy("_cooley", _cooley)
    spy("_march", _march)
    params = PotentialParams(Z=1.0, alpha=0.2)
    cfg = default_config(params, QuantumNumbers(0, 0), tolerance=1e-12)
    res = solve_exact(params, 0, 0, cfg)
    # gamma = 0: the closed form -0.405 is the exact level
    assert abs(res.energy + 0.405) <= cfg.tolerance
    last_pass = max(i for i, call in enumerate(calls) if call[0] == "_cooley")
    assert calls[last_pass][1] == res.points
    for side in (res.energy - res.residual, res.energy + res.residual):
        assert ("_march", res.points, side) in calls[last_pass + 1:]


def test_counts_at_the_float_resolution_raise():
    # at 6 float spacings of the bracket energy a count can contradict an
    # end an earlier count proved: the bracket closes on no level
    params = PotentialParams(Z=1.0, alpha=0.2)
    qn = QuantumNumbers(0, 0)
    tol = 6.0 * math.ulp(default_config(params, qn).energy_bracket[0])
    with pytest.raises(ConvergenceError, match="^node counts disagree at E=-0.405"):
        solve_exact(params, 0, 0, default_config(params, qn, tolerance=tol))


def test_level_outside_the_certified_window_raises():
    # at 6 float spacings the extrapolated level of this D = 2 ground state
    # misses the final grid's level, and both fresh counts see it below
    params = PotentialParams(Z=1.0, alpha=0.05, D=2)
    qn = QuantumNumbers(0, 0)
    tol = 6.0 * math.ulp(default_config(params, qn).energy_bracket[0])
    with pytest.raises(ConvergenceError, match=r"^the level of the 35297-point grid lies "
                                               r"outside E=.* \(node counts 1 and 1\)$"):
        solve_exact(params, 0, 0, default_config(params, qn, tolerance=tol))


def test_bracket_closed_by_counts_returns_its_midpoint():
    # on the first grid one count at -0.65 closes the bracket to (-0.65, -0.3),
    # within the tolerance 0.5, so that grid's level is the midpoint -0.475;
    # the second grid's is converged by one pass from there
    cfg = ShootingConfig(r_min=1e-3, r_max=400.0, energy_bracket=(-1.0, -0.3), tolerance=0.5)
    res = solve_exact(ANCHOR, 0, 0, cfg)
    assert res.error_estimate == pytest.approx(abs(res.energy + 0.475) / 16.0, rel=1e-9)
    assert (res.points, res.shots) == (9209, 4)
    # gamma = 0: the closed form -0.4753125 is the exact level
    assert abs(res.energy + 0.4753125) <= res.residual


def test_wrong_node_count_raises():
    # the window of width 0.02 around E = -0.0067 holds both the fourth and
    # the fifth level (-0.01125 and -0.0028): the count at its lower end
    # is 3, not the 4 of the target
    cfg = ShootingConfig(r_min=1e-3, r_max=400.0, energy_bracket=(-0.5, -1e-4), tolerance=0.02)
    with pytest.raises(NodeCountError, match="^certified level has 3 interior nodes, "
                                             "expected 4$"):
        solve_exact(ANCHOR, 0, 4, cfg)


def test_convergence_errors(monkeypatch):
    # a tolerance below the float spacing of the energies fails at once
    cfg = default_config(ANCHOR, QuantumNumbers(0, 0), tolerance=1e-30)
    with pytest.raises(ConvergenceError):
        solve_exact(ANCHOR, 0, 0, cfg)
    # from the default bracket one corrector pass per grid converges the
    # level; this wider one needs five on the first grid, so a single pass
    # cannot converge
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


def test_grid_refinement_contract():
    # the energy is the Richardson extrapolation of the levels of the final
    # grid and of every other point of it, and they differ by 15 times the
    # estimate; the grid of every fourth point differs from the middle one
    # about 16 times as much, as an O(h^4) error does
    params = PotentialParams(Z=1.0, alpha=0.002, D=3)
    qn = QuantumNumbers(20, 0)
    cfg = default_config(params, qn)
    res = solve_exact(params, 0, level(params, qn).nodes, cfg)
    assert res.points == 10585
    assert res.error_estimate <= res.residual
    levels = []
    for points in (10585, 5293, 2647):
        grid = _log_grid(params, 0, cfg.r_min, cfg.r_max, points)
        e_val = res.energy
        for _ in range(3):
            e_val += _cooley(grid, e_val)[1]
        levels.append(e_val)
    e_n, e_half, e_quarter = levels
    assert abs(e_n - e_half) / 15.0 == pytest.approx(res.error_estimate, rel=1e-3)
    assert abs(res.energy - e_n) == pytest.approx(res.error_estimate, rel=1e-3)
    assert 8.0 < (e_quarter - e_half) / (e_half - e_n) < 32.0


@pytest.mark.parametrize("dim,l,n,alpha", [
    (3, 0, 0, 0.05), (3, 0, 0, 0.2), (3, 0, 3, 0.05),
    (1, 0, 21, 1e-3), (1, 1, 20, 1e-3), (1, 1, 2, 0.05),
])
def test_exact_levels_within_error_estimate(dim, l, n, alpha):
    # gamma = 0, so the closed form is the exact level
    params = PotentialParams(Z=1.0, alpha=alpha, D=dim)
    qn = QuantumNumbers(n, l)
    cfg = default_config(params, qn)
    res = solve_exact(params, l, level(params, qn).nodes, cfg)
    assert res.error_estimate <= res.residual == 0.5 * cfg.tolerance
    assert abs(res.energy - level(params, qn).energy) <= min(cfg.tolerance, res.error_estimate)


@pytest.mark.parametrize("dim,l,n,alpha,Z,mu,hbar,points", [
    (2, 0, 1, 0.1, 1.0, 1.0, 1.0, 2429), (5, 1, 1, 0.05, 1.0, 1.0, 1.0, 2273),
    (3, 2, 5, 0.01, 1.0, 1.0, 1.0, 4793), (4, 1, 2, 0.03, 1.7, 0.6, 1.3, 2327),
])
def test_levels_with_centrifugal_term_within_error_estimate(dim, l, n, alpha, Z, mu, hbar,
                                                            points):
    # gamma != 0, so no closed form is the exact level: the reference is a
    # solve at a hundredth of the tolerance, which ends on a finer grid.  The
    # estimate of the first two grids, on which most levels end, and of the
    # second and third must hold
    params = PotentialParams(Z=Z, mu=mu, hbar=hbar, alpha=alpha, D=dim)
    qn = QuantumNumbers(n, l)
    k = level(params, qn).nodes
    cfg = default_config(params, qn)
    res = solve_exact(params, l, k, cfg)
    ref = solve_exact(params, l, k, default_config(params, qn, cfg.tolerance / 100.0))
    assert res.points == points < ref.points
    assert abs(res.energy - ref.energy) <= min(0.5 * cfg.tolerance,
                                               res.error_estimate + ref.residual)


@pytest.mark.parametrize("Z,mu,hbar,alpha,dim,l,n", [
    # s = 0: the other branch, y ~ ln r, does not die out outward
    (3.6079722523521016, 0.4100627265092216, 0.5087195582253824, 0.06844577643064836, 2, 0, 0),
    # a shallow level whose polynomial envelope reaches past 40/kappa
    (1.0, 1.0, 1.0, 1e-3, 1, 0, 21),
    (1.0, 1.0, 1.0, 0.01, 3, 2, 5),
    # a deep level: the grid ends at r = 5.66
    (4.274, 1.797, 0.33, 0.04291130432367441, 4, 0, 5),
])
def test_grid_ends_of_default_config_converge(Z, mu, hbar, alpha, dim, l, n):
    # the grid spans only the level: a start ten times nearer the origin or
    # an end twice as far out moves it by less than a tenth of the tolerance
    params = PotentialParams(Z=Z, mu=mu, hbar=hbar, alpha=alpha, D=dim)
    qn = QuantumNumbers(n, l)
    k = level(params, qn).nodes
    cfg = default_config(params, qn)
    res = solve_exact(params, l, k, cfg)
    for r_min, r_max in ((cfg.r_min / 10.0, cfg.r_max), (cfg.r_min, 2.0 * cfg.r_max)):
        wider = ShootingConfig(r_min=r_min, r_max=r_max, energy_bracket=cfg.energy_bracket,
                               tolerance=cfg.tolerance)
        assert abs(solve_exact(params, l, k, wider).energy - res.energy) < 0.1 * cfg.tolerance


def _old_ends(params, cfg):
    # the grid ends default_config gave before its grid spanned only the
    # level: r = 1e-6/alpha .. 20/alpha (40/kappa is shorter for every level
    # used here)
    return ShootingConfig(r_min=1e-6 / params.alpha, r_max=20.0 / params.alpha,
                          energy_bracket=cfg.energy_bracket, tolerance=cfg.tolerance)


@pytest.mark.parametrize("dim,n,alpha", [(3, 0, 1e-3), (3, 5, 1e-4), (1, 1, 1e-154),
                                         (1, 1, 1e-160)])
def test_levels_past_the_old_grid_ends_solve(dim, n, alpha):
    # gamma = 0, so the closed form is the exact level.  On the old ends T =
    # h^2 g/12 reached 5.02e3 and 1.39e4 on the 1501-point grid at the
    # first two (ConvergenceError), and Q = 2 mu r^2/hbar^2 overflowed
    # inside the grid at the last two (OracleError)
    params = PotentialParams(Z=1.0, alpha=alpha, D=dim)
    qn = QuantumNumbers(n, 0)
    lv = level(params, qn)
    cfg = default_config(params, qn)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = solve_exact(params, 0, lv.nodes, cfg)
    assert abs(res.energy - lv.energy) <= 0.5 * cfg.tolerance


def test_level_past_the_grid_cap_raises():
    # T = h^2 g/12 reaches 5.02e3 on the 1501-point grid of the old ends:
    # counts need ~150000 steps, past the 96000 of _MAX_STEPS.  A
    # 24000-point grid counted 2124 spurious nodes here
    params = PotentialParams(Z=1.0, alpha=0.001)
    cfg = _old_ends(params, default_config(params, QuantumNumbers(0, 0)))
    with pytest.raises(ConvergenceError, match=r"^T = h\^2 g/12 reaches 5.02e\+03 .* on the "
                                               r"1501-point grid: "):
        solve_exact(params, 0, 0, cfg)


@pytest.mark.parametrize("r_min,r_max,bracket,tolerance,t_max,points", [
    # the first grid passes T <= 1/2 on 49721 points; its doubling marched
    # 99441 points and returned the level from them
    (1e-240, 100.0, (-0.6, -0.4), 1e-9, "0.126", 49721),
    # T = 704 skipped the 1100-point grid to 70337 points, and the solve
    # then marched 140673
    (0.026, 5800.0, (-1.0, -0.3), 1e-9, "704", 1100),
    # g = P - E_lo Q overflows, and the skip to a finer grid takes the log
    # of T
    (1e-3, 1e10, (-1e300, -1e299), 1e290, "inf", 2672),
])
def test_no_grid_past_the_cap_is_marched(monkeypatch, r_min, r_max, bracket, tolerance, t_max,
                                         points):
    sizes = []

    def spy(params, l, r_lo, r_hi, n):
        sizes.append(n)
        return _log_grid(params, l, r_lo, r_hi, n)

    monkeypatch.setattr(oracle, "_log_grid", spy)
    cfg = ShootingConfig(r_min=r_min, r_max=r_max, energy_bracket=bracket, tolerance=tolerance)
    with pytest.raises(ConvergenceError, match=f"^T = h\\^2 g/12 reaches {t_max} at E=.* on "
                                               f"the {points}-point grid: "):
        solve_exact(ANCHOR, 0, 0, cfg)
    assert sizes == [points]


def test_estimate_above_tolerance_on_the_last_grid_raises():
    # the 25065-step grid from r_min = 1e-120 keeps the largest ln(r) step:
    # its doubling still reads an O(h^4) estimate of 3.91e-12, and a third
    # grid would have 100260 steps
    cfg = ShootingConfig(r_min=1e-120, r_max=100.0, energy_bracket=(-0.6, -0.4),
                         tolerance=1e-12)
    message = ("error estimate 3.91e-12 of the 50131-point grid is above half the tolerance "
               "1e-12, and a finer grid would pass 96000 steps")
    with pytest.raises(ConvergenceError, match=f"^{re.escape(message)}$"):
        solve_exact(ANCHOR, 0, 0, cfg)


def test_estimate_that_stops_shrinking_raises(monkeypatch):
    # each grid's level drifts by 1e-18 N^2, as roundoff of the march did
    # when it carried R rather than R - 1: the estimate grows on a doubling
    # where an O(h^4) error shrinks it 16-fold, and no energy is returned
    cooley = oracle._cooley

    def drifting(grid, energy_val):
        return cooley(grid, energy_val - 1e-18 * grid[1].size ** 2)

    monkeypatch.setattr(oracle, "_cooley", drifting)
    cfg = default_config(ANCHOR, QuantumNumbers(0, 0), tolerance=1e-12)
    with pytest.raises(ConvergenceError, match="^error estimate .* of the 7705-point grid "
                                               "shrank by less than 4 from "):
        solve_exact(ANCHOR, 0, 0, cfg)


def test_d2_s_wave_level_does_not_depend_on_r_min():
    # at D = 2, l = 0 the second branch y ~ ln r does not die out outward, so
    # the start at r_min must follow the regular one closely.  With a
    # first-order start this level (E = -41.13) moved by 4.6e-6 when r_min
    # shrank 100-fold, and its grids' energies differed by ~1e-7, which read
    # as a roundoff floor; a fixed 24000-point grid returned one unchecked
    params = PotentialParams(Z=3.6079722523521016, mu=0.4100627265092216,
                             hbar=0.5087195582253824, alpha=0.06844577643064836, D=2)
    qn = QuantumNumbers(0, 0)
    cfg = default_config(params, qn)
    k = level(params, qn).nodes
    res = solve_exact(params, 0, k, cfg)
    assert res.error_estimate <= res.residual
    assert _certified(params, 0, k, cfg, res)
    deeper = ShootingConfig(r_min=cfg.r_min / 100.0, r_max=cfg.r_max,
                            energy_bracket=cfg.energy_bracket, tolerance=cfg.tolerance)
    assert abs(solve_exact(params, 0, k, deeper).energy - res.energy) <= cfg.tolerance


def test_level_past_t_one_on_a_fixed_grid_solves():
    # T > 1 on a 24000-point grid gave spurious nodes and a false
    # BracketError.  On r = 1e-6/alpha .. 20/alpha the ladder started on the
    # 48001-point grid and ended on 96001 points; the grid of default_config
    # ends at r = 5.66, where T <= 1/2 from its 1152-point grid on
    params = PotentialParams(Z=4.274, mu=1.797, hbar=0.33, alpha=0.04291130432367441, D=4)
    qn = QuantumNumbers(5, 0)
    cfg = default_config(params, qn)
    k = level(params, qn).nodes
    res = solve_exact(params, 0, k, cfg)
    assert res.points == 9209
    assert res.node_count == k
    assert res.error_estimate <= res.residual
    assert _certified(params, 0, k, cfg, res)


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


def test_narrow_grid_keeps_eight_steps():
    # the coarsest grid is sized by its step in ln(r), and a span of 1e-3
    # in ln(r) would be one step, on which a march fails with an IndexError
    cfg = ShootingConfig(r_min=1.0, r_max=1.001, energy_bracket=(-100.0, -0.1))
    with pytest.raises(BracketError, match="^upper bracket E=-0.1 lies below the target"):
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
        # on the old ends, r_max = 20/alpha; D = 1 keeps C_n of the level a
        # float.  The grid of default_config solves this level
        # (test_levels_past_the_old_grid_ends_solve)
        params = PotentialParams(Z=1.0, alpha=alpha, D=1)
        cfg = _old_ends(params, default_config(params, QuantumNumbers(1)))
        with pytest.raises(oracle.OracleError, match=message):
            solve_exact(params, 0, 0, cfg)


@pytest.mark.parametrize("Z,alpha,radius", [
    # V overflows at the r_min end: the count read 0 after RuntimeWarnings
    (1e308, 1.0, "1.0000000000000004e-06"),
    # Q V overflows only inside the grid, both ends finite: it read 11866
    (1e305, 1e-5, "906.4280432116002"),
])
def test_grid_overflowing_off_r_max_raises(Z, alpha, radius):
    message = f"^the grid coefficients are not finite at r = {re.escape(radius)}$"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(oracle.OracleError, match=message):
            count_bound_states(PotentialParams(Z=Z, alpha=alpha), 0)


# T = h^2 g/12 at the probe on the 3001-point grid of each saturated count
SATURATED_T = {(1.0, 1e-151): "4.07e+145", (1e200, 1.0): "4.07e+194"}


@pytest.mark.parametrize("Z,alpha", SATURATED_T)
def test_saturated_count_raises(Z, alpha):
    # the closed form has about 1e75 and 1e100 levels here; every pivot of a
    # march was negative and the count read the grid's cap, and the series
    # of the start at r_min is not finite, which a march would count as 0.
    # No grid within the cap has T <= 1/2, so none is marched
    message = (f"^T = h\\^2 g/12 reaches {re.escape(SATURATED_T[Z, alpha])} at E=.* on the "
               f"3001-point grid: ")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(oracle.OracleError, match=message):
            count_bound_states(PotentialParams(Z=Z, alpha=alpha), 0)


@pytest.mark.parametrize("Z,count", [(5e5, 999), (1e6, 1414), (2e6, 1999)])
def test_large_z_count_is_exact(Z, count):
    # gamma = 0: level n exists iff (n+1)^2 < 2 Z mu/(alpha hbar^2).  The
    # 24000-point march read 1000 and 2003 levels at 5e5 and 2e6, and at 1e6
    # its first-order start divided by 1 + a r_min = 0
    assert count == sum(1 for n in range(2000) if (n + 1) ** 2 < 2.0 * Z)
    assert count_bound_states(PotentialParams(Z=Z, alpha=1.0), 0) == count


@pytest.mark.parametrize("Z", [5e6, 2e7])
def test_count_past_the_grid_cap_raises(Z):
    # 3162 and 6324 levels (the 24000-point march read 3208 and 6167): no
    # two grids of the ladder agree
    with pytest.raises(ConvergenceError, match="^the count of levels did not settle: "):
        count_bound_states(PotentialParams(Z=Z, alpha=1.0), 0)


@pytest.mark.parametrize("Z,mu,hbar,alpha,dim,l,count", [
    # T = h^2 g/12 at the probe is 1.07 on the 6001-point grid, whose count
    # includes spurious nodes: the 6001- and 12001-point grids agreed on
    # 1465.  The count starts on the 12001-point grid (T = 0.27) and reads
    # 1465, 1451 and 1451; the grids of 24001 to 384001 points all read 1451
    (56.17707726493452, 2.8008541506447204, 0.33156342158714763, 0.0013572084517060397, 5, 0,
     1451),
    # T <= 1/2 from 1501 points on, but the 1501- and 3001-point grids agree
    # on 90: the count starts on 3001 points and reads 90, 89 and 89, the
    # count of every grid from 6001 to 192001 points
    (4.909714765369235, 0.2749389318941642, 0.2365629962371551, 0.005883333232089026, 2, 1, 89),
])
def test_count_matches_the_finest_grids(Z, mu, hbar, alpha, dim, l, count):
    params = PotentialParams(Z=Z, mu=mu, hbar=hbar, alpha=alpha, D=dim)
    assert count_bound_states(params, l) == count


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
