import itertools
import json
import math
import re
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hulthen import (
    BracketError,
    ConvergenceError,
    NoBoundState,
    OracleError,
    PotentialParams,
    QuantumNumbers,
    ShootingConfig,
    count_bound_states,
    default_config,
    energy,
    level,
    model,
    oracle,
    solve_exact,
    spectrum,
)
from hulthen.cli import main
from hulthen.oracle import _cooley, _deviations, _grid_ends, _log_grid, _march, _offsets
from special_reference import feynman_hellmann_exact

ANCHOR = PotentialParams(Z=1.0, alpha=0.05)


def test_config_validation():
    with pytest.raises(ValueError):
        ShootingConfig(energy_bracket=(-0.5, -1.0), tolerance=1e-9)
    with pytest.raises(ValueError):
        ShootingConfig(energy_bracket=(-1.0, 0.5), tolerance=1e-9)
    with pytest.raises(ValueError):
        ShootingConfig(energy_bracket=(-1.0, -0.5), tolerance=0.0)
    # a nan tolerance made solve_exact return the bracket midpoint unchecked
    for tol in (math.nan, math.inf, -1.0):
        with pytest.raises(ValueError, match="^tolerance must be a finite positive real"):
            ShootingConfig(energy_bracket=(-1.0, -0.5), tolerance=tol)
    # a bracket within the tolerance was returned as its midpoint unchecked
    for tol in (0.5, 0.6):
        with pytest.raises(ValueError, match=f"^tolerance {tol} is not below the energy "
                                             f"bracket width 0.5$"):
            ShootingConfig(energy_bracket=(-1.0, -0.5), tolerance=tol)


def _ends(monkeypatch, r_min, r_max):
    # solve on the grid r_min .. r_max, not on the ends of _grid_ends
    monkeypatch.setattr(oracle, "_grid_ends", lambda params, e_hi: (r_min, r_max))


def test_bracket_ending_at_zero_raises():
    # the grid ends 40 decay lengths past the turning point at E_hi, and at
    # E_hi = 0 a level has no decay length
    with pytest.raises(ValueError, match=r"^energy bracket must satisfy E_lo < E_hi < 0$"):
        ShootingConfig(energy_bracket=(-1.0, 0.0), tolerance=1e-9)


@pytest.mark.parametrize("bracket,tolerance,r_max", [
    # r_max = 8.9e-4 from E_hi = -1e9 falls short of r_min = 0.1: a grid
    # between them would have a negative step
    ((-2e9, -1e9), 10.0, "0.0008944"),
    # Z alpha/|E_hi| overflows, and a grid to r_max = inf has no step count
    ((-1.0, -1e-320), 1e-9, "inf"),
])
def test_bracket_that_gives_no_grid_builds_none(monkeypatch, bracket, tolerance, r_max):
    sizes = []

    def spy(params, l, r_lo, r_hi, n, *coarse):
        sizes.append(n)
        return _log_grid(params, l, r_lo, r_hi, n, *coarse)

    monkeypatch.setattr(oracle, "_log_grid", spy)
    cfg = ShootingConfig(energy_bracket=bracket, tolerance=tolerance)
    with pytest.raises(BracketError, match=f"^upper bracket E={bracket[1]!r} gives no grid: it "
                                           f"would run from r_min = 0.1 to r_max = {r_max}"):
        solve_exact(ANCHOR, 0, 0, cfg)
    assert sizes == []


def test_bracket_whose_decay_rate_rounds_to_zero_raises(monkeypatch):
    # -2 mu E_hi = 1e-324 rounds to 0, so kappa_hi = 0 and 40/kappa_hi raised
    # a bare ZeroDivisionError; at mu = 1 the same bracket overflows r_max
    monkeypatch.setattr(oracle, "_log_grid", None)  # a grid built would raise TypeError
    cfg = ShootingConfig(energy_bracket=(-1.0, -5e-324), tolerance=1e-9)
    with pytest.raises(BracketError, match=r"^upper bracket E=-5e-324 gives no grid: it would "
                                           r"run from r_min = 1\.0 to r_max = inf$"):
        solve_exact(PotentialParams(Z=1.0, alpha=0.05, mu=0.1), 0, 0, cfg)


def test_bracket_ending_near_zero_raises_before_a_march(monkeypatch):
    # E_hi = -1e-300 puts r_max at 40/kappa_hi = 2.8e151, where T at E_lo = -1
    # passes 1/2 on every grid within the cap
    def no_march(grid, energy_val):
        raise AssertionError("a grid was marched")

    monkeypatch.setattr(oracle, "_march", no_march)
    monkeypatch.setattr(oracle, "_cooley", no_march)
    cfg = ShootingConfig(energy_bracket=(-1.0, -1e-300), tolerance=1e-9)
    with pytest.raises(ConvergenceError, match=r"^T = h\^2 g/12 reaches .* on the 31323-point "
                                               r"grid: "):
        solve_exact(ANCHOR, 0, 0, cfg)


def test_solver_input_checks():
    # l = -1 and l = 1.5 used to solve or count with the gamma of another (l, D)
    cfg = default_config(ANCHOR, QuantumNumbers(0, 0))
    with pytest.raises(ValueError, match="^l must be an integer >= 0, got -1$"):
        solve_exact(ANCHOR, -1, 0, cfg)
    # inf raised a bare OverflowError from int(), nan int()'s own message
    for l in (-1, 1.5, math.inf, math.nan):
        with pytest.raises(ValueError, match=f"^l must be an integer >= 0, got {l}$"):
            count_bound_states(ANCHOR, l)
    # 0.7 and -0.5 both solved the ground state as int(target_nodes) = 0
    for k in (0.7, -0.5, -1, math.inf, math.nan):
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
    # one Cooley pass on each of the 553- and 1105-point grids and the two
    # certificate marches; on the final grid its counts prove both bracket
    # ends, so neither is marched on its own
    assert res.points == 1105
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


def _drained_count(w, d0):
    # the Sturm count from every pivot of _deviations, D_0 left out
    return sum(d < -1.0 for d in itertools.islice(_deviations(w[1:-1], d0), 1, None))


# the potentials and levels of tools/oracle_sweep.py
sweep_params = st.builds(
    lambda z, mu, hbar, alpha, dim: PotentialParams(Z=10.0**z, mu=10.0**mu, hbar=10.0**hbar,
                                                    alpha=10.0**alpha, D=dim),
    st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(-0.7, 0.5), st.floats(-3.0, 0.0),
    st.integers(1, 5))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(sweep_params, st.integers(0, 3), st.integers(0, 6))
@example(PotentialParams(Z=1.0, alpha=0.05, D=2), 0, 2)  # gamma < 0
@example(PotentialParams(Z=2.7, mu=0.4, hbar=0.6, alpha=0.004, D=2), 0, 6)
def test_march_count_matches_the_full_drain(params, l, n):
    # the count of a march that stops in the tail is that of every pivot:
    # at the census probe on the grids of count_bound_states, at a solve's
    # certificate energies and ends, and at E_level (1 -/+ 1e-12) on its
    # final grid, where D stays below 0 deep into the tail
    marches = []

    def spy(grid, energy_val):
        nodes = _march(grid, energy_val)
        marches.append((grid, energy_val, nodes))
        return nodes

    with mock.patch.object(oracle, "_march", spy):
        try:
            count_bound_states(params, l)
        except OracleError:
            pass
        try:
            qn = QuantumNumbers(n, l)
            cfg = default_config(params, qn)
            res = solve_exact(params, l, level(params, qn).nodes, cfg)
        except (NoBoundState, OracleError):
            res = None
    if res is not None:
        grid = _log_grid(params, l, *_grid_ends(params, cfg.energy_bracket[1]), res.points)
        for energy_val in (res.energy * (1.0 - 1e-12), res.energy * (1.0 + 1e-12)):
            marches.append((grid, energy_val, _march(grid, energy_val)))
    for grid, energy_val, nodes in marches:
        assert nodes == _drained_count(*_offsets(grid, energy_val)[1:]), (grid[1].size, energy_val)


class _CountedView:
    """A W memoryview that adds up the points sliced out of it: the points
    a march reads."""

    def __init__(self, view, reads):
        self.view, self.reads = view, reads

    def __len__(self):
        return len(self.view)

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.view)

    def __getitem__(self, key):
        part = self.view[key]
        self.reads[0] += len(part)
        return part


def _hand_march(monkeypatch, w, d0):
    # _march on the given W_0 .. W_{n-1} and D_0: (count, points read)
    reads = [0]
    view = memoryview(np.array(w, dtype=float))
    monkeypatch.setattr(oracle, "_offsets",
                        lambda grid, energy_val: (None, _CountedView(view, reads), d0))
    nodes = _march(None, -1.0)
    assert nodes == _drained_count(view, d0)
    return nodes, reads[0]


def test_march_without_w_at_or_below_zero(monkeypatch):
    n = 10 * oracle._CHUNK
    # D_0 >= 0 is final at once
    assert _hand_march(monkeypatch, [0.5] * n, 0.0) == (0, 0)
    # D_0 = -3/4 and W_1 = 1/2 give D_1 = -5/2, a node, and D_2 > 0
    assert _hand_march(monkeypatch, [0.5] * n, -0.75) == (1, oracle._CHUNK)


def test_march_whose_last_w_at_or_below_zero_ends_the_grid(monkeypatch):
    # W_{n-2} <= 0: every interior point is marched, with no tail to stop in
    n = 3 * oracle._CHUNK
    w = [0.5] * n
    w[n - 2] = -6.0
    w[1] = -2.0
    assert _hand_march(monkeypatch, w, 0.0) == (2, n - 2)
    w[n - 2] = math.nan
    assert _hand_march(monkeypatch, w, 0.0) == (1, n - 2)


@pytest.mark.parametrize("turn,reads", [(0, 1), (1, 2)])
def test_march_stops_at_the_first_chunk_end_past_d_at_or_above_zero(monkeypatch, turn, reads):
    # D_0 = 0, W_1 = -2 (a node) and W_2 = -5/2 leave D_2 = -1/2, which
    # W = 1/2 keeps; W = 1 at point 2 + _CHUNK + turn lifts D to 0, on the
    # end of the first tail chunk or one point past it
    chunk = oracle._CHUNK
    w = [0.5] * (10 * chunk)
    w[1], w[2] = -2.0, -2.5
    w[2 + chunk + turn] = 1.0
    assert _hand_march(monkeypatch, w, 0.0) == (1, 2 + reads * chunk)


def test_march_passes_an_exact_zero_pivot_in_the_tail(monkeypatch):
    # D_0 = -3/4 and W_1 = 2 give D_1 = -1 (R = 0); the next pivot takes
    # _D_AFTER_ZERO, a node, and the one after it D = W + 1 >= 0
    w = [0.5] * (4 * oracle._CHUNK)
    w[1] = 2.0
    assert _hand_march(monkeypatch, w, -0.75) == (1, oracle._CHUNK)


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
    grid = _log_grid(params, l, *_grid_ends(params, cfg.energy_bracket[1]), res.points)
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
        # five Cooley passes on the 726-point grid, two on the 1451-point
        # grid and the two certificate marches
        assert res.points == 1451
        assert res.shots == 9


def test_certificate_counts_both_sides_afresh(monkeypatch):
    # a Cooley count comes from two marches joined at a turning point, and
    # at a tolerance this tight it can disagree with a march near the level;
    # a certificate that reused it for one side could certify a level the
    # marches put outside its window, so both sides are fresh marches on
    # the final grid, after its last Cooley pass
    # (a chord pass counts as a full pass does, so this holds for both)
    calls = []

    def spy(name, func):
        def wrapper(grid, energy_val, *basis):
            out = func(grid, energy_val, *basis)
            # a chord pass returns the basis it was offered
            kind = "chord" if basis and out[2] is basis[0] else name
            calls.append((kind, grid[1].size, energy_val))
            return out
        monkeypatch.setattr(oracle, name, wrapper)

    spy("_cooley", _cooley)
    spy("_march", _march)
    params = PotentialParams(Z=1.0, alpha=0.2)
    cfg = default_config(params, QuantumNumbers(0, 0), tolerance=1e-12)
    res = solve_exact(params, 0, 0, cfg)
    # gamma = 0: the closed form -0.405 is the exact level
    assert abs(res.energy + 0.405) <= cfg.tolerance
    last_pass = max(i for i, call in enumerate(calls) if call[0] in ("_cooley", "chord"))
    assert calls[last_pass][:2] == ("chord", res.points)
    for side in (res.energy - res.residual, res.energy + res.residual):
        assert ("_march", res.points, side) in calls[last_pass + 1:]


@pytest.mark.parametrize("params,spacings,floor", [
    (PotentialParams(Z=1.0, alpha=0.2), 6, "7.105427357601002e-15"),
    (PotentialParams(Z=1.0, alpha=0.05, D=2), 8, "5.684341886080802e-14"),
    # a level 6.3e-6 Z alpha below 0, whose floor is that of Z alpha = 1.99
    (PotentialParams(Z=1.0, alpha=1.99), 128, "2.842170943040401e-14"),
], ids=["D3-6-spacings", "D2-8-spacings", "shallow"])
def test_tolerance_below_the_floor_raises_before_a_march(monkeypatch, params, spacings, floor):
    # at 6 float spacings of the bracket energy the counts of a grid once
    # contradicted each other, and at 8 a D = 2 ground state missed its
    # window: both lie below the floor of 128 spacings of the larger of
    # -E_lo and Z alpha, as do 128 spacings of E_lo alone at a shallow level
    qn = QuantumNumbers(0, 0)
    tol = spacings * math.ulp(default_config(params, qn).energy_bracket[0])
    cfg = default_config(params, qn, tolerance=tol)
    monkeypatch.setattr(oracle, "_ladder", None)  # a grid built would raise TypeError
    with pytest.raises(ConvergenceError, match=f"^tolerance {tol!r} is below {floor}, 128 float "
                                               f"spacings of the larger of -E_lo and Z alpha$"):
        solve_exact(params, 0, 0, cfg)


def _one_level(monkeypatch, count, k=0):
    """Cooley passes that land on E = -0.5 in one step, counting k nodes
    below it or at it and k + 1 above it, and Sturm marches that count
    count(E)."""
    monkeypatch.setattr(oracle, "_cooley",
                        lambda grid, energy_val, basis: (k + (energy_val > -0.5),
                                                         -0.5 - energy_val, basis))
    monkeypatch.setattr(oracle, "_march", lambda grid, energy_val: count(energy_val))
    return ShootingConfig(energy_bracket=(-1.0, -0.3), tolerance=1e-6)


def test_counts_at_the_float_resolution_raise(monkeypatch):
    # the Cooley count at -0.5 proved the lower end there, and the
    # certificate's count half a tolerance below reads the level above it,
    # as counts at the float resolution of the march can: the bracket
    # closes on no level
    cfg = _one_level(monkeypatch, lambda energy_val: int(energy_val > -0.5 - 1e-6))
    with pytest.raises(ConvergenceError, match=r"^node counts disagree at E=-0\.5000005: "):
        solve_exact(ANCHOR, 0, 0, cfg)


@pytest.mark.parametrize("k", [0, 1])
def test_window_that_holds_not_exactly_the_target_level_raises(monkeypatch, k):
    # counts of 0 and 2 at the ends of the window: it holds the levels with
    # 0 and 1 nodes and certifies neither, though for k = 0 its lower count
    # is the target
    cfg = _one_level(monkeypatch, lambda energy_val: 2 if energy_val > -0.5 else 0, k)
    with pytest.raises(ConvergenceError, match=rf"^the node counts 0 and 2 of the \d+-point "
                                               rf"grid at E=-0\.5 -/\+ 5e-07 do not certify "
                                               rf"the level with {k} nodes$"):
        solve_exact(ANCHOR, 0, k, cfg)


def test_bracket_closed_by_counts_still_ends_on_a_cooley_level(monkeypatch):
    # on the first grid one count at -0.65 closes the bracket to (-0.65, -0.3),
    # within the tolerance 0.5; that grid's level is still converged by
    # Cooley passes, so the estimate is that of two grid levels
    _ends(monkeypatch, 1e-3, 400.0)
    cfg = ShootingConfig(energy_bracket=(-1.0, -0.3), tolerance=0.5)
    res = solve_exact(ANCHOR, 0, 0, cfg)
    assert res.energy == pytest.approx(-0.47539, abs=1e-5)
    assert res.error_estimate == pytest.approx(8.07e-5, rel=1e-3)
    assert (res.points, res.shots) == (9209, 5)
    # gamma = 0: the closed form -0.4753125 is the exact level, 7.8e-5 off
    assert abs(res.energy + 0.4753125) <= res.error_estimate <= res.residual


def test_wrong_node_count_raises(monkeypatch):
    # the window of width 0.02 around E = -0.00017, the level with 5 nodes
    # on this grid, also holds the one with 4 (-0.0028): the count at its
    # lower end is the target 4, but the upper end, above 0, counts 21 grid
    # levels, so the window certifies no single level
    _ends(monkeypatch, 1e-3, 400.0)
    cfg = ShootingConfig(energy_bracket=(-0.5, -1e-4), tolerance=0.02)
    with pytest.raises(ConvergenceError, match=r"^the node counts 4 and 21 of the 4605-point "
                                               r"grid at E=-0\.000173.* do not certify the "
                                               r"level with 4 nodes$"):
        solve_exact(ANCHOR, 0, 4, cfg)


def test_convergence_errors(monkeypatch):
    # a tolerance below the float spacing of the energies fails at once
    cfg = default_config(ANCHOR, QuantumNumbers(0, 0), tolerance=1e-30)
    with pytest.raises(ConvergenceError):
        solve_exact(ANCHOR, 0, 0, cfg)
    # from the default bracket one corrector pass per grid converges the
    # level; this wider one needs five on the first grid, so a single pass
    # cannot converge
    wide = ShootingConfig(energy_bracket=(-1.0, -0.3), tolerance=1e-9)
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
    assert res.points == 7297
    assert res.error_estimate <= res.residual
    levels = []
    for points in (7297, 3649, 1825):
        grid = _log_grid(params, 0, *_grid_ends(params, cfg.energy_bracket[1]), points)
        # a full pass, then chord passes on its basis, as in a solve
        e_val, basis = res.energy, oracle._NO_BASIS
        for _ in range(3):
            _, step, basis = _cooley(grid, e_val, basis)
            e_val += step
        levels.append(e_val)
    e_n, e_half, e_quarter = levels
    assert abs(e_n - e_half) / 15.0 == pytest.approx(res.error_estimate, rel=1e-3, abs=0.0)
    assert abs(res.energy - e_n) == pytest.approx(res.error_estimate, rel=1e-3, abs=0.0)
    assert 8.0 < (e_quarter - e_half) / (e_half - e_n) < 32.0


@pytest.mark.parametrize("dim,l,n,alpha", [
    (3, 0, 0, 0.05), (3, 0, 20, 0.002), (5, 2, 3, 0.01), (2, 0, 1, 0.1),
])
def test_chord_pass_steps_as_a_full_pass(dim, l, n, alpha):
    # at a level, a chord pass on the basis of a full pass 1e-8 |E| away
    # counts as the full pass there does and steps within 1e-6 of it.  On
    # the final grid the coarse grid's basis, carried over as (2m, 2 norm),
    # is a chord pass at 2m too, and steps within 1e-4 of the full pass,
    # where the full pass's m is 2m and where it is not (n = 20: 6541
    # against 6540; 4.6e-7)
    params = PotentialParams(Z=1.0, alpha=alpha, D=dim)
    qn = QuantumNumbers(n, l)
    cfg = default_config(params, qn)
    res = solve_exact(params, l, level(params, qn).nodes, cfg)
    ends = _grid_ends(params, cfg.energy_bracket[1])
    grid = _log_grid(params, l, *ends, res.points)
    nodes, step, basis = _cooley(grid, res.energy)
    near = _cooley(grid, res.energy * (1.0 + 1e-8))[2]
    chord = _cooley(grid, res.energy, near)
    assert chord[0] == nodes and chord[2] is near
    assert chord[1] == pytest.approx(step, rel=1e-6, abs=0.0)
    m, norm, e_full = _cooley(_log_grid(params, l, *ends, res.points // 2 + 1), res.energy)[2]
    carried = (2 * m, 2.0 * norm, e_full)
    chord = _cooley(grid, res.energy, carried)
    assert (basis[0] == 2 * m) == (n != 20)
    assert chord[0] == nodes and chord[2] is carried
    assert chord[1] == pytest.approx(step, rel=1e-4, abs=0.0)


def _level_grid(dim, l, n, alpha):
    """The final grid of the level and its energy."""
    params = PotentialParams(Z=1.0, alpha=alpha, D=dim)
    qn = QuantumNumbers(n, l)
    cfg = default_config(params, qn)
    res = solve_exact(params, l, level(params, qn).nodes, cfg)
    return _log_grid(params, l, *_grid_ends(params, cfg.energy_bracket[1]), res.points), res.energy


@pytest.mark.parametrize("shift", [1, 2, 5, -1, -2, -5, "node"])
def test_chord_pass_matches_at_the_basis_point(shift):
    # offered a basis at m_b, a chord pass matches there: with norm_b, the
    # norm of the full pass's solution scaled to F_{m_b} = 1, it counts as
    # the full pass does (a twisted Sturm count is exact at any index) and
    # steps by gamma_{m_b} / ((1 - T_{m_b}) h^2 norm_b), near the full
    # pass's step at m.  F_m/F_{m_b} is the product of the outward pivots
    # R_{m_b} .. R_{m-1} (m_b < m) or the inward S_{m_b} .. S_{m+1} (m_b >
    # m), taken here from the arrays of _deviations.  "node": m_b just
    # below the last node.  1e-6 |E| off the level the step is no rounding
    # residue
    grid, e_val = _level_grid(3, 0, 3, 0.05)
    e_val *= 1.0 + 1e-6
    nodes, step, (m, norm, _) = _cooley(grid, e_val)
    t, w, d0 = _offsets(grid, e_val)
    n = len(w)
    d_out = list(_deviations(w[1:m], d0))  # D_i = R_i - 1 at index i
    if shift == "node":
        m_b = max(i for i, d in enumerate(d_out) if d < -1.0)
        assert m - m_b == 134
    else:
        m_b = m - shift
    d_out = list(_deviations(w[1 : max(m, m_b)], d0))
    # S_i - 1 at n - 2 - i
    d_in = list(_deviations(w[n - 3 : min(m, m_b) : -1], w[n - 2] + 1.0))
    between = d_out[m_b:m] if m_b < m else d_in[n - 2 - m_b : n - 2 - m]
    assert len(between) == abs(m - m_b)
    ratio = math.prod(1.0 + d for d in between)  # F_m/F_{m_b}
    basis = (m_b, norm * ratio * ratio, e_val)
    chord = _cooley(grid, e_val, basis)
    assert chord[0] == nodes and chord[2] is basis
    d_lo, d_hi = d_out[m_b - 1], d_in[n - 3 - m_b]  # D_{m_b-1}, S_{m_b+1} - 1
    gamma = w[m_b] + d_lo / (1.0 + d_lo) + d_hi / (1.0 + d_hi)
    expected = gamma / ((1.0 - t[m_b]) * grid[0] ** 2 * basis[1])
    assert chord[1] == pytest.approx(expected, rel=1e-12, abs=0.0)
    assert chord[1] == pytest.approx(step, rel=2e-4, abs=0.0)


@pytest.mark.parametrize("m_b,norm", [
    (lambda m, n: m, 0.0), (lambda m, n: m, math.inf), (lambda m, n: m, math.nan),
    (lambda m, n: m + 2, 0.0), (lambda m, n: m - 2, math.inf), (lambda m, n: m + 1, math.nan),
    (lambda m, n: -1, 1.0), (lambda m, n: 0, 1.0), (lambda m, n: n - 2, 1.0),
    (lambda m, n: n - 1, 1.0), (lambda m, n: n, 1.0),
], ids=["m-0", "m-inf", "m-nan", "m+2-0", "m-2-inf", "m+1-nan", "-1", "0", "n-2", "n-1", "n"])
def test_chord_pass_on_a_basis_it_cannot_use_runs_in_full(m_b, norm):
    # a basis whose norm is not a finite positive float, or whose point is
    # off the marches (gamma_{m_b} needs R_{m_b-1} and S_{m_b+1}, so 1 <=
    # m_b <= n - 3), gets a full pass and its fresh basis: on a norm of inf
    # a chord pass would step by 0, as at a converged level
    grid, e_val = _level_grid(3, 0, 0, 0.05)
    full = _cooley(grid, e_val)
    out = _cooley(grid, e_val, (m_b(full[2][0], grid[1].size), norm, e_val))
    assert out[:2] == full[:2] and out[2] == full[2]


@pytest.mark.parametrize("dim,l,alpha,n", [
    (3, 0, 0.002, 20), (1, 0, 0.04, 1), (1, 0, 0.04, 7), (1, 1, 0.03, 2), (1, 1, 0.03, 7),
    (1, 2, 0.04, 3), (3, 0, 0.06, 3), (3, 0, 0.07, 4), (3, 0, 0.09, 0), (3, 1, 0.03, 5),
    (3, 1, 0.04, 2), (3, 2, 0.06, 1), (4, 0, 0.03, 4), (4, 0, 0.03, 6), (4, 1, 0.05, 1),
    (4, 2, 0.04, 2), (5, 0, 0.06, 0), (5, 1, 0.04, 2), (5, 2, 0.03, 2), (5, 2, 0.04, 0),
])
def test_finer_grid_starts_on_a_chord_pass(monkeypatch, dim, l, alpha, n):
    # each finer grid's first pass is offered the coarse basis at 2m, and on
    # these levels a full pass there would match at 2m + 1 on at least one
    # finer grid: that pass matches at 2m all the same, as a chord pass
    sizes, firsts = [], []

    def spy(grid, energy_val, basis):
        out = _cooley(grid, energy_val, basis)
        if grid[1].size not in sizes:
            if sizes:
                # a chord pass returns the basis it was offered; a full
                # pass at the same energy names the point it would match at
                firsts.append((out[2] is basis, _cooley(grid, energy_val)[2][0] - basis[0]))
            sizes.append(grid[1].size)
        return out

    monkeypatch.setattr(oracle, "_cooley", spy)
    params = PotentialParams(Z=1.0, alpha=alpha, D=dim)
    qn = QuantumNumbers(n, l)
    res = solve_exact(params, l, level(params, qn).nodes, default_config(params, qn))
    assert res.node_count == level(params, qn).nodes and res.points == sizes[-1]
    assert len(firsts) == len(sizes) - 1 >= 1
    assert all(chord for chord, _ in firsts) and 1 in [moved for _, moved in firsts]


@pytest.mark.parametrize("params,l,r_min,r_max,e_lo,steps", [
    # a solve's ladder at the anchor, a count's, and one in other units
    (ANCHOR, 0, 0.1, 834.3, -0.54, 700),
    (PotentialParams(Z=1.0, alpha=0.01, D=5), 2, 0.1, 1e4, -5e-17, 3000),
    (PotentialParams(Z=3.61, mu=0.41, hbar=0.51, alpha=0.068, D=2), 0, 0.017, 31.0, -9.0, 900),
])
def test_ladder_grids_take_their_even_points_from_the_grid_before(params, l, r_min, r_max,
                                                                   e_lo, steps):
    # a finer grid of _ladder has half the step of the one before, exactly,
    # so its even points are that grid's: it takes P and Q there from it,
    # and they equal those of the same grid built alone, bit for bit
    grids = list(itertools.islice(oracle._ladder(params, l, r_min, r_max, e_lo, steps), 3))
    assert len(grids) == 3
    for (_, coarse), (steps, fine) in zip(grids, grids[1:]):
        alone = _log_grid(params, l, r_min, r_max, steps + 1)
        assert 2.0 * fine[0] == coarse[0] and fine[0] == alone[0]
        for i in (1, 2):
            assert fine[i][::2].tobytes() == coarse[i].tobytes()
            assert fine[i].tobytes() == alone[i].tobytes()


@pytest.mark.parametrize("dim,l", [(2, 0), (3, 1), (5, 2)])
def test_grid_potential_is_that_of_model_potential(dim, l):
    # _log_grid forms V from radii it checks only at the ends; on a first
    # grid and on a finer ladder grid, whose even points come from the first,
    # P is s^2 + c r^2 V with V = model.potential(r), checked radius by
    # radius, bit for bit (s = 0 at D = 2, l = 0)
    params = PotentialParams(Z=1.3, mu=0.8, hbar=1.1, alpha=0.07, D=dim)
    s = abs(model._angular_v(l, dim) - 1) / 2.0
    c = 2.0 * params.mu / params.hbar**2
    r_min, r_max = _grid_ends(params, -0.05)
    ladder = oracle._ladder(params, l, r_min, r_max, -0.6, 700)
    for steps, grid in itertools.islice(ladder, 2):
        r = np.exp(math.log(r_min) + grid[0] * np.arange(steps + 1))
        p_arr = s * s + c * r * r * model.potential(r, params)
        assert grid[1].tobytes() == p_arr.tobytes()


def test_grid_whose_ends_are_not_finite_raises():
    # radii are checked at their ends alone, which hold every radius between
    # them; a grid to r_max = inf has an infinite step and no finite radius
    params = PotentialParams(Z=1.0, alpha=0.05)
    with np.errstate(invalid="ignore"), pytest.raises(
            ValueError, match="^radii must be finite positive reals$"):
        _log_grid(params, 0, 1.0, math.inf, 9)


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


# D = 3 and D = 1 potentials of the tolerance floor's sweep (ROADMAP item
# 2), with Z up to 10^2.5
floor_params = st.builds(
    lambda z, mu, hbar, alpha, dim: PotentialParams(Z=10.0**z, mu=10.0**mu, hbar=10.0**hbar,
                                                    alpha=10.0**alpha, D=dim),
    st.floats(0.0, 2.5), st.floats(-1.0, 1.0), st.floats(-0.7, 0.5), st.floats(-3.0, 0.0),
    st.sampled_from([3, 1]))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(floor_params, st.integers(0, 4))
@example(PotentialParams(Z=267.2578875980919, mu=2.0965521440403934, hbar=0.24389413498379664,
                         alpha=0.044498771571684484), 0)
@example(PotentialParams(Z=1.0, alpha=0.2), 0)
@example(PotentialParams(Z=4.462839757968484, mu=0.1852514515949734, hbar=1.7768190161402948,
                         alpha=0.46873637950573604), 0)
def test_window_at_the_tolerance_floor_holds_the_exact_level(params, n):
    # gamma = 0 at D = 3, l = 0 and D = 1, l = 1, so the closed form, in
    # exact fractions of the inputs, is the exact level.  At 1, 2 and 16
    # times the floor of 128 float spacings of max(-E_lo, Z alpha) the
    # window holds it.  At the first example a window of 1e-9 (4.3
    # spacings) missed it by 2.5 half-widths, at the second one of 6
    # spacings by 3 of them, and at the third one of 128 spacings of E_lo
    # alone (Z alpha = 325 |E|) by 5.5
    l = 0 if params.D == 3 else 1
    qn = QuantumNumbers(n, l)
    try:
        lv = level(params, qn)
    except NoBoundState:
        return
    # <V> + <T> = E
    exact = sum(feynman_hellmann_exact(params.Z, params.alpha, params.mu, params.hbar,
                                       params.D, n, l)[2:])
    floor = 128 * math.ulp(max(-1.2 * lv.energy, params.Z * params.alpha))
    for factor in (1, 2, 16):
        res = solve_exact(params, l, lv.nodes, default_config(params, qn, factor * floor))
        assert abs(Fraction(res.energy) - exact) <= res.residual


# points of the final grid of each level at the default tolerance
CENTRIFUGAL_POINTS = {
    (2, 0, 1, 0.1, 1.0, 1.0, 1.0): 1197, (5, 1, 1, 0.05, 1.0, 1.0, 1.0): 1451,
    (3, 2, 5, 0.01, 1.0, 1.0, 1.0): 3149, (4, 1, 2, 0.03, 1.7, 0.6, 1.3): 1505,
}


@pytest.mark.parametrize("dim,l,n,alpha,Z,mu,hbar", CENTRIFUGAL_POINTS)
def test_levels_with_centrifugal_term_within_error_estimate(dim, l, n, alpha, Z, mu, hbar):
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
    assert res.points == CENTRIFUGAL_POINTS[dim, l, n, alpha, Z, mu, hbar] < ref.points
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
def test_grid_ends_of_default_config_converge(monkeypatch, Z, mu, hbar, alpha, dim, l, n):
    # the grid spans only the level: a start ten times nearer the origin or
    # an end twice as far out moves it by less than a tenth of the tolerance
    params = PotentialParams(Z=Z, mu=mu, hbar=hbar, alpha=alpha, D=dim)
    qn = QuantumNumbers(n, l)
    k = level(params, qn).nodes
    cfg = default_config(params, qn)
    res = solve_exact(params, l, k, cfg)
    r_min, r_max = _grid_ends(params, cfg.energy_bracket[1])
    for ends in ((r_min / 10.0, r_max), (r_min, 2.0 * r_max)):
        with monkeypatch.context() as patch:
            _ends(patch, *ends)
            wider = solve_exact(params, l, k, cfg)
        assert abs(wider.energy - res.energy) < 0.1 * cfg.tolerance


def _old_ends(monkeypatch, params):
    # the grid ends default_config gave before its grid spanned only the
    # level: r = 1e-6/alpha .. 20/alpha (40/kappa is shorter for every level
    # used here)
    _ends(monkeypatch, 1e-6 / params.alpha, 20.0 / params.alpha)


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


def test_level_past_the_grid_cap_raises(monkeypatch):
    # T = h^2 g/12 reaches 5.02e3 on the 1501-point grid of the old ends:
    # counts need ~150000 steps, past the 96000 of _MAX_STEPS.  A
    # 24000-point grid counted 2124 spurious nodes here
    params = PotentialParams(Z=1.0, alpha=0.001)
    cfg = default_config(params, QuantumNumbers(0, 0))
    _old_ends(monkeypatch, params)
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

    def spy(params, l, r_lo, r_hi, n, *coarse):
        sizes.append(n)
        return _log_grid(params, l, r_lo, r_hi, n, *coarse)

    monkeypatch.setattr(oracle, "_log_grid", spy)
    _ends(monkeypatch, r_min, r_max)
    cfg = ShootingConfig(energy_bracket=bracket, tolerance=tolerance)
    # where T <= 1/2 on the first grid, its steps, not T, stop the ladder
    cause = (f"the first grid has {points - 1} steps" if float(t_max) <= 0.5 else
             f"T = h\\^2 g/12 reaches {t_max} at E=.* on the {points}-point grid")
    with pytest.raises(ConvergenceError, match=f"^{cause}: counts need T <= 1/2 on both grids "
                                               f"of the first doubling, and the finer may not "
                                               f"pass 96000 steps$"):
        solve_exact(ANCHOR, 0, 0, cfg)
    assert sizes == [points]


def test_estimate_above_tolerance_on_the_last_grid_raises(monkeypatch):
    # the 25065-step grid from r_min = 1e-120 keeps the largest ln(r) step:
    # its doubling still reads an O(h^4) estimate of 3.91e-12, and a third
    # grid would have 100260 steps
    _ends(monkeypatch, 1e-120, 100.0)
    cfg = ShootingConfig(energy_bracket=(-0.6, -0.4), tolerance=1e-12)
    message = ("error estimate 3.91e-12 of the 50131-point grid is above half the tolerance "
               "1e-12, and a finer grid would pass 96000 steps")
    with pytest.raises(ConvergenceError, match=f"^{re.escape(message)}$"):
        solve_exact(ANCHOR, 0, 0, cfg)


def test_estimate_that_stops_shrinking_raises(monkeypatch):
    # each grid's level drifts by 3e-18 N^2, eps |E|/h^2 over the ln(r) span
    # of this level's grid, as roundoff of the march did when it carried R
    # rather than R - 1: the estimate grows on a doubling where an O(h^4)
    # error shrinks it 16-fold, and no energy is returned
    cooley = oracle._cooley

    def drifting(grid, energy_val, *basis):
        return cooley(grid, energy_val - 3e-18 * grid[1].size ** 2, *basis)

    monkeypatch.setattr(oracle, "_cooley", drifting)
    cfg = default_config(ANCHOR, QuantumNumbers(0, 0), tolerance=1e-12)
    with pytest.raises(ConvergenceError, match="^error estimate .* of the 4417-point grid "
                                               "shrank by less than 4 from "):
        solve_exact(ANCHOR, 0, 0, cfg)


def _solve_at_r_min_over_100(monkeypatch, params, qn):
    # the level of default_config, certified, and the level of the same
    # solve on a grid from a hundredth of its r_min: the start's error from
    # r_min is not part of the certificate, so the two must agree
    cfg = default_config(params, qn)
    k = level(params, qn).nodes
    res = solve_exact(params, qn.l, k, cfg)
    assert res.error_estimate <= res.residual
    assert _certified(params, qn.l, k, cfg, res)
    r_min, r_max = _grid_ends(params, cfg.energy_bracket[1])
    with monkeypatch.context() as patch:
        _ends(patch, r_min / 100.0, r_max)
        nearer = solve_exact(params, qn.l, k, cfg)
    return res.energy, nearer.energy, cfg.tolerance


def test_d2_s_wave_level_does_not_depend_on_r_min(monkeypatch):
    # at D = 2, l = 0 the second branch y ~ ln r does not die out outward, so
    # the start at r_min must follow the regular one closely.  With a
    # first-order start this level (E = -41.13) moved by 4.6e-6 when r_min
    # shrank 100-fold, and its grids' energies differed by ~1e-7, which read
    # as a roundoff floor; a fixed 24000-point grid returned one unchecked
    params = PotentialParams(Z=3.6079722523521016, mu=0.4100627265092216,
                             hbar=0.5087195582253824, alpha=0.06844577643064836, D=2)
    energy_val, nearer, tol = _solve_at_r_min_over_100(monkeypatch, params, QuantumNumbers(0, 0))
    assert abs(nearer - energy_val) <= 0.5 * tol


@pytest.mark.parametrize("Z,mu,hbar,alpha,dim,l,n", [
    (1.0, 1.0, 1.0, 0.05, 1, 0, 2), (1.0, 1.0, 1.0, 0.3, 1, 1, 0),
    (1.0, 1.0, 1.0, 0.05, 2, 0, 3), (1.0, 1.0, 1.0, 0.02, 3, 3, 1),
    (2.3, 0.7, 1.3, 0.02, 3, 3, 0), (1.0, 1.0, 1.0, 0.02, 5, 1, 1),
    (0.4, 2.5, 0.8, 0.03, 4, 2, 0), (1.0, 1.0, 1.0, 1.5, 2, 0, 0),
])
def test_level_does_not_depend_on_r_min(monkeypatch, Z, mu, hbar, alpha, dim, l, n):
    # r_min = 0.1 hbar^2/(mu Z) for every (D, l): the series start leaves the
    # level within half its tolerance of a solve started 100 times nearer
    # the origin, also at D = 1 (s = 1/2 + l) and l = 3
    params = PotentialParams(Z=Z, mu=mu, hbar=hbar, alpha=alpha, D=dim)
    energy_val, nearer, tol = _solve_at_r_min_over_100(monkeypatch, params, QuantumNumbers(n, l))
    assert abs(nearer - energy_val) <= 0.5 * tol


@pytest.mark.parametrize("Z,mu,hbar,alpha,dim,l,energy_val", [
    (1.0, 1.0, 1.0, 0.05, 2, 0, -1.97), (1.0, 1.0, 1.0, 0.05, 3, 0, -0.475),
    (1.0, 1.0, 1.0, 0.3, 1, 0, -0.1), (1.0, 1.0, 1.0, 0.02, 3, 3, -0.02),
    (2.0, 0.7, 1.3, 0.5, 5, 1, -0.3), (1.0, 1.0, 1.0, 3.0, 2, 0, -0.01),
])
def test_start_matches_an_ode_solve(Z, mu, hbar, alpha, dim, l, energy_val):
    # y_1/y_0 of the regular series against DOP853 at rtol 1e-13 on y'' = (s^2
    # + r^2 c (V - E)) y in x = ln r, started at r = 1e-8 on y = r^s (1 +
    # a_1 r), whose O(r^2) error is below the rounding there.  The
    # third-order start is off by 5e-10 to 2.7e-6 here
    from scipy.integrate import solve_ivp

    params = PotentialParams(Z=Z, mu=mu, hbar=hbar, alpha=alpha, D=dim)
    s = math.sqrt(model._gamma_coeff(l, dim) + 0.25)
    c = 2.0 * mu / hbar**2
    r_min, r_max = _grid_ends(params, 0.8 * energy_val)
    h, _, _, start = _log_grid(params, l, r_min, r_max, 1000)

    def rhs(x, u):
        r = math.exp(x)
        return [u[1], (s * s + c * r * r * (model.potential(r, params) - energy_val)) * u[0]]

    r_a, a_1 = 1e-8, -c * Z / (2.0 * s + 1.0)
    y_a = r_a**s * (1.0 + a_1 * r_a)
    ends = (math.log(r_min), math.log(r_min) + h)
    sol = solve_ivp(rhs, (math.log(r_a), ends[1]), [y_a, s * y_a + a_1 * r_a ** (s + 1.0)],
                    method="DOP853", rtol=1e-13, atol=1e-300, t_eval=ends)
    y_0, y_1 = sol.y[0]
    assert abs(start(energy_val) - (y_1 / y_0 - 1.0)) <= 1e-13


def test_level_past_t_one_on_a_fixed_grid_solves():
    # T > 1 on a 24000-point grid gave spurious nodes and a false
    # BracketError.  On r = 1e-6/alpha .. 20/alpha the ladder started on the
    # 48001-point grid and ended on 96001 points; the grid of default_config
    # ends at r = 5.66, where T <= 1/2 from its 741-point grid on
    params = PotentialParams(Z=4.274, mu=1.797, hbar=0.33, alpha=0.04291130432367441, D=4)
    qn = QuantumNumbers(5, 0)
    cfg = default_config(params, qn)
    k = level(params, qn).nodes
    res = solve_exact(params, 0, k, cfg)
    assert res.points == 5921
    assert res.node_count == k
    assert res.error_estimate <= res.residual
    assert _certified(params, 0, k, cfg, res)


def test_bracket_error():
    # a bracket above the ground state (toward zero) cannot straddle it
    cfg = ShootingConfig(energy_bracket=(-0.2, -0.15), tolerance=1e-9)
    with pytest.raises(BracketError, match="^lower bracket E=-0.2 already lies above"):
        solve_exact(ANCHOR, 0, 0, cfg)


def test_narrow_grid_keeps_eight_steps(monkeypatch):
    # the coarsest grid is sized by its step in ln(r), and a span of 1e-3
    # in ln(r) would be one step, on which a march fails with an IndexError
    _ends(monkeypatch, 1.0, 1.001)
    cfg = ShootingConfig(energy_bracket=(-100.0, -0.1), tolerance=1e-9)
    with pytest.raises(BracketError, match="^upper bracket E=-0.1 lies below the target"):
        solve_exact(ANCHOR, 0, 0, cfg)


def test_bracket_too_deep_for_the_series_raises():
    # G_2 = -c E r_min^2 = 300 at the midpoint E = -15000: the terms of the
    # regular series pass 2^-60 of their sum only after the 64 it may sum
    cfg = ShootingConfig(energy_bracket=(-2e4, -1e4), tolerance=1e-9)
    with pytest.raises(oracle.OracleError, match=r"^the regular series at r_min = 0\.1 is not "
                                                 r"summed to machine precision at E=-15000\.0: "
                                                 r"its first 64 terms add up to "):
        solve_exact(ANCHOR, 0, 0, cfg)


@pytest.mark.parametrize("Z,alpha,r_min,r_max,points,energy_val,terms", [
    # alpha r_min = 1000 lies past the series' radius of convergence, 2 pi
    (1.0, 1e3, 1.0, 2.0, 9, -0.5, "64 terms add up to -3.2"),
    # c Z r_min = 60: the terms cancel to 1/3e6 of their magnitudes
    (1.0, 1e-6, 30.0, 30.3, 9, -1e-4, r"38 terms add up to 0\.0218.* \(6\.87e\+04 in"),
    # c Z r_min = 2e145: the terms overflow
    (1.0, 1e-151, 1e145, 1e146, 9, -1e-300, r"4 terms add up to -inf \(inf in"),
    # h = 176: e^{kh} - 1 overflows at k = 5
    (1.0, 0.05, 1e-3, 1e150, 3, -0.5, r"6 terms add up to 0\.999.*, y_1 - 1 = nan$"),
])
def test_start_not_summed_to_machine_precision_raises(Z, alpha, r_min, r_max, points,
                                                      energy_val, terms):
    # never an unconverged start, nor a bare OverflowError
    grid = _log_grid(PotentialParams(Z=Z, alpha=alpha), 0, r_min, r_max, points)
    head = (f"the regular series at r_min = {r_min!r} is not summed to machine precision at "
            f"E={energy_val!r}: its first ")
    with pytest.raises(oracle.OracleError, match=f"^{re.escape(head)}{terms}"):
        grid[3](energy_val)


def _count_ladder(params, l):
    # the first two grids of a count's ladder, with its probe
    alpha = params.alpha
    r_min = min(max(0.1 * params.hbar**2 / (params.mu * params.Z), 1e-6 / alpha), 0.1 / alpha)
    probe = -1e-12 * (alpha * params.hbar) ** 2 / (2.0 * params.mu)
    ladder = oracle._ladder(params, l, r_min, 100.0 / alpha, probe, 3000)
    return r_min, 100.0 / alpha, probe, list(itertools.islice(ladder, 2))


@pytest.mark.parametrize("dim,l,alpha", [(3, 0, 0.05), (2, 0, 0.2), (5, 2, 0.11)])
def test_start_at_the_energy_of_the_grid_before_keeps_its_bits(monkeypatch, dim, l, alpha):
    # both grids of a count start at the probe: the finer one sums only
    # sum b_k (e^{kh} - 1) over the terms the first kept, and its start is
    # that of the same grid built alone, bit for bit
    params = PotentialParams(Z=1.0, alpha=alpha, D=dim)
    r_min, r_max, probe, [(_, first), (steps, fine)] = _count_ladder(params, l)
    alone = _log_grid(params, l, r_min, r_max, steps + 1)[3](probe)
    assert first[3](probe).hex() == _log_grid(params, l, r_min, r_max,
                                              first[1].size)[3](probe).hex()
    # a series allowed no terms can only return the kept ones
    monkeypatch.setattr(oracle, "_START_TERMS", 1)
    assert fine[3](probe).hex() == alone.hex()
    # a start at another energy is summed afresh, and so raises here
    with pytest.raises(OracleError, match="its first 1 terms add up to 1.0"):
        fine[3](2.0 * probe)


def test_start_that_raises_keeps_nothing(monkeypatch):
    # the finer grid of a count fails twice at E = -15000 (G_2 = 300, as in
    # test_bracket_too_deep_for_the_series_raises) with the same message,
    # and the terms kept from the probe outlive both failures
    params = PotentialParams(Z=1.0, alpha=0.05)
    r_min, r_max, probe, [(_, first), (steps, fine)] = _count_ladder(params, 0)
    alone = _log_grid(params, 0, r_min, r_max, steps + 1)[3](probe)
    first[3](probe)
    messages = []
    for _ in range(2):
        with pytest.raises(OracleError, match="^the regular series at r_min = 0.1 is not summed "
                                              "to machine precision at E=-15000.0: ") as err:
            fine[3](-15000.0)
        messages.append(str(err.value))
    assert messages[0] == messages[1]
    # a series allowed no terms can only return the kept ones
    monkeypatch.setattr(oracle, "_START_TERMS", 1)
    assert fine[3](probe).hex() == alone.hex()


def test_start_on_a_solve_s_finer_grid_keeps_its_bits():
    # a solve's finer grid starting at the last energy of the grid before
    # takes its terms; at any other energy it sums them afresh, to the bits
    # of a grid built alone
    params, l = PotentialParams(Z=1.0, alpha=0.05, D=4), 1
    cfg = default_config(params, QuantumNumbers(1, l))
    r_min, r_max = _grid_ends(params, cfg.energy_bracket[1])
    ladder = oracle._ladder(params, l, r_min, r_max, cfg.energy_bracket[0], 700)
    [(_, coarse), (steps, fine)] = itertools.islice(ladder, 2)
    e_a, e_b = cfg.energy_bracket
    for energy_val in (e_a, e_b, e_b, e_a):
        alone = _log_grid(params, l, r_min, r_max, steps + 1)
        coarse[3](energy_val)
        assert fine[3](energy_val).hex() == alone[3](energy_val).hex()
        assert fine[3](0.5 * energy_val).hex() == alone[3](0.5 * energy_val).hex()


def test_bernoulli_ratios_match_exact_fractions():
    # B_m/m! from the same recurrence in exact rationals
    exact = [Fraction(1)]
    for m in range(1, oracle._START_TERMS):
        exact.append(-sum(exact[j] / math.factorial(m + 1 - j) for j in range(m)))
    for m, (ratio, value) in enumerate(zip(oracle._BERNOULLI, exact, strict=True)):
        assert ratio == pytest.approx(float(value), rel=2e-14, abs=0.0), m


def test_upper_bracket_error():
    # the exact level lies below the closed form's bracket; the lazy march
    # of the upper end reports it as the eager one did
    params = PotentialParams(Z=1.0, alpha=0.3)
    qn = QuantumNumbers(0, 1)
    message = ("upper bracket E=-0.016000000000000004 lies below the target "
               "eigenvalue (nodes=0)")
    with pytest.raises(BracketError, match=f"^{re.escape(message)}$"):
        solve_exact(params, 1, 0, default_config(params, qn))


# the (D, l, alpha) of the census workload of bench/
CENSUS_ALPHAS = tuple(round(0.03 + 0.01 * i, 2) for i in range(28))
CENSUS = [(dim, l, alpha) for dim in (1, 3, 4, 5) for l in (0, 1, 2) for alpha in CENSUS_ALPHAS]


def test_count_matches_closed_form():
    # every gamma = 0 (D, l) of the census, where the closed form is exact
    for dim, l, alpha in CENSUS:
        if model._gamma_coeff(l, dim) == 0.0:
            params = PotentialParams(Z=1.0, alpha=alpha, D=dim)
            expected = sum(st.exists for st in spectrum(params, l))
            assert count_bound_states(params, l) == expected, (dim, l, alpha)


@pytest.mark.parametrize("Z,alpha,r_min,steps,count", [
    # the solve's r_min, 0.1 hbar^2/(mu Z): half of the ln(r) span of
    # 1e-6/alpha .. 100/alpha, at the same step
    (1.0, 0.1, 0.1, 1500, 4),
    # 0.1 hbar^2/(mu Z) = 2e-7 lies below 1e-6/alpha: the grids are those
    # of r = 1e-6/alpha .. 100/alpha on 3000 steps, which this count needs
    # up to its 96000-step rung
    (5e5, 1.0, 1e-6, 3000, 999),
    # 0.1/alpha keeps alpha r_min inside the series' radius 2 pi: from 0.1
    # hbar^2/(mu Z) = 0.1 the start at alpha = 100 could not be summed
    (1.0, 20.0, 0.1 / 20.0, 1125, 0),
    (1.0, 100.0, 0.1 / 100.0, 1125, 0),
])
def test_count_starts_at_the_core_radius(monkeypatch, Z, alpha, r_min, steps, count):
    grids = []

    def spy(params, l, r_lo, r_hi, n, *coarse):
        grids.append((r_lo, r_hi, n - 1))
        return _log_grid(params, l, r_lo, r_hi, n, *coarse)

    monkeypatch.setattr(oracle, "_log_grid", spy)
    assert count_bound_states(PotentialParams(Z=Z, alpha=alpha), 0) == count
    assert grids[0] == (r_min, 100.0 / alpha, steps)


def test_census_counts_march_under_5200_points(monkeypatch):
    # from r = 1e-6/alpha each count of the census would build 3001- and
    # 6001-point grids, 9002 points; from 0.1 hbar^2/(mu Z) they build 3968
    # to 5093.  These are the points of the grids built: each march stops
    # before the last of them (test_census_counts_stop_in_the_tail)
    points = {}

    def spy(grid, energy_val):
        points[key] += grid[1].size
        return _march(grid, energy_val)

    monkeypatch.setattr(oracle, "_march", spy)
    for key in CENSUS:
        points[key] = 0
        dim, l, alpha = key
        count_bound_states(PotentialParams(Z=1.0, alpha=alpha, D=dim), l)
    assert {key: n for key, n in points.items() if n >= 5200} == {}


def test_census_counts_stop_in_the_tail(monkeypatch):
    # a count's march stops once D >= 0 past the last W <= 0: the census
    # counts read 58 % of the interior points of their grids (from none,
    # where every W > 0 and D_0 >= 0, to all)
    reads, points = [0], [0]

    def spy(grid, energy_val):
        t, w, d0 = _offsets(grid, energy_val)
        points[0] += len(w) - 2
        return t, _CountedView(w, reads), d0

    monkeypatch.setattr(oracle, "_offsets", spy)
    for dim, l, alpha in CENSUS:
        count_bound_states(PotentialParams(Z=1.0, alpha=alpha, D=dim), l)
    assert reads[0] <= 0.7 * points[0]


@pytest.mark.parametrize("alpha", [1e-154, 1e-160])
def test_overflowing_grid_raises(monkeypatch, alpha):
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
        cfg = default_config(params, QuantumNumbers(1))
        _old_ends(monkeypatch, params)
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


@pytest.mark.parametrize("alpha,message", [
    # r_max = 100/alpha is inf, and a grid to it has no step count
    (1e-307, "r_max = 100/alpha is not a finite float at alpha = 1e-307"),
    # (alpha hbar)^2 overflows
    (1e300, "the probe energy -1e-12 (alpha hbar)^2/(2 mu) overflows at alpha hbar = 1e+300"),
])
def test_count_whose_r_max_or_probe_overflows_raises(alpha, message):
    # each raised a bare OverflowError
    with pytest.raises(OracleError, match=f"^{re.escape(message)}$"):
        count_bound_states(PotentialParams(Z=1.0, alpha=alpha), 0)


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
