"""Properties of the Level record and of the CLI over random parameters
(hypothesis)."""

import io
import math
import os
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hulthen import (
    NoBoundState,
    PotentialParams,
    QuantumNumbers,
    centrifugal_approx,
    energy,
    level,
    normalization_constant,
    potential,
    wavefunction_samples,
)
from hulthen.cli import main
from hulthen.expectation import _weighted_integrals
from nu_reference import branches, eigen_condition, hulthen_problem, select_branch
from special_reference import sign_changes


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
    v = 2 * qn.l + params.D - 1
    assert lv.delta == 2.0 * params.Z * params.mu / (params.alpha * params.hbar**2)
    assert (lv.gamma, lv.v, lv.Lambda) == (v * (v - 2) / 4.0, v, 2 * qn.n + v)


@PROPERTY
@given(params_st, qn_st)
# the under-root's leading coefficient at the larger t is -5.7e-14, the
# rounding of terms of size 41, not a nonpositive quadratic
@example(PotentialParams(Z=10.0**0.5, alpha=1.0, mu=10.0**0.5, hbar=1.0, D=1),
         QuantumNumbers(3, 1))
def test_level_zeroes_nu_termination_condition(params, qn):
    if not energy(params, qn).exists:
        return
    lv = level(params, qn)
    prob = hulthen_problem(lv.epsilon, lv.delta, lv.gamma)
    residual = eigen_condition(select_branch(branches(prob)), prob.sigma, lv.nodes)
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


@PROPERTY
@given(params_st, qn_st)
def test_quadrature_normalization(params, qn):
    if not energy(params, qn).exists:
        return
    assert abs(_weighted_integrals(lambda r: [1.0], level(params, qn))[0] - 1.0) <= 1e-10


@PROPERTY
@given(params_st, qn_st)
def test_quadrature_of_the_centrifugal_stand_in(params, qn):
    # <r^-2> of the stand-in the eigenfunctions solve, to the quadrature's
    # absolute tolerance; it is undefined where 2l+D-2 = 0
    if not energy(params, qn).exists or 2 * qn.l + params.D - 2 == 0:
        return
    lv = level(params, qn)
    quad = _weighted_integrals(lambda r: [centrifugal_approx(r, params.alpha)], lv)[0]
    assert abs(quad - lv.inv_r2) <= 1e-10


@PROPERTY
@given(params_st, qn_st)
def test_energy_is_kinetic_plus_quadrature_potential(params, qn):
    # <T> = E - <V> from the strength derivative; <V> here by quadrature
    bs = energy(params, qn)
    if not bs.exists:
        return
    lv = level(params, qn)
    v_quad = _weighted_integrals(lambda r: [potential(r, params)], lv)[0]
    assert abs(lv.t_mean + v_quad - bs.energy) <= 1e-10 + 1e-12 * abs(lv.v_mean)


@PROPERTY
@given(params_st, qn_st)
def test_default_grid_samples_have_interior_nodes(params, qn):
    if not energy(params, qn).exists:
        return
    samples = wavefunction_samples(params, qn)
    assert sign_changes(samples.U_values) == level(params, qn).nodes


SHARED_FLAGS = {
    "--Z": log_uniform(-1, 1),
    "--alpha": log_uniform(-3, 0.5),
    "--mu": log_uniform(-1, 1),
    "--hbar": log_uniform(-0.7, 0.5),
    "--dim": st.integers(1, 6),
    # low l (and low --n below), so that most draws give a level to print
    "--l": st.integers(0, 2),
    "--format": st.sampled_from(["csv", "json"]),
}


@st.composite
def cli_invocations(draw):
    """(subcommand, {flag: value text}, flags to pass as HULTHEN_<FLAG>)."""
    command = draw(st.sampled_from(["spectrum", "wavefunction", "expectation"]))
    flags = {flag: str(draw(values)) for flag, values in SHARED_FLAGS.items()}
    if command == "spectrum":
        flags["--n-max"] = str(draw(st.integers(0, 8)))
    else:
        flags["--n"] = str(draw(st.integers(0, 3)))
    if command == "wavefunction":
        flags["--points"] = str(draw(st.integers(2, 64)))
    return command, flags, draw(st.sets(st.sampled_from(sorted(flags))))


def run_cli(argv, env):
    """(exit code, stdout, stderr) of one in-process run with exactly the
    HULTHEN_* variables of env set."""
    environ = {k: v for k, v in os.environ.items() if not k.startswith("HULTHEN_")}
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {**environ, **env}, clear=True), \
            redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(cli_invocations())
def test_cli_is_deterministic_and_env_equals_flags(invocation):
    command, flags, via_env = invocation
    argv = [command, *(tok for flag, value in flags.items() for tok in (flag, value))]
    first = run_cli(argv, {})
    assert run_cli(argv, {}) == first
    rest = [command, *(tok for flag, value in flags.items() if flag not in via_env
                       for tok in (flag, value))]
    env = {"HULTHEN_" + flag[2:].upper().replace("-", "_"): flags[flag] for flag in via_env}
    assert run_cli(rest, env) == first
