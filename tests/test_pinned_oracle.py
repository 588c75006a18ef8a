"""Exact bits of solve_exact and count_bound_states on a few inputs.

Each solve runs from default_config and targets the closed-form level's
node count, as `hulthen validate` does; its energy and error_estimate are
pinned by float.hex, with its shots and the points of its final grid.  A
change to how the oracle is written (its loops, its names, its docstrings)
is meant to leave every one of these values as it was.  A change that
moves a value on purpose re-records it here and says so in CHANGES.md.
The bits are those of one numpy build: a numpy whose exp or arithmetic
rounds differently moves them too.
"""

import pytest

from hulthen import PotentialParams, QuantumNumbers, model
from hulthen.oracle import count_bound_states, default_config, solve_exact

SOLVES = [
    # (params, (n, l)), energy, error_estimate, shots, points
    # the D = 3 ground state: two grids and four shots
    (dict(Z=1.0, alpha=0.05), (0, 0),
     "-0x1.e6b851eb84cddp-2", "0x1.06db666666666p-38", 4, 1105),
    (dict(Z=1.0, alpha=0.05), (0, 1),
     "-0x1.9ddeb0b288eabp-4", "0x1.08d0333333333p-39", 6, 1251),
    (dict(Z=1.0, alpha=0.05, D=5), (1, 1),
     "-0x1.5d8cac06f54b7p-7", "0x1.d31e2bbbbbbbcp-39", 9, 1451),
    (dict(Z=1.0, alpha=0.05), (2, 2),
     "-0x1.2f2f273f87375p-9", "0x1.2998044444444p-38", 11, 1571),
    # D = 2, l = 0: gamma < 0, so the march starts from D_0 < 0
    (dict(Z=1.0, alpha=0.2, D=2), (1, 0),
     "-0x1.122dde5f67857p-3", "0x1.5e49666666666p-38", 7, 1219),
    (dict(Z=1.0, alpha=0.1, D=1), (2, 1),
     "-0x1.13579be02463ap-6", "0x1.c325711111111p-38", 6, 1409),
    # a high level that ends on a 7297-point grid
    (dict(Z=1.0, alpha=0.002), (20, 0),
     "-0x1.737f26d0617bep-12", "0x1.0cf286aaaaaabp-40", 12, 7297),
    # the DEEP_LEVEL argv set of tools/cli_bytes.py, at E = -1.26e6
    (dict(Z=267.2578875980919, mu=2.0965521440403934, hbar=0.24389413498379664,
          alpha=0.044498771571684484), (0, 0),
     "-0x1.334e839584d30p+20", "0x1.3333333333333p-29", 15, 8801),
]

COUNTS = [
    # (params, l), count
    (dict(Z=1.0, alpha=0.05), 0, 6),
    (dict(Z=1.0, alpha=1.0, D=2), 0, 1),
    # the deep count whose r_min the clamp keeps at 1e-6/alpha
    (dict(Z=2e6, alpha=1.0), 0, 1999),
]


@pytest.mark.parametrize("kwargs, nl, energy, estimate, shots, points", SOLVES,
                         ids=[f"D{kw.get('D', 3)}-n{n}-l{l}-Z{kw['Z']}-alpha{kw['alpha']}"
                              for kw, (n, l), *_ in SOLVES])
def test_solves_keep_their_bits(kwargs, nl, energy, estimate, shots, points):
    params, qn = PotentialParams(**kwargs), QuantumNumbers(*nl)
    result = solve_exact(params, qn.l, model.level(params, qn).nodes, default_config(params, qn))
    assert (result.energy.hex(), result.error_estimate.hex(), result.shots, result.points) == (
        energy, estimate, shots, points)


@pytest.mark.parametrize("kwargs, l, count", COUNTS,
                         ids=[f"D{kw.get('D', 3)}-l{l}-Z{kw['Z']}-alpha{kw['alpha']}"
                              for kw, l, _ in COUNTS])
def test_counts_keep_their_values(kwargs, l, count):
    assert count_bound_states(PotentialParams(**kwargs), l) == count
