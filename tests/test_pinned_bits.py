"""Exact bits of expectation_report and wavefunction_samples on six levels.

The values were recorded from the code before the quadrature kept its sums
as Python floats, shared one decay pair per node between V and the
centrifugal stand-in, and ran the Jacobi recurrence in place; each of those
changes is meant to leave every output bit as it was, and so is any later
change made for speed alone.  A change that moves a value on purpose
re-records it here and says so: U's factors were re-ordered so that C_n
meets exp(-eps t) first (model.Level.__call__), which moved the U and R
bits of five levels (all but D = 1, where v = 0) and the last bit of one
<V> quadrature.  The sha256 covers the bytes of r, U and R of the default
4000-point grid.  The bits are those of one numpy build: a numpy whose
exp, expm1 or sinh rounds differently moves them too.
"""

import hashlib

import pytest

from hulthen import PotentialParams, QuantumNumbers, expectation_report, wavefunction_samples

FIELDS = ("inv_r2_hft", "v_hft", "t_value", "inv_r2_quad_approx", "inv_r2_quad_exact", "v_quad")

PINNED = [
    # D = 3 ground state, its quadratures return at halving 3
    (dict(Z=1.0, alpha=0.05), (0, 0),
     ("0x1.ffae147ae147bp+0", "-0x1.f333333333334p-1", "0x1.ffae147ae147bp-2",
      "0x1.ffae147ae147dp+0", "0x1.ffbbba6c1fc42p+0", "-0x1.f333333333334p-1"),
     "0x1.3fe665602c8e7p+5", "8f4e9580ab9fd5093a0caa1dde7ade95cba953fbdb4c8f93feef7029ba5865f5"),
    # D = 2, l = 0: <V> alone
    (dict(Z=1.0, alpha=0.05, D=2), (1, 0),
     (None, "-0x1.ad82d82d82d84p-2", "0x1.c5abcdf012346p-3", None, None, "-0x1.ad82d82d82d83p-2"),
     "0x1.b7f63531b739dp+1", "dc487a59c214e8244df52af4e57dc4ca624562da0e1ce365095a4bd836502b0f"),
    # D = 1, where v = 0 and P_1 has its root on r = 0
    (dict(Z=1.0, alpha=0.05, D=1), (1, 0),
     ("0x1.ffae147ae147bp+0", "-0x1.f333333333334p-1", "0x1.ffae147ae147bp-2",
      "0x1.ffae147ae147cp+0", "0x1.ffbbba6c1fc41p+0", "-0x1.f333333333333p-1"),
     "0x1.ffd70899e0e3ep-1", "56a1c78fd4812f791c40e2b695e9b55458e47ffeed8aea02971616cf0ab6ed01"),
    # a level like those of the benchmark's reports, with Z, mu, hbar != 1
    (dict(Z=1.7, alpha=0.02, mu=0.8, hbar=1.2, D=4), (6, 1),
     ("0x1.3bd92a402bff1p-12", "-0x1.563e59a829df0p-8", "0x1.2e07aa009078ap-8",
      "0x1.3bd92a402bff5p-12", "0x1.5280943430102p-12", "-0x1.563e59a829df9p-8"),
     "0x1.b0a2167327560p-2", "466b13b8f3e9762e445255bab9b0e1f143e1679b2f575514ab1fd849aeefe14c"),
    # returns at halving 6, the first evaluated past the first pass
    (dict(Z=1.0, alpha=1e-3), (20, 0),
     ("0x1.aee12cddd4b5bp-13", "-0x1.cf5bdcdf7344cp-10", "0x1.1ac3c57193973p-10",
      "0x1.aee12cddd4b5ep-13", "0x1.af0cd014f512bp-13", "-0x1.cf5bdcdf73452p-10"),
     "0x1.ee3ac109d2ac1p-1", "2f7c287ab94e8558f5ccaada8e1fcbac5b768349b5d649631e1b965941a6ebb2"),
    # an eight-step Jacobi recurrence
    (dict(Z=1.0, alpha=0.01, D=5), (8, 2),
     ("0x1.4dfda9ec5e9a5p-14", "-0x1.fdb97530eca87p-10", "0x1.b65cef063c2a7p-10",
      "0x1.4dfda9ec5e9a4p-14", "0x1.668aed16415a7p-14", "-0x1.fdb97530eca88p-10"),
     "0x1.8711781705edfp-1", "fa9707fc257f195cc33a4547dba8ce8d64f140a9b394e73f53f9dc544ca01ba1"),
]


@pytest.mark.parametrize("kwargs, nl, report, norm, digest", PINNED,
                         ids=[f"D{kw.get('D', 3)}-n{n}-l{l}-alpha{kw['alpha']}"
                              for kw, (n, l), *_ in PINNED])
def test_outputs_keep_their_bits(kwargs, nl, report, norm, digest):
    params, qn = PotentialParams(**kwargs), QuantumNumbers(*nl)
    rep = expectation_report(params, qn)
    assert tuple(None if getattr(rep, f) is None else getattr(rep, f).hex()
                 for f in FIELDS) == report
    samples = wavefunction_samples(params, qn)
    assert samples.meta["norm_const"].hex() == norm
    sha = hashlib.sha256()
    for values in (samples.r_values, samples.U_values, samples.R_values):
        sha.update(values.tobytes())
    assert sha.hexdigest() == digest
