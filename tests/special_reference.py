"""Reference special functions for the tests.

The rising factorial and the terminating 2F1 sum give the Jacobi
polynomials a second, independent form (P_n^(a,b)(1-2s) =
(a+1)_n/n! 2F1(-n, a+b+n+1; a+1; s)) that the recurrence in
hulthen.specfun is checked against; the Beta function gives the n = 0
normalization constant in closed form.  The level formula in its
original bracket form is the reference the closed-form energies and
their parameter derivatives are checked against, the paper's printed
Feynman-Hellmann values in exact rationals are the reference for
model.Level's, and sign_changes counts the nodes of a sampled
wavefunction.
"""

import math
from fractions import Fraction

import numpy as np


def beta(x: float, y: float) -> float:
    """Euler Beta function B(x, y) = Gamma(x)Gamma(y)/Gamma(x+y), x, y > 0,
    in log space so large arguments do not overflow."""
    return math.exp(math.lgamma(x) + math.lgamma(y) - math.lgamma(x + y))


def pochhammer(a: float, k: int) -> float:
    """Rising factorial (a)_k = a (a+1) ... (a+k-1), with (a)_0 = 1.

    Computed as a direct product, not a gamma ratio, so negative-integer
    bases terminate at exactly zero instead of hitting gamma poles.
    """
    if k != int(k) or k < 0:
        raise ValueError(f"pochhammer order must be a nonnegative integer, got {k!r}")
    out = 1.0
    for i in range(int(k)):
        out *= a + i
    return out


def hyp_terminating(n: int, b: float, c: float, s: float) -> float:
    """2F1(-n, b; c; s) evaluated as the exact finite sum over k = 0..n.

    c must not be zero or a negative integer above -n, otherwise a
    denominator Pochhammer (c)_k vanishes before the series terminates.
    """
    if n != int(n) or n < 0:
        raise ValueError(f"series order must be a nonnegative integer, got {n!r}")
    n = int(n)
    c_round = round(c)
    if abs(c - c_round) < 1e-12 and c_round <= 0 and -c_round <= n - 1:
        raise ValueError(f"denominator Pochhammer vanishes: c = {c!r} with n = {n}")
    total = 1.0
    term = 1.0
    for k in range(n):
        denom = (c + k) * (k + 1)
        if denom == 0.0:
            raise ValueError(f"denominator Pochhammer vanishes at k = {k + 1}")
        term *= (k - n) * (b + k) / denom * s
        total += term
    return total


def level_bracket(Z, alpha, mu, hbar, dim, n, l):
    """The bracket of the level formula, 1/2 + (n(n+2l+D-2) + gamma -
    delta)/Lambda; the level exists where it is negative (l may be real)."""
    delta = 2.0 * Z * mu / (alpha * hbar**2)
    gamma = (2 * l + dim - 1) * (2 * l + dim - 3) / 4.0
    lam = 2 * n + 2 * l + dim - 1
    return 0.5 + (n * (n + 2 * l + dim - 2) + gamma - delta) / lam


def bracket_energy(Z, alpha, mu, hbar, dim, n, l):
    """The D-dimensional level in its original bracket form (l may be real)."""
    bracket = level_bracket(Z, alpha, mu, hbar, dim, n, l)
    return -(alpha**2 * hbar**2) / (2.0 * mu) * bracket**2


def feynman_hellmann_exact(Z, alpha, mu, hbar, dim, n, l):
    """(dE/dl, <r^-2>, <V>, <T>) of the level (n, l) by the paper's printed
    forms, evaluated exactly in Fractions of the float inputs:

        dE/dl  = alpha^2 hbar^2 (16 delta^2 - Lambda^4) / (8 mu Lambda^3)
        <r^-2> = (alpha^2/4) (16 delta^2 - Lambda^4) / (|2l+D-2| Lambda^3)
        <V>    = (2 alpha Z / Lambda) [1/2 + (n(n+2l+D-2) + gamma - delta)/Lambda]

    and <T> = E - <V> with E = -(alpha^2 hbar^2/(2 mu)) [...]^2.  <r^-2> is
    None where 2l+D-2 = 0.
    """
    Z, alpha, mu, hbar = map(Fraction, (Z, alpha, mu, hbar))
    delta = 2 * Z * mu / (alpha * hbar**2)
    gamma = Fraction((2 * l + dim - 1) * (2 * l + dim - 3), 4)
    lam = 2 * n + 2 * l + dim - 1
    bracket = Fraction(1, 2) + (n * (n + 2 * l + dim - 2) + gamma - delta) / lam
    core = (16 * delta**2 - lam**4) / lam**3
    w = abs(2 * l + dim - 2)
    v_mean = 2 * alpha * Z / lam * bracket
    energy = -(alpha * hbar) ** 2 / (2 * mu) * bracket**2
    return (alpha**2 * hbar**2 * core / (8 * mu), alpha**2 / 4 * core / w if w else None,
            v_mean, energy - v_mean)


def sign_changes(values) -> int:
    """Sign changes of a sampled function, ignoring samples below 1e-9 of
    its peak (the rounding floor of a sample near a node)."""
    v = np.asarray(values, dtype=float)
    peak = np.max(np.abs(v)) if v.size else 0.0
    if peak == 0.0:
        return 0
    signs = np.sign(v[np.abs(v) > 1e-9 * peak])
    return int(np.sum(signs[1:] != signs[:-1]))
