"""Reference special functions for the tests.

The rising factorial and the terminating 2F1 sum give the Jacobi
polynomials a second, independent form (P_n^(a,b)(1-2s) =
(a+1)_n/n! 2F1(-n, a+b+n+1; a+1; s)) that the recurrence in
hulthen.specfun is checked against; the Beta function gives the n = 0
normalization constant in closed form.  The level formula in its
original bracket form is the reference the closed-form energies and
their parameter derivatives are checked against.
"""

import math


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
