"""Real-valued special functions backing the bound-state model.

Log-gamma, Beta, rising factorials, terminating hypergeometric sums and
Jacobi polynomials.  Everything is a pure function of its arguments; the
Jacobi weight (1-x)^a (1+x)^b is only an orthogonality statement for
a, b > -1, while pointwise evaluation is defined for any real a, b.
"""

import math

__all__ = [
    "ln_gamma",
    "beta",
    "pochhammer",
    "hyp_terminating",
    "jacobi_poly",
]


def ln_gamma(x: float) -> float:
    """Natural logarithm of the Gamma function for x > 0."""
    x = float(x)
    if math.isnan(x) or math.isinf(x) or x <= 0.0:
        raise ValueError(f"ln_gamma requires a finite x > 0, got {x!r}")
    return math.lgamma(x)


def beta(x: float, y: float) -> float:
    """Euler Beta function B(x, y) = Gamma(x)Gamma(y)/Gamma(x+y), x, y > 0.

    Evaluated in log space so large arguments do not overflow.
    """
    return math.exp(ln_gamma(x) + ln_gamma(y) - ln_gamma(x + y))


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


def jacobi_poly(n: int, a: float, b: float):
    """P_n^(a,b) as a callable of a scalar or numpy array x.

    The coefficients of the recurrence P_k = (A_k x + B_k) P_{k-1} -
    C_k P_{k-2} are computed once here, not at every x.
    """
    if n != int(n) or n < 0:
        raise ValueError(f"degree must be a nonnegative integer, got {n!r}")
    coeffs = [(0.5 * (a + b + 2.0), 0.5 * (a - b), 0.0)] if n >= 1 else []
    for k in range(2, int(n) + 1):
        s = 2.0 * k + a + b
        ak = 2.0 * k * (k + a + b) * (s - 2.0)
        coeffs.append(((s - 1.0) * s * (s - 2.0) / ak, (s - 1.0) * (a * a - b * b) / ak,
                       2.0 * (k + a - 1.0) * (k + b - 1.0) * s / ak))

    def poly(x):
        p_prev, p_cur = 0.0, x * 0.0 + 1.0
        for c_x, c_0, c_prev in coeffs:
            p_cur, p_prev = (c_x * x + c_0) * p_cur - c_prev * p_prev, p_cur
        return p_cur

    return poly

