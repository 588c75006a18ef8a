"""Jacobi polynomials for the bound-state eigenfunctions.

P_n^(a,b) is evaluated by its three-term recurrence, a pure function of
its arguments.  The Jacobi weight (1-x)^a (1+x)^b is only an
orthogonality statement for a, b > -1, while pointwise evaluation is
defined for any real a, b.
"""

import math

__all__ = ["jacobi_poly"]


def jacobi_poly(n: int, a: float, b: float):
    """P_n^(a,b) as a callable of a scalar or numpy array x.

    The coefficients of the recurrence P_k = (A_k x + B_k) P_{k-1} -
    C_k P_{k-2} are computed once here, not at every x.  ValueError if one
    of them is not a finite float (A_k grows like a + b, and its numerator
    overflows first).
    """
    if n != int(n) or n < 0:
        raise ValueError(f"degree must be a nonnegative integer, got {n!r}")
    coeffs = [(0.5 * (a + b + 2.0), 0.5 * (a - b), 0.0)] if n >= 1 else []
    for k in range(2, int(n) + 1):
        s = 2.0 * k + a + b
        ak = 2.0 * k * (k + a + b) * (s - 2.0)
        coeffs.append(((s - 1.0) * s * (s - 2.0) / ak, (s - 1.0) * (a * a - b * b) / ak,
                       2.0 * (k + a - 1.0) * (k + b - 1.0) * s / ak))
    if not all(math.isfinite(c) for triple in coeffs for c in triple):
        raise ValueError(f"Jacobi recurrence of P_{n}^({a!r}, {b!r}) is outside the float range")

    def poly(x):
        p_prev, p_cur = 0.0, x * 0.0 + 1.0
        for c_x, c_0, c_prev in coeffs:
            p_cur, p_prev = (c_x * x + c_0) * p_cur - c_prev * p_prev, p_cur
        return p_cur

    return poly
