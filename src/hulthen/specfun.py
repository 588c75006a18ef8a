"""Jacobi polynomials for the bound-state eigenfunctions.

P_n^(a,b) is evaluated by its three-term recurrence in y = 1 + x, a pure
function of its arguments, so that it keeps its relative precision near
x = -1, where the eigenfunctions sample it at small r.  The Jacobi weight
(1-x)^a (1+x)^b is only an orthogonality statement for a, b > -1, while
pointwise evaluation is defined for any real a, b.
"""

import math

__all__ = ["jacobi_poly"]


def jacobi_poly(n: int, a: float, b: float):
    """P_n^(a,b) as a callable of y = 1 + x, a scalar or numpy array.

    The recurrence P_k = (A_k x + B_k) P_{k-1} - C_k P_{k-2} runs in y, with
    its middle coefficient B_k - A_k in cancellation-free form: -(b+1) at
    k = 1, and -2(s-1)[(a+b)(b+2k-1) + 2k(k-1)]/a_k for k >= 2, where
    s = 2k+a+b and a_k = 2k(k+a+b)(s-2).  The coefficients are computed
    once here, not at every y.  ValueError if one of them is not a finite
    float (A_k grows like a + b, and its numerator overflows first).
    """
    if n != int(n) or n < 0:
        raise ValueError(f"degree must be a nonnegative integer, got {n!r}")
    coeffs = [(0.5 * (a + b + 2.0), -(b + 1.0), 0.0)] if n >= 1 else []
    for k in range(2, int(n) + 1):
        s = 2.0 * k + a + b
        ak = 2.0 * k * (k + a + b) * (s - 2.0)
        mid = (a + b) * (b + 2.0 * k - 1.0) + 2.0 * k * (k - 1.0)
        coeffs.append(((s - 1.0) * s * (s - 2.0) / ak, -2.0 * (s - 1.0) * mid / ak,
                       2.0 * (k + a - 1.0) * (k + b - 1.0) * s / ak))
    if not all(math.isfinite(c) for triple in coeffs for c in triple):
        raise ValueError(f"Jacobi recurrence of P_{n}^({a!r}, {b!r}) is outside the float range")

    def poly(y):
        p_prev, p_cur = 0.0, y * 0.0 + 1.0
        for c_y, c_0, c_prev in coeffs:
            p_cur, p_prev = (c_y * y + c_0) * p_cur - c_prev * p_prev, p_cur
        return p_cur

    return poly
