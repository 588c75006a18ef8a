"""Reference for the tests: the Nikiforov-Uvarov (NU) reduction of the
paper, which the closed-form spectrum of hulthen.model is checked against.

NU reduces hypergeometric-type second-order ODEs, equations of the form

    psi'' + (tau_t(s)/sigma(s)) psi' + (sigma_t(s)/sigma(s)^2) psi = 0

with polynomial coefficients (sigma, sigma_t of degree <= 2, tau_t of
degree <= 1) admit polynomial solutions once an auxiliary linear
polynomial pi(s) is constructed.  pi(s) involves the square root of a
quadratic; the construction only works for the parameter values t that
make that quadratic a perfect square.  This module enumerates those t,
builds the +/- sign branches, selects the physically valid branch (the
full drift tau = tau_t + 2 pi must have negative slope for normalizable
solutions) and evaluates the polynomial-termination condition that
quantizes the spectrum.

hulthen_problem(epsilon, delta, gamma) maps the Hulthen radial equation
in s = exp(-alpha r) to such a problem; the tests check that the
closed-form epsilon of model.level zeroes its termination condition.
All coefficients are plain numbers; nothing here is symbolic, and this
module imports nothing from the package, so the check stays independent
of the closed forms it verifies.
"""

import math
from dataclasses import dataclass

__all__ = [
    "QuadPoly",
    "NUProblem",
    "NUBranch",
    "t_roots",
    "pi_branches",
    "branches",
    "select_branch",
    "eigen_condition",
    "hulthen_problem",
]

# residual tolerance for "the under-root quadratic is a perfect square"
SQUARE_TOL = 1e-10
# relative tolerance for treating polynomial coefficients as zero
_COEF_TOL = 1e-13


@dataclass(frozen=True)
class QuadPoly:
    """Polynomial c0 + c1*s + c2*s**2."""

    c0: float = 0.0
    c1: float = 0.0
    c2: float = 0.0

    def __post_init__(self):
        for c in (self.c0, self.c1, self.c2):
            if not math.isfinite(c):
                raise ValueError(f"polynomial coefficients must be finite, got {self!r}")

    def __call__(self, s: float) -> float:
        return self.c0 + s * (self.c1 + s * self.c2)


@dataclass(frozen=True)
class NUProblem:
    """Coefficient triple (sigma, sigma_t, tau_t) of a hypergeometric-type ODE."""

    sigma: QuadPoly
    sigma_tilde: QuadPoly
    tau_tilde: QuadPoly

    def __post_init__(self):
        if self.tau_tilde.c2 != 0.0:
            raise ValueError("tau_tilde must have degree <= 1")
        if self.sigma.c0 == 0.0 and self.sigma.c1 == 0.0 and self.sigma.c2 == 0.0:
            raise ValueError("sigma must not be identically zero")


@dataclass(frozen=True)
class NUBranch:
    """One (t, sign) branch of the pipeline.

    tau = tau_tilde + 2*pi and lam = t + pi' always hold as stored.
    """

    t: float
    pi: QuadPoly
    tau: QuadPoly
    lam: float
    tau_slope: float


def _half_diff(p: NUProblem) -> tuple[float, float]:
    """Linear polynomial (sigma' - tau_tilde)/2 as (constant, slope)."""
    h0 = 0.5 * (p.sigma.c1 - p.tau_tilde.c0)
    h1 = 0.5 * (2.0 * p.sigma.c2 - p.tau_tilde.c1)
    return h0, h1


def _under_root(p: NUProblem, t: float) -> tuple[float, float, float]:
    """Coefficients (A, B, C) of ((sigma'-tau_t)/2)^2 - sigma_t + t*sigma."""
    h0, h1 = _half_diff(p)
    a = h1 * h1 - p.sigma_tilde.c2 + t * p.sigma.c2
    b = 2.0 * h0 * h1 - p.sigma_tilde.c1 + t * p.sigma.c1
    c = h0 * h0 - p.sigma_tilde.c0 + t * p.sigma.c0
    return a, b, c


def t_roots(p: NUProblem) -> list[float]:
    """All real t for which the under-root quadratic has a double zero.

    The discriminant of the under-root quadratic in s is itself a
    quadratic in t; its real roots are returned sorted ascending.  A
    degenerate leading coefficient reduces to a linear solve; if the
    discriminant vanishes identically (every t admissible) the canonical
    representative t = 0 is returned.
    """
    h0, h1 = _half_diff(p)
    a0 = h1 * h1 - p.sigma_tilde.c2
    b0 = 2.0 * h0 * h1 - p.sigma_tilde.c1
    c0 = h0 * h0 - p.sigma_tilde.c0
    a1, b1, c1 = p.sigma.c2, p.sigma.c1, p.sigma.c0

    # discriminant B(t)^2 - 4 A(t) C(t) as qa*t^2 + qb*t + qc
    qa = b1 * b1 - 4.0 * a1 * c1
    qb = 2.0 * b0 * b1 - 4.0 * (a0 * c1 + a1 * c0)
    qc = b0 * b0 - 4.0 * a0 * c0

    scale = max(abs(qa), abs(qb), abs(qc))
    if scale == 0.0:
        return [0.0]
    if abs(qa) <= _COEF_TOL * scale:
        if abs(qb) <= _COEF_TOL * scale:
            return []  # constant nonzero discriminant: no admissible t
        return [-qc / qb]
    disc = qb * qb - 4.0 * qa * qc
    disc_scale = max(qb * qb, abs(4.0 * qa * qc))
    # qb and qc are differences of larger terms, which set the rounding of disc
    rounding = (abs(qb) * (abs(2.0 * b0 * b1) + 4.0 * (abs(a0 * c1) + abs(a1 * c0)))
                + 4.0 * abs(qa) * (b0 * b0 + abs(4.0 * a0 * c0)))
    # a double root is detected on the discriminant scale, or at ~450 ulp of
    # that rounding, and returned as -qb/(2 qa) directly: taking sqrt of a
    # roundoff-level discriminant would cost half the available precision
    if abs(disc) <= max(1e-12 * disc_scale, 1e-13 * rounding):
        return [-qb / (2.0 * qa)]
    if disc < 0.0:
        return []
    root = math.sqrt(disc)
    r1 = (-qb - root) / (2.0 * qa)
    r2 = (-qb + root) / (2.0 * qa)
    return sorted((r1, r2))


def pi_branches(p: NUProblem, t: float) -> list[QuadPoly]:
    """The two sign branches of pi(s) for an admissible t, [minus, plus].

    t must make the under-root expression a perfect square; its linear
    square root w(s) is extracted from the double root, and the branches
    are (sigma'-tau_t)/2 -/+ w.  Raises ValueError when the residual
    discriminant exceeds SQUARE_TOL after scaling.
    """
    a, b, c = _under_root(p, t)
    h0, h1 = _half_diff(p)
    scale = max(abs(a), abs(b), abs(c), 1e-300)
    # A, B and C are differences of larger terms when t is large; their
    # rounding error, and that of t, scales with those terms
    a_terms = h1 * h1 + abs(p.sigma_tilde.c2) + abs(t * p.sigma.c2)
    # an A within a_round of 0 is rounding: at delta = 20, eps = 0.5, gamma
    # = 0 and t = 20.50000000000006, A = -5.7e-14 is what is left of terms
    # of size 41, though it is above 1e-13 max(|B|, |C|) = 2.5e-14
    a_round = _COEF_TOL * max(scale, a_terms)
    if abs(a) > a_round:
        resid = b * b - 4.0 * a * c
        b_terms = abs(2.0 * h0 * h1) + abs(p.sigma_tilde.c1) + abs(t * p.sigma.c1)
        c_terms = h0 * h0 + abs(p.sigma_tilde.c0) + abs(t * p.sigma.c0)
        resid_scale = abs(b) * b_terms + 4.0 * (abs(c) * a_terms + abs(a) * c_terms)
        if abs(resid) > SQUARE_TOL * max(b * b, abs(4.0 * a * c), a * a, resid_scale):
            raise ValueError(
                f"under-root quadratic is not a perfect square at t = {t!r} "
                f"(residual discriminant {resid:.3e})"
            )
        if a < 0.0:
            raise ValueError(f"under-root quadratic is nonpositive at t = {t!r}")
        sqrt_a = math.sqrt(a)
        s_star = -b / (2.0 * a)
        w = QuadPoly(-sqrt_a * s_star, sqrt_a, 0.0)
    else:
        # degenerate: a is lost to rounding, as a = k^2 is where the square
        # is (sqrt(c) + k s)^2 with a small k = b/(2 sqrt(c)); its s^2 term
        # b^2/(4c) must then be below a's rounding as well
        if c < -SQUARE_TOL * scale:
            raise ValueError(f"under-root constant is negative at t = {t!r}")
        c = max(c, 0.0)
        if b * b > 4.0 * a_round * c:
            raise ValueError(
                f"under-root polynomial is linear (not a square) at t = {t!r}"
            )
        root_c = math.sqrt(c)
        w = QuadPoly(root_c, b / (2.0 * root_c) if root_c else 0.0, 0.0)
    minus = QuadPoly(h0 - w.c0, h1 - w.c1, 0.0)
    plus = QuadPoly(h0 + w.c0, h1 + w.c1, 0.0)
    return [minus, plus]


def branches(p: NUProblem) -> list[NUBranch]:
    """Enumerate every (t, sign) branch of the problem."""
    out = []
    for t in t_roots(p):
        for pi in pi_branches(p, t):
            tau = QuadPoly(
                p.tau_tilde.c0 + 2.0 * pi.c0,
                p.tau_tilde.c1 + 2.0 * pi.c1,
                0.0,
            )
            out.append(
                NUBranch(t=t, pi=pi, tau=tau, lam=t + pi.c1, tau_slope=tau.c1)
            )
    return out


def select_branch(candidates: list[NUBranch]) -> NUBranch:
    """Pick the bound-state branch: negative tau slope.

    If several candidates qualify the most negative slope wins.  Raises
    ValueError when no candidate has a negative slope (the problem
    supports no bound states).
    """
    if not candidates:
        raise ValueError("no candidate branches given")
    negatives = [b for b in candidates if b.tau_slope < 0.0]
    if not negatives:
        raise ValueError("no branch with negative tau slope: no bound-state branch")
    return min(negatives, key=lambda b: b.tau_slope)


def eigen_condition(branch: NUBranch, sigma: QuadPoly, n: int) -> float:
    """Residual of the termination condition for polynomial degree n.

    lam must equal -n tau' - n(n-1)/2 sigma'' for a degree-n polynomial
    solution to exist; the returned residual vanishes exactly on the
    quantized spectrum.
    """
    if n != int(n) or n < 0:
        raise ValueError(f"polynomial degree must be a nonnegative integer, got {n!r}")
    n = int(n)
    rhs = -n * branch.tau_slope - 0.5 * n * (n - 1) * (2.0 * sigma.c2)
    return branch.lam - rhs


def hulthen_problem(epsilon: float, delta: float, gamma: float) -> NUProblem:
    """Hypergeometric-type coefficients of the s = exp(-alpha r) equation.

    sigma = s(1-s), tau_t = 1-s, and sigma_t collects the energy,
    strength and centrifugal terms of the transformed radial equation.
    """
    e2 = epsilon * epsilon
    return NUProblem(
        sigma=QuadPoly(0.0, 1.0, -1.0),
        sigma_tilde=QuadPoly(-e2, 2.0 * e2 + delta - gamma, -(e2 + delta)),
        tau_tilde=QuadPoly(1.0, -1.0, 0.0),
    )
