"""Reduction pipeline for hypergeometric-type second-order ODEs.

Equations of the form

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

All coefficients are plain numbers; nothing here is symbolic.
"""

import math
from dataclasses import dataclass, replace

__all__ = [
    "QuadPoly",
    "NUProblem",
    "NUBranch",
    "t_roots",
    "pi_branches",
    "branches",
    "select_branch",
    "eigen_condition",
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

    def deriv(self) -> "QuadPoly":
        return QuadPoly(self.c1, 2.0 * self.c2, 0.0)

    @property
    def degree(self) -> int:
        if self.c2 != 0.0:
            return 2
        if self.c1 != 0.0:
            return 1
        return 0


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
    ambiguous is set by select_branch when more than one candidate had a
    negative tau slope and the most negative one was chosen.
    """

    t: float
    pi: QuadPoly
    tau: QuadPoly
    lam: float
    tau_slope: float
    ambiguous: bool = False


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
    if abs(a) > _COEF_TOL * scale:
        resid = b * b - 4.0 * a * c
        # A, B and C are differences of larger terms when t is large; their
        # rounding error, and that of t, scales with those terms
        a_terms = h1 * h1 + abs(p.sigma_tilde.c2) + abs(t * p.sigma.c2)
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
        # degenerate: under-root is linear/constant; a perfect square needs b ~ 0
        if abs(b) > SQUARE_TOL * max(abs(c), scale):
            raise ValueError(
                f"under-root polynomial is linear (not a square) at t = {t!r}"
            )
        if c < -SQUARE_TOL * scale:
            raise ValueError(f"under-root constant is negative at t = {t!r}")
        w = QuadPoly(math.sqrt(max(c, 0.0)), 0.0, 0.0)
    minus = QuadPoly(h0 - w.c0, h1 - w.c1, 0.0)
    plus = QuadPoly(h0 + w.c0, h1 + w.c1, 0.0)
    return [minus, plus]


def branches(p: NUProblem, ts: list[float] | None = None) -> list[NUBranch]:
    """Enumerate every (t, sign) branch of the problem."""
    if ts is None:
        ts = t_roots(p)
    out = []
    for t in ts:
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

    If several candidates qualify the most negative slope wins and the
    result is flagged ambiguous.  Raises ValueError when no candidate has
    a negative slope (the problem supports no bound states).
    """
    if not candidates:
        raise ValueError("no candidate branches given")
    negatives = [b for b in candidates if b.tau_slope < 0.0]
    if not negatives:
        raise ValueError("no branch with negative tau slope: no bound-state branch")
    best = min(negatives, key=lambda b: b.tau_slope)
    return replace(best, ambiguous=len(negatives) > 1)


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
