"""The screened-Coulomb (Hulthen) potential in D spatial dimensions.

The potential -Z*alpha*exp(-alpha*r)/(1 - exp(-alpha*r)) behaves like
-Z/r near the origin and decays exponentially.  After separating the
hyperangular part, the reduced radial function U(r) = r^((D-1)/2) R(r)
obeys a one-dimensional equation with the centrifugal coefficient
gamma = (2l+D-1)(2l+D-3)/4.  Replacing 1/r^2 by its exponential
counterpart alpha^2 e^{-ar}/(1-e^{-ar})^2 (accurate for small alpha)
makes the equation hypergeometric-type in s = exp(-alpha*r), which
yields a closed-form spectrum and Jacobi-polynomial eigenfunctions.

Dimensionless quantities used throughout:

    epsilon = sqrt(-2 mu E) / (alpha hbar)      scaled decay momentum
    delta   = 2 Z mu / (alpha hbar^2)           screening-scaled strength
    gamma   = (2l+D-1)(2l+D-3)/4                centrifugal coefficient
    v       = 2l+D-1
    Lambda  = 2n+2l+D-1
    kappa   = alpha epsilon                     decay momentum (an inverse length)

A bound state with radial index n exists iff delta > m^2 with
m = n + l + (D-1)/2 = Lambda/2 (and m > 0), in which case

    epsilon = (delta - m^2) / (2 m),   E = -(alpha hbar epsilon)^2 / (2 mu).

Its reduced wavefunction is U(r) = C_n s^eps (1-s)^(v/2) P_n^(2eps, v-1)(1-2s).
level(params, qn) builds one frozen Level record per bound state: the
dimensionless set above, E, C_n (a closed form, a finite product) and the
Jacobi recurrence.  Its properties give the paper's Feynman-Hellmann
values dE/dl, <r^-2>, <V> and <T>, and the node count of U.  Every
consumer reads the level's quantities from it, and calling it evaluates
U from alpha*r, never through s itself, with P_n in y = 1 + x = 2(1-s)
so that U keeps its relative precision as r -> 0.  A level that does not
exist raises NoBoundState, and one whose delta, E or C_n leaves the
float range raises ValueError, as do dE/dl, <r^-2> and <V> when read.

level keeps the last Level it built (a one-slot memo), so the calls that
one request makes on one level share a single record.

A grid is a numpy array of radii: default_grid spaces them evenly over
the state, and wavefunction_samples takes any increasing ones and puts
their ends and size in its meta.  Every radius is held to a finite
positive real by one rule: a caller's radii are checked one by one
(_radii: potential, centrifugal_approx and wavefunction_samples with a
grid), and a grid the program builds, whose radii increase by
construction, at its two ends (_check_ends), which holds every radius
between them: the even grid before linspace runs (default_grid), the
oracle's ln r grid (oracle._log_grid) and the quadrature nodes of
expectation before any sample.  V and the centrifugal term are formed
from the decay pair e^{-ar}, e^{-ar} - 1 (_decay) by _potential and
_centrifugal, so a caller that needs both at the same radii evaluates the
exponentials once; _decay checks nothing.

The closed forms use math alone.  V, the centrifugal term and U use numpy
for floats and arrays alike (a float comes back as a numpy float64), and
so do the grid and sampling functions; each imports numpy when first
called.  From the package, model imports specfun alone.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass, field

from . import specfun

__all__ = [
    "PotentialParams",
    "QuantumNumbers",
    "BoundState",
    "Level",
    "NoBoundState",
    "RadialSamples",
    "potential",
    "centrifugal_approx",
    "energy",
    "level",
    "spectrum",
    "normalization_constant",
    "wavefunction_samples",
    "default_grid",
]


@dataclass(frozen=True)
class PotentialParams:
    """Physical inputs: strength Z, screening alpha, mass mu, hbar, dimension D."""

    Z: float
    alpha: float
    mu: float = 1.0
    hbar: float = 1.0
    D: int = 3

    def __post_init__(self):
        for name in ("Z", "alpha", "mu", "hbar"):
            val = getattr(self, name)
            if not (math.isfinite(val) and val > 0.0):
                raise ValueError(f"{name} must be a finite positive real, got {val!r}")
        _check_index("dimension", self.D, least=1)


@dataclass(frozen=True)
class QuantumNumbers:
    """Radial index n >= 0 (ground state n = 0) and angular momentum l >= 0."""

    n: int
    l: int = 0

    def __post_init__(self):
        _check_index("n", self.n)
        _check_index("l", self.l)


def _check_index(name: str, value, least: int = 0) -> None:
    """ValueError "{name} must be an integer >= {least}, got {value!r}" unless
    value is an integer >= least, also where int() itself fails (inf, nan or
    no number at all).

    Callers and their least: PotentialParams (dimension, 1), QuantumNumbers
    (n and l, 0), spectrum (n_max, 0), default_grid (points, 2), and in
    oracle solve_exact (l and target_nodes, 0) and count_bound_states (l, 0).
    """
    try:
        whole = value == int(value)
    except (TypeError, ValueError, OverflowError):
        whole = False
    if not whole or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


@dataclass(frozen=True)
class BoundState:
    """One (n, l) level.  energy/epsilon are None when no bound state exists."""

    qn: QuantumNumbers
    energy: float | None
    epsilon: float | None
    exists: bool


class NoBoundState(ValueError):
    """The requested (n, l) level does not exist for these parameters."""


@dataclass(frozen=True)
class Level:
    """One existing bound state, built once by level(params, qn).

    The dimensionless set, E, C_n and the recurrence of P_n^(2eps, v-1).
    Called with t = alpha*r (a float or an array) it returns U.
    s^eps = exp(-eps t), 1 - s = -expm1(-t) and P_n takes y = 1 + x = -2 expm1(-t):
    s itself is never formed, so U underflows only where U itself does, and
    keeps its relative precision as r -> 0, where x = 1 - 2s rounds onto -1.

    Its properties are the level's expectation values by the
    Feynman-Hellmann theorem, dE/dq = <dH/dq>: the derivative in Z gives
    <V>, the one in l gives <r^-2> (precisely, of the exponential
    centrifugal stand-in the eigenfunctions solve), and <T> = E - <V>.
    With E = -hbar^2 kappa^2/(2 mu), kappa = Z mu/(hbar^2 m) - alpha m/2 and
    dm/dl = 1, each is one term where the paper prints 16 delta^2 - Lambda^4:

        <V>    = Z dE/dZ = -Z kappa/m
        dE/dl  = -(hbar^2 kappa/mu) dkappa/dm = kappa (Z/m^2 + alpha hbar^2/(2 mu))
        <r^-2> = (2 mu/hbar^2) (dE/dl)/|2l+D-2| = kappa (2 mu Z/(hbar^2 m^2) + alpha)/|2l+D-2|

    A level has alpha hbar^2/(2 mu) < Z/m^2, so nothing cancels.  For l = 0
    in D = 1 the continued level is not the physical branch, so dE_dl is the
    formula's derivative, not that of the true level curve; dgamma/dl and
    that branch flip sign together there, hence |2l+D-2|.
    """

    epsilon: float
    delta: float
    gamma: float
    v: float
    Lambda: float
    params: PotentialParams
    qn: QuantumNumbers
    energy: float
    norm: float
    poly: Callable = field(repr=False, compare=False)

    def _formed(self, what: str, formula: Callable[..., float]) -> float:
        """formula(params, kappa, m), or ValueError naming `what` of this
        level when it is not a finite nonzero float."""
        qn, p = self.qn, self.params
        return _in_float_range(f"{what} of n={qn.n}, l={qn.l}, D={p.D}",
                               lambda: formula(p, p.alpha * self.epsilon, 0.5 * self.Lambda))

    @property
    def dE_dl(self) -> float:
        """Derivative of the closed-form level in the (continuous) angular
        momentum l."""
        return self._formed("dE/dl", lambda p, kappa, m:
                            kappa * (p.Z / m**2 + p.alpha * p.hbar**2 / (2.0 * p.mu)))

    @property
    def inv_r2(self) -> float | None:
        """<r^-2>, or None for l = 0 in D = 2, where 2l+D-2 = 0 (and the
        |U|^2-weighted integral of 1/r^2 diverges at the origin)."""
        w = self.v - 1.0  # 2l+D-2
        if w == 0:
            return None
        return self._formed("<r^-2>", lambda p, kappa, m:
                            kappa * (2.0 * p.mu * p.Z / (p.hbar * m) ** 2 + p.alpha) / abs(w))

    @property
    def v_mean(self) -> float:
        """<V>, negative for every bound state."""
        return self._formed("<V>", lambda p, kappa, m: -p.Z * kappa / m)

    @property
    def t_mean(self) -> float:
        """<T> = E - <V>."""
        return self.energy - self.v_mean

    @property
    def nodes(self) -> int:
        """Interior sign changes of U: n, except n - 1 where v = 2l+D-1 = 0
        (l = 0 in D = 1), whose Jacobi factor has a root on r = 0 itself."""
        return self.qn.n - 1 if self.v == 0 else self.qn.n

    def __call__(self, t):
        """C_n s^eps (1 - s)^(v/2) P_n(y), from the left: where C_n is huge,
        (1 - s)^(v/2) may be subnormal (~1e-300 r at alpha = 1e-300)."""
        import numpy as np

        em = np.expm1(-t)  # -(1 - s) = -y/2
        return (self.norm * np.exp(-self.epsilon * t) * (-em) ** (0.5 * self.v)
                * self.poly(-2.0 * em))


@dataclass(frozen=True)
class RadialSamples:
    """Sampled reduced wavefunction U(r) and hyperradial R(r) = r^-(D-1)/2 U."""

    r_values: np.ndarray
    U_values: np.ndarray
    R_values: np.ndarray
    meta: dict = field(default_factory=dict)


def _gamma_coeff(l: int, dim: int) -> float:
    return (2 * l + dim - 1) * (2 * l + dim - 3) / 4.0


def _angular_v(l: int, dim: int) -> int:
    return 2 * l + dim - 1


def _lambda(n: int, l: int, dim: int) -> float:
    return 2.0 * n + 2.0 * l + dim - 1.0


def _in_float_range(what: str, formula: Callable[[], float]) -> float:
    """formula(), or ValueError when it overflows, divides by zero or is
    not a finite nonzero float (delta, E, C_n and the Feynman-Hellmann
    values are nonzero by construction, so a 0 is an underflow)."""
    try:
        value = formula()
    except (OverflowError, ZeroDivisionError):
        value = math.inf
    if not 0.0 < abs(value) < math.inf:
        raise ValueError(f"{what} is outside the float range")
    return value


def _sqrt_of_product(factors) -> float:
    """sqrt(prod(factors)) for positive factors, with the product kept as a
    mantissa in [0.5, 1) and a power of 2, so that only the root has to be
    a float; math.ldexp raises OverflowError where it is not."""
    mant, exp = 1.0, 0
    for f in factors:
        f_mant, f_exp = math.frexp(f)
        mant, m_exp = math.frexp(mant * f_mant)
        exp += f_exp + m_exp
    if exp % 2:
        mant, exp = 2.0 * mant, exp - 1
    return math.ldexp(math.sqrt(mant), exp // 2)


def _delta(params: PotentialParams) -> float:
    return _in_float_range(
        "delta = 2 Z mu/(alpha hbar^2)",
        lambda: 2.0 * params.Z * params.mu / (params.alpha * params.hbar**2))


def _radii(r) -> np.ndarray:
    """r, a float or an array of a caller's radii, as a float array;
    ValueError unless every radius is a finite positive real."""
    import numpy as np

    r = np.asarray(r, dtype=float)
    if not np.all((r > 0.0) & (r < math.inf)):
        raise ValueError("radii must be finite positive reals")
    return r


def _check_ends(first, last) -> None:
    """ValueError, as _radii's, unless the two ends of a grid whose radii
    increase by construction are finite positive reals, which holds every
    radius between them."""
    if not (0.0 < first and last < math.inf):
        raise ValueError("radii must be finite positive reals")


def _decay(r, alpha: float):
    """e^{-ar} and e^{-ar} - 1 (by expm1) at the radii r, from one -ar.  r is
    an array its caller has checked (_radii, or _check_ends at its two
    ends); _decay checks nothing."""
    import numpy as np

    u = -alpha * r
    return np.exp(u), np.expm1(u)


def potential(r, params: PotentialParams):
    """The screened potential -Z alpha e^{-ar}/(1 - e^{-ar}) at radius r > 0,
    for a float or an array of radii.

    1 - e^{-ar} is taken as -expm1(-ar), so the Coulomb-like small-r regime
    -Z/r + Z alpha/2 + ... is reproduced without cancellation and nothing
    overflows at large r.
    """
    return _potential(*_decay(_radii(r), params.alpha), params)


def _potential(e, em, params: PotentialParams):
    """potential from the decay pair (e, em) = _decay(r, params.alpha)."""
    return params.Z * params.alpha * e / em


def centrifugal_approx(r, alpha: float):
    """Exponential stand-in for 1/r^2: alpha^2 e^{-ar}/(1 - e^{-ar})^2, for
    a float or an array of radii.

    Equals 1/r^2 - alpha^2/12 + O(alpha^4 r^2) for small alpha*r.  With
    1 - e^{-ar} taken as -expm1(-ar) the one expression neither cancels
    at small alpha*r nor overflows at large alpha*r.
    """
    return _centrifugal(*_decay(_radii(r), alpha), alpha)


def _centrifugal(e, em, alpha: float):
    """centrifugal_approx from the decay pair (e, em) = _decay(r, alpha)."""
    return e * (alpha / em) ** 2


def energy(params: PotentialParams, qn: QuantumNumbers) -> BoundState:
    """Closed-form bound-state energy for (n, l), or a no-state marker.

    Uses the compact form epsilon = (delta - m^2)/(2m), m = n+l+(D-1)/2,
    which is algebraically identical to the full bracket expression (see
    the test suite for the verified equivalence).  Existence additionally
    requires m > 0, which only fails for n = l = 0 in D = 1 where the
    level formula is singular and the would-be state is spurious.
    """
    m = 0.5 * _lambda(qn.n, qn.l, params.D)
    delta = _delta(params)
    if m <= 0.0 or delta <= m * m:
        return BoundState(qn=qn, energy=None, epsilon=None, exists=False)
    eps = (delta - m * m) / (2.0 * m)
    e_val = _in_float_range(
        f"energy of n={qn.n}, l={qn.l}, D={params.D}",
        lambda: -((params.alpha * params.hbar * eps) ** 2) / (2.0 * params.mu))
    return BoundState(qn=qn, energy=e_val, epsilon=eps, exists=True)


@functools.lru_cache(maxsize=1)
def level(params: PotentialParams, qn: QuantumNumbers) -> Level:
    """The Level record of (n, l); NoBoundState when the level does not exist.

    The last record built is kept, and equal arguments get that same
    (frozen) record back, with the params of the call that built it (equal
    as dataclasses compare, so a record built for D=3.0 also serves D=3).
    One slot suffices: the calls on one level come one after another
    (normalize, sample and report; the CLI's main and its handler), and a
    slot per level would only remember inputs that repeat across requests.
    A call that raises keeps nothing, so it raises again.

    Its norm is the positive constant C_n making U unit-normed.  With
    s = exp(-alpha r), a = 2eps and b = v-1, the integral of U^2 dr is
    C_n^2 I / alpha, where

        I = int_0^1 s^(a-1) (1-s)^v [P_n^(a,b)(1-2s)]^2 ds
          = Gamma(n+a+1) Gamma(n+v) (2n+v) / (n! Gamma(n+a+v) a (2n+a+v)).

    In x = 1-2s, writing the weight's 1+x as 2 - (1-x) splits I into the
    two standard Jacobi integrals with weights (1-x)^(a-1) (1+x)^b and
    (1-x)^a (1+x)^b.  I is B(2eps, v+1) at n = 0 and holds at v = 0 by
    continuity.  v = 2l+D-1 is an integer, so the Gamma ratios are finite
    products and C_n^2 = alpha/I is

        alpha a (2n+a+v) / (2n+v) * prod_{j=1}^{v-1} (n+a+j)/(n+j)

    (the product is n/(n+a) at v = 0, which has n >= 1).  No ratio is
    below 1 elsewhere, so nothing underflows, and C_n is good to ~1e-15
    where four log-Gamma values would cancel in their large terms.  Where
    that product is not a finite nonzero float (at alpha = 1e-300, a ~ 2e300
    and C_n^2 ~ 4e600, while C_n ~ 2e300 is a float), C_n is the square root
    of the same factors multiplied as frexp mantissas and exponents
    (_sqrt_of_product); every C_n the plain product gives keeps its bits,
    and a C_n that is itself no finite nonzero float raises ValueError.
    """
    st = energy(params, qn)
    if not st.exists:
        raise NoBoundState(f"no bound state for n={qn.n}, l={qn.l}, D={params.D}")
    n, a, v = qn.n, 2.0 * st.epsilon, int(_angular_v(qn.l, params.D))
    ratios = [(n + a + j) / (n + j) for j in range(1, v)] if v else [n / (n + a)]
    norm = math.sqrt(params.alpha * a * (2 * n + a + v) / (2 * n + v) * math.prod(ratios))
    if not 0.0 < norm < math.inf:
        # C_n^2 left the float range, which C_n itself may not have
        norm = _in_float_range(
            f"normalization constant of n={n}, l={qn.l}, D={params.D}",
            lambda: _sqrt_of_product([params.alpha, a, (2 * n + a + v) / (2 * n + v), *ratios]))
    return Level(epsilon=st.epsilon, delta=_delta(params), gamma=_gamma_coeff(qn.l, params.D),
                 v=float(v), Lambda=_lambda(n, qn.l, params.D), params=params, qn=qn,
                 energy=st.energy, norm=norm, poly=specfun.jacobi_poly(n, a, v - 1.0))


def spectrum(params: PotentialParams, l: int = 0, n_max: int = 64) -> list[BoundState]:
    """All levels n = 0 .. last existing, at most up to n_max, in order.

    Empty when no bound state exists.  The returned list can contain a
    leading non-existing entry (n = 0 in D = 1, l = 0) so that row
    indices always equal n.  m = n + l + (D-1)/2 grows with n, so the
    first missing level after n = 0 ends the list: at most K + 2 levels
    are evaluated for K bound states, whatever n_max is.
    """
    _check_index("n_max", n_max)
    states = []
    for n in range(n_max + 1):
        st = energy(params, QuantumNumbers(n=n, l=l))
        if not st.exists and n > 0:
            break
        states.append(st)
    return states if states[-1].exists else []


def normalization_constant(params: PotentialParams, qn: QuantumNumbers) -> float:
    """Positive constant C_n making the reduced wavefunction unit-normed
    (derivation in level)."""
    return level(params, qn).norm


def default_grid(params: PotentialParams, qn: QuantumNumbers, points: int = 4000) -> np.ndarray:
    """Evenly spaced radii covering the state: `points` of them (an integer
    >= 2) from r_max/(4 points) to r_max = 40/kappa, kappa = alpha*eps.

    The level is built before the grid is checked, so its errors come
    first.  Its two ends are checked before linspace runs (_check_ends;
    r_max = 40/kappa is inf where kappa < 40/max float ~ 2e-307).  The
    ends suffice: between them linspace steps up by (r_max - r_min)/(points
    - 1), and r_max >= 40/max float is a normal float, so on the 4000
    points wavefunction_samples takes every radius is finite, positive and
    above the one before.
    """
    import numpy as np

    _check_index("points", points, least=2)
    lv = level(params, qn)
    r_max = 40.0 / (lv.params.alpha * lv.epsilon)
    r_min = r_max / (4.0 * points)
    _check_ends(r_min, r_max)
    return np.linspace(r_min, r_max, int(points))


def wavefunction_samples(
    params: PotentialParams,
    qn: QuantumNumbers,
    grid: np.ndarray | None = None,
) -> RadialSamples:
    """Sample U and R = r^-(D-1)/2 U at the radii `grid` (default_grid when
    None), a nonempty, strictly increasing 1-D array; meta holds its ends
    and size with the level's eps and C_n.

    A caller's grid is checked radius by radius.  The default grid is
    checked at its ends by default_grid, so it is not checked again.  U
    has exactly Level.nodes interior sign changes.  An R that is not a
    finite float raises ValueError.
    """
    import numpy as np

    if grid is None:
        r = default_grid(params, qn)
    else:
        r = _radii(grid)
        if r.ndim != 1 or r.size < 1:
            raise ValueError("radial grid must be a 1-D array")
        if not np.all(np.diff(r) > 0.0):
            raise ValueError("radii must be strictly increasing")
    lv = level(params, qn)
    u = lv(params.alpha * r)
    with np.errstate(all="ignore"):
        rr = u * r ** (-(params.D - 1) / 2.0)
    if not np.isfinite(rr).all():
        bad = r[~np.isfinite(rr)]
        raise ValueError(f"R = U r^-(D-1)/2 is outside the float range at r = {float(bad[0])!r}")
    meta = {"r_min": float(r[0]), "r_max": float(r[-1]), "points": r.size,
            "epsilon": lv.epsilon, "norm_const": lv.norm, "units": "hbar,mu as given"}
    return RadialSamples(r_values=r, U_values=u, R_values=rr, meta=meta)
