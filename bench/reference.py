"""References computed apart from the program under test.

Nothing here imports `hulthen`.  The pieces are:

* the paper's bracket form of the closed-form level and an existence
  count from delta > m^2 (`closed_form_energy`, `closed_form_levels`);
* a finite-difference eigenproblem of the exact radial equation
  (`fd_levels`), cached for the spectra/census grid in `refs.json`;
* the closed-form wavefunction from scipy's Jacobi polynomials and a
  trapezoid rule in ln r for the norm integral (`unnormalized_u`,
  `norm_integral`).

Regenerate the cached table with

    python3 bench/reference.py            # writes bench/refs.json

It takes about ten minutes on one core.
"""

import json
import math
import os
import sys
import time

REF_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs.json")

# spectra and census draw alpha from this grid (Z = mu = hbar = 1)
ALPHAS = tuple(round(0.03 + 0.01 * i, 2) for i in range(28))
DIMS = (1, 3, 4, 5)
LS = (0, 1, 2)

# finite-difference steps h0 .. h0/8
FD_H0 = 0.04


def gamma_coeff(dim: int, l: int) -> float:
    return (2 * l + dim - 1) * (2 * l + dim - 3) / 4.0


def interior_nodes(dim: int, n: int, l: int) -> int:
    """Sign changes of U in (0, inf): n, or n - 1 when 2l + D - 1 = 0."""
    return n - 1 if 2 * l + dim - 1 == 0 else n


def closed_form_energy(Z, alpha, mu, hbar, dim, n, l) -> float:
    """The paper's level in its bracket form."""
    delta = 2.0 * Z * mu / (alpha * hbar**2)
    gamma = gamma_coeff(dim, l)
    lam = 2 * n + 2 * l + dim - 1
    bracket = 0.5 + (n * (n + 2 * l + dim - 2) + gamma - delta) / lam
    return -(alpha**2 * hbar**2) / (2.0 * mu) * bracket**2


def closed_form_exists(Z, alpha, mu, hbar, dim, n, l) -> bool:
    m = n + l + (dim - 1) / 2.0
    return m > 0.0 and 2.0 * Z * mu / (alpha * hbar**2) > m * m


def closed_form_levels(Z, alpha, mu, hbar, dim, l) -> list[int]:
    """Radial indices n of every closed-form level (existence: delta > m^2)."""
    delta = 2.0 * Z * mu / (alpha * hbar**2)
    out = []
    n = 0
    while n + l + (dim - 1) / 2.0 < math.sqrt(delta):
        if closed_form_exists(Z, alpha, mu, hbar, dim, n, l):
            out.append(n)
        n += 1
    return out


def closed_form_epsilon(Z, alpha, mu, hbar, dim, n, l) -> float:
    return math.sqrt(-2.0 * mu * closed_form_energy(Z, alpha, mu, hbar, dim, n, l)) / (
        alpha * hbar
    )


# ---------------------------------------------------------------- exact levels


def _fd_levels_at(gamma: float, alpha: float, box: float, h: float, vectors: bool):
    """Negative eigenvalues E of the discretized problem on (0, box], step h.

    With `vectors`, each E is the Rayleigh quotient of its eigenvector in
    the difference form sum((v[i+1] - v[i])^2)/h^2 + sum(W v^2), which
    carries no 2/h^2 cancellation; the bisection eigenvalue alone is only
    good to ~eps * 4/h^2 absolute, too coarse for the shallow levels.
    """
    import numpy as np
    from scipy.linalg import eigh_tridiagonal

    npts = int(round(box / h))
    r = h * np.arange(1, npts + 1)
    w = gamma / r**2 - 2.0 * alpha / np.expm1(alpha * r)
    diag = 2.0 / h**2 + w
    off = np.full(npts - 1, -1.0 / h**2)
    if not vectors:
        lam = eigh_tridiagonal(diag, off, eigvals_only=True, select="v",
                               select_range=(-1e6, 0.0))
        return sorted(0.5 * x for x in lam)
    lam, vec = eigh_tridiagonal(diag, off, select="v", select_range=(-1e6, 0.0))
    out = []
    for j in np.argsort(lam):
        v = vec[:, j]
        dv = np.diff(np.concatenate(([0.0], v, [0.0])))
        out.append(0.5 * (np.sum(dv * dv) / h**2 + np.sum(w * v * v)) / np.sum(v * v))
    return out


def _fit(hs, es):
    """E0 of E(h) = E0 + a h^2 ln h + b h^2 [+ c h^4] through the points."""
    import numpy as np

    cols = [lambda h: 1.0, lambda h: h * h * math.log(h), lambda h: h * h,
            lambda h: h**4][: len(hs)]
    a = np.array([[c(h) for c in cols] for h in hs])
    return float(np.linalg.solve(a, np.array(es))[0])


def _initial_box(gamma: float, alpha: float) -> float:
    """40/alpha, or 35 decay lengths of the shallowest closed-form level
    with this gamma if that is wider."""
    big_l = 0.5 * (-1.0 + math.sqrt(1.0 + 4.0 * gamma))
    delta = 2.0 / alpha
    m = big_l + 1.0
    eps = None
    while m * m < delta:
        eps = (delta - m * m) / (2.0 * m)
        m += 1.0
    return 40.0 / alpha if eps is None else max(40.0 / alpha, 35.0 / (alpha * eps))


def fd_levels(gamma: float, alpha: float) -> list[tuple[float, float]]:
    """Bound levels of -U'' + [gamma/r^2 + 2V]U = 2EU (Z = mu = hbar = 1).

    Uniform r grid with U(0) = U(box) = 0 at steps h0 .. h0/8.  E is the
    fit E0 + a h^2 ln h + b h^2 + c h^4 through the four grids (the log
    term is that of half-integer l + (D-3)/2, i.e. D = 4); the error
    estimate is its distance to the fit without h^4 through the three
    finest.  The box spans 35 decay lengths of the shallowest level and
    keeps the same level count when doubled.
    """
    box = _initial_box(gamma, alpha)
    while True:
        coarse = _fd_levels_at(gamma, alpha, box, FD_H0, vectors=False)
        if not coarse:
            return []
        need = 35.0 / math.sqrt(-2.0 * coarse[-1])
        if need > box:
            box = 1.1 * need
        elif len(_fd_levels_at(gamma, alpha, 2.0 * box, FD_H0, vectors=False)) > len(coarse):
            box *= 2.0
        else:
            break
    hs = (FD_H0, FD_H0 / 2, FD_H0 / 4, FD_H0 / 8)
    runs = [_fd_levels_at(gamma, alpha, box, h, vectors=True) for h in hs]
    out = []
    for i in range(min(len(x) for x in runs)):
        e = [x[i] for x in runs]
        best = _fit(hs, e)
        out.append((best, abs(best - _fit(hs[1:], e[1:]))))
    return out


def table_key(gamma: float, alpha: float) -> str:
    return f"{gamma:.4f}|{alpha:.2f}"


def load_table(path: str = REF_PATH) -> dict:
    with open(path) as fh:
        return json.load(fh)


def regenerate(path: str = REF_PATH) -> None:
    gammas = sorted({gamma_coeff(d, l) for d in DIMS for l in LS})
    levels = {}
    t0 = time.perf_counter()
    for g in gammas:
        for a in ALPHAS:
            levels[table_key(g, a)] = [list(x) for x in fd_levels(g, a)]
            print(f"gamma={g} alpha={a}: {len(levels[table_key(g, a)])} levels "
                  f"[{time.perf_counter() - t0:.0f}s]", file=sys.stderr)
    payload = {
        "about": "exact radial levels E (Z = mu = hbar = 1) with fit error estimates, "
                 "from bench/reference.py",
        "fd_h0": FD_H0,
        "alphas": list(ALPHAS),
        "levels": levels,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=0, sort_keys=True)
        fh.write("\n")


# ------------------------------------------------------------ wavefunctions


def unnormalized_u(r, alpha, eps, dim, n, l):
    """s^eps (1-s)^(v/2) P_n^(2 eps, v-1)(1 - 2s), s = exp(-alpha r)."""
    import numpy as np
    from scipy.special import eval_jacobi

    r = np.asarray(r, dtype=float)
    v = 2 * l + dim - 1
    s = np.exp(-alpha * r)
    # ln s = -alpha r exactly: the tail stays right where s itself underflows
    amp = np.exp(-eps * alpha * r + 0.5 * v * np.log1p(-s))
    return amp * eval_jacobi(n, 2.0 * eps, v - 1.0, 1.0 - 2.0 * s)


def norm_grid(alpha, eps, dim, n, l, points=6000):
    """ln r grid for the norm: from deep in the power-law core out to where
    the tail exp(-2 kappa r) (times the polynomial envelope) is below 1e-30."""
    import numpy as np

    kappa = alpha * eps
    r_hi = (70.0 + 2.0 * n * math.log(2.0 + 2.0 * eps + n)) / (2.0 * kappa) + 2.0 * n / kappa
    r_lo = 1e-7 * min(1.0, 1.0 / (kappa * (n + 1)))
    return np.geomspace(r_lo, r_hi, points)


def norm_integral(c_n, alpha, eps, dim, n, l) -> float:
    """integral of (C U)^2 dr by the trapezoid rule in x = ln r, whose
    integrand decays exponentially at both ends."""
    import numpy as np

    r = norm_grid(alpha, eps, dim, n, l)
    x = np.log(r)
    u = c_n * unnormalized_u(r, alpha, eps, dim, n, l)
    f = u * u * r
    return float(np.sum(0.5 * (f[1:] + f[:-1]) * np.diff(x)))


if __name__ == "__main__":
    regenerate()
