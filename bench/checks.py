"""Checks of every operation's output, run in the parent process.

Each `check_*` returns None when the output is right and a one-line
reason when it is not.  Independent references come from `reference`;
the property checks (node counts, quadrature against the closed forms,
CLI round trips and byte identity) are listed in the README.
"""

import json
import math

import reference as ref

SPECTRA_RTOL = 2e-6  # solve_exact against the finite-difference level
NORM_TOL = 1e-6  # |integral of U^2 - 1|
CLOSED_RTOL = 1e-10  # program closed forms against the bracket form
SAMPLE_RTOL = 1e-9  # sampled U against C u(r), relative to the largest sample
QUAD_RTOL = 1e-6  # quadrature cross-checks against the closed forms
QUAD_ATOL = 1e-9


def _close(a, b, rtol, atol=0.0) -> bool:
    return a is not None and b is not None and abs(a - b) <= rtol * abs(b) + atol


# ------------------------------------------------------------------ spectra


def check_spectra(item, out):
    r = item["ref"]
    if r["E"] is None:
        return "the reference finds no such exact level"
    if not out["converged"]:
        return "not converged"
    if out["nodes"] != item["k"]:
        return f"node count {out['nodes']} != {item['k']}"
    if not _close(out["E"], r["E"], SPECTRA_RTOL):
        return f"E = {out['E']!r}, reference {r['E']!r}"
    return None


def shots(out) -> float:
    """Shots of one solve: two bracket ends plus one per bisection step,
    2 + log2(width / (2 residual)); exact for bisection."""
    lo, hi = out["bracket"]
    return 2.0 + math.log2((hi - lo) / (2.0 * out["residual"]))


# ------------------------------------------------------------------- census


def check_census(item, out):
    if out["count"] != item["ref"]["count"]:
        return f"count {out['count']} != reference {item['ref']['count']}"
    return None


# ------------------------------------------------------------ level reports


def _level(item):
    return (item["Z"], item["alpha"], item["mu"], item["hbar"], item["D"], item["n"], item["l"])


def own_potential_expect(c_n, Z, alpha, mu, hbar, dim, n, l, eps) -> float:
    """<V> by the trapezoid rule in ln r on the reference's norm grid."""
    import numpy as np

    r = ref.norm_grid(alpha, eps, dim, n, l)
    u = c_n * ref.unnormalized_u(r, alpha, eps, dim, n, l)
    with np.errstate(over="ignore"):  # expm1 -> inf far out: V -> 0
        v = -Z * alpha / np.expm1(alpha * r)
    f = v * u * u * r
    return float(np.sum(0.5 * (f[1:] + f[:-1]) * np.diff(np.log(r))))


def check_norm(c_n, level, eps):
    Z, alpha, mu, hbar, dim, n, l = level
    total = ref.norm_integral(c_n, alpha, eps, dim, n, l)
    if not abs(total - 1.0) <= NORM_TOL:
        return f"integral of U^2 = {total!r}"
    return None


def check_samples(level, eps, c_n, r, u, rr, sign_changes, expected_changes=None):
    """Sampled U and R against C u(r), and their sign changes against
    `expected_changes` (default: the interior node count)."""
    import numpy as np

    Z, alpha, mu, hbar, dim, n, l = level
    r, u, rr = (np.asarray(x, dtype=float) for x in (r, u, rr))
    want = c_n * ref.unnormalized_u(r, alpha, eps, dim, n, l)
    scale = float(np.max(np.abs(want)))
    if not float(np.max(np.abs(u - want))) <= SAMPLE_RTOL * scale:
        return "sampled U differs from C u(r)"
    if not np.allclose(rr, u * r ** (-(dim - 1) / 2.0), rtol=1e-12, atol=0.0):
        return "R differs from r^-(D-1)/2 U"
    if expected_changes is None:
        expected_changes = ref.interior_nodes(dim, n, l)
    if sign_changes != expected_changes:
        return f"{sign_changes} sign changes in the samples, expected {expected_changes}"
    return None


def check_report(level, eps, c_n, rep):
    Z, alpha, mu, hbar, dim, n, l = level
    e_cf = ref.closed_form_energy(*level[:5], n, l)
    degenerate = 2 * l + dim - 2 == 0
    fields = ("inv_r2_hft", "inv_r2_quad_approx", "inv_r2_quad_exact")
    if degenerate != all(rep[k] is None for k in fields) or (
        not degenerate and any(rep[k] is None for k in fields)
    ):
        return "inv_r2 fields must be empty exactly when 2l + D - 2 = 0"
    if not _close(rep["t_value"] + rep["v_hft"], e_cf, CLOSED_RTOL, 1e-15):
        return "t_value + v_hft differs from the closed-form energy"
    own_v = own_potential_expect(c_n, *level, eps)
    if not _close(rep["v_hft"], own_v, QUAD_RTOL, QUAD_ATOL):
        return f"v_hft {rep['v_hft']!r} != reference <V> {own_v!r}"
    if not _close(rep["v_quad"], rep["v_hft"], QUAD_RTOL, QUAD_ATOL):
        return f"v_quad {rep['v_quad']!r} != v_hft {rep['v_hft']!r}"
    if not degenerate and not _close(rep["inv_r2_quad_approx"], rep["inv_r2_hft"],
                                     QUAD_RTOL, QUAD_ATOL):
        return f"inv_r2_quad_approx {rep['inv_r2_quad_approx']!r} != inv_r2_hft"
    return None


def check_reports(item, out):
    level = _level(item)
    eps = ref.closed_form_epsilon(*level)
    meta = out["meta"]
    if not _close(meta["epsilon"], eps, CLOSED_RTOL):
        return f"epsilon {meta['epsilon']!r} != {eps!r}"
    c_n = out["C"]
    if meta["norm_const"] != c_n:
        return "normalization constant differs between calls"
    if out["size"] != 4000 or meta["points"] != 4000:
        return "default grid is not 4000 points"
    return (check_norm(c_n, level, eps)
            or check_samples(level, eps, c_n, out["r_sub"], out["U_sub"], out["R_sub"],
                             out["sign_changes"])
            or check_report(level, eps, c_n, out["report"]))


# ---------------------------------------------------------------------- cli


def parse_cli(text: str, fmt: str):
    """(meta, rows as dicts) from CSV or JSON output."""
    if fmt == "json":
        payload = json.loads(text)
        meta = payload.pop("meta")
        rows = payload.pop("rows", None)
        return meta, rows if rows is not None else [payload]
    meta, rows, header = {}, [], None
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, val = line[2:].partition(" = ")
            meta[key] = val
        elif header is None:
            header = line.split(",")
        else:
            rows.append(dict(zip(header, (_cell(c) for c in line.split(",")))))
    return meta, rows


def _cell(text: str):
    if text == "":
        return None
    if text in ("true", "false"):
        return text == "true"
    try:
        return int(text)
    except ValueError:
        return float(text)


def _opt(argv, flag, cast, default):
    return cast(argv[argv.index(flag) + 1]) if flag in argv else default


def cli_level(argv):
    """(Z, alpha, mu, hbar, D, n, l) of an invocation (Z, mu, hbar default 1)."""
    return (1.0, _opt(argv, "--alpha", float, 0.05), 1.0, 1.0,
            _opt(argv, "--dim", int, 3), _opt(argv, "--n", int, 0), _opt(argv, "--l", int, 0))


def check_cli_values(argv, text, lib):
    """Values of one CLI output against the library (exact round trip) and
    the references.  `lib` is the imported `hulthen` package."""
    import numpy as np

    sub, fmt = argv[0], _opt(argv, "--format", str, "csv")
    meta, rows = parse_cli(text, fmt)
    level = cli_level(argv)
    Z, alpha, mu, hbar, dim, n, l = level
    params = lib.model.PotentialParams(Z=Z, alpha=alpha, mu=mu, hbar=hbar, D=dim)
    if sub == "spectrum":
        states = lib.model.spectrum(params, l=l)
        if [r["n"] for r in rows] != [st.qn.n for st in states]:
            return "spectrum rows differ from model.spectrum"
        for row, st in zip(rows, states):
            if row["energy"] != st.energy or row["epsilon"] != st.epsilon:
                return f"row n={row['n']} does not round-trip to the library floats"
        want = ref.closed_form_levels(Z, alpha, mu, hbar, dim, l)
        if [r["n"] for r in rows if r["exists"]] != want:
            return f"existing levels {[r['n'] for r in rows if r['exists']]} != {want}"
        for row in rows:
            if row["exists"] and not _close(
                row["energy"], ref.closed_form_energy(Z, alpha, mu, hbar, dim, row["n"], l),
                CLOSED_RTOL,
            ):
                return f"energy of n={row['n']} differs from the bracket form"
        return None
    qn = lib.model.QuantumNumbers(n=n, l=l)
    eps = ref.closed_form_epsilon(*level)
    if sub == "wavefunction":
        grid = lib.model.default_grid(params, qn, points=_opt(argv, "--points", int, 4000))
        samples = lib.model.wavefunction_samples(params, qn, grid)
        c_n = float(meta["norm_const"])
        if c_n != samples.meta["norm_const"] or float(meta["epsilon"]) != samples.meta["epsilon"]:
            return "meta does not round-trip to the library floats"
        cols = {k: np.array([row[k] for row in rows]) for k in ("r", "U", "R")}
        for key, lib_vals in (("r", samples.r_values), ("U", samples.U_values),
                              ("R", samples.R_values)):
            if not np.array_equal(cols[key], lib_vals):
                return f"column {key} does not round-trip to the library floats"
        if not _close(samples.meta["epsilon"], eps, CLOSED_RTOL):
            return "epsilon differs from the bracket form"
        from ops import sign_changes

        # a coarse --points grid can step over inner nodes, so the sign
        # changes are compared with the reference sampled on the same radii
        want = sign_changes(ref.unnormalized_u(cols["r"], alpha, eps, dim, n, l))
        return check_norm(c_n, level, eps) or check_samples(
            level, eps, c_n, cols["r"][::64], cols["U"][::64], cols["R"][::64],
            sign_changes(cols["U"]), want)
    rep = lib.expectation.expectation_report(params, qn)
    row = rows[0]
    lib_row = {"energy": lib.model.energy(params, qn).energy,
               **{k: getattr(rep, k) for k in ("inv_r2_hft", "v_hft", "t_value",
                                               "inv_r2_quad_approx", "inv_r2_quad_exact",
                                               "v_quad")}}
    if any(row[k] != v for k, v in lib_row.items()):
        return "expectation row does not round-trip to the library floats"
    if not _close(row["energy"], ref.closed_form_energy(*level), CLOSED_RTOL):
        return "energy differs from the bracket form"
    c_n = lib.model.normalization_constant(params, qn)
    return check_report(level, eps, c_n, row)


def check_cli(item, out, expected):
    """`expected`: {"sha256", "text", "rc"} of the same argv run in-process."""
    if out["rc"] != 0:
        return f"exit code {out['rc']}: {out['stderr'].strip()[-200:]}"
    if out["sha256"] != expected["sha256"]:
        return "output bytes differ from the in-process output of the same argv"
    return expected["verdict"]
