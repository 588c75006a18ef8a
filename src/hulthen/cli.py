"""Command-line front end.

Subcommands: spectrum | wavefunction | expectation | validate.  Shared
flags can also be supplied through HULTHEN_<FLAG> environment variables
(flag wins over environment, environment over default).  Output is CSV
(default) or JSON on stdout or --out PATH; identical configurations
produce byte-identical output.

Exit codes: 0 ok, 1 usage error, 2 no bound state, 3 oracle failure.
"""

import argparse
import json
import os
import sys

from . import expectation as expect_mod
from . import model, oracle

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NO_STATE = 2
EXIT_ORACLE = 3

_ENV_PREFIX = "HULTHEN_"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as exit code 1, not 2."""

    def error(self, message):
        raise UsageError(message)


def _env_default(name: str, fallback, cast):
    raw = os.environ.get(_ENV_PREFIX + name.upper())
    if raw is None:
        return fallback
    try:
        return cast(raw)
    except ValueError:
        raise UsageError(
            f"invalid value {raw!r} for environment variable {_ENV_PREFIX + name.upper()}"
        )


def _add_shared(p: _Parser):
    p.add_argument("--Z", type=float, default=_env_default("Z", 1.0, float),
                   help="potential strength (atomic number); default 1")
    p.add_argument("--alpha", type=float, default=_env_default("ALPHA", 0.05, float),
                   help="screening parameter (inverse length); default 0.05")
    p.add_argument("--mu", type=float, default=_env_default("MU", 1.0, float),
                   help="reduced mass; default 1 (reduced units)")
    p.add_argument("--hbar", type=float, default=_env_default("HBAR", 1.0, float),
                   help="action constant; default 1 (reduced units)")
    p.add_argument("--dim", type=int, default=_env_default("DIM", 3, int),
                   help="spatial dimension D >= 1; default 3")
    p.add_argument("--l", type=int, default=_env_default("L", 0, int),
                   help="orbital angular momentum; default 0")
    p.add_argument("--n", type=int, default=_env_default("N", 0, int),
                   help="radial state index; default 0")
    p.add_argument("--n-max", type=int, default=_env_default("N_MAX", 64, int),
                   help="enumeration cap for the spectrum; default 64")
    p.add_argument("--format", choices=("csv", "json"),
                   default=_env_default("FORMAT", "csv", str),
                   help="output format; default csv")
    p.add_argument("--out", type=str, default=_env_default("OUT", None, str),
                   help="output path; default stdout")


def _build_parser() -> _Parser:
    parser = _Parser(prog="hulthen",
                     description="Bound states of the D-dimensional Hulthen potential")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="closed-form level table")
    _add_shared(p)

    p = sub.add_parser("wavefunction", help="sample U(r) and R(r) for one level")
    _add_shared(p)
    p.add_argument("--r-min", type=float, default=_env_default("R_MIN", None, float),
                   help="grid start; default derived from the state")
    p.add_argument("--r-max", type=float, default=_env_default("R_MAX", None, float),
                   help="grid end; default derived from the state")
    p.add_argument("--points", type=int, default=_env_default("POINTS", 4000, int),
                   help="number of grid points; default 4000")

    p = sub.add_parser("expectation", help="closed-form expectation values with quadrature checks")
    _add_shared(p)

    p = sub.add_parser("validate", help="cross-check one level against the exact-equation eigensolver")
    _add_shared(p)
    p.add_argument("--oracle-tolerance", type=float,
                   default=_env_default("ORACLE_TOLERANCE", None, float),
                   help="absolute energy tolerance of the eigensolver; default 1e-9 "
                        "(auto-tightened for shallow levels)")

    return parser


def _params(args) -> model.PotentialParams:
    try:
        return model.PotentialParams(Z=args.Z, alpha=args.alpha, mu=args.mu,
                                     hbar=args.hbar, D=args.dim)
    except ValueError as exc:
        raise UsageError(str(exc))


def _qn(args) -> model.QuantumNumbers:
    try:
        return model.QuantumNumbers(n=args.n, l=args.l)
    except ValueError as exc:
        raise UsageError(str(exc))


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    return format(value, ".16e")


def _meta(params: model.PotentialParams, extra: dict | None = None) -> dict:
    meta = {
        "units": "reduced (energies in the given hbar, mu scale)",
        "Z": params.Z,
        "alpha": params.alpha,
        "mu": params.mu,
        "hbar": params.hbar,
        "dim": params.D,
    }
    if extra:
        meta.update(extra)
    return meta


def _render_csv(meta: dict, headers: list[str], rows: list[list]) -> str:
    lines = [f"# {key} = {_fmt(val) if isinstance(val, float) else val}"
             for key, val in meta.items()]
    lines.append(",".join(headers))
    for row in rows:
        lines.append(",".join(_fmt(cell) for cell in row))
    return "\n".join(lines) + "\n"


def _render_json(meta: dict, headers: list[str], rows: list[list], table: bool) -> str:
    if table:
        payload = {"meta": meta, "rows": [dict(zip(headers, row)) for row in rows]}
    else:
        payload = {"meta": meta}
        payload.update(dict(zip(headers, rows[0])))
    return json.dumps(payload, indent=2) + "\n"


def _emit(args, meta, headers, rows, table=True) -> None:
    if args.format == "json":
        text = _render_json(meta, headers, rows, table)
    else:
        text = _render_csv(meta, headers, rows)
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_spectrum(args) -> int:
    params = _params(args)
    if args.n_max < 0:
        raise UsageError("--n-max must be >= 0")
    states = model.spectrum(params, l=args.l, n_max=args.n_max)
    headers = ["n", "l", "D", "epsilon", "energy", "exists"]
    rows = [
        [st.qn.n, st.qn.l, params.D, st.epsilon, st.energy, st.exists]
        for st in states
    ]
    if not states:
        meta = _meta(params, {"l": args.l, "note": "no bound states for this configuration"})
        _emit(args, meta, headers, [])
        return EXIT_NO_STATE
    _emit(args, _meta(params, {"l": args.l}), headers, rows)
    return EXIT_OK


def _cmd_wavefunction(args) -> int:
    params = _params(args)
    qn = _qn(args)
    lv = model.level(params, qn)  # a missing level exits 2 before the usage checks
    if args.points < 2:
        raise UsageError("--points must be >= 2")
    if (args.r_min is None) != (args.r_max is None):
        raise UsageError("--r-min and --r-max must be given together")
    if args.r_min is not None:
        try:
            grid = model.RadialGrid(r_min=args.r_min, r_max=args.r_max, points=args.points)
        except ValueError as exc:
            raise UsageError(str(exc))
    else:
        grid = model.default_grid(params, qn, points=args.points)
    samples = model.wavefunction_samples(params, qn, grid)
    meta = _meta(params, {
        "n": qn.n,
        "l": qn.l,
        "epsilon": lv.epsilon,
        "norm_const": lv.norm,
    })
    headers = ["r", "U", "R"]
    rows = [
        [float(r), float(u), float(rr)]
        for r, u, rr in zip(samples.r_values, samples.U_values, samples.R_values)
    ]
    _emit(args, meta, headers, rows)
    return EXIT_OK


def _cmd_expectation(args) -> int:
    params = _params(args)
    qn = _qn(args)
    lv = model.level(params, qn)
    report = expect_mod.expectation_report(params, qn)
    if report.inv_r2_hft is None:
        print("warning: <r^-2> is undefined for l = 0 in D = 2; fields left empty",
              file=sys.stderr)
    meta = _meta(params, {"n": qn.n, "l": qn.l})
    headers = ["energy", "inv_r2_hft", "v_hft", "t_value",
               "inv_r2_quad_approx", "inv_r2_quad_exact", "v_quad"]
    row = [lv.energy, report.inv_r2_hft, report.v_hft, report.t_value,
           report.inv_r2_quad_approx, report.inv_r2_quad_exact, report.v_quad]
    _emit(args, meta, headers, [row], table=False)
    return EXIT_OK


def _cmd_validate(args) -> int:
    params = _params(args)
    qn = _qn(args)
    lv = model.level(params, qn)
    try:
        cfg = oracle.default_config(params, qn, tolerance=args.oracle_tolerance)
        result = oracle.solve_exact(params, qn.l, oracle.interior_nodes(qn, params.D), cfg)
    except oracle.OracleError as exc:
        print(f"oracle failure: {exc}", file=sys.stderr)
        return EXIT_ORACLE
    rel = abs(lv.energy - result.energy) / abs(result.energy)
    meta = _meta(params, {"n": qn.n, "l": qn.l})
    headers = ["E_closed", "E_oracle", "rel_error", "node_count", "converged"]
    row = [lv.energy, result.energy, rel, result.node_count, result.converged]
    _emit(args, meta, headers, [row], table=False)
    return EXIT_OK


_COMMANDS = {
    "spectrum": _cmd_spectrum,
    "wavefunction": _cmd_wavefunction,
    "expectation": _cmd_expectation,
    "validate": _cmd_validate,
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except model.NoBoundState as exc:
        print(exc, file=sys.stderr)
        return EXIT_NO_STATE


if __name__ == "__main__":
    sys.exit(main())
