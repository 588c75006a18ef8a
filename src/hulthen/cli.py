"""Command-line front end.

Subcommands: spectrum | wavefunction | expectation | validate.  Flags
are per subcommand (--n-max on spectrum only, --n on the other three)
and have no abbreviations.  Every flag can also be supplied through a
HULTHEN_<FLAG> environment variable (flag wins over environment,
environment over default); only the running subcommand's variables are
read.  Output is CSV (default) or JSON on stdout or --out PATH;
identical configurations produce byte-identical output.

Exit codes: 0 ok, 1 usage error (a bad flag or value, or an --out path
that cannot be written), 2 no bound state, 3 numerical failure (oracle
or quadrature).

spectrum runs on the closed forms of `model` alone and never loads
numpy.  wavefunction loads numpy for its grid; expectation imports
`expectation` and validate imports `oracle` (both load numpy) when run.
"""

import argparse
import json
import os
import sys

from . import model

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NO_STATE = 2
EXIT_NUMERICAL = 3

_ENV_PREFIX = "HULTHEN_"
_FORMATS = ("csv", "json")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as exit code 1, not 2."""

    def error(self, message):
        raise UsageError(message)


def _flag(p: _Parser, name: str, cast, default, help: str, choices=None) -> None:
    """Add --NAME to p.  HULTHEN_<NAME> (upper case, - as _) replaces the
    default, held to the flag's type and choices (argparse checks neither
    on a default)."""
    env = _ENV_PREFIX + name.upper().replace("-", "_")
    raw = os.environ.get(env)
    if raw is not None:
        try:
            default = cast(raw)
            if choices is not None and default not in choices:
                raise ValueError(raw)
        except ValueError:
            raise UsageError(f"invalid value {raw!r} for environment variable {env}")
    p.add_argument("--" + name, type=cast, default=default, choices=choices, help=help)


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


def _cmd_spectrum(args, params: model.PotentialParams, _lv) -> int:
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


def _cmd_wavefunction(args, params: model.PotentialParams, lv: model.Level) -> int:
    if args.points < 2:
        raise UsageError("--points must be >= 2")
    if (args.r_min is None) != (args.r_max is None):
        raise UsageError("--r-min and --r-max must be given together")
    if args.r_min is not None:
        grid = model.RadialGrid(r_min=args.r_min, r_max=args.r_max, points=args.points)
    else:
        grid = model.default_grid(params, lv.qn, points=args.points)
    samples = model.wavefunction_samples(params, lv.qn, grid)
    meta = _meta(params, {"n": lv.qn.n, "l": lv.qn.l,
                          "epsilon": lv.epsilon, "norm_const": lv.norm})
    headers = ["r", "U", "R"]
    rows = [
        [float(r), float(u), float(rr)]
        for r, u, rr in zip(samples.r_values, samples.U_values, samples.R_values)
    ]
    _emit(args, meta, headers, rows)
    return EXIT_OK


def _cmd_expectation(args, params: model.PotentialParams, lv: model.Level) -> int:
    from . import expectation as expect_mod

    report = expect_mod.expectation_report(params, lv.qn)
    if report.inv_r2_hft is None:
        print("warning: <r^-2> is undefined for l = 0 in D = 2; fields left empty",
              file=sys.stderr)
    meta = _meta(params, {"n": lv.qn.n, "l": lv.qn.l})
    headers = ["energy", "inv_r2_hft", "v_hft", "t_value",
               "inv_r2_quad_approx", "inv_r2_quad_exact", "v_quad"]
    row = [lv.energy, report.inv_r2_hft, report.v_hft, report.t_value,
           report.inv_r2_quad_approx, report.inv_r2_quad_exact, report.v_quad]
    _emit(args, meta, headers, [row], table=False)
    return EXIT_OK


def _cmd_validate(args, params: model.PotentialParams, lv: model.Level) -> int:
    from . import oracle

    cfg = oracle.default_config(params, lv.qn, tolerance=args.oracle_tolerance)
    result = oracle.solve_exact(params, lv.qn.l, lv.nodes, cfg)
    rel = abs(lv.energy - result.energy) / abs(result.energy)
    meta = _meta(params, {"n": lv.qn.n, "l": lv.qn.l})
    headers = ["E_closed", "E_oracle", "rel_error", "node_count", "converged"]
    row = [lv.energy, result.energy, rel, result.node_count, result.converged]
    _emit(args, meta, headers, [row], table=False)
    return EXIT_OK


# Flags as (name, type, default, help[, choices]).  A subcommand's --help
# lists _PARAMS, its level flag, _OUTPUT, then its extra flags.
_PARAMS = (
    ("Z", float, 1.0, "potential strength (atomic number); default 1"),
    ("alpha", float, 0.05, "screening parameter (inverse length); default 0.05"),
    ("mu", float, 1.0, "reduced mass; default 1 (reduced units)"),
    ("hbar", float, 1.0, "action constant; default 1 (reduced units)"),
    ("dim", int, 3, "spatial dimension D >= 1; default 3"),
    ("l", int, 0, "orbital angular momentum; default 0"),
)
_OUTPUT = (
    ("format", str, "csv", "output format; default csv", _FORMATS),
    ("out", str, None, "output path; default stdout"),
)
_N = ("n", int, 0, "radial state index; default 0")

_COMMANDS = {  # name: (help, handler, level flag, extra flags)
    "spectrum": ("closed-form level table", _cmd_spectrum,
                 ("n-max", int, 64, "enumeration cap for the spectrum; default 64"), ()),
    "wavefunction": ("sample U(r) and R(r) for one level", _cmd_wavefunction, _N, (
        ("r-min", float, None, "grid start; default derived from the state"),
        ("r-max", float, None, "grid end; default derived from the state"),
        ("points", int, 4000, "number of grid points; default 4000"))),
    "expectation": ("closed-form expectation values with quadrature checks",
                    _cmd_expectation, _N, ()),
    "validate": ("cross-check one level against the exact-equation eigensolver",
                 _cmd_validate, _N, (
        ("oracle-tolerance", float, None, "absolute energy tolerance of the eigensolver; "
         "default 1e-9 (auto-tightened for shallow levels)"),)),
}


def _build_parser(command: str | None) -> _Parser:
    """The parser of every subcommand, with flags on `command` alone, so
    that no other subcommand's HULTHEN_* variable is read."""
    parser = _Parser(prog="hulthen",
                     description="Bound states of the D-dimensional Hulthen potential")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, _, level_flag, extras) in _COMMANDS.items():
        p = sub.add_parser(name, help=summary, allow_abbrev=False)
        if name == command:
            for spec in (*_PARAMS, level_flag, *_OUTPUT, *extras):
                _flag(p, *spec)
    return parser


def _loaded_error(module: str, name: str):
    """The exception class module.name once a command has imported that
    module, else no class (an empty tuple), so that mapping exceptions
    imports nothing."""
    mod = sys.modules.get(f"{__package__}.{module}")
    return getattr(mod, name) if mod else ()


def main(argv=None) -> int:
    """Run one subcommand; every failure it reports maps to its exit code
    here, NoBoundState before the ValueError it is."""
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _build_parser(argv[0] if argv else None).parse_args(argv)
        params = model.PotentialParams(Z=args.Z, alpha=args.alpha, mu=args.mu,
                                       hbar=args.hbar, D=args.dim)
        # a missing level exits 2 before the handler's usage checks
        lv = model.level(params, model.QuantumNumbers(args.n, args.l)) if "n" in args else None
        return _COMMANDS[args.command][1](args, params, lv)
    except model.NoBoundState as exc:
        print(exc, file=sys.stderr)
        return EXIT_NO_STATE
    except _loaded_error("oracle", "OracleError") as exc:
        print(f"oracle failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except _loaded_error("expectation", "QuadratureError") as exc:
        print(f"quadrature failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
