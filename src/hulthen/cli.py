"""Command-line front end.

Subcommands: spectrum | wavefunction | expectation | validate.  Flags
are per subcommand (--n-max on spectrum only, --n on the other three)
and have no abbreviations.  Every flag can also be supplied through a
HULTHEN_<FLAG> environment variable (flag wins over environment,
environment over default); only the running subcommand's variables are
read.  Each handler returns its rows and its extra meta keys; `main`
alone builds the meta, renders the rows as CSV (default) or JSON, as
the subcommand's `_COMMANDS` entry declares, and writes them to stdout
or --out PATH.  Identical configurations produce byte-identical output.

Exit codes: 0 ok, 1 usage error (a bad flag or value, or an --out path
that cannot be written), 2 no bound state, 3 numerical failure (oracle
or quadrature).

spectrum runs on the closed forms of `model` alone and never loads
numpy, and json is imported only to render JSON.  wavefunction loads
numpy for its grid; expectation imports `expectation` and validate
imports `oracle` (both load numpy) when run.
"""

import argparse
import math
import os
import sys

from . import model

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NO_STATE = 2
EXIT_NUMERICAL = 3

_ENV_PREFIX = "HULTHEN_"
_FORMATS = ("csv", "json")


class UsageError(ValueError):
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


def _render(fmt: str, meta: dict, headers: tuple, rows: list[list], shape: str) -> str:
    """rows as CSV (meta as `# key = value` lines) or as JSON: under "rows"
    for a "table", or as fields beside "meta" for a single "record"."""
    if fmt == "json":
        import json

        records = [dict(zip(headers, row)) for row in rows]
        payload = {"meta": meta, **({"rows": records} if shape == "table" else records[0])}
        return json.dumps(payload, indent=2) + "\n"
    lines = [f"# {key} = {_fmt(val) if isinstance(val, float) else val}"
             for key, val in meta.items()]
    lines.append(",".join(headers))
    lines += [",".join(_fmt(cell) for cell in row) for row in rows]
    return "\n".join(lines) + "\n"


def _cmd_spectrum(args, params: model.PotentialParams, _lv) -> tuple[dict, list]:
    states = model.spectrum(params, l=args.l, n_max=args.n_max)
    return {}, [[st.qn.n, st.qn.l, params.D, st.epsilon, st.energy, st.exists]
                for st in states]


def _cmd_wavefunction(args, params: model.PotentialParams, lv: model.Level) -> tuple[dict, list]:
    if args.points < 2:
        raise UsageError("--points must be >= 2")
    if (args.r_min is None) != (args.r_max is None):
        raise UsageError("--r-min and --r-max must be given together")
    if args.r_min is not None:
        if not 0.0 < args.r_min < args.r_max < math.inf:
            raise UsageError("grid requires 0 < r_min < r_max < inf")
        import numpy as np

        grid = np.linspace(args.r_min, args.r_max, args.points)
    else:
        grid = model.default_grid(params, lv.qn, points=args.points)
    samples = model.wavefunction_samples(params, lv.qn, grid)
    rows = [list(row) for row in zip(samples.r_values.tolist(), samples.U_values.tolist(),
                                     samples.R_values.tolist())]
    return {"epsilon": lv.epsilon, "norm_const": lv.norm}, rows


def _cmd_expectation(args, params: model.PotentialParams, lv: model.Level) -> tuple[dict, list]:
    from . import expectation as expect_mod

    report = expect_mod.expectation_report(params, lv.qn)
    if report.inv_r2_hft is None:
        print("warning: <r^-2> is undefined for l = 0 in D = 2; fields left empty",
              file=sys.stderr)
    return {}, [[lv.energy, report.inv_r2_hft, report.v_hft, report.t_value,
                 report.inv_r2_quad_approx, report.inv_r2_quad_exact, report.v_quad]]


def _cmd_validate(args, params: model.PotentialParams, lv: model.Level) -> tuple[dict, list]:
    from . import oracle

    cfg = oracle.default_config(params, lv.qn, tolerance=args.oracle_tolerance)
    result = oracle.solve_exact(params, lv.qn.l, lv.nodes, cfg)
    rel = abs(lv.energy - result.energy) / abs(result.energy)
    return {}, [[lv.energy, result.energy, rel, result.node_count]]


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

_COMMANDS = {  # name: (help, handler, level flag, extra flags, headers, JSON shape)
    "spectrum": ("closed-form level table", _cmd_spectrum,
                 ("n-max", int, 64, "enumeration cap for the spectrum; default 64"), (),
                 ("n", "l", "D", "epsilon", "energy", "exists"), "table"),
    "wavefunction": ("sample U(r) and R(r) for one level", _cmd_wavefunction, _N, (
        ("r-min", float, None, "grid start; default derived from the state"),
        ("r-max", float, None, "grid end; default derived from the state"),
        ("points", int, 4000, "number of grid points; default 4000")),
        ("r", "U", "R"), "table"),
    "expectation": ("closed-form expectation values with quadrature checks",
                    _cmd_expectation, _N, (),
                    ("energy", "inv_r2_hft", "v_hft", "t_value",
                     "inv_r2_quad_approx", "inv_r2_quad_exact", "v_quad"), "record"),
    "validate": ("cross-check one level against the exact-equation eigensolver",
                 _cmd_validate, _N, (
        ("oracle-tolerance", float, None, "absolute energy tolerance of the eigensolver; "
         "default 1e-9 (auto-tightened for shallow levels)"),),
        ("E_closed", "E_oracle", "rel_error", "node_count"), "record"),
}


def _build_parser(command: str | None) -> _Parser:
    """The parser of every subcommand, with flags on `command` alone, so
    that no other subcommand's HULTHEN_* variable is read."""
    parser = _Parser(prog="hulthen",
                     description="Bound states of the D-dimensional Hulthen potential")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, _, level_flag, extras, *_) in _COMMANDS.items():
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
    """Run one subcommand and write its rows; every failure it reports maps
    to its exit code here, NoBoundState before the ValueError it is."""
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _build_parser(argv[0] if argv else None).parse_args(argv)
        params = model.PotentialParams(Z=args.Z, alpha=args.alpha, mu=args.mu,
                                       hbar=args.hbar, D=args.dim)
        _, handler, _, _, headers, shape = _COMMANDS[args.command]
        meta = {"units": "reduced (energies in the given hbar, mu scale)", "Z": params.Z,
                "alpha": params.alpha, "mu": params.mu, "hbar": params.hbar, "dim": params.D}
        lv = None
        if "n" in args:
            # a missing level exits 2 before the handler's usage checks
            lv = model.level(params, model.QuantumNumbers(args.n, args.l))
            meta["n"] = args.n
        meta["l"] = args.l
        extra, rows = handler(args, params, lv)
        meta.update(extra)
        if not rows:
            meta["note"] = "no bound states for this configuration"
        text = _render(args.format, meta, headers, rows, shape)
        if args.out:
            with open(args.out, "w", newline="") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return EXIT_OK if rows else EXIT_NO_STATE
    except model.NoBoundState as exc:
        print(exc, file=sys.stderr)
        return EXIT_NO_STATE
    except _loaded_error("oracle", "OracleError") as exc:
        print(f"oracle failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except _loaded_error("expectation", "QuadratureError") as exc:
        print(f"quadrature failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
