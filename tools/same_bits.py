"""Compare the output bits of two source trees: the CLI's and the bench
items'.

    python3 tools/same_bits.py OLD_SRC [NEW_SRC]

OLD_SRC and NEW_SRC are directories holding the `hulthen` package;
NEW_SRC defaults to the `src/` of this checkout.  A tree without
`hulthen/__init__.py` is refused, with exit status 2, before anything
runs.  Every child is a fresh interpreter in its tree's directory, with
no HULTHEN_* variables, no bytecode written and PYTHONPATH set to the
tree (and for the bench items to `bench/` and `tools/` after it).

CLI: each argv set of ARGV_SETS runs as a `python -m hulthen.cli` child
against each tree.  The exit code, stdout and stderr of the two children
are compared, and so are the bytes of the file an argv set writes
through `--out <out>` (or its absence): each child gets its own
temporary path for <out>.  Each tree's path and the temporary path are
replaced by placeholders, so that tracebacks and messages from two
checkouts can still agree.  A child that runs longer than TIMEOUT_S
seconds is killed and its argv set reported as differing in "timeout".

Bench items: every item of the `spectra`, `census` and `reports`
workloads of bench seeds 1-3, as `bench/inputs.py` generates them (kept
faults included), runs through its workload's `run` in `bench/ops.py`,
in round order, in one child per tree.  bench/ is only read.  Each
result is reduced to what its bits say: every float (numpy's too) to its
`float.hex`, each numpy array to its dtype, shape and the SHA-256 of its
bytes, a dataclass to its class name and fields, and an exception raised
in place of a result to its class name and message.

Each argv set that differs is printed with the names of its differing
fields, and each item with its inputs and the paths of its differing
fields.  The last line reads `N of 106 argv sets and M of 24192 bench
items differ`, and the exit status is 1 if N or M is nonzero, else 0.

The parent commit's tree can be unpacked next to the checkout with

    mkdir ../parent && git archive HEAD~1 | tar -x -C ../parent

and is then compared by `python3 tools/same_bits.py ../parent/src`.
To run that tree's tests, run pytest inside the unpacked copy (`cd
../parent && python -m pytest`): pyproject.toml sets pytest's pythonpath
to src/, ahead of PYTHONPATH, so `PYTHONPATH=../parent/src python -m
pytest` run from this checkout tests this checkout.
"""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("spectra", "census", "reports")
SEEDS = (1, 2, 3)

# Z mu/hbar^2 ~ 500: U lost its digits near the origin while P_n was
# evaluated in x = 1 - 2s, and the quadrature did not converge (exit 3)
STRONG_CORE = ("expectation --Z 2.3163131398668173 --mu 8.680299759535256 "
               "--alpha 0.11827746864980619 --hbar 0.20155218228825997 --dim 1 --n 1")

# D = 3, l = 0 (gamma = 0, so the closed form is exact) at E = -1.26e6
DEEP_LEVEL = ("validate --Z 267.2578875980919 --mu 2.0965521440403934 "
              "--hbar 0.24389413498379664 --alpha 0.044498771571684484")

ARGV_SETS = [argv.split() for argv in (
    "spectrum",
    "spectrum --alpha 2.5",
    "spectrum --alpha 2.5 --format json",
    "spectrum --dim 1 --l 0",
    "spectrum --dim 2 --l 3 --format json --n-max 3",
    "wavefunction --n 0",
    "wavefunction --alpha 0.001 --n 30",
    "wavefunction --n 9 --points 1",
    "wavefunction --n 9",
    "wavefunction --n 9 --r-min 1",
    "wavefunction --n 0 --points 1",
    "wavefunction --n 2 --r-min 0.5 --r-max 40 --points 50 --format json",
    "wavefunction --dim 4 --l 2 --alpha 0.0987 --n 1",
    "wavefunction --dim 1 --n 0",
    "wavefunction --dim 1 --n 2",
    "expectation --dim 2 --format json",
    "expectation --n 2 --l 1 --dim 5 --Z 1.3 --mu 0.7 --hbar 1.1",
    "expectation --alpha 2.5",
    "expectation --dim 1 --n 1",
    "expectation --dim 1 --n 0",
    "expectation --dim 5 --l 3 --alpha 0.002 --n 20",
    "expectation --alpha 0.001 --n 30",
    "expectation --alpha 1e-6",
    "validate --n 0",
    "validate --n 9",
    "validate --l 1 --alpha 0.3",
    "validate --dim 1 --n 2 --format json",
    "validate --oracle-tolerance 1e-30",
    "validate --l 2 --alpha 0.05 --n 3",
    "validate --dim 5 --l 1 --alpha 0.05 --n 1",
    "validate --alpha 0.2 --oracle-tolerance 1e-12",
    "validate --dim 5 --l 1 --alpha 0.05 --n 1 --oracle-tolerance 0.01",
    # certificate marches that cross long tails, or start from D_0 < 0
    # (gamma < 0 at D = 2, l = 0), before the count is final
    "validate --alpha 0.003 --n 12",
    "validate --dim 2 --alpha 0.2 --n 1",
    "validate --dim 5 --l 2 --alpha 0.02 --n 4",
    "validate --dim 4 --l 1 --alpha 0.01 --n 9 --format json",
    "spectrum --dim 0",
    "spectrum --Z -1",
    "spectrum --l -1",
    "wavefunction --alpha 1e-300",
    "expectation --alpha 1e-300",
    "expectation --alpha 1e-150",
    "wavefunction --dim 1 --n 2 --alpha 1e-90",
    "expectation --dim 1 --n 2 --alpha 1e-90",
    "wavefunction --dim 1 --n 2 --alpha 1e-120",
    "expectation --dim 1 --n 2 --alpha 1e-120",
    "spectrum --n 3",
    "wavefunction --n-max 3",
    "spectrum --alp 0.1",
    "wavefunction --r-min 1e-320 --r-max 1 --points 3",
    "wavefunction --dim 200 --alpha 1e-5 --r-min 1e-4 --r-max 1000 --points 4",
    STRONG_CORE,
    "expectation --dim 1 --n 1 --alpha 1e-160",
    "validate --dim 1 --n 1 --alpha 1e-160",
    "expectation --dim 2 --l 1 --n 1 --format json",
    "wavefunction --r-min 0 --r-max 1",
    "wavefunction --r-min 2 --r-max 1",
    "wavefunction --r-min 1 --r-max 1.0000000000000002",
    "wavefunction --n 3 --l 1 --r-min 0.5 --r-max 400 --points 7 --format json",
    # quadratures whose range end, or whose integrand, is not finite
    "expectation --alpha 1e-300 --dim 2 --n 1",
    "expectation --alpha 2 --hbar 1e-20 --dim 4 --l 2 --n 4",
    "expectation --Z 2 --alpha 0.5 --mu 1e-200 --hbar 1e-150 --n 2",
    "expectation --Z 1e150 --hbar 3 --dim 2",
    "expectation --Z 1e150 --alpha 1 --mu 0.05 --hbar 0.05 --dim 1 --n 1",
    # a decay length 1/kappa past the float range, and integrals far below
    # the absolute tolerance 1e-10
    "expectation --Z 1e290 --alpha 1e-310 --mu 1e-300 --hbar 1e150 --dim 2",
    "expectation --Z 1e-6 --alpha 1e-9 --l 1",
    "expectation --Z 1e-6 --alpha 1e-9",
    # levels whose P_n(2) is nan, once read for the range end
    "expectation --alpha 1e-7 --n 100",
    "expectation --alpha 1e-7 --n 150",
    "--help",
    "spectrum --help",
    "wavefunction --help",
    "expectation --help",
    "validate --help",
    "spectrum --out <out>",
    "spectrum --alpha 2.5 --format json --out <out>",
    "wavefunction --n 2 --points 20 --format json --out <out>",
    "expectation --dim 2 --out <out>",
    "expectation --n 1 --l 1 --format json --out <out>",
    "validate --n 0 --out <out>",
    "validate --dim 1 --n 2 --format json --out <out>",
    "wavefunction --points 1 --out <out>",
    "validate --oracle-tolerance 1e-30 --out <out>",
    "spectrum --n-max -1",
    # U/r near the origin of a level whose P_n has a root at x = -1
    "wavefunction --dim 1 --n 2 --r-min 1e-15 --r-max 1e-12 --points 4",
    # levels the closed form brackets badly or that have no exact partner
    "validate --alpha 0.001",
    "validate --l 1 --alpha 0.4",
    # a level that needs a grid past the cap of solve_exact, a D = 2 s-wave
    # level that a first-order start moved by 4.6e-6, and a level that T > 1
    # on a fixed 24000-point grid rejected with a false bracket complaint
    "validate --alpha 0.0001 --n 5",
    "validate --Z 3.6079722523521016 --mu 0.4100627265092216 --hbar 0.5087195582253824 "
    "--alpha 0.06844577643064836 --dim 2",
    "validate --Z 4.274 --mu 1.797 --hbar 0.33 --alpha 0.04291130432367441 --dim 4 --n 5",
    # D = 2 levels off the s wave, whose grids once started ten times
    # farther out than those of l = 0
    "validate --dim 2 --l 1 --alpha 0.05 --n 1",
    "validate --dim 2 --l 2 --Z 2.5 --mu 0.7 --hbar 1.3 --alpha 0.03 --n 2 --format json",
    # an eight-step Jacobi recurrence, and a report with Z, mu, hbar != 1
    "wavefunction --dim 5 --l 2 --n 8 --alpha 0.01 --format json",
    "expectation --Z 1.7 --mu 0.8 --hbar 1.2 --alpha 0.02 --dim 4 --l 1 --n 6",
    # C_n a float whose square is not, and a C_n that is not a float
    "expectation --alpha 1e-200",
    "wavefunction --alpha 1e-200 --points 5",
    "expectation --alpha 1e-300 --dim 4 --l 2",
    # a window wider than the level spacing: its counts read 19 and 22
    "validate --alpha 0.001 --n 20 --oracle-tolerance 2.5e-4",
    "validate --alpha 0.001 --n 20 --oracle-tolerance 2.5e-4 --format json",
    # U where C_n ~ 2e300 meets a subnormal (-em)^{v/2}, and a C_n from the
    # odd-exponent branch of model._sqrt_of_product
    "wavefunction --alpha 1e-300 --r-min 40 --r-max 60 --points 3",
    "expectation --alpha 1e-300 --n 1",
    # a default grid whose r_max = 40/kappa overflows to inf
    "wavefunction --Z 2e-9 --alpha 2e-309 --hbar 1e150 --points 3",
    # a level deep enough that 1e-9 is below the tolerance floor of 128
    # float spacings of 1.2 |E|: a window of 1e-9 there missed the exact
    # level
    DEEP_LEVEL,
    DEEP_LEVEL + " --format json",
    # tolerances just above and just below the floor at the default level
    # (128 float spacings of max(1.2 |E|, Z alpha) = 0.570375 are 1.42e-14)
    "validate --oracle-tolerance 1.5e-14",
    "validate --oracle-tolerance 1.4e-14",
)]

PLACEHOLDER = b"<src>"
OUT = "<out>"
TIMEOUT_S = 60.0


def tree(src) -> Path:
    """src resolved; FileNotFoundError if it holds no hulthen package."""
    path = Path(src).resolve()
    if not (path / "hulthen" / "__init__.py").is_file():
        raise FileNotFoundError(f"no hulthen package in {path}")
    return path


def child_env(*paths: Path) -> dict[str, str]:
    """This environment with no HULTHEN_* variables, no bytecode written
    and PYTHONPATH set to paths."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("HULTHEN_")}
    env["PYTHONPATH"] = os.pathsep.join(map(str, paths))
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_cli(src: Path, argv: list[str], timeout: float = TIMEOUT_S):
    """Exit code, stdout, stderr and the bytes of the --out file (None if
    none was written) of `python -m hulthen.cli ARGV` on the tree src, with
    src's path as PLACEHOLDER and a fresh temporary path for OUT; None if
    the child outlives timeout seconds."""
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        try:
            proc = subprocess.run([sys.executable, "-m", "hulthen.cli",
                                   *(out if arg == OUT else arg for arg in argv)],
                                  cwd=src, env=child_env(src), capture_output=True,
                                  check=False, timeout=timeout)
        except subprocess.TimeoutExpired:
            return None
        written = Path(out).read_bytes() if os.path.exists(out) else None

    def scrub(data: bytes) -> bytes:
        data = data.replace(os.fsencode(out), os.fsencode(OUT))
        return data.replace(os.fsencode(src), PLACEHOLDER)

    return proc.returncode, scrub(proc.stdout), scrub(proc.stderr), written


def compare_cli(old_src, new_src, argv_sets=ARGV_SETS,
                timeout: float = TIMEOUT_S) -> list[tuple[list[str], list[str]]]:
    """(argv, names of the differing fields) for each argv set whose exit
    code, stdout, stderr or --out file differs between the two trees, or
    that timed out on either."""
    trees = [tree(old_src), tree(new_src)]
    diffs = []
    for argv in argv_sets:
        old, new = (run_cli(src, argv, timeout) for src in trees)
        if old is None or new is None:
            fields = ["timeout"]
        else:
            fields = [name for name, a, b in zip(("exit", "stdout", "stderr", "out"), old, new)
                      if a != b]
        if fields:
            diffs.append((argv, fields))
    return diffs


def reduce(value):
    """value as JSON whose equality is equality of its bits."""
    import numpy as np

    if isinstance(value, (bool, str, type(None))):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    if isinstance(value, np.ndarray):
        return [str(value.dtype), list(value.shape), hashlib.sha256(value.tobytes()).hexdigest()]
    if dataclasses.is_dataclass(value):
        return [type(value).__name__, {f.name: reduce(getattr(value, f.name))
                                       for f in dataclasses.fields(value)}]
    if isinstance(value, dict):
        return {str(k): reduce(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [reduce(v) for v in value]
    raise TypeError(f"no reduction for {type(value).__name__}")


def child(seeds, rounds: int | None) -> None:
    """Print [label, inputs, reduction] of each item as JSON, run on the
    hulthen package that PYTHONPATH names first."""
    import inputs
    import ops

    table = inputs.ref.load_table()
    results = []
    for workload in WORKLOADS:
        op = ops.make(workload, str(ROOT), str(ROOT / "bench"))
        for seed in seeds:
            for r, rnd in enumerate(inputs.generate(workload, seed, table)["rounds"][:rounds]):
                for i, item in enumerate(rnd):
                    item = {k: v for k, v in item.items() if k not in ("ref", "kept")}
                    try:
                        out = reduce(op.run(item))
                    except Exception as exc:  # the class and message are the outcome
                        out = ["raised", type(exc).__name__, str(exc)]
                    results.append([f"{workload} seed {seed} round {r} item {i}", item, out])
    json.dump(results, sys.stdout)


def run_items(src: Path, seeds, rounds: int | None) -> list:
    """child(seeds, rounds) on the tree src."""
    code = f"import same_bits; same_bits.child({list(seeds)!r}, {rounds!r})"
    proc = subprocess.run([sys.executable, "-c", code], cwd=src,
                          env=child_env(src, ROOT / "bench", ROOT / "tools"),
                          capture_output=True, text=True, check=False)
    if proc.returncode:
        raise RuntimeError(f"the child on {src} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def differing_paths(a, b, path: str = "") -> list[str]:
    """The paths within two reductions at which they differ."""
    if isinstance(a, dict) and isinstance(b, dict):
        return [p for k in sorted(a.keys() | b.keys())
                for p in differing_paths(a.get(k), b.get(k), f"{path}.{k}")]
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return [p for i, (x, y) in enumerate(zip(a, b))
                for p in differing_paths(x, y, f"{path}[{i}]")]
    return [] if a == b else [path or "."]


def compare_items(old_src, new_src, seeds=SEEDS, rounds: int | None = None
                  ) -> tuple[list[tuple[str, dict, list[str]]], int]:
    """((label, inputs, differing paths) of each item whose reductions
    differ, the number of items compared)."""
    trees = [tree(old_src), tree(new_src)]
    old, new = (run_items(src, seeds, rounds) for src in trees)
    if [row[:2] for row in old] != [row[:2] for row in new]:
        raise RuntimeError("the two children ran different items")
    diffs = [(label, item, differing_paths(a, b))
             for (label, item, a), (_, _, b) in zip(old, new) if a != b]
    return diffs, len(old)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) not in (1, 2):
        print("usage: python3 tools/same_bits.py OLD_SRC [NEW_SRC]", file=sys.stderr)
        return 2
    try:
        trees = [tree(src) for src in [*args, ROOT / "src"][:2]]
    except FileNotFoundError as exc:
        print(exc, file=sys.stderr)
        return 2
    cli = compare_cli(*trees)
    items, total = compare_items(*trees)
    lines = [(fields, " ".join(argv)) for argv, fields in cli]
    lines += [(paths, f"{label} {json.dumps(item)}") for label, item, paths in items]
    for fields, what in lines:
        print(f"differs ({', '.join(fields)}): {what}")
    print(f"{len(cli)} of {len(ARGV_SETS)} argv sets and {len(items)} of {total} "
          "bench items differ")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
