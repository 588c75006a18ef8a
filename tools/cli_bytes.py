"""Compare the CLI of two source trees byte for byte.

    python3 tools/cli_bytes.py OLD_SRC [NEW_SRC]

Each argv set of ARGV_SETS runs as a fresh `python -m hulthen.cli` child
against OLD_SRC and against NEW_SRC (directories holding the `hulthen`
package; NEW_SRC defaults to the `src/` of this checkout).  The exit
code, stdout and stderr of the two children are compared, and so are
the bytes of the file an argv set writes through `--out <out>` (or its
absence): each child gets its own temporary path for <out>.  Each
tree's path and the temporary path are replaced by placeholders, so
that tracebacks and messages from two checkouts can still agree.  A
child that runs longer than TIMEOUT_S seconds is killed and its argv set
reported as differing in "timeout".  The argv sets that differ are
printed, and the exit status is 1 if there are any, else 0.

The parent commit's tree can be unpacked next to the checkout with

    mkdir ../parent && git archive HEAD~1 | tar -x -C ../parent

and is then compared by `python3 tools/cli_bytes.py ../parent/src`.
"""

import os
import subprocess
import sys
import tempfile
from pathlib import Path

# Z mu/hbar^2 ~ 500: U lost its digits near the origin while P_n was
# evaluated in x = 1 - 2s, and the quadrature did not converge (exit 3)
STRONG_CORE = ("expectation --Z 2.3163131398668173 --mu 8.680299759535256 "
               "--alpha 0.11827746864980619 --hbar 0.20155218228825997 --dim 1 --n 1")

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
)]

PLACEHOLDER = b"<src>"
OUT = "<out>"
TIMEOUT_S = 60.0


def run(src: Path, argv: list[str], timeout: float = TIMEOUT_S):
    """Exit code, stdout, stderr and the bytes of the --out file (None if
    none was written) of `python -m hulthen.cli ARGV` on the tree src, with
    no HULTHEN_* variables, src's path as PLACEHOLDER and a fresh temporary
    path for OUT; None if the child outlives timeout seconds."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("HULTHEN_")}
    env["PYTHONPATH"] = str(src)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        try:
            proc = subprocess.run([sys.executable, "-m", "hulthen.cli",
                                   *(out if arg == OUT else arg for arg in argv)],
                                  cwd=src, env=env, capture_output=True, check=False,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            return None
        written = Path(out).read_bytes() if os.path.exists(out) else None

    def scrub(data: bytes) -> bytes:
        data = data.replace(os.fsencode(out), os.fsencode(OUT))
        return data.replace(os.fsencode(src), PLACEHOLDER)

    return proc.returncode, scrub(proc.stdout), scrub(proc.stderr), written


def compare(old_src, new_src, argv_sets=ARGV_SETS,
            timeout: float = TIMEOUT_S) -> list[tuple[list[str], list[str]]]:
    """(argv, names of the differing fields) for each argv set whose exit
    code, stdout, stderr or --out file differs between the two trees, or
    that timed out on either."""
    trees = [Path(old_src).resolve(), Path(new_src).resolve()]
    diffs = []
    for argv in argv_sets:
        old, new = (run(src, argv, timeout) for src in trees)
        if old is None or new is None:
            fields = ["timeout"]
        else:
            fields = [name for name, a, b in zip(("exit", "stdout", "stderr", "out"), old, new)
                      if a != b]
        if fields:
            diffs.append((argv, fields))
    return diffs


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) not in (1, 2):
        print("usage: python3 tools/cli_bytes.py OLD_SRC [NEW_SRC]", file=sys.stderr)
        return 2
    new_src = args[1] if len(args) == 2 else Path(__file__).resolve().parents[1] / "src"
    diffs = compare(args[0], new_src)
    for cmd, fields in diffs:
        print(f"differs ({', '.join(fields)}): {' '.join(cmd)}")
    print(f"{len(diffs)} of {len(ARGV_SETS)} argv sets differ")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
