"""Compare the CLI of two source trees byte for byte.

    python3 tools/cli_bytes.py OLD_SRC [NEW_SRC]

Each argv set of ARGV_SETS runs as a fresh `python -m hulthen.cli` child
against OLD_SRC and against NEW_SRC (directories holding the `hulthen`
package; NEW_SRC defaults to the `src/` of this checkout).  The exit
code, stdout and stderr of the two children are compared, with each
tree's path replaced by a placeholder, so that tracebacks from two
checkouts can still agree.  The argv sets that differ are printed, and
the exit status is 1 if there are any, else 0.

The parent commit's tree can be unpacked next to the checkout with

    mkdir ../parent && git archive HEAD~1 | tar -x -C ../parent

and is then compared by `python3 tools/cli_bytes.py ../parent/src`.
"""

import os
import subprocess
import sys
from pathlib import Path

QUADRATURE_FAILURE = ("expectation --Z 2.3163131398668173 --mu 8.680299759535256 "
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
    QUADRATURE_FAILURE,
    "expectation --dim 1 --n 1 --alpha 1e-160",
    "validate --dim 1 --n 1 --alpha 1e-160",
    "expectation --dim 2 --l 1 --n 1 --format json",
)]

PLACEHOLDER = b"<src>"


def run(src: Path, argv: list[str]) -> tuple[int, bytes, bytes]:
    """Exit code, stdout and stderr of `python -m hulthen.cli ARGV` on the
    tree src, with no HULTHEN_* variables and src's path as PLACEHOLDER."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("HULTHEN_")}
    env["PYTHONPATH"] = str(src)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    proc = subprocess.run([sys.executable, "-m", "hulthen.cli", *argv], cwd=src, env=env,
                          capture_output=True, check=False)
    path = os.fsencode(src)
    return (proc.returncode, proc.stdout.replace(path, PLACEHOLDER),
            proc.stderr.replace(path, PLACEHOLDER))


def compare(old_src, new_src, argv_sets=ARGV_SETS) -> list[tuple[list[str], list[str]]]:
    """(argv, names of the differing fields) for each argv set whose exit
    code, stdout or stderr differs between the two trees."""
    trees = [Path(old_src).resolve(), Path(new_src).resolve()]
    diffs = []
    for argv in argv_sets:
        old, new = (run(src, argv) for src in trees)
        fields = [name for name, a, b in zip(("exit", "stdout", "stderr"), old, new) if a != b]
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
