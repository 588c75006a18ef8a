"""Compare what two source trees return on the benchmark's in-process items.

    python3 tools/bench_items.py OLD_SRC [NEW_SRC]

Every item of the `spectra`, `census` and `reports` workloads of bench
seeds 1-3, as `bench/inputs.py` generates them (kept faults included),
runs through its workload's `run` in `bench/ops.py`, in round order, in
one child per tree (a directory holding the `hulthen` package; NEW_SRC
defaults to the `src/` of this checkout).  bench/ is only read.  Each
result is reduced to what its bits say: every float (numpy's too) to its
`float.hex`, each numpy array to its dtype, shape and the SHA-256 of its
bytes, a dataclass to its class name and fields, and an exception raised
in place of a result to its class name and message.  The items whose
reductions differ are printed with their inputs and the paths of the
differing fields, and the exit status is 1 if there are any, else 0.

The parent commit's tree can be unpacked next to the checkout with

    mkdir ../parent && git archive HEAD~1 | tar -x -C ../parent

and is then compared by `python3 tools/bench_items.py ../parent/src`.
"""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
WORKLOADS = ("spectra", "census", "reports")
SEEDS = (1, 2, 3)


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


def child(src: str, workloads, seeds, rounds: int | None) -> list:
    """[label, inputs, reduction] of each item, run on the tree src."""
    sys.path[:0] = [src, str(BENCH)]
    import hulthen
    import inputs
    import ops

    if not Path(hulthen.__file__).resolve().is_relative_to(src):
        raise RuntimeError(f"hulthen was imported from {hulthen.__file__}, not from {src}")

    table = inputs.ref.load_table()
    results = []
    for workload in workloads:
        op = ops.make(workload, str(BENCH.parent), str(BENCH))
        for seed in seeds:
            for r, rnd in enumerate(inputs.generate(workload, seed, table)["rounds"][:rounds]):
                for i, item in enumerate(rnd):
                    item = {k: v for k, v in item.items() if k not in ("ref", "kept")}
                    try:
                        out = reduce(op.run(item))
                    except Exception as exc:  # the class and message are the outcome
                        out = ["raised", type(exc).__name__, str(exc)]
                    results.append([f"{workload} seed {seed} round {r} item {i}", item, out])
    return results


def run(src, workloads=WORKLOADS, seeds=SEEDS, rounds: int | None = None) -> list:
    """child(...) in a fresh interpreter with no HULTHEN_* variables."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("HULTHEN_")}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    args = [str(Path(src).resolve()), ",".join(workloads), ",".join(map(str, seeds)),
            str(rounds)]
    proc = subprocess.run([sys.executable, __file__, "--child", *args], env=env,
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


def compare(old_src, new_src, workloads=WORKLOADS, seeds=SEEDS,
            rounds: int | None = None) -> tuple[list[tuple[str, dict, list[str]]], int]:
    """((label, inputs, differing paths) of each item whose reductions
    differ, the number of items compared)."""
    old, new = (run(src, workloads, seeds, rounds) for src in (old_src, new_src))
    if [row[:2] for row in old] != [row[:2] for row in new]:
        raise RuntimeError("the two children ran different items")
    diffs = [(label, item, differing_paths(a, b))
             for (label, item, a), (_, _, b) in zip(old, new) if a != b]
    return diffs, len(old)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if args[:1] == ["--child"]:
        src, workloads, seeds, rounds = args[1:]
        rows = child(src, workloads.split(","), [int(s) for s in seeds.split(",")],
                     None if rounds == "None" else int(rounds))
        json.dump(rows, sys.stdout)
        return 0
    if len(args) not in (1, 2):
        print("usage: python3 tools/bench_items.py OLD_SRC [NEW_SRC]", file=sys.stderr)
        return 2
    new_src = args[1] if len(args) == 2 else Path(__file__).resolve().parents[1] / "src"
    diffs, total = compare(args[0], new_src)
    for label, item, paths in diffs:
        print(f"differs ({', '.join(paths)}): {label} {json.dumps(item)}")
    print(f"{len(diffs)} of {total} items differ")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
