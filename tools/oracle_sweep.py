"""Compare the oracle of two source trees on a seeded random draw.

    python3 tools/oracle_sweep.py OLD_SRC [NEW_SRC] [--seed N] [--draws N]

Each draw is a potential and a level: Z and mu in 10^[-1, 1], hbar in
10^[-0.7, 0.5], alpha in 10^[-3, 0], D in 1..5, l in 0..3 and n in 0..6.
For every draw, each tree (a directory holding the `hulthen` package;
NEW_SRC defaults to the `src/` of this checkout) runs, in a child of its
own, `solve_exact` from `default_config` for the level's node count and
`count_bound_states` for its l.  An outcome is the energy or the count,
or the class of the exception raised in its place (a draw with no
closed-form level raises NoBoundState from default_config).

Printed: the outcomes of each tree by class, every draw whose solve or
count outcome changed, the largest |E_new - E_old|/tolerance over the
levels both trees solve, the histograms of final grid points and of
shots of each tree, and each tree's wall time for the solves and the
counts.  The exit status is 1 if an outcome changed or a level moved by
more than half its tolerance, else 0.

The parent commit's tree can be unpacked next to the checkout with

    mkdir ../parent && git archive HEAD~1 | tar -x -C ../parent

and is then compared by `python3 tools/oracle_sweep.py ../parent/src`.
"""

import argparse
import json
import os
import random
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path


def draws(seed: int, count: int) -> list[dict]:
    """The count draws of seed, each a dict of PotentialParams fields and
    the quantum numbers n and l."""
    rng = random.Random(seed)
    return [{"Z": 10.0 ** rng.uniform(-1.0, 1.0), "mu": 10.0 ** rng.uniform(-1.0, 1.0),
             "hbar": 10.0 ** rng.uniform(-0.7, 0.5), "alpha": 10.0 ** rng.uniform(-3.0, 0.0),
             "D": rng.randint(1, 5), "l": rng.randint(0, 3), "n": rng.randint(0, 6)}
            for _ in range(count)]


def child(seed: int, count: int) -> dict:
    """The outcomes of every draw on the `hulthen` found on sys.path, as
    {"solves": [...], "counts": [...], "solve_s": s, "count_s": s}."""
    from hulthen import PotentialParams, QuantumNumbers, count_bound_states, default_config, level
    from hulthen import solve_exact

    def solve(params, qn):
        cfg = default_config(params, qn)
        res = solve_exact(params, qn.l, level(params, qn).nodes, cfg)
        return {"energy": res.energy, "tolerance": cfg.tolerance, "points": res.points,
                "shots": res.shots}

    def outcome(func, *args):
        try:
            return {"outcome": "ok", **func(*args)}
        except (ArithmeticError, ValueError, RuntimeError) as exc:  # the class is the outcome
            return {"outcome": type(exc).__name__}

    out = {"solves": [], "counts": [], "solve_s": 0.0, "count_s": 0.0}
    for d in draws(seed, count):
        params = PotentialParams(Z=d["Z"], mu=d["mu"], hbar=d["hbar"], alpha=d["alpha"], D=d["D"])
        start = time.perf_counter()
        out["solves"].append(outcome(solve, params, QuantumNumbers(d["n"], d["l"])))
        mid = time.perf_counter()
        out["counts"].append(outcome(lambda: {"count": count_bound_states(params, d["l"])}))
        out["solve_s"] += mid - start
        out["count_s"] += time.perf_counter() - mid
    return out


def run(src, seed: int, count: int) -> dict:
    """child(seed, count) in a fresh interpreter with src as its only
    PYTHONPATH entry."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("HULTHEN_")}
    env["PYTHONPATH"] = str(Path(src).resolve())
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    proc = subprocess.run([sys.executable, __file__, "--child", "--seed", str(seed),
                           "--draws", str(count), str(src)],
                          env=env, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"the child on {src} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout)


def compare(old: dict, new: dict) -> dict:
    """The outcome changes of the solves and the counts, as lists of (draw
    index, old outcome, new outcome), and the largest |dE|/tolerance over
    the levels both trees solve (0 if none)."""
    def changes(key, same):
        return [(i, a, b) for i, (a, b) in enumerate(zip(old[key], new[key])) if not same(a, b)]

    solved = [(a, b) for a, b in zip(old["solves"], new["solves"])
              if a["outcome"] == b["outcome"] == "ok"]
    return {
        "solves": changes("solves", lambda a, b: a["outcome"] == b["outcome"]),
        "counts": changes("counts", lambda a, b: (a["outcome"], a.get("count"))
                          == (b["outcome"], b.get("count"))),
        "max_ratio": max((abs(b["energy"] - a["energy"]) / a["tolerance"] for a, b in solved),
                         default=0.0),
        "solved": len(solved),
    }


def _histogram(rows, key) -> str:
    hist = Counter(row[key] for row in rows if row["outcome"] == "ok")
    return " ".join(f"{value}:{hist[value]}" for value in sorted(hist)) or "-"


def _label(row) -> str:
    return str(row["count"]) if "count" in row else row["outcome"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="tools/oracle_sweep.py",
                                     description="Compare the oracle of two source trees.")
    parser.add_argument("old_src")
    parser.add_argument("new_src", nargs="?",
                        default=str(Path(__file__).resolve().parents[1] / "src"))
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument("--draws", type=int, default=500)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(child(args.seed, args.draws)))
        return 0

    trees = {"old": run(args.old_src, args.seed, args.draws),
             "new": run(args.new_src, args.seed, args.draws)}
    diff = compare(trees["old"], trees["new"])
    picks = draws(args.seed, args.draws)
    print(f"{args.draws} draws of seed {args.seed}")
    for name, out in trees.items():
        for key in ("solves", "counts"):
            classes = Counter(row["outcome"] for row in out[key])
            print(f"{name} {key}: " + ", ".join(f"{c} {classes[c]}" for c in sorted(classes)))
    for key in ("solves", "counts"):
        pairs = Counter((a["outcome"], b["outcome"]) for _, a, b in diff[key])
        print(f"{key} changed: {len(diff[key])}"
              + "".join(f", {a} -> {b} {k}" for (a, b), k in sorted(pairs.items())))
        for i, a, b in diff[key]:
            print(f"  draw {i}: {_label(a)} -> {_label(b)}  {picks[i]}")
    print(f"max |dE|/tolerance over {diff['solved']} levels solved by both: "
          f"{diff['max_ratio']:.3g}")
    for key in ("points", "shots"):
        for name, out in trees.items():
            print(f"{name} {key}: {_histogram(out['solves'], key)}")
    for name, out in trees.items():
        print(f"{name} wall: solves {out['solve_s']:.2f} s, counts {out['count_s']:.2f} s")
    return 1 if diff["solves"] or diff["counts"] or diff["max_ratio"] > 0.5 else 0


if __name__ == "__main__":
    sys.exit(main())
