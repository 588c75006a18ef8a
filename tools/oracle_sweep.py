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

A level that only NEW_SRC solves (an error -> ok change, "mended") and a
level both trees solve whose energy moved by more than MOVED = 1e-3 of
its tolerance ("moved") are checked against a refined solve of NEW_SRC:
the same bracket at a hundredth of the tolerance, or at the floor of
`solve_exact` (`oracle._tolerance_floor`) if that is larger, on a grid
from a tenth of the r_min of its `oracle._grid_ends` to twice its r_max.
Every level NEW_SRC solves at gamma = 0 (D = 3, l = 0 and D = 1, l <=
1), where the closed form solves the exact equation, is checked against
that closed form, taken in exact fractions of the draw.

Printed: the outcomes of each tree by class, every draw whose solve or
count outcome changed (a mended level with its |E - E_refined|/tolerance),
every moved level with its |E_new - E_old|/tolerance and |E -
E_refined|/tolerance, the largest |E_new - E_old|/tolerance over the
levels both trees solve and the largest |E - E_refined|/tolerance over
the mended and over the moved ones, the gamma = 0 levels of NEW_SRC whose
closed form lies outside energy -/+ residual and the largest |E -
E_closed|/residual over them all, the histograms of final grid steps
(by the power of two at or above them) and of shots of each tree, the
histogram of shots(new) - shots(old) over the levels both trees solve
(so a change in the passes a solve makes shows at once), the mean full
and chord Cooley passes per solved level of each tree that has chord
passes (`oracle._CHORD_SPAN`), and each tree's wall time for the solves
and the counts.  The exit status is 1 if a level one tree solved raises
in NEW_SRC (an ok -> error change), a count changed, a level lies more
than half its tolerance from its old value or from its refined one (a
refined solve that raises counts as such), or a gamma = 0 level of
NEW_SRC misses its closed form, else 0.
A change from one error class to another is printed but does not fail.

The parent commit's tree can be unpacked next to the checkout with

    mkdir ../parent && git archive HEAD~1 | tar -x -C ../parent

and is then compared by `python3 tools/oracle_sweep.py ../parent/src`.
"""

import argparse
import json
import math
import os
import random
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

# a level both trees solve is checked against its refined solve once its
# energy moved by more than this share of its tolerance
MOVED = 1e-3


def draws(seed: int, count: int) -> list[dict]:
    """The count draws of seed, each a dict of PotentialParams fields and
    the quantum numbers n and l."""
    rng = random.Random(seed)
    return [{"Z": 10.0 ** rng.uniform(-1.0, 1.0), "mu": 10.0 ** rng.uniform(-1.0, 1.0),
             "hbar": 10.0 ** rng.uniform(-0.7, 0.5), "alpha": 10.0 ** rng.uniform(-3.0, 0.0),
             "D": rng.randint(1, 5), "l": rng.randint(0, 3), "n": rng.randint(0, 6)}
            for _ in range(count)]


def child(seed: int, count: int, refine: list[int] | None = None) -> dict:
    """The outcomes of every draw on the `hulthen` found on sys.path, as
    {"solves": [...], "counts": [...], "solve_s": s, "count_s": s}; or, if
    refine lists draw indices, {"refined": [...]}, the outcomes of their
    refined solves in that order."""
    from hulthen import PotentialParams, QuantumNumbers, count_bound_states, oracle
    from hulthen import default_config, level, solve_exact

    def solve(params, qn, refined=False):
        passes.clear()
        cfg = default_config(params, qn)
        if refined:
            floor = oracle._tolerance_floor(params, cfg.energy_bracket[0])
            cfg = default_config(params, qn, max(cfg.tolerance / 100.0, floor))
        res = solve_exact(params, qn.l, level(params, qn).nodes, cfg)
        return {"energy": res.energy, "tolerance": cfg.tolerance, "residual": res.residual,
                "points": res.points, "shots": res.shots, **passes}

    def outcome(func, *args):
        try:
            return {"outcome": "ok", **func(*args)}
        except (ArithmeticError, ValueError, RuntimeError) as exc:  # the class is the outcome
            return {"outcome": type(exc).__name__}

    def potential(d):
        return PotentialParams(Z=d["Z"], mu=d["mu"], hbar=d["hbar"], alpha=d["alpha"], D=d["D"])

    # full and chord Cooley passes of the solve running; a chord pass
    # returns the basis it was offered.  Trees from before chord passes
    # (no oracle._CHORD_SPAN) are not counted
    passes = Counter()
    if hasattr(oracle, "_CHORD_SPAN"):
        cooley = oracle._cooley

        def counted(grid, energy_val, *basis):
            out = cooley(grid, energy_val, *basis)
            passes["chord" if basis and out[2] is basis[0] else "full"] += 1
            return out

        oracle._cooley = counted

    picks = draws(seed, count)
    if refine is not None:
        grid_ends = oracle._grid_ends

        # the arguments are passed on as they come, so the same child runs
        # against trees whose _grid_ends take different ones
        def wider(*args):
            r_min, r_max = grid_ends(*args)
            return r_min / 10.0, 2.0 * r_max

        oracle._grid_ends = wider
        return {"refined": [outcome(solve, potential(picks[i]),
                                    QuantumNumbers(picks[i]["n"], picks[i]["l"]), True)
                            for i in refine]}
    out = {"solves": [], "counts": [], "solve_s": 0.0, "count_s": 0.0}
    for d in picks:
        params = potential(d)
        start = time.perf_counter()
        out["solves"].append(outcome(solve, params, QuantumNumbers(d["n"], d["l"])))
        mid = time.perf_counter()
        out["counts"].append(outcome(lambda: {"count": count_bound_states(params, d["l"])}))
        out["solve_s"] += mid - start
        out["count_s"] += time.perf_counter() - mid
    return out


def run(src, seed: int, count: int, refine: list[int] | None = None) -> dict:
    """child(seed, count, refine) in a fresh interpreter with src as its
    only PYTHONPATH entry."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("HULTHEN_")}
    env["PYTHONPATH"] = str(Path(src).resolve())
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    extra = [] if refine is None else ["--refine", ",".join(map(str, refine))]
    proc = subprocess.run([sys.executable, __file__, "--child", "--seed", str(seed),
                           "--draws", str(count), *extra, str(src)],
                          env=env, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"the child on {src} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout)


def compare(old: dict, new: dict) -> dict:
    """The outcome changes of the solves and the counts, as lists of (draw
    index, old outcome, new outcome), the draws only new solves
    ("mended"), {draw index: |dE|/tolerance} of the levels both trees
    solve ("ratios") and of those that moved by more than MOVED of their
    tolerance ("moved"), the largest of the ratios (0 if none), and the
    shots(new) - shots(old) of each level both trees solve ("shots")."""
    def changes(key, same):
        return [(i, a, b) for i, (a, b) in enumerate(zip(old[key], new[key])) if not same(a, b)]

    both = {i: (a, b) for i, (a, b) in enumerate(zip(old["solves"], new["solves"]))
            if a["outcome"] == b["outcome"] == "ok"}
    ratios = {i: abs(b["energy"] - a["energy"]) / a["tolerance"] for i, (a, b) in both.items()}
    solves = changes("solves", lambda a, b: a["outcome"] == b["outcome"])
    return {
        "solves": solves,
        "mended": [i for i, a, b in solves if b["outcome"] == "ok"],
        "moved": {i: ratio for i, ratio in ratios.items() if ratio > MOVED},
        "counts": changes("counts", lambda a, b: (a["outcome"], a.get("count"))
                          == (b["outcome"], b.get("count"))),
        "max_ratio": max(ratios.values(), default=0.0),
        "solved": len(ratios),
        "shots": [b["shots"] - a["shots"] for a, b in both.values()],
    }


def refined_ratios(new: dict, refined: list[dict], checked: list[int]) -> dict:
    """{draw index: |E - E_refined|/tolerance} of each checked level, inf
    where its refined solve raised."""
    return {i: (abs(new["solves"][i]["energy"] - ref["energy"]) / new["solves"][i]["tolerance"]
                if ref["outcome"] == "ok" else math.inf)
            for i, ref in zip(checked, refined)}


def closed_form(d: dict) -> Fraction | None:
    """The level of draw d by the closed form E = -(alpha hbar eps)^2/(2 mu),
    eps = (delta - m^2)/(2m), delta = 2 Z mu/(alpha hbar^2), m = n + l +
    (D-1)/2, in exact fractions of its inputs, where gamma = 0 (there the
    closed form solves the exact equation) and the level exists; else
    None."""
    if (2 * d["l"] + d["D"] - 1) * (2 * d["l"] + d["D"] - 3) != 0:
        return None
    Z, mu, hbar, alpha = (Fraction(d[key]) for key in ("Z", "mu", "hbar", "alpha"))
    m = d["n"] + d["l"] + Fraction(d["D"] - 1, 2)
    delta = 2 * Z * mu / (alpha * hbar**2)
    if m <= 0 or delta <= m * m:
        return None
    return -((alpha * hbar * (delta - m * m) / (2 * m)) ** 2) / (2 * mu)


def closed_form_ratios(picks: list[dict], solves: list[dict]) -> dict:
    """{draw index: |E - E_closed|/residual} of each solved level with a
    closed_form."""
    ratios = {}
    for i, (d, row) in enumerate(zip(picks, solves)):
        exact = closed_form(d)
        if exact is not None and row["outcome"] == "ok":
            ratios[i] = float(abs(Fraction(row["energy"]) - exact) / Fraction(row["residual"]))
    return ratios


def _histogram(values) -> str:
    hist = Counter(values)
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
    parser.add_argument("--refine", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        refine = None if args.refine is None else [int(i) for i in args.refine.split(",")]
        print(json.dumps(child(args.seed, args.draws, refine)))
        return 0

    trees = {"old": run(args.old_src, args.seed, args.draws),
             "new": run(args.new_src, args.seed, args.draws)}
    diff = compare(trees["old"], trees["new"])
    checked = diff["mended"] + sorted(diff["moved"])
    refined = run(args.new_src, args.seed, args.draws, checked)["refined"] if checked else []
    ratios = refined_ratios(trees["new"], refined, checked)
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
            note = (f"  |dE|/tolerance to refined {ratios[i]:.3g}"
                    if key == "solves" and i in ratios else "")
            print(f"  draw {i}: {_label(a)} -> {_label(b)}{note}  {picks[i]}")
    print(f"solves moved by more than {MOVED:g} of their tolerance: {len(diff['moved'])}")
    for i, moved in sorted(diff["moved"].items()):
        print(f"  draw {i}: |dE|/tolerance {moved:.3g}, to refined {ratios[i]:.3g}  {picks[i]}")
    worst_mended = max((ratios[i] for i in diff["mended"]), default=0.0)
    worst_moved = max((ratios[i] for i in diff["moved"]), default=0.0)
    print(f"max |dE|/tolerance over {diff['solved']} levels solved by both: "
          f"{diff['max_ratio']:.3g}")
    print(f"max |dE|/tolerance to refined over {len(diff['mended'])} mended levels: "
          f"{worst_mended:.3g}")
    print(f"max |dE|/tolerance to refined over {len(diff['moved'])} moved levels: "
          f"{worst_moved:.3g}")
    exact = closed_form_ratios(picks, trees["new"]["solves"])
    misses = [i for i, ratio in exact.items() if ratio > 1.0]
    print(f"gamma = 0 levels of new outside energy -/+ residual of their closed form: "
          f"{len(misses)} of {len(exact)}, max |E - E_closed|/residual "
          f"{max(exact.values(), default=0.0):.3g}")
    for i in misses:
        print(f"  draw {i}: |E - E_closed|/residual {exact[i]:.3g}  {picks[i]}")
    solved = {name: [row for row in out["solves"] if row["outcome"] == "ok"]
              for name, out in trees.items()}
    # final grid sizes seldom repeat: each is binned by the power of two at
    # or above its steps
    for name, rows in solved.items():
        print(f"{name} steps up to: "
              f"{_histogram(1 << (row['points'] - 2).bit_length() for row in rows)}")
    for name, rows in solved.items():
        print(f"{name} shots: {_histogram(row['shots'] for row in rows)}")
    print(f"shots new - old over {diff['solved']} levels solved by both: "
          f"{_histogram(diff['shots'])}")
    for name, rows in solved.items():
        if rows and "full" in rows[0]:
            print(f"{name} passes per solve: "
                  + ", ".join(f"{kind} {sum(row.get(kind, 0) for row in rows) / len(rows):.2f}"
                              for kind in ("full", "chord")))
    for name, out in trees.items():
        print(f"{name} wall: solves {out['solve_s']:.2f} s, counts {out['count_s']:.2f} s")
    broken = [i for i, a, b in diff["solves"] if a["outcome"] == "ok"]
    worst = max(diff["max_ratio"], worst_mended, worst_moved)
    return 1 if broken or diff["counts"] or misses or worst > 0.5 else 0


if __name__ == "__main__":
    sys.exit(main())
