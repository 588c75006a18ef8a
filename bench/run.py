"""Benchmark of the hulthen library and CLI.

    python3 bench/run.py --workload spectra|census|reports|cli
                         --seed N --seconds S --trace 0|1

Run from the root of a checkout (the program is imported from ./src).
--trace 0 measures the end-to-end metrics: one timed worker process,
and SETUP_LAUNCHES fresh interpreters for setup_s, half of them before
it and half after.  --trace 1 runs a fixed number of rounds with every
public library function wrapped and reports the per-layer metrics.
Every output is checked in this process against references computed
apart from the program.  The last line of stdout is the JSON result; the
lines before it give the uncorrected figures, the speed factor and what
was left out.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import inputs  # noqa: E402
import timing  # noqa: E402
from timing import DriftClock, median, percentile, tail_percentile  # noqa: E402

WORKLOADS = ("spectra", "census", "reports", "cli")
SETUP_LAUNCHES = 12
LAYER_LAUNCHES = 5
TRACE_ROUNDS = {"spectra": 3, "census": 4, "reports": 6, "cli": 8}
WORKER_GRACE_S = 120.0

# per-layer metric -> unit; each is a mean per successful operation
PER_LAYER = {
    "oracle.solve_exact.ms": "ms", "oracle.solve_exact.shots": "count",
    "oracle.count_bound_states.ms": "ms", "model.potential.calls": "count",
    "model.potential.self_ms": "ms", "oracle.adaptive_quad.ms": "ms",
    "oracle.adaptive_quad.evals": "count", "expectation.quadrature_expect.self_ms": "ms",
    "expectation.expectation_report.ms": "ms", "specfun.jacobi_p.calls": "count",
    "specfun.jacobi_p.self_ms": "ms", "model.normalization_constant.calls": "count",
    "model.normalization_constant.self_ms": "ms", "model.energy.calls": "count",
    "model.wavefunction_samples.self_ms": "ms", "model.centrifugal_approx.calls": "count",
    "model.spectrum.ms": "ms", "cli.interpreter_ms": "ms", "cli.import_ms": "ms",
    "cli.main.spectrum.ms": "ms", "cli.main.wavefunction.ms": "ms",
    "cli.main.expectation.ms": "ms",
}
END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "op_ms_p50": "ms", "op_ms_tail": "ms",
              "peak_rss_mb": "MB"}

CHECKS = {"spectra": checks.check_spectra, "census": checks.check_census,
          "reports": checks.check_reports}


class BenchError(RuntimeError):
    pass


def _worker(workload, workdir, mode, out, **extra):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--inputs", os.path.join(workdir, "inputs.json"), "--out", out, "--mode", mode]
    for key, val in extra.items():
        cmd += [f"--{key}", str(val)]
    return cmd


def _run(cmd, timeout, env=None):
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, timeout=timeout)
    if proc.returncode != 0:
        raise BenchError(f"{cmd[1:3]} exited {proc.returncode}: "
                         f"{proc.stderr.decode('utf-8', 'replace')[-800:]}")
    return proc


def _read_jsonl(path):
    recs, summary = [], None
    with open(path) as fh:
        for line in fh:
            rec = json.loads(line)
            if rec.get("summary"):
                summary = rec
            else:
                recs.append(rec)
    if summary is None:
        raise BenchError(f"{path} has no summary line")
    return recs, summary


# ------------------------------------------------------------------ set-up


def _launch_times(cmd, measure, count, env=None, child_kernels=False):
    """Corrected and raw seconds of `count` launches of cmd; measure(proc,
    t_launch) gives the raw time and, with child_kernels, the kernel samples
    the child took right after the measured interval.  A launch is
    corrected by the median of those; without them (a bare interpreter)
    it is corrected by two kernel samples in this process before the
    launch (after one warm-up sample, which runs slow after the parent
    sat idle) and two after it."""
    corrected, raw = [], []
    for _ in range(count):
        before = [] if child_kernels else [timing.kernel() for _ in range(3)][1:]
        t0 = time.perf_counter()
        proc = _run(cmd, timeout=60.0, env=env)
        dur, kernels = measure(proc, t0)
        if not child_kernels:
            kernels = before + [timing.kernel(), timing.kernel()]
        raw.append(dur)
        corrected.append(dur * timing.KERNEL_REF_S / median(kernels))
    return corrected, raw


def measure_setup(workload, workdir, count):
    """From launching a worker until its first operation returned."""
    out = os.path.join(workdir, "setup.json")

    def done(_proc, t0):
        with open(out) as fh:
            rec = json.load(fh)
        return rec["t_done"] - t0, rec["kernels"]

    return _launch_times(_worker(workload, workdir, "setup", out), done, count,
                         child_kernels=True)


def measure_startup_layers():
    """cli.interpreter_ms (bare interpreter, launch to exit) and
    cli.import_ms (importing hulthen.cli, timed inside the child and
    corrected by kernel samples the child takes after it), medians of
    LAYER_LAUNCHES, corrected."""
    import ops

    def bare_exit(_proc, t0):
        return time.perf_counter() - t0, []

    def import_time(proc, _t0):
        values = [float(x) for x in proc.stdout.split()]
        return values[0], values[1:]

    env = ops.child_env(ROOT)
    bare, _ = _launch_times([sys.executable, "-c", "pass"], bare_exit, LAYER_LAUNCHES, env)
    code = ("import sys, time; t = time.perf_counter(); import hulthen.cli; "
            "d = time.perf_counter() - t; "
            f"sys.path.insert(0, {HERE!r}); from timing import kernel; "
            "print(d, *[kernel() for _ in range(3)])")
    imports, _ = _launch_times([sys.executable, "-c", code], import_time, LAYER_LAUNCHES, env,
                               child_kernels=True)
    return 1000.0 * median(bare), 1000.0 * median(imports)


# ---------------------------------------------------------------- checking


class CliExpectations:
    """In-process output and verdict per distinct argv, computed once."""

    def __init__(self, workdir):
        sys.path.insert(0, os.path.join(ROOT, "src"))
        import hulthen
        import ops

        self.lib = hulthen
        self.runner = ops.CliInProcess(ROOT, workdir)
        self.cache = {}

    def get(self, item):
        key = tuple(item["argv"]) + (bool(item["out"]),)
        if key not in self.cache:
            proc = self.runner.run(item)
            data = self.runner.output(item, proc)
            verdict = (f"in-process exit code {proc.returncode}" if proc.returncode
                       else checks.check_cli_values(item["argv"], data.decode(), self.lib))
            self.cache[key] = {"sha256": hashlib.sha256(data).hexdigest(),
                               "verdict": verdict}
        return self.cache[key]


def evaluate(workload, gen, recs, workdir):
    """Classify every operation; returns (successful records, stats)."""
    rounds = gen["rounds"]
    cli = CliExpectations(workdir) if workload == "cli" else None
    ok, failed, wrong, unexpected = [], 0, [], []
    for rec in recs:
        item = rounds[rec["round"] % len(rounds)][rec["pos"]]
        kept = "kept" in item
        if "error" in rec:
            failed += 1
            if not kept:
                unexpected.append(rec["error"])
            continue
        if cli is not None:
            reason = checks.check_cli(item, rec["out"], cli.get(item))
        else:
            reason = CHECKS[workload](item, rec["out"])
        if reason is None:
            ok.append(rec)
        elif kept:
            failed += 1
        else:
            wrong.append(f"op {rec['op']} {_label(item)}: {reason}")
    return ok, {"attempted": len(recs), "failed": failed, "ok": len(ok), "wrong": wrong,
                "unexpected_failures": unexpected}


def is_correct(stats) -> bool:
    """No normal operation rejected or raising, and enough checked outputs
    for the tail percentile."""
    return (not stats["wrong"] and not stats["unexpected_failures"]
            and stats["ok"] >= timing.MIN_TAIL_SAMPLES)


def _label(item):
    return json.dumps({k: v for k, v in item.items() if k not in ("ref", "kept")},
                      sort_keys=True)


# ----------------------------------------------------------------- metrics


def end_to_end(recs, ok, summary, setup):
    clock = DriftClock(summary["kernel_times"], summary["kernel_durations"])

    def dur(rec, corrected):
        d = rec["t1"] - rec["t0"]
        return d * clock.factor(rec["t0"], rec["t1"]) if corrected else d

    # a run with fewer than MIN_TAIL_SAMPLES checked outputs is reported as
    # incorrect; its tail falls back to the slowest operation
    tail_p = tail_percentile(len(ok)) if len(ok) >= timing.MIN_TAIL_SAMPLES else 100
    out = {}
    for corrected in (True, False):
        ok_s = [dur(r, corrected) for r in ok] or [0.0]
        all_s = sum(dur(r, corrected) for r in recs)
        out["corrected" if corrected else "raw"] = {
            "setup_s": median(setup[0] if corrected else setup[1]),
            "ops_per_s": len(ok) / all_s if all_s > 0.0 else 0.0,
            "op_ms_p50": 1000.0 * median(ok_s),
            "op_ms_tail": 1000.0 * percentile(ok_s, tail_p),
            "peak_rss_mb": summary["peak_rss_mb"],
        }
    out["tail_percentile"] = tail_p
    out["tail_samples"] = len(ok)
    out["speed_factor"] = median(clock.durations) / timing.KERNEL_REF_S
    out["timed_wall_s"] = summary["t_end"] - summary["t_start"]
    return out


def per_layer(workload, ok, summary, startup):
    clock = DriftClock(summary["kernel_times"], summary["kernel_durations"])
    n = max(1, len(ok))
    totals = {}
    per_sub = {}
    for rec in ok:
        f = clock.factor(rec["t0"], rec["t1"])
        for name, (calls, incl, self_s) in rec["layers"].items():
            t = totals.setdefault(name, [0, 0.0, 0.0])
            t[0] += calls
            t[1] += incl * f
            t[2] += self_s * f
            if name.startswith("cli.main."):
                per_sub.setdefault(name, []).append(incl * f)
    metrics = {}
    for name in PER_LAYER:
        base, _, kind = name.rpartition(".")
        if name.startswith("cli."):
            continue
        calls, incl, self_s = totals.get(base, [0, 0.0, 0.0])
        if kind == "ms":
            metrics[name] = 1000.0 * incl / n
        elif kind == "self_ms":
            metrics[name] = 1000.0 * self_s / n
        elif kind == "calls":
            metrics[name] = calls / n
        elif name == "oracle.adaptive_quad.evals":
            metrics[name] = totals.get(name, [0])[0] / n
    shots = [checks.shots(r["out"]) for r in ok] if workload == "spectra" else []
    metrics["oracle.solve_exact.shots"] = sum(shots) / n if shots else 0.0
    metrics["cli.interpreter_ms"], metrics["cli.import_ms"] = startup
    for sub in inputs.CLI_SUBCOMMANDS:
        calls = per_sub.get("cli.main." + sub, [])
        metrics[f"cli.main.{sub}.ms"] = 1000.0 * sum(calls) / len(calls) if calls else 0.0
    return {name: metrics[name] for name in PER_LAYER}


# -------------------------------------------------------------------- main


def run(workload, seed, seconds, trace):
    runs_dir = os.path.join(HERE, "_run")
    workdir = os.path.join(runs_dir, f"{workload}-s{seed}-t{trace}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        gen = inputs.generate(workload, seed)
        program_rounds = [[{k: v for k, v in item.items() if k not in ("ref", "kept")}
                           for item in rnd] for rnd in gen["rounds"]]
        with open(os.path.join(workdir, "inputs.json"), "w") as fh:
            json.dump({"rounds": program_rounds}, fh)
        out = os.path.join(workdir, "ops.jsonl")
        if trace:
            startup = measure_startup_layers()
            cmd = _worker(workload, workdir, "traced", out, rounds=TRACE_ROUNDS[workload])
        else:
            setup = measure_setup(workload, workdir, SETUP_LAUNCHES // 2)
            cmd = _worker(workload, workdir, "timed", out, seconds=seconds)
        _run(cmd, timeout=seconds + WORKER_GRACE_S)
        if not trace:
            # the other half of the set-up launches after the timed phase,
            # in another phase of the machine's speed drift
            more = measure_setup(workload, workdir, SETUP_LAUNCHES - SETUP_LAUNCHES // 2)
            setup = tuple(a + b for a, b in zip(setup, more))
        recs, summary = _read_jsonl(out)
        ok, stats = evaluate(workload, gen, recs, workdir)
        detail = {"workload": workload, "seed": seed, "trace": trace, **stats,
                  "rounds": summary["rounds"], "excluded": gen["excluded"]}
        if trace:
            metrics = per_layer(workload, ok, summary, startup)
            e2e = end_to_end(recs, ok, summary, ([0.0], [0.0]))
            detail["traced_corrected"] = e2e["corrected"]
            plain = [r["plain_s"] for r in recs if "plain_s" in r]
            if plain:
                detail["in_process_overhead"] = (
                    sum(r["t1"] - r["t0"] for r in recs) / sum(plain) - 1.0)
            shutil.copy(out.replace(".jsonl", ".spans.json"),
                        os.path.join(runs_dir, f"{workload}-s{seed}.spans.json"))
        else:
            e2e = end_to_end(recs, ok, summary, setup)
            detail.update({k: v for k, v in e2e.items() if k != "corrected"})
            detail["setup_launches_s"] = setup[1]
            metrics = e2e["corrected"]
        with open(os.path.join(runs_dir, f"{workload}-s{seed}-t{trace}.json"), "w") as fh:
            json.dump({"detail": detail, "metrics": metrics}, fh, indent=1)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    units = PER_LAYER if trace else END_TO_END
    result = {"correct": is_correct(stats), "attempted": stats["attempted"],
              "failed": stats["failed"],
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    return detail, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "hulthen", "__init__.py")):
        print(f"error: no program source at {os.path.join(ROOT, 'src', 'hulthen')}",
              file=sys.stderr)
        return 2
    for key in [k for k in os.environ if k.startswith("HULTHEN_")]:
        del os.environ[key]
    try:
        detail, result = run(args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    for reason in detail["wrong"][:20]:
        print(f"WRONG {reason}")
    for error in detail["unexpected_failures"][:20]:
        print(f"FAILED {error}")
    if detail["ok"] < timing.MIN_TAIL_SAMPLES:
        print(f"TOO FEW {detail['ok']} outputs passed the checks, "
              f"{timing.MIN_TAIL_SAMPLES} are needed")
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
