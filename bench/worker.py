"""The process that does the program's work for one workload.

    python3 bench/worker.py --workload W --inputs FILE --out FILE
                            --mode setup|timed|traced [--seconds S] [--rounds R]

setup:  run the first operation and record when it returned (the parent
        measures from the moment it launched this interpreter).
timed:  closed loop, one caller: whole rounds until S seconds have passed
        and at least MIN_TAIL_SAMPLES operations succeeded, with
        calibration kernel samples interleaved.  Tracing is off.
traced: exactly R rounds with the tracer installed.

Results stream to FILE as JSON lines; the parent checks them, so no
reference computation runs in this process.
"""

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# kernel samples a set-up launch takes after its first operation
SETUP_KERNELS = 3


def _peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def pin_to_one_cpu():
    """Run this process and the children it starts on one CPU.  The CPUs
    of a shared machine change speed independently, so the kernel, which
    runs in this process, tells the speed of a cli child only when both
    ran on the same CPU.  Unpinned, the kernel time and the time of the
    child next to it were uncorrelated (r = 0.08 over 568 operations);
    the in-process workloads measured steadier unpinned."""
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass  # no affinity control here: measure unpinned


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--rounds", type=int, default=1)
    args = ap.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    for key in [k for k in os.environ if k.startswith("HULTHEN_")]:
        del os.environ[key]
    import ops

    if args.workload == "cli":
        pin_to_one_cpu()
    # the traced cli run calls hulthen.cli.main in this process, once
    # plain and once traced, so the tracing overhead shows per call
    in_process = args.workload == "cli" and args.mode == "traced"
    op = ops.make(args.workload, ROOT, os.path.dirname(os.path.abspath(args.out)),
                  in_process=in_process)
    with open(args.inputs) as fh:
        rounds = json.load(fh)["rounds"]

    if args.mode == "setup":
        op.run(rounds[0][0])
        t_done = time.perf_counter()
        from timing import kernel

        # kernel samples right after the measured interval, in the same
        # process, for the parent's drift correction of this launch
        kernels = [kernel() for _ in range(SETUP_KERNELS)]
        with open(args.out, "w") as fh:
            json.dump({"t_done": t_done, "kernels": kernels}, fh)
        return 0

    from timing import MIN_TAIL_SAMPLES, DriftClock

    clock = DriftClock()
    tracer = None
    if args.mode == "traced":
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    n_ok = 0
    index = 0
    with open(args.out, "w") as fh:
        t_start = time.perf_counter()
        r = 0
        while True:
            for pos, item in enumerate(rounds[r % len(rounds)]):
                clock.sample()  # one before every operation, so each is bracketed
                plain_s = None
                if in_process:
                    tracer.uninstall()
                    t0 = time.perf_counter()
                    op.run(item)
                    plain_s = time.perf_counter() - t0
                    tracer.install()
                if tracer:
                    tracer.begin_op(index)
                error = None
                t0 = time.perf_counter()
                try:
                    result = op.run(item)
                except Exception as exc:  # the op's failure is the measurement
                    error = f"{type(exc).__name__}: {exc}"
                t1 = time.perf_counter()
                rec = {"op": index, "round": r, "pos": pos, "t0": t0, "t1": t1}
                if tracer:
                    rec["layers"] = tracer.end_op()
                if plain_s is not None:
                    rec["plain_s"] = plain_s
                if error is None:
                    n_ok += 1
                    rec["out"] = op.digest(item, result)
                else:
                    rec["error"] = error
                fh.write(json.dumps(rec) + "\n")
                index += 1
            r += 1
            if args.mode == "traced":
                if r >= args.rounds:
                    break
            elif time.perf_counter() - t_start >= args.seconds and n_ok >= MIN_TAIL_SAMPLES:
                break
        t_end = time.perf_counter()
        clock.sample()
        summary = {
            "summary": True, "rounds": r, "t_start": t_start, "t_end": t_end,
            "kernel_times": clock.times, "kernel_durations": clock.durations,
            "peak_rss_mb": _peak_rss_mb(args.workload),
        }
        fh.write(json.dumps(summary) + "\n")
    if tracer:
        tracer.uninstall()
        tracer.write_spans(os.path.splitext(args.out)[0] + ".spans.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
