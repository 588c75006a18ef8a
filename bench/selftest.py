"""Tests of the benchmark itself.

    python3 -m pytest -q bench/selftest.py

(The file name keeps it out of the repository's own test collection;
the whole-workload tests at the end run the benchmark and take about a
minute.)
"""

import hashlib
import json
import math
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import ops  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402
import timing  # noqa: E402


# ------------------------------------------------------------------ checks


@pytest.fixture(scope="module")
def table():
    return ref.load_table()


def test_spectra_check_rejects_perturbed_energy(table):
    item = inputs._spectra_item(table, 3, 1, 0.1, 0)
    out = ops.Spectra().digest(item, ops.Spectra().run(item))
    assert checks.check_spectra(item, out) is None
    bad = dict(out, E=out["E"] * (1.0 + 1e-5))
    assert checks.check_spectra(item, bad) is not None
    assert checks.check_spectra(item, dict(out, nodes=out["nodes"] + 1)) is not None
    # how the level was bracketed is not checked, only what was returned
    assert checks.check_spectra(item, dict(out, bracket=[-0.5, -1e-9])) is None


def test_spectra_rounds_hold_the_grid_deep_share(table):
    share = inputs.spectra_deep_share(table)
    size = inputs.ROUND_SIZE["spectra"]
    assert abs(round(size * share) / size - share) < 0.01
    for seed in (1, 2):
        for rnd in inputs.generate("spectra", seed, table)["rounds"]:
            drawn = [item for item in rnd if "kept" not in item]
            deep = [item for item in drawn if abs(item["ref"]["E_cf"]) >= inputs.SPECTRA_DEEP_E]
            assert len(drawn) == size and len(deep) == round(size * share)


def test_reference_reproduces_the_closed_form_where_it_is_exact(table):
    # gamma = 0 (D = 3, l = 0): the closed form solves the exact equation
    for alpha in (0.03, 0.1, 0.22, 0.3):
        exact = inputs.exact_levels(table, 3, 0, alpha)
        ns = ref.closed_form_levels(1.0, alpha, 1.0, 1.0, 3, 0)
        assert len(exact) == len(ns)
        for n, e in zip(ns, exact):
            e_cf = ref.closed_form_energy(1.0, alpha, 1.0, 1.0, 3, n, 0)
            assert abs(e - e_cf) <= 1e-9 * abs(e_cf)


def test_census_check_rejects_wrong_count():
    item = {"D": 3, "l": 0, "alpha": 0.1, "ref": {"count": 4}}
    assert checks.check_census(item, {"count": 4}) is None
    assert checks.check_census(item, {"count": 5}) is not None


def test_reports_check_rejects_perturbed_norm():
    item = {"Z": 1.3, "mu": 0.9, "hbar": 1.1, "alpha": 0.04, "D": 3, "n": 3, "l": 1}
    op = ops.Reports()
    out = op.digest(item, op.run(item))
    assert checks.check_reports(item, out) is None
    scaled = dict(out, C=out["C"] * 1.01, meta=dict(out["meta"], norm_const=out["C"] * 1.01))
    assert checks.check_reports(item, scaled) is not None
    assert checks.check_reports(item, dict(out, sign_changes=2)) is not None


def test_reports_kept_fault_is_rejected():
    item = {"Z": 1.0, "mu": 1.0, "hbar": 1.0, "alpha": 1e-3, "D": 3, "n": 20, "l": 0}
    op = ops.Reports()
    reason = checks.check_reports(item, op.digest(item, op.run(item)))
    assert reason is not None and "integral of U^2" in reason


@pytest.mark.parametrize("argv", [
    ["wavefunction", "--dim", "4", "--l", "1", "--alpha", "0.07", "--n", "2",
     "--points", "500", "--format", "csv"],
    ["expectation", "--dim", "2", "--l", "0", "--alpha", "0.1", "--n", "1", "--format", "json"],
    ["spectrum", "--dim", "5", "--l", "2", "--alpha", "0.02", "--format", "csv"],
])
def test_cli_check_rejects_one_changed_byte(tmp_path, argv):
    item = {"argv": argv, "out": None}
    expected = run.CliExpectations(str(tmp_path)).get(item)
    assert expected["verdict"] is None
    child = ops.Cli(ROOT, str(tmp_path))
    out = child.digest(item, child.run(item))
    assert checks.check_cli(item, out, expected) is None
    data = bytearray(child.run(item).stdout)
    data[len(data) // 2] ^= 0x01
    bad = dict(out, sha256=hashlib.sha256(bytes(data)).hexdigest())
    assert checks.check_cli(item, bad, expected) is not None


# ------------------------------------------------- failures and statistics


def _recs(durations, errors=()):
    t, recs = 0.0, []
    for i, d in enumerate(durations):
        rec = {"op": i, "round": 0, "pos": i, "t0": t, "t1": t + d}
        if i in errors:
            rec["error"] = "BracketError: synthetic"
        else:
            rec["out"] = {"count": 1}
        recs.append(rec)
        t += d
    return recs


def _summary(recs, kernel=timing.KERNEL_REF_S):
    times = [r["t0"] for r in recs] + [recs[-1]["t1"]]
    return {"kernel_times": times, "kernel_durations": [kernel] * len(times),
            "peak_rss_mb": 1.0, "t_start": 0.0, "t_end": recs[-1]["t1"]}


def test_failed_operations_are_counted_and_left_out_of_timings():
    # 40 ops of 10 ms; op 0 raises (kept) after 1 s, op 1 returns a wrong
    # count for a kept item; both count as failed, neither enters a timing
    durations = [1.0, 1.0] + [0.01] * 40
    recs = _recs(durations, errors={0})
    rnd = [{"D": 3, "l": 0, "alpha": 0.1, "ref": {"count": 1}} for _ in durations]
    rnd[0]["kept"] = rnd[1]["kept"] = "synthetic fault"
    rnd[1]["ref"] = {"count": 2}
    ok, stats = run.evaluate("census", {"rounds": [rnd]}, recs, HERE)
    assert stats["attempted"] == 42 and stats["failed"] == 2 and not stats["wrong"]
    e2e = run.end_to_end(recs, ok, _summary(recs), ([1.0], [1.0]))["corrected"]
    assert math.isclose(e2e["op_ms_p50"], 10.0)
    assert math.isclose(e2e["op_ms_tail"], 10.0)
    # the failed ops' 2 s still count in the wall time
    assert math.isclose(e2e["ops_per_s"], 40 / 2.4)


def test_wrong_output_of_a_normal_operation_marks_the_run_incorrect():
    recs = _recs([0.01] * 3)
    rnd = [{"D": 3, "l": 0, "alpha": 0.1, "ref": {"count": c}} for c in (1, 1, 2)]
    _, stats = run.evaluate("census", {"rounds": [rnd]}, recs, HERE)
    assert stats["failed"] == 0 and len(stats["wrong"]) == 1


def test_normal_operation_that_raises_marks_the_run_incorrect():
    recs = _recs([0.01] * 41, errors={3})
    rnd = [{"D": 3, "l": 0, "alpha": 0.1, "ref": {"count": 1}} for _ in recs]
    _, stats = run.evaluate("census", {"rounds": [rnd]}, recs, HERE)
    assert stats["failed"] == 1 and stats["unexpected_failures"] and not stats["wrong"]
    assert not run.is_correct(stats)
    rnd[3]["kept"] = "synthetic fault"
    _, stats = run.evaluate("census", {"rounds": [rnd]}, recs, HERE)
    assert run.is_correct(stats)


def test_too_few_checked_outputs_report_incorrect_without_a_crash():
    # 41 ops, two of them rejected: 39 checked outputs are too few for a tail
    recs = _recs([0.01] * 41)
    rnd = [{"D": 3, "l": 0, "alpha": 0.1, "ref": {"count": 1}} for _ in recs]
    rnd[0]["ref"] = rnd[1]["ref"] = {"count": 2}
    ok, stats = run.evaluate("census", {"rounds": [rnd]}, recs, HERE)
    assert stats["ok"] == 39 and not run.is_correct(stats)
    e2e = run.end_to_end(recs, ok, _summary(recs), ([1.0], [1.0]))["corrected"]
    assert math.isclose(e2e["op_ms_tail"], 10.0)
    for rec in recs:
        rec["layers"] = {}
    layers = run.per_layer("census", ok, _summary(recs), (1.0, 1.0))
    assert set(layers) == set(run.PER_LAYER)
    assert run.end_to_end(recs, [], _summary(recs), ([1.0], [1.0]))["corrected"]["ops_per_s"] == 0


def test_tail_percentile_rule():
    assert [timing.tail_percentile(n) for n in (40, 41, 50, 100, 1000, 5000)] == [
        75, 75, 80, 90, 99, 99]
    for n in range(40, 3000):
        p = timing.tail_percentile(n)
        assert n * (100 - p) >= 10 * 100  # at least 10 samples beyond
        assert p == 99 or n * (100 - p - 1) < 10 * 100  # and it is the highest
    with pytest.raises(ValueError):
        timing.tail_percentile(39)


def test_drift_correction_recovers_uniform_slowdown():
    base = [0.01 * (1 + (i % 7) / 10.0) for i in range(60)]
    recs = _recs(base)
    slow_recs = _recs([1.37 * d for d in base])
    fast = run.end_to_end(recs, recs, _summary(recs), ([1.0], [1.0]))
    slow = run.end_to_end(slow_recs, slow_recs,
                          _summary(slow_recs, 1.37 * timing.KERNEL_REF_S), ([1.0], [1.0]))
    for key in ("ops_per_s", "op_ms_p50", "op_ms_tail"):
        assert math.isclose(slow["corrected"][key], fast["corrected"][key], rel_tol=1e-9)
        assert not math.isclose(slow["raw"][key], fast["raw"][key], rel_tol=0.1)
    assert math.isclose(slow["speed_factor"], 1.37)


def test_local_kernel_uses_the_bracketing_samples():
    clock = timing.DriftClock([float(i) for i in range(10)], [1.0] * 5 + [2.0] * 5)
    assert clock.local_kernel(1.2, 1.8) == 1.0
    assert clock.local_kernel(8.2, 8.8) == 2.0
    assert clock.local_kernel(4.2, 4.8) == 1.5
    assert clock.local_kernel(3.2, 5.8) == 1.5  # samples inside count too


# --------------------------------------------------------- whole workloads


def _bench(workload, trace, seed=5):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    detail = json.loads(lines[-2].removeprefix("detail "))
    return detail, json.loads(lines[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_short_run_completes(workload):
    _, result = _bench(workload, 0)
    assert result["correct"] is True
    assert result["attempted"] >= 40
    kept = {"spectra": len(inputs.SPECTRA_ANCHORS), "reports": len(inputs.REPORTS_KEPT)}
    per_round = inputs.ROUND_SIZE[workload] + kept.get(workload, 0)
    assert result["attempted"] % per_round == 0
    assert result["failed"] == result["attempted"] // per_round * kept.get(workload, 0)
    assert set(result["metrics"]) == {"setup_s", "ops_per_s", "op_ms_p50", "op_ms_tail",
                                      "peak_rss_mb"}


def test_traced_counts_repeat_exactly():
    a = _bench("census", 1)[1]["metrics"]
    b = _bench("census", 1)[1]["metrics"]
    assert set(a) == set(run.PER_LAYER)
    counts = [k for k, v in a.items() if v["unit"] == "count"]
    assert counts and all(a[k]["value"] == b[k]["value"] for k in counts)
    assert a["model.potential.calls"]["value"] == 24000


def test_benchmark_json_matches_the_metrics_printed():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
