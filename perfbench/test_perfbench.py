"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench
"""

import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from splitfactor import CheckResult  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_cli(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def test_tail_percentile_keeps_ten_samples_beyond_it():
    assert run.tail_percentile(1000) == 99
    assert run.tail_percentile(999) == 98
    assert run.tail_percentile(60) == 83
    assert run.tail_percentile(19) is None
    for n in range(20, 3000):
        q = run.tail_percentile(n)
        assert n * (100 - q) >= 1000
        assert q == 99 or n * (100 - q - 1) < 1000


def test_throughput_and_median_come_from_the_fastest_windows():
    ms = 1_000_000
    slow = [run.Window(100, 200 * ms, [2 * ms] * 100)] * 57
    fast = [run.Window(100, 100 * ms, [ms] * 99 + [50 * ms])] * 3
    short = run.Window(1, ms, [ms // 2])  # the end of a segment; never ranked
    summary = run.summarise(slow[:30] + fast + slow[30:] + [short])
    assert summary["fast_windows"] == 3 and summary["full_windows"] == 60
    assert summary["items_per_s"] == 1_000
    assert summary["p50_ns"] == ms
    # The tail is over every call of the run: the 3 stalls and then the
    # slow calls lie beyond p99 of 6,001 calls.
    assert summary["tail_percentile"] == 99 and summary["tail_ns"] == 2 * ms
    assert summary["run_items_per_s"] == pytest.approx(6_001 / 11.701)
    # A run too short for a full window is taken whole.
    summary = run.summarise([short])
    assert summary["items_per_s"] == 1_000 and summary["p50_ns"] == ms // 2
    # With fewer than 1,000 calls the tail percentile keeps ten beyond it.
    summary = run.summarise([run.Window(1, ms * k, [ms * k]) for k in range(1, 61)])
    assert summary["tail_percentile"] == 83
    assert summary["tail_ns"] == statistics.quantiles([ms * k for k in range(1, 61)], n=100)[82]


def test_raising_and_failing_items_are_counted_and_named(monkeypatch):
    real = workloads.verify_all
    seen = []

    def flaky(S, instance=None):
        seen.append(instance)
        report = real(S, instance=instance)
        if len(seen) % 3 == 0:
            raise RuntimeError("boom")
        if len(seen) % 5 == 0:
            report.checks[-1] = CheckResult(report.checks[-1].name, False, "planted")
        return report

    monkeypatch.setattr(workloads, "verify_all", flaky)
    sweep = workloads.WORKLOADS["sweep-exhaustive-4x4"](7)
    tally = run.Tally()
    for _ in range(30):
        tally.add(sweep.step())
    raised, planted = seen[2::3], [iid for i, iid in enumerate(seen, 1) if i % 5 == 0 and i % 3]
    assert (tally.attempted, tally.failed, tally.checks_failed) == (30, 14, 4)
    assert tally.failed_frac == pytest.approx(14 / 30)
    assert sorted(iid for iid, _ in tally.notes) == sorted(raised + planted)
    assert {reason for iid, reason in tally.notes if iid in raised} == {"raised RuntimeError('boom')"}


def test_walk_counts_a_step_whose_outputs_disagree(monkeypatch):
    real = workloads.enumerate_two_switches
    monkeypatch.setattr(workloads, "enumerate_two_switches", lambda S: real(S)[1:])
    step = workloads.Walk(2).step()
    assert step.failed == 1
    assert "moves" in step.notes[0][1]


def walk_states(seed, steps):
    walk = workloads.Walk(seed)
    states = []
    for _ in range(steps):
        assert walk.step().failed == 0
        states.append(walk.S.adj_masks)
    return states


def test_walk_is_determined_by_its_seed():
    assert walk_states(5, 40) == walk_states(5, 40)
    assert walk_states(5, 40) != walk_states(6, 40)


def test_sweep_order_visits_every_instance_once():
    sweep = workloads.WORKLOADS["sweep-exhaustive-4x4"](3)
    assert sorted(sweep.next_index() for _ in range(sweep.size)) == list(range(sweep.size))


def test_reference_counts_are_checked():
    values = dict.fromkeys((name for name, _ in tracing.LAYER_METRICS), 0)
    values.update(zip(tracing.REFERENCE_KEYS, tracing.REFERENCES[("walk-12x12", 4242)]))
    values["factor.size_total"] = values["switches.moves"]
    assert tracing.reference_problems("walk-12x12", 4242, values) == []
    assert tracing.reference_problems("walk-12x12", 1, values) == []
    values["switches.moves"] += 1
    assert len(tracing.reference_problems("walk-12x12", 4242, values)) == 2
    assert len(tracing.reference_problems("walk-12x12", 1, values)) == 1


def test_metric_tables_match_benchmark_json():
    names = [w["name"] for w in BENCHMARK["workloads"]]
    assert names == list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS) == list(tracing.BLOCKS)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == list(tracing.LAYER_METRICS)


@pytest.mark.parametrize("trace, table", [("0", "end_to_end"), ("1", "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, table):
    done = run_cli("--workload", "walk-12x12", "--seed", "3", "--seconds", "1", "--trace", trace)
    assert done.returncode == 0, done.stderr
    *_, provenance, last = done.stdout.splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in BENCHMARK[table]}
    assert json.loads(provenance)["provenance"]["seed"] == 3


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = run_cli("--workload", "walk-12x12", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
