"""Self-test of the benchmark at reduced sizes.

    python3 -m pytest -q perfbench

Every workload runs once untraced and once traced in smoke mode; the test
checks that each metric BENCHMARK.json declares is emitted with its unit,
that the run record holds the job-kind times and the machine description,
and that a wrong pinned digest is counted as a failed job.
"""

from __future__ import annotations

import json

import pytest

import run
import speed
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())

# The job-kind times each workload reports in its run record.
KIND_METRICS = {
    "verify-large": {"verify_s"},
    "search-tiny": {"construct_s", "search_s"},
    "batch-serve": {"batch_verify_s", "batch_encode_s", "batch_decode_s"},
    "field-sweep": {"construct_s", "verify_s"},
}


def _units(metrics: dict) -> dict:
    return {name: m["unit"] for name, m in metrics.items()}


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert list(workloads.SMOKE) == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", list(workloads.SMOKE))
def test_end_to_end_metrics(workload):
    line, record = run.measure(workload, seed=1, seconds=0, trace=False, smoke=True)
    assert line["correct"], record["failures"]
    assert line["attempted"] >= 1 and line["failed"] == 0
    assert _units(line["metrics"]) == {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert all(m["value"] > 0 for m in line["metrics"].values())

    expected = set(line["metrics"]) | {"job_fail_ratio", "raw_wall_s", "raw_setup_s"} | KIND_METRICS[workload]
    assert set(record["metrics"]) == expected
    assert record["metrics"]["job_fail_ratio"] == {"value": 0.0, "unit": "ratio"}
    assert all(record["metrics"][k]["unit"] == "s" for k in KIND_METRICS[workload])
    for key in ("nproc", "python", "cpu_model", "loadavg_1m", "seed"):
        assert key in record


@pytest.mark.parametrize("workload", list(workloads.SMOKE))
def test_per_layer_metrics(workload):
    line, record = run.measure(workload, seed=1, seconds=0, trace=True, smoke=True)
    assert line["correct"], record["failures"]
    assert _units(line["metrics"]) == {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert line["metrics"]["trace.overhead_ratio"]["value"] > 0


def test_trace_reaches_calls_made_through_imported_names():
    line, _ = run.measure("verify-large", seed=1, seconds=0, trace=True, smoke=True)
    m = {name: v["value"] for name, v in line["metrics"].items()}
    # cli calls build_report by its imported name; the all-properties report
    # checks the spread three times, the spread,aad,bound report twice.
    assert m["family.build_report.calls"] == 2
    assert m["family.spread_checks_in_reports"] == 5
    assert m["family.spread_checks_per_report"] == 2.5
    # all 31 planes of GF(5)^3, reached through family's own import
    assert m["subspace.enumerate_subspaces.yielded"] == 31
    assert m["family.compute_L_as.planes"] == 31
    # 5 members of RS(3,1,5) and 11 of RS(5,2,11), ordered pairs
    assert m["family.compute_L_aad.member_pairs"] == 5 * 4 + 11 * 10


def test_tampered_pin_counts_as_failed_job():
    pins = workloads.load_pins()
    pins["smoke-search-3-1-1-2"] = "sha256:" + "0" * 64
    line, record = run.measure("search-tiny", seed=1, seconds=0, trace=False, smoke=True, pins=pins)
    assert not line["correct"]
    assert line["failed"] == record["passes"]  # the tampered job, once per pass
    assert record["metrics"]["job_fail_ratio"]["value"] > 0
    assert record["failures"][0].startswith("smoke-search-3-1-1-2: digest")


def test_limited_aad_calls_count_the_pairs_they_reach():
    line, _ = run.measure("search-tiny", seed=1, seconds=0, trace=True, smoke=True)
    # search calls compute_L_aad with upper_limit only
    assert line["metrics"]["family.compute_L_aad.member_pairs"]["value"] > 0


def test_probe_tick_inside_a_sample_is_dropped():
    probe = speed.SpeedProbe()
    probe._busy = True  # as while a sample runs
    probe.sample()
    assert probe.durations == [] and not probe.starts
    probe._busy = False
    probe.sample()
    assert len(probe.durations) == len(probe.starts) == 1
