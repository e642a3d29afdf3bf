"""Benchmark of subspace-forge: end-to-end times, or per-layer traces.

    python3 perfbench/run.py --workload verify-large --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --trace 0   # each workload in its own process

One client runs the workload's jobs back to back (a closed loop), pass
after pass, until --seconds have gone by and at least two passes have run.
The library is imported from `src/` of the checkout that holds this
directory.  The run prints a `record` line with every metric and the
machine it ran on, and then, as its last line, one JSON object with the
keys `correct`, `attempted`, `failed` and `metrics`.  With --trace 0 the
metrics are the end-to-end ones of BENCHMARK.json; with --trace 1 they
are the per-layer ones, from a traced run that also times one untraced
pass to measure the tracing overhead.  Outputs and traces go to
`perfbench/out/`.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
import speed
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 15
# A median over two passes at least, even when one pass outlasts --seconds.
MIN_PASSES = 2


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _timed_passes(sf, jobs, inputs, workdir, seconds):
    passes = []
    t0 = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - t0 < seconds:
        passes.append(workloads.run_pass(sf, jobs, inputs, workdir))
    return passes


def _setup(wl, seed, workdir, probe=None):
    """Set up SETUP_REPEATS times; returns the last library and inputs and
    the (start, end) of each repeat.  The probe is sampled around each.
    Each repeat starts from a collected heap, so that the garbage of the
    previous import does not fall due inside some repeats only."""
    intervals = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        if probe:
            probe.sample()
        t0 = time.perf_counter()
        sf, inputs = workloads.setup(wl, seed, SRC, workdir)
        intervals.append((t0, time.perf_counter()))
    if probe:
        probe.sample()
    return sf, inputs, intervals


def _wall(outcomes) -> float:
    return sum(o.seconds for o in outcomes)


def _scaled(probe, outcomes, kind=None) -> float:
    return sum(probe.scaled(o.start, o.end) for o in outcomes if kind is None or o.kind == kind)


def measure(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False, pins=None):
    """Run one workload in this process; returns (result line, run record).

    End-to-end times and the tracing overhead are scaled to the reference
    speed of `speed.py`; the record keeps the raw times too.  Span times
    are raw and include the probe's samples, about 1% of the run.
    """
    wl = (workloads.SMOKE if smoke else workloads.WORKLOADS)[workload]
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "smoke": smoke,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu_model": _cpu_model(),
        "loadavg_1m": os.getloadavg()[0],
    }
    workdir = OUT / f"work-{workload}"
    jobs = wl.jobs(seed)

    if trace:
        tracer = layers.Tracer()
        with speed.SpeedProbe() as probe:
            sf, inputs = workloads.setup(wl, seed, SRC, workdir)
            reference = workloads.run_pass(sf, jobs, inputs, workdir)
            tracer.install(sf)
            try:
                passes = _timed_passes(sf, jobs, inputs, workdir, seconds)
            finally:
                tracer.uninstall()
        traced_wall = statistics.median(_scaled(probe, p) for p in passes)
        metrics = tracer.metrics(len(passes), traced_wall, _scaled(probe, reference))
        tracer.write(OUT / f"trace-{workload}{'-smoke' if smoke else ''}.csv.gz")
        checked = [reference] + passes
    else:
        with speed.SpeedProbe() as probe:
            sf, inputs, setup_intervals = _setup(wl, seed, workdir, probe)
            passes = _timed_passes(sf, jobs, inputs, workdir, seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        checked = passes
        metrics = {
            "wall_s": (statistics.median(_scaled(probe, p) for p in passes), "s"),
            "setup_s": (statistics.median(probe.scaled(a, b) for a, b in setup_intervals), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }

    workloads.check_passes(sf, jobs, checked, workloads.load_pins() if pins is None else pins)
    outcomes = [o for p in checked for o in p]
    failures = [f"{o.job}: {o.error}" for o in outcomes if o.error]

    record_metrics = dict(metrics)
    record_metrics["job_fail_ratio"] = (len(failures) / len(outcomes), "ratio")
    if not trace:
        for kind in workloads.KINDS:
            if any(o.kind == kind for o in passes[0]):
                record_metrics[f"{kind}_s"] = (statistics.median(_scaled(probe, p, kind) for p in passes), "s")
        record_metrics["raw_wall_s"] = (statistics.median(_wall(p) for p in passes), "s")
        record_metrics["raw_setup_s"] = (statistics.median(b - a for a, b in setup_intervals), "s")
        record["probe_s"] = {"median": statistics.median(probe.durations), "samples": len(probe.durations)}
    record.update(
        passes=len(passes),
        attempted=len(outcomes),
        failed=len(failures),
        failures=failures[:20],
        metrics={k: {"value": v, "unit": u} for k, (v, u) in record_metrics.items()},
    )
    line = {
        "correct": not failures,
        "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return line, record


def _run_all(args) -> int:
    """Each workload in a fresh process, one after another."""
    ok = True
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        records = [json.loads(ln[len("record "):]) for ln in lines if ln.startswith("record ")]
        if proc.returncode != 0 or not records:
            print(f"{name}: exit code {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            ok = False
            continue
        record = records[-1]
        ok = ok and record["failed"] == 0
        print(f"{name}: passes={record['passes']} attempted={record['attempted']} failed={record['failed']}")
        for metric, m in record["metrics"].items():
            print(f"  {metric:42s} {m['value']:>14.6g} {m['unit']}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return _run_all(args)
    try:
        line, record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except ImportError as exc:
        print(f"error: cannot import subspace_forge from {SRC}: {exc}", file=sys.stderr)
        return 2
    OUT.mkdir(parents=True, exist_ok=True)
    name = f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")
    print("record " + json.dumps(record))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
