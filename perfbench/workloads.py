"""The four benchmark workloads: their jobs, set-up, timing and checks.

A workload is a fixed list of jobs run back to back by one client
(a closed loop).  Most jobs are `subspace_forge.cli.main` calls made
in-process; `batch-serve` adds a public-API round trip through
`BatchCode` (encode on the write side, plan and recover on the read
side).  Every job is timed on its own and counted once per pass.

Correctness: an unseeded job's inputs never depend on the workload
seed, so its `manifest.digest` (a sha256 of the canonical `result`
only) is pinned in `pins.json`.  A seeded job must give the same digest
in every pass of a run, and its first output is checked against an
invariant outside the timed region.  A failed check is counted in
`job_fail_ratio`; it never aborts the run.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import random
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
PINS_FILE = HERE / "pins.json"

# Kinds of timed work; each gives one `<kind>_s` end-to-end time.
KINDS = ("verify", "construct", "search", "batch_verify", "batch_encode", "batch_decode")


@dataclass(frozen=True)
class CliJob:
    """One `subspace-forge` command; `argv` may name files in the work dir."""

    name: str
    kind: str
    argv: tuple[str, ...]
    out: str | None = None  # file the command writes with --out
    invariant: Callable | None = None  # set for seeded jobs, None means pinned


@dataclass(frozen=True)
class RoundTrip:
    """BatchCode round trip: encode `vectors` seeded information vectors,
    then plan and recover `requests` seeded request multisets of size s."""

    name: str
    family_file: str
    vectors: int
    requests: int


@dataclass(frozen=True)
class Workload:
    family_files: tuple[tuple[str, tuple], ...]  # (file, family spec) written in set-up
    jobs: Callable[[int], list]  # seed -> jobs of one pass


# -- invariants of seeded jobs (run outside the timed region) -----------------


def _family_of(sf, envelope):
    return sf.Family.from_json(envelope["result"]["family"])


def random_as_at_most(L):
    def check(sf, envelope):
        fam = _family_of(sf, envelope)
        ok, pair = sf.check_partial_spread(fam)
        if not ok:
            return f"random family is not a partial spread (members {pair})"
        L_as, _ = sf.compute_L_as(fam, enum_guard=None)
        if L_as > L:
            return f"random family has L_as={L_as} > {L}"
        return None

    return check


def greedy_aad_at_most(L):
    def check(sf, envelope):
        fam = _family_of(sf, envelope)
        if envelope["result"]["size"] != len(fam):
            return "greedy size does not match its family"
        ok, pair = sf.check_partial_spread(fam)
        if not ok:
            return f"greedy family is not a partial spread (members {pair})"
        L_aad, _ = sf.compute_L_aad(fam)
        if L_aad > L:
            return f"greedy family has L_aad={L_aad} > {L}"
        return None

    return check


def sampled_verified(sf, envelope):
    result = envelope["result"]
    if result["verified"] is not True or result["counterexample"] is not None:
        return f"sampled batch not verified: counterexample {result['counterexample']}"
    return None


# -- workload definitions ------------------------------------------------------


def _verify(name, family, props=None):
    argv = ("verify", "--family", family)
    return CliJob(name, "verify", argv + (("--properties", props) if props else ()))


def _search(name, n, k, L, q, *extra, invariant=None):
    argv = ("search", "--n", str(n), "--k", str(k), "--L", str(L), "--q", str(q)) + extra
    return CliJob(name, "search", argv, invariant=invariant)


def _batch(name, family, *extra, invariant=None):
    return CliJob(name, "batch_verify", ("batch", "--family", family) + extra, invariant=invariant)


def _construct_rs(name, n, k, q, out):
    argv = ("construct", "rs", "--n", str(n), "--k", str(k), "--q", str(q), "--out", out)
    return CliJob(name, "construct", argv, out=out)


def _construct_random(name, n, k, L, q, seed):
    argv = ("construct", "random", "--n", str(n), "--k", str(k), "--L", str(L), "--q", str(q))
    return CliJob(name, "construct", argv + ("--seed", str(seed)), invariant=random_as_at_most(L))


def _field_sweep_jobs(orders):
    jobs = []
    for q in orders:
        out = f"rs-3-1-{q}.json"
        jobs.append(_construct_rs(f"construct-rs-3-1-{q}", 3, 1, q, out))
        jobs.append(_verify(f"verify-rs-3-1-{q}-spread", out, "spread"))
    return jobs


FOUR_LINES = ("lines", 2, 3, ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)))

WORKLOADS = {
    "verify-large": Workload(
        (("rs-5-1-7.json", ("rs", 5, 1, 7)), ("rs-7-3-23.json", ("rs", 7, 3, 23))),
        lambda seed: [
            _verify("verify-rs-5-1-7-all", "rs-5-1-7.json"),
            _verify("verify-rs-7-3-23-spread-aad-bound", "rs-7-3-23.json", "spread,aad,bound"),
        ],
    ),
    "search-tiny": Workload(
        (),
        lambda seed: [
            _search("search-5-2-1-2", 5, 2, 1, 2),
            _search("search-6-2-1-2", 6, 2, 1, 2),
            _search("search-5-1-2-3", 5, 1, 2, 3),
            _search(
                "search-greedy-5-1-2-3", 5, 1, 2, 3, "--mode", "greedy", "--seed", str(seed),
                invariant=greedy_aad_at_most(2),
            ),
            _construct_random("construct-random-5-1-7-5", 5, 1, 7, 5, seed),
        ],
    ),
    "batch-serve": Workload(
        (
            ("four-lines.json", FOUR_LINES),
            ("rs-3-1-3.json", ("rs", 3, 1, 3)),
            ("rs-3-1-7.json", ("rs", 3, 1, 7)),
        ),
        lambda seed: [
            _batch("batch-four-lines", "four-lines.json"),
            _batch("batch-rs-3-1-3", "rs-3-1-3.json"),
            _batch(
                "batch-rs-3-1-7-sampled", "rs-3-1-7.json", "--mode", "sampled",
                "--trials", "2000", "--seed", str(seed), invariant=sampled_verified,
            ),
            RoundTrip("roundtrip-rs-3-1-7", "rs-3-1-7.json", vectors=200, requests=1000),
        ],
    ),
    "field-sweep": Workload(
        (),
        lambda seed: _field_sweep_jobs((243, 256, 343)),
    ),
}

# Reduced sizes for the self-test: the same job kinds, well under a second each.
SMOKE = {
    "verify-large": Workload(
        (("rs-3-1-5.json", ("rs", 3, 1, 5)), ("rs-5-2-11.json", ("rs", 5, 2, 11))),
        lambda seed: [
            _verify("smoke-verify-rs-3-1-5-all", "rs-3-1-5.json"),
            _verify("smoke-verify-rs-5-2-11-spread-aad-bound", "rs-5-2-11.json", "spread,aad,bound"),
        ],
    ),
    "search-tiny": Workload(
        (),
        lambda seed: [
            _search("smoke-search-3-1-1-2", 3, 1, 1, 2),
            _search(
                "smoke-search-greedy-4-1-1-2", 4, 1, 1, 2, "--mode", "greedy", "--seed", str(seed),
                invariant=greedy_aad_at_most(1),
            ),
            _construct_random("smoke-construct-random-5-1-7-3", 5, 1, 7, 3, seed),
        ],
    ),
    "batch-serve": Workload(
        (("four-lines.json", FOUR_LINES), ("rs-3-1-3.json", ("rs", 3, 1, 3))),
        lambda seed: [
            _batch("smoke-batch-four-lines", "four-lines.json"),
            _batch(
                "smoke-batch-rs-3-1-3-sampled", "rs-3-1-3.json", "--mode", "sampled",
                "--trials", "50", "--seed", str(seed), invariant=sampled_verified,
            ),
            RoundTrip("smoke-roundtrip-rs-3-1-3", "rs-3-1-3.json", vectors=5, requests=20),
        ],
    ),
    "field-sweep": Workload((), lambda seed: _field_sweep_jobs((16, 25))),
}


# -- set-up ---------------------------------------------------------------------


def import_library(src: Path):
    """Import `subspace_forge` afresh from `src`, dropping any earlier copy."""
    for mod in [m for m in sys.modules if m == "subspace_forge" or m.startswith("subspace_forge.")]:
        del sys.modules[mod]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    sf = importlib.import_module("subspace_forge")
    importlib.import_module("subspace_forge.cli")
    origin = Path(sf.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise ImportError(f"subspace_forge was imported from {origin}, not from {src}")
    return sf


def _write_family(sf, spec, path: Path):
    if spec[0] == "rs":
        _, n, k, q = spec
        fam = sf.build_rs_family(n, k, sf.field_from_order(q))
    else:
        _, q, n, vectors = spec
        fld = sf.field_from_order(q)
        fam = sf.Family(fld, n, 1, tuple(sf.Subspace.from_generators(fld, n, [v]) for v in vectors))
    path.write_text(json.dumps(fam.to_json()))


def _round_trip_inputs(sf, rt: RoundTrip, workdir: Path, seed: int):
    fam = sf.Family.from_json(json.loads((workdir / rt.family_file).read_text()))
    K = fam.field.q ** fam.n
    s = sf.batch_s(len(fam), sf.compute_L_aad(fam)[0])
    rng = random.Random(f"{rt.name}:{seed}")
    vectors = [[rng.randrange(2) for _ in range(K)] for _ in range(rt.vectors)]
    requests = [(t % rt.vectors, [rng.randrange(K) for _ in range(s)]) for t in range(rt.requests)]
    return fam, vectors, requests


def setup(wl: Workload, seed: int, src: Path, workdir: Path):
    """Import the library afresh and write the workload's inputs; returns
    (library, inputs of each round trip)."""
    workdir.mkdir(parents=True, exist_ok=True)
    sf = import_library(src)
    for file, spec in wl.family_files:
        _write_family(sf, spec, workdir / file)
    inputs = {
        job.name: _round_trip_inputs(sf, job, workdir, seed)
        for job in wl.jobs(seed)
        if isinstance(job, RoundTrip)
    }
    return sf, inputs


# -- one pass ---------------------------------------------------------------------


@dataclass
class Outcome:
    job: str
    kind: str
    start: float  # time.perf_counter() around the job
    end: float
    error: str | None = None  # set when the job failed a check
    digest: str | None = None
    envelope: dict | None = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _run_cli(sf, job: CliJob, workdir: Path) -> Outcome:
    argv = [str(workdir / a) if a.endswith(".json") else a for a in job.argv]
    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = sf.cli.main(argv)
    except SystemExit as exc:  # argparse rejects its arguments
        code = exc.code
    except Exception as exc:  # a crash is a failed job, not a failed benchmark
        return Outcome(job.name, job.kind, t0, time.perf_counter(), f"raised {exc!r}")
    t1 = time.perf_counter()
    if code != 0:
        return Outcome(job.name, job.kind, t0, t1, f"exit code {code}")
    text = (workdir / job.out).read_text() if job.out else buf.getvalue()
    try:
        envelope = json.loads(text)
        digest = envelope["manifest"]["digest"]
        result = envelope["result"]
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        return Outcome(job.name, job.kind, t0, t1, f"unreadable output: {exc!r}")
    own = "sha256:" + hashlib.sha256(
        json.dumps(result, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()
    if own != digest:
        return Outcome(job.name, job.kind, t0, t1, "manifest digest does not hash the result")
    return Outcome(job.name, job.kind, t0, t1, None, digest, envelope)


def _run_round_trip(sf, rt: RoundTrip, inputs) -> list[Outcome]:
    fam, vectors, requests = inputs
    t0 = time.perf_counter()
    try:
        code = sf.BatchCode(fam)
        words = [code.encode(x) for x in vectors]
    except Exception as exc:
        return [Outcome(rt.name + ":encode", "batch_encode", t0, time.perf_counter(), f"raised {exc!r}")]
    t1 = time.perf_counter()
    decoded = []
    try:
        for which, req in requests:
            plan = code.plan_recovery(req)
            if plan is None:
                decoded.append((which, req, None))
                continue
            y = words[which]
            decoded.append((which, req, [(e, code.recover(y, e.positions)) for e in plan.entries]))
    except Exception as exc:
        t2 = time.perf_counter()
        return [
            Outcome(rt.name + ":encode", "batch_encode", t0, t1),
            Outcome(rt.name + ":decode", "batch_decode", t1, t2, f"raised {exc!r}"),
        ]
    t2 = time.perf_counter()

    enc_error = None
    for x, y in zip(vectors, words):
        if len(y) != code.N or y[: code.K] != x:
            enc_error = "encoding is not systematic of length N"
            break
    dec_error = None
    for which, req, bits in decoded:
        if bits is None:
            dec_error = f"no recovery plan for {sorted(req)}"
        elif sorted(e.request for e, _ in bits) != sorted(req):
            dec_error = f"plan does not serve {sorted(req)}"
        elif not _disjoint(e.positions for e, _ in bits):
            dec_error = f"plan for {sorted(req)} reuses a position"
        elif any(bit != vectors[which][e.request] for e, bit in bits):
            dec_error = f"wrong bit recovered for {sorted(req)}"
        if dec_error:
            break
    return [
        Outcome(rt.name + ":encode", "batch_encode", t0, t1, enc_error),
        Outcome(rt.name + ":decode", "batch_decode", t1, t2, dec_error),
    ]


def _disjoint(position_sets) -> bool:
    used: set[int] = set()
    for positions in position_sets:
        if used & positions:
            return False
        used |= positions
    return True


def run_pass(sf, jobs, inputs, workdir: Path) -> list[Outcome]:
    """Run every job of one pass once, in order, timing each."""
    outcomes = []
    for job in jobs:
        if isinstance(job, RoundTrip):
            outcomes += _run_round_trip(sf, job, inputs[job.name])
        else:
            outcomes.append(_run_cli(sf, job, workdir))
    return outcomes


def check_passes(sf, jobs, passes: list[list[Outcome]], pins: dict) -> None:
    """Fill in `error` for CLI jobs whose digest is wrong: unseeded jobs
    against `pins`, seeded jobs against their first pass, whose output
    must also meet the job's invariant."""
    by_name = {job.name: job for job in jobs if isinstance(job, CliJob)}
    first: dict[str, Outcome] = {}
    verdict: dict[str, str | None] = {}
    for outcomes in passes:
        for o in outcomes:
            job = by_name.get(o.job)
            if job is None or o.error:
                continue
            if job.invariant is None:
                if o.digest != pins.get(job.name):
                    o.error = f"digest {o.digest} is not the pinned {pins.get(job.name)}"
                continue
            ref = first.setdefault(job.name, o)
            if o.digest != ref.digest:
                o.error = "seeded job gave a different digest than in its first pass"
            elif job.name not in verdict:
                verdict[job.name] = job.invariant(sf, ref.envelope)
            if not o.error:
                o.error = verdict.get(job.name)


def load_pins() -> dict:
    return json.loads(PINS_FILE.read_text())
