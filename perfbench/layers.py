"""Per-layer tracing, done from outside the library.

`Tracer.install` replaces each traced public function or method of
`subspace_forge` with a wrapper that records a span: its name, start,
duration and parent span.  A function imported by name into other
modules (for example `rank_of_stack` into `family` and `subspace`,
`compute_L_aad` into `search` and `batch`, `build_report` into `cli`) is
rebound in every module that holds it, so no call escapes the trace.

Spans stay in memory in flat arrays and are written out once, at the end
of the run.  A span's self time is its duration minus the durations of
its direct child spans.  Counts that have no span of their own (nodes,
feasibility attempts, AS pruning rounds, failed plans) are read from
arguments and return values at the same boundaries.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

# (metric prefix, module, attribute) for every traced callable.  The layer
# is the module; README.md gives the end-to-end metric each one should move.
TRACED = (
    ("gf.field_build", "gf", "Field.__init__"),
    ("matgf.rank_of_stack", "matgf", "rank_of_stack"),
    ("matgf.rref", "matgf", "rref"),
    ("subspace.enumerate_subspaces", "subspace", "enumerate_subspaces"),
    ("subspace.Subspace.construct", "subspace", "Subspace.__post_init__"),
    ("subspace.Subspace.reduce", "subspace", "Subspace.reduce"),
    ("family.build_report", "family", "build_report"),
    ("family.check_partial_spread", "family", "check_partial_spread"),
    ("family.compute_L_aad", "family", "compute_L_aad"),
    ("family.compute_L_as", "family", "compute_L_as"),
    ("family.Family.construct", "family", "Family.__post_init__"),
    ("family.Family.from_json", "family", "Family.from_json"),
    ("constructions.build_rs_family", "constructions", "build_rs_family"),
    ("constructions.build_random_family", "constructions", "build_random_family"),
    ("search.exhaustive_max_family", "search", "exhaustive_max_family"),
    ("search.greedy_max_family", "search", "greedy_max_family"),
    ("batch.BatchCode.init", "batch", "BatchCode.__init__"),
    ("batch.verify_batch", "batch", "verify_batch"),
    ("batch.plan_recovery", "batch", "BatchCode.plan_recovery"),
    ("batch.recovery_sets_for", "batch", "BatchCode.recovery_sets_for"),
    ("batch.encode", "batch", "BatchCode.encode"),
    ("batch.recover", "batch", "BatchCode.recover"),
    ("cli.main", "cli", "main"),
    ("cli.canonical_json", "cli", "canonical_json"),
)

# Spans that can enclose other traced spans also report `.self_s`.
NESTED = frozenset(
    {
        "subspace.enumerate_subspaces",
        "subspace.Subspace.construct",
        "family.build_report",
        "family.check_partial_spread",
        "family.compute_L_aad",
        "family.compute_L_as",
        "family.Family.from_json",
        "constructions.build_rs_family",
        "constructions.build_random_family",
        "search.exhaustive_max_family",
        "search.greedy_max_family",
        "batch.BatchCode.init",
        "batch.verify_batch",
        "batch.plan_recovery",
        "batch.recovery_sets_for",
        "batch.encode",
        "cli.main",
    }
)

GENERATORS = frozenset({"subspace.enumerate_subspaces"})

# Counters and ratios, each ratio listed after the counts it is built from.
DERIVED_UNITS = {
    "subspace.enumerate_subspaces.yielded": "count",
    "family.spread_checks_in_reports": "count",
    "family.spread_checks_per_report": "ratio",
    "family.compute_L_aad.member_pairs": "count",
    "family.compute_L_as.planes": "count",
    "family.compute_L_as.planes_per_s": "1/s",
    "constructions.random.as_rounds": "count",
    "search.nodes": "count",
    "search.nodes_per_s": "1/s",
    "search.feasibility_attempts": "count",
    "search.accepted": "count",
    "search.accept_ratio": "ratio",
    "batch.multisets": "count",
    "batch.multisets_per_s": "1/s",
    "batch.plans_failed": "count",
    "trace.spans": "count",
    "trace.overhead_ratio": "ratio",
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for name, _, _ in TRACED:
        units[f"{name}.calls"] = "count"
        units[f"{name}.s"] = "s"
        if name in NESTED:
            units[f"{name}.self_s"] = "s"
    units.update(DERIVED_UNITS)
    return units


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("H")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_dur = array("d")
        self.span_child = array("d")  # time covered by direct children
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.aad_calls: dict[int, tuple[int, int, bool]] = {}  # compute_L_aad span -> (k, m, limited)
        self.yielded_to: Counter = Counter()  # span name id of a generator's consumer -> items
        self._undo: list[tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def _open(self, nid: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self.stack[-1] if self.stack else -1)
        self.span_dur.append(0.0)
        self.span_child.append(0.0)
        self.stack.append(idx)
        self.span_start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        d = time.perf_counter() - self.span_start[idx]
        self.stack.pop()
        self.span_dur[idx] = d
        parent = self.span_parent[idx]
        if parent >= 0:
            self.span_child[parent] += d

    def _span(self, name: str, fn, after=None):
        nid = self._name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(idx, args, kwargs, result)
            return result

        return traced

    def _generator(self, name: str, fn):
        """A generator's span covers each resumption; its calls are the
        generators created and `.yielded` counts the items handed out."""
        nid = self._name_id(name)
        counts, yielded_to = self.counts, self.yielded_to

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counts[name + ".created"] += 1
            gen = fn(*args, **kwargs)
            while True:
                idx = self._open(nid)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self._close(idx)
                counts[name + ".yielded"] += 1
                parent = self.span_parent[idx]
                yielded_to[self.span_name[parent] if parent >= 0 else -1] += 1
                yield item

        return traced

    # -- installing -----------------------------------------------------------

    def _after_hooks(self):
        counts = self.counts

        def aad(idx, args, kwargs, result):
            fam = args[0]
            limited = kwargs.get("upper_limit", args[1] if len(args) > 1 else None) is not None
            self.aad_calls[idx] = (fam.k, len(fam.members), limited)

        def exhaustive(idx, args, kwargs, result):
            counts["search.nodes"] += result.nodes

        def random_family(idx, args, kwargs, result):
            counts["constructions.random.as_rounds"] += result.rounds_used

        def plan(idx, args, kwargs, result):
            counts["batch.plans_failed"] += result is None

        return {
            "family.compute_L_aad": aad,
            "search.exhaustive_max_family": exhaustive,
            "constructions.build_random_family": random_family,
            "batch.plan_recovery": plan,
        }

    def _feasible_counter(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            ok = fn(*args, **kwargs)
            counts["search.feasibility_attempts"] += 1
            counts["search.accepted"] += bool(ok)
            return ok

        return counted

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, sf) -> None:
        """Wrap every callable in TRACED, in every module bound to it."""
        modules = [m for n, m in sys.modules.items() if n == sf.__name__ or n.startswith(sf.__name__ + ".")]
        hooks = self._after_hooks()
        for name, module, attr in TRACED:
            mod = sys.modules[f"{sf.__name__}.{module}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    self._set(cls, meth, classmethod(self._span(name, raw.__func__, hooks.get(name))))
                else:
                    self._set(cls, meth, self._span(name, raw, hooks.get(name)))
                continue
            fn = getattr(mod, attr)
            wrapped = self._generator(name, fn) if name in GENERATORS else self._span(name, fn, hooks.get(name))
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        self._set(m, key, wrapped)
        search = sys.modules[f"{sf.__name__}.search"]
        self._set(search, "_feasible", self._feasible_counter(search._feasible))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # -- results ----------------------------------------------------------------

    def metrics(self, passes: int, traced_wall_s: float, untraced_wall_s: float) -> dict:
        """Per-layer metrics per pass, as {name: (value, unit)}."""
        nid = {name: i for i, name in enumerate(self.names)}
        report, spread, reduce_, aad, plan, verify_batch, as_ = (
            nid[x]
            for x in (
                "family.build_report",
                "family.check_partial_spread",
                "subspace.Subspace.reduce",
                "family.compute_L_aad",
                "batch.plan_recovery",
                "batch.verify_batch",
                "family.compute_L_as",
            )
        )
        name_of, parent_of, dur, child = self.span_name, self.span_parent, self.span_dur, self.span_child
        nspans = len(name_of)
        calls, total, self_s = Counter(), Counter(), Counter()
        spread_in_reports = 0
        aad_rows = Counter()
        multisets = 0
        for i in range(nspans):
            n = name_of[i]
            p = parent_of[i]
            calls[n] += 1
            total[n] += dur[i]
            self_s[n] += dur[i] - child[i]
            if n == spread:
                while p >= 0 and name_of[p] != report:
                    p = parent_of[p]
                spread_in_reports += p >= 0
            elif n == reduce_ and p >= 0 and name_of[p] == aad:
                aad_rows[p] += 1  # one residue per basis row of each member pair
            elif n == plan and p >= 0 and name_of[p] == verify_batch:
                multisets += 1
        planes = self.yielded_to[as_]
        # A call without upper_limit covers every ordered member pair.  One
        # that may stop early covers the pairs whose basis rows it reduced.
        member_pairs = sum(
            aad_rows[p] // k if limited else m * (m - 1) for p, (k, m, limited) in self.aad_calls.items()
        )

        c = self.counts
        out: dict[str, float] = {}
        for name, _, _ in TRACED:
            i = nid[name]
            n_calls = c[name + ".created"] if name in GENERATORS else calls[i]
            out[f"{name}.calls"] = n_calls
            out[f"{name}.s"] = total[i]
            if name in NESTED:
                out[f"{name}.self_s"] = self_s[i]
        out["subspace.enumerate_subspaces.yielded"] = c["subspace.enumerate_subspaces.yielded"]
        out["family.spread_checks_in_reports"] = spread_in_reports
        out["family.compute_L_aad.member_pairs"] = member_pairs
        out["family.compute_L_as.planes"] = planes
        out["constructions.random.as_rounds"] = c["constructions.random.as_rounds"]
        out["search.nodes"] = c["search.nodes"]
        out["search.feasibility_attempts"] = c["search.feasibility_attempts"]
        out["search.accepted"] = c["search.accepted"]
        out["batch.multisets"] = multisets
        out["batch.plans_failed"] = c["batch.plans_failed"]
        out["trace.spans"] = nspans
        out = {k: v / passes for k, v in out.items()}
        out["family.spread_checks_per_report"] = _ratio(
            out["family.spread_checks_in_reports"], out["family.build_report.calls"]
        )
        out["family.compute_L_as.planes_per_s"] = _ratio(
            out["family.compute_L_as.planes"], out["family.compute_L_as.s"]
        )
        out["search.nodes_per_s"] = _ratio(out["search.nodes"], out["search.exhaustive_max_family.s"])
        out["search.accept_ratio"] = _ratio(out["search.accepted"], out["search.feasibility_attempts"])
        out["batch.multisets_per_s"] = _ratio(out["batch.multisets"], out["batch.verify_batch.s"])
        out["trace.overhead_ratio"] = _ratio(traced_wall_s, untraced_wall_s)
        units = metric_units()
        return {k: (out[k], units[k]) for k in units}

    def write(self, path: Path) -> None:
        """Write every span as a CSV row: id, name, parent id, start, duration."""
        path.parent.mkdir(parents=True, exist_ok=True)
        names, name_of, parent_of = self.names, self.span_name, self.span_parent
        starts, durs = self.span_start, self.span_dur
        t0 = starts[0] if starts else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("span,name,parent,start_s,dur_s\n")
            for lo in range(0, len(name_of), 10_000):
                fh.write(
                    "".join(
                        f"{i},{names[name_of[i]]},{parent_of[i]},{starts[i] - t0:.7f},{durs[i]:.7f}\n"
                        for i in range(lo, min(lo + 10_000, len(name_of)))
                    )
                )
