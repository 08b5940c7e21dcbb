"""In-memory span tracer for the per-layer benchmark metrics.

The tracer wraps the public functions of each ``suptest`` module (a layer)
from outside the package.  Modules import one another's functions by name
(``from .encoding import fingerprint``), so a wrapper installed only on the
defining module would never see those calls: :meth:`Tracer.install` replaces
every alias of the original function in every loaded ``suptest`` module, and
:meth:`Tracer.uninstall` puts all of them back.

Timed functions record spans (name, start, end, parent, op); hot functions
are only counted.  Per-layer times are self times: a span's duration minus
the part its child spans cover.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

from suptest import cli, encoding, fsm, guards, harness, mutation, sfsm, supervisor, testgen

# (owner, attribute) of every function timed as a span; the span's name is
# "<layer>.<attribute>", the layer being the module that defines it.
SPANNED = [
    (supervisor, "load_behavior"),
    (supervisor, "to_guarded_actions"),
    (supervisor, "to_test_reference"),
    (supervisor, "check_hypotheses"),
    (guards, "satisfiable"),
    (sfsm.Sfsm, "check_determinism"),
    (sfsm, "input_classes"),
    (sfsm, "abstract_to_fsm"),
    (sfsm, "concretize_suite"),
    (sfsm, "export_dot"),
    (testgen, "h_method"),
    (testgen, "check_h_completeness"),
    (fsm.MealyMachine, "is_minimal"),
    (encoding, "canonical_dumps"),
    (encoding, "fingerprint"),
    (harness, "run_suite"),
    (mutation, "program_equivalent"),
    (mutation, "classify"),
    (mutation, "generate_mutants"),
    (cli, "write_artifact"),
    (cli, "read_artifact"),
    (cli, "main"),
]

LAYER_OF = {
    supervisor: "supervisor", guards: "guards", sfsm: "sfsm", sfsm.Sfsm: "sfsm",
    testgen: "testgen", fsm.MealyMachine: "fsm", encoding: "encoding",
    harness: "harness", mutation: "mutation", cli: "cli",
}

# Every per-layer metric a traced run reports, with its unit.
PER_LAYER = {m["name"]: m["unit"] for m in json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())["per_layer"]}


def _prefix_count(suite) -> int:
    """Distinct non-empty input prefixes of a suite (its prefix-tree size)."""
    return len({case.inputs[:i] for case in suite.cases
                for i in range(1, len(case.inputs) + 1)})


class Tracer:
    """Records spans and counts while installed; one instance per traced op."""

    def __init__(self, op: int = 0):
        self.op = op
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self.round_trip_us: list[float] = []
        self.spawn_s = 0.0
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self._spawned: dict[int, float] = {}

    # -- patching ---------------------------------------------------------

    def _patch(self, owner, attr: str, make_wrapper) -> None:
        """Replace `owner.attr`, and every alias of a module function in the
        loaded suptest modules, by `make_wrapper(original)`.  A function the
        package no longer has is skipped, and its metrics stay 0."""
        original = owner.__dict__.get(attr)
        if original is None:
            return
        wrapper = make_wrapper(original)
        if isinstance(owner, type):
            self._undo.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            return
        for name, module in list(sys.modules.items()):
            if name != "suptest" and not name.startswith("suptest."):
                continue
            for alias, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, alias, original))
                    setattr(module, alias, wrapper)

    def install(self) -> None:
        for owner, attr in SPANNED:
            self._patch(owner, attr, lambda fn: self._spanned(f"{LAYER_OF[owner]}.{attr}", fn))
        self._patch(guards, "enumerate_valuations", self._counted_enumeration)
        self._patch(fsm.MealyMachine, "run_from",
                    lambda fn: self._counted("fsm.run_calls", fn))
        self._patch(fsm.MealyMachine, "distinguishing_trace",
                    lambda fn: self._counted("fsm.distinguishing_trace_calls", fn))
        self._patch(harness.SutAdapter, "start", self._session_start)
        self._patch(harness.SutAdapter, "restart",
                    lambda fn: self._counted("harness.restarts", fn))
        self._patch(harness.SutAdapter, "reset", self._round_trip)
        self._patch(harness.SutAdapter, "step", self._round_trip)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- wrappers ---------------------------------------------------------

    def _spanned(self, name: str, fn):
        spans, stack = self.spans, self._stack
        after = getattr(self, "_after_" + name.replace(".", "_"), None)

        def wrapper(*args, **kwargs):
            span = {"name": name, "op": self.op,
                    "parent": stack[-1] if stack else None}
            spans.append(span)
            stack.append(len(spans) - 1)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(span, result)
            return result

        return wrapper

    def _counted(self, key: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _counted_enumeration(self, fn):
        counts = self.counts

        def counting(valuations):
            n = 0
            try:
                for v in valuations:
                    n += 1
                    yield v
            finally:
                counts["guards.valuations_enumerated"] += n

        def wrapper(*args, **kwargs):
            counts["guards.enumerate_calls"] += 1
            return counting(fn(*args, **kwargs))

        return wrapper

    def _session_start(self, fn):
        def wrapper(adapter, *args, **kwargs):
            self.counts["harness.sessions"] += 1
            self._spawned[id(adapter)] = time.perf_counter()
            return fn(adapter, *args, **kwargs)

        return wrapper

    def _round_trip(self, fn):
        def wrapper(adapter, *args, **kwargs):
            start = time.perf_counter()
            result = fn(adapter, *args, **kwargs)
            end = time.perf_counter()
            self.counts["harness.round_trips"] += 1
            spawned = self._spawned.pop(id(adapter), None)
            if spawned is None:
                self.round_trip_us.append((end - start) * 1e6)
            else:  # first READY of a session: spawn cost, not a round trip
                self.spawn_s += end - spawned
            return result

        return wrapper

    # -- per-span hooks ---------------------------------------------------

    def _after_sfsm_input_classes(self, span, partition) -> None:
        span["classes"] = len(partition.classes)

    def _after_testgen_h_method(self, span, suite) -> None:
        span["prefix_traces"] = _prefix_count(suite)

    def _after_encoding_canonical_dumps(self, span, text) -> None:
        span["bytes"] = len(text.encode("utf-8"))

    def _after_harness_run_suite(self, span, report) -> None:
        span["error_verdicts"] = report.counts[harness.ERROR]

    def _after_mutation_classify(self, span, outcome) -> None:
        span["status"] = outcome.status

    # -- metrics ----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything recorded (trace.overhead_s excluded)."""
        self_time: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for span in self.spans:
            self_time[span["name"]] += span["end"] - span["start"]
            calls[span["name"]] += 1
            if span["parent"] is not None:
                parent = self.spans[span["parent"]]
                self_time[parent["name"]] -= span["end"] - span["start"]

        def attr_values(name, key):
            return [s[key] for s in self.spans if s["name"] == name and key in s]

        fingerprint_bytes = sum(
            s.get("bytes", 0) for s in self.spans
            if s["name"] == "encoding.canonical_dumps" and s["parent"] is not None
            and self.spans[s["parent"]]["name"] == "encoding.fingerprint"
        )
        statuses = Counter(attr_values("mutation.classify", "status"))
        killed, escaped = statuses[mutation.KILLED], statuses[mutation.ESCAPED]
        trips = sorted(self.round_trip_us)

        out = {name: 0.0 for name in PER_LAYER if name != "trace.overhead_s"}
        for name, seconds in self_time.items():
            out[name + "_s"] = seconds
        out.pop("cli.main_s", None)
        out["cli.self_s"] = self_time.get("cli.main", 0.0)
        out.update(self.counts)
        out.update({
            "sfsm.classes": max(attr_values("sfsm.input_classes", "classes"), default=0),
            "testgen.prefix_traces": sum(attr_values("testgen.h_method", "prefix_traces")),
            "encoding.fingerprint_calls": calls["encoding.fingerprint"],
            "encoding.fingerprint_bytes": fingerprint_bytes,
            "harness.spawn_s": self.spawn_s,
            "harness.round_trip_us.p50": _percentile(trips, 50),
            "harness.round_trip_us.p99": _percentile(trips, 99),
            "harness.error_verdicts": sum(attr_values("harness.run_suite", "error_verdicts")),
            "mutation.killed": killed,
            "mutation.equivalent": statuses[mutation.EQUIVALENT],
            "mutation.escaped": escaped,
            "mutation.kill_ratio": killed / (killed + escaped) if killed + escaped else 0.0,
        })
        unknown = set(out) - set(PER_LAYER)
        if unknown:
            raise RuntimeError(f"span names without a per-layer metric: {sorted(unknown)}")
        return out


def _percentile(sorted_values: list[float], pct: int) -> float:
    """Nearest-rank percentile; 0.0 for no samples."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-pct * len(sorted_values) // 100))
    return sorted_values[rank - 1]

