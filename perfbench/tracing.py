"""Per-layer host-time accounting for the traced run, measured from outside.

The traced run wraps the calls into each layer's entry points (the layer
table in ``perfbench/README.md``) in spans: name, start, end, parent span
and unit id, kept in compact arrays and written out when the run ends.  A
span's self time is its duration minus the time its child spans cover; a
layer's self time is the sum over its spans.  Every traced unit runs inside
a ``driver.unit`` span, so the layers' self times add up to the traced wall
time.  Nothing inside ``repro`` changes: the wrappers are installed on the
module and class attributes callers look up, and removed afterwards.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from collections import Counter
from contextlib import contextmanager

import numpy as np

#: accounting layers and the metric each one's self time is reported as
LAYER_METRICS = {
    "driver": "driver.self_s",
    "cstar": "cstar.compile_s",
    "valuepass": "valuepass.self_s",
    "machine": "machine.self_s",
    "replay": "replay.self_s",
    "handler": "handler.self_s",
    "network": "network.self_s",
    "stats": "stats.self_s",
    "model": "model.self_s",
    "verify": "verify.oracle_s",
}

UNIT_SPAN = "driver.unit"

#: (span name, owners, attribute).  An owner is a module, or
#: ``module:Class`` for a method defined on that class; a function imported
#: by name into several modules is replaced in each of them.
SPANS = [
    ("cstar.build", ["repro.apps.adaptive", "repro.apps.barnes",
                     "repro.apps.water"], "build"),
    ("cstar.compile", ["repro.cstar.embedded:EmbeddedProgram"], "compile"),
    ("valuepass.run", ["repro.cstar.embedded:EmbeddedProgram"], "run"),
    ("valuepass.execute", ["repro.model.recording"], "execute"),
    ("machine.build", ["repro.tempest.machine:Machine"], "__init__"),
    ("machine.install_fault_plan", ["repro.tempest.machine:Machine"],
     "install_fault_plan"),
    ("replay.run_phase", ["repro.tempest.machine:Machine"], "run_phase"),
    ("replay.begin_group", ["repro.tempest.machine:Machine"], "begin_group"),
    ("replay.end_group", ["repro.tempest.machine:Machine"], "end_group"),
    ("handler.fault", ["repro.protocols.base:BaseProtocol"], "fault"),
    ("handler.on_message", ["repro.protocols.base:BaseProtocol"],
     "on_message"),
    ("handler.handle", ["repro.protocols.base:BaseProtocol",
                        "repro.core.predictive:PredictiveProtocol"],
     "_handle"),
    ("network.send", ["repro.tempest.network:Network"], "send"),
    ("network.transport_send", ["repro.faults.transport:ReliableTransport"],
     "send"),
    ("stats.finish", ["repro.tempest.machine:Machine"], "finish"),
    ("stats.check_conservation", ["repro.sim.stats:RunStats"],
     "check_conservation"),
    ("stats.registry_from_run", ["repro.obs.metrics", "repro.obs",
                                 "repro.verify.fuzz", "repro.faults.campaign",
                                 "repro.bench.harness"], "registry_from_run"),
    ("model.record", ["repro.model.recording", "repro.model.predictor"],
     "record_program"),
    ("model.predict_cold", ["repro.model.predictor"], "predict"),
    ("verify.run_workload", ["repro.verify.oracle", "repro.verify",
                             "repro.verify.fuzz", "repro.faults.campaign"],
     "run_workload"),
    ("verify.differential_check", ["repro.verify.oracle", "repro.verify",
                                   "repro.verify.fuzz",
                                   "repro.faults.campaign"],
     "differential_check"),
    ("verify.monitor_check", ["repro.verify.monitor:InvariantMonitor"],
     "check"),
]

#: per-layer metrics the traced run reports, with their units
PER_LAYER_UNITS = {
    "driver.self_s": "s",
    "cstar.compile_s": "s",
    "cstar.builds": "count",
    "valuepass.self_s": "s",
    "valuepass.trace_ops": "count",
    "valuepass.ns_per_op": "ns",
    "machine.self_s": "s",
    "machine.builds": "count",
    "replay.self_s": "s",
    "replay.phases": "count",
    "replay.events": "count",
    "replay.ns_per_event": "ns",
    "handler.self_s": "s",
    "handler.faults": "count",
    "handler.messages": "count",
    "handler.us_per_call": "us",
    "core.presend_useful_ratio": "ratio",
    "network.self_s": "s",
    "network.sends": "count",
    "network.drop_ratio": "ratio",
    "stats.self_s": "s",
    "model.self_s": "s",
    "model.record_s": "s",
    "model.records": "count",
    "model.predict_cold_s": "s",
    "model.predict_warm_s": "s",
    "model.points": "count",
    "model.walk_cache_hit_ratio": "ratio",
    "verify.runs": "count",
    "verify.oracle_s": "s",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.accounted_ratio": "ratio",
    "error_rate": "ratio",
}


def _owner(path: str):
    module, _, cls = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class SpanRecorder:
    """Spans in compact arrays, plus the counters read at span boundaries."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("q")
        self.parent = array("q")
        self.unit = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._unit = -1
        self.unit_names: list[str] = []
        #: trace_ops, events, drops, presend_sent, presend_useless
        self.counts: Counter = Counter()

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, before=None, after=None):
        """``fn`` inside a span.  ``before(args)`` runs first and its value
        goes to ``after(token, args, result, span_index)``, which runs once
        ``fn`` has returned."""
        nid = self.name_id(name)
        clock = time.perf_counter
        names, parents, units = self.name, self.parent, self.unit
        starts, ends, stack = self.start, self.end, self._stack
        rec = self

        if before is None and after is None:
            def wrapper(*args, **kwargs):
                i = len(starts)
                names.append(nid)
                parents.append(stack[-1])
                units.append(rec._unit)
                ends.append(0.0)
                stack.append(i)
                starts.append(clock())
                try:
                    return fn(*args, **kwargs)
                finally:
                    ends[i] = clock()
                    stack.pop()
        else:
            def wrapper(*args, **kwargs):
                token = before(args) if before is not None else None
                i = len(starts)
                names.append(nid)
                parents.append(stack[-1])
                units.append(rec._unit)
                ends.append(0.0)
                stack.append(i)
                starts.append(clock())
                try:
                    result = fn(*args, **kwargs)
                finally:
                    ends[i] = clock()
                    stack.pop()
                if after is not None:
                    after(token, args, result, i)
                return result
        return functools.wraps(fn)(wrapper)

    def run_unit(self, uid: str, fn):
        """Call ``fn`` as one traced unit (a root ``driver.unit`` span)."""
        self._unit = len(self.unit_names)
        self.unit_names.append(uid)
        try:
            return self.wrap(UNIT_SPAN, fn)()
        finally:
            self._unit = -1

    # -- installing the wrappers ---------------------------------------------

    def _special(self):
        """Hooks of the spans that also read counters."""
        counts, stack, names = self.counts, self._stack, self.name
        valuepass = {self.name_id("valuepass.run"),
                     self.name_id("valuepass.execute")}
        warm = self.name_id("model.predict_warm")

        def phase_before(args):
            machine, trace = args[0], args[1]
            parent = stack[-1]
            if parent >= 0 and names[parent] in valuepass:
                counts["trace_ops"] += trace.op_count()
            return machine.engine.total_dispatched

        def group_before(args):
            return args[0].engine.total_dispatched

        def events_after(token, args, result, i):
            counts["events"] += args[0].engine.total_dispatched - token

        def finish_after(token, args, stats, i):
            for node in stats.nodes:
                counts["presend_sent"] += node.presend_blocks_sent
                counts["presend_useless"] += node.presend_useless_blocks

        def predict_after(token, args, prediction, i):
            if prediction.walk_cached:
                names[i] = warm

        return {
            "replay.run_phase": (phase_before, events_after),
            "replay.begin_group": (group_before, events_after),
            "stats.finish": (None, finish_after),
            "model.predict_cold": (None, predict_after),
        }

    def _counting(self):
        """Count-only wrappers (no span) on calls too small to time."""
        counts = self.counts

        def recording_phase(fn):
            def wrapper(machine, trace):
                counts["trace_ops"] += trace.op_count()
                return fn(machine, trace)
            return functools.wraps(fn)(wrapper)

        def deliveries(fn):
            def wrapper(injector, msg):
                out = fn(injector, msg)
                if not out:
                    counts["drops"] += 1
                return out
            return functools.wraps(fn)(wrapper)

        return [("repro.model.recording:RecordingMachine", "run_phase",
                 recording_phase),
                ("repro.faults.inject:FaultInjector", "message_deliveries",
                 deliveries)]

    @contextmanager
    def installed(self):
        """Install every wrapper for the duration of the block."""
        special = self._special()
        undo = []
        try:
            for name, owners, attr in SPANS:
                hooks = special.get(name, (None, None))
                for path in owners:
                    owner = _owner(path)
                    original = vars(owner)[attr]
                    undo.append((owner, attr, original))
                    setattr(owner, attr, self.wrap(name, original, *hooks))
            for path, attr, make in self._counting():
                owner = _owner(path)
                original = vars(owner)[attr]
                undo.append((owner, attr, original))
                setattr(owner, attr, make(original))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    # -- results ----------------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "unit": np.frombuffer(self.unit, dtype=np.int64),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def save(self, path) -> None:
        """Write every span (and the name and unit tables) as ``.npz``."""
        np.savez_compressed(path, names=np.array(self.names),
                            unit_names=np.array(self.unit_names),
                            **self.arrays())

    def metrics(self, passes: int, untraced_wall_s: float,
                scale: float) -> dict:
        """Per-layer metrics per pass over the workload's units; times are
        host seconds multiplied by ``scale``."""
        a = self.arrays()
        name, parent = a["name"], a["parent"]
        dur = (a["end"] - a["start"]) * scale
        untraced_wall_s *= scale
        n_names = len(self.names)
        child = parent >= 0
        covered = np.bincount(parent[child], weights=dur[child],
                              minlength=len(dur))
        self_time = dur - covered
        self_by_name = np.bincount(name, weights=self_time,
                                   minlength=n_names)
        dur_by_name = np.bincount(name, weights=dur, minlength=n_names)
        count_by_name = np.bincount(name, minlength=n_names)

        def of(table, span):
            i = self._ids.get(span)
            return float(table[i]) / passes if i is not None else 0.0

        out = {}
        for layer, metric in LAYER_METRICS.items():
            out[metric] = sum(float(self_by_name[i]) / passes
                              for i, n in enumerate(self.names)
                              if n.split(".", 1)[0] == layer)
        # a recording that ran the value pass (not a cache hit) has an
        # execute span as its child
        record = self._ids.get("model.record")
        execute = self._ids.get("valuepass.execute")
        records = 0
        if record is not None and execute is not None:
            parents = np.unique(parent[name == execute])
            parents = parents[parents >= 0]
            records = int(np.count_nonzero(name[parents] == record))
        c = self.counts
        faults = of(count_by_name, "handler.fault")
        messages = of(count_by_name, "handler.on_message")
        sends = of(count_by_name, "network.send")
        cold = of(count_by_name, "model.predict_cold")
        warm = of(count_by_name, "model.predict_warm")
        wall = of(dur_by_name, UNIT_SPAN)
        out.update({
            "cstar.builds": of(count_by_name, "cstar.build"),
            "valuepass.trace_ops": c["trace_ops"] / passes,
            "valuepass.ns_per_op": 1e9 * _ratio(out["valuepass.self_s"],
                                                c["trace_ops"] / passes),
            "machine.builds": of(count_by_name, "machine.build"),
            "replay.phases": of(count_by_name, "replay.run_phase"),
            "replay.events": c["events"] / passes,
            "replay.ns_per_event": 1e9 * _ratio(out["replay.self_s"],
                                                c["events"] / passes),
            "handler.faults": faults,
            "handler.messages": messages,
            "handler.us_per_call": 1e6 * _ratio(out["handler.self_s"],
                                                faults + messages),
            "core.presend_useful_ratio": (
                1.0 - _ratio(c["presend_useless"], c["presend_sent"])
                if c["presend_sent"] else 0.0),
            "network.sends": sends,
            "network.drop_ratio": _ratio(c["drops"] / passes, sends),
            "model.record_s": of(dur_by_name, "model.record"),
            "model.records": records / passes,
            "model.predict_cold_s": of(self_by_name, "model.predict_cold"),
            "model.predict_warm_s": of(self_by_name, "model.predict_warm"),
            "model.points": cold + warm,
            "model.walk_cache_hit_ratio": _ratio(warm, cold + warm),
            "verify.runs": of(count_by_name, "verify.run_workload"),
            "trace.wall_s": wall,
            "trace.untraced_wall_s": untraced_wall_s,
            "trace.overhead_ratio": _ratio(wall, untraced_wall_s) - 1.0,
            "trace.accounted_ratio": _ratio(
                sum(out[m] for m in LAYER_METRICS.values()), wall),
        })
        return out
