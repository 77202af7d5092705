"""Execution-time accounting.

The paper's figures decompose each run into three stacked segments:

* **Remote data wait** — cycles a processor stalls on non-local shared data,
* **Predictive protocol** — cycles spent in the pre-send phase,
* **Compute + Synch** — computation plus barrier-synchronization time.

We track four raw categories (compute and synch separately, which the paper
itself discusses when explaining Adaptive's synchronization win) and fold
them for figure output.  Because every phase ends at a global barrier, each
node's per-category cycles sum to the same wall-clock time; the figure bars
are the across-node means, which therefore also sum to wall time.
"""

from __future__ import annotations

import enum
from dataclasses import asdict, dataclass, field, fields
from typing import Iterable, Mapping


class TimeCategory(enum.Enum):
    COMPUTE = "compute"
    REMOTE_WAIT = "remote_wait"
    PREDICTIVE = "predictive"
    SYNCH = "synch"
    #: cycles a node spent dead between a crash-stop and its restart; zero on
    #: every fault-free run, so the paper-figure breakdown (which folds only
    #: the four categories above) is unchanged there
    DOWNTIME = "downtime"


@dataclass
class NodeStats:
    """Per-node accumulated cycles and protocol event counters."""

    node: int
    cycles: dict[TimeCategory, float] = field(
        default_factory=lambda: {c: 0.0 for c in TimeCategory}
    )
    # protocol counters
    read_misses: int = 0
    write_misses: int = 0
    local_hits: int = 0
    presend_blocks_sent: int = 0
    presend_blocks_received: int = 0
    presend_useless_blocks: int = 0  # pre-sent but invalidated before any use
    messages_sent: int = 0
    bytes_sent: int = 0
    # resilient-transport counters (all zero on fault-free runs)
    transport_retries: int = 0       # retransmissions this node issued
    transport_timeouts: int = 0      # sends that exhausted the retry budget
    duplicates_suppressed: int = 0   # already-seen seqs discarded on arrival
    # crash-recovery counters (all zero on fault-free runs)
    crashes: int = 0                 # crash-stop failures of this node
    reissued_requests: int = 0       # faults re-sent after a home crashed

    def add(self, category: TimeCategory, cycles: float) -> None:
        if cycles < 0:
            raise ValueError(f"negative time {cycles} for {category}")
        self.cycles[category] += cycles

    @property
    def total(self) -> float:
        return sum(self.cycles.values())

    def to_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["cycles"] = {c.value: t for c, t in self.cycles.items()}
        return d

    @classmethod
    def from_dict(cls, d: Mapping) -> "NodeStats":
        d = dict(d)
        d["cycles"] = {TimeCategory(k): v for k, v in d["cycles"].items()}
        return cls(**d)


@dataclass
class PhaseBreakdown:
    """Aggregate timing for one parallel phase execution (all nodes)."""

    phase_name: str
    directive_id: int | None
    wall_start: float
    wall_end: float
    #: protocol activity during this phase (deltas of the run counters)
    misses: int = 0
    hits: int = 0
    messages: int = 0
    #: per-category cycles charged across all nodes during this phase
    #: (deltas of the node accumulators, nonzero categories only, keyed by
    #: ``TimeCategory.value``).  This is the accounting schema shared by the
    #: simulator, the ``repro.obs`` profiler, and the ``repro.model``
    #: analytical predictor; pre-send (PREDICTIVE) charges land in the phase
    #: that *follows* the directive's ``begin_group``.
    cycles: dict[str, float] = field(default_factory=dict)

    @property
    def wall(self) -> float:
        return self.wall_end - self.wall_start

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 1.0

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: Mapping) -> "PhaseBreakdown":
        return cls(**d)


class RunStats:
    """Statistics for one full program run on the simulated machine."""

    def __init__(self, n_nodes: int):
        self.nodes = [NodeStats(i) for i in range(n_nodes)]
        self.phases: list[PhaseBreakdown] = []
        self.wall_time: float = 0.0
        self.total_remote_requests: int = 0
        #: predictive schedules flushed for chronic misprediction (degradation)
        self.schedules_degraded: int = 0

    # -- serialization ---------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-safe form; :meth:`from_dict` reconstructs an equal object.

        This is the transport format farm workers use to ship a run's
        accounting back to the coordinator (``repro.farm``); it is lossless,
        unlike the reporting-oriented ``repro.obs.run_stats_json``.
        """
        return {
            "nodes": [n.to_dict() for n in self.nodes],
            "phases": [p.to_dict() for p in self.phases],
            "wall_time": self.wall_time,
            "total_remote_requests": self.total_remote_requests,
            "schedules_degraded": self.schedules_degraded,
        }

    @classmethod
    def from_dict(cls, d: Mapping) -> "RunStats":
        stats = cls(n_nodes=len(d["nodes"]))
        stats.nodes = [NodeStats.from_dict(n) for n in d["nodes"]]
        stats.phases = [PhaseBreakdown.from_dict(p) for p in d["phases"]]
        stats.wall_time = d["wall_time"]
        stats.total_remote_requests = d["total_remote_requests"]
        stats.schedules_degraded = d["schedules_degraded"]
        return stats

    # -- summaries ------------------------------------------------------------

    def mean(self, category: TimeCategory) -> float:
        return sum(n.cycles[category] for n in self.nodes) / len(self.nodes)

    def totals(self) -> dict[TimeCategory, float]:
        return {c: self.mean(c) for c in TimeCategory}

    def figure_breakdown(self) -> dict[str, float]:
        """The three stacked segments of the paper's figures (mean cycles)."""
        t = self.totals()
        return {
            "Remote data wait": t[TimeCategory.REMOTE_WAIT],
            "Predictive protocol": t[TimeCategory.PREDICTIVE],
            "Compute+Synch": t[TimeCategory.COMPUTE] + t[TimeCategory.SYNCH],
        }

    @property
    def local_hits(self) -> int:
        return sum(n.local_hits for n in self.nodes)

    @property
    def misses(self) -> int:
        return sum(n.read_misses + n.write_misses for n in self.nodes)

    @property
    def hit_rate(self) -> float:
        accesses = self.local_hits + self.misses
        return self.local_hits / accesses if accesses else 1.0

    @property
    def messages(self) -> int:
        return sum(n.messages_sent for n in self.nodes)

    @property
    def bytes_on_wire(self) -> int:
        return sum(n.bytes_sent for n in self.nodes)

    @property
    def transport_retries(self) -> int:
        return sum(n.transport_retries for n in self.nodes)

    @property
    def transport_timeouts(self) -> int:
        return sum(n.transport_timeouts for n in self.nodes)

    @property
    def duplicates_suppressed(self) -> int:
        return sum(n.duplicates_suppressed for n in self.nodes)

    @property
    def crashes(self) -> int:
        return sum(n.crashes for n in self.nodes)

    @property
    def reissued_requests(self) -> int:
        return sum(n.reissued_requests for n in self.nodes)

    @property
    def downtime(self) -> float:
        return sum(n.cycles[TimeCategory.DOWNTIME] for n in self.nodes)

    def check_conservation(self, tol: float = 1e-6) -> None:
        """Assert each node's category cycles sum to wall time.

        Holds exactly because every run ends at a global barrier; tests use
        this as an invariant.
        """
        for n in self.nodes:
            if abs(n.total - self.wall_time) > tol * max(1.0, self.wall_time):
                raise AssertionError(
                    f"node {n.node}: categories sum to {n.total}, wall={self.wall_time}"
                )

    def phase_category_totals(self) -> dict[str, float]:
        """Per-category cycles summed over all recorded phase breakdowns."""
        totals: dict[str, float] = {}
        for p in self.phases:
            for key, cycles in p.cycles.items():
                totals[key] = totals.get(key, 0.0) + cycles
        return totals

    def check_phase_conservation(self, tol: float = 1e-6) -> None:
        """Assert the per-phase cycle breakdowns telescope to the node totals.

        Each phase records the across-node delta of every category
        accumulator, so summing the phases must reproduce the across-node
        totals exactly (up to float tolerance).  Guards the schema the
        analytical model predicts into.
        """
        phase_totals = self.phase_category_totals()
        for c in TimeCategory:
            node_total = sum(n.cycles[c] for n in self.nodes)
            phase_total = phase_totals.get(c.value, 0.0)
            if abs(node_total - phase_total) > tol * max(1.0, node_total):
                raise AssertionError(
                    f"category {c.value}: phases sum to {phase_total}, "
                    f"nodes sum to {node_total}"
                )

    def phase_rows(self) -> list[list[object]]:
        """Per-phase activity (name, wall, misses, hit rate) for reports."""
        return [
            [p.phase_name, p.wall, float(p.misses), p.hit_rate]
            for p in self.phases
        ]

    def summary_rows(self) -> list[list[object]]:
        b = self.figure_breakdown()
        return [
            ["wall time (cycles)", self.wall_time],
            ["remote data wait (mean)", b["Remote data wait"]],
            ["predictive protocol (mean)", b["Predictive protocol"]],
            ["compute+synch (mean)", b["Compute+Synch"]],
            ["local hit rate", self.hit_rate],
            ["remote misses", float(self.misses)],
            ["protocol messages", float(self.messages)],
        ] + self._resilience_rows()

    def _resilience_rows(self) -> list[list[object]]:
        """Transport/degradation rows, emitted only when nonzero.

        Fault-free runs produce none of these events, so their summaries —
        and the determinism fingerprints built from them — are unchanged.
        """
        rows: list[list[object]] = []
        if self.transport_retries:
            rows.append(["transport retries", float(self.transport_retries)])
        if self.transport_timeouts:
            rows.append(["transport timeouts", float(self.transport_timeouts)])
        if self.duplicates_suppressed:
            rows.append(["duplicates suppressed", float(self.duplicates_suppressed)])
        if self.schedules_degraded:
            rows.append(["schedules degraded", float(self.schedules_degraded)])
        if self.crashes:
            rows.append(["node crashes", float(self.crashes)])
            rows.append(["downtime (cycles)", self.downtime])
        if self.reissued_requests:
            rows.append(["requests reissued", float(self.reissued_requests)])
        return rows
