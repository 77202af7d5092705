"""Generic machinery for running one benchmark version and rendering figures."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.core import make_machine
from repro.obs.metrics import MetricsRegistry, registry_from_run
from repro.sim.stats import RunStats
from repro.util.config import MachineConfig
from repro.util.tables import format_bar_chart, format_table


@dataclass(frozen=True)
class VersionSpec:
    """One bar of a figure: an application version on a machine config."""

    label: str
    app: Any  # module with build(**kwargs)
    protocol: str
    optimized: bool
    config: MachineConfig
    build_kwargs: dict = field(default_factory=dict)
    variant: str = "cstar"


@dataclass
class VersionResult:
    spec: VersionSpec
    stats: RunStats
    #: learned schedule records, filled only when run with ``harvest=True``
    harvest: list = field(default_factory=list)

    @property
    def wall(self) -> float:
        return self.stats.wall_time

    def breakdown(self) -> dict[str, float]:
        return self.stats.figure_breakdown()

    def metrics(self, **labels) -> MetricsRegistry:
        """This version's stats as a metrics registry (repro.obs schema).

        Every series carries the version/protocol/block-size labels (plus
        any caller-supplied ones, e.g. ``figure=...``), which is what lets
        ablation and sweep results merge into one registry instead of
        ad-hoc dicts.
        """
        return registry_from_run(
            self.stats,
            version=self.spec.label,
            protocol=self.spec.protocol,
            optimized=self.spec.optimized,
            block_size=self.spec.config.block_size,
            **labels,
        )


def spec_to_params(spec: VersionSpec) -> dict:
    """A transport-safe (JSON) form of one spec for ``repro.farm`` params.

    App modules do not cross process boundaries, so the spec travels with
    the module's dotted name and :func:`spec_from_params` re-imports it.
    """
    from dataclasses import asdict

    return {
        "label": spec.label,
        "app": spec.app.__name__,
        "protocol": spec.protocol,
        "optimized": spec.optimized,
        "config": asdict(spec.config),
        "build_kwargs": dict(spec.build_kwargs),
        "variant": spec.variant,
    }


def spec_from_params(params: dict) -> VersionSpec:
    import importlib

    return VersionSpec(
        label=params["label"],
        app=importlib.import_module(params["app"]),
        protocol=params["protocol"],
        optimized=params["optimized"],
        config=MachineConfig(**params["config"]),
        build_kwargs=dict(params["build_kwargs"]),
        variant=params["variant"],
    )


def spec_corpus_key(spec: VersionSpec) -> str:
    """The durable-corpus key of one spec's (program, protocol, placement)."""
    from repro.corpus import bench_key

    return bench_key(
        spec.app.__name__.rsplit(".", 1)[-1], spec.protocol, spec.config,
        optimized=spec.optimized, build_kwargs=dict(spec.build_kwargs),
        variant=spec.variant,
    )


def version_job(params: dict) -> dict:
    """Farm job body: run one version; ship its stats back as plain JSON.

    ``params`` may carry the coordinator-computed corpus envelope:
    ``"warm"`` (schedule records seeded before the run) and ``"harvest"``
    (return what the run learned, for the coordinator to persist).
    """
    result = run_version(spec_from_params(params),
                         warm=params.get("warm"),
                         harvest=bool(params.get("harvest")))
    out = {"stats": result.stats.to_dict()}
    if params.get("harvest"):
        out["harvest"] = result.harvest
    return out


def run_specs(specs, jobs: int = 1, tracer=None, progress=None,
              corpus=None) -> list[VersionResult]:
    """Run a list of specs, optionally sharded across a farm worker pool.

    Results come back in spec order regardless of scheduling, and each
    version's simulation is seeded entirely by its spec, so the list is
    identical to the sequential one (``RunStats`` round-trips losslessly
    through :meth:`~repro.sim.stats.RunStats.to_dict`).  ``corpus``
    warm-starts every schedule-learning spec from the durable corpus and
    harvests what each run learned back into it; lookups and stores both
    happen here (coordinator-side), so farm workers stay stateless.
    """
    from repro.corpus import supports_warm

    specs = list(specs)
    keys: list[str | None] = [None] * len(specs)
    params_list = [spec_to_params(spec) for spec in specs]
    if corpus is not None:
        for i, spec in enumerate(specs):
            if not supports_warm(spec.protocol):
                continue
            keys[i] = spec_corpus_key(spec)
            params_list[i]["harvest"] = True
            entry = corpus.lookup(keys[i], spec.config.n_nodes)
            if entry is not None:
                params_list[i]["warm"] = entry["records"]
    if jobs > 1 and len(specs) > 1:
        from repro.farm import FarmJob, run_farm

        farm = run_farm(
            [FarmJob(index=i, kind="bench-version", params=params)
             for i, params in enumerate(params_list)],
            n_workers=jobs, tracer=tracer, progress=progress,
        )
        results = [
            VersionResult(spec=spec,
                          stats=RunStats.from_dict(farm.results[i]["stats"]),
                          harvest=list(farm.results[i].get("harvest") or []))
            for i, spec in enumerate(specs)
        ]
    else:
        results = [run_version(spec, warm=params.get("warm"),
                               harvest=bool(params.get("harvest")))
                   for spec, params in zip(specs, params_list)]
    if corpus is not None:
        for spec, key, result in zip(specs, keys, results):
            if key is not None and result.harvest:
                corpus.store(key, {"protocol": spec.protocol,
                                   "n_nodes": spec.config.n_nodes,
                                   "records": result.harvest})
    return results


def run_version(spec: VersionSpec, tracer=None, warm=None,
                harvest: bool = False) -> VersionResult:
    """Build the program, run it on a fresh machine, and collect stats.

    ``tracer`` optionally attaches a :class:`repro.obs.events.Tracer` to the
    machine so benchmark runs can export event timelines.  ``warm`` seeds
    corpus schedule records before the run; ``harvest=True`` returns the
    learned records in ``VersionResult.harvest``.
    """
    kwargs = dict(spec.build_kwargs)
    if spec.variant != "cstar":
        kwargs["variant"] = spec.variant
    prog = spec.app.build(**kwargs)
    machine = make_machine(spec.config, spec.protocol, warm=warm)
    if tracer is not None:
        machine.attach_tracer(tracer)
    env = prog.run(machine, optimized=spec.optimized)
    stats = env.finish()
    stats.check_conservation()
    result = VersionResult(spec=spec, stats=stats)
    if harvest:
        store = getattr(machine.protocol, "schedules", None)
        if store is not None:
            result.harvest = [s.to_record() for s in store.values()
                              if s.entries]
    return result


@dataclass
class FigureResult:
    """All bars of one paper figure plus its shape checks."""

    name: str
    description: str
    versions: list[VersionResult]
    notes: list[str] = field(default_factory=list)

    def result(self, label: str) -> VersionResult:
        for v in self.versions:
            if v.spec.label == label:
                return v
        raise KeyError(label)

    def relative(self, label: str) -> float:
        """Execution time relative to the fastest version (paper's y-axis)."""
        fastest = min(v.wall for v in self.versions)
        return self.result(label).wall / fastest

    def metrics(self) -> MetricsRegistry:
        """All versions' stats merged into one registry, tagged by figure."""
        return MetricsRegistry.merge_all(
            v.metrics(figure=self.name) for v in self.versions
        )

    def render(self, width: int = 56) -> str:
        bars = [(v.spec.label, v.breakdown()) for v in self.versions]
        lines = [f"=== {self.name}: {self.description} ===", ""]
        lines.append(format_bar_chart(bars, width=width))
        lines.append("")
        rows = []
        fastest = min(v.wall for v in self.versions)
        for v in self.versions:
            b = v.breakdown()
            rows.append([
                v.spec.label,
                v.wall,
                v.wall / fastest,
                b["Remote data wait"],
                b["Predictive protocol"],
                b["Compute+Synch"],
                v.stats.hit_rate,
                float(v.stats.misses),
            ])
        lines.append(
            format_table(
                ["version", "cycles", "rel", "remote wait", "predictive",
                 "compute+synch", "hit rate", "misses"],
                rows,
                floatfmt=".3g",
            )
        )
        for n in self.notes:
            lines.append(f"note: {n}")
        return "\n".join(lines)
