"""One value-pass recording shared by many bars: exact and scoped.

A shared recording must give every spec exactly the ``RunStats`` a fresh
recording of its own gives, so replay may not change the recording (its
columns, its events) or the recorded aggregate data.  Sharing must also
stay inside one call: ``run_specs`` records each program once and frees
the recording after its last spec, and nothing carries over to the next
call.
"""

from __future__ import annotations

import gc
import hashlib
import json
import weakref

import pytest

import repro.model.recording as model_recording
from repro.apps import adaptive, barnes, water
from repro.bench.figures import fig5_adaptive
from repro.bench.harness import VersionSpec, run_shared, run_specs, run_version
from repro.util import MachineConfig

CFG = MachineConfig(n_nodes=4, page_size=512)
#: name -> (app, build kwargs, variant)
APPS = {
    "water": (water, dict(n=16, iterations=2), "cstar"),
    "adaptive": (adaptive, dict(size=8, iterations=3, threshold=0.05,
                                work_scale=4.0), "cstar"),
    "barnes": (barnes, dict(n=32, iterations=2), "cstar"),
    "barnes-spmd": (barnes, dict(n=32, iterations=2), "spmd"),
}
MATRIX = [(bs, protocol, optimized)
          for bs in (32, 64, 256)
          for protocol in ("stache", "predictive", "write-update")
          for optimized in (False, True)]


def outcome(run) -> tuple[bool, str]:
    """Whether the run completed, and the digest of its ``RunStats`` or of
    the exception it raised (write-update rejects programs whose writers
    do not own their data)."""
    try:
        ok, doc = True, run().stats.to_dict()
    except Exception as exc:
        ok, doc = False, {"error": type(exc).__name__, "message": str(exc)}
    blob = json.dumps(doc, sort_keys=True)
    return ok, hashlib.sha256(blob.encode()).hexdigest()


def recording_digest(rec) -> str:
    h = hashlib.sha256()
    for kind, payload in rec.events:
        h.update(repr((kind, getattr(payload, "name", payload))).encode())
        if kind == "phase":
            for codes, charges in zip(payload.codes, payload.charges):
                h.update(codes.tobytes())
                h.update(charges.tobytes())
    for agg in rec.env.runtime.aggregates.values():
        h.update(agg.data.tobytes())
    h.update(rec.agg_base.tobytes() + rec.agg_stride.tobytes())
    return h.hexdigest()


def specs_for(app, kwargs, variant="cstar") -> list[VersionSpec]:
    return [VersionSpec(f"{protocol}/{int(optimized)} ({bs})", app, protocol,
                        optimized, CFG.with_(block_size=bs), kwargs, variant)
            for bs, protocol, optimized in MATRIX]


@pytest.mark.parametrize("name", sorted(APPS))
def test_shared_recording_equals_fresh_recordings(name):
    app, kwargs, variant = APPS[name]
    shared = model_recording.record(app, kwargs, variant, n_nodes=CFG.n_nodes,
                                    page_size=CFG.page_size)
    before = recording_digest(shared)
    completed = 0
    for spec in specs_for(app, kwargs, variant):
        fresh = outcome(lambda: run_version(spec))  # records its own pass
        assert outcome(lambda: run_version(spec, recording=shared)) == fresh, \
            spec.label
        completed += fresh[0]
    assert completed >= 12
    assert recording_digest(shared) == before


@pytest.fixture
def count_records(monkeypatch):
    """Count value passes through the harness; keep weak references to the
    recordings they make."""
    made: list[weakref.ref] = []
    real = model_recording.record

    def counting(*args, **kwargs):
        rec = real(*args, **kwargs)
        made.append(weakref.ref(rec))
        return rec

    monkeypatch.setattr(model_recording, "record", counting)
    return made


def test_run_specs_records_each_program_once(count_records):
    app, kwargs, _ = APPS["water"]
    specs = specs_for(app, kwargs)[:4]
    results = run_specs(specs)
    assert len(count_records) == 1
    assert [r.spec for r in results] == specs
    # the recording did not outlive the call
    gc.collect()
    assert count_records[0]() is None


def test_run_shared_groups_by_key_and_frees_after_last_use(count_records):
    water_app, water_kw, _ = APPS["water"]
    specs = [VersionSpec("a", water_app, "stache", False, CFG, water_kw),
             VersionSpec("b", water_app, "stache", False, CFG, water_kw,
                         variant="splash"),
             VersionSpec("c", water_app, "stache", False,
                         CFG.with_(block_size=64), water_kw)]
    alive = []

    def run(i, recording):
        gc.collect()
        alive.append([ref() is not None for ref in count_records])
        return id(recording)

    ids = run_shared(specs, run)
    assert ids[0] == ids[2]  # block size does not change the value pass
    assert ids[1] != ids[0]  # the variant does
    assert len(count_records) == 2
    # by spec c the splash recording, used only by b, is gone
    assert alive == [[True], [True, True], [True, False]]
    gc.collect()
    assert all(ref() is None for ref in count_records)


def test_consecutive_figure_calls_record_once_each(count_records):
    fig5_adaptive()
    assert len(count_records) == 1
    fig5_adaptive()
    assert len(count_records) == 2
