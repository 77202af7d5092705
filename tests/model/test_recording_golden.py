"""Golden digests of the model's value-pass recordings.

Each digest covers a tiny build's whole recording: the event sequence
(group boundaries and phase names) and every phase's per-node
``agg`` / ``flat`` / ``kind`` columns and ``compute`` totals.  The digests
were recorded before the recorder wrote its columns directly, so they pin
the recording format across that rewrite.

Regenerate (only for a deliberate change of what the value pass records)::

    PYTHONPATH=src python -m tests.model.test_recording_golden --write
"""

from __future__ import annotations

import hashlib
import importlib
import json
import sys
from pathlib import Path

import pytest

from repro.model.recording import clear_cache, record_program

GOLDEN = Path(__file__).with_name("recording_golden.json")

#: (app, build kwargs, variant, n_nodes, page_size)
BUILDS = {
    "water": ("water", dict(n=16, iterations=2), "cstar", 4, 512),
    "water-splash": ("water", dict(n=16, iterations=2), "splash", 4, 512),
    "adaptive": ("adaptive", dict(size=8, iterations=3, threshold=0.05,
                                  work_scale=4.0), "cstar", 4, 256),
    "barnes": ("barnes", dict(n=32, iterations=2), "cstar", 4, 512),
}


def recording_doc(name: str) -> dict:
    app_name, kwargs, variant, n_nodes, page_size = BUILDS[name]
    app = importlib.import_module(f"repro.apps.{app_name}")
    clear_cache()
    rec = record_program(app, kwargs, variant, n_nodes=n_nodes,
                         page_size=page_size)
    events = []
    for kind, payload in rec.events:
        if kind != "phase":
            events.append([kind, payload])
            continue
        events.append([kind, {
            "name": payload.name,
            "agg": [a.tolist() for a in payload.agg],
            "flat": [f.tolist() for f in payload.flat],
            "kind": [k.tolist() for k in payload.kind],
            "compute": [float(c).hex() for c in payload.compute],
        }])
    return {
        "agg_names": list(rec.agg_names),
        "agg_base": rec.agg_base.tolist(),
        "agg_stride": rec.agg_stride.tolist(),
        "events": events,
    }


def digest(name: str) -> dict:
    doc = recording_doc(name)
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    phases = [p for k, p in doc["events"] if k == "phase"]
    return {
        "sha256": hashlib.sha256(blob.encode()).hexdigest(),
        "phases": len(phases),
        "accesses": sum(len(f) for p in phases for f in p["flat"]),
    }


@pytest.mark.parametrize("name", sorted(BUILDS))
def test_recording_matches_golden(name):
    golden = json.loads(GOLDEN.read_text())
    assert digest(name) == golden[name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit(__doc__)
    out = {name: digest(name) for name in sorted(BUILDS)}
    GOLDEN.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(out)} digests to {GOLDEN}")
