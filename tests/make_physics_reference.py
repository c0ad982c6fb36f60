"""Rewrite tests/data/physics_reference.json from a cold calibration.

    PYTHONPATH=src python tests/make_physics_reference.py

Calibrates the default configuration into a temporary store, runs the Bell
preparation with every method on it, and writes per gate the pulse
parameters, the full-model fidelity and the leakage, and per Bell method the
fidelity, the concurrence and the schedule length.  ``test_physics_reference``
compares the session store and the Bell runs with this file.  Rerun it only
when a change moves the physics on purpose, and report the diff.
"""

from __future__ import annotations

import json
import tempfile
from dataclasses import fields
from pathlib import Path

from qutritcr.calibrate import CALIBRATION_VERSION
from qutritcr.experiments import BELL_METHODS, GATE_SET, ExperimentConfig, cmd_bell, cmd_calibrate

REFERENCE = Path(__file__).resolve().parent / "data" / "physics_reference.json"


def play_record(play) -> dict:
    """A play's channel, timing, carrier and envelope parameters."""
    return {
        "channel": play.channel,
        "start": play.start,
        "carrier_freq": play.carrier_freq,
        "carrier_phase": play.carrier_phase,
        "shape": type(play.shape).__name__,
        "fields": {f.name: getattr(play.shape, f.name) for f in fields(play.shape)},
    }


def reference(config: ExperimentConfig) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        store = cmd_calibrate(config, str(Path(tmp) / "cal.json"), verbose=False)
    gates = {}
    for name in GATE_SET:
        g = store.get(name)
        gates[name] = {
            "plays": [play_record(play) for play in g.schedule.plays()],
            "fidelity": float(g.fidelity),
            "leakage": None if g.leakage is None else float(g.leakage),
        }
    bell = {}
    for method in BELL_METHODS:
        res = cmd_bell(config, store, method=method)
        bell[method] = {
            "fidelity": res.metrics[0].value,
            "concurrence": res.metrics[2].value,
            "duration_ns": res.duration_ns,
        }
    return {"calibration_version": CALIBRATION_VERSION, "gates": gates, "bell": bell}


def main() -> None:
    REFERENCE.parent.mkdir(parents=True, exist_ok=True)
    REFERENCE.write_text(json.dumps(reference(ExperimentConfig()), indent=2, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE}")


if __name__ == "__main__":
    main()
