"""Record the RWA tune-up results that the `pipeline` workload replays.

Runs a cold `cmd_calibrate` at the default `ExperimentConfig` and records,
for every `calibrate_single_qutrit` / `calibrate_cr_gate` call it makes, the
call's arguments and the returned gate exactly (floats round-trip through
JSON).  Rerun it when a change alters what a tune-up returns:

    python3 bench/record_tuneup.py            # writes bench/tuneup.json

It takes as long as a cold calibration (about two minutes on 2 CPUs).
"""

from __future__ import annotations

import dataclasses
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from qutritcr import experiments  # noqa: E402


def gate_record(kind: str, args: tuple, gate) -> dict:
    (play,) = gate.schedule.plays()
    return {
        "name": gate.name,
        "kind": kind,
        "args": list(args),
        "play": {
            "channel": play.channel,
            "start": play.start,
            "carrier_freq": play.carrier_freq,
            "carrier_phase": play.carrier_phase,
            "shape": type(play.shape).__name__,
            "fields": dataclasses.asdict(play.shape),
        },
        "pre_phases": gate.pre_phases.tolist(),
        "post_phases": gate.post_phases.tolist(),
        "unitary_re": gate.unitary.real.tolist(),
        "unitary_im": gate.unitary.imag.tolist(),
        "fidelity": float(gate.fidelity),
        "leakage": float(gate.leakage),
    }


def main() -> None:
    records = []

    def recording(kind, fn):
        def call(p, *args, **kwargs):
            gate = fn(p, *args, **kwargs)
            records.append(gate_record(kind, args, gate))
            return gate

        return call

    experiments.calibrate_single_qutrit = recording("single", experiments.calibrate_single_qutrit)
    experiments.calibrate_cr_gate = recording("cr", experiments.calibrate_cr_gate)
    with tempfile.TemporaryDirectory() as tmp:
        experiments.cmd_calibrate(experiments.ExperimentConfig(), str(Path(tmp) / "cal.json"))
    (HERE / "tuneup.json").write_text(json.dumps({"gates": records}, indent=1) + "\n")


if __name__ == "__main__":
    main()
