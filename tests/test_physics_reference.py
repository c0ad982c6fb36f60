"""The calibrated gates and the Bell preparation against the committed
reference, ``tests/data/physics_reference.json``.

The file is rewritten only by ``tests/make_physics_reference.py``, when a
change moves the physics on purpose; a change that moves it by roundoff
shows here as one reviewed diff.  Pulse parameters agree to the spread
between numerically equivalent builds, not to roundoff: the tune-ups end
wherever roundoff steers their last search.
"""

import json
from dataclasses import fields
from pathlib import Path

import pytest

from qutritcr.experiments import BELL_METHODS, GATE_SET, cmd_bell

REFERENCE = json.loads((Path(__file__).resolve().parent / "data" / "physics_reference.json").read_text())

# Fidelities, leakages and Bell figures.
FIGURE_TOL = 1e-8
# h3_1's full-model fidelity is not stationary in its parts' DRAG beta (tuned
# under the RWA, each part alone), so beta's spread (below) moves it at first
# order: beta moves of 9.5e-6 and 4.5e-6 moved it by 1.5e-8.
FIDELITY_TOL = {"h3_1": 5e-8}
# Cross-build spread of the tune-ups' last searches.  DRAG beta is fixed to
# ~1e-5 (a bounded search with xatol 1e-5 on a flat fidelity; moves of up to
# 1.75e-5 seen) and DRAG amp to its search's xatol, 1e-7.  The CR Nelder-Mead
# moved csx12's amp by 1.5e-8 GHz and its width by 5.9e-6 ns.
FIELD_TOL = {
    ("DragGaussian", "beta"): 3e-5,
    ("DragGaussian", "amp"): 1e-7,
    ("GaussianSquare", "amp"): 5e-8,
    ("GaussianSquare", "width"): 2e-5,
}
# Anything else about a play is set by the configuration, not searched.
EXACT_TOL = 1e-12
# The Bell schedule holds both CR gates' widths.
DURATION_TOL = 2 * FIELD_TOL[("GaussianSquare", "width")]


def test_the_reference_covers_the_gate_set_and_bell_methods():
    assert sorted(REFERENCE["gates"]) == sorted(GATE_SET)
    assert sorted(REFERENCE["bell"]) == sorted(BELL_METHODS)


@pytest.mark.parametrize("name", GATE_SET)
def test_stored_gate_matches_the_reference(cal_store, name):
    want, gate = REFERENCE["gates"][name], cal_store.get(name)
    assert abs(gate.fidelity - want["fidelity"]) <= FIDELITY_TOL.get(name, FIGURE_TOL)
    assert (gate.leakage is None) == (want["leakage"] is None)
    if gate.leakage is not None:
        assert abs(gate.leakage - want["leakage"]) <= FIGURE_TOL
    plays = gate.schedule.plays()
    assert len(plays) == len(want["plays"])
    for play, ref in zip(plays, want["plays"]):
        kind = type(play.shape).__name__
        assert (play.channel, kind) == (ref["channel"], ref["shape"])
        for key in ("start", "carrier_freq", "carrier_phase"):
            assert abs(getattr(play, key) - ref[key]) <= EXACT_TOL, key
        assert sorted(f.name for f in fields(play.shape)) == sorted(ref["fields"])
        for key, value in ref["fields"].items():
            assert abs(getattr(play.shape, key) - value) <= FIELD_TOL.get((kind, key), EXACT_TOL), key


@pytest.mark.parametrize("method", BELL_METHODS)
def test_bell_matches_the_reference(config, cal_store, method):
    want, res = REFERENCE["bell"][method], cmd_bell(config, cal_store, method=method)
    assert abs(res.metrics[0].value - want["fidelity"]) <= FIGURE_TOL
    assert abs(res.metrics[2].value - want["concurrence"]) <= FIGURE_TOL
    assert abs(res.duration_ns - want["duration_ns"]) <= DURATION_TOL
