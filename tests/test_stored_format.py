"""The stored formats, pinned key by key.

Stores and config fingerprints are built from these dicts, so renaming a key
or changing a value's type orphans every existing store.
"""

from qutritcr.device import DeviceParams
from qutritcr.experiments import ExperimentConfig
from qutritcr.pulses import (
    DragGaussian,
    Gaussian,
    GaussianSquare,
    PhaseShift,
    Play,
    Schedule,
    schedule_from_dicts,
    schedule_to_dicts,
)

# Every field takes a value of its own, so swapping two keys shows.
SCHEDULE = Schedule((
    Play(channel=1, start=1.5, shape=Gaussian(amp=0.05, sigma=4.0, duration=16.0), carrier_freq=4.9, carrier_phase=0.25),
    Play(channel=2, start=2.5, shape=GaussianSquare(amp=0.3, sigma=10.0, risefall=20.0, width=100.0),
         carrier_freq=5.5, carrier_phase=-0.5),
    Play(channel=1, start=18.0, shape=DragGaussian(amp=0.06, sigma=8.0, duration=32.0, beta=0.7),
         carrier_freq=4.5, carrier_phase=0.125),
    PhaseShift(channel=2, subspace="12", angle=0.75, start=140.0),
))

SCHEDULE_DICTS = [
    {
        "channel": 1,
        "start_ns": 1.5,
        "shape": {"kind": "gaussian", "amp_ghz": 0.05, "sigma_ns": 4.0, "duration_ns": 16.0},
        "carrier_ghz": 4.9,
        "phase_rad": 0.25,
    },
    {
        "channel": 2,
        "start_ns": 2.5,
        "shape": {"kind": "gaussian_square", "amp_ghz": 0.3, "sigma_ns": 10.0, "risefall_ns": 20.0, "width_ns": 100.0},
        "carrier_ghz": 5.5,
        "phase_rad": -0.5,
    },
    {
        "channel": 1,
        "start_ns": 18.0,
        "shape": {"kind": "drag_gaussian", "amp_ghz": 0.06, "sigma_ns": 8.0, "duration_ns": 32.0, "beta_ns": 0.7},
        "carrier_ghz": 4.5,
        "phase_rad": 0.125,
    },
    {"kind": "phase_shift", "channel": 2, "subspace": "12", "angle_rad": 0.75, "start_ns": 140.0},
]


def test_schedule_dicts_are_pinned():
    assert schedule_to_dicts(SCHEDULE) == SCHEDULE_DICTS
    assert schedule_from_dicts(SCHEDULE_DICTS) == SCHEDULE


def test_device_dict_is_pinned():
    assert DeviceParams().to_dict() == {
        "omega1_ghz": 4.9,
        "omega2_ghz": 5.5,
        "delta1_ghz": -0.4,
        "delta2_ghz": -0.3,
        "j_ghz": 0.0027,
        "levels": 3,
    }


def test_calibration_defaults_are_pinned():
    assert ExperimentConfig().calibration_defaults() == {
        "cr01_amp_ghz": 0.35,
        "cr12_amp_ghz": 0.11,
        "risefall_ns": 20.0,
        "sq_duration_ns": 32.0,
        "sq_sigma_ns": 8.0,
    }
