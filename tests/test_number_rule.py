"""One number rule for the Python API: every constructor that takes a scalar
number checks it with ``device.finite_float``, as the config and store
readers do, so a bad number raises InvalidParams where the object is built,
and a good one builds the same object whatever its numeric type.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qutritcr.calibrate import CalibratedGate
from qutritcr.crpulse import FlatTopCRPulse
from qutritcr.device import DeviceParams, FrameSpec
from qutritcr.effective import cr_coefficients
from qutritcr.errors import InvalidParams
from qutritcr.experiments import ExperimentConfig, cmd_rabi
from qutritcr.propagate import EvolveOptions
from qutritcr.pulses import (
    DragGaussian,
    Gaussian,
    GaussianSquare,
    PhaseShift,
    Play,
    Schedule,
    build_cr_schedule,
    schedule_from_dicts,
    schedule_to_dicts,
)

_DEVICE = DeviceParams()
_PULSE = FlatTopCRPulse(_DEVICE, "01", 0.3)
_GAUSSIAN = Gaussian(0.02, 8.0, 32.0)

# Each constructor's scalar numbers, one at a time: the object built from x,
# and a good value for x that is a whole number, so that an int can spell it.
_MAKERS = {
    "gaussian.amp": (lambda x: Gaussian(x, 8.0, 32.0), 1.0),
    "gaussian.sigma": (lambda x: Gaussian(0.02, x, 32.0), 8.0),
    "gaussian.duration": (lambda x: Gaussian(0.02, 8.0, x), 32.0),
    "square.amp": (lambda x: GaussianSquare(x, 10.0, 20.0, 60.0), -1.0),
    "square.sigma": (lambda x: GaussianSquare(0.3, x, 20.0, 60.0), 10.0),
    "square.risefall": (lambda x: GaussianSquare(0.3, 10.0, x, 60.0), 20.0),
    "square.width": (lambda x: GaussianSquare(0.3, 10.0, 20.0, x), 0.0),
    "drag.amp": (lambda x: DragGaussian(x, 8.0, 32.0, 0.5), 1.0),
    "drag.sigma": (lambda x: DragGaussian(0.06, x, 32.0, 0.5), 8.0),
    "drag.duration": (lambda x: DragGaussian(0.06, 8.0, x, 0.5), 32.0),
    "drag.beta": (lambda x: DragGaussian(0.06, 8.0, 32.0, x), -2.0),
    "play.start": (lambda x: Play(1, x, _GAUSSIAN, 5.0), 3.0),
    "play.carrier_freq": (lambda x: Play(1, 0.0, _GAUSSIAN, x), 5.0),
    "play.carrier_phase": (lambda x: Play(1, 0.0, _GAUSSIAN, 5.0, x), -3.0),
    "shift.angle": (lambda x: PhaseShift(1, "01", x), 2.0),
    "shift.start": (lambda x: PhaseShift(1, "01", 0.5, x), 7.0),
    "frame.frame1": (lambda x: FrameSpec(x, 1.0), 5.0),
    "frame.frame2": (lambda x: FrameSpec(1.0, x), 0.0),
    "evolve.rel_tol": (lambda x: EvolveOptions(rel_tol=x), 1.0),
    "evolve.abs_tol": (lambda x: EvolveOptions(abs_tol=x), 1.0),
    "evolve.max_step": (lambda x: EvolveOptions(max_step=x), 2.0),
    "cr_coefficients.drive": (lambda x: cr_coefficients(_DEVICE, x), 5.0),
    "cr_schedule.amp": (lambda x: build_cr_schedule(_DEVICE, "01", x, 10.0), 1.0),
    "cr_schedule.width": (lambda x: build_cr_schedule(_DEVICE, "01", 0.3, x), 10.0),
    "cr_schedule.risefall": (lambda x: build_cr_schedule(_DEVICE, "01", 0.3, 10.0, x), 20.0),
    "cr_schedule.phase": (lambda x: build_cr_schedule(_DEVICE, "01", 0.3, 10.0, 20.0, x), 1.0),
    "cr_pulse.width": (lambda x: _PULSE.unitary(x), 10.0),
}

_BAD = [float("nan"), float("inf"), -float("inf"), 10**400, -(10**400), True, "1.0", None]


@pytest.mark.parametrize("bad", _BAD, ids=["nan", "inf", "-inf", "huge", "-huge", "true", "str", "none"])
@pytest.mark.parametrize("name", sorted(_MAKERS))
def test_a_bad_number_raises_invalid_params(name, bad):
    make, _ = _MAKERS[name]
    with pytest.raises(InvalidParams):
        make(bad)


@pytest.mark.parametrize("spell", [int, np.float64, np.int64], ids=["int", "np_float64", "np_int64"])
@pytest.mark.parametrize("name", sorted(_MAKERS))
def test_a_good_number_of_any_type_builds_the_float_object(name, spell):
    make, good = _MAKERS[name]
    got, want = make(spell(good)), make(good)
    assert np.array_equal(got, want) if isinstance(want, np.ndarray) else got == want


# Inputs that were accepted, or raised OverflowError, TypeError or numpy's
# UFuncTypeError, before every constructor checked its numbers this way.
_CASES = {
    "play_start_huge": lambda: Play(1, 10**400, Gaussian(0.02, 8.0, 32.0), 5.0),
    "gaussian_duration_huge": lambda: Gaussian(0.02, 8.0, 10**400),
    "gaussian_amp_true": lambda: Gaussian(True, 8.0, 32.0),
    "play_phase_huge": lambda: Play(1, 0.0, Gaussian(0.02, 8.0, 32.0), 5.0, carrier_phase=10**400),
    "square_width_huge": lambda: GaussianSquare(0.1, 10.0, 20.0, 10**400),
    "drag_beta_huge": lambda: DragGaussian(0.05, 8.0, 32.0, 10**400),
    "shift_angle_huge": lambda: PhaseShift(1, "01", 10**400),
    "cr_coefficients_huge": lambda: cr_coefficients(_DEVICE, 10**400),
    "cr_schedule_risefall_huge": lambda: build_cr_schedule(_DEVICE, "01", 0.3, 10.0, 10**400),
    "frame_huge": lambda: FrameSpec(10**400, 1.0),
    "evolve_nan_tol": lambda: EvolveOptions(rel_tol=float("nan")),
    "cr_width_huge": lambda: FlatTopCRPulse(_DEVICE, "01", 0.3).unitary(10**400),
    "cr_width_true": lambda: FlatTopCRPulse(_DEVICE, "01", 0.3).unitary(True),
    "cr_width_str": lambda: FlatTopCRPulse(_DEVICE, "01", 0.3).unitary("5"),
}


@pytest.mark.parametrize("case", sorted(_CASES))
def test_each_formerly_accepted_or_crashing_input_raises_invalid_params(case):
    with pytest.raises(InvalidParams):
        _CASES[case]()


@pytest.mark.parametrize("widths", [[1.0, 10**400], [True, False], ["5"], [1 + 2j]], ids=["huge", "bools", "str", "complex"])
def test_a_width_array_that_holds_no_real_numbers_is_refused(widths):
    with pytest.raises(InvalidParams, match="finite and >= 0"):
        _PULSE.states_after(np.eye(9)[0], widths)


def test_rabi_on_a_device_whose_flat_top_is_not_constant_writes_nothing(tmp_path):
    # omega1 + c = 1.8 GHz is under the RWA cutoff: the tone is refused
    # before the output directory is made
    config = ExperimentConfig(device=DeviceParams(omega1=0.6, omega2=1.2))
    with pytest.raises(InvalidParams, match="not constant"):
        cmd_rabi(config, "01", out_dir=str(tmp_path / "out"))
    assert not (tmp_path / "out").exists()


# Numbers as a JSON store holds them: Python ints and floats.
def _number(lo, hi):
    return st.one_of(st.integers(int(np.ceil(lo)), int(np.floor(hi))), st.floats(lo, hi))


_SHAPE = st.one_of(
    st.builds(Gaussian, _number(-1, 1), _number(0.5, 20), _number(1, 80)),
    st.builds(GaussianSquare, _number(-1, 1), _number(0.5, 20), _number(1, 40), _number(0, 200)),
    st.builds(DragGaussian, _number(-1, 1), _number(0.5, 20), _number(1, 80), _number(-2, 2)),
)


@st.composite
def _schedules(draw):
    """1-3 plays of any shape on either channel, back to back per channel
    after a drawn gap, with phase shifts between them."""
    ends, out = {1: 0, 2: 0}, []
    for _ in range(draw(st.integers(1, 3))):
        channel = draw(st.sampled_from([1, 2]))
        if draw(st.booleans()):
            out.append(PhaseShift(channel, draw(st.sampled_from(["01", "12"])), draw(_number(-7, 7)), ends[channel]))
        start = ends[channel] + draw(_number(0, 50))
        play = Play(channel, start, draw(_SHAPE), draw(_number(0, 10)), draw(_number(-7, 7)))
        ends[channel] = play.end
        out.append(play)
    return Schedule(tuple(out))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(_schedules(), st.lists(_number(-4, 4), min_size=18, max_size=18), st.one_of(st.none(), _number(0, 1)))
def test_a_drawn_schedule_and_its_gate_survive_json(schedule, phases, leakage):
    # the store reader checks no number itself: the constructors do
    text = json.dumps(schedule_to_dicts(schedule))
    back = schedule_from_dicts(json.loads(text))
    assert back == schedule
    assert json.dumps(schedule_to_dicts(back)) == text
    gate = CalibratedGate("g", schedule, np.array(phases[:9]), np.array(phases[9:]), np.eye(9, dtype=complex), 0.5, leakage)
    stored = json.loads(json.dumps(gate.to_dict()))
    assert CalibratedGate.from_dict(stored).to_dict() == stored
