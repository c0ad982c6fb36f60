"""One rule for every discrete argument: a transmon or channel, a control
level, a target subspace or a count is checked by ``device.discrete``.  An
int that is not a bool passes (a numpy integer too, kept as a Python int),
and so does a str where the options are strs; anything else raises
InvalidParams with one message that names the options.
"""

import json

import numpy as np
import pytest

from qutritcr import crpulse, effective
from qutritcr.calibrate import prepare_control_state, run_rabi_scan
from qutritcr.device import DeviceParams, discrete, lowering_operator, on_transmon, transition_frequencies
from qutritcr.effective import rx_subspace
from qutritcr.errors import BadDistribution, InvalidParams
from qutritcr.experiments import ExperimentConfig, cmd_bell, cmd_rabi, sample_shots
from qutritcr.propagate import evolve_state, evolve_trace, evolve_unitary
from qutritcr.pulses import Gaussian, PhaseShift, Play, Schedule, build_cr_schedule, schedule_from_dicts, schedule_to_dicts

_DEVICE = DeviceParams()
_GAUSSIAN = Gaussian(0.02, 8.0, 32.0)
_PROBS = np.full(9, 1.0 / 9.0)

# Each discrete argument, one at a time: the call made with x, a good value
# for x, and the values out of its range.
_MAKERS = {
    "of.transmon": (lambda x: transition_frequencies(_DEVICE).of(x, "12"), 2, [0, 3]),
    "of.subspace": (lambda x: transition_frequencies(_DEVICE).of(1, x), "12", ["02", "1", ""]),
    "lowering_operator": (lambda x: lowering_operator(x), 2, [0, 3]),
    "on_transmon": (lambda x: on_transmon(x, np.diag([1.0, 2.0, 3.0])), 2, [0, 3, -1]),
    "play.channel": (lambda x: Play(x, 0.0, _GAUSSIAN, 5.0), 2, [0, 3]),
    "shift.channel": (lambda x: PhaseShift(x, "01", 0.5), 2, [0, 3]),
    "shift.subspace": (lambda x: PhaseShift(1, x, 0.5), "12", ["02", "012"]),
    "cr_schedule.subspace": (lambda x: build_cr_schedule(_DEVICE, x, 0.3, 10.0), "12", ["02"]),
    "rx_subspace": (lambda x: rx_subspace(x, 1.0), "12", ["21"]),
    "cr_pulse.subspace": (lambda x: crpulse.cr_pulse(_DEVICE, x, 0.3), "12", ["02"]),
    "prepare_control_state": (lambda x: prepare_control_state(_DEVICE, x)[0], 2, [-1, 3]),
    "rabi_scan.control": (lambda x: run_rabi_scan(_DEVICE, "01", 0.3, x, [0.0, 5.0]).states, 1, [3]),
    "rabi_scan.mode": (lambda x: run_rabi_scan(_DEVICE, "01", 0.3, 0, [0.0, 5.0], mode=x).states, "plateau", ["flat"]),
    "sample_shots.seed": (lambda x: sample_shots(_PROBS, 10, x), 7, [-1]),
    "config.levels": (lambda x: DeviceParams(levels=x), 3, []),
    "config.seed": (lambda x: ExperimentConfig(seed=x), 7, [-1]),
}

# Spellings that are not the kind the argument takes: a bool, a float or a
# str where an int is wanted, an int where a str is, None, and a list.
_WRONG_KIND = {int: [True, False, 1.0, 2.0, 1.5, "1", None, [1]], str: [True, 1, 1.0, b"01", None, ["01"]]}


def _bad_values():
    for name, (_, good, out_of_range) in sorted(_MAKERS.items()):
        for bad in _WRONG_KIND[type(good)] + out_of_range:
            yield pytest.param(name, bad, id=f"{name}-{bad!r}")


@pytest.mark.parametrize("name,bad", _bad_values())
def test_a_bad_discrete_value_raises_invalid_params(name, bad):
    make, _, _ = _MAKERS[name]
    with pytest.raises(InvalidParams):
        make(bad)


@pytest.mark.parametrize("name", sorted(name for name, (_, good, _) in _MAKERS.items() if isinstance(good, int)))
def test_a_numpy_integer_builds_what_the_int_builds(name):
    make, good, _ = _MAKERS[name]
    got, want = make(np.int64(good)), make(good)
    assert np.array_equal(got, want) if isinstance(want, np.ndarray) else got == want


@pytest.mark.parametrize("name", sorted(name for name, (_, good, _) in _MAKERS.items() if isinstance(good, str)))
def test_a_numpy_str_builds_what_the_str_builds(name):
    make, good, _ = _MAKERS[name]
    got, want = make(np.str_(good)), make(good)
    assert np.array_equal(got, want) if isinstance(want, np.ndarray) else got == want


def test_one_message_names_the_options():
    with pytest.raises(InvalidParams, match=r"^channel must be 1 or 2, got True$"):
        discrete(True, "channel", (1, 2))
    with pytest.raises(InvalidParams, match=r"^control state must be 0, 1 or 2, got 1.0$"):
        discrete(1.0, "control state", (0, 1, 2))
    with pytest.raises(InvalidParams, match=r"^subspace must be '01' or '12', got 1$"):
        discrete(1, "subspace", ("01", "12"))
    with pytest.raises(InvalidParams, match=r"^points must be an integer, got '24'$"):
        discrete("24", "points")
    assert type(discrete(np.int64(24), "points")) is int
    assert type(discrete(np.str_("12"), "subspace", ("01", "12"))) is str


def test_the_embedding_is_written_once():
    op = np.diag([1.0, 2.0, 3.0])
    assert effective.on_transmon is on_transmon
    assert np.array_equal(on_transmon(1, op), np.kron(op, np.eye(3)))
    assert np.array_equal(on_transmon(2, op), np.kron(np.eye(3), op))
    a = np.diag(np.sqrt([1.0, 2.0]), k=1)
    for which in (1, 2):
        assert np.array_equal(lowering_operator(which), on_transmon(which, a))
        assert not lowering_operator(which).flags.writeable


def test_a_numpy_integer_channel_survives_json():
    # a numpy channel was kept as given, and json.dumps refused it
    s = Schedule((Play(np.int64(1), 0.0, _GAUSSIAN, 5.0), PhaseShift(np.int64(2), np.str_("12"), 0.5)))
    assert [type(i.channel) for i in s.instructions] == [int, int]
    text = json.dumps(schedule_to_dicts(s))
    assert schedule_from_dicts(json.loads(text)) == s
    assert s == Schedule((Play(1, 0.0, _GAUSSIAN, 5.0), PhaseShift(2, "12", 0.5)))


@pytest.mark.parametrize("shots", [True, 10.5, 1.0, "10", None], ids=["true", "half", "float", "str", "none"])
def test_sample_shots_takes_an_integer_count(shots):
    with pytest.raises(InvalidParams, match="shots must be an integer"):
        sample_shots(_PROBS, shots, 7)


def test_sample_shots_keeps_bad_distribution_for_counts_out_of_range():
    for shots in (0, -3, np.int64(0), 2**63):
        with pytest.raises(BadDistribution):
            sample_shots(_PROBS, shots, 7)
    assert np.array_equal(sample_shots(_PROBS, np.int64(10), np.int64(7)), sample_shots(_PROBS, 10, 7))


def test_bell_refuses_an_unknown_method_first():
    with pytest.raises(InvalidParams, match="method must be 'full', 'rwa' or 'store'"):
        cmd_bell(ExperimentConfig(), None, method="exact")


_RABI_BAD = {
    "control_float": dict(control_states=(1.0,)),
    "control_bool": dict(control_states=(True,)),
    "control_scalar_float": dict(control_states=1.5),
    "control_str": dict(control_states="1"),
    "control_mixed": dict(control_states=(0, True)),
    "points_float": dict(points=24.7),
    "points_str": dict(points="24"),
    "points_bool": dict(points=True),
    "subspace_list": dict(subspace=["01"]),
    "subspace_int": dict(subspace=1),
    "amp_array": dict(amp=np.array(0.3)),
    "amp_bool": dict(amp=True),
}


@pytest.mark.parametrize("case", sorted(_RABI_BAD))
def test_rabi_refuses_a_bad_argument_before_any_directory(tmp_path, case):
    kwargs = {"subspace": "01", "amp": 0.4, "t_max": 300.0, "points": 24} | _RABI_BAD[case]
    with pytest.raises(InvalidParams):
        cmd_rabi(ExperimentConfig(), out_dir=str(tmp_path / "out"), **kwargs)
    assert not (tmp_path / "out").exists()


def test_rabi_takes_numpy_integers_as_ints(tmp_path):
    sidecar = cmd_rabi(ExperimentConfig(), "01", (np.int64(0),), 0.4, 300.0, np.int64(24), str(tmp_path))
    assert sorted(sidecar["fits"]) == ["control_0"]
    assert len((tmp_path / "rabi_01_c0.csv").read_text().splitlines()) == 25


@pytest.mark.parametrize("order", [(1, True), (True, 1)], ids=["int_first", "bool_first"])
def test_cr_pulse_checks_before_its_cache(order):
    # the pulse of amp 1 was handed out for True when it was cached first
    crpulse.cr_pulse.cache_clear()
    for amp in order:
        if amp is True:
            with pytest.raises(InvalidParams):
                crpulse.cr_pulse(_DEVICE, "01", amp)
        else:
            assert crpulse.cr_pulse(_DEVICE, "01", amp).amp == 1.0


@pytest.mark.parametrize(
    "args",
    [(["01"], 0.3), ("01", np.array(0.3)), ("01", [0.3])],
    ids=["subspace_list", "amp_array", "amp_list"],
)
def test_cr_pulse_refuses_unhashable_settings(args):
    with pytest.raises(InvalidParams):
        crpulse.cr_pulse(_DEVICE, *args)


def test_rabi_scan_checks_the_widths_as_given():
    # np.asarray(widths, dtype=float) made [True, False] the widths [1.0, 0.0]
    with pytest.raises(InvalidParams, match="finite and >= 0"):
        run_rabi_scan(_DEVICE, "01", 0.3, 0, [True, False])
    trace = run_rabi_scan(_DEVICE, "01", 0.3, 0, [0, 5])
    assert trace.times.dtype == float
    assert np.array_equal(trace.states, run_rabi_scan(_DEVICE, "01", 0.3, 0, [0.0, 5.0]).states)


def _still(t):
    return np.zeros((9, 9))


@pytest.mark.parametrize(
    "call",
    [
        lambda: evolve_unitary(_still, 1.0, 0.0),
        lambda: evolve_unitary(_still, 0.0, float("inf")),
        lambda: evolve_unitary(_still, float("nan"), 1.0),
        lambda: evolve_state(_still, np.eye(9)[0], 2.0, 1.0),
        lambda: evolve_trace(_still, np.eye(9)[0], [0.0, 2.0, 1.0]),
        lambda: evolve_trace(_still, np.eye(9)[0], [0.0, 1.0, 1.0]),
        lambda: evolve_trace(_still, np.eye(9)[0], [0.0, 5.0, 0.0]),
        lambda: evolve_trace(_still, np.eye(9)[0], []),
    ],
    ids=["unitary_backwards", "unitary_inf", "unitary_nan", "state_backwards", "trace_unsorted", "trace_repeat",
         "trace_returns", "trace_empty"],
)
def test_the_oracles_refuse_a_bad_time_span(call):
    with pytest.raises(InvalidParams):
        call()


def test_the_oracles_take_an_empty_span():
    psi = np.eye(9)[4]
    assert np.array_equal(evolve_state(_still, psi, 3.0, 3.0), psi)
    assert np.array_equal(evolve_unitary(_still, 3.0, 3.0), np.eye(9))
    assert np.array_equal(evolve_trace(_still, psi, [3.0]), psi[None, :])
