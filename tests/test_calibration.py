"""Calibration routines against full-model propagation oracles.

The expensive CR calibrations come from the session-scoped store fixture;
only cheap or targeted calibrations run fresh here.
"""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import unitary_group

from qutritcr.calibrate import (
    CalibratedGate,
    CalibrationStore,
    _apply_phases,
    _correction_phases,
    _drag_schedule,
    _fidelity_derivatives,
    _subspace_leakage,
    calibrate_single_qutrit,
    calibrate_virtual_phases,
    config_fingerprint,
    optimize_phase_correction,
    phase_corrected_fidelity,
    prepare_control_state,
    run_rabi_scan,
)
from qutritcr.crpulse import cr_pulse
from qutritcr.device import FrameSpec, transition_frequencies
from qutritcr.effective import ideal_ucr, rx_subspace, zdiag
from qutritcr.errors import CalibrationFailed, InvalidParams
from qutritcr.experiments import GATE_SET
from qutritcr.linalg import ket2, kron, unitary_defect
from qutritcr.metrics import average_gate_fidelity
from qutritcr.propagate import full_model_unitary, rwa_unitary
from qutritcr.pulses import Schedule


def _empty_gate(name):
    return CalibratedGate(name, Schedule(()), np.zeros(9), np.zeros(9), np.eye(9, dtype=complex), 1.0)


class TestSingleQutrit:
    def test_x01_pi_population_transfer(self, cal_store):
        # [DERIVED] full-model propagation: P(|10>) >= 0.999 from |00>
        g = cal_store.get("x01_pi_1")
        psi = g.unitary @ ket2(0, 0)
        assert abs(psi[3]) ** 2 >= 0.999

    def test_leakage_bound(self, cal_store):
        # [DERIVED] |2> population on the driven transmon <= 1e-3
        for name in ("x01_pi_1", "x01_pi_2", "x12_pi_1", "x12_pi_2", "v_2"):
            assert cal_store.get(name).leakage <= 1e-3

    def test_fidelities(self, cal_store):
        for name in ("x01_pi_1", "x01_pi_2", "x12_pi_1", "x12_pi_2", "v_2", "h3_1"):
            g = cal_store.get(name)
            assert g.fidelity >= 0.999
            assert unitary_defect(g.unitary) < 1e-7

    @pytest.mark.parametrize("channel,subspace", [(1, "02"), (3, "01"), (0, "12")])
    def test_invalid_channel_or_subspace(self, device, channel, subspace):
        with pytest.raises(InvalidParams):
            calibrate_single_qutrit(device, channel, subspace, 1.0)

    def test_theta_zero_is_empty(self, device):
        # [TRIVIAL]
        g = calibrate_single_qutrit(device, 1, "01", 0.0)
        assert g.schedule.duration == 0.0
        assert g.fidelity == 1.0
        assert np.array_equal(g.unitary, np.eye(9))


class TestLeakage:
    # (channel, subspace) of each DRAG gate in the store
    DRAG = {"x01_pi_1": (1, "01"), "x01_pi_2": (2, "01"), "x12_pi_1": (1, "12"), "x12_pi_2": (2, "12"), "v_2": (2, "12")}

    def test_drag_leakage_is_measured_from_the_stored_unitary(self, cal_store):
        for name, (channel, subspace) in self.DRAG.items():
            g = cal_store.get(name)
            assert g.leakage == _subspace_leakage(g.unitary, channel, subspace), name
            assert g.leakage > 0.0, name

    def test_gates_without_a_leakage_figure_store_none(self, cal_store):
        assert set(GATE_SET) == set(self.DRAG) | {"h3_1", "cr01_pi", "csx12"}
        for name in ("h3_1", "cr01_pi", "csx12"):
            assert cal_store.get(name).leakage is None, name


class TestPrepareControlState:
    def test_c0_trivial(self, device, cal_store):
        psi, dur = prepare_control_state(device, 0, cal_store)
        assert dur == 0.0
        assert np.array_equal(psi, ket2(0, 0))

    def test_c1_population(self, device, cal_store):
        # [DERIVED] propagation oracle: P(control=1) >= 0.999
        psi, dur = prepare_control_state(device, 1, cal_store)
        assert (np.abs(psi[3:6]) ** 2).sum() >= 0.999
        assert dur == cal_store.get("x01_pi_1").duration

    def test_c2_population(self, device, cal_store):
        # [DERIVED] propagation oracle: P(control=2) >= 0.998 after two pulses
        psi, _ = prepare_control_state(device, 2, cal_store)
        assert (np.abs(psi[6:9]) ** 2).sum() >= 0.998

    def test_invalid_control(self, device):
        with pytest.raises(InvalidParams):
            prepare_control_state(device, 3)


class TestVirtualPhases:
    def test_identity_case(self):
        # [TRIVIAL] target = achieved -> angles 0
        t = ideal_ucr("01", np.pi)
        a, b = calibrate_virtual_phases(t, t)
        assert (a, b) == pytest.approx((0.0, 0.0), abs=1e-9)

    def test_constructed_recovery(self):
        # [DERIVED] achieved = target (Zdiag(0.3,-0.2) (x) I) -> (-0.3, 0.2)
        t = ideal_ucr("01", np.pi)
        achieved = t @ kron(zdiag(0.3, -0.2), np.eye(3))
        a, b = calibrate_virtual_phases(achieved, t)
        assert (a, b) == pytest.approx((-0.3, 0.2), abs=1e-4)
        corrected = achieved @ kron(zdiag(a, b), np.eye(3))
        assert average_gate_fidelity(corrected, t) > 1.0 - 1e-9

    def test_nondiagonal_error_not_correctable(self):
        # [DERIVED] a non-diagonal error keeps fidelity strictly below 1
        t = ideal_ucr("01", np.pi)
        err = kron(np.eye(3), rx_subspace("01", 0.2))
        f0 = average_gate_fidelity(t @ err, t)
        f, _, _ = optimize_phase_correction(t @ err, t)
        assert f < 1.0 - 1e-4
        assert f >= f0 - 1e-9  # correction never hurts

    def test_phase_corrected_fidelity_consistent(self):
        t = ideal_ucr("12", np.pi / 2.0)
        u = t @ kron(zdiag(0.1, -0.3), zdiag(0.2, 0.05))
        f, pre, post = optimize_phase_correction(u, t)
        corrected = np.exp(1j * post)[:, None] * u * np.exp(1j * pre)[None, :]
        assert average_gate_fidelity(corrected, t) == pytest.approx(f, abs=1e-7)
        assert f > 1.0 - 1e-6


_PHASES = st.lists(st.floats(min_value=-np.pi, max_value=np.pi), min_size=5, max_size=5).map(np.array)
_SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


_KINDS = st.sampled_from(["ucr01", "ucr12", "rx01_1", "rx12_1", "rx01_2", "rx12_2"])
# a correction of up to 1.5 rad per phase, carrier phase included
_SPOILS = st.lists(st.floats(min_value=-1.5, max_value=1.5), min_size=5, max_size=5).map(np.array)


def _random_unitary(seed):
    return unitary_group.rvs(9, random_state=np.random.default_rng(seed))


def _target(kind, theta):
    """ideal_ucr ("ucr01", "ucr12") or a one-transmon rx_subspace
    ("rx<subspace>_<channel>")."""
    if kind.startswith("ucr"):
        return ideal_ucr(kind[3:], theta)
    rot = rx_subspace(kind[2:4], theta)
    return kron(rot, np.eye(3)) if kind.endswith("1") else kron(np.eye(3), rot)


class TestPhaseSolver:
    @settings(max_examples=40, deadline=None)
    @given(_SEEDS, _PHASES)
    def test_gradient_matches_finite_differences(self, seed, x):
        u, t = _random_unitary(seed), _random_unitary(seed + 1)
        _, grad, _ = _fidelity_derivatives(u * t.conj(), x)
        h = 1e-6
        fd = [
            (phase_corrected_fidelity(u, t, x + h * e) - phase_corrected_fidelity(u, t, x - h * e)) / (2 * h)
            for e in np.eye(5)
        ]
        assert np.max(np.abs(grad - fd)) <= 1e-7

    @settings(max_examples=150, deadline=None)
    @given(_KINDS, st.floats(min_value=-np.pi, max_value=np.pi), _SPOILS)
    # near-identity targets: F depends on the carrier phase only at O(theta^2)
    @example("ucr01", 1e-05, np.array([0.0, 0.0, 0.0, 0.0, 1.0]))
    @example("ucr01", 1e-04, np.array([0.0, 0.0, 0.0, 0.0, 1.0]))
    @example("rx12_2", -1e-05, np.array([0.3, -0.2, 0.0, 0.0, -1.0]))
    def test_recovers_spoiled_target(self, kind, theta, x):
        t = _target(kind, theta)
        pre, post = _correction_phases(x)
        u = _apply_phases(t, -pre, -post)
        f, pre_fit, post_fit = optimize_phase_correction(u, t)
        assert f >= 1.0 - 1e-12
        assert average_gate_fidelity(_apply_phases(u, pre_fit, post_fit), t) >= 1.0 - 1e-12

    # Within ~0.04 rad of pi, a one-transmon rotation's carrier phase is
    # nearly flat (curvature ~ (pi - theta)^2), so the optimum itself moves
    # by up to ~eps / (pi - theta)^2: 8e-9 at 1e-3 rad from pi.  Pi itself
    # is flat, and the pinned carrier phase fixes the gauge there.
    @settings(max_examples=60, deadline=None)
    @given(
        _KINDS,
        st.one_of(st.floats(min_value=0.1, max_value=3.1), st.just(np.pi)),
        st.sampled_from([1.0, -1.0]),
        _SPOILS,
        _SEEDS,
    )
    def test_phases_are_a_function_of_the_gate(self, kind, theta, sign, x, seed):
        # a 1e-12 perturbation exp(i eps G) of the gate, G random Hermitian,
        # moves the returned phases by O(eps), never along a flat direction
        t = _target(kind, sign * theta)
        pre, post = _correction_phases(x)
        u = _apply_phases(t, -pre, -post)
        a = np.random.default_rng(seed).normal(size=(2, 9, 9))
        g = (a[0] + 1j * a[1]) + (a[0] + 1j * a[1]).conj().T
        _, pre1, post1 = optimize_phase_correction(u, t)
        _, pre2, post2 = optimize_phase_correction(u @ scipy.linalg.expm(1e-12j * g), t)
        for p1, p2 in ((pre1, pre2), (post1, post2)):
            assert np.max(np.abs(np.angle(np.exp(1j * (p1 - p2))))) <= 1e-9

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(["rx01_1", "rx12_1", "rx01_2", "rx12_2"]), st.sampled_from([np.pi, -np.pi]), _SPOILS)
    def test_pi_rotations_need_no_pre_phases(self, kind, theta, x):
        # a one-transmon pi rotation maps any diagonal to a diagonal, so the
        # post phases alone absorb a carrier phase: the pinned gauge keeps it 0
        t = _target(kind, theta)
        pre, post = _correction_phases(x)
        f, pre_fit, _ = optimize_phase_correction(_apply_phases(t, -pre, -post), t)
        assert f >= 1.0 - 1e-12
        assert np.array_equal(pre_fit, np.zeros(9))

    @settings(max_examples=20, deadline=None)
    @given(_SEEDS, _PHASES)
    def test_hessian_matches_finite_differences(self, seed, x):
        m = _random_unitary(seed) * _random_unitary(seed + 1).conj()
        h = 1e-6
        fd = [(_fidelity_derivatives(m, x + h * e)[1] - _fidelity_derivatives(m, x - h * e)[1]) / (2 * h) for e in np.eye(5)]
        assert np.max(np.abs(_fidelity_derivatives(m, x)[2] - np.array(fd))) <= 1e-7

    @settings(max_examples=30, deadline=None)
    @given(_SEEDS)
    def test_never_below_uncorrected(self, seed):
        u, t = _random_unitary(seed), _random_unitary(seed + 1)
        f, _, _ = optimize_phase_correction(u, t)
        assert f >= phase_corrected_fidelity(u, t, np.zeros(5))

    def test_repeat_calls_bit_identical(self):
        u, t = _random_unitary(5), ideal_ucr("01", np.pi)
        f, pre, post = optimize_phase_correction(u, t)
        f2, pre2, post2 = optimize_phase_correction(u, t)
        assert f == f2
        assert np.array_equal(pre, pre2) and np.array_equal(post, post2)

    @pytest.mark.parametrize(
        "case,optimum",
        [
            # Nelder-Mead optima of the previous solver on the same unitaries;
            # cr01 and cr12 re-recorded for the sixth-order Magnus edges (the
            # best of 64 random-start BFGS runs), which moved them by -3.2e-12
            # and -5.1e-12 toward a rel-1e-12 DOP853 edge's optimum
            ("cr01", 0.9856214391513036),
            ("cr01_detuned", 0.6531321646068092),
            ("cr12", 0.7836082873520842),
            ("drag_x01_2", 0.9998479577518115),
        ],
    )
    def test_real_pulses_reach_previous_optimum(self, device, case, optimum):
        if case.startswith("cr"):
            sub, theta, amp, width = {
                "cr01": ("01", np.pi, 0.4025, 248.5),
                "cr01_detuned": ("01", np.pi, 0.3, 100.0),
                "cr12": ("12", np.pi / 2.0, 0.35, 120.0),
            }[case]
            u = cr_pulse(device, sub, amp, 20.0).unitary(width, frame=FrameSpec.bare(device))
            t = ideal_ucr(sub, theta)
        else:
            carrier = transition_frequencies(device, dressed=True).of(2, "01")
            u = rwa_unitary(device, _drag_schedule(2, carrier, 0.0146, 0.77, 32.0, 8.0))
            t = kron(np.eye(3), rx_subspace("01", np.pi / 2.0))
        f, _, _ = optimize_phase_correction(u, t)
        assert f >= optimum - 1e-12


def test_stored_phases_and_schedule_reproduce_the_stored_unitary(device, cal_store):
    # one path from pulse to stored gate: a composite too is its schedule's
    # full-model propagator between its pre and post phases
    for name in GATE_SET:
        g = cal_store.get(name)
        u = _apply_phases(full_model_unitary(device, g.schedule), g.pre_phases, g.post_phases)
        assert np.max(np.abs(u - g.unitary)) <= 1e-9, name


class TestCRGates:
    def test_cr01_fidelity(self, cal_store):
        # [DERIVED] full-model oracle; >= 0.96 per the source-material scale
        assert cal_store.get("cr01_pi").fidelity >= 0.96

    def test_csx12_control1_near_identity(self, cal_store):
        # [DERIVED] control-1 block acts nearly as identity: its conditional
        # rate is only ~0.2x the control-0 rate, so a pi/2 control-2 rotation
        # leaves a residual control-1 rotation of ~0.2 * pi/2 ~ 0.3 rad
        u = cal_store.get("csx12").unitary
        block = u[3:6, 3:6]
        phase = np.exp(1j * np.angle(np.trace(block)))
        assert np.linalg.norm(block - phase * np.eye(3)) <= 0.25

    def test_stored_gate_round_trip(self, cal_store):
        g = cal_store.get("cr01_pi")
        g2 = CalibratedGate.from_dict(g.to_dict())
        assert g2.schedule == g.schedule
        assert np.allclose(g2.unitary, g.unitary, atol=1e-12)
        assert g2.fidelity == g.fidelity


class TestRabiScan:
    def test_trace_shape_and_normalization(self, device):
        widths = np.linspace(0.0, 400.0, 24)
        trace = run_rabi_scan(device, "01", 0.4, 0, widths)
        assert trace.populations.shape == (24, 9)
        assert np.max(np.abs(trace.populations.sum(axis=1) - 1.0)) < 1e-6

    def test_invalid_subspace(self, device):
        with pytest.raises(InvalidParams):
            run_rabi_scan(device, "02", 0.5, 0, np.linspace(0.0, 100.0, 16))

    def test_12_scan_starts_in_minus(self, device):
        # width-0 plateau state = prepared state after the rise edge; at tiny
        # amplitude the edge only adds frame phases, so the target populations
        # and 0-1 coherence magnitude of |-> = (|0> - |1>)/sqrt(2) survive
        widths = np.array([0.0])
        trace = run_rabi_scan(device, "12", 1e-4, 0, widths, mode="plateau")
        psi = trace.states[0]
        assert abs(abs(psi[0]) ** 2 - 0.5) < 1e-3
        assert abs(abs(psi[1]) ** 2 - 0.5) < 1e-3
        assert abs(abs(psi[0] * np.conj(psi[1])) - 0.5) < 1e-3


class TestStore:
    def test_fingerprint_mismatch_discards(self, tmp_path, device):
        path = str(tmp_path / "cal.json")
        store = CalibrationStore(path=path, fingerprint="aaa")
        from qutritcr.pulses import Schedule

        store.put(CalibratedGate("x", Schedule(()), np.zeros(9), np.zeros(9), np.eye(9, dtype=complex), 1.0))
        store.save()
        assert CalibrationStore.load(path, "aaa") is not None
        assert CalibrationStore.load(path, "bbb") is None

    def test_save_is_deterministic(self, tmp_path):
        path = tmp_path / "cal.json"
        store = CalibrationStore(path=str(path), fingerprint="aaa")
        store.put(_empty_gate("x"))
        store.save()
        first = path.read_bytes()
        store.save()
        assert path.read_bytes() == first

    def test_failed_save_keeps_previous_file(self, tmp_path, monkeypatch):
        import qutritcr.calibrate as calibrate

        path = tmp_path / "cal.json"
        store = CalibrationStore(path=str(path), fingerprint="aaa")
        store.put(_empty_gate("x"))
        store.save()
        before = path.read_bytes()

        def broken_dump(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(calibrate.json, "dump", broken_dump)
        store.put(_empty_gate("y"))
        with pytest.raises(OSError):
            store.save()
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["cal.json"]

    def test_corrupted_store_discarded(self, tmp_path):
        path = tmp_path / "cal.json"
        path.write_text("{not json")
        assert CalibrationStore.load(str(path), "aaa") is None

    @pytest.mark.parametrize("payload", [[], {"fingerprint": "aaa", "gates": []}], ids=["list", "gates_list"])
    def test_store_of_wrong_json_shape_discarded(self, tmp_path, payload):
        import json

        path = tmp_path / "cal.json"
        path.write_text(json.dumps(payload))
        assert CalibrationStore.load(str(path), "aaa") is None

    @pytest.mark.parametrize(
        "field,value",
        [
            ("unitary_re", np.eye(3).tolist()),  # wrong shape
            ("unitary_im", np.full((9, 9), 0.1).tolist()),  # not unitary
            ("unitary_re", [[float("nan")] * 9] * 9),
            ("pre_phases", [0.0] * 8),
            ("post_phases", [float("inf")] + [0.0] * 8),
            ("fidelity", float("nan")),
            ("schedule", {"channel": 1}),  # an object, not a list of records
        ],
    )
    def test_malformed_gate_discards_store(self, tmp_path, field, value):
        import json

        path = tmp_path / "cal.json"
        store = CalibrationStore(path=str(path), fingerprint="aaa")
        store.put(_empty_gate("x01_pi_2"))
        store.put(_empty_gate("ok"))
        store.save()
        payload = json.loads(path.read_text())
        payload["gates"]["x01_pi_2"][field] = value
        path.write_text(json.dumps(payload))
        assert CalibrationStore.load(str(path), "aaa") is None

    def test_calibrated_store_round_trips(self, cal_store, tmp_path):
        path = str(tmp_path / "cal.json")
        CalibrationStore(path=path, fingerprint="aaa", gates=dict(cal_store.gates)).save()
        loaded = CalibrationStore.load(path, "aaa")
        assert loaded is not None
        assert sorted(loaded.gates) == sorted(cal_store.gates)
        for name, g in cal_store.gates.items():
            assert np.max(np.abs(loaded.get(name).unitary - g.unitary)) <= 1e-14

    def test_store_written_by_calibrate_reloads_with_unmeasured_leakage(self, cal_store, config):
        loaded = CalibrationStore.load(cal_store.path, config.fingerprint())
        assert loaded is not None
        for name, g in cal_store.gates.items():
            assert loaded.get(name).leakage == g.leakage, name
        assert loaded.get("cr01_pi").leakage is None

    @pytest.mark.parametrize("value", [None, 0.0, 2.5e-4])
    def test_leakage_round_trips(self, tmp_path, value):
        path = str(tmp_path / "cal.json")
        store = CalibrationStore(path=path, fingerprint="aaa")
        store.put(CalibratedGate("x", Schedule(()), np.zeros(9), np.zeros(9), np.eye(9, dtype=complex), 1.0, value))
        store.save()
        loaded = CalibrationStore.load(path, "aaa")
        assert loaded is not None
        assert loaded.get("x").leakage == value

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), "abc"])
    def test_malformed_leakage_discards_store(self, tmp_path, value):
        import json

        path = tmp_path / "cal.json"
        store = CalibrationStore(path=str(path), fingerprint="aaa")
        store.put(_empty_gate("x01_pi_2"))
        store.save()
        payload = json.loads(path.read_text())
        payload["gates"]["x01_pi_2"]["leakage"] = value
        path.write_text(json.dumps(payload))
        assert CalibrationStore.load(str(path), "aaa") is None

    def test_missing_gate_raises(self, tmp_path):
        store = CalibrationStore(path=str(tmp_path / "c.json"), fingerprint="x")
        with pytest.raises(CalibrationFailed):
            store.get("nope")

    def test_store_from_older_calibration_discarded(self, tmp_path, config):
        # fingerprint payload before CALIBRATION_VERSION existed
        import hashlib
        import json

        blob = json.dumps({"device": config.device.to_dict(), "defaults": config.calibration_defaults()}, sort_keys=True)
        old = hashlib.sha256(blob.encode()).hexdigest()
        path = str(tmp_path / "cal.json")
        store = CalibrationStore(path=path, fingerprint=old)
        store.put(_empty_gate("x01_pi_2"))
        store.save()
        assert CalibrationStore.load(path, old) is not None
        assert CalibrationStore.load(path, config.fingerprint()) is None

    def test_fingerprint_ignores_seed_and_shots(self, config):
        from dataclasses import replace

        assert replace(config, seed=config.seed + 1, shots=7).fingerprint() == config.fingerprint()

    def test_fingerprint_depends_on_device(self, device):
        from qutritcr.device import DeviceParams

        other = DeviceParams(omega1=4.8)
        assert config_fingerprint(device, {}) != config_fingerprint(other, {})
