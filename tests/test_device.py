import json

import numpy as np
import pytest

from qutritcr.device import (
    DeviceParams,
    FrameSpec,
    build_static_hamiltonian,
    drive_operator,
    transition_frequencies,
)
from qutritcr.errors import InvalidParams
from qutritcr.hamiltonian import rotating_frame_hamiltonian
from qutritcr.linalg import herm_defect, ket2
from qutritcr.propagate import EvolveOptions, evolve_state
from qutritcr.pulses import Schedule

TWO_PI = 2.0 * np.pi


class TestDeviceParams:
    def test_paper_defaults(self, device):
        # [PAPER: device paragraph]
        assert (device.omega1, device.omega2) == (4.9, 5.5)
        assert (device.delta1, device.delta2) == (-0.4, -0.3)
        assert device.coupling_j == 0.0027
        assert device.levels == 3

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"omega1": -1.0},
            {"delta1": 0.1},
            {"coupling_j": -0.001},
            {"coupling_j": 0.2},  # violates the dispersive sanity check
        ],
    )
    def test_invalid_params(self, kwargs):
        with pytest.raises(InvalidParams):
            DeviceParams(**kwargs)

    def test_json_round_trip(self, device, tmp_path):
        path = tmp_path / "device.json"
        path.write_text(json.dumps(device.to_dict()))
        assert DeviceParams.from_json(str(path)) == device

    @pytest.mark.parametrize(
        "text,message",
        [('{"omega1_ghz": 4.9,', "is not valid JSON"), ("[4.9]", "must hold a JSON object")],
        ids=["bad_json", "not_object"],
    )
    def test_bad_json_file_rejected(self, tmp_path, text, message):
        path = tmp_path / "device.json"
        path.write_text(text)
        with pytest.raises(InvalidParams, match=message):
            DeviceParams.from_json(str(path))

    def test_unknown_keys_rejected(self, device):
        d = device.to_dict()
        d["omega3_ghz"] = 6.0
        with pytest.raises(InvalidParams):
            DeviceParams.from_dict(d)


@pytest.mark.parametrize("which,subspace", [(1, "02"), (3, "01"), (0, "12"), (2, "1")])
def test_transition_of_rejects_unknown_channel_or_subspace(device, which, subspace):
    with pytest.raises(InvalidParams):
        transition_frequencies(device, dressed=True).of(which, subspace)


class TestStaticHamiltonian:
    def test_uncoupled_12_eigenvalue(self):
        # [DERIVED] oracle: diagonal matrix entry, |12> at 4.9 + 2*5.5 - 0.3
        p = DeviceParams(coupling_j=1e-9)  # J ~ 0 within validation limits
        h = build_static_hamiltonian(p)
        idx = 3 * 1 + 2
        assert abs(h[idx, idx] - TWO_PI * 15.6) < 1e-6

    def test_hermitian(self, device):
        # [TRIVIAL: construction symmetry]
        assert herm_defect(build_static_hamiltonian(device)) < 1e-12

    def test_dressed_level_repulsion_scale(self, device):
        # [DERIVED] oracle: exact diagonalization vs bare energies; the
        # |10>/|01> pair repels by ~2 J^2/|Delta| ~ 2pi * 2.4e-5 rad/ns
        h = build_static_hamiltonian(device)
        evals = np.sort(np.linalg.eigvalsh(h))
        bare = np.sort(np.diag(h).real)
        shift = np.max(np.abs(evals - bare))
        j2_over_delta = TWO_PI * device.coupling_j**2 / 0.6
        assert shift < 5.0 * j2_over_delta
        assert shift > 0.1 * j2_over_delta


class TestDriveOperator:
    def test_sqrt2_on_12(self, device):
        # [PAPER: sqrt(2) weight of the 1-2 ladder in the drive]
        d = drive_operator(device, 2)
        i01, i02 = 3 * 0 + 1, 3 * 0 + 2
        assert abs(d[i01, i02] - np.sqrt(2.0)) < 1e-15

    def test_unit_on_01(self, device):
        # [TRIVIAL: lowest matrix element convention]
        d = drive_operator(device, 1)
        assert d[0, 3] == 1.0

    def test_hermitian(self, device):
        for which in (1, 2):
            assert herm_defect(drive_operator(device, which)) == 0.0


class TestTransitionFrequencies:
    def test_bare_w01_2(self, device):
        # [PAPER: "individual frequencies of the two transoms"]
        assert transition_frequencies(device).w01_2 == 5.5

    def test_bare_w12_2(self, device):
        # [DERIVED] omega2 + delta2 under the n(n-1) convention
        assert abs(transition_frequencies(device).w12_2 - 5.2) < 1e-12

    def test_dressed_shift_small(self, device):
        # [DERIVED] oracle: exact diagonalization; dispersive shift ~J^2/Delta
        tf = transition_frequencies(device, dressed=True)
        assert abs(tf.w01_2 - 5.5) < 5e-5
        assert abs(tf.w01_1 - 4.9) < 5e-5


class TestRotatingFrame:
    def test_resonant_frame_zeroes_01_energies(self):
        # [TRIVIAL: frame cancels bare 0-1 energies]
        p = DeviceParams(coupling_j=1e-9)
        prov = rotating_frame_hamiltonian(p, FrameSpec(p.omega1, p.omega2), Schedule(()))
        h0, h1 = prov(0.0), prov(17.3)
        # residual time dependence only through the (negligible) J term
        assert np.max(np.abs(h0 - h1)) < 1e-7
        for idx in (0, 1, 3, 4):  # states of 0 or 1 excitation per transmon
            assert abs(h0[idx, idx]) < 1e-6

    def test_identity_frame_is_lab_frame(self, device):
        # [TRIVIAL: identity frame]
        prov = rotating_frame_hamiltonian(device, FrameSpec(0.0, 0.0), Schedule(()))
        assert np.allclose(prov(3.14), build_static_hamiltonian(device), atol=1e-12)

    def test_hermitian_on_grid(self, device):
        from qutritcr.pulses import build_cr_schedule

        sched = build_cr_schedule(device, "01", 0.1, 50.0)
        prov = rotating_frame_hamiltonian(device, FrameSpec.bare(device), sched)
        for t in np.arange(0.0, sched.duration, 1.0):
            assert herm_defect(prov(t)) < 1e-12

    def test_bare_state_stationary_without_coupling(self):
        # with J=0 and no drive, each bare state only acquires phase
        p = DeviceParams(coupling_j=1e-9)
        prov = rotating_frame_hamiltonian(p, FrameSpec.bare(p), Schedule(()))
        psi = evolve_state(prov, ket2(1, 0), 0.0, 100.0, EvolveOptions())
        assert abs(abs(psi[3]) - 1.0) < 1e-9
