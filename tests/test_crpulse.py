"""The flat-top fast path must agree with the adaptive ODE integrator."""

import numpy as np
import pytest

from qutritcr.crpulse import FlatTopCRPulse, rwa_unitary
from qutritcr.device import FrameSpec, transition_frequencies
from qutritcr.hamiltonian import rotating_frame_hamiltonian
from qutritcr.linalg import herm_defect, ket2, unitary_defect
from qutritcr.propagate import EvolveOptions, evolve_state, evolve_unitary
from qutritcr.pulses import DragGaussian, Play, Schedule


@pytest.fixture(scope="module")
def pulse(device):
    return FlatTopCRPulse(device, "01", amp=0.3)


class TestFastPath:
    def test_unitary_matches_ode(self, device, pulse):
        # dual-route check: Magnus edges + plateau eigendecomposition vs
        # a tight adaptive RWA integration of the same schedule
        width = 73.0
        sched = pulse.schedule(width)
        prov = rotating_frame_hamiltonian(device, pulse.frame, sched, rwa=True)
        opts = EvolveOptions(rel_tol=1e-11, abs_tol=1e-13, max_step=0.1)
        u_ode = evolve_unitary(prov, 0.0, sched.duration, opts)
        assert np.max(np.abs(pulse.unitary(width) - u_ode)) < 1e-7

    def test_bare_frame_conversion(self, device, pulse):
        width = 40.0
        sched = pulse.schedule(width)
        bare = FrameSpec.bare(device)
        prov = rotating_frame_hamiltonian(device, bare, sched, rwa=True)
        opts = EvolveOptions(rel_tol=1e-11, abs_tol=1e-13, max_step=0.1)
        psi_ode = evolve_state(prov, ket2(0, 0), 0.0, sched.duration, opts)
        psi_fast = pulse.unitary(width, frame=bare) @ ket2(0, 0)
        assert np.max(np.abs(psi_fast - psi_ode)) < 1e-6

    def test_unitarity(self, pulse):
        for width in (0.0, 11.5, 200.0):
            assert unitary_defect(pulse.unitary(width)) < 1e-8

    def test_plateau_hamiltonian_static(self, device, pulse):
        # in the drive frame the RWA plateau Hamiltonian is constant
        h = pulse.plateau_hamiltonian()
        assert herm_defect(h) < 1e-12
        sched = pulse.schedule(100.0)
        prov = rotating_frame_hamiltonian(device, pulse.frame, sched, rwa=True)
        for t in (30.0, 60.0, 100.0):
            assert np.max(np.abs(prov(t) - h)) < 1e-9

    def test_states_after_matches_unitary(self, pulse):
        widths = np.array([0.0, 25.0, 50.0])
        psi0 = ket2(1, 0)
        states = pulse.states_after(psi0, widths)
        for w, psi in zip(widths, states):
            assert np.max(np.abs(psi - pulse.unitary(w) @ psi0)) < 1e-10

    def test_width_additivity_on_plateau(self, pulse):
        # plateau is generated by a constant H: widths add
        u1 = pulse.unitary(30.0)
        u2 = pulse.unitary(70.0)
        # rise/fall cancel: U(w2) U(w1)^-1 = fall P(w2-w1) fall^-1
        m = u2 @ u1.conj().T
        assert unitary_defect(m) < 1e-8


class TestRWAUnitary:
    def test_drag_pulse_matches_bare_frame_ode(self, device):
        # the frame change must land in the bare frame: a bare-frame RWA
        # integration of the same DRAG pulse is the oracle
        carrier = transition_frequencies(device, dressed=True).of(2, "01")
        shape = DragGaussian(amp=0.05, sigma=8.0, duration=32.0, beta=0.4)
        sched = Schedule((Play(channel=2, start=0.0, shape=shape, carrier_freq=carrier),))
        bare = FrameSpec.bare(device)
        prov = rotating_frame_hamiltonian(device, bare, sched, rwa=True)
        opts = EvolveOptions(rel_tol=1e-11, abs_tol=1e-13, max_step=0.1)
        u_ode = evolve_unitary(prov, 0.0, sched.duration, opts)
        assert np.max(np.abs(rwa_unitary(device, sched, carrier) - u_ode)) <= 1e-9

    def test_matches_flat_top_fast_path(self, device, pulse):
        width = 40.0
        u_fast = pulse.unitary(width, frame=FrameSpec.bare(device))
        u_any = rwa_unitary(device, pulse.schedule(width), pulse.carrier)
        assert np.max(np.abs(u_fast - u_any)) <= 1e-9
