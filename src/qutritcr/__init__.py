"""Pulse-level simulation and calibration of qutrit cross-resonance gates
on a pair of fixed-frequency coupled transmons."""

from .calibrate import (
    CalibratedGate,
    CalibrationStore,
    RabiTrace,
    calibrate_cr_gate,
    calibrate_single_qutrit,
    calibrate_virtual_phases,
    prepare_control_state,
    run_rabi_scan,
)
from .crpulse import FlatTopCRPulse
from .device import DeviceParams, FrameSpec, transition_frequencies
from .effective import (
    CRCoefficients,
    bell_reference_circuit,
    bell_state,
    cr_coefficients,
    effective_hamiltonian,
    ideal_single_qutrit,
    ideal_ucr,
    qutrit_hadamard,
    rx_subspace,
)
from .errors import QutritCRError
from .experiments import (
    ExperimentConfig,
    ExperimentResult,
    cmd_bell,
    cmd_calibrate,
    cmd_rabi,
    sample_shots,
)
from .fitting import FitResult, fit_rabi
from .hamiltonian import rotating_frame_hamiltonian
from .metrics import MetricReport, average_gate_fidelity, concurrence, purity, state_fidelity
from .propagate import EvolveOptions, evolve_state, evolve_trace, evolve_unitary, full_model_unitary
from .pulses import (
    DragGaussian,
    Gaussian,
    GaussianSquare,
    PhaseShift,
    Play,
    Schedule,
    build_cr_schedule,
)

__version__ = "0.1.0"
