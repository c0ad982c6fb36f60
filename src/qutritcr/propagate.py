"""Numerically exact time evolution under a time-dependent Hamiltonian.

Uses scipy's adaptive DOP853 integrator (explicit order 8 with embedded
error control).  States are never silently renormalized; norm drift is
checked after every run.  ``full_model_unitary`` is the one entry point for
the bare-frame propagator of a schedule without the RWA.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import solve_ivp

from .device import DeviceParams, FrameSpec, reframe
from .errors import NormDrift, StepFailure
from .hamiltonian import rotating_frame_hamiltonian
from .linalg import PAIR_DIM, unitary_defect
from .pulses import GaussianSquare, Schedule

NORM_DRIFT_LIMIT = 1e-6
UNITARY_DRIFT_LIMIT = 1e-7


@dataclass(frozen=True)
class EvolveOptions:
    rel_tol: float = 1e-8
    abs_tol: float = 1e-10
    max_step: float = 0.5  # ns
    rwa: bool = False
    frame: FrameSpec | None = None

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0 or self.max_step <= 0:
            raise ValueError("tolerances and max_step must be positive")


DEFAULT_OPTIONS = EvolveOptions()

# Tolerances for propagating calibrated gates without the RWA.
FULL_MODEL_OPTIONS = EvolveOptions(rel_tol=1e-9, abs_tol=1e-11, max_step=0.02)


def _state_rhs(hprov):
    """Schrodinger right-hand side -i H(t) psi for a state vector."""

    def rhs(t, y):
        return -1j * (hprov(t) @ y)

    return rhs


def _solve(rhs, y0, t0, t1, opts, t_eval=None):
    if t1 < t0:
        raise ValueError("t1 must be >= t0")
    if t1 == t0:
        return y0.copy(), None
    sol = solve_ivp(
        rhs,
        (t0, t1),
        y0,
        method="DOP853",
        rtol=opts.rel_tol,
        atol=opts.abs_tol,
        max_step=opts.max_step,
        t_eval=t_eval,
        dense_output=False,
    )
    if not sol.success:
        raise StepFailure(f"integrator failed: {sol.message}")
    return sol.y[:, -1], sol


def evolve_state(hprov, psi0, t0: float, t1: float, opts: EvolveOptions = DEFAULT_OPTIONS):
    """Solve i dpsi/dt = H(t) psi from t0 to t1; returns the final state."""
    psi0 = np.asarray(psi0, dtype=complex)
    psi, _ = _solve(_state_rhs(hprov), psi0, t0, t1, opts)
    drift = abs(np.linalg.norm(psi) - np.linalg.norm(psi0))
    if drift > NORM_DRIFT_LIMIT:
        raise NormDrift(f"norm drift {drift:.3e} exceeds {NORM_DRIFT_LIMIT:.0e}")
    return psi


def evolve_trace(hprov, psi0, t_grid, opts: EvolveOptions = DEFAULT_OPTIONS):
    """States sampled on an increasing time grid (one continuous integration).

    Returns an array of shape (len(t_grid), dim).
    """
    psi0 = np.asarray(psi0, dtype=complex)
    t_grid = np.asarray(t_grid, dtype=float)
    t0, t1 = float(t_grid[0]), float(t_grid[-1])
    if t1 == t0:
        return np.tile(psi0, (len(t_grid), 1))
    _, sol = _solve(_state_rhs(hprov), psi0, t0, t1, opts, t_eval=t_grid)
    states = sol.y.T.copy()
    drift = float(np.max(np.abs(np.linalg.norm(states, axis=1) - np.linalg.norm(psi0))))
    if drift > NORM_DRIFT_LIMIT:
        raise NormDrift(f"norm drift {drift:.3e} exceeds {NORM_DRIFT_LIMIT:.0e}")
    return states


def evolve_unitary(hprov, t0: float, t1: float, opts: EvolveOptions = DEFAULT_OPTIONS, dim: int = PAIR_DIM):
    """Propagator over [t0, t1]: all basis columns evolved together."""
    u0 = np.eye(dim, dtype=complex).reshape(-1)

    def rhs(t, y):
        return (-1j * (hprov(t) @ y.reshape(dim, dim))).reshape(-1)

    u, _ = _solve(rhs, u0, t0, t1, opts)
    u = u.reshape(dim, dim)
    defect = unitary_defect(u)
    if defect > UNITARY_DRIFT_LIMIT:
        raise NormDrift(f"unitarity defect {defect:.3e} exceeds {UNITARY_DRIFT_LIMIT:.0e}")
    return u


def full_model_unitary(p: DeviceParams, schedule: Schedule) -> np.ndarray:
    """Bare-frame propagator of a schedule over [0, duration], without the RWA.

    A schedule whose only play is a Gaussian square at carrier c > 0 is
    integrated in the frame rotating at c on both transmons.  There the
    coupling and the co-rotating drive are static and the counter-rotating
    drive oscillates at 2c, so on the flat top H(t) is exactly periodic with
    T = 1/(2c), and the plateau propagator is U_T^n times one remainder
    piece, n = floor(width / T) (Floquet; Shirley, Phys. Rev. 138, B979
    (1965)).  DOP853 runs on the rise, one period, the remainder and the
    fall; U_T^n comes from repeated squaring.  Every other schedule is
    integrated whole in the bare frame.  Both use FULL_MODEL_OPTIONS.
    """
    bare = FrameSpec.bare(p)
    plays = schedule.plays()
    if len(plays) != 1 or not isinstance(plays[0].shape, GaussianSquare) or plays[0].carrier_freq <= 0:
        prov = rotating_frame_hamiltonian(p, bare, schedule, rwa=False)
        return evolve_unitary(prov, 0.0, schedule.duration, FULL_MODEL_OPTIONS)
    play = plays[0]
    drive = FrameSpec(play.carrier_freq, play.carrier_freq)
    prov = rotating_frame_hamiltonian(p, drive, schedule, rwa=False)
    period = 0.5 / play.carrier_freq
    a = play.start + play.shape.risefall
    b = a + play.shape.width
    n = int(play.shape.width // period)
    while n and a + n * period > b:  # roundoff at widths that are whole periods
        n -= 1
    u = evolve_unitary(prov, 0.0, a, FULL_MODEL_OPTIONS)
    if n:
        u = np.linalg.matrix_power(evolve_unitary(prov, a, a + period, FULL_MODEL_OPTIONS), n) @ u
    u = evolve_unitary(prov, a + n * period, b, FULL_MODEL_OPTIONS) @ u
    u = evolve_unitary(prov, b, schedule.duration, FULL_MODEL_OPTIONS) @ u
    return reframe(u, drive, bare, schedule.duration)


def populations(psi) -> np.ndarray:
    """|amplitude|^2 per basis state."""
    psi = np.asarray(psi, dtype=complex)
    return np.abs(psi) ** 2
