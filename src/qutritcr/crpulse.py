"""Width sweeps of Gaussian-square CR pulses under the RWA.

In the frame rotating at the drive carrier on both transmons, every retained
term of the RWA Hamiltonian is oscillation-free, so during the flat top the
Hamiltonian is a constant matrix: that section integrates exactly by
eigendecomposition, and only the two short Gaussian edges need time steps
(``propagate._rwa_flat_top``, as in ``propagate.rwa_unitary``), and of
those only the rise is integrated: the fall is its mirror image.  The edge
propagators are width-independent, so amplitude/width sweeps cost one edge
integration plus diagonal phase arithmetic per point.  ``cr_pulse`` hands
out one shared pulse per setting, so scans and tune-ups at the same
amplitude integrate its rise once.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

import numpy as np

from .device import SUBSPACES, DeviceParams, FrameSpec, discrete, finite_float, reframe
from .errors import InvalidParams
from .hamiltonian import RWA_CUTOFF_GHZ
from .linalg import dag
from .propagate import _rwa_flat_top, _stepped_unitary, _time_symmetric  # noqa: F401  (bench/tracer.py binds _stepped_unitary here)
from .pulses import DEFAULT_RISEFALL_NS, Schedule, build_cr_schedule

# Reference width used to build the (width-independent) edge propagators.
_REF_WIDTH = 100.0

# Pulses kept by cr_pulse.  Reuse comes within a few calls of a build (the
# control states of one Rabi sweep; a CR tune-up's rate scan, first simplex
# vertices and final best point), so a short cache catches all of it; the
# default cr01_pi tune-up builds 87 pulses for 90 requests at 4 entries or 128.
_PULSE_CACHE_SIZE = 8


def _checked_widths(widths) -> np.ndarray:
    """Flat-top widths (ns) as floats, each an integer or float (not a bool),
    finite and >= 0 as the pulse's schedule requires; InvalidParams otherwise."""
    w = np.asarray(widths)
    if w.dtype.kind not in "iuf" or not (np.isfinite(w) & (w >= 0.0)).all():
        raise InvalidParams(f"flat-top widths must be finite and >= 0 ns, got {widths}")
    return w.astype(float, copy=False)


class FlatTopCRPulse:
    """One cross-resonance Gaussian-square pulse at fixed amplitude and phase,
    the play of ``build_cr_schedule``, in the frame rotating at its carrier c.

    Its flat top is constant where the play passes ``_time_symmetric``,
    whose RWA drops its counter-rotating drive at omega_1 + c; elsewhere
    the pulse raises InvalidParams (``propagate.rwa_unitary`` steps such a
    play whole).
    """

    def __init__(
        self,
        p: DeviceParams,
        subspace: str,
        amp: float,
        risefall: float = DEFAULT_RISEFALL_NS,
        phase: float = 0.0,
    ):
        self.params = p
        self.subspace = subspace
        self.amp = amp
        self.risefall = risefall
        self.phase = phase
        self._reference = self.schedule(_REF_WIDTH)
        play = self._reference.plays()[0]
        self.carrier = play.carrier_freq
        self.frame = FrameSpec(self.carrier, self.carrier)
        if not _time_symmetric(p, self.frame, play, [play]):
            raise InvalidParams(
                f"CR carrier {self.carrier:.4g} GHz: its flat top is not constant under the RWA "
                f"(omega1 + c <= {RWA_CUTOFF_GHZ} GHz keeps the counter-rotating drive)"
            )

    def schedule(self, width: float) -> Schedule:
        return build_cr_schedule(self.params, self.subspace, self.amp, width, self.risefall, self.phase)

    @cached_property
    def _pieces(self):
        return _rwa_flat_top(self.params, self._reference)

    def plateau_hamiltonian(self) -> np.ndarray:
        """Constant drive-frame Hamiltonian during the flat top (rad/ns)."""
        _, _, w, v = self._pieces
        return (v * w) @ dag(v)

    def _plateau_u(self, width: float) -> np.ndarray:
        _, _, w, v = self._pieces
        return (v * np.exp(-1j * w * width)) @ dag(v)

    def unitary(self, width: float, frame: FrameSpec | None = None) -> np.ndarray:
        """Full-pulse propagator (rise + flat top + fall), drive frame by default.

        Passing a frame re-expresses the propagator in that rotating frame,
        e.g. the bare frame used to compose circuit-level gates.  The width
        must be finite and >= 0, as for ``schedule``.
        """
        _checked_widths(width)
        u_rise, u_fall, _, _ = self._pieces
        u = u_fall @ self._plateau_u(width) @ u_rise
        if frame is not None:
            u = reframe(u, self.frame, frame, width + 2.0 * self.risefall)
        return u

    def plateau_states(self, psi0: np.ndarray, widths: np.ndarray) -> np.ndarray:
        """States after the rise edge plus each plateau width (no fall edge).

        Useful for dense Rabi traces: one edge integration covers every
        sample point.  Shape (len(widths), 9), drive frame.  Each width
        must be finite and >= 0.
        """
        widths = _checked_widths(widths)
        u_rise, _, w, v = self._pieces
        coef = dag(v) @ (u_rise @ psi0)
        phases = np.exp(-1j * np.outer(widths, w))
        return (v @ (phases * coef[None, :]).T).T

    def states_after(self, psi0: np.ndarray, widths) -> np.ndarray:
        """Final states of complete pulses with the given plateau widths.

        Shape (len(widths), 9), drive frame.
        """
        u_fall = self._pieces[1]
        return (u_fall @ self.plateau_states(psi0, widths).T).T


_shared_pulse = lru_cache(maxsize=_PULSE_CACHE_SIZE)(FlatTopCRPulse)


def cr_pulse(
    p: DeviceParams,
    subspace: str,
    amp: float,
    risefall: float = DEFAULT_RISEFALL_NS,
    phase: float = 0.0,
) -> FlatTopCRPulse:
    """The shared FlatTopCRPulse for these settings, built on first use.

    A pulse is a deterministic function of its settings, so callers that
    drive the same tone (every control state of a Rabi sweep, a CR tune-up's
    rate scan and its search) share one edge integration.  The
    returned pulse is shared: treat it as read-only.  The settings are
    checked before the cache is asked, so that an unhashable one raises
    InvalidParams, and True is refused even where the pulse of 1 is cached.
    """
    return _shared_pulse(
        p, discrete(subspace, "subspace", SUBSPACES), finite_float(amp, "amp"),
        finite_float(risefall, "risefall"), finite_float(phase, "phase"),
    )


cr_pulse.cache_clear = _shared_pulse.cache_clear
