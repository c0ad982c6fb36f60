import numpy as np
import pytest

from qutritcr.errors import InvalidParams, OutOfRange
from qutritcr.pulses import (
    AMP_CAP_GHZ,
    DragGaussian,
    Gaussian,
    GaussianSquare,
    PhaseShift,
    Play,
    Schedule,
    build_cr_schedule,
    concat,
    schedule_from_dicts,
    schedule_to_dicts,
)


def drive_term(instr: Play, t: float, virtual_phase: float = 0.0) -> float:
    """Lab-frame oracle: real drive coefficient of one pulse at absolute time t (rad/ns).

    2pi * Re[envelope(t - start) * exp(-i (2pi f_c t + carrier_phase + virtual))].
    """
    if t < instr.start or t > instr.end:
        raise OutOfRange(f"t = {t} ns outside pulse window [{instr.start}, {instr.end}]")
    env = instr.shape.sample(t - instr.start)
    arg = 2.0 * np.pi * instr.carrier_freq * t + instr.carrier_phase + virtual_phase
    return 2.0 * np.pi * float((env * np.exp(-1j * arg)).real)


class TestEnvelopes:
    def test_gaussian_square_plateau(self):
        # [TRIVIAL: plateau]
        gs = GaussianSquare(amp=0.06, sigma=10.0, risefall=20.0, width=160.0)
        assert gs.sample(20.0 + 80.0) == 0.06
        assert gs.duration == 200.0

    def test_gaussian_peak(self):
        # [TRIVIAL: peak convention]
        g = Gaussian(amp=0.02, sigma=8.0, duration=32.0)
        assert abs(g.sample(16.0) - 0.02) < 1e-15

    def test_lifted_endpoints(self):
        g = Gaussian(amp=0.02, sigma=8.0, duration=32.0)
        assert abs(g.sample(0.0)) < 1e-15
        assert abs(g.sample(32.0)) < 1e-15

    def test_drag_imag_zero_at_peak(self):
        # [TRIVIAL: derivative of Gaussian at its peak]
        d = DragGaussian(amp=0.02, sigma=8.0, duration=32.0, beta=0.5)
        assert abs(d.sample(16.0).imag) < 1e-15
        assert abs(d.sample(16.0).real - 0.02) < 1e-15

    def test_drag_endpoints_carry_the_unlifted_quadrature(self):
        # only the in-phase part is lifted: the ends read +/- i beta g'(0), with
        # g'(0) = amp (c / sigma^2) e^{-c^2 / 2 sigma^2} / (1 - e^{-c^2 / 2 sigma^2})
        amp, sigma, duration, beta = 0.06, 8.0, 32.0, 0.5
        c = duration / 2.0
        edge = np.exp(-(c**2) / (2.0 * sigma**2))
        slope = amp * (c / sigma**2) * edge / (1.0 - edge)
        d = DragGaussian(amp, sigma, duration, beta)
        assert d.sample(0.0) == pytest.approx(1j * beta * slope, abs=1e-15)
        assert d.sample(duration) == pytest.approx(-1j * beta * slope, abs=1e-15)
        assert abs(d.sample(0.0).imag - 1.1739e-3) < 1e-7

    def test_out_of_range(self):
        g = Gaussian(amp=0.02, sigma=8.0, duration=32.0)
        with pytest.raises(OutOfRange):
            g.sample(-0.1)
        with pytest.raises(OutOfRange):
            g.sample(33.0)

    def test_amp_cap(self):
        with pytest.raises(InvalidParams):
            Gaussian(amp=1.5 * AMP_CAP_GHZ, sigma=8.0, duration=32.0)

    def test_continuity(self):
        # no jumps larger than ~amp*eps/sigma on a fine grid
        gs = GaussianSquare(amp=0.5, sigma=10.0, risefall=20.0, width=60.0)
        ts = np.arange(0.0, gs.duration, 0.01)
        vals = np.array([gs.sample(t) for t in ts])
        assert np.max(np.abs(np.diff(vals))) < 2.0 * gs.amp * 0.01 / gs.sigma

    def test_energy_monotonic_in_amp(self):
        def energy(amp):
            g = Gaussian(amp=amp, sigma=8.0, duration=32.0)
            return sum(abs(g.sample(t)) ** 2 for t in np.linspace(0, 32, 101))

        es = [energy(a) for a in (0.1, 0.2, 0.4, 0.8)]
        assert all(b > a for a, b in zip(es, es[1:]))


_SHAPES = {
    "gaussian": Gaussian(amp=0.02, sigma=8.0, duration=32.0),
    "square": GaussianSquare(amp=-0.3, sigma=10.0, risefall=20.0, width=60.0),
    "drag": DragGaussian(amp=0.06, sigma=8.0, duration=32.0, beta=0.4),
}


class TestArraySampling:
    @pytest.mark.parametrize("name", sorted(_SHAPES))
    def test_array_equals_the_float_samples(self, name, rng):
        shape = _SHAPES[name]
        rf = getattr(shape, "risefall", shape.duration / 2.0)
        width = getattr(shape, "width", 0.0)
        ts = np.concatenate([[0.0, rf, rf + width, shape.duration], rng.uniform(0.0, shape.duration, 200)])
        want = [shape.sample(t) for t in ts.tolist()]
        assert np.array_equal(shape.sample(ts), np.array(want))

    @pytest.mark.parametrize("name", sorted(_SHAPES))
    @pytest.mark.parametrize("outside", [-1e-9, 1e-9])
    def test_one_point_outside_raises(self, name, outside):
        shape = _SHAPES[name]
        ts = np.linspace(0.0, shape.duration, 17)
        ts[5] = outside if outside < 0.0 else shape.duration + outside
        with pytest.raises(OutOfRange):
            shape.sample(ts)


class TestNonFiniteParams:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize(
        "make",
        [
            lambda x: Gaussian(amp=x, sigma=8.0, duration=32.0),
            lambda x: Gaussian(amp=0.02, sigma=x, duration=32.0),
            lambda x: Gaussian(amp=0.02, sigma=8.0, duration=x),
            lambda x: GaussianSquare(amp=x, sigma=10.0, risefall=20.0, width=60.0),
            lambda x: GaussianSquare(amp=0.3, sigma=x, risefall=20.0, width=60.0),
            lambda x: GaussianSquare(amp=0.3, sigma=10.0, risefall=x, width=60.0),
            lambda x: GaussianSquare(amp=0.3, sigma=10.0, risefall=20.0, width=x),
            lambda x: DragGaussian(amp=x, sigma=8.0, duration=32.0),
            lambda x: DragGaussian(amp=0.06, sigma=x, duration=32.0),
            lambda x: DragGaussian(amp=0.06, sigma=8.0, duration=x),
            lambda x: DragGaussian(amp=0.06, sigma=8.0, duration=32.0, beta=x),
            lambda x: Play(channel=1, start=x, shape=Gaussian(amp=0.02, sigma=8.0, duration=32.0), carrier_freq=5.0),
            lambda x: Play(channel=1, start=0.0, shape=Gaussian(amp=0.02, sigma=8.0, duration=32.0), carrier_freq=x),
            lambda x: Play(
                channel=1, start=0.0, shape=Gaussian(amp=0.02, sigma=8.0, duration=32.0), carrier_freq=5.0, carrier_phase=x
            ),
            lambda x: PhaseShift(channel=1, subspace="01", angle=0.5, start=x),
            lambda x: PhaseShift(channel=1, subspace="01", angle=x),
        ],
        ids=[
            "gaussian.amp", "gaussian.sigma", "gaussian.duration",
            "square.amp", "square.sigma", "square.risefall", "square.width",
            "drag.amp", "drag.sigma", "drag.duration", "drag.beta",
            "play.start", "play.carrier_freq", "play.carrier_phase", "shift.start", "shift.angle",
        ],
    )
    def test_rejected(self, make, bad):
        with pytest.raises(InvalidParams):
            make(bad)


@pytest.mark.parametrize("channel", [True, 1.0, 0, 3], ids=["true", "float", "zero", "three"])
@pytest.mark.parametrize("kind", ["play", "shift"])
def test_a_channel_is_the_integer_1_or_2(kind, channel):
    # True and 1.0 equal 1 but name no transition: "w01_True" raised AttributeError at propagation
    with pytest.raises(InvalidParams, match="channel must be 1 or 2"):
        if kind == "play":
            Play(channel, 0.0, Gaussian(0.02, 8.0, 32.0), 5.0)
        else:
            PhaseShift(channel, "01", 0.5)


class TestSchedule:
    def test_width_zero_duration(self, device):
        # [TRIVIAL: definition] width=0 edge case
        s = build_cr_schedule(device, "01", 0.1, 0.0, risefall=20.0)
        assert s.duration == 40.0

    def test_cr_carrier_frequencies(self, device):
        # [PAPER]/[DERIVED]: carrier at the target's dressed 01/12 frequency
        s01 = build_cr_schedule(device, "01", 0.1, 100.0)
        s12 = build_cr_schedule(device, "12", 0.1, 100.0)
        (p01,), (p12,) = s01.plays(), s12.plays()
        assert p01.channel == 1 and p12.channel == 1
        assert abs(p01.carrier_freq - 5.5) < 1e-3
        assert abs(p12.carrier_freq - 5.2) < 1e-3

    def test_concat(self, device):
        # [TRIVIAL: definition + arithmetic]
        s = build_cr_schedule(device, "01", 0.1, 60.0)  # 100 ns
        assert concat(s).duration == s.duration
        assert concat(s, s).duration == 2 * s.duration
        assert concat(s, s, s).duration == 300.0

    def test_overlap_rejected(self, device):
        play = build_cr_schedule(device, "01", 0.1, 60.0).plays()[0]
        with pytest.raises(InvalidParams):
            Schedule((play, play))

    def test_virtual_phase_accumulates(self):
        shifts = (
            PhaseShift(channel=1, subspace="01", angle=0.4, start=0.0),
            PhaseShift(channel=1, subspace="01", angle=0.3, start=10.0),
            PhaseShift(channel=1, subspace="12", angle=9.9, start=0.0),
        )
        s = Schedule(shifts)
        assert s.virtual_phase(1, "01", 5.0) == pytest.approx(0.4)
        assert s.virtual_phase(1, "01", 20.0) == pytest.approx(0.7)
        assert s.virtual_phase(2, "01", 20.0) == 0.0
        assert s.duration == 10.0  # PhaseShift has zero duration


class TestDriveTerm:
    def test_cosine_peak(self):
        g = GaussianSquare(amp=0.1, sigma=10.0, risefall=20.0, width=100.0)
        play = Play(channel=1, start=0.0, shape=g, carrier_freq=1.0, carrier_phase=0.0)
        # at t=50 the carrier argument is 2*pi*50 = 0 (mod 2pi)
        assert drive_term(play, 50.0) == pytest.approx(2.0 * np.pi * 0.1)

    def test_quadrature(self):
        g = GaussianSquare(amp=0.1, sigma=10.0, risefall=20.0, width=100.0)
        play = Play(channel=1, start=0.0, shape=g, carrier_freq=1.0, carrier_phase=np.pi / 2.0)
        # cos(x + pi/2) = -sin(x): zero where the unshifted carrier peaks
        assert abs(drive_term(play, 50.0)) < 1e-12

    def test_virtual_phase_argument(self):
        g = GaussianSquare(amp=0.1, sigma=10.0, risefall=20.0, width=100.0)
        play = Play(channel=1, start=0.0, shape=g, carrier_freq=1.0, carrier_phase=0.0)
        a = drive_term(play, 50.0, virtual_phase=0.3)
        assert a == pytest.approx(2.0 * np.pi * 0.1 * np.cos(0.3))


class TestSerialization:
    def test_round_trip(self, device):
        s = concat(
            build_cr_schedule(device, "01", 0.1, 60.0),
            Schedule((PhaseShift(channel=1, subspace="01", angle=1.5708, start=0.0),)),
            Schedule((Play(channel=2, start=0.0, shape=DragGaussian(0.01, 8.0, 32.0, 0.4), carrier_freq=5.5),)),
        )
        assert schedule_from_dicts(schedule_to_dicts(s)) == s

    def test_json_fields(self, device):
        d = schedule_to_dicts(build_cr_schedule(device, "01", 0.06, 160.0))[0]
        assert d["channel"] == 1
        assert d["shape"]["kind"] == "gaussian_square"
        assert d["shape"]["amp_ghz"] == 0.06
        assert set(d) >= {"channel", "start_ns", "shape", "carrier_ghz", "phase_rad"}
