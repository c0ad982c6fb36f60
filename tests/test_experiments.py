import json
import os
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from qutritcr import experiments
from qutritcr.device import DeviceParams
from qutritcr.errors import BadDistribution, InvalidParams, NoOscillation
from qutritcr.experiments import (
    CSV_POP_HEADERS,
    ExperimentConfig,
    ExperimentResult,
    cmd_bell,
    cmd_rabi,
    sample_shots,
)
from qutritcr.metrics import MetricReport


class TestSampleShots:
    def test_delta_distribution(self):
        # [TRIVIAL]
        counts = sample_shots(np.eye(9)[0], 500, 3)
        assert counts[0] == 500 and counts.sum() == 500

    def test_uniform_within_5_sigma(self):
        # [DERIVED] binomial stddev oracle
        shots = 9_000_000
        counts = sample_shots(np.full(9, 1.0 / 9.0), shots, 11)
        sigma = np.sqrt(shots * (1 / 9) * (8 / 9))
        assert np.max(np.abs(counts - 1_000_000)) < 5.0 * sigma

    def test_deterministic(self):
        p = np.full(9, 1.0 / 9.0)
        assert np.array_equal(sample_shots(p, 1000, 7), sample_shots(p, 1000, 7))
        assert not np.array_equal(sample_shots(p, 1000, 7), sample_shots(p, 1000, 8))

    def test_bad_distribution(self):
        with pytest.raises(BadDistribution):
            sample_shots(np.full(9, 0.2), 100, 0)  # sums to 1.8
        with pytest.raises(BadDistribution):
            sample_shots(np.full(4, 0.25), 100, 0)  # wrong length
        with pytest.raises(BadDistribution):
            sample_shots(np.eye(9)[0], 0, 0)  # no shots

    def test_shots_up_to_the_int64_draw_limit(self):
        # numpy's multinomial overflows one shot past int64
        assert sample_shots(np.eye(9)[0], 2**63 - 1, 3)[0] == 2**63 - 1
        with pytest.raises(BadDistribution):
            sample_shots(np.eye(9)[0], 2**63, 3)


class TestExperimentConfig:
    def test_defaults(self, config):
        assert config.seed == 7 and config.shots == 100000

    def test_rejects_unknown_keys(self):
        with pytest.raises(InvalidParams):
            ExperimentConfig.from_dict({"frobnicate": 1})

    def test_rejects_bad_shots(self):
        with pytest.raises(InvalidParams):
            ExperimentConfig(shots=0)

    def test_json_round_trip(self, tmp_path, config):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"device": config.device.to_dict(), "seed": 9, "shots": 5000}))
        cfg = ExperimentConfig.from_json(str(path))
        assert cfg.seed == 9 and cfg.shots == 5000 and cfg.device == config.device

    def test_fingerprint_ignores_seed(self, config):
        assert replace(config, seed=99).fingerprint() == config.fingerprint()
        assert replace(config, cr01_amp=0.3).fingerprint() != config.fingerprint()

    @pytest.mark.parametrize("record", [DeviceParams, ExperimentConfig])
    @pytest.mark.parametrize("value", [5, "ab", [1, 2], None], ids=["int", "str", "list", "null"])
    def test_a_record_that_is_not_an_object_is_rejected(self, record, value):
        with pytest.raises(InvalidParams, match="config must be a JSON object"):
            record.from_dict(value)

    def test_numpy_scalars_are_kept_as_python_numbers(self):
        cfg = ExperimentConfig(
            device=DeviceParams(omega1=np.float32(4.9), levels=np.int64(3)),
            seed=np.int64(7),
            shots=np.uint16(1000),
            cr01_amp=np.float32(0.35),
        )
        kept = (cfg.device.omega1, cfg.device.levels, cfg.seed, cfg.shots, cfg.cr01_amp)
        assert [type(v) for v in kept] == [float, int, int, int, float]
        same = ExperimentConfig(device=DeviceParams(omega1=float(np.float32(4.9))), cr01_amp=float(np.float32(0.35)))
        assert cfg.fingerprint() == same.fingerprint()

    @pytest.mark.parametrize(
        "spelling,as_float",
        [
            ({"risefall_ns": 20}, {"risefall_ns": 20.0}),
            ({"sq_duration_ns": 32}, {"sq_duration_ns": 32.0}),
            ({"device": {"omega1_ghz": 5}}, {"device": {"omega1_ghz": 5.0}}),
        ],
        ids=["risefall", "sq_duration", "device_omega1"],
    )
    def test_an_integer_spelling_names_the_same_configuration(self, spelling, as_float):
        cfg = ExperimentConfig.from_dict(spelling)
        assert cfg == ExperimentConfig.from_dict(as_float)
        assert cfg.fingerprint() == ExperimentConfig.from_dict(as_float).fingerprint()

    def test_dict_round_trip(self):
        cfg = ExperimentConfig(device=DeviceParams(omega2=5.6), seed=3, shots=10, cr12_amp=0.12, risefall=18.0)
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg
        assert json.loads(json.dumps(cfg.to_dict())) == cfg.to_dict()


class TestExperimentResult:
    def test_invariants(self):
        with pytest.raises(InvalidParams):
            ExperimentResult("x", (), -1.0, "h", 7)
        r = ExperimentResult("bell", (MetricReport("f", 0.5),), 10.0, "h", 7)
        assert r.to_dict()["duration_ns"] == 10.0


class TestCmdRabi:
    def test_csv_shape_and_headers(self, config, tmp_path):
        # [TRIVIAL] N grid points -> N data rows; headers fixed by contract
        sidecar = cmd_rabi(config, "01", (0,), amp=0.4, t_max=300.0, points=24, out_dir=str(tmp_path))
        path = tmp_path / "rabi_01_c0.csv"
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "t_ns," + CSV_POP_HEADERS
        assert len(lines) == 25
        assert "control_0" in sidecar["fits"]

    def test_sidecar_json_written(self, config, tmp_path):
        cmd_rabi(config, "01", (0,), amp=0.4, t_max=300.0, points=24, out_dir=str(tmp_path))
        sidecar = json.loads((tmp_path / "rabi_01.json").read_text())
        assert sidecar["subspace"] == "01"
        assert "freq_ghz" in sidecar["fits"]["control_0"]

    def test_byte_identical_rerun(self, config, tmp_path):
        # end-to-end determinism: identical config -> identical bytes
        d1, d2 = tmp_path / "a", tmp_path / "b"
        for d in (d1, d2):
            cmd_rabi(config, "01", (0,), amp=0.4, t_max=300.0, points=24, out_dir=str(d))
        for name in ("rabi_01_c0.csv", "rabi_01.json"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_failed_fit_recorded_in_sidecar(self, config, tmp_path, monkeypatch):
        import qutritcr.fitting

        # no Gauss-Newton step allowed: the fit cannot converge
        monkeypatch.setattr(qutritcr.fitting, "_MAX_STEPS", 0)
        sidecar = cmd_rabi(config, "01", (0,), amp=0.4, t_max=300.0, points=24, out_dir=str(tmp_path))
        assert sidecar["fits"]["control_0"]["error"] == "NoOscillation"
        on_disk = json.loads((tmp_path / "rabi_01.json").read_text())
        assert on_disk["fits"]["control_0"]["error"] == "NoOscillation"

    def test_grid_validation(self, config, tmp_path):
        with pytest.raises(InvalidParams):
            cmd_rabi(config, "01", (0,), t_max=10.0, points=24, out_dir=str(tmp_path))

    def test_unknown_subspace_rejected_before_any_file(self, config, tmp_path):
        with pytest.raises(InvalidParams, match="subspace"):
            cmd_rabi(config, "02", (0,), amp=0.4, t_max=300.0, points=24, out_dir=str(tmp_path / "out"))
        assert not (tmp_path / "out").exists()

    def test_unknown_control_state_rejected_before_any_file(self, config, tmp_path):
        with pytest.raises(InvalidParams, match="control"):
            cmd_rabi(config, "01", (0, 3), amp=0.4, t_max=300.0, points=24, out_dir=str(tmp_path / "out"))
        assert not (tmp_path / "out").exists()

    def test_csv_matches_a_hand_written_file(self, config, tmp_path, monkeypatch):
        # 0.99999999996, 6e-11 and 2/3 round up at the 10th decimal; the grid
        # time 48.818897637795274 needs all 17 digits of its repr
        times = np.array([40.0, 44.40944881889764, 48.818897637795274])
        pops = np.zeros((3, 9))
        pops[0, 0] = 1.0
        pops[1, :2] = 0.99999999996, 6e-11
        pops[2, :4] = 2.0 / 3.0, 1.0 / 3.0, 1e-12, 0.12345678904
        trace = SimpleNamespace(times=times, populations=pops, observable=pops[:, 1])

        def no_fit(times, values):
            raise NoOscillation("not fitted here")

        monkeypatch.setattr(experiments, "run_rabi_scan", lambda *args: trace)
        monkeypatch.setattr(experiments, "fit_rabi", no_fit)
        cmd_rabi(config, "01", (0,), amp=0.4, t_max=300.0, points=24, out_dir=str(tmp_path))
        expected = (Path(__file__).parent / "data" / "rabi_small.csv").read_bytes()
        assert (tmp_path / "rabi_01_c0.csv").read_bytes() == expected

    def test_one_format_call_equals_the_row_loop(self, rng):
        times = np.concatenate([np.linspace(0.0, 560.0, 500) + 40.0, rng.uniform(40.0, 640.0, 500)])
        amps = rng.normal(size=(1000, 9)) + 1j * rng.normal(size=(1000, 9))
        pops = np.abs(amps) ** 2 / np.sum(np.abs(amps) ** 2, axis=1, keepdims=True)
        # half the entries a hair off a tie at the 10th decimal
        near_tie = (rng.integers(0, 10**10, size=(500, 9)) + 0.5) / 1e10
        pops[::2] = near_tie + rng.choice([-1e-17, 0.0, 1e-17], size=near_tie.shape)
        loop = "".join(f"{float(t)!r}," + ",".join(f"{x:.10f}" for x in row) + "\n" for t, row in zip(times, pops))
        assert experiments._rabi_csv_rows(times, pops) == loop

    def test_time_column_parses_back_to_the_simulated_time(self, config, tmp_path):
        cmd_rabi(config, "12", (0,), amp=0.4, t_max=300.0, points=24, out_dir=str(tmp_path))
        rows = np.loadtxt(tmp_path / "rabi_12_c0.csv", delimiter=",", skiprows=1)
        t0 = 2.0 * config.risefall
        expected = np.linspace(0.0, 300.0 - t0, 24) + t0
        assert np.all(np.abs(rows[:, 0] - expected) <= np.spacing(expected))


class TestCmdBell:
    @pytest.fixture(scope="class")
    def bell_result(self, config, cal_store):
        return cmd_bell(config, cal_store, method="store")

    def test_metrics_present(self, bell_result):
        names = [m.name for m in bell_result.metrics]
        assert names == ["bell_fidelity", "bell_fidelity_sampled", "bell_concurrence"]

    def test_duration_is_sum_of_segments(self, bell_result, cal_store):
        total = sum(cal_store.get(n).duration for n in bell_result.extras["segments"])
        assert bell_result.duration_ns == pytest.approx(total)

    def test_shot_estimate_converges(self, config, cal_store):
        # sampled fidelity approaches the exact value as shots grow
        exact = cmd_bell(config, cal_store, method="store").metrics[0].value
        errs = []
        for shots in (10**3, 10**4, 10**5):
            seeds_err = []
            for seed in range(5):
                cfg = replace(config, shots=shots, seed=seed)
                res = cmd_bell(cfg, cal_store, method="store")
                seeds_err.append(abs(res.metrics[1].value - exact))
            errs.append(np.mean(seeds_err))
        assert errs[2] < errs[0]
        assert errs[2] < 5e-3

    def test_outputs_written_and_deterministic(self, config, cal_store, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        for d in (d1, d2):
            cmd_bell(config, cal_store, out_dir=str(d), method="store")
        for name in ("bell_result.json", "bell_metrics.jsonl"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
        payload = json.loads((d1 / "bell_result.json").read_text())
        assert payload["pipeline"] == "bell"
        assert payload["config_hash"] == config.fingerprint()

    def test_a_numpy_seed_writes_the_same_files(self, config, cal_store, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        cmd_bell(config, cal_store, out_dir=str(d1), method="store")
        cmd_bell(replace(config, seed=np.int64(config.seed)), cal_store, out_dir=str(d2), method="store")
        for name in ("bell_result.json", "bell_metrics.jsonl"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_full_and_store_methods_agree(self, config, cal_store, bell_result):
        # every stored unitary is its schedule's full-model propagator
        full = cmd_bell(config, cal_store, method="full")
        for k in (0, 2):  # fidelity, concurrence
            assert abs(full.metrics[k].value - bell_result.metrics[k].value) <= 1e-9

    def test_rwa_and_store_methods_agree(self, config, cal_store):
        # the stored phases are optimal for the full model, not the RWA
        # dynamics, so the RWA re-propagation carries a small residual
        # Stark-phase mismatch; both land in the same fidelity band
        f_store = cmd_bell(config, cal_store, method="store").metrics[0].value
        f_rwa = cmd_bell(config, cal_store, method="rwa").metrics[0].value
        assert abs(f_store - f_rwa) < 1e-2
        assert f_rwa >= 0.95

    def test_unknown_method_rejected_before_propagation(self, config, cal_store, tmp_path, monkeypatch):
        def propagated(*args):
            raise AssertionError("propagated a gate")

        monkeypatch.setattr(experiments, "full_model_unitary", propagated)
        monkeypatch.setattr(experiments, "rwa_unitary", propagated)
        with pytest.raises(InvalidParams, match="'Full '"):
            cmd_bell(config, cal_store, str(tmp_path / "bell"), method="Full ")
        assert not (tmp_path / "bell").exists()


def _fidelity_measurement_basis(target):
    """Unitary whose first row projects onto the target state: the
    Gram-Schmidt completion of target.conj() with the computational basis."""
    cols = [target.conj()]
    for k in range(9):
        v = np.zeros(9, dtype=complex)
        v[k] = 1.0
        for c in cols:
            v = v - c * np.vdot(c, v)
        n = np.linalg.norm(v)
        if n > 1e-9:
            cols.append(v / n)
    return np.array(cols[:9])


class TestBellShotEstimatePinned:
    """cmd_bell's shot estimates, drawn here the long way from the state the
    stored gates prepare: a nine-outcome measurement in a basis holding the
    Bell state, and 200 bootstrap resamples drawn one call at a time."""

    @pytest.mark.parametrize("shots", [100_000, 2_000, 1])
    def test_matches_a_full_measurement_and_a_stepwise_bootstrap(self, config, cal_store, shots):
        from dataclasses import replace

        from qutritcr.effective import bell_state
        from qutritcr.linalg import ket2
        from qutritcr.metrics import concurrence

        basis = _fidelity_measurement_basis(bell_state())
        for seed in range(50):
            res = cmd_bell(replace(config, seed=seed, shots=shots), cal_store, method="store")
            psi = ket2(0, 0)
            for name in res.extras["segments"]:
                psi = cal_store.get(name).unitary @ psi
            psi = np.exp(1j * np.array(res.extras["correction_angles_rad"])).repeat(3) * psi

            counts = sample_shots(np.abs(basis @ psi) ** 2, shots, seed)
            f_hat = counts[0] / shots
            sampled = res.metrics[1]
            assert sampled.value == f_hat, seed
            assert sampled.stderr == float(np.sqrt(max(f_hat * (1.0 - f_hat), 1e-12) / shots)), seed

            rng = np.random.default_rng(seed + 1)
            pops = np.abs(psi) ** 2
            pops = pops / pops.sum()
            phases = np.exp(1j * np.angle(psi))
            boot = [concurrence(np.sqrt(rng.multinomial(shots, pops) / shots) * phases) for _ in range(200)]
            assert res.metrics[2].stderr == float(np.std(boot)), seed


def test_the_pipeline_steps_only_by_the_exponent_table(config, cal_store, tmp_path):
    # every gate the pipeline builds drives one channel, so its Magnus
    # blocks take the exponent table, and the m > 2 route of plays on both
    # channels (``propagate._commutator_exponents``) is written for clarity,
    # not speed.  A gate that drives both channels fails here, and says so
    from unittest import mock

    from qutritcr import crpulse, propagate
    from qutritcr.experiments import BELL_METHODS, GATE_SET

    crpulse.cr_pulse.cache_clear()  # each Rabi sweep steps its CR rise afresh
    with (
        mock.patch.object(propagate, "_commutator_exponents", wraps=propagate._commutator_exponents) as commutators,
        mock.patch.object(propagate, "_table_exponents", wraps=propagate._table_exponents) as table,
    ):
        for method in BELL_METHODS:
            cmd_bell(config, cal_store, method=method)
        cmd_rabi(config, "01", amp=0.5, out_dir=str(tmp_path / "rabi01"))
        cmd_rabi(config, "12", amp=0.11, out_dir=str(tmp_path / "rabi12"))
        for name in GATE_SET:
            schedule = cal_store.get(name).schedule
            propagate.rwa_unitary(config.device, schedule)
            propagate.full_model_unitary(config.device, schedule)
    assert commutators.call_count == 0
    assert table.call_count > 0
