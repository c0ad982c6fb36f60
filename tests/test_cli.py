import json

import pytest
from click.testing import CliRunner

from qutritcr import experiments
from qutritcr.cli import main


@pytest.fixture
def runner():
    return CliRunner()


def test_help(runner):
    res = runner.invoke(main, ["--help"])
    assert res.exit_code == 0
    for cmd in ("rabi", "calibrate", "bell", "gatefid"):
        assert cmd in res.output


def test_rabi_command(runner, tmp_path):
    res = runner.invoke(
        main,
        ["rabi", "--subspace", "01", "--control", "0", "--amp-ghz", "0.4",
         "--t-max-ns", "300", "--points", "24", "--out", str(tmp_path)],
    )
    assert res.exit_code == 0, res.output
    assert (tmp_path / "rabi_01_c0.csv").exists()
    assert "control_0" in res.output


def test_rabi_rejects_bad_grid(runner, tmp_path):
    res = runner.invoke(
        main,
        ["rabi", "--subspace", "01", "--control", "0", "--t-max-ns", "5",
         "--points", "4", "--out", str(tmp_path)],
    )
    assert res.exit_code != 0


def test_rabi_rejects_too_few_points(runner, tmp_path):
    # fit_rabi needs MIN_SAMPLES points; fewer must fail before any CSV
    res = runner.invoke(
        main,
        ["rabi", "--subspace", "01", "--control", "0", "--points", "8", "--out", str(tmp_path)],
    )
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert "at least 16 points" in res.output
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("t_max", ["inf", "nan"])
def test_rabi_rejects_a_non_finite_t_max(runner, tmp_path, t_max):
    res = runner.invoke(
        main,
        ["rabi", "--subspace", "01", "--control", "0", "--t-max-ns", t_max, "--out", str(tmp_path)],
    )
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert "Error:" in res.output and "Traceback" not in res.output
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("amp", ["nan", "inf", "-inf"])
def test_rabi_rejects_a_non_finite_amp_before_any_directory(runner, tmp_path, amp):
    out = tmp_path / "out"
    res = runner.invoke(
        main,
        ["rabi", "--subspace", "01", "--control", "0", "--amp-ghz", amp, "--out", str(out)],
    )
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert "Error:" in res.output and "Traceback" not in res.output
    assert not out.exists()


def test_rabi_rejects_too_many_points_before_allocating(runner, tmp_path):
    # 1e11 points would ask np.linspace for 745 GiB
    out = tmp_path / "out"
    res = runner.invoke(
        main,
        ["rabi", "--subspace", "01", "--control", "0", "--points", "100000000000", "--out", str(out)],
    )
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert "Error:" in res.output and "Traceback" not in res.output
    assert not out.exists()


def test_bell_requires_matching_store(runner, tmp_path):
    store = tmp_path / "cal.json"
    store.write_text(json.dumps({"fingerprint": "stale", "gates": {}}))
    res = runner.invoke(main, ["bell", "--store", str(store)])
    assert res.exit_code != 0
    assert "calibrate" in res.output


@pytest.mark.parametrize("shape", ["list", "gates_list", "schedule_object"])
def test_store_of_wrong_json_shape_is_reported_without_traceback(runner, config, tmp_path, shape):
    fp = config.fingerprint()
    payload = {
        "list": [],
        "gates_list": {"fingerprint": fp, "gates": []},
        "schedule_object": {"fingerprint": fp, "gates": {"x01_pi_1": {"name": "x01_pi_1", "schedule": {"channel": 1}}}},
    }[shape]
    store = tmp_path / "cal.json"
    store.write_text(json.dumps(payload))
    res = runner.invoke(main, ["gatefid", "--gate", "x01_pi_1", "--store", str(store)])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert "no calibration store matching" in res.output


def test_gatefid_and_bell_with_store(runner, cal_store, config, tmp_path, monkeypatch):
    res = runner.invoke(main, ["gatefid", "--gate", "csx12", "--store", cal_store.path])
    assert res.exit_code == 0, res.output
    assert "csx12" in res.output

    out = tmp_path / "bell"
    res = runner.invoke(
        main,
        ["bell", "--store", cal_store.path, "--method", "store",
         "--shots", "2000", "--out", str(out)],
    )
    assert res.exit_code == 0, res.output
    assert "bell_fidelity" in res.output
    assert (out / "bell_metrics.jsonl").exists()


def test_leakage_is_printed_where_measured_and_na_elsewhere(runner, cal_store):
    res = runner.invoke(main, ["calibrate", "--store", cal_store.path])
    assert res.exit_code == 0, res.output
    rows = {line.split()[0]: line.split()[2] for line in res.output.splitlines()[1:] if line.strip()}
    assert sorted(rows) == sorted(experiments.GATE_SET)
    for name, leak in rows.items():
        g = cal_store.get(name)
        assert leak == ("n/a" if g.leakage is None else f"{g.leakage:.2e}"), name
    assert [rows[n] for n in ("h3_1", "cr01_pi", "csx12")] == ["n/a"] * 3
    res = runner.invoke(main, ["gatefid", "--gate", "csx12", "--store", cal_store.path])
    assert "leakage n/a," in res.output
    res = runner.invoke(main, ["gatefid", "--gate", "x01_pi_1", "--store", cal_store.path])
    assert f"leakage {cal_store.get('x01_pi_1').leakage:.2e}," in res.output


def _unwritable(tmp_path):
    """A path whose parent is a regular file."""
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    return blocker / "out"


def _assert_error_exit(res):
    assert res.exit_code == 1, res.output
    assert isinstance(res.exception, SystemExit)
    assert "Error:" in res.output and "Traceback" not in res.output


def test_calibrate_rejects_a_missing_store_directory_before_tuning(runner, tmp_path, monkeypatch):
    def tuned(*args, **kwargs):
        raise AssertionError("ran a tune-up")

    monkeypatch.setattr(experiments, "calibrate_single_qutrit", tuned)
    monkeypatch.setattr(experiments, "calibrate_cr_gate", tuned)
    res = runner.invoke(main, ["calibrate", "--store", str(tmp_path / "missing" / "cal.json")])
    _assert_error_exit(res)
    assert "missing" in res.output


def test_rabi_reports_an_unwritable_out_directory(runner, tmp_path):
    res = runner.invoke(
        main,
        ["rabi", "--subspace", "01", "--control", "0", "--points", "16", "--out", str(_unwritable(tmp_path))],
    )
    _assert_error_exit(res)


def test_bell_reports_an_unwritable_out_directory(runner, cal_store, tmp_path):
    res = runner.invoke(
        main,
        ["bell", "--store", cal_store.path, "--method", "store", "--out", str(_unwritable(tmp_path))],
    )
    _assert_error_exit(res)


def test_env_seed_override(runner, cal_store, config, monkeypatch):
    monkeypatch.setenv("QUTRITCR_SEED", "123")
    res = runner.invoke(
        main,
        ["bell", "--store", cal_store.path, "--method", "store", "--seed", "7"],
    )
    assert res.exit_code == 0, res.output
    # the sampled metric reflects seed 123, not the --seed flag
    from dataclasses import replace

    from qutritcr.experiments import cmd_bell

    expected = cmd_bell(replace(config, seed=123), cal_store, method="store")
    assert f"{expected.metrics[1].value:.6f}" in res.output


@pytest.mark.parametrize(
    "config_text,env_seed,extra,message",
    [
        ('{"bogus_key": 1}', None, [], "unknown config keys"),
        ('{"seed": 3,', None, [], "is not valid JSON"),
        (None, "abc", [], "QUTRITCR_SEED must be an integer"),
        (None, "-4", [], "seed must be >= 0"),
        (None, None, ["--shots", "0"], "shots must be >= 1"),
        # one past numpy's int64 draw limit, by flag and by config file
        (None, None, ["--shots", "9223372036854775808"], "shots must be <= 9223372036854775807"),
        ('{"shots": 9223372036854775808}', None, [], "shots must be <= 9223372036854775807"),
        # an integer of 5,000 digits is past Python's integer-parsing limit: the JSON reader raises ValueError
        ('{"cr01_amp_ghz": 1%s}' % ("0" * 5000), None, [], "is not valid JSON"),
    ],
    ids=["unknown_key", "malformed_json", "seed_not_int", "seed_negative", "zero_shots", "shots_too_large",
         "config_shots_too_large", "config_int_digit_limit"],
)
def test_config_errors_are_reported_without_traceback(runner, tmp_path, monkeypatch, config_text, env_seed, extra, message):
    store = tmp_path / "cal.json"
    store.write_text(json.dumps({"fingerprint": "stale", "gates": {}}))
    args = ["bell", "--store", str(store), *extra]
    if config_text is not None:
        cfg = tmp_path / "config.json"
        cfg.write_text(config_text)
        args += ["--config", str(cfg)]
    if env_seed is None:
        monkeypatch.delenv("QUTRITCR_SEED", raising=False)
    else:
        monkeypatch.setenv("QUTRITCR_SEED", env_seed)
    res = runner.invoke(main, args)
    assert res.exit_code == 1
    # a handled error exits through SystemExit; anything else would be a traceback
    assert isinstance(res.exception, SystemExit)
    assert message in res.output
    assert "Traceback" not in res.output


@pytest.mark.parametrize(
    "config,message",
    [
        ({"seed": "abc"}, "seed must be an integer"),
        ({"seed": True}, "seed must be an integer"),
        ({"shots": 1.5}, "shots must be an integer"),
        ({"cr01_amp_ghz": None}, "cr01_amp_ghz must be a finite number"),
        ({"device": 5}, "device config must be a JSON object"),
        ({"device": {"omega1_ghz": "5"}}, "device omega1_ghz must be a finite number"),
        # past the float range: math.isfinite raised OverflowError
        ({"device": {"omega1_ghz": 10**400}}, "device omega1_ghz must be a finite number"),
        ({"cr01_amp_ghz": 10**400}, "cr01_amp_ghz must be a finite number"),
        ({"cr01_amp_ghz": True}, "cr01_amp_ghz must be a finite number"),
        ({"risefall_ns": 0}, "risefall_ns, sq_duration_ns and sq_sigma_ns must be > 0"),
        ({"sq_sigma_ns": -8.0}, "risefall_ns, sq_duration_ns and sq_sigma_ns must be > 0"),
        ({"sq_duration_ns": 0.0}, "risefall_ns, sq_duration_ns and sq_sigma_ns must be > 0"),
    ],
    ids=["seed_str", "seed_bool", "shots_float", "amp_null", "device_int", "device_field_str", "device_field_huge",
         "amp_huge", "amp_bool", "risefall_zero", "sigma_negative", "duration_zero"],
)
def test_config_values_of_wrong_type_or_range_are_rejected(runner, tmp_path, config, message):
    store = tmp_path / "cal.json"
    store.write_text(json.dumps({"fingerprint": "stale", "gates": {}}))
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(config))
    res = runner.invoke(main, ["gatefid", "--gate", "cr01_pi", "--store", str(store), "--config", str(cfg)])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert f"Error: {message}" in res.output
    assert "Traceback" not in res.output


@pytest.mark.parametrize(
    "command",
    [
        ["rabi", "--subspace", "01", "--points", "16", "--out", "{dir}/out"],
        ["calibrate", "--store", "{dir}/new.json"],
        ["bell", "--store", "{dir}/cal.json"],
        ["gatefid", "--gate", "cr01_pi", "--store", "{dir}/cal.json"],
    ],
    ids=["rabi", "calibrate", "bell", "gatefid"],
)
def test_every_command_reports_a_bad_config_without_traceback(runner, tmp_path, command):
    (tmp_path / "cal.json").write_text(json.dumps({"fingerprint": "stale", "gates": {}}))
    cfg = tmp_path / "config.json"
    cfg.write_text('{"bogus_key": 1}')
    args = [a.format(dir=tmp_path) for a in command] + ["--config", str(cfg)]
    res = runner.invoke(main, args)
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert "Error: unknown config keys" in res.output
    assert "Traceback" not in res.output


def test_bell_on_a_store_with_a_non_finite_start_reports_no_matching_store(runner, cal_store, config, tmp_path):
    with open(cal_store.path) as f:
        payload = json.load(f)
    payload["gates"]["x01_pi_2"]["schedule"][0]["start_ns"] = float("nan")
    store = tmp_path / "cal.json"
    store.write_text(json.dumps(payload))
    res = runner.invoke(main, ["bell", "--store", str(store), "--method", "store"])
    _assert_error_exit(res)
    assert "no calibration store matching" in res.output
