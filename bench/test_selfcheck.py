"""Tracer self-check, run against the real workloads.

Every layer a workload should exercise must record work in a traced run, and
the layers the scan workload must bypass (phase correction, DOP853) must read
exactly 0 there.  This keeps a refactor that moves a binding site from
silently zeroing a layer.

    python3 -m pytest bench/test_selfcheck.py    # a few minutes: one traced run per workload
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import EXPECTED_NONZERO, EXPECTED_ZERO  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
# zero on every workload while nothing is wrong
ZERO_WHEN_HEALTHY = {"fitting.failed", "trace.selfcheck_failed"}


@pytest.fixture(scope="module")
def traced():
    out = {}
    for workload in SPEC["workloads"]:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload["name"],
             "--seed", "11", "--seconds", "1", "--trace", "1"],
            capture_output=True, text=True, timeout=900, check=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        out[workload["name"]] = {k: v["value"] for k, v in result["metrics"].items()}
        out[workload["name"]]["correct"] = result["correct"]
    return out


def test_outputs_correct_and_self_check_clean(traced):
    for workload, metrics in traced.items():
        assert metrics["correct"], workload
        assert metrics["trace.selfcheck_failed"] == 0, workload


def test_expected_layers_record_work(traced):
    for workload, keys in EXPECTED_NONZERO.items():
        assert [k for k in keys if not traced[workload][k] > 0] == [], workload


def test_scan_never_reaches_phase_correction_or_dop853(traced):
    assert EXPECTED_ZERO["scan"]
    assert {k: traced["scan"][k] for k in EXPECTED_ZERO["scan"]} == dict.fromkeys(EXPECTED_ZERO["scan"], 0.0)


def test_every_declared_layer_metric_is_measured_somewhere(traced):
    names = {m["name"] for m in SPEC["per_layer"]} - ZERO_WHEN_HEALTHY
    assert sorted(n for n in names if not any(m[n] for m in traced.values())) == []
