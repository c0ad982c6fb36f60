"""Which scipy modules a process loads, and the optimizer and integrator
names that ``bench/tracer.py`` rebinds."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from qutritcr import calibrate, propagate
from qutritcr.effective import ideal_ucr

SRC = Path(__file__).resolve().parent.parent / "src"

# One small Rabi sweep and one phase solve, then the scipy modules loaded.
_PROBE = """
import json, sys
import numpy as np
import qutritcr.cli
from qutritcr import calibrate
from qutritcr.effective import ideal_ucr
from qutritcr.experiments import ExperimentConfig, cmd_rabi

lazy = ("scipy.optimize", "scipy.integrate")
cmd_rabi(ExperimentConfig(), "01", (0, 1), 0.3, 200.0, 16, sys.argv[1])
after_rabi = [m for m in lazy if m in sys.modules]
calibrate.optimize_phase_correction(ideal_ucr("01", np.pi), ideal_ucr("01", np.pi))
after_phase_solve = [m for m in lazy if m in sys.modules]
calibrate.minimize_scalar(lambda x: (x - 1.0) ** 2, bounds=(0.0, 2.0), method="bounded")
after_search = [m for m in lazy if m in sys.modules]
print(json.dumps([after_rabi, after_phase_solve, after_search, "scipy.linalg" in sys.modules]))
"""


def test_rabi_and_phase_solves_never_load_the_optimizer_or_integrator(tmp_path):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run(
        [sys.executable, "-c", _PROBE, str(tmp_path)], env=env, capture_output=True, text=True, timeout=120, check=True
    )
    after_rabi, after_phase_solve, after_search, linalg = json.loads(out.stdout.splitlines()[-1])
    assert after_rabi == []
    assert after_phase_solve == []
    # the first bounded search loads scipy.optimize; every eigh runs on scipy.linalg from the start
    assert "scipy.optimize" in after_search
    assert linalg
    assert (tmp_path / "rabi_01_c1.csv").is_file()


def test_the_tracer_hooks_are_module_attributes():
    # bench/tracer.py rebinds these names in every qutritcr module that holds them
    for module, name in ((calibrate, "minimize"), (calibrate, "minimize_scalar"), (propagate, "solve_ivp")):
        assert callable(vars(module)[name]), name


def test_a_phase_solve_through_minimize_returns_its_evaluations(monkeypatch):
    # the tracer reads nfev off every result calibrate.minimize returns
    results = []
    real = calibrate.minimize

    def hooked(*args, **kwargs):
        res = real(*args, **kwargs)
        results.append(res)
        return res

    monkeypatch.setattr(calibrate, "minimize", hooked)
    u = ideal_ucr("12", np.pi / 2.0) * np.exp(0.3j * np.arange(9))
    calibrate.optimize_phase_correction(u, ideal_ucr("12", np.pi / 2.0))
    assert len(results) == 2  # the pinned solve, then the free one
    for res in results:
        assert isinstance(res.nfev, int) and res.nfev >= 1
        assert res.success
        assert np.isfinite(res.fun) and res.x.shape in ((4,), (5,))
