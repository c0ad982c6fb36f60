"""Which scipy modules a process loads, and the lazy scipy wrappers, two of
which ``bench/tracer.py`` rebinds."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from qutritcr import calibrate, propagate
from qutritcr.effective import ideal_ucr

SRC = Path(__file__).resolve().parent.parent / "src"

# The CLI import, then what rabi, gatefid and bell --method rwa|store do: a
# small Rabi sweep, the dressed transitions, an ideal CR gate, a phase solve
# and a DRAG gate under the RWA; the scipy modules loaded after those, and
# after a bounded search.
_PROBE = """
import json, sys
import numpy as np
import qutritcr.cli
from qutritcr import calibrate
from qutritcr.device import DeviceParams, transition_frequencies
from qutritcr.effective import ideal_ucr
from qutritcr.experiments import ExperimentConfig, cmd_rabi
from qutritcr.propagate import rwa_unitary
from qutritcr.pulses import DragGaussian, Play, Schedule

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

p = DeviceParams()
cmd_rabi(ExperimentConfig(), "01", (0, 1), 0.3, 200.0, 16, sys.argv[1])
carrier = transition_frequencies(p, dressed=True).w01_1
calibrate.optimize_phase_correction(ideal_ucr("01", np.pi), ideal_ucr("01", np.pi))
rwa_unitary(p, Schedule((Play(1, 0.0, DragGaussian(0.03, 8.0, 32.0, 0.5), carrier),)))
before_search = scipy_modules()
calibrate.minimize_scalar(lambda x: (x - 1.0) ** 2, bounds=(0.0, 2.0), method="bounded")
print(json.dumps([before_search, scipy_modules()]))
"""


def test_rabi_and_phase_solves_never_load_the_optimizer_or_integrator(tmp_path):
    # nor any other scipy module: every eigh runs on numpy
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run(
        [sys.executable, "-c", _PROBE, str(tmp_path)], env=env, capture_output=True, text=True, timeout=120, check=True
    )
    before_search, after_search = json.loads(out.stdout.splitlines()[-1])
    assert before_search == []
    # the first bounded search loads scipy.optimize
    assert "scipy.optimize" in after_search
    assert (tmp_path / "rabi_01_c1.csv").is_file()


def test_the_tracer_hooks_are_module_attributes():
    # bench/tracer.py rebinds minimize and solve_ivp in every qutritcr module
    # that holds them; minimize_scalar, which it leaves alone, is the other
    # lazy scipy wrapper
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
