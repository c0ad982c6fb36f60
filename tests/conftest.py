import os

import numpy as np
import pytest
from hypothesis import settings

from qutritcr.device import DeviceParams
from qutritcr.experiments import ExperimentConfig, cmd_calibrate

# On CI, a falsifying example prints its @reproduce_failure blob, so a draw
# that only CI finds can be replayed locally.
settings.register_profile("ci", print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")


@pytest.fixture(scope="session")
def device():
    return DeviceParams()


@pytest.fixture(scope="session")
def config():
    return ExperimentConfig()


@pytest.fixture(scope="session")
def cal_store(config, tmp_path_factory):
    """Full calibrated gate set; built once per session (takes a few minutes)."""
    path = tmp_path_factory.mktemp("cal") / "cal.json"
    return cmd_calibrate(config, str(path), verbose=False)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
