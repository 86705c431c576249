import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dwmix
from dwmix.config import RunConfig
from dwmix.model import build_context


@pytest.fixture(scope="session")
def config_factory():
    """Build a validated RunConfig from flat key overrides."""

    def make(**flat):
        config = RunConfig.default()
        if flat:
            config = config.replace_values(**flat)
            config.validate()
        return config

    return make


@pytest.fixture(scope="session")
def default_context():
    """Full-resolution context; pinned regression values assume this one."""
    return build_context(RunConfig.default())


@pytest.fixture(scope="session")
def coarse_context(config_factory):
    """Cheaper grid for structural tests that do not rely on pinned numbers."""
    return build_context(config_factory(**{"grid.n_points": 801}))


@pytest.fixture
def rng():
    return np.random.default_rng(20260822)


@pytest.fixture(scope="session")
def run_python():
    """Run a fresh interpreter that imports this dwmix and the test modules."""
    paths = [str(Path(dwmix.__file__).parents[1]), str(Path(__file__).parent)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))

    def run(*args):
        return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                              text=True, timeout=120)

    return run
