import os

import numpy as np
import pytest
from hypothesis import settings

from windmpc import MpcWeights, TurbineParams

# HYPOTHESIS_PROFILE=ci prints the reproduction blob of a failing draw, so it
# can be replayed with @reproduce_failure from a CI log; nothing else changes
settings.register_profile("ci", print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture(scope="session")
def params():
    return TurbineParams()


@pytest.fixture(scope="session")
def weights():
    return MpcWeights()


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
