import numpy as np
import pytest
from hypothesis import settings

from fcpolar.codes import build_example1, build_nr_code

# Fixed examples and no per-example deadline: a property test must not flake
# on a host whose speed swings, nor pass or fail with the run's random seed.
settings.register_profile("fcpolar", deadline=None, derandomize=True)
settings.load_profile("fcpolar")


@pytest.fixture(scope="session")
def ex1():
    return build_example1()


@pytest.fixture(scope="session")
def nr64():
    return build_nr_code(64, 32, crc="nr11")


@pytest.fixture(scope="session")
def nr16():
    return build_nr_code(16, 6, crc="none")


@pytest.fixture(scope="session")
def all_ex1_messages():
    return np.array([[(m >> k) & 1 for k in range(3)] for m in range(8)],
                    dtype=np.uint8)
