import numpy as np
import pytest
from hypothesis import settings

from fcpolar.codes import _assemble, build_example1, build_nr_code

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


def _random_code(rng, n=4):
    """Random length-2^n code, any n >= 1: a random A/P/F split with K >= 1
    information and r <= 3 parity bits (K + r <= N), random causal taps."""
    N = 1 << n
    K = int(rng.integers(1, N + 1))
    r = int(rng.integers(0, min(3, N - K) + 1))
    order = rng.permutation(N)
    allocated = np.sort(order[:K + r])
    A = tuple(int(v) for v in allocated[:K])
    P = tuple(int(v) for v in allocated[K:])
    F = tuple(int(v) for v in sorted(set(range(N)) - set(A) - set(P)))
    T = np.eye(N, dtype=np.uint8)
    for j in P:
        # taps only on non-parity rows keep v -> vT consistent with H
        for k in range(j):
            if k not in P:
                T[k, j] = rng.integers(0, 2)
    return _assemble(n, N, A, P, F, T, None)


@pytest.fixture(scope="session")
def random_code():
    """The random-code builder: random_code(rng, n=4)."""
    return _random_code
