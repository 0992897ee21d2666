"""GF(2) linear algebra: kernel powers, products, rank, serialization."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcpolar.gf2 import KERNEL, format_matrix, gf2_rank, kron_power, mat_mul


def _rank_oracle(m):
    """Rank by plain row reduction over a working copy."""
    a = np.array(m, dtype=np.uint8) % 2
    rank = 0
    rows, cols = a.shape
    for c in range(cols):
        pivot = next((r for r in range(rank, rows) if a[r, c]), None)
        if pivot is None:
            continue
        a[[rank, pivot]] = a[[pivot, rank]]
        for r in range(rows):
            if r != rank and a[r, c]:
                a[r] ^= a[rank]
        rank += 1
    return rank


def test_kron_power_base_cases():
    assert kron_power(0).tolist() == [[1]]
    assert np.array_equal(kron_power(1), KERNEL)
    expected2 = np.array([[1, 0, 0, 0],
                          [1, 1, 0, 0],
                          [1, 0, 1, 0],
                          [1, 1, 1, 1]], dtype=np.uint8)
    assert np.array_equal(kron_power(2), expected2)


@pytest.mark.parametrize("n", range(1, 7))
def test_kron_power_structure(n):
    g = kron_power(n)
    half = 1 << (n - 1)
    sub = kron_power(n - 1)
    assert np.array_equal(g[:half, :half], sub)
    assert np.array_equal(g[half:, half:], sub)
    assert not g[:half, half:].any()
    assert np.array_equal(g[half:, :half], sub)
    # lower triangular with unit diagonal, and involutory
    assert np.array_equal(g, np.tril(g))
    assert (np.diag(g) == 1).all()
    assert np.array_equal(mat_mul(g, g), np.eye(1 << n, dtype=np.uint8))


def test_kron_power_read_only():
    with pytest.raises(ValueError):
        kron_power(2)[0, 0] = 0
    with pytest.raises(ValueError):
        kron_power(-1)


@given(st.integers(0, 2**30 - 1), st.integers(0, 2**30 - 1))
@settings(max_examples=50)
def test_mat_mul_variants_agree(seed_a, seed_b):
    # The one product against an XOR-reduce, on 0/1 and bool operands, up
    # to inner dimension 1024, the package's largest (N = 1024).
    rng = np.random.default_rng(seed_a * 2**31 + seed_b)
    for inner in (17, 1024):
        a = rng.integers(0, 2, size=(13, inner), dtype=np.uint8)
        b = rng.integers(0, 2, size=(inner, 9), dtype=np.uint8)
        expected = np.zeros((13, 9), dtype=np.uint8)
        for i in range(13):
            for j in range(9):
                expected[i, j] = np.bitwise_xor.reduce(a[i] & b[:, j])
        for x, y in ((a, b), (a.astype(bool), b.astype(bool))):
            got = mat_mul(x, y)
            assert got.dtype == np.uint8
            assert np.array_equal(got, expected)
    # every term set: the sums reach 1023 and 1024 exactly
    ones = np.ones((1, 1024), dtype=np.uint8)
    assert mat_mul(ones[:, :1023], ones[:, :1023].T)[0, 0] == 1
    assert mat_mul(ones, ones.T)[0, 0] == 0


@given(st.integers(0, 2**30 - 1))
@settings(max_examples=50)
def test_gf2_rank_matches_row_reduction(seed):
    rng = np.random.default_rng(seed)
    m = rng.integers(0, 2, size=(rng.integers(1, 12), rng.integers(1, 12)),
                     dtype=np.uint8)
    assert gf2_rank(m) == _rank_oracle(m)


def test_gf2_rank_known_cases():
    assert gf2_rank(np.eye(5, dtype=np.uint8)) == 5
    assert gf2_rank(np.zeros((4, 4), dtype=np.uint8)) == 0
    assert gf2_rank(np.ones((3, 3), dtype=np.uint8)) == 1
    assert gf2_rank(kron_power(5)) == 32


@given(st.integers(0, 2**30 - 1))
@settings(max_examples=30)
def test_format_parse_round_trip(seed):
    rng = np.random.default_rng(seed)
    m = rng.integers(0, 2, size=(rng.integers(1, 9), rng.integers(1, 9)),
                     dtype=np.uint8)
    head, *rows = format_matrix(m).splitlines()
    assert head == f"{m.shape[0]} {m.shape[1]}"
    assert np.array_equal([[int(c) for c in row] for row in rows], m)
