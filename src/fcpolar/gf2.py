"""Dense GF(2) matrix helpers on top of numpy uint8 arrays.

Matrices are row-major numpy arrays with entries in {0, 1} and dtype uint8.
Index sets are always ascending. format_matrix writes a plain text form:
first line "rows cols", then one line of 0/1 characters per row.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = [
    "KERNEL",
    "kron_power",
    "mat_mul",
    "gf2_rank",
    "format_matrix",
]

KERNEL = np.array([[1, 0], [1, 1]], dtype=np.uint8)


@lru_cache(maxsize=None)
def kron_power(n: int) -> np.ndarray:
    """n-fold Kronecker power of the 2x2 polar kernel [[1,0],[1,1]].

    Returns a read-only (2^n, 2^n) uint8 array; kron_power(0) is [[1]].
    """
    if n < 0:
        raise ValueError("kron_power needs n >= 0")
    m = np.array([[1]], dtype=np.uint8)
    for _ in range(n):
        m = np.kron(m, KERNEL)
    m.setflags(write=False)
    return m


def mat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product over GF(2) of 0/1 or boolean operands, as uint8.

    Through float32 BLAS, much faster than an integer matmul on the wide
    trial-batch operands; exact while the inner dimension (at most N) is
    below 2^24.
    """
    prod = np.asarray(a, dtype=np.float32) @ np.asarray(b, dtype=np.float32)
    return (prod.astype(np.int64) & 1).astype(np.uint8)


def gf2_rank(m: np.ndarray) -> int:
    """Rank over GF(2), by elimination on rows packed into python ints."""
    pivots: dict[int, int] = {}
    for row in np.asarray(m, dtype=np.uint8):
        cur = int.from_bytes(np.packbits(row).tobytes(), "big")
        while cur:
            high = cur.bit_length()
            if high in pivots:
                cur ^= pivots[high]
            else:
                pivots[high] = cur
                break
    return len(pivots)


def format_matrix(m: np.ndarray) -> str:
    m = np.atleast_2d(np.asarray(m, dtype=np.uint8))
    lines = [f"{m.shape[0]} {m.shape[1]}"]
    lines.extend("".join("1" if v else "0" for v in row) for row in m)
    return "\n".join(lines) + "\n"
