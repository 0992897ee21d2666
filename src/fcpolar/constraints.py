"""Conversion of future constraints into instant constraint systems.

A future constraint is a column c of H with index in the complement of A:
it ties u_c to earlier input bits. During sequential decoding of bit i, the
columns with index in L_i = {k >= i : k not in A} cannot be evaluated yet;
they are converted into instant systems that reference only the already
hypothesized prefix and partial-transform values x^(t) on one block of the
decoding tree:

    prefix . H[0:i, L] + x_block^(t) . Q = 0

with Q built from the t-fold kernel power. Systems never reference anything
below the current stage, so they can be evaluated (and message-passed over)
mid-decode.

The two kinds of future constraint build differently. codes._assemble makes
the column of H of a frozen bit c the unit column e_c, so its check is
u_c = 0: column c - lo of the kernel power (Arikan 2009), with no offset,
and it takes no product. Only a parity (dynamic frozen) bit reads the past,
through its rows of H, so only parity columns take a GF(2) product.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .codes import CodeSpec
from .gf2 import kron_power, mat_mul

__all__ = [
    "FcIndexSets",
    "future_constraints",
    "global_Q",
]


@dataclass(frozen=True)
class FcIndexSets:
    """Future-constraint columns of bit i, split by tree stage.

    per_stage[t] holds the columns whose instant system lives at stage t;
    per_stage[0] is the (at most one) column consumed by the processing-bit
    comparison itself. The union over t recovers all of L_i.
    """

    L: tuple[int, ...]
    per_stage: tuple[tuple[int, ...], ...]


def _block(i: int, t: int) -> tuple[int, int]:
    s = (i >> t) << t
    return s, s + (1 << t)


def future_constraints(spec: CodeSpec, i: int) -> FcIndexSets:
    """Index sets L_i and their stage partition L_{i,t}.

    i = N is allowed and yields empty sets: past the last index nothing
    remains to convert, so L_{ell+1} of the last processing index is empty.
    """
    if not 0 <= i <= spec.N:
        raise ValueError(f"bit index {i} out of range")
    L = tuple((i + np.flatnonzero(~spec.info_mask[i:])).tolist())
    per_stage = [tuple(k for k in L if k == i)]
    for t in range(1, spec.n + 1):
        lo, hi = _block(i, t)
        prev_lo, prev_hi = _block(i, t - 1)
        per_stage.append(tuple(k for k in L if lo <= k < hi and not prev_lo <= k < prev_hi))
    return FcIndexSets(L=L, per_stage=tuple(per_stage))


def global_Q(spec: CodeSpec) -> np.ndarray:
    """Codeword-domain constraint matrix Q = G H', satisfying x Q = 0."""
    return mat_mul(spec.generator, spec.H_prime)


# The columns of a stage whose block T(ell, t) holds ell in its upper half.
_NO_COLUMNS = np.zeros(0, dtype=np.intp)


@lru_cache(maxsize=None)
def _kernel_f32(t: int) -> np.ndarray:
    """kron_power(t) as float32, read-only: mat_mul's operand type, so a
    parity product converts only its small H block."""
    kernel = kron_power(t).astype(np.float32)
    kernel.setflags(write=False)
    return kernel


def system_structure(spec: CodeSpec, ell: int, t: int) -> tuple:
    """Hypothesis-independent part of the stage-t systems, memoized.

    Returns (cols, Q, offset_rows); offsets for a concrete prefix are
    prefix . offset_rows. The columns are the indices of block T(ell, t)
    minus T(ell, t - 1) that lie above ell and outside A, ascending: the
    upper half of T(ell, t) when ell sits in its lower half, none
    otherwise. Over t = 1..n they partition L_{ell+1}. The batch engines'
    FCCN round is products with Q; the members of check j are the support
    of column j of Q.

    Q[:, j] = kron_power(t)[:, ell + 1 - lo:] . H[ell + 1:hi, c_j] and the
    offset rows are H[:ell + 1, cols], with lo, hi the bounds of T(ell, t).
    Only the parity columns take that product: a frozen c has H[:, c] = e_c
    with c > ell, so its Q column is kron_power(t)[:, c - lo] and its offset
    column is zero. A stage without columns takes no work at all.
    """
    if not 1 <= t <= spec.n:
        raise ValueError(f"stage {t} out of range")
    key = ("sys", ell, t)
    cached = spec._cache.get(key)
    if cached is None:
        lo, hi = _block(ell, t)
        start = _block(ell, t - 1)[1]
        cols = (start + np.flatnonzero(~spec.info_mask[start:hi])
                if start < hi else _NO_COLUMNS)
        Q = np.zeros((hi - lo, cols.size), dtype=np.uint8)
        offsets = np.zeros((ell + 1, cols.size), dtype=np.uint8)
        if cols.size:
            par = spec.parity_mask[cols]
            Q[:, ~par] = kron_power(t)[:, cols[~par] - lo]
            if par.any():
                Q[:, par] = mat_mul(_kernel_f32(t)[:, ell + 1 - lo:],
                                    spec.H[ell + 1:hi, cols[par]])
                offsets[:, par] = spec.H[:ell + 1, cols[par]]
        cached = (tuple(cols.tolist()), Q, offsets)
        spec._cache[key] = cached
    return cached
