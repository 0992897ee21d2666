"""Conversion of future constraints into instant constraint systems.

A future constraint is a column c of H with index in the complement of A:
it ties u_c to earlier input bits. During sequential decoding of bit i, the
columns with index in L_i = {k >= i : k not in A} cannot be evaluated yet;
they are converted into instant systems that reference only the already
hypothesized prefix and partial-transform values x^(t) on one block of the
decoding tree:

    prefix . H[0:i, L] + x_block^(t) . Q = 0

with Q built from a column slice of the t-fold kernel power. Systems never
reference anything below the current stage, so they can be evaluated (and
message-passed over) mid-decode.
"""

from __future__ import annotations

from dataclasses import dataclass

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

    i: int
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
    return FcIndexSets(i=i, L=L, per_stage=tuple(per_stage))


def global_Q(spec: CodeSpec) -> np.ndarray:
    """Codeword-domain constraint matrix Q = G H', satisfying x Q = 0."""
    return mat_mul(spec.generator, spec.H_prime)


def system_structure(spec: CodeSpec, ell: int, t: int) -> tuple:
    """Hypothesis-independent part of the stage-t systems, memoized.

    Returns (cols, Q, offset_rows); offsets for a concrete prefix are
    prefix . offset_rows. The columns are the indices of block T(ell, t)
    minus T(ell, t - 1) that lie above ell and outside A, ascending: the
    upper half of T(ell, t) when ell sits in its lower half, none
    otherwise. Over t = 1..n they partition L_{ell+1}. The batch engines'
    FCCN round is products with Q; the member lists the scalar engine
    walks come from check_lists, and DE reads the same lists off the
    support of Q.
    """
    if not 1 <= t <= spec.n:
        raise ValueError(f"stage {t} out of range")
    key = ("sys", ell, t)
    cached = spec._cache.get(key)
    if cached is None:
        lo, hi = _block(ell, t)
        start = _block(ell, t - 1)[1]
        cols = [k for k in range(start, hi) if not spec.info_mask[k]]
        rows = np.arange(ell + 1, hi)
        Q = mat_mul(kron_power(t)[:, rows - lo], spec.H[np.ix_(rows, cols)])
        # copy(): the mixed index leaves the offset rows in F order, and
        # every check's phi product reads them in C order faster
        cached = (tuple(cols), Q, spec.H[:ell + 1, cols].copy())
        spec._cache[key] = cached
    return cached


def _row_supports(m: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """Column indices of the nonzero entries of each row of m."""
    cols = np.nonzero(m)[1].tolist()
    ends = np.cumsum(np.count_nonzero(m, axis=1)).tolist()
    return tuple(tuple(cols[a:b]) for a, b in zip([0] + ends[:-1], ends))


def check_lists(spec: CodeSpec, ell: int, t: int) -> tuple:
    """vn_of of the stage-t systems, memoized: the variables of each check,
    ascending."""
    key = ("lists", ell, t)
    if key not in spec._cache:
        spec._cache[key] = _row_supports(system_structure(spec, ell, t)[1].T)
    return spec._cache[key]
