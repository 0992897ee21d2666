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
from .gf2 import kron_power, mat_mul, mat_mul_f32

__all__ = [
    "FcIndexSets",
    "InstantConstraintSystem",
    "future_constraints",
    "global_Q",
    "instant_Q_full",
    "attached_systems",
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


@dataclass(frozen=True)
class InstantConstraintSystem:
    """One stage's instant systems as a bipartite check graph.

    Q has one row per block variable x_k^(t) (2^t rows) and one column per
    converted future constraint; phi holds the prefix offsets. vn_of[j] lists
    the variable neighbors of check j.
    """

    t: int
    cols: tuple[int, ...]
    Q: np.ndarray
    phi: np.ndarray
    vn_of: tuple[tuple[int, ...], ...]


def _block(i: int, t: int) -> tuple[int, int]:
    s = (i >> t) << t
    return s, s + (1 << t)


def future_constraints(spec: CodeSpec, i: int) -> FcIndexSets:
    """Index sets L_i and their stage partition L_{i,t}.

    i = N is allowed and yields empty sets: past the last index nothing
    remains to convert, which the final processing step relies on.
    """
    if not 0 <= i <= spec.N:
        raise ValueError(f"bit index {i} out of range")
    not_a = spec._cache.setdefault("not_a", frozenset(range(spec.N)) - set(spec.A))
    L = tuple(k for k in range(i, spec.N) if k in not_a)
    per_stage = [tuple(k for k in L if k == i)]
    for t in range(1, spec.n + 1):
        lo, hi = _block(i, t)
        prev_lo, prev_hi = _block(i, t - 1)
        per_stage.append(tuple(k for k in L if lo <= k < hi and not prev_lo <= k < prev_hi))
    return FcIndexSets(i=i, L=L, per_stage=tuple(per_stage))


def global_Q(spec: CodeSpec) -> np.ndarray:
    """Codeword-domain constraint matrix Q = G H', satisfying x Q = 0."""
    return mat_mul(spec.generator, spec.H_prime)


def instant_Q_full(spec: CodeSpec, i: int) -> tuple[np.ndarray, np.ndarray]:
    """Whole-codeword instant system for decoding step i.

    Returns (coeffs, offset_rows) with coeffs of shape (N, |L_i|) and
    offset_rows of shape (i, |L_i|): for any consistent pair of prefix and
    codeword, prefix . offset_rows + x . coeffs = 0.
    """
    L = list(future_constraints(spec, i).L)
    G = spec.generator
    coeffs = mat_mul(G[:, i:], spec.H[i:, L])
    return coeffs, spec.H[:i, L].copy()


def _system_coeffs(spec: CodeSpec, anchor: int, first: int, t: int,
                   cols: tuple[int, ...]) -> np.ndarray:
    """Q over block T(anchor, t) for constraint columns cols, all >= first."""
    if not cols:
        return np.zeros((1 << t, 0), dtype=np.uint8)
    lo, hi = _block(anchor, t)
    t_prime = [k for k in range(max(lo, first), hi)]
    rel = [k - lo for k in t_prime]
    return mat_mul_f32(kron_power(t)[:, rel], spec.H[t_prime, :][:, list(cols)])


def attached_systems(spec: CodeSpec, ell: int, t: int,
                     hypothesis_prefix) -> InstantConstraintSystem:
    """Stage-t instant systems for processing step ell on the decoding-path
    block T(ell, t).

    The coefficient part depends only on (ell, t) and is memoized on the
    spec; the offsets come from the hypothesis prefix, which must cover
    indices 0..ell. Anchoring at ell rather than at the next index ell + 1
    only matters when 2^t divides ell + 1: the block of ell + 1 is then the
    next one, which the stage-t sweep never touches, so the affected
    columns surface at the first stage whose block reaches past ell.
    """
    i = ell + 1
    cols, Q, offset_rows = system_structure(spec, ell, t)
    vn_of = check_lists(spec, ell, t)[0]
    prefix = np.asarray(hypothesis_prefix, dtype=np.uint8)
    if prefix.shape != (i,):
        raise ValueError(f"hypothesis prefix must cover indices 0..{ell}")
    phi = mat_mul(prefix[None, :], offset_rows)[0] if cols else np.zeros(0, dtype=np.uint8)
    for j, neighbors in enumerate(vn_of):
        if not neighbors and phi[j]:
            raise AssertionError("degenerate instant system with nonzero offset")
    return InstantConstraintSystem(t=t, cols=cols, Q=Q, phi=phi, vn_of=vn_of)


def system_structure(spec: CodeSpec, ell: int, t: int) -> tuple:
    """Hypothesis-independent part of the stage-t systems, memoized.

    Returns (cols, Q, offset_rows); offsets for a concrete prefix are
    prefix . offset_rows. The batch engines' FCCN round is products with Q;
    the member lists the scalar engine and DE walk come from check_lists.
    """
    if not 1 <= t <= spec.n:
        raise ValueError(f"stage {t} out of range")
    i = ell + 1
    key = ("sys", ell, t)
    cached = spec._cache.get(key)
    if cached is None:
        lo, hi = _block(ell, t)
        prev_lo, prev_hi = _block(ell, t - 1)
        L = future_constraints(spec, i).L
        cols = tuple(k for k in L if lo <= k < hi and not prev_lo <= k < prev_hi)
        Q = _system_coeffs(spec, ell, i, t, cols)
        offset_rows = spec.H[:i, list(cols)].copy()
        cached = (cols, Q, offset_rows)
        spec._cache[key] = cached
    return cached


def _row_supports(m: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """Column indices of the nonzero entries of each row of m."""
    cols = np.nonzero(m)[1].tolist()
    ends = np.cumsum(np.count_nonzero(m, axis=1)).tolist()
    return tuple(tuple(cols[a:b]) for a, b in zip([0] + ends[:-1], ends))


def check_lists(spec: CodeSpec, ell: int, t: int) -> tuple:
    """(vn_of, checks_of) of the stage-t systems, memoized: the variables of
    each check and the checks of each block variable, ascending."""
    key = ("lists", ell, t)
    if key not in spec._cache:
        Q = system_structure(spec, ell, t)[1]
        spec._cache[key] = (_row_supports(Q.T), _row_supports(Q))
    return spec._cache[key]
