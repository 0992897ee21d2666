"""Successive-cancellation list decoding on the BEC with random pruning.

Paths fork wherever the SC recursion leaves an information bit erased and
die on conflicts; when the list overflows the cap L, a uniformly random
L-subset survives (instead of giving up), using a pruning RNG substream
decoupled from the channel. The final pick among parity-consistent
survivors is uniform as well. visited_nodes sums the list size over all N
steps.

Per-path symbol planes live in the bitboard word layout, one row per
path, and bitboard.refresh only recomputes the stages whose block
actually moved at each bit, so a full decode costs about 2N stage blocks
per path instead of N log N.
"""

from __future__ import annotations

import numpy as np

from .bitboard import pack_rows, refresh, update_partial_sums
from .codes import CodeSpec
from .planes import Planes
from .rng import STREAM_PRUNE, keyed_array, keyed_uniform_array
from .search import DecodeOutcome

__all__ = ["decode_scl"]

_ONE = np.uint64(1)


def decode_scl(spec: CodeSpec, y, L: int, seed: int = 0,
               trial: int = 0) -> DecodeOutcome:
    if L < 1:
        raise ValueError("list size must be at least 1")
    y_sym = np.asarray(list(y))
    if len(y_sym) != spec.N:
        raise ValueError("y must have length N")
    n = spec.n
    alpha: list[Planes | None] = [None] * (n + 1)
    alpha[n] = tuple(pack_rows(y_sym[None, :] == s) for s in (1, 2, 3))
    u = np.zeros((1, spec.N), dtype=np.uint8)
    ps: dict[int, np.ndarray] = {}
    a_set = set(spec.A)
    visited = 0

    for i in range(spec.N):
        refresh(alpha, ps, i, n)
        lv, le, lh = alpha[0]
        val = (lv[:, 0] & _ONE).astype(bool)
        erased = (le[:, 0] & _ONE).astype(bool)
        conflict = (lh[:, 0] & _ONE).astype(bool)

        if i in a_set:
            fork = erased & ~conflict
            single = ~erased & ~conflict
            keep_idx = np.concatenate([np.flatnonzero(single),
                                       np.flatnonzero(fork), np.flatnonzero(fork)])
            new_vals = np.concatenate([
                val[single].astype(np.uint8),
                np.zeros(fork.sum(), dtype=np.uint8),
                np.ones(fork.sum(), dtype=np.uint8)])
        else:
            col = spec.T[:i, i]
            if i and col.any():
                forced = ((u[:, :i].astype(np.int64) @ col.astype(np.int64)) & 1
                          ).astype(np.uint8)
            else:
                forced = np.zeros(u.shape[0], dtype=np.uint8)
            dead = conflict | (~erased & (val != forced.astype(bool)))
            keep_idx = np.flatnonzero(~dead)
            new_vals = forced[keep_idx]

        if keep_idx.size == 0:
            return DecodeOutcome(status="failure", u_hat=None,
                                 visited_nodes=visited, backjumps=0)
        if keep_idx.size > L:
            rows = keep_idx.size
            priority = keyed_uniform_array(
                seed, np.full(rows, STREAM_PRUNE), np.full(rows, trial),
                np.full(rows, i), np.arange(rows))
            keep = np.sort(np.argsort(priority)[:L])
            keep_idx = keep_idx[keep]
            new_vals = new_vals[keep]
        u = u[keep_idx]
        u[:, i] = new_vals
        for t in range(n + 1):
            p = alpha[t]
            alpha[t] = (p[0][keep_idx], p[1][keep_idx], p[2][keep_idx])
        for t in list(ps):
            ps[t] = ps[t][keep_idx]
        update_partial_sums(ps, i, new_vals)
        visited += u.shape[0]

    ok = (u.astype(np.int64) @ spec.H_prime.astype(np.int64) % 2 == 0).all(axis=1)
    survivors = np.flatnonzero(ok)
    if survivors.size == 0:
        return DecodeOutcome(status="failure", u_hat=None,
                             visited_nodes=visited, backjumps=0)
    pick = survivors[int(keyed_array(seed, STREAM_PRUNE, trial, spec.N, 0)
                         % np.uint64(survivors.size))]
    return DecodeOutcome(status="success", u_hat=u[pick].copy(),
                         visited_nodes=visited, backjumps=0)
