"""Successive-cancellation list decoding on the BEC with random pruning.

Paths fork wherever the SC recursion leaves an information bit erased and
die on conflicts; when a trial's list overflows the cap L, a uniformly
random L-subset survives (instead of giving up), using a pruning RNG
substream decoupled from the channel. Every path takes the forced value
of each frozen or parity bit and dies where its leaf disagrees, so every
survivor is a valid input word (u H' = 0) and needs no parity test; the
final pick among a trial's survivors is uniform as well. A trial's visits
sum its list size over the bits decoded, up to the bit where its list dies.

One call decodes a batch of trials, their channel planes and trial ids.
The row axis is (trial, path): tid holds each row's trial, in ascending
order, and within a trial the rows keep the list's path order. At an
information bit a trial's candidates are its single paths, then its
0-forks, then its 1-forks, each in path order. A trial with more than L
candidates keeps the L smallest priorities keyed_uniform_array(seed,
STREAM_PRUNE, trial, i, candidate index), taken per trial by one sort on
(tid, priority); equal priorities go to the lower candidate index, and two
only tie if their 64-bit hashes agree in the top 53 bits. Every draw is
keyed by the trial id, so a trial's outcome does not depend on the rest of
the batch.

Per-path symbols live as (value, erased) word pairs in the bitboard word
layout, one row per path, a conflict held as (1, 1), on the schedule of
bitboard.walk. In a step that walk does not decide whole, a path dies
at its first frozen leaf whose value bit is set (a known 1 or a
conflict), and the step's last leaf is decided as above; in one it
does, no path forks or dies, and each visits the step's 2^t leaves.
After rows change, a stage block is gathered onto the surviving rows
only while it will still be read before it is recomputed; the channel
block is taken from the trial's row when it is read.
"""

from __future__ import annotations

import numpy as np

from .batch import BatchOutcome
from .bitboard import (commit, forced_bit, last_leaf, leaf_symbols,
                       pack_rows, spread, unpack_rows, update_partial_sums,
                       walk)
from .codes import CodeSpec
from .planes import Pair
from .rng import STREAM_PRUNE, keyed_array, keyed_uniform_array

__all__ = ["decode_scl"]

U64 = np.uint64


def decode_scl(spec: CodeSpec, yp: Pair, L: int, seed: int,
               trials: np.ndarray) -> BatchOutcome:
    """List-decode every row of yp, the (value, erased) channel planes of
    batch.channel_planes, each (trials, N); trials holds each row's trial
    id, the key of its random draws. A trial succeeds if a path survives.
    SCL checks no hypothesis and never backjumps, so the BatchOutcome's
    counts other than visits are 0."""
    if L < 1:
        raise ValueError("list size must be at least 1")
    yv, ye = yp
    if yv.shape != ye.shape or yv.ndim != 2 or yv.shape[1] != spec.N:
        raise ValueError("yp must be two (trials, N) planes")
    B, N, n = yv.shape[0], spec.N, spec.n
    if np.shape(trials) != (B,):
        raise ValueError("need one trial id per row of yp")
    trials = trials.astype(U64)

    channel = (pack_rows(yv), pack_rows(ye))
    alpha: list = [None] * (n + 1)
    ps: dict[int, np.ndarray] = {}
    tid = np.arange(B)
    u = np.zeros((B, -(-N // 64)), dtype=U64)
    info = spec.info_mask
    visited = np.zeros(B, dtype=np.int64)

    # walk calls this at the steps that read alpha[n], with the rows of tid
    # at that moment
    for i0, t, block in walk(spec, alpha, ps,
                             lambda: tuple(p[tid] for p in channel)):
        if block is not None:
            # no path forks or dies, and each visits the block's 2^t leaves
            visited += np.bincount(tid, minlength=B) << t
            commit(u, i0, block)
            continue
        i = i0 + (1 << t) - 1
        leaves = leaf_symbols(alpha[t], t)
        # a leaf: known at e = 0, erased at (0, 1), a conflict at (1, 1)
        val, e = last_leaf(leaves, t)
        if t:
            # a path dies at its first frozen leaf whose value bit is set
            # (a known 1 or a conflict), having visited the leaves before
            # it; a conflict at the last leaf ends the dead paths
            ones = unpack_rows(leaves[0], 1 << t)
            ones[:, -1] = 1
            dies = ones.argmax(axis=1)
            visited += np.bincount(tid, dies, B).astype(np.int64)
            dead = (dies < (1 << t) - 1).astype(U64)
            val, e = val | dead, e | dead
        erased = e & ~val
        forks = info[i] and erased.any()
        if forks:
            single = np.flatnonzero(e == 0)
            fork = np.flatnonzero(erased)
            src = np.concatenate([single, fork, fork])
            bits = np.concatenate([val[single], np.zeros(fork.size, U64),
                                   np.ones(fork.size, U64)])
            order = np.argsort(tid[src], kind="stable")
            src, bits = src[order], bits[order]
        else:
            live = (val & e) == 0
            if not info[i]:
                forced = forced_bit(spec, u, i)
                live &= (erased != 0) | (val == forced)
                val = forced
            src = np.flatnonzero(live)
            bits = val[src]

        ctid = tid[src]
        counts = np.bincount(ctid, minlength=B)
        if counts.max(initial=0) > L:
            keep = _prune(seed, trials, i, ctid, counts, L)
            src, bits, ctid = src[keep], bits[keep], ctid[keep]
            counts = np.minimum(counts, L)
        visited += counts
        if forks or src.size < tid.size:  # else src is every row, in order
            tid = ctid
            u = u[src]
            # stage s is read by the first later refresh at a leaf
            # i' = 2^(s-1) mod 2^s unless one at i' = 0 mod 2^s recomputes
            # it first (so never for s <= t: i + 1 = 0 mod 2^t); ps[s] is
            # read later only while bit s of i is set, and below t it is
            # stale
            for s in range(t + 1, n):
                if 0 < (i + 1) % (1 << s) <= 1 << (s - 1):
                    alpha[s] = tuple(p[src] for p in alpha[s])
            for s in ps:
                if s >= t and (i >> s) & 1:
                    ps[s] = ps[s][src]
        commit(u, i, bits[:, None])
        update_partial_sums(ps, i, spread(bits, t), t)

    survivors = np.bincount(tid, minlength=B)
    success = survivors > 0
    won = np.flatnonzero(success)
    pick = (keyed_array(seed, STREAM_PRUNE, trials[won], N, 0)
            % survivors[won].astype(U64)).astype(np.int64)
    first = np.cumsum(survivors) - survivors
    u_hat = np.zeros((B, N), dtype=np.uint8)
    u_hat[won] = unpack_rows(u[first[won] + pick], N)
    return BatchOutcome(success, u_hat, visited,
                        *(np.zeros(B, dtype=np.int64) for _ in range(3)))


def _prune(seed: int, trials: np.ndarray, i: int, ctid: np.ndarray,
           counts: np.ndarray, L: int) -> np.ndarray:
    """Keep mask over the candidates (sorted by trial, candidate order
    within a trial): each trial with more than L keeps its L smallest
    keyed priorities."""
    keep = np.ones(ctid.size, dtype=bool)
    over = np.flatnonzero(counts[ctid] > L)
    otid = ctid[over]
    cand = over - (np.cumsum(counts) - counts)[otid]
    priority = keyed_uniform_array(seed, STREAM_PRUNE, trials[otid], i, cand)
    order = np.lexsort((priority, otid))
    # otid is sorted, so the k-th entry in (trial, priority) order has the
    # k-th entry's trial and rank cand[k] within it
    keep[over[order[cand >= L]]] = False
    return keep

