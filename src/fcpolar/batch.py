"""Trial-vectorized BEC decoding, one row per channel realization.

The sweep math is the vector form of the scalar engines and reproduces
them bit for bit, because every random draw (message bits, erasures, coin
flips) is keyed by (trial, position, count) rather than consumed from a
sequential stream. All of it runs on the planes operators over the
bitboard word layout.

Plain SC is the SCL loop with one path per row: bitboard.refresh
advances the SC recursion on the word layout at every bit, and a keyed
coin decides wherever the leaf is erased or in conflict.
SCC and BP-SCC, with or without stack-based backjumping (SBJ), are one
stack search over all rows (_dfs_recover64); without SBJ every stack
stays empty. Each search step checks both hypotheses of its rows in one
_check_batch call, which binds each stage's memoized FCCN round and runs
bitboard.check_batch64, the one stage sweep, on the packed channel words.
search.decode_with_fc is the scalar reference the search is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bitboard, planes
from .codes import CodeSpec
from .constraints import system_structure
from .decoders import processing_index
from .gf2 import mat_mul_f32
from .rng import (STREAM_CHANNEL, STREAM_COIN, STREAM_MESSAGE,
                  keyed_bit_array, keyed_uniform_array)
# Unused here; perfbench's search.scalar span wraps batch.decode_with_fc.
from .search import decode_with_fc  # noqa: F401

__all__ = [
    "BatchOutcome",
    "sample_messages",
    "sample_erasures",
    "encode_batch",
    "channel_planes",
    "decode_sc_batch",
    "decode_fc_batch",
]

_ONE = np.uint64(1)

# Steps for which a row that backjumped still leads the search's sweep.
_RECENT = 32


@dataclass
class BatchOutcome:
    success: np.ndarray      # (rows,) bool, traversal completed
    u_hat: np.ndarray        # (rows, N) uint8, meaningful where success
    visits: np.ndarray       # (rows,) int64 node-visit counts
    backjumps: np.ndarray    # (rows,) int64
    iters_sum: np.ndarray    # (rows,) int64, summed iterations over the
                             # checks before the first backjump
    checks: np.ndarray       # (rows,) int64, hypothesis checks run before
                             # the first backjump


def sample_messages(spec: CodeSpec, seed: int, trials: np.ndarray) -> np.ndarray:
    """Keyed message bits, one (K,) row per trial id."""
    trials = np.asarray(trials, dtype=np.uint64)
    return keyed_bit_array(seed, STREAM_MESSAGE, trials[:, None],
                           np.arange(spec.K, dtype=np.uint64)[None, :])


def sample_erasures(spec: CodeSpec, p: float, seed: int,
                    trials: np.ndarray) -> np.ndarray:
    """Keyed erasure indicators, one (N,) boolean row per trial id."""
    trials = np.asarray(trials, dtype=np.uint64)
    draw = keyed_uniform_array(seed, STREAM_CHANNEL, trials[:, None],
                               np.arange(spec.N, dtype=np.uint64)[None, :])
    return draw < p


def encode_batch(spec: CodeSpec, messages: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Input words and codewords for a batch of messages; returns (u, x)."""
    u = np.zeros((messages.shape[0], spec.N), dtype=np.uint8)
    u[:, list(spec.A)] = messages
    for j in spec.P:
        u[:, j] = mat_mul_f32(u[:, :j], spec.T[:j, j][:, None])[:, 0]
    x = mat_mul_f32(u, spec.generator)
    return u, x


def channel_planes(x: np.ndarray, erased: np.ndarray) -> planes.Planes:
    """BEC output planes for codewords x under the erasure mask."""
    return x.astype(bool) & ~erased, erased.copy(), np.zeros_like(erased)


def _extend_prefix(spec: CodeSpec, committed: np.ndarray, i: int, ell: int,
                   b) -> np.ndarray:
    """Per-row hypothesis prefixes 0..ell: past estimates, b, forced bits."""
    ubuf = np.zeros((committed.shape[0], ell + 1), dtype=np.uint8)
    ubuf[:, :i] = committed[:, :i]
    ubuf[:, i] = b
    for j in range(i + 1, ell + 1):
        col = spec.T[:j, j]
        if col.any():
            ubuf[:, j] = mat_mul_f32(ubuf[:, :j], col[:, None])[:, 0]
    return ubuf


def _fccn_pass_batch(state: planes.Planes, Q: np.ndarray,
                     phi: np.ndarray) -> planes.Planes:
    """One FCCN round by three float32 products with Q, on a word triple.

    Per check j at round start: a_j = members' parity XOR phi_j, c_j = erased
    members. A known member becomes a conflict iff a check has c_j = 0 and
    a_j = 1; an erased one takes a_j from checks with c_j = 1 (a conflict if
    both values arrive, erased if none). Merging all messages at once is
    exact because the combine operator is commutative and associative, and
    the float32 products are exact below 2^24. The value and erasure words
    are unpacked for the products and the three predicate planes packed
    back. Rows already holding a conflict get garbage, but the sweep's
    conflict scan fails them.
    """
    V, E = (bitboard.unpack_rows(p, Q.shape[0]) for p in state[:2])
    a = mat_mul_f32(V, Q).astype(bool) ^ phi
    c = E.astype(np.float32) @ Q
    single = c == 1
    preds = np.concatenate([(c == 0) & a, single & a, single & ~a])
    hits = bitboard.pack_rows(preds.astype(np.float32) @ Q.T > 0)
    return bitboard.merge_round(state, *hits.reshape(3, *state[0].shape))


def _round_plan(spec: CodeSpec, ell: int):
    """The FCCN rounds of a check at processing index ell, memoized.

    Returns ([(t, operand)] for every stage t that holds future constraints,
    their offset rows side by side, the column bounds between stages). The
    operand is the member masks of bitboard._fccn_pass64 for N <= 64 and the
    float32 Q of _fccn_pass_batch above; each is faster on its side.
    """
    key = ("rounds", ell)
    plan = spec._cache.get(key)
    if plan is None:
        stages, offsets = [], []
        for t in range(1, spec.n + 1):
            if spec.N <= 64:
                op, off = bitboard._bb_checks(spec, ell, t)
            else:
                _, Q, off = system_structure(spec, ell, t)
                op = Q.astype(np.float32)
            if off.shape[1]:
                stages.append((t, op))
                offsets.append(off)
        bounds = np.cumsum([off.shape[1] for off in offsets])[:-1]
        plan = (stages, np.hstack(offsets) if offsets else None, bounds)
        spec._cache[key] = plan
    return plan


def _check_batch(spec: CodeSpec, yv: np.ndarray, ye: np.ndarray,
                 ubuf: np.ndarray, ell: int, use_fccn: bool, i_max: int):
    """Run one hypothesis check for every row; returns (r, eps, iters).

    yv, ye are the rows' packed channel words. This binds each stage's FCCN
    round from _round_plan to the rows' offsets phi (one product for all
    stages) and runs the sweep and verdict in bitboard.check_batch64. The
    round functions are looked up when called, so wrappers around them see
    every round.
    """
    rounds = {}
    stages, offsets, bounds = _round_plan(spec, ell) if use_fccn else ([],) * 3
    if stages:
        phis = np.split(mat_mul_f32(ubuf, offsets).astype(bool), bounds, axis=1)
        for (t, op), phi in zip(stages, phis):
            if spec.N <= 64:
                rounds[t] = (lambda s, m=op, f=phi:
                             bitboard._fccn_pass64(s, m, f))
            else:
                rounds[t] = (lambda s, q=op, f=phi: _fccn_pass_batch(s, q, f))
    return bitboard.check_batch64(spec, yv, ye, ubuf, ell, rounds, i_max)


def decode_sc_batch(spec: CodeSpec, yp: planes.Planes, seed: int,
                    trials: np.ndarray) -> BatchOutcome:
    """Plain SC over all rows: coin-flip unresolved bits, never backtrack."""
    rows = yp[0].shape[0]
    trials = np.asarray(trials, dtype=np.uint64)
    alpha: list = [None] * (spec.n + 1)
    alpha[spec.n] = tuple(bitboard.pack_rows(p) for p in yp)
    ps: dict[int, np.ndarray] = {}
    committed = np.zeros((rows, spec.N), dtype=np.uint8)
    a_set = set(spec.A)
    for i in range(spec.N):
        bitboard.refresh(alpha, ps, i, spec.n)
        if i in a_set:
            lv, le, lh = alpha[0]
            coin = keyed_bit_array(seed, STREAM_COIN, trials, i, 0)
            committed[:, i] = np.where((le[:, 0] | lh[:, 0]) & _ONE, coin,
                                       lv[:, 0] & _ONE)
        elif spec.T[:i, i].any():
            committed[:, i] = mat_mul_f32(committed[:, :i],
                                          spec.T[:i, i][:, None])[:, 0]
        bitboard.update_partial_sums(ps, i, committed[:, i])
    return BatchOutcome(success=np.ones(rows, dtype=bool), u_hat=committed,
                        visits=np.full(rows, spec.N, dtype=np.int64),
                        backjumps=np.zeros(rows, dtype=np.int64),
                        iters_sum=np.full(rows, spec.N, dtype=np.int64),
                        checks=np.full(rows, spec.N, dtype=np.int64))


def decode_fc_batch(spec: CodeSpec, yp: planes.Planes, engine: str = "bp_scc",
                    i_max: int = 1, sbj: bool = False, seed: int = 0,
                    trials: np.ndarray | None = None) -> BatchOutcome:
    """SCC (engine="scc") or BP-SCC over all rows, with or without SBJ.

    The channel planes are packed to words once and every row goes through
    the one stack search, _dfs_recover64. The search draws no coins, so seed
    and trials are unused; they are kept for callers that pass them.
    """
    if engine not in ("scc", "bp_scc", "bpscc"):
        raise ValueError(f"unknown engine {engine!r}")
    yv, ye = bitboard.pack_rows(yp[0]), bitboard.pack_rows(yp[1])
    return BatchOutcome(*_dfs_recover64(spec, yv, ye, engine != "scc", i_max,
                                        sbj))


def _dfs_recover64(spec: CodeSpec, yv: np.ndarray, ye: np.ndarray,
                   use_fccn: bool, i_max: int, sbj: bool):
    """The stack search for every row at once.

    Each step takes the rows at one information position k and checks
    H_{k,0} and H_{k,1} for all of them in one _check_batch call, on twice
    the rows. Rows that pass H_{k,0} commit 0 and, under sbj, push k; their
    H_{k,1} verdicts are dropped. The rest commit 1 if H_{k,1} passes. The
    counts (visits, iters_sum, checks, the budget) take H_{k,1} only where
    H_{k,0} failed, as the scalar search runs it. One call per step costs
    far less than two, since a check's time is mostly per call. A row that
    fails both pops its most recent checkpoint k' and commits 1 at
    spec.A[k'] unchecked, or fails if its stack is empty; without sbj every
    stack stays empty. No bit below spec.A[k'] changes while k' is on the
    stack, so a checkpoint is its position alone. Rows never interact and
    the check is deterministic, so each row walks the scalar search's path
    exactly; the order of the steps only decides which rows share a check
    call.

    That order is a sweep led by the rows that backjumped in the last
    _RECENT steps: each step takes the lowest position above the previous
    one that such a row holds, and every row there. Rows that backjump land
    behind the sweep and wait, so rows that dead-end in the same stretch
    restart together. With no such row ahead, the sweep starts again at the
    lowest row, so rows that run clear wait for the rows behind to catch up
    and share their checks, instead of running on alone. Always taking the
    lowest row instead puts rows that backjump often out of step: 2.5x the
    check calls of this sweep on 300 NR(64, 32) trials at p=0.35. Never
    restarting early leaves the rows that run clear alone: 3.1x on 16
    NR(1024, 512) trials at p=0.40.

    Returns (success, committed, visits, backjumps, iters_sum, checks), the
    fields of BatchOutcome; iters_sum and checks cover the checks before a
    row's first backjump. The name is the one perfbench's batch.recover
    span wraps.
    """
    rows = yv.shape[0]
    info = spec.A
    K = len(info)
    ell_of = [processing_index(spec, i) for i in info]
    spans = np.diff(ell_of, prepend=-1)
    check_cap = 1 << min(spec.K + 1, 40)

    committed = np.zeros((rows, spec.N), dtype=np.uint8)
    pos = np.zeros(rows, dtype=np.intp)
    alive = np.ones(rows, dtype=bool)
    depth = np.zeros(rows, dtype=np.intp)
    stack = np.zeros((rows, K), dtype=np.min_scalar_type(K))
    visits, backjumps, iters_sum, checks, ran = (
        np.zeros(rows, dtype=np.int64) for _ in range(5))

    def check(sel, k):
        # H_{k,0} and H_{k,1} of rows sel in one call; returns where H_{k,0}
        # passed and where either did. H_{k,1} is speculative: it counts,
        # and commits, only where H_{k,0} failed.
        i, ell = info[k], ell_of[k]
        m = sel.size
        both = np.concatenate((sel, sel))
        ubuf = _extend_prefix(spec, committed[both], i, ell,
                              np.arange(2 * m) >= m)
        ok, _, it = _check_batch(spec, yv[both], ye[both], ubuf, ell,
                                 use_fccn, i_max)
        ok0, ok1 = ok[:m], ok[m:] & ~ok[:m]
        runs = 2 - ok0
        visits[sel] += spans[k] * runs
        ran[sel] += runs
        first = backjumps[sel] == 0
        checks[sel[first]] += runs[first]
        iters_sum[sel[first]] += (it[:m] + np.where(ok0, 0, it[m:]))[first]
        win = ok0 | ok1
        passed = sel[win]
        committed[passed, i:ell + 1] = np.where(ok0[:, None], ubuf[:m],
                                                ubuf[m:])[win, i:]
        pos[passed] = k + 1
        return ok0, win

    live = np.arange(rows)
    last_bj = np.full(rows, -_RECENT)
    k = step = -1
    while True:
        live = live[pos[live] < K]
        if live.size == 0:
            break
        step += 1
        at = pos[live]
        lead = (at > k) & (step - last_bj[live] < _RECENT)
        k = at[lead].min() if lead.any() else at.min()
        sel = live[at == k]
        ok0, ok = check(sel, k)
        if sbj:
            p0 = sel[ok0]
            stack[p0, depth[p0]] = k
            depth[p0] += 1
        dead = sel[~ok]
        failed = dead[depth[dead] == 0]
        alive[failed] = False
        pos[failed] = K
        bj = dead[depth[dead] > 0]
        if bj.size == 0:
            continue
        depth[bj] -= 1
        kk = stack[bj, depth[bj]]
        backjumps[bj] += 1
        visits[bj] += 1
        last_bj[bj] = step
        for ku in np.unique(kk):
            g = bj[kk == ku]
            i, ell = info[ku], ell_of[ku]
            committed[g, i:ell + 1] = _extend_prefix(spec, committed[g], i, ell,
                                                     1)[:, i:]
            pos[g] = ku + 1
        if ran[bj].max() > check_cap:
            raise RuntimeError("check budget exceeded; traversal is stuck")
    return alive, committed, visits, backjumps, iters_sum, checks
