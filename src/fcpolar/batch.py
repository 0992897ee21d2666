"""Trial-vectorized BEC decoding, one row per channel realization.

The sweep math is the vector form of the scalar engines and reproduces
them bit for bit, because every random draw (message bits, erasures, coin
flips) is keyed by (trial, position, count) rather than consumed from a
sequential stream. All of it runs on the planes operators over the
bitboard word layout.

Plain SC is the SCL loop with one path per row: bitboard.refresh
advances the SC recursion on the word layout at every bit, and a keyed
coin decides wherever the leaf is erased or in conflict.
Hypothesis checks (SCC, BP-SCC, and the no-backjump first pass of the
stack search) all go through _check_batch, which sets up each stage's FCCN
round and runs bitboard.check_batch64, the one stage sweep, on the packed
channel words. Under backjumping, trials that hit a dead end are re-decoded
together by a lockstep stack search on the same check (codes up to N=64),
or one at a time by the scalar search for longer codes.
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
from .search import decode_with_fc

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


@dataclass
class BatchOutcome:
    success: np.ndarray      # (rows,) bool, traversal completed
    u_hat: np.ndarray        # (rows, N) uint8, meaningful where success
    visits: np.ndarray       # (rows,) int64 node-visit counts
    backjumps: np.ndarray    # (rows,) int64
    iters_sum: np.ndarray    # (rows,) int64, summed iterations over checks
    checks: np.ndarray       # (rows,) int64, hypothesis checks run


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


def _check_batch(spec: CodeSpec, yv: np.ndarray, ye: np.ndarray,
                 ubuf: np.ndarray, ell: int, use_fccn: bool, i_max: int):
    """Run one hypothesis check for every row; returns (r, eps, iters).

    yv, ye are the rows' packed channel words. This builds the FCCN round of
    every stage that holds future constraints and runs the sweep and verdict
    in bitboard.check_batch64. The round is the popcount under member masks
    for N <= 64 and the BLAS products above; each is faster on its side. The
    round functions are looked up when called, so wrappers around them see
    every round.
    """
    rounds = {}
    for t in range(1, spec.n + 1) if use_fccn else ():
        if spec.N <= 64:
            masks, offsets = bitboard._bb_checks(spec, ell, t)
        else:
            _, Q, offsets = system_structure(spec, ell, t)
        if not offsets.shape[1]:
            continue
        phi = mat_mul_f32(ubuf, offsets).astype(bool)
        if spec.N <= 64:
            rounds[t] = (lambda s, m=masks, f=phi:
                         bitboard._fccn_pass64(s, m, f))
        else:
            rounds[t] = (lambda s, q=Q.astype(np.float32), f=phi:
                         _fccn_pass_batch(s, q, f))
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
    """Lockstep hypothesis-check traversal over all rows.

    Without backjumping this is the whole decode: rows whose both checks
    fail at some bit are failures. With sbj the vectorized pass handles
    the straight-line part and dead-ended rows are re-decoded by the stack
    search (a lockstep batch for N <= 64, the scalar search otherwise);
    the traversal is deterministic given the channel output, so the replay
    walks the identical path before branching into recovery.

    The channel planes are packed to words once; every check runs on them
    through _check_batch, at every N.
    """
    if engine not in ("scc", "bp_scc", "bpscc"):
        raise ValueError(f"unknown engine {engine!r}")
    use_fccn = engine != "scc"
    rows = yp[0].shape[0]
    trials = np.arange(rows) if trials is None else np.asarray(trials)
    trials = trials.astype(np.uint64)
    yv, ye = bitboard.pack_rows(yp[0]), bitboard.pack_rows(yp[1])

    def run_check(sel, ubuf, ell):
        return _check_batch(spec, yv[sel], ye[sel], ubuf, ell, use_fccn, i_max)

    committed = np.zeros((rows, spec.N), dtype=np.uint8)
    visits = np.zeros(rows, dtype=np.int64)
    iters_sum = np.zeros(rows, dtype=np.int64)
    checks = np.zeros(rows, dtype=np.int64)
    alive = np.ones(rows, dtype=bool)

    ell_prev = -1
    for i in spec.A:
        ell = processing_index(spec, i)
        span = ell - ell_prev
        ell_prev = ell
        r0_rows = np.flatnonzero(alive)
        if r0_rows.size == 0:
            break
        ub0 = _extend_prefix(spec, committed[r0_rows], i, ell, 0)
        ok0, _, it0 = run_check(r0_rows, ub0, ell)
        visits[r0_rows] += span
        checks[r0_rows] += 1
        iters_sum[r0_rows] += it0

        b = np.zeros(r0_rows.size, dtype=np.uint8)
        surv = ok0.copy()

        need1 = np.flatnonzero(~ok0)
        if need1.size:
            r1_rows = r0_rows[need1]
            ub1 = _extend_prefix(spec, committed[r1_rows], i, ell, 1)
            ok1, _, it1 = run_check(r1_rows, ub1, ell)
            visits[r1_rows] += span
            checks[r1_rows] += 1
            iters_sum[r1_rows] += it1
            surv[need1] = ok1
            b[need1] = 1
            alive[r1_rows[~ok1]] = False

        commit_rows = r0_rows[surv]
        if commit_rows.size:
            ub = _extend_prefix(spec, committed[commit_rows], i, ell, b[surv])
            committed[commit_rows, i:ell + 1] = ub[:, i:ell + 1]

    out = BatchOutcome(success=alive.copy(), u_hat=committed, visits=visits,
                       backjumps=np.zeros(rows, dtype=np.int64),
                       iters_sum=iters_sum, checks=checks)
    if sbj and not alive.all():
        dead = np.flatnonzero(~alive)
        if spec.N <= 64:
            got, u_got, v_got, bj_got = _dfs_recover64(
                spec, yv[dead], ye[dead], use_fccn, i_max)
            out.success[dead] = got
            out.u_hat[dead[got]] = u_got[got]
            out.visits[dead] = v_got
            out.backjumps[dead] = bj_got
        else:
            y_sym = planes.to_symbols(yp)
            for row in dead:
                res = decode_with_fc(spec, y_sym[row], engine=engine,
                                     i_max=i_max, sbj=True, seed=seed,
                                     trial=int(trials[row]))
                out.success[row] = res.status == "success"
                if res.u_hat is not None:
                    out.u_hat[row] = res.u_hat
                out.visits[row] = res.visited_nodes
                out.backjumps[row] = res.backjumps
    return out


def _dfs_recover64(spec: CodeSpec, yv: np.ndarray, ye: np.ndarray,
                   use_fccn: bool, i_max: int):
    """Stack-based backjumping for all dead-ended rows at once.

    Rows share lockstep rounds: within a round each row descends from its
    current bit until it either advances past the last information bit
    (success), dead-ends and pops its most recent checkpoint (idling until
    the next round), or runs out of stack (failure). Per-row behavior is
    identical to the scalar search because the policy is deterministic and
    rows never interact; grouping only batches the hypothesis checks.

    Returns (success, committed, visits, backjumps).
    """
    rows = yv.shape[0]
    info = list(spec.A)
    K = len(info)
    ell_of = [processing_index(spec, i) for i in info]
    spans = [ell_of[k] - (ell_of[k - 1] if k else -1) for k in range(K)]
    check_cap = 1 << min(spec.K + 1, 40)

    committed = np.zeros((rows, spec.N), dtype=np.uint8)
    pos = np.zeros(rows, dtype=np.int32)
    depth = np.zeros(rows, dtype=np.int32)
    stack_k = np.zeros((rows, K), dtype=np.int16)
    stack_c = np.zeros((rows, K, spec.N), dtype=np.uint8)
    alive = np.ones(rows, dtype=bool)
    success = np.zeros(rows, dtype=bool)
    visits = np.zeros(rows, dtype=np.int64)
    backjumps = np.zeros(rows, dtype=np.int64)
    checks = np.zeros(rows, dtype=np.int64)

    def commit(sel, i, ell, ubuf):
        block = committed[sel]
        block[:, i:ell + 1] = ubuf[:, i:ell + 1]
        committed[sel] = block

    while alive.any():
        for k in range(K):
            sel = np.flatnonzero(alive & (pos == k))
            if sel.size == 0:
                continue
            i, ell = info[k], ell_of[k]
            ub0 = _extend_prefix(spec, committed[sel], i, ell, 0)
            ok0 = _check_batch(spec, yv[sel], ye[sel], ub0, ell, use_fccn,
                               i_max)[0]
            visits[sel] += spans[k]
            checks[sel] += 1
            p0 = sel[ok0]
            if p0.size:
                stack_k[p0, depth[p0]] = k
                stack_c[p0, depth[p0]] = committed[p0]
                depth[p0] += 1
                commit(p0, i, ell, ub0[ok0])
                pos[p0] = k + 1
            f0 = sel[~ok0]
            if f0.size == 0:
                continue
            ub1 = _extend_prefix(spec, committed[f0], i, ell, 1)
            ok1 = _check_batch(spec, yv[f0], ye[f0], ub1, ell, use_fccn,
                               i_max)[0]
            visits[f0] += spans[k]
            checks[f0] += 1
            p1 = f0[ok1]
            if p1.size:
                commit(p1, i, ell, ub1[ok1])
                pos[p1] = k + 1
            dead = f0[~ok1]
            if dead.size == 0:
                continue
            alive[dead[depth[dead] == 0]] = False
            bj = dead[depth[dead] > 0]
            if bj.size == 0:
                continue
            d = depth[bj] - 1
            kk = stack_k[bj, d]
            committed[bj] = stack_c[bj, d]
            depth[bj] = d
            backjumps[bj] += 1
            visits[bj] += 1
            for ku in np.unique(kk):
                g = bj[kk == ku]
                gi, gell = info[ku], ell_of[ku]
                commit(g, gi, gell, _extend_prefix(spec, committed[g],
                                                   gi, gell, 1))
                pos[g] = ku + 1
        fin = alive & (pos == K)
        success[fin] = True
        alive[fin] = False
        if checks.max(initial=0) > check_cap:
            raise RuntimeError("check budget exceeded; traversal is stuck")
    return success, committed, visits, backjumps
