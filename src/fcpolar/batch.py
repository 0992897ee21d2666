"""Trial-vectorized BEC decoding, one row per channel realization.

The sweep math is the vector form of the scalar engines and reproduces
them bit for bit, because every random draw (message bits, erasures, coin
flips) is keyed by (trial, position, count) rather than consumed from a
sequential stream. All of it runs on the planes operators over the
bitboard word layout.

Plain SC runs on the schedule of bitboard.walk with one row per trial.
At the last leaf of each step that walk does not decide whole, a row
takes the leaf's value, a keyed coin where the leaf is erased or in
conflict, or the forced bit of a frozen or parity leaf. It never forks,
and it keeps a row whose coin was wrong; the conflicts that row carries
split the blocks after it.
SCC and BP-SCC, with or without stack-based backjumping (SBJ), are one
stack search over all rows (_dfs_recover64) that reads its checkpoints
off each row's committed word; without SBJ no row has one. Each search
step checks both hypotheses of its rows in one _check_batch call, which
binds each stage's memoized FCCN round and runs bitboard.check_batch64,
the one stage sweep, on the packed channel words.
The check holds (value, erased) word pairs and folds every clash into a
per-row fail flag, forms its partial sums by one butterfly on the packed
prefix, and stops a row at a fixed point of its sweeps.
search.decode_with_fc is the scalar reference the search is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bitboard, planes
from .codes import CodeSpec
from .constraints import system_structure
from .gf2 import mat_mul
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

# Trials per decoder call in the simulation loops (cli.run_point, the
# mlbound and toy-compare commands), which bounds their memory.
CHUNK = 4096

# Steps for which a row that backjumped still leads the search's sweep.
_RECENT = 32


@dataclass
class BatchOutcome:
    """The per-trial record of every decoder; counts it does not keep are 0."""
    success: np.ndarray      # (rows,) bool, traversal completed
    u_hat: np.ndarray        # (rows, N) uint8, meaningful where success
    visits: np.ndarray       # (rows,) int64 node-visit counts
    backjumps: np.ndarray    # (rows,) int64
    iters_sum: np.ndarray    # (rows,) int64, summed iterations over the
                             # checks before the first backjump
    checks: np.ndarray       # (rows,) int64, hypothesis checks run before
                             # the first backjump

    @property
    def visited_nodes(self) -> np.ndarray:
        # Read only by perfbench's scl.decode observer, until it reads visits.
        return self.visits


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
    """Input words and codewords for a batch of messages; returns (u, x).
    The parity bits are one product, as u = v T in codes.input_word."""
    u = np.zeros((messages.shape[0], spec.N), dtype=np.uint8)
    u[:, list(spec.A)] = messages
    u[:, spec.parity_mask] = mat_mul(u, spec.T[:, spec.parity_mask])
    x = mat_mul(u, spec.generator)
    return u, x


def channel_planes(x: np.ndarray, erased: np.ndarray) -> planes.Pair:
    """BEC output (value, erased) planes for codewords x under the erasure
    mask; a channel never delivers a conflict."""
    return x.astype(bool) & ~erased, erased.copy()


def _extend_prefix(spec: CodeSpec, committed: np.ndarray, i: int,
                   ell: int) -> np.ndarray:
    """Per-row H_{i,0} prefixes 0..ell: past estimates, 0 at i, forced bits.
    Under the invariant of codes._assemble the parity bits in (i, ell] are
    one product of bits 0..i-1 with their T columns, frozen bits stay 0,
    and the H_{i,1} prefix is this one XOR T[i, :ell + 1]."""
    ubuf = np.zeros((committed.shape[0], ell + 1), dtype=np.uint8)
    ubuf[:, :i] = committed[:, :i]
    par = [j for j in range(i + 1, ell + 1) if spec.parity_mask[j]]
    if par:
        ubuf[:, par] = mat_mul(ubuf[:, :i], spec.T[:i, par])
    return ubuf


def _fccn_pass_batch(state: planes.Pair, Q: np.ndarray,
                     phi: np.ndarray) -> tuple[planes.Pair, np.ndarray]:
    """One FCCN round by two float32 products with Q, on a word pair;
    returns (pair, clash) as bitboard.merge_round does.

    The value and erasure words are unpacked and stacked for one product,
    the members' counts of bitboard.fccn_rule (exact below 2^24). The
    product back to the members runs only on the predicate rows that send
    a message (few: a check sends one only with at most one erased
    member), and is packed. Rows that clashed earlier get garbage, but
    they have already failed.
    """
    rows = phi.shape[0]
    counts = bitboard.unpack_rows(np.concatenate(state), Q.shape[0]) @ Q
    preds = bitboard.fccn_rule(counts[:rows].astype(np.int32), counts[rows:],
                               phi)
    sent = np.flatnonzero(preds.any(axis=1))
    hits = np.zeros((preds.shape[0], state[0].shape[1]), dtype=bitboard.U64)
    hits[sent] = bitboard.pack_rows(preds[sent].astype(np.float32) @ Q.T > 0)
    return bitboard.merge_round(state, *hits.reshape(3, *state[0].shape))


def _round_plan(spec: CodeSpec, ell: int):
    """The FCCN rounds of a check at processing index ell, memoized.

    Returns ([(t, operand)] for every stage t that holds future constraints,
    their offset rows side by side, the column bounds between stages). The
    round is chosen here: the operand is the member masks (Q's columns as
    words) of bitboard._fccn_pass64 for N <= 64 and the float32 Q of
    _fccn_pass_batch above; each is faster on its side.
    """
    key = ("rounds", ell)
    plan = spec._cache.get(key)
    if plan is None:
        stages, offsets = [], []
        for t in range(1, spec.n + 1):
            _, Q, off = system_structure(spec, ell, t)
            if off.shape[1]:
                stages.append((t, bitboard.pack_rows(Q.T) if spec.N <= 64
                               else Q.astype(np.float32)))
                offsets.append(off)
        bounds = np.cumsum([off.shape[1] for off in offsets])[:-1]
        plan = (stages, np.hstack(offsets) if offsets else None, bounds)
        spec._cache[key] = plan
    return plan


def _check_batch(spec: CodeSpec, yv: np.ndarray, ye: np.ndarray,
                 ubuf: np.ndarray, ell: int, use_fccn: bool, i_max: int):
    """Run one hypothesis check for every row; returns (passed, iters).

    yv, ye are the rows' packed channel words. This binds each stage's FCCN
    round from _round_plan to the rows' offsets phi (one product for all
    stages) and runs the sweep and verdict in bitboard.check_batch64. The
    round goes with the plan's operands (uint64 masks or float32 Q), and is
    looked up on each call, so wrappers around it see every round. Both
    rounds map a word pair to (pair, clash words).
    """
    rounds = {}
    stages, offsets, bounds = _round_plan(spec, ell) if use_fccn else ([],) * 3
    if stages:
        fccn = (bitboard._fccn_pass64 if stages[0][1].dtype == bitboard.U64
                else _fccn_pass_batch)
        phis = np.split(mat_mul(ubuf, offsets).astype(bool), bounds, axis=1)
        rounds = {t: lambda s, op=op, f=phi: fccn(s, op, f)
                  for (t, op), phi in zip(stages, phis)}
    return bitboard.check_batch64(spec, yv, ye, ubuf, ell, rounds, i_max)


def decode_sc_batch(spec: CodeSpec, yp: planes.Pair, seed: int,
                    trials: np.ndarray) -> BatchOutcome:
    """Plain SC over all rows, as the module docstring describes."""
    rows = yp[0].shape[0]
    trials = np.asarray(trials, dtype=np.uint64)
    alpha: list = [None] * (spec.n + 1)
    alpha[spec.n] = tuple(bitboard.pack_rows(p) for p in yp)
    ps: dict[int, np.ndarray] = {}
    u = np.zeros((rows, -(-spec.N // 64)), dtype=bitboard.U64)
    for i0, t, block in bitboard.walk(spec, alpha, ps):
        if block is not None:
            bitboard.commit(u, i0, block)
            continue
        i = i0 + (1 << t) - 1
        if spec.info_mask[i]:
            bits, erased = bitboard.last_leaf(
                bitboard.leaf_symbols(alpha[t], t), t)
            hit = np.flatnonzero(erased)
            if hit.size:
                bits[hit] = keyed_bit_array(seed, STREAM_COIN, trials[hit],
                                            i, 0)
        else:
            bits = bitboard.forced_bit(spec, u, i)
        bitboard.commit(u, i, bits[:, None])
        bitboard.update_partial_sums(ps, i, bitboard.spread(bits, t), t)
    return BatchOutcome(np.ones(rows, dtype=bool),
                        bitboard.unpack_rows(u, spec.N),
                        np.full(rows, spec.N, dtype=np.int64),
                        *(np.zeros(rows, dtype=np.int64) for _ in range(3)))


def decode_fc_batch(spec: CodeSpec, yp: planes.Pair, engine: str = "bp_scc",
                    i_max: int = 1, sbj: bool = False, seed: int = 0,
                    trials: np.ndarray | None = None) -> BatchOutcome:
    """SCC (engine="scc") or BP-SCC over all rows, with or without SBJ.

    The channel planes are packed to words once and every row goes through
    the one stack search, _dfs_recover64. The search draws no coins, so seed
    and trials are unused; they are kept only for perfbench's spot check.
    """
    if engine not in ("scc", "bp_scc"):
        raise ValueError(f"unknown engine {engine!r}")
    yv, ye = bitboard.pack_rows(yp[0]), bitboard.pack_rows(yp[1])
    return BatchOutcome(*_dfs_recover64(spec, yv, ye, engine != "scc", i_max,
                                        sbj))


def _dfs_recover64(spec: CodeSpec, yv: np.ndarray, ye: np.ndarray,
                   use_fccn: bool, i_max: int, sbj: bool):
    """The stack search for every row at once.

    Each step takes the rows at one information position k and checks
    H_{k,0} and H_{k,1} for all of them in one _check_batch call, on twice
    the rows; the H_{k,1} prefixes are the H_{k,0} ones XOR row spec.A[k]
    of T. Rows that pass H_{k,0} commit 0, and their H_{k,1} verdicts are
    dropped. The rest commit 1 if H_{k,1} passes. The counts (visits,
    iters_sum, checks) take H_{k,1} only where H_{k,0} failed, as the
    scalar search runs it. One call per step costs far less than two, since
    a check's time is mostly per call. A row that fails both backjumps to
    its most recent checkpoint k' and commits 1 at spec.A[k'] unchecked, or
    fails if it has none. Its checkpoints are the information positions
    below k whose committed bit is 0 (none without sbj): only a passing
    H_{k,0} commits a 0, and a backjump XORs row spec.A[k'] of T into the
    row, which flips bit spec.A[k'] alone of the information bits, since
    codes._assemble makes their columns of T unit columns. No bit up to the
    processing index of k' changes while k' is open, so one XOR serves every
    row, whatever k' it takes; the bits it flips above that index are
    rewritten before the search reads them. Rows never interact and the
    check is deterministic, so each row walks the scalar search's path
    exactly; the order of the steps only decides which rows share a check
    call. A row raises past 2^min(K, 40) backjumps: its position only rises
    between them, so a stuck search backjumps without bound, while a correct
    one pops each of its at most 2^K - 1 checkpoints once.

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
    info = np.array(spec.A)
    K = spec.K
    ell_of = spec.ell[info].tolist()
    spans = np.diff(ell_of, prepend=-1)
    backjump_cap = 1 << min(K, 40)
    flip = spec.T[info]

    committed = np.zeros((rows, spec.N), dtype=np.uint8)
    pos = np.zeros(rows, dtype=np.intp)
    alive = np.ones(rows, dtype=bool)
    visits, backjumps, iters_sum, checks = (
        np.zeros(rows, dtype=np.int64) for _ in range(4))

    def check(sel, k):
        # H_{k,0} and H_{k,1} of rows sel in one call; returns where either
        # passed. H_{k,1} is speculative: it counts, and commits, only where
        # H_{k,0} failed.
        i, ell = info[k], ell_of[k]
        m = sel.size
        both = np.concatenate((sel, sel))
        u0 = _extend_prefix(spec, committed[sel], i, ell)
        ubuf = np.concatenate((u0, u0 ^ flip[k, :ell + 1]))
        ok, it = _check_batch(spec, yv[both], ye[both], ubuf, ell,
                              use_fccn, i_max)
        ok0, ok1 = ok[:m], ok[m:] & ~ok[:m]
        runs = 2 - ok0
        visits[sel] += spans[k] * runs
        first = backjumps[sel] == 0
        checks[sel[first]] += runs[first]
        iters_sum[sel[first]] += (it[:m] + np.where(ok0, 0, it[m:]))[first]
        win = ok0 | ok1
        passed = sel[win]
        # a winner's prefix is row r of ubuf, or row m + r where H_{k,1} won
        committed[passed, i:ell + 1] = ubuf[np.flatnonzero(win)
                                            + m * ok1[win], i:]
        pos[passed] = k + 1
        return win

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
        dead = sel[~check(sel, k)]
        zero = (committed[dead[:, None], info[:k]] == 0) & sbj
        jumps = zero.any(axis=1)
        failed = dead[~jumps]
        alive[failed] = False
        pos[failed] = K
        bj = dead[jumps]
        if bj.size == 0:
            continue
        kk = k - 1 - zero[jumps, ::-1].argmax(axis=1)
        backjumps[bj] += 1
        visits[bj] += 1
        last_bj[bj] = step
        committed[bj] ^= flip[kk]
        pos[bj] = kk + 1
        if backjumps[bj].max() > backjump_cap:
            raise RuntimeError("backjump budget exceeded; traversal is stuck")
    return alive, committed, visits, backjumps, iters_sum, checks
