"""Trial-vectorized BEC decoding, one row per channel realization.

The sweep math is the vector form of the scalar engines and reproduces
them bit for bit, because every random draw (message bits, erasures, coin
flips) is keyed by (trial, position, count) rather than consumed from a
sequential stream. All of it runs on the planes operators over the
bitboard word layout.

Plain SC runs on the schedule of bitboard.walk with one row per trial
(_sc_leaves). At the last leaf of each step that walk does not decide
whole, a row takes the leaf's value, a keyed coin where the leaf is
erased or in conflict, or the forced bit of a frozen or parity leaf. It
never forks, and it keeps a row whose coin was wrong; the conflicts that
row carries split the blocks after it.
SCC and BP-SCC, with or without stack-based backjumping (SBJ), are one
stack search over all rows (_dfs_recover64) that reads its checkpoints
off each row's committed word; without SBJ no row has one. It first runs
plain SC on the same loop without coins (_sc_pass). Below a row's first
erased or conflicting information leaf, where the processing index ell_k
is the bit i_k itself, a row that kept to that pass passes the
hypothesis of the pass's bit and fails the other, as the check would:
the search takes those verdicts and calls no check. Every other search
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


def _sc_leaves(spec: CodeSpec, channel: planes.Pair, u: np.ndarray):
    """Plain SC on the schedule of bitboard.walk over the packed channel
    words, committing every decided bit into the packed words u.

    At each information leaf that walk does not decide whole this yields
    (i, bits, erased) before it commits bits: bits is the leaf's value,
    and 0 on the rows whose leaf is erased or in conflict (erased, a bool
    row mask). The caller may set those rows' bits before it resumes.
    """
    alpha: list = [None] * (spec.n + 1)
    alpha[spec.n] = channel
    ps: dict[int, np.ndarray] = {}
    for i0, t, block in bitboard.walk(spec, alpha, ps):
        if block is not None:
            bitboard.commit(u, i0, block)
            continue
        i = i0 + (1 << t) - 1
        if spec.info_mask[i]:
            bits, erased = bitboard.last_leaf(
                bitboard.leaf_symbols(alpha[t], t), t)
            erased = erased.astype(bool)
            bits[erased] = 0
            yield i, bits, erased
        else:
            bits = bitboard.forced_bit(spec, u, i)
        bitboard.commit(u, i, bits[:, None])
        bitboard.update_partial_sums(ps, i, bitboard.spread(bits, t), t)


def decode_sc_batch(spec: CodeSpec, yp: planes.Pair, seed: int,
                    trials: np.ndarray) -> BatchOutcome:
    """Plain SC over all rows, as the module docstring describes."""
    rows = yp[0].shape[0]
    trials = np.asarray(trials, dtype=np.uint64)
    u = np.zeros((rows, -(-spec.N // 64)), dtype=bitboard.U64)
    channel = tuple(bitboard.pack_rows(p) for p in yp)
    for i, bits, erased in _sc_leaves(spec, channel, u):
        hit = np.flatnonzero(erased)
        if hit.size:
            bits[hit] = keyed_bit_array(seed, STREAM_COIN, trials[hit], i, 0)
    return BatchOutcome(np.ones(rows, dtype=bool),
                        bitboard.unpack_rows(u, spec.N),
                        np.full(rows, spec.N, dtype=np.int64),
                        *(np.zeros(rows, dtype=np.int64) for _ in range(3)))


def _sc_pass(spec: CodeSpec, yv: np.ndarray,
             ye: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Plain SC without coins on the packed channel words: an erased or
    conflicting information leaf takes 0. Returns the (rows, N) bits and
    the (rows, K) flags of the information leaves that were erased or in
    conflict."""
    u = np.zeros_like(yv)
    flags = np.zeros((yv.shape[0], spec.K), dtype=bool)
    k_of = np.cumsum(spec.info_mask) - 1
    for i, _, erased in _sc_leaves(spec, (yv, ye), u):
        flags[:, k_of[i]] = erased
    return bitboard.unpack_rows(u, spec.N), flags


def decode_fc_batch(spec: CodeSpec, yp: planes.Pair, engine: str = "bp_scc",
                    i_max: int = 1, sbj: bool = False, seed: int = 0,
                    trials: np.ndarray | None = None) -> BatchOutcome:
    """SCC (engine="scc") or BP-SCC over all rows, with or without SBJ.

    The channel planes are packed to words once and every row goes through
    the one stack search, _dfs_recover64, which takes plain SC's verdicts
    where they are the check's (below a row's first erased information
    leaf, where ell_k = i_k) and checks both hypotheses everywhere else.
    The search draws no coins, so seed and trials are unused; they are
    kept only for perfbench's spot check.
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

    Where plain SC decides a bit, the search takes its verdicts without a
    call. Before the search, one SC pass (_sc_pass) decodes every row and
    draws no coin: an erased or conflicting information leaf takes 0, and
    a row's horizon is its first such leaf. A row is on the pass while
    every information bit it committed below its position equals the
    pass's. At a position k below its horizon where ell_k = i_k, with v
    the pass's bit there, such a row passes H_{k,v} and fails H_{k,1-v},
    both in sweep 1:
    - SC's BEC deductions are sound (the channel is a BEC output of a
      codeword), so the row's prefix, the pass's concrete bits and the
      bits they force, is the transmitted word's. H_{k,v} has a consistent
      completion, and the check never rejects one.
    - At ell_k = i_k both hypotheses share every beta. The sweep and its
      FCCN rounds only refine SC's symbols or clash, so the leaf stays v
      or the row fails: H_{k,1-v} fails.
    - The leaf is concrete after sweep 1, so both verdicts land there.
    The row gains the counts the check would give (spans[k] (1 + v)
    visits, 1 + v checks and 1 + v iterations), and one step takes it on
    to its next position that needs a check, its horizon or the next
    ell_k > i_k, by per-row cumulative sums, and commits the pass's bits
    up to the processing index before that position. Every other (row, k)
    is checked. The search keeps each row's first position below its own
    where it committed a bit against the pass; a backjump that flips that
    bit, which makes it the pass's, puts the row back on the pass.

    The order of the checks is a sweep led by the rows that backjumped in
    the last _RECENT steps: each step takes the lowest position above the
    previous one that such a row holds, and every row there. Rows that
    backjump land behind the sweep and wait, so rows that dead-end in the
    same stretch restart together. With no such row ahead, the sweep
    starts again at the lowest row, so rows that run clear wait for the
    rows behind to catch up and share their checks, instead of running on
    alone. Always taking the lowest row instead puts rows that backjump
    often out of step: 2.5x the check calls of this sweep on 300
    NR(64, 32) trials at p=0.35. Never restarting early leaves the rows
    that run clear alone: 3.1x on 16 NR(1024, 512) trials at p=0.40.

    Returns (success, committed, visits, backjumps, iters_sum, checks), the
    fields of BatchOutcome; iters_sum and checks cover the checks before a
    row's first backjump. The name is the one perfbench's batch.recover
    span wraps.
    """
    rows = yv.shape[0]
    info = np.array(spec.A)
    K = spec.K
    ells = spec.ell[info]
    ell_of = ells.tolist()
    spans = np.diff(ells, prepend=-1)
    backjump_cap = 1 << min(K, 40)
    flip = spec.T[info]

    committed = np.zeros((rows, spec.N), dtype=np.uint8)
    pos = np.zeros(rows, dtype=np.intp)
    alive = np.ones(rows, dtype=bool)
    visits, backjumps, iters_sum, checks = (
        np.zeros(rows, dtype=np.int64) for _ in range(4))

    sc_bits, erased = _sc_pass(spec, yv, ye)
    sc_info = sc_bits[:, info]
    horizon = np.where(erased.any(axis=1), erased.argmax(axis=1), K)
    # the positions where ell_k = i_k, and from each k the first other one
    sure = np.append(ells == info, False)
    hard = np.flatnonzero(~sure)
    next_hard = hard[np.searchsorted(hard, np.arange(K))]
    # the checks and visits the pass's verdicts give before each position
    cum_checks = np.zeros((rows, K + 1), dtype=np.int32)
    np.cumsum(1 + sc_info, axis=1, dtype=np.int32, out=cum_checks[:, 1:])
    cum_visits = np.zeros_like(cum_checks)
    np.cumsum(spans * (1 + sc_info), axis=1, dtype=np.int32,
              out=cum_visits[:, 1:])
    # each row's first position off the pass below its own position, or K
    off_pass = np.full(rows, K, dtype=np.intp)
    leaves = np.arange(spec.N)

    def follow(sel):
        # Rows sel are on the pass, below their horizon, at a position
        # where ell_k = i_k: the pass's verdicts, counts and bits, up to
        # their next position that needs a check.
        k = pos[sel]
        stop = np.minimum(horizon[sel], next_hard[k])
        visits[sel] += cum_visits[sel, stop] - cum_visits[sel, k]
        first = backjumps[sel] == 0
        gained = (cum_checks[sel, stop] - cum_checks[sel, k]) * first
        checks[sel] += gained
        iters_sum[sel] += gained
        upto = leaves <= ells[stop - 1, None]
        committed[sel] = np.where(upto, sc_bits[sel], committed[sel])
        pos[sel] = stop

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
        strayed = passed[ok1[win] != sc_info[passed, k]]
        off_pass[strayed] = np.minimum(off_pass[strayed], k)
        return win

    live = np.arange(rows)
    last_bj = np.full(rows, -_RECENT)
    k = step = -1
    while True:
        at = pos[live]
        easy = live[(off_pass[live] == K) & (at < horizon[live]) & sure[at]]
        if easy.size:
            follow(easy)
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
        # the flip makes bit kk 1: a row on the pass below kk is on it
        # below kk + 1 where the pass's bit is 1, and off it at kk otherwise
        on = off_pass[bj] >= kk
        off_pass[bj[on]] = np.where(sc_info[bj[on], kk[on]] == 1, K, kk[on])
        if backjumps[bj].max() > backjump_cap:
            raise RuntimeError("backjump budget exceeded; traversal is stuck")
    return alive, committed, visits, backjumps, iters_sum, checks
