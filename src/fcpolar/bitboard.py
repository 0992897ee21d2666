"""The uint64 word layout of symbol planes, and the one stage sweep.

A stage-t block holds 2^t symbols in ceil(2^t / 64) uint64 words per plane,
little-endian within each word and across words; unused high bits stay
zero. pack_rows, unpack_rows, mask, split, join, steps, refresh, walk,
leaf_symbols, last_leaf, spread, polar_transform, update_partial_sums,
commit and forced_bit are the whole layout: the SC recursion of
batch.decode_sc_batch and of scl runs on it for any N, with the
four-symbol planes.plus / plus_bits / dot applied to (value, erased) word
pairs, and both keep their decided bits packed in the same words. walk is
their one schedule (see its docstring); a decoder only decides the last
leaf of each step that walk does not decide whole.

check_batch64 is the sweep and verdict of every hypothesis check that the
batched stack search of SCC and BP-SCC runs, at every N. It holds each
stage block as a (value, erased) word pair and applies plus_pair,
dot_pair and plus_bits (on valid pairs, plus_pair with concrete bits): a
check only asks whether a row clashed anywhere, so each dot and each
FCCN round returns its clash words and the sweep folds them into one
per-row fail flag. batch._check_batch hands it each stage's FCCN round,
bound to the operands of _round_plan; both rounds take a word pair, send
the messages of fccn_rule and end in merge_round. _fccn_pass64 is the
round for N <= 64: bitwise_counts under each check's member masks give
its counts, and the masks each predicate selects OR-reduce to the
members' messages (exact: the combine operator is commutative and
associative). The BLAS round for longer codes is batch._fccn_pass_batch.
left_partial_sums forms every beta_t of a check from its packed prefix by
one in-word butterfly.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .codes import CodeSpec
from .planes import Pair, dot, dot_pair, plus, plus_bits, plus_pair

U64 = np.uint64
_ONE = U64(1)

# No longer a function here (batch._round_plan reads the structures); the
# benchmark's self-test reads every name its tracer wraps, this one too.
system_structure = None


def mask(width: int) -> np.uint64:
    """Word mask of a block of width symbols (all ones from 64 up)."""
    return U64((1 << min(width, 64)) - 1)


# The in-word halves of a stage-(t+1) block for t < 6: the low 2^t bits,
# and the shift that brings the high half down.
_LOW = tuple(mask(1 << t) for t in range(6))
_SHIFT = tuple(U64(1 << t) for t in range(6))


def pack_rows(bits: np.ndarray) -> np.ndarray:
    """Pack a boolean or 0/1 (rows, width) array into (rows, W) words."""
    packed = np.packbits(bits, axis=1, bitorder="little")
    if bits.shape[1] % 64 == 0:
        return np.ascontiguousarray(packed).view("<u8").astype(U64, copy=False)
    padded = np.zeros((bits.shape[0], -(-bits.shape[1] // 64) * 8), np.uint8)
    padded[:, :packed.shape[1]] = packed
    return padded.view("<u8").astype(U64, copy=False)


def unpack_rows(words: np.ndarray, width: int) -> np.ndarray:
    """Inverse of pack_rows: (rows, W) words to a (rows, width) 0/1 array."""
    octets = np.ascontiguousarray(words, dtype="<u8").view(np.uint8)
    return np.unpackbits(octets, axis=1, count=width, bitorder="little")


def split(p: tuple, t: int) -> tuple[tuple, tuple]:
    """Halve a stage-(t+1) block (a pair of planes) into its stage-t left
    and right children. The right child needs no mask: the bits above the
    block are zero."""
    if t >= 6:
        w = 1 << (t - 6)
        return tuple([x[..., :w] for x in p]), tuple([x[..., w:] for x in p])
    m, s = _LOW[t], _SHIFT[t]
    return tuple([x & m for x in p]), tuple([x >> s for x in p])


def _cat(a: np.ndarray, c: np.ndarray, t: int) -> np.ndarray:
    if t >= 6:
        return np.concatenate((a, c), axis=-1)
    return a | (c << _SHIFT[t])


def join(a: tuple, c: tuple, t: int) -> tuple:
    """Inverse of split: one stage-(t+1) block from its stage-t halves."""
    return tuple(_cat(x, y, t) for x, y in zip(a, c))


def steps(spec: CodeSpec) -> tuple[tuple[int, int], ...]:
    """The SC schedule of spec, memoized: (i0, t) for each step, in order,
    an aligned block [i0, i0 + 2^t) of one of two kinds, each as large as
    it can be: a frozen run, whose leaves but the last are statically
    frozen (neither information nor parity), or an information block,
    whose leaves are all information bits. A path commits 0 at each
    frozen leaf, so a frozen run's partial sums within the block are zero.
    Only an information block of t > 0 starts at an information leaf; a
    single information leaf is both."""
    plan = spec._cache.get("steps")
    if plan is None:
        info = spec.info_mask
        ones = [0, *np.cumsum(info).tolist()]
        unfrozen = [0, *np.cumsum(info | spec.parity_mask).tolist()]

        def whole(i0: int, end: int) -> bool:
            if info[i0]:  # every leaf an information leaf
                return ones[end] - ones[i0] == end - i0
            # no unfrozen leaf but the last
            return unfrozen[end - 1] == unfrozen[i0]

        plan, i0 = [], 0
        while i0 < spec.N:
            t = 0
            while (i0 % (2 << t) == 0 and i0 + (2 << t) <= spec.N
                   and whole(i0, i0 + (2 << t))):
                t += 1
            plan.append((i0, t))
            i0 += 1 << t
        plan = spec._cache["steps"] = tuple(plan)
    return plan


def refresh(alpha: list, ps: dict[int, np.ndarray], i0: int, t: int,
            n: int, top: int | None = None) -> None:
    """Recompute the SC stage blocks alpha[s], top >= s >= t, that move when
    a step of 2^t leaves starts at leaf i0 (aligned to 2^t); alpha[n] is
    the channel, ps the partial sums. By default top is the highest stage
    that moves at i0; a left half of a block whose stage alpha[t + 1] is
    current passes t. alpha[t] is then the step's block."""
    if top is None:
        top = (i0 & -i0).bit_length() - 1 if i0 else n - 1
    for s in range(top, t - 1, -1):
        a, c = split(alpha[s + 1], s)
        if (i0 >> s) & 1 == 0:
            alpha[s] = plus(a, c)
        else:
            alpha[s] = dot(plus_bits(a, ps[s]), c)


def walk(spec: CodeSpec, alpha: list, ps: dict[int, np.ndarray],
         channel=None):
    """Run the SC schedule: refresh each step of steps(spec) in turn and
    yield (i0, t, bits), alpha[t] then its stage-t block. An information
    block of t > 0 that no row has an erased or conflicting symbol on is
    decided whole: its values are its partial sums, which walk folds into
    ps, and bits is their polar_transform. Any other one is walked as its
    halves, down to single leaves, and the left half's refresh computes
    stage t - 1 alone, so no stage is refreshed twice. Every other step
    yields bits None: the caller decides its last leaf and folds it into
    ps. channel, if given, is called for alpha[n] before each refresh that
    reads it: at leaves 0 and N/2, never in a left half."""
    work = [(i0, t, None) for i0, t in reversed(steps(spec))]
    while work:
        i0, t, top = work.pop()
        if channel is not None and top is None and i0 in (0, spec.N >> 1):
            alpha[spec.n] = channel()
        refresh(alpha, ps, i0, t, spec.n, top)
        if not (t and spec.info_mask[i0]):
            yield i0, t, None
        elif alpha[t][1].any():
            half = 1 << (t - 1)
            work += [(i0 + half, t - 1, None), (i0, t - 1, t - 1)]
        else:
            values = alpha[t][0]
            update_partial_sums(ps, i0 + (1 << t) - 1, values, t)
            yield i0, t, polar_transform(values, t)


def commit(u: np.ndarray, i0: int, words: np.ndarray) -> None:
    """OR an aligned block of bit words, (rows, w), into the packed words u
    from leaf i0 on; words[:, None] of (rows,) bits commits leaf i0."""
    u[:, i0 >> 6:(i0 >> 6) + words.shape[1]] |= words << U64(i0 & 63)


def last_leaf(block: Pair, t: int) -> Pair:
    """The (value, erased) bits of the last symbol of a stage-t block."""
    last = U64(((1 << t) - 1) & 63)
    return tuple((w[:, -1] >> last) & _ONE for w in block)


def forced_bit(spec: CodeSpec, u: np.ndarray, i: int) -> np.ndarray:
    """The (rows,) bits forced at a frozen or parity leaf i by the packed
    earlier bits u: 0 at a frozen leaf, and at a parity leaf the parity of
    u under column i of T above the diagonal, packed once per spec."""
    if not spec.parity_mask[i]:
        return np.zeros(u.shape[0], U64)
    taps = spec._cache.get("taps")
    if taps is None:
        taps = spec._cache["taps"] = pack_rows(np.triu(spec.T, 1).T)
    return np.bitwise_count(u & taps[i]).sum(axis=1, dtype=U64) & _ONE


# In-word left halves of the 2^(s+1)-symbol groups: bits j, bit s clear.
_HALVES = tuple(U64(sum(1 << j for j in range(64) if not (j >> s) & 1))
                for s in range(6))


def leaf_symbols(block: Pair, t: int) -> Pair:
    """Every leaf symbol of a stage-t block with zero partial sums, leaf j
    at symbol j: each level of one butterfly splits every group into
    plus(a, c) and dot(a, c), as refresh does (plus_bits(a, 0) is a).
    Levels from 6 up move whole words, the others act within each word."""
    v, e = block
    rows, width = v.shape
    for s in range(t - 1, 5, -1):
        groups = [x.reshape(rows, -1, 2, 1 << (s - 6)) for x in (v, e)]
        a, c = (tuple(x[:, :, h] for x in groups) for h in (0, 1))
        v, e = (np.stack(halves, axis=2).reshape(rows, width)
                for halves in zip(plus(a, c), dot(a, c)))
    for s in range(min(t, 6) - 1, -1, -1):
        m, shift = _HALVES[s], _SHIFT[s]
        a, c = (v & m, e & m), ((v >> shift) & m, (e >> shift) & m)
        (lv, le), (rv, re) = plus(a, c), dot(a, c)
        v, e = lv | (rv << shift), le | (re << shift)
    return v, e


def spread(value: np.ndarray, t: int) -> np.ndarray:
    """Each row's bit in all 2^t positions of a stage-t block of words."""
    words = value.astype(U64).reshape(-1, 1) * mask(1 << t)
    return np.repeat(words, 1 << (t - 6), axis=1) if t > 6 else words


def polar_transform(words: np.ndarray, t: int) -> np.ndarray:
    """The stage-t transform (Arikan's encoder) of each row's block of
    words: every level of left_partial_sums's butterfly over the whole
    block. It is its own inverse, so it also takes a block of known
    symbols back to its leaves."""
    x = words.copy()
    for s in range(t):
        _xor_level(x, s, _HALVES[s] if s < 6 else x.shape[1])
    return x


def update_partial_sums(ps: dict[int, np.ndarray], i: int,
                        words: np.ndarray, t: int) -> None:
    """Fold the step of 2^t leaves ending at leaf i into the partial-sum
    words; words is the step's own stage-t transform, (rows, W) words.

    ps[s] holds the stage-s transform of the most recently completed left
    block, which is exactly the beta needed when the path next descends
    right at stage s. A frozen run's transform is spread(value, t), value
    its last bit (the last row of kron_power(t) is all ones); a whole
    information block's is its stage-t values. ps[s] below t goes stale.
    """
    carry = words
    while (i >> t) & 1:
        carry = _cat(ps[t] ^ carry, carry, t)
        t += 1
    ps[t] = carry


@lru_cache(maxsize=1024)  # one entry per leaf, N <= 1024
def _butterfly(ell: int) -> tuple:
    """The levels of left_partial_sums at leaf ell, on ceil((ell+1)/64)
    words: (s, read-only word masks) for s < 6, (s, words covered) from 6
    up."""
    j = np.arange(-(-(ell + 1) // 64) * 64)
    levels = []
    for s in range(ell.bit_length() - 1):
        below = (ell >> (s + 1)) << (s + 1)
        if s < 6:
            masks = pack_rows((((j >> s) & 1 == 0) & (j < below))[None, :])[0]
            masks.setflags(write=False)
            levels.append((s, masks))
        else:
            levels.append((s, below >> 6))
    return tuple(levels)


def _xor_level(x: np.ndarray, s: int, m) -> None:
    """Level s of the butterfly, in place: XOR the bit 2^s above into each
    position with bit s clear, under the word masks m below 6 and over the
    first m words from 6 up."""
    if s < 6:
        x ^= (x >> _SHIFT[s]) & m
    else:
        h = 1 << (s - 6)
        v = x[:, :m].reshape(x.shape[0], m // (2 * h), 2, h, copy=False)
        v[:, :, 0] ^= v[:, :, 1]


def left_partial_sums(words: np.ndarray, ell: int) -> dict[int, np.ndarray]:
    """beta_t for every stage t where the path to leaf ell descends right,
    as stage-t words: the stage-t transform (Arikan's encoder) of the left
    sibling block [lo, lo + 2^t), lo = (ell >> (t+1)) << (t+1).

    words is the (rows, W) packing of each row's prefix bits 0..ell. One
    butterfly forms every beta_t: level s XORs the bit 2^s above into each
    position with bit s clear below (ell >> (s+1)) << (s+1), that is inside
    a completed 2^(s+1) block. A left sibling block of stage t then took
    levels 0..t-1 and no other, which is its transform, and never read a
    bit outside itself. Levels below 6 act within each word (a shift under
    memoized masks), the others move whole words. beta_t is then a word
    slice from t = 6 up and a shift under a mask below.
    """
    x = words.copy()
    for s, m in _butterfly(ell):
        _xor_level(x, s, m)
    betas = {}
    for t in range(ell.bit_length()):
        if (ell >> t) & 1:
            lo = (ell >> (t + 1)) << (t + 1)
            if t >= 6:
                betas[t] = x[:, lo >> 6:(lo >> 6) + (1 << (t - 6))]
            else:
                betas[t] = (x[:, lo >> 6:(lo >> 6) + 1] >> U64(lo & 63)) & _LOW[t]
    return betas


def merge_round(state: Pair, clash, got1, got0) -> tuple[Pair, np.ndarray]:
    """Land one FCCN round's messages on a word pair; returns (pair, clash).

    clash marks known members that one of their checks contradicts; got1 and
    got0 mark members some check hands the value 1 or 0. An erased member
    takes the value that arrives, and clashes if both do. Where a clash is
    returned the pair means nothing: the row fails.
    """
    v, e = state
    got1 = got1 & e
    return (v | got1, e & ~(got1 | got0)), clash | (got1 & got0)


def fccn_rule(ones, erased, phi: np.ndarray) -> np.ndarray:
    """The FCCN messages of each (row, check) from its members' count of
    value bits ones (an integer array) and of erased bits, and its offset
    phi: a_j = the members' parity XOR phi_j. Returns the predicates of
    merge_round's clash, got1 and got0, stacked as (3 * rows, checks): a
    check with no erased member and a_j = 1 clashes its known members, and
    one with a single erased member hands it a_j."""
    a = (ones & 1).astype(bool) ^ phi
    single = erased == 1
    return np.concatenate([(erased == 0) & a, single & a, single & ~a])


def _fccn_pass64(state: Pair, masks: np.ndarray,
                 phi: np.ndarray) -> tuple[Pair, np.ndarray]:
    """One FCCN round by popcount under the (checks, W) member masks;
    masks[j] is the word form of check j's members (zero masks are inert).
    The masks each predicate of fccn_rule selects OR-reduce to the
    members' messages. Rows that clashed earlier get garbage, but they
    have already failed.
    """
    v, e = state
    preds = fccn_rule(np.bitwise_count(v[:, None] & masks).sum(axis=2),
                      np.bitwise_count(e[:, None] & masks).sum(axis=2),
                      phi).reshape(3, *phi.shape)
    return merge_round(state, *np.bitwise_or.reduce(
        np.where(preds[..., None], masks, U64(0)), axis=2))


def check_batch64(spec: CodeSpec, yv: np.ndarray, ye: np.ndarray,
                  ubuf: np.ndarray, ell: int, rounds: dict, i_max: int):
    """The stage sweep and verdict of one hypothesis check per row.

    yv and ye are the channel's value and erasure words, (rows, W) for the
    length-N block; ubuf holds the hypothesis prefixes 0..ell. rounds maps a
    stage t to its FCCN round, run on the stage-t pair before each descent
    through it. Returns (passed, iters): a row fails on a clash or a
    concrete processing symbol other than ubuf[:, ell]; one still erased
    after i_max sweeps passes. iters counts the sweeps to the verdict.

    Sweep 1 is the SC descent alone: each child is plus(a, c) at a 0-bit
    of ell and dot(plus_bits(a, beta_t), c) at a 1-bit, and the parent
    block keeps its halves (a, c). That is the full update, exactly: the
    stage blocks below the channel start all-erased, dot(erased, x) is x,
    and plus(erased, x) is erased, so the update would hand back (a, c) on
    every row. Sweeps 2 to i_max run the full update, which also sends each
    child back up.

    Blocks are (value, erased) pairs; conflicts are never stored. Each dot
    and each round returns its clash words, and one OR-scan per sweep folds
    them into the rows' fail flag. This is exact: every operator and both
    rounds only add conflicts, and a row with one fails, so the rows with a
    conflict anywhere at the end of a sweep are the rows that clashed in
    it or before. Pairs stay valid, so what a clash leaves behind is only
    read by rows that have failed.

    A row also stops at a fixed point. On the BEC a clash-free row never
    regains an erasure nor changes a concrete value, so a sweep that leaves
    its total erased count unchanged left every block unchanged, and every
    later sweep repeats it: the leaf stays erased, and the row passes with
    iters = i_max as it would after the last sweep.
    """
    rows = ubuf.shape[0]
    n = spec.n
    state: list = [None] * (n + 1)
    state[n] = (yv, ye)
    betas = left_partial_sums(pack_rows(ubuf), ell)

    prescribed = ubuf[:, ell].astype(U64)
    passed = np.ones(rows, dtype=bool)
    iters = np.full(rows, i_max, dtype=np.int64)
    open_rows = np.ones(rows, dtype=bool)
    fail = np.zeros(rows, dtype=bool)
    erased = None
    clashes: list = []

    def flagged_dot(x, y):
        pair, clash = dot_pair(x, y)
        clashes.append(clash)
        return pair

    for it in range(1, i_max + 1):
        for t in range(n - 1, -1, -1):
            if t + 1 in rounds:
                state[t + 1], clash = rounds[t + 1](state[t + 1])
                clashes.append(clash)
            a, c = split(state[t + 1], t)
            right = (ell >> t) & 1
            down = (flagged_dot(plus_bits(a, betas[t]), c) if right
                    else plus_pair(a, c))
            if it == 1:
                state[t] = down
                continue
            old = state[t]
            state[t] = flagged_dot(old, down)
            if right:
                na = flagged_dot(plus_bits(old, betas[t]), a)
                nc = flagged_dot(old, c)
            else:
                na = flagged_dot(a, plus_pair(old, c))
                nc = flagged_dot(c, plus_pair(old, a))
            state[t + 1] = join(na, nc, t)
        if clashes:
            fail |= np.hstack(clashes).any(axis=1)
            clashes.clear()
        lv, le = (p[:, 0] & _ONE for p in state[0])
        done = open_rows & (fail | (le == 0))
        passed &= ~(done & (fail | (lv != prescribed)))
        iters[done] = it
        open_rows &= ~done
        if it < i_max:
            last, erased = erased, np.bitwise_count(
                np.hstack([p[1] for p in state])).sum(axis=1)
            if last is not None:
                open_rows &= erased != last
        if not open_rows.any():
            break
    return passed, iters
