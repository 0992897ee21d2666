"""The uint64 word layout of symbol planes, and the one stage sweep.

A stage-t block holds 2^t symbols in ceil(2^t / 64) uint64 words per plane
(value, erased, conflict), little-endian within each word and across
words; unused high bits stay zero. pack_rows, unpack_rows, mask, split,
join, refresh and update_partial_sums are the whole layout: the SC
recursion of batch.decode_sc_batch and of scl runs on it for any N, with
the planes.plus / plus_bits / dot operators applied to words.

check_batch64 is the sweep and verdict of every hypothesis check that the
batched stack search of SCC and BP-SCC runs, at every N. Its caller,
batch._check_batch, hands it the FCCN round of each stage; both rounds take
and return word triples and end in merge_round. _fccn_pass64 is the round
for N <= 64: bitwise_counts under each check's member masks give its parity
a_j and erasure count c_j, and the masks each predicate selects OR-reduce
to the members' messages (exact: the combine operator is commutative and
associative). The BLAS round for longer codes is batch._fccn_pass_batch.
"""

from __future__ import annotations

import numpy as np

from .codes import CodeSpec
from .constraints import system_structure
from .gf2 import kron_power, mat_mul_f32
from .planes import Planes, dot, plus, plus_bits

U64 = np.uint64
_ONE = U64(1)


def mask(width: int) -> np.uint64:
    """Word mask of a block of width symbols (all ones from 64 up)."""
    return U64((1 << min(width, 64)) - 1)


def pack_rows(bits: np.ndarray) -> np.ndarray:
    """Pack a boolean or 0/1 (rows, width) array into (rows, W) words."""
    packed = np.packbits(bits, axis=1, bitorder="little")
    padded = np.zeros((bits.shape[0], -(-bits.shape[1] // 64) * 8), np.uint8)
    padded[:, :packed.shape[1]] = packed
    return padded.view("<u8").astype(U64, copy=False)


def unpack_rows(words: np.ndarray, width: int) -> np.ndarray:
    """Inverse of pack_rows: (rows, W) words to a (rows, width) 0/1 array."""
    octets = np.ascontiguousarray(words, dtype="<u8").view(np.uint8)
    return np.unpackbits(octets, axis=1, count=width, bitorder="little")


def split(p: Planes, t: int) -> tuple[Planes, Planes]:
    """Halve a stage-(t+1) block into its stage-t left and right children."""
    v, e, h = p
    if t >= 6:
        w = 1 << (t - 6)
        return (v[..., :w], e[..., :w], h[..., :w]), (v[..., w:], e[..., w:],
                                                       h[..., w:])
    m, s = mask(1 << t), U64(1 << t)
    return (v & m, e & m, h & m), ((v >> s) & m, (e >> s) & m, (h >> s) & m)


def _cat(a: np.ndarray, c: np.ndarray, t: int) -> np.ndarray:
    if t >= 6:
        return np.concatenate((a, c), axis=-1)
    return a | (c << U64(1 << t))


def join(a: Planes, c: Planes, t: int) -> Planes:
    """Inverse of split: one stage-(t+1) block from its stage-t halves."""
    return _cat(a[0], c[0], t), _cat(a[1], c[1], t), _cat(a[2], c[2], t)


def refresh(alpha: list, ps: dict[int, np.ndarray], i: int, n: int) -> None:
    """Recompute the SC stage blocks alpha[t] that move when the leaf
    advances to bit i; alpha[n] is the channel, ps the partial sums."""
    top = (i & -i).bit_length() - 1 if i else n - 1
    for t in range(top, -1, -1):
        a, c = split(alpha[t + 1], t)
        if (i >> t) & 1 == 0:
            alpha[t] = plus(a, c)
        else:
            alpha[t] = dot(plus_bits(a, ps[t]), c)


def update_partial_sums(ps: dict[int, np.ndarray], i: int,
                        value: np.ndarray) -> None:
    """Fold committed bit i (one per row) into the partial-sum words.

    ps[t] holds the stage-t transform of the most recently completed left
    block, which is exactly the beta needed when the path next descends
    right at stage t.
    """
    carry = value.astype(U64).reshape(-1, 1)
    t = 0
    while (i >> t) & 1:
        carry = _cat(ps[t] ^ carry, carry, t)
        t += 1
    ps[t] = carry


def _bb_checks(spec: CodeSpec, ell: int, t: int):
    """Stage-t (member masks, offset rows), memoized; masks[j] is the
    (W,) word form of check j's members (zero masks are inert)."""
    key = ("bb", ell, t)
    cached = spec._cache.get(key)
    if cached is None:
        _, Q, offsets = system_structure(spec, ell, t)
        cached = (pack_rows(Q.T), offsets)
        spec._cache[key] = cached
    return cached


def merge_round(state: Planes, clash, got1, got0) -> Planes:
    """Land one FCCN round's messages on a word triple.

    clash marks known members that one of their checks contradicts; got1 and
    got0 mark members some check hands the value 1 or 0. An erased member
    takes the value that arrives, and a conflict if both do; conflicts stay.
    """
    v, e, h = state
    got1 = got1 & e
    return ((v & ~clash) | (got1 & ~got0), e & ~(got1 | got0),
            h | clash | (got1 & got0))


def _fccn_pass64(state: Planes, masks: np.ndarray, phi: np.ndarray) -> Planes:
    """One FCCN round by popcount under the (checks, W) member masks.

    Per check j: a_j = members' parity XOR phi_j, c_j = erased members; a
    known member clashes under a check with c_j = 0 and a_j = 1, an erased
    one gets a_j from checks with c_j = 1. Rows already holding a conflict
    get garbage, but the sweep's conflict scan fails them.
    """
    v, e, h = state
    cnt = np.bitwise_count(e[:, None] & masks).sum(axis=2)
    odd = np.bitwise_count(v[:, None] & masks).sum(axis=2) & 1
    a = odd.astype(bool) ^ phi
    single = cnt == 1
    preds = np.stack([(cnt == 0) & a, single & a, single & ~a])
    return merge_round(state, *np.bitwise_or.reduce(
        np.where(preds[..., None], masks, U64(0)), axis=2))


def check_batch64(spec: CodeSpec, yv: np.ndarray, ye: np.ndarray,
                  ubuf: np.ndarray, ell: int, rounds: dict, i_max: int):
    """The stage sweep and verdict of one hypothesis check per row.

    yv and ye are the channel's value and erasure words, (rows, W) for the
    length-N block; ubuf holds the hypothesis prefixes 0..ell. rounds maps a
    stage t to its FCCN round, run on the stage-t block before each descent
    through it. Returns (r, eps, iters): r is True where the check passed,
    eps flags rows whose processing symbol stayed erased through i_max
    sweeps, iters is the sweep count at resolution.

    Sweep 1 is the SC descent alone: each child is plus(a, c) at a 0-bit
    of ell and dot(plus_bits(a, beta_t), c) at a 1-bit, and the parent
    block keeps its halves (a, c). That is the full update, exactly: the
    stage blocks below the channel start all-erased, dot(erased, x) is x,
    and plus(erased, x) is erased except where x holds a conflict, so the
    update would hand back (a, c) on every row without a conflict, and a
    row with one fails at the end of the sweep anyway. Sweeps 2 to i_max
    run the full update, which also sends each child back up.

    Conflicts are scanned once per sweep, over all n+1 stages: every
    operator and both rounds only OR into the conflict plane, so a conflict
    raised anywhere in the sweep is still there at its end.
    """
    rows = ubuf.shape[0]
    n = spec.n
    state: list = [None] * (n + 1)
    state[n] = (yv, ye, np.zeros_like(yv))

    betas = {}
    for t in range(n):
        if (ell >> t) & 1:
            lo = (ell >> (t + 1)) << (t + 1)
            betas[t] = pack_rows(mat_mul_f32(ubuf[:, lo:lo + (1 << t)],
                                             kron_power(t)))

    prescribed = ubuf[:, ell].astype(U64)
    r = np.full(rows, -1, dtype=np.int8)
    iters = np.zeros(rows, dtype=np.int64)
    fail = np.zeros(rows, dtype=bool)
    for it in range(1, i_max + 1):
        for t in range(n - 1, -1, -1):
            if t + 1 in rounds:
                state[t + 1] = rounds[t + 1](state[t + 1])
            a, c = split(state[t + 1], t)
            if it == 1:
                state[t] = (plus(a, c) if (ell >> t) & 1 == 0
                            else dot(plus_bits(a, betas[t]), c))
                continue
            old = state[t]
            if (ell >> t) & 1 == 0:
                child = dot(old, plus(a, c))
                na = dot(a, plus(old, c))
                nc = dot(c, plus(old, a))
            else:
                bt = betas[t]
                child = dot(old, dot(plus_bits(a, bt), c))
                na = dot(plus_bits(old, bt), a)
                nc = dot(old, c)
            state[t] = child
            state[t + 1] = join(na, nc, t)
        fail |= np.hstack([s[2] for s in state]).any(axis=1)

        lv, le, lh = (p[:, 0] for p in state[0])
        open_rows = r == -1
        hit = open_rows & fail
        r[hit] = 0
        iters[hit] = it
        open_rows &= ~hit
        concrete = open_rows & ((le & _ONE) == 0) & ((lh & _ONE) == 0)
        good = concrete & ((lv & _ONE) == prescribed)
        r[good] = 1
        iters[good] = it
        bad = concrete & ((lv & _ONE) != prescribed)
        r[bad] = 0
        iters[bad] = it
        if not (r == -1).any():
            break

    eps = r == -1
    r[eps] = 1
    iters[eps] = i_max
    return r == 1, eps, iters
