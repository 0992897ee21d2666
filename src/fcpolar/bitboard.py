"""The uint64 word layout of symbol planes, and the packed check kernel.

A stage-t block holds 2^t symbols in ceil(2^t / 64) uint64 words per plane
(value, erased, conflict), little-endian within each word and across
words; unused high bits stay zero. pack_rows, mask, split, join, refresh
and update_partial_sums are the whole layout: the SC recursion of
batch.decode_sc_batch and of scl runs on it for any N, with the
planes.plus / plus_bits / dot operators applied to words.

For N <= 64 every block fits one word, so the check kernel keeps one
uint64 per row and plane and reproduces batch._check_batch verdicts
exactly; the batch module dispatches here for small codes and tests
compare the two engines check for check.
The FCCN round has no loops: bitwise_counts under each check's member mask
give its parity a_j and erasure count c_j, and the closed form of
batch._fccn_pass_batch (exact: the combine operator is commutative and
associative) maps them to members. At N = 64 it beats the bool-plane products.
"""

from __future__ import annotations

import numpy as np

from .codes import CodeSpec
from .constraints import system_structure
from .gf2 import kron_power, mat_mul_f32
from .planes import Planes, dot, plus, plus_bits

U64 = np.uint64
_ONE = U64(1)
_SHIFTS = np.arange(64, dtype=U64)


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
    bits = (words[:, :, None] >> _SHIFTS) & _ONE
    return bits.reshape(words.shape[0], -1)[:, :width].astype(np.uint8)


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
    """Stage-t (member masks, offset rows), memoized; bit k of masks[j] is
    set iff block variable k is in check j (zero masks are inert)."""
    key = ("bb", ell, t)
    cached = spec._cache.get(key)
    if cached is None:
        _, Q, offsets = system_structure(spec, ell, t)
        cached = (pack_rows(Q.T)[:, 0], offsets)
        spec._cache[key] = cached
    return cached


def _fccn_pass64(state, masks, phi):
    """One FCCN round on words; the masks each predicate selects OR-reduce."""
    v, e, h = state
    cnt = np.bitwise_count(e[:, None] & masks)
    a = (np.bitwise_count(v[:, None] & masks) & 1).astype(bool) ^ phi
    single = cnt == 1
    preds = np.stack([(cnt == 0) & a, single & a, single & ~a])
    clash, got1, got0 = np.bitwise_or.reduce(np.where(preds, masks, U64(0)),
                                            axis=2)
    got1 &= e
    h = h | clash | (got1 & got0)
    return (v & ~clash) | (got1 & ~got0), e & ~(got1 | got0), h


def check_batch64(spec: CodeSpec, yv: np.ndarray, ye: np.ndarray,
                  ubuf: np.ndarray, ell: int, use_fccn: bool, i_max: int):
    """One hypothesis check per row on packed planes; returns (r, eps, iters).

    Verdict semantics match batch._check_batch: r is True where the check
    passed, eps flags rows whose processing symbol stayed erased through
    i_max sweeps, iters is the sweep count at resolution.
    """
    rows = ubuf.shape[0]
    n = spec.n
    zeros = np.zeros(rows, dtype=U64)
    state: list = [None] * (n + 1)
    state[n] = (yv.copy(), ye.copy(), zeros.copy())
    for t in range(n):
        state[t] = (zeros.copy(), np.full(rows, mask(1 << t), dtype=U64),
                    zeros.copy())

    betas = {}
    for t in range(n):
        if (ell >> t) & 1:
            lo = (ell >> (t + 1)) << (t + 1)
            betas[t] = pack_rows(mat_mul_f32(ubuf[:, lo:lo + (1 << t)],
                                             kron_power(t)))[:, 0]
    entries = {}
    phis = {}
    if use_fccn:
        for t in range(1, n + 1):
            masks, offsets = _bb_checks(spec, ell, t)
            if masks.size:
                entries[t] = masks
                phis[t] = mat_mul_f32(ubuf, offsets).astype(bool)

    prescribed = ubuf[:, ell].astype(U64)
    r = np.full(rows, -1, dtype=np.int8)
    iters = np.zeros(rows, dtype=np.int64)
    fail = np.zeros(rows, dtype=bool)
    for it in range(1, i_max + 1):
        for t in range(n - 1, -1, -1):
            if t + 1 in entries:
                state[t + 1] = _fccn_pass64(state[t + 1], entries[t + 1],
                                            phis[t + 1])
                fail |= state[t + 1][2] != 0
            a, c = split(state[t + 1], t)
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
            fail |= (child[2] | state[t + 1][2]) != 0

        lv, le, lh = state[0]
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
