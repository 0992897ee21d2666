"""Bit-packed decoding kernels for blocklengths up to 64.

Every stage block holds at most 64 symbols, so one uint64 per row replaces a
boolean plane row: three machine words (value, erased, conflict) carry a full
block state. The operators mirror planes.plus / planes.dot bit for bit and
the check kernel reproduces batch._check_batch verdicts exactly; the batch
module dispatches here for small codes and tests compare the two engines
trial for trial.
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

U64 = np.uint64
_ONE = U64(1)


def _mask(width: int) -> np.uint64:
    return U64((1 << width) - 1)


def pack_rows(bits: np.ndarray) -> np.ndarray:
    """Pack a boolean or 0/1 (rows, width) array into one uint64 per row."""
    width = bits.shape[1]
    weights = _ONE << np.arange(width, dtype=U64)
    return (bits.astype(U64) * weights).sum(axis=1, dtype=U64)


def unpack_rows(words: np.ndarray, width: int) -> np.ndarray:
    shifts = np.arange(width, dtype=U64)
    return ((words[:, None] >> shifts) & _ONE).astype(np.uint8)


def _plus(a, b):
    av, ae, ah = a
    bv, be, bh = b
    h = ah | bh
    e = (ae | be) & ~h
    v = (av ^ bv) & ~e & ~h
    return v, e, h


def _plus_bits(a, bits):
    av, ae, ah = a
    return (av ^ bits) & ~ae & ~ah, ae, ah


def _dot(a, b):
    av, ae, ah = a
    bv, be, bh = b
    clash = ~ae & ~ah & ~be & ~bh & (av ^ bv)
    h = ah | bh | clash
    e = ae & be & ~h
    v = ((bv & ae) | (av & ~ae)) & ~e & ~h
    return v, e, h


def _bb_checks(spec: CodeSpec, ell: int, t: int):
    """Stage-t (member masks, offset rows), memoized; bit k of masks[j] is
    set iff block variable k is in check j (zero masks are inert)."""
    key = ("bb", ell, t)
    cached = spec._cache.get(key)
    if cached is None:
        _, Q, offsets = system_structure(spec, ell, t)
        cached = (pack_rows(Q.T), offsets)
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
        state[t] = (zeros.copy(), np.full(rows, _mask(1 << t), dtype=U64),
                    zeros.copy())

    betas = {}
    for t in range(n):
        if (ell >> t) & 1:
            lo = (ell >> (t + 1)) << (t + 1)
            betas[t] = pack_rows(mat_mul_f32(ubuf[:, lo:lo + (1 << t)],
                                             kron_power(t)))
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
            half = 1 << t
            hm = _mask(half)
            sv, se, sh = state[t + 1]
            a = (sv & hm, se & hm, sh & hm)
            c = ((sv >> half) & hm, (se >> half) & hm, (sh >> half) & hm)
            old = state[t]
            if (ell >> t) & 1 == 0:
                child = _dot(old, _plus(a, c))
                na = _dot(a, _plus(old, c))
                nc = _dot(c, _plus(old, a))
            else:
                bt = betas[t]
                child = _dot(old, _dot(_plus_bits(a, bt), c))
                na = _dot(_plus_bits(old, bt), a)
                nc = _dot(old, c)
            state[t] = child
            state[t + 1] = (na[0] | (nc[0] << half), na[1] | (nc[1] << half),
                            na[2] | (nc[2] << half))
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


