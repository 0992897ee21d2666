"""The one vectorized form of the erasure-symbol operators.

A batch of symbols is held as three same-shaped arrays (V, E, H): H marks
conflicts, E marks erasures, V carries the bit value where neither flag is
set. plus, plus_bits and dot reproduce box_plus / box_dot elementwise using
only &, |, ^ and ~, so the same functions serve boolean planes (one symbol
per element) and the uint64 words of the bitboard layout (64 symbols per
element, unused high bits kept zero). Every engine but the scalar reference
calls these three, and the scalar tables in symbols are their oracle.
"""

from __future__ import annotations

import numpy as np

Planes = tuple[np.ndarray, np.ndarray, np.ndarray]


def from_symbols(symbols: np.ndarray) -> Planes:
    symbols = np.asarray(symbols)
    return symbols == 1, symbols == 2, symbols == 3


def to_symbols(p: Planes) -> np.ndarray:
    v, e, h = p
    return (v.astype(np.uint8) + 2 * e.astype(np.uint8) + 3 * h.astype(np.uint8))


def plus(a: Planes, b: Planes) -> Planes:
    av, ae, ah = a
    bv, be, bh = b
    h = ah | bh
    e = (ae | be) & ~h
    v = (av ^ bv) & ~e & ~h
    return v, e, h


def plus_bits(a: Planes, bits: np.ndarray) -> Planes:
    """box_plus with concrete bits (no erasures, no conflicts); bits must
    have the planes' dtype."""
    av, ae, ah = a
    return (av ^ bits) & ~ae & ~ah, ae, ah


def dot(a: Planes, b: Planes) -> Planes:
    av, ae, ah = a
    bv, be, bh = b
    clash = ~ae & ~ah & ~be & ~bh & (av ^ bv)
    h = ah | bh | clash
    e = ae & be & ~h
    v = ((bv & ae) | (av & ~ae)) & ~e & ~h
    return v, e, h


def copy(p: Planes) -> Planes:
    return p[0].copy(), p[1].copy(), p[2].copy()


def take(p: Planes, sel) -> Planes:
    return p[0][sel], p[1][sel], p[2][sel]


def any_conflict(p: Planes) -> np.ndarray:
    """Per-row conflict indicator (reduces all but the first axis)."""
    h = p[2]
    return h.any(axis=tuple(range(1, h.ndim)))
