"""The one vectorized form of the erasure-symbol operators.

A batch of symbols is held as three same-shaped arrays (V, E, H): H marks
conflicts, E marks erasures, V carries the bit value where neither flag is
set. Planes are valid when every symbol sets at most one of the three (it
is 0, 1, erased or a conflict); the operators map valid planes to valid
planes, and dot relies on it. plus, plus_bits and dot reproduce box_plus /
box_dot elementwise using only &, |, ^ and ~, so the same functions serve
boolean planes (one symbol per element) and the uint64 words of the
bitboard layout (64 symbols per element, unused high bits kept zero). Every
engine but the scalar reference calls these three on words; boolean planes
remain the channel's form (batch.channel_planes) and the tests' way in, and
the scalar tables in symbols are the operators' oracle.
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
    """box_dot; a concrete pair that disagrees clashes into a conflict.

    Relies on valid operands: where a symbol is erased its value bit is 0,
    so (av | (bv & ae)) is the one surviving value, and two erasures never
    meet a conflict.
    """
    av, ae, ah = a
    bv, be, bh = b
    h = ah | bh | (~(ae | ah | be | bh) & (av ^ bv))
    return (av | (bv & ae)) & ~h, ae & be, h
