"""The one vectorized form of the erasure-symbol operators.

A batch of symbols is held as a (value, erasure) pair of same-shaped
arrays (V, E): E marks erasures, V carries the bit value where E is clear.
A pair is valid when no symbol sets both. The pair operators map valid
pairs to valid pairs, and dot_pair relies on it. dot_pair also returns its
clash: the symbols where two concrete operands disagree, which box_dot
maps to a conflict. Where a clash is set the pair holds some valid symbol
that means nothing, so a caller that only asks whether a row clashed
anywhere (the hypothesis check of bitboard.check_batch64) ORs the clashes
into a per-row flag and never stores conflicts.

SC and SCL need conflicts per symbol (a coin at a conflicted leaf, path
death), so plus, plus_bits and dot take (V, E, H) triples: the pair
operator on (V, E) with the conflict plane H OR-ed in, where H marks
conflicts and clears the symbol's V and E. Together they reproduce box_plus
and box_dot elementwise using only &, |, ^ and ~, so the same functions
serve boolean planes (one symbol per element) and the uint64 words of the
bitboard layout (64 symbols per element, unused high bits kept zero).
Boolean planes remain the channel's form (batch.channel_planes) and the
tests' way in, and the scalar tables in symbols are the operators' oracle.
"""

from __future__ import annotations

import numpy as np

Pair = tuple[np.ndarray, np.ndarray]
Planes = tuple[np.ndarray, np.ndarray, np.ndarray]


def from_symbols(symbols: np.ndarray) -> Planes:
    symbols = np.asarray(symbols)
    return symbols == 1, symbols == 2, symbols == 3


def to_symbols(p: Planes) -> np.ndarray:
    v, e, h = p
    return (v.astype(np.uint8) + 2 * e.astype(np.uint8) + 3 * h.astype(np.uint8))


def plus_pair(a: Pair, b: Pair) -> Pair:
    """box_plus on pairs: erased if either operand is, else the XOR."""
    e = a[1] | b[1]
    return (a[0] ^ b[0]) & ~e, e


def plus_bits_pair(a: Pair, bits: np.ndarray) -> Pair:
    """box_plus with concrete bits (no erasures); bits must have the
    pair's dtype."""
    return (a[0] ^ bits) & ~a[1], a[1]


def dot_pair(a: Pair, b: Pair) -> tuple[Pair, np.ndarray]:
    """box_dot on pairs; returns (pair, clash), clash marking the concrete
    operands that disagree.

    Relies on valid operands: where a symbol is erased its value bit is 0,
    so (av | (bv & ae)) is the one surviving value.
    """
    av, ae = a
    bv, be = b
    return (av | (bv & ae), ae & be), ~(ae | be) & (av ^ bv)


def plus(a: Planes, b: Planes) -> Planes:
    h = a[2] | b[2]
    v, e = plus_pair(a[:2], b[:2])
    keep = ~h
    return v & keep, e & keep, h


def plus_bits(a: Planes, bits: np.ndarray) -> Planes:
    """box_plus with concrete bits (no erasures, no conflicts); bits must
    have the planes' dtype."""
    v, e = plus_bits_pair(a[:2], bits)
    return v & ~a[2], e, a[2]


def dot(a: Planes, b: Planes) -> Planes:
    """box_dot; a concrete pair that disagrees clashes into a conflict. An
    erased result needs no masking: a conflict operand is never erased."""
    (v, e), clash = dot_pair(a[:2], b[:2])
    h = a[2] | b[2] | clash
    return v & ~h, e, h
