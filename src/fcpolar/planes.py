"""The one vectorized form of the erasure-symbol operators.

A batch of symbols is held as a (value, erased) pair of same-shaped arrays
(V, E): symbol s is the pair (s & 1, s >> 1), so (0, 1) is an erasure and
(1, 1) the conflict, and to_symbols reads V + 2E back. A pair is valid when
it holds no conflict. The pair operators map valid pairs to valid pairs,
and dot_pair relies on it. dot_pair also returns its clash: the symbols
where two concrete operands disagree, which box_dot maps to a conflict.
Where a clash is set the pair holds some valid symbol that means nothing,
so a caller that only asks whether a row clashed anywhere (the hypothesis
check of bitboard.check_batch64) ORs the clashes into a per-row flag and
never stores conflicts.

SC and SCL need conflicts per symbol (a coin at a conflicted leaf, path
death), so plus, plus_bits and dot take all four symbols: the pair operator
with the conflicts of the operands, c(x) = x_v & x_e, carried through.
Together they reproduce box_plus and box_dot elementwise using only &, |,
^ and ~, so the same functions serve boolean planes (one symbol per
element) and the uint64 words of the bitboard layout (64 symbols per
element, unused high bits kept zero). Boolean planes remain the channel's
form (batch.channel_planes) and the tests' way in, and the scalar tables
in symbols are the operators' oracle.
"""

from __future__ import annotations

import numpy as np

Pair = tuple[np.ndarray, np.ndarray]


def from_symbols(symbols: np.ndarray) -> Pair:
    symbols = np.asarray(symbols)
    return (symbols & 1).astype(bool), symbols >= 2


def to_symbols(p: Pair) -> np.ndarray:
    v, e = p
    return v.astype(np.uint8) + 2 * e.astype(np.uint8)


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


def plus(a: Pair, b: Pair) -> Pair:
    """box_plus: plus_pair, with a conflict operand's value bit kept on
    the erased result."""
    v, e = plus_pair(a, b)
    return v | (a[0] & a[1]) | (b[0] & b[1]), e


def plus_bits(a: Pair, bits: np.ndarray) -> Pair:
    """box_plus with concrete bits (no erasures, no conflicts); bits must
    have the pair's dtype. Erased and conflict symbols pass unchanged."""
    return a[0] ^ (bits & ~a[1]), a[1]


def dot(a: Pair, b: Pair) -> Pair:
    """box_dot; a concrete pair that disagrees clashes into a conflict, and
    a conflict operand makes one."""
    (v, e), clash = dot_pair(a, b)
    h = clash | (a[0] & a[1]) | (b[0] & b[1])
    return v | h, e | h
