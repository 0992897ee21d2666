"""The erasure-symbol code and the one vectorized form of its operators.

This module owns the symbol code: a batch of symbols is a (value, erased)
pair of same-shaped arrays (V, E), symbol s = V + 2E, so ERASURE = 2 is
(0, 1) and CONFLICT = 3 is (1, 1). from_symbols and to_symbols convert;
DE's PMF columns and the scalar tables in symbols use the same codes. A
pair is valid when it holds no conflict. Every operator uses only &, |, ^
and ~, so it serves boolean planes (one symbol per element) and the
uint64 words of the bitboard layout (64 symbols per element, unused high
bits kept zero) alike:

- plus_pair and dot_pair map valid pairs to valid pairs, and dot_pair
  relies on it. dot_pair also returns its clash: the symbols where two
  concrete operands disagree, which box_dot maps to a conflict. Where a
  clash is set the pair holds a valid symbol that means nothing, so the
  hypothesis check (bitboard.check_batch64) ORs the clashes into a
  per-row fail flag and never stores conflicts.
- plus and dot take all four symbols, as SC, SCL (a coin at a conflicted
  leaf, path death) and DE's pushforwards need: the pair operator with
  the operands' conflicts, c(x) = x_v & x_e, carried through. They
  reproduce box_plus and box_dot elementwise.
- plus_bits is ⊞ with concrete bits and passes erased and conflict
  symbols unchanged, so it serves both: on a valid pair it is plus_pair.
"""

from __future__ import annotations

import numpy as np

Pair = tuple[np.ndarray, np.ndarray]

ERASURE, CONFLICT = 2, 3


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
    have the pair's dtype. Erased and conflict symbols pass unchanged, so
    on a valid pair it equals ((v ^ bits) & ~e, e)."""
    return a[0] ^ (bits & ~a[1]), a[1]


def dot(a: Pair, b: Pair) -> Pair:
    """box_dot; a concrete pair that disagrees clashes into a conflict, and
    a conflict operand makes one."""
    (v, e), clash = dot_pair(a, b)
    h = clash | (a[0] & a[1]) | (b[0] & b[1])
    return v | h, e | h
