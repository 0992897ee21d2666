"""Four-valued decoding alphabet for the erasure channel: {0, 1, erasure, conflict}.

Symbols are small ints so they can live in numpy arrays. box_plus computes the
GF(2) sum of two partially known bits; box_dot merges two estimates of the
same bit. The conflict branch of box_dot fires only when both operands are
concrete and unequal; an erasure never conflicts with anything, it just
defers to the other operand.

The codes are those of planes, which owns them: symbol s is the (value,
erased) pair (s & 1, s >> 1) of the vectorized operators, so an erasure is
(0, 1) and the conflict is (1, 1). This module is the scalar reference
engine's alphabet and the tests' oracle for the planes operators.
"""

from __future__ import annotations

from .planes import CONFLICT, ERASURE

ZERO = 0
ONE = 1

SYMBOLS = (ZERO, ONE, ERASURE, CONFLICT)


def box_plus(a: int, b: int) -> int:
    if a == CONFLICT or b == CONFLICT:
        return CONFLICT
    if a == ERASURE or b == ERASURE:
        return ERASURE
    return a ^ b


def box_dot(a: int, b: int) -> int:
    if a == CONFLICT or b == CONFLICT:
        return CONFLICT
    if a == ERASURE:
        return b
    if b == ERASURE:
        return a
    return a if a == b else CONFLICT


# Lookup tables indexed [a][b], for tight loops.
BOX_PLUS = tuple(tuple(box_plus(a, b) for b in SYMBOLS) for a in SYMBOLS)
BOX_DOT = tuple(tuple(box_dot(a, b) for b in SYMBOLS) for a in SYMBOLS)
