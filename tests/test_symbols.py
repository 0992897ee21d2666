"""Exhaustive checks of the four-valued alphabet operators."""
import itertools

from fcpolar.symbols import (BOX_DOT, BOX_PLUS, CONFLICT, ERASURE, ONE,
                             SYMBOLS, ZERO, box_dot, box_plus)

# Frozen truth tables, rows indexed by a, columns by b, order (0, 1, e, !).
EXPECTED_PLUS = (
    (ZERO, ONE, ERASURE, CONFLICT),
    (ONE, ZERO, ERASURE, CONFLICT),
    (ERASURE, ERASURE, ERASURE, CONFLICT),
    (CONFLICT, CONFLICT, CONFLICT, CONFLICT),
)
EXPECTED_DOT = (
    (ZERO, CONFLICT, ZERO, CONFLICT),
    (CONFLICT, ONE, ONE, CONFLICT),
    (ZERO, ONE, ERASURE, CONFLICT),
    (CONFLICT, CONFLICT, CONFLICT, CONFLICT),
)


def test_box_plus_table():
    for a, b in itertools.product(SYMBOLS, repeat=2):
        assert box_plus(a, b) == EXPECTED_PLUS[a][b]


def test_box_dot_table():
    for a, b in itertools.product(SYMBOLS, repeat=2):
        assert box_dot(a, b) == EXPECTED_DOT[a][b]


def test_lookup_tables_match_functions():
    for a, b in itertools.product(SYMBOLS, repeat=2):
        assert BOX_PLUS[a][b] == box_plus(a, b)
        assert BOX_DOT[a][b] == box_dot(a, b)


def test_commutativity():
    for a, b in itertools.product(SYMBOLS, repeat=2):
        assert box_plus(a, b) == box_plus(b, a)
        assert box_dot(a, b) == box_dot(b, a)


def test_associativity():
    for a, b, c in itertools.product(SYMBOLS, repeat=3):
        assert box_plus(box_plus(a, b), c) == box_plus(a, box_plus(b, c))
        assert box_dot(box_dot(a, b), c) == box_dot(a, box_dot(b, c))


def test_identities_and_absorption():
    for a in SYMBOLS:
        assert box_plus(a, CONFLICT) == CONFLICT
        assert box_dot(a, CONFLICT) == CONFLICT
        assert box_dot(a, ERASURE) == a
        if a in (ZERO, ONE):
            assert box_plus(a, ZERO) == a
            assert box_plus(a, ERASURE) == ERASURE


def test_conflict_needs_two_concrete_unequal():
    assert box_dot(ZERO, ONE) == CONFLICT
    assert box_dot(ONE, ZERO) == CONFLICT
    assert box_dot(ZERO, ZERO) == ZERO
    assert box_dot(ONE, ONE) == ONE
