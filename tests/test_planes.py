"""The shared symbol operators on boolean planes and on packed uint64 words
must mirror the scalar operator tables; the word layout must round-trip."""
import numpy as np

from fcpolar import bitboard, planes
from fcpolar.gf2 import kron_power, mat_mul
from fcpolar.symbols import BOX_DOT, BOX_PLUS


def _all_pairs():
    a, b = np.meshgrid(np.arange(4), np.arange(4), indexing="ij")
    return a.ravel().astype(np.uint8), b.ravel().astype(np.uint8)


def _both_layouts(op, *operands):
    """op on symbol vectors, evaluated on boolean planes and on packed words
    (the 16 pairs tiled to 160 symbols span three words, the last partly
    used); returns both results as symbols."""
    operands = [np.tile(s, 10) for s in operands]
    width = operands[0].size
    on_planes = op(*(planes.from_symbols(s) for s in operands))
    words = op(*(tuple(bitboard.pack_rows(x[None, :])
                       for x in planes.from_symbols(s)) for s in operands))
    for w in words:  # unused high bits stay zero
        assert np.array_equal(bitboard.pack_rows(bitboard.unpack_rows(w, width)), w)
    unpacked = tuple(bitboard.unpack_rows(w, width)[0].astype(bool) for w in words)
    return planes.to_symbols(on_planes), planes.to_symbols(unpacked)


def test_pair_is_the_symbol_code():
    # symbol s is the pair (s & 1, s >> 1): the conflict is (1, 1)
    v, e = planes.from_symbols(np.arange(4, dtype=np.uint8))
    assert v.tolist() == [False, True, False, True]
    assert e.tolist() == [False, False, True, True]
    for code, pair in ((planes.ERASURE, (False, True)),
                       (planes.CONFLICT, (True, True))):
        assert tuple(x.item() for x in planes.from_symbols(code)) == pair


def test_symbol_round_trip():
    syms = np.array([[0, 1, 2, 3], [3, 2, 1, 0]], dtype=np.uint8)
    assert np.array_equal(planes.to_symbols(planes.from_symbols(syms)), syms)


def test_plus_matches_table():
    a, b = _all_pairs()
    want = np.tile(np.asarray(BOX_PLUS, dtype=np.uint8)[a, b], 10)
    for got in _both_layouts(planes.plus, a, b):
        assert np.array_equal(got, want)


def test_dot_matches_table():
    a, b = _all_pairs()
    want = np.tile(np.asarray(BOX_DOT, dtype=np.uint8)[a, b], 10)
    for got in _both_layouts(planes.dot, a, b):
        assert np.array_equal(got, want)


def test_plus_bits_is_plus_with_concrete_plane():
    # bits enter as the value plane of a concrete operand, in the same dtype
    a, _ = _all_pairs()
    for bit in (0, 1):
        bits = np.full(a.shape, bit, dtype=np.uint8)
        got = _both_layouts(lambda x, y: planes.plus_bits(x, y[0]), a, bits)
        want = _both_layouts(planes.plus, a, bits)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[0])


def test_plus_bits_on_valid_pairs_is_the_pair_form():
    # the hypothesis check applies plus_bits to valid pairs only, where it
    # must equal ((v ^ bits) & ~e, e): an erased symbol keeps value 0.
    # Checked on boolean planes and on packed words (three words, the last
    # partly used).
    a, b = _all_pairs()
    valid = (a != planes.CONFLICT) & (b < 2)
    v, e = (np.tile(x, 30) for x in planes.from_symbols(a[valid]))
    bits = np.tile(b[valid], 30).astype(bool)
    packed = tuple(bitboard.pack_rows(x[None, :]) for x in (v, e, bits))
    for v, e, bits in ((v, e, bits), packed):
        got_v, got_e = planes.plus_bits((v, e), bits)
        assert np.array_equal(got_v, (v ^ bits) & ~e)
        assert np.array_equal(got_e, e)


def test_split_join_round_trip():
    rng = np.random.default_rng(1)
    for t in range(8):  # block widths 2..256, one to four words
        half = 1 << t
        bits = [rng.integers(0, 2, size=(5, 2 * half)).astype(bool)
                for _ in range(2)]
        block = tuple(bitboard.pack_rows(b) for b in bits)
        left, right = bitboard.split(block, t)
        for b, lw, rw in zip(bits, left, right):
            assert np.array_equal(lw, bitboard.pack_rows(b[:, :half])), t
            assert np.array_equal(rw, bitboard.pack_rows(b[:, half:])), t
        for got, want in zip(bitboard.join(left, right, t), block):
            assert np.array_equal(got, want), t


def test_update_partial_sums_tracks_kron_transform():
    # folding bit i completes a left block of width 2^t, t the trailing ones
    # of i; ps[t] must then hold that block's stage-t transform. N = 256
    # reaches two- and four-word blocks.
    rng = np.random.default_rng(0)
    N = 256
    u = rng.integers(0, 2, size=(3, N)).astype(np.uint8)
    ps = {}
    for i in range(N):
        bitboard.update_partial_sums(ps, i, u[:, i])
        t = (~i & (i + 1)).bit_length() - 1
        width = 1 << t
        want = mat_mul(u[:, i + 1 - width:i + 1], kron_power(t))
        assert np.array_equal(bitboard.unpack_rows(ps[t], width), want), i


def test_left_partial_sums_match_product_form():
    # The butterfly against the product form it replaces: for every leaf
    # ell and every stage t where the path descends right, beta_t is the
    # left sibling block [lo, lo + 2^t) times kron_power(t).
    rng = np.random.default_rng(2)
    for n in range(2, 11):
        N = 1 << n
        u = rng.integers(0, 2, size=(3, N)).astype(np.uint8)
        for ell in range(N):
            betas = bitboard.left_partial_sums(
                bitboard.pack_rows(u[:, :ell + 1]), ell)
            assert sorted(betas) == [t for t in range(n) if (ell >> t) & 1]
            for t, words in betas.items():
                lo = (ell >> (t + 1)) << (t + 1)
                want = mat_mul(u[:, lo:lo + (1 << t)], kron_power(t))
                assert np.array_equal(words, bitboard.pack_rows(want)), (
                    N, ell, t)
