"""The shared symbol operators on boolean planes and on packed uint64 words
must mirror the scalar operator tables; the word layout must round-trip."""
import numpy as np

from fcpolar import bitboard, planes
from fcpolar.codes import build_nr_code
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
    # folding a step of 2^s leaves ending at leaf i, passed as its own
    # stage-s transform, completes a left block of width 2^t, t the
    # trailing ones of i; ps[t] must then hold that block's stage-t
    # transform. The steps are single leaves, then random aligned blocks;
    # N = 256 reaches two- and four-word blocks.
    rng = np.random.default_rng(0)
    N = 256
    u = rng.integers(0, 2, size=(3, N)).astype(np.uint8)
    for blocks in (False, True):
        ps, i0 = {}, 0
        while i0 < N:
            top = (i0 & -i0).bit_length() - 1 if i0 else 8
            s = int(rng.integers(0, top + 1)) if blocks else 0
            i = i0 + (1 << s) - 1
            words = bitboard.pack_rows(mat_mul(u[:, i0:i + 1], kron_power(s)))
            bitboard.update_partial_sums(ps, i, words, s)
            t = (~i & (i + 1)).bit_length() - 1
            width = 1 << t
            want = mat_mul(u[:, i + 1 - width:i + 1], kron_power(t))
            assert np.array_equal(bitboard.unpack_rows(ps[t], width),
                                  want), (blocks, i)
            i0 = i + 1


def test_polar_transform_is_the_kron_product():
    # every level of the butterfly over the whole block, in-word below
    # level 6 and on whole words from 6 up; it is its own inverse
    rng = np.random.default_rng(3)
    for t in range(10):
        u = rng.integers(0, 2, size=(3, 1 << t)).astype(np.uint8)
        words = bitboard.pack_rows(u)
        x = bitboard.polar_transform(words, t)
        assert np.array_equal(x, bitboard.pack_rows(mat_mul(u, kron_power(t))))
        assert np.array_equal(bitboard.polar_transform(x, t), words), t


def test_commit_round_trips_through_unpack():
    # A block of 2^t bits committed at any aligned leaf i0 lands on leaves
    # i0..i0 + 2^t - 1 and leaves every other leaf as it was; a (rows,)
    # column of bits commits one leaf; last_leaf reads the block's last
    # symbol.
    rng = np.random.default_rng(8)
    N = 256
    for t in range(9):
        width = 1 << t
        for i0 in range(0, N, width):
            base = rng.integers(0, 2, size=(3, N)).astype(np.uint8)
            base[:, i0:i0 + width] = 0
            bits = rng.integers(0, 2, size=(3, width)).astype(np.uint8)
            u = bitboard.pack_rows(base)
            bitboard.commit(u, i0, bitboard.pack_rows(bits))
            want = base.copy()
            want[:, i0:i0 + width] = bits
            assert np.array_equal(bitboard.unpack_rows(u, N), want), (t, i0)
            erased = bitboard.pack_rows(bits[::-1])
            last = bitboard.last_leaf((bitboard.pack_rows(bits), erased), t)
            assert np.array_equal(last[0], bits[:, -1]), (t, i0)
            assert np.array_equal(last[1], bits[::-1, -1]), (t, i0)
    for i in range(N):
        u = np.zeros((3, N // 64), dtype=bitboard.U64)
        bitboard.commit(u, i, np.array([1, 0, 1], dtype=bitboard.U64)[:, None])
        assert np.array_equal(np.flatnonzero(bitboard.unpack_rows(u, N)),
                              [i, 2 * N + i]), i


def test_forced_bit_is_the_parity_of_earlier_bits(ex1, random_code):
    # At a parity leaf i every path commits u[:, :i] . T[:i, i] mod 2, read
    # by popcount from packed words; at a frozen leaf 0. The rows carry
    # random bits at i and beyond too, which the forced bit must not read.
    # The taps of NR(1024, 512) + CRC11 reach every word but the first
    # (leaves 0 to 126 are frozen), and those of the random codes with
    # n = 7 both words.
    rng = np.random.default_rng(9)
    specs = [build_nr_code(1024, 512), ex1]
    for n in (3, 5, 6, 7, 7, 7):
        spec = random_code(rng, n)
        while not spec.P:  # a random code may have no parity leaf
            spec = random_code(rng, n)
        specs.append(spec)
    words = {spec.N: set() for spec in specs}  # words the taps reach
    for spec in specs:
        u = rng.integers(0, 2, size=(16, spec.N)).astype(np.uint8)
        packed = bitboard.pack_rows(u)
        for i in np.flatnonzero(~spec.info_mask):
            got = bitboard.forced_bit(spec, packed, int(i))
            assert got.dtype == bitboard.U64 and got.shape == (16,)
            want = mat_mul(u[:, :i], spec.T[:i, i][:, None])[:, 0]
            assert np.array_equal(got, want), (spec.N, i)
            if spec.parity_mask[i]:
                words[spec.N] |= set(np.flatnonzero(spec.T[:i, i]) >> 6)
            else:
                assert not spec.T[:i, i].any() and not got.any()
    assert words[1024] == set(range(1, 16)) and words[128] == {0, 1}


def _is_step(spec, lo, t):
    """Whether [lo, lo + 2^t) is a frozen run (its leaves but the last
    statically frozen) or an information block (its leaves all
    information leaves)."""
    end = lo + (1 << t)
    frozen = ~(spec.info_mask | spec.parity_mask)
    return bool(frozen[lo:end - 1].all() or spec.info_mask[lo:end].all())


def _assert_maximal_steps(spec):
    plan = bitboard.steps(spec)
    assert bitboard.steps(spec) is plan
    end = 0
    for i0, t in plan:
        assert i0 == end and i0 % (1 << t) == 0, (spec.N, i0, t)
        end = i0 + (1 << t)
        assert _is_step(spec, i0, t), (spec.N, i0, t)
        if t < spec.n:
            lo = (i0 >> (t + 1)) << (t + 1)
            assert not _is_step(spec, lo, t + 1), (spec.N, i0, t)
    assert end == spec.N


def test_steps_are_maximal_frozen_runs(ex1, random_code):
    # The steps partition 0..N-1 in order into aligned blocks that are
    # frozen runs or information blocks, and no step's aligned parent
    # block is either. A step of t > 0 starts at an information leaf only
    # if it is an information block, which is how the decoders tell them
    # apart.
    for n in range(1, 11):
        N = 1 << n
        _assert_maximal_steps(build_nr_code(N, N // 2, crc="none"))
        if N >= 16:  # the CRC's 11 parity bits fit
            _assert_maximal_steps(build_nr_code(N, N // 2 if N > 16 else 5))
    for N, K in ((16, 16), (16, 12), (64, 58)):
        _assert_maximal_steps(build_nr_code(N, K, crc="none"))
    _assert_maximal_steps(ex1)
    rng = np.random.default_rng(6)
    for n in (1, 2, 3, 4, 5, 6, 7) * 10:
        _assert_maximal_steps(random_code(rng, n))
    counts = {N: len(bitboard.steps(build_nr_code(N, N // 2)))
              for N in (64, 256, 1024)}
    assert counts == {64: 27, 256: 57, 1024: 148}
    assert bitboard.steps(build_nr_code(8, 1, crc="none")) == ((0, 3),)
    assert bitboard.steps(build_nr_code(16, 16, crc="none")) == ((0, 4),)
    assert bitboard.steps(build_nr_code(16, 12, crc="none")) == (
        (0, 2), (4, 1), (6, 1), (8, 3))


def _leaf_blocks(rng, t):
    """Stage-t blocks whose leaves vary: codewords of input words that are
    mostly 0, erased at rates 0 to 0.97, with a few symbols flipped or made
    conflicts, and one row of uniform symbols (whose leaves are mostly
    conflicts)."""
    width = 1 << t
    rows = []
    for p in (0.0, 0.3, 0.6, 0.9, 0.97):
        for ones in (0.0, 0.02):
            u = (rng.random(width) < ones).astype(np.uint8)
            u[-1] = rng.integers(0, 2)
            x = mat_mul(u[None, :], kron_power(t))[0]
            symbols = np.where(rng.random(width) < p, planes.ERASURE, x)
            noise = rng.random(width) * width
            symbols[noise < 0.25] = planes.CONFLICT
            symbols[(noise > width - 0.25) & (symbols < 2)] ^= 1
            rows.append(symbols)
    rows.append(rng.integers(0, 4, size=width))
    return np.array(rows)


def test_leaf_symbols_match_per_leaf_refresh():
    # The butterfly against refresh leaf by leaf with zero partial sums, on
    # four-symbol blocks, conflicts included; from t = 7 up it moves whole
    # words.
    rng = np.random.default_rng(7)
    for t in range(1, 9):
        width = 1 << t
        symbols = _leaf_blocks(rng, t)
        rows = symbols.shape[0]
        block = tuple(bitboard.pack_rows(x)
                      for x in planes.from_symbols(symbols))
        got = planes.to_symbols(tuple(
            bitboard.unpack_rows(w, width)
            for w in bitboard.leaf_symbols(block, t)))
        alpha = [None] * t + [block]
        ps = {s: np.zeros((rows, -(-(1 << s) // 64)), dtype=np.uint64)
              for s in range(t)}
        for j in range(width):
            bitboard.refresh(alpha, ps, j, 0, t)
            want = planes.to_symbols(tuple(w[:, 0] & np.uint64(1)
                                           for w in alpha[0]))
            assert np.array_equal(got[:, j], want), (t, j)
        assert set(np.unique(got)) == {0, 1, planes.ERASURE,
                                       planes.CONFLICT}, t


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
