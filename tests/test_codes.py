"""Code construction: Example 1 matrices, CRC parity, NR rate profiles."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcpolar import batch
from fcpolar.codes import (NR_CRC11_TAPS, _assemble, build_example1,
                           build_nr_code, crc_remainder, encode, input_word,
                           load_nr_sequence, nr_profile)
from fcpolar.decoders import build_hypothesis, processing_index
from fcpolar.gf2 import mat_mul

# Example-1 pre-transform rows for the information positions (frozen oracle).
EX1_T_ROWS = {3: "00010010", 5: "00000110", 7: "00000001"}
EX1_TG_ROWS = {3: "01011010", 5: "01100110", 7: "11111111"}
EX1_CODE_HASH = "24e9a0ed43d72d88"


def _bits(s):
    return np.array([c == "1" for c in s], dtype=np.uint8)


def _crc_lfsr(bits, taps):
    """Shift-register CRC: independent oracle for the long-division form."""
    deg = len(taps) - 1
    reg = [0] * deg
    for b in np.asarray(bits, dtype=np.uint8):
        fb = reg[0] ^ int(b)
        reg = reg[1:] + [0]
        if fb:
            for j in range(deg):
                reg[j] ^= taps[j + 1]
    return np.array(reg, dtype=np.uint8)


def test_example1_partition(ex1):
    assert (ex1.n, ex1.N, ex1.K) == (3, 8, 3)
    assert ex1.A == (3, 5, 7)
    assert ex1.P == (6,)
    assert ex1.F == (0, 1, 2, 4)


def test_example1_matrices(ex1):
    for i, row in EX1_T_ROWS.items():
        assert np.array_equal(ex1.T[i], _bits(row))
    tg = mat_mul(ex1.T, ex1.generator)
    for i, row in EX1_TG_ROWS.items():
        assert np.array_equal(tg[i], _bits(row))
    assert not mat_mul(ex1.T, ex1.H).any()
    assert ex1.code_hash() == EX1_CODE_HASH


def test_example1_parity_rule(ex1):
    # u6 = u3 + u5 for every message
    for m in range(8):
        msg = np.array([(m >> k) & 1 for k in range(3)], dtype=np.uint8)
        u = input_word(ex1, msg)
        assert u[6] == u[3] ^ u[5]
        assert not u[[0, 1, 2, 4]].any()


def test_input_words_satisfy_h(ex1, nr64):
    rng = np.random.default_rng(5)
    for spec in (ex1, nr64):
        for _ in range(20):
            msg = rng.integers(0, 2, size=spec.K, dtype=np.uint8)
            u = input_word(spec, msg)
            assert not mat_mul(u[None, :], spec.H).any()
            assert not mat_mul(u[None, :], spec.H_prime).any()


def test_encode_is_u_times_g(ex1):
    for m in range(8):
        msg = np.array([(m >> k) & 1 for k in range(3)], dtype=np.uint8)
        u = input_word(ex1, msg)
        assert np.array_equal(encode(ex1, msg), mat_mul(u[None, :], ex1.generator)[0])
    with pytest.raises(ValueError):
        encode(ex1, np.zeros(4, dtype=np.uint8))


@given(st.lists(st.integers(0, 1), min_size=1, max_size=40))
@settings(max_examples=60)
def test_crc_remainder_matches_lfsr(bits):
    bits = np.array(bits, dtype=np.uint8)
    assert np.array_equal(crc_remainder(bits, NR_CRC11_TAPS),
                          _crc_lfsr(bits, NR_CRC11_TAPS))
    # row by row, as build_nr_code divides all unit messages at once
    rows = np.stack([bits, 1 - bits])
    assert np.array_equal(crc_remainder(rows, NR_CRC11_TAPS),
                          [_crc_lfsr(r, NR_CRC11_TAPS) for r in rows])


@given(st.lists(st.integers(0, 1), min_size=1, max_size=40))
@settings(max_examples=30)
def test_crc_appended_word_divides(bits):
    rem = crc_remainder(bits, NR_CRC11_TAPS)
    whole = np.concatenate([np.array(bits, dtype=np.uint8), rem])
    assert not crc_remainder(whole, NR_CRC11_TAPS).any()


def test_nr_sequence_anchors():
    seq = load_nr_sequence()
    assert len(seq) == 1024
    assert seq[:7] == (0, 1, 2, 4, 8, 16, 32)
    assert seq[-3:] == (1021, 1022, 1023)
    assert sorted(seq) == list(range(1024))


def test_nr_profile_nesting():
    full = load_nr_sequence()
    for N in (8, 64, 256):
        assert nr_profile(N) == tuple(i for i in full if i < N)
    with pytest.raises(ValueError):
        nr_profile(48)
    with pytest.raises(ValueError):
        nr_profile(2048)


def test_build_nr_code_structure(nr64):
    assert (nr64.N, nr64.K) == (64, 32)
    assert len(nr64.P) == 11
    assert len(nr64.F) == 64 - 32 - 11
    assert set(nr64.A) | set(nr64.P) == set(nr_profile(64)[-43:])
    # parity bits are the CRC of the message laid out over A
    rng = np.random.default_rng(11)
    msg = rng.integers(0, 2, size=32, dtype=np.uint8)
    u = input_word(nr64, msg)
    rem = crc_remainder(msg, NR_CRC11_TAPS)
    assert np.array_equal(u[list(nr64.P)], rem)


def test_build_nr_code_rejects_unknown_crc():
    with pytest.raises(ValueError):
        build_nr_code(64, 32, crc="crc16")


def test_crc_none_profile(nr16):
    assert nr16.outer is None
    assert not nr16.P
    assert len(nr16.A) == 6


# (A, P, F, valid taps (row, column) of T off the diagonal, one tap that
# breaks a clause of the invariant, the error it raises)
_BROKEN = [
    ((3, 5, 7), (6,), (0, 1, 2, 4), [(3, 6), (5, 6)], (6, 3),
     "upper-triangular"),
    ((3, 5, 7), (6,), (0, 1, 2, 4), [(3, 6), (5, 6)], (3, 5), "unit column"),
    ((3, 5, 7), (6,), (0, 1, 2, 4), [(3, 6), (5, 6)], (3, 4),
     "in F has a tap"),
    ((3, 5, 7), (4, 6), (0, 1, 2), [(3, 4), (3, 6), (5, 6)], (4, 6),
     "taps another P row"),
]


@pytest.mark.parametrize("A,P,F,taps,bad,message", _BROKEN,
                         ids=[m for *_, m in _BROKEN])
def test_assemble_rejects_each_broken_clause(A, P, F, taps, bad, message):
    def code(taps):
        T = np.zeros((8, 8), dtype=np.uint8)
        for i in A:
            T[i, i] = 1
        for k, j in taps:
            T[k, j] = 1
        return _assemble(3, 8, A, P, F, T, None)

    code(taps)
    with pytest.raises(ValueError, match=message):
        code(taps + [bad])


def _every_code(random_code):
    """Example 1, NR(N, K) for N = 2..1024 with and without CRC, and random
    codes: every constructor, each through _assemble's invariant check."""
    specs = [build_example1()]
    for n in range(1, 11):
        N = 1 << n
        specs.append(build_nr_code(N, N // 2, crc="none"))
        if N > 11:
            specs.append(build_nr_code(N, min(N // 2, N - 11)))
    rng = np.random.default_rng(17)
    specs += [random_code(rng, n=int(rng.integers(2, 7))) for _ in range(30)]
    return specs


def test_index_tables_match_their_derivations(random_code):
    # The reference derivations the tables replace: set(A) for the A mask,
    # the forward scan for the processing index and the T column scan for
    # forced bits. A P column may have no taps (forced to 0 either way).
    for spec in _every_code(random_code):
        a_set = set(spec.A)
        assert spec.info_mask.tolist() == [i in a_set for i in range(spec.N)]
        assert spec.parity_mask.tolist() == [i in spec.P
                                             for i in range(spec.N)]
        scan = np.array([spec.T[:j, j].any() for j in range(spec.N)])
        assert not (scan & ~spec.parity_mask).any()
        for i in spec.A:
            k = i
            while k + 1 < spec.N and k + 1 not in a_set:
                k += 1
            assert processing_index(spec, i) == spec.ell[i] == k
        for table in (spec.info_mask, spec.parity_mask, spec.ell):
            assert not table.flags.writeable
        for i in (-1, spec.N, *spec.P, *spec.F):
            with pytest.raises(ValueError):
                processing_index(spec, i)


def test_recursion_matches_u_equals_vT(random_code):
    # The causal recursion of build_hypothesis gives u = vT on the prefix
    # of every input word. On any prefix at all, batch._extend_prefix's one
    # product gives H_{i,0}, and that XOR T[i, :ell + 1] gives H_{i,1}.
    rng = np.random.default_rng(23)
    for _ in range(30):
        spec = random_code(rng, n=int(rng.integers(2, 7)))
        msgs = rng.integers(0, 2, size=(4, spec.K), dtype=np.uint8)
        noise = rng.integers(0, 2, size=(4, spec.N), dtype=np.uint8)
        for msg, junk in zip(msgs, noise):
            u = input_word(spec, msg)
            for i in spec.A:
                ell = int(spec.ell[i])
                for b in (0, 1):
                    want = build_hypothesis(spec, u[:i], i, b).prefix
                    assert np.array_equal(want[:i], u[:i])
                    if b == u[i]:
                        assert np.array_equal(want, u[:want.size])
                for past in (u, junk):
                    h0 = batch._extend_prefix(spec, past[None, :], i, ell)[0]
                    want = build_hypothesis(spec, past[:i], i, 0).prefix
                    assert np.array_equal(h0, want)
                    want = build_hypothesis(spec, past[:i], i, 1).prefix
                    assert np.array_equal(h0 ^ spec.T[i, :ell + 1], want)
