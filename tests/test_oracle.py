"""Brute-force MAP references: recompute every posterior from scratch."""
import numpy as np
import pytest
from scipy.special import logsumexp
from scipy.stats import norm

from fcpolar.codes import encode, input_word
from fcpolar.oracle import (awgn_loglik, awgn_sigma2, bitwise_map_sc_decode,
                            bitwise_map_sc_decode_batch, blockwise_map_decode,
                            blockwise_map_decode_batch, sc_marginal_decode,
                            sc_marginal_decode_batch)


def _bpsk(x):
    return 1.0 - 2.0 * x.astype(float)


def _all_valid_words(spec):
    words = []
    for m in range(1 << spec.K):
        msg = np.array([(m >> (spec.K - 1 - j)) & 1 for j in range(spec.K)],
                       dtype=np.uint8)
        words.append(input_word(spec, msg))
    return np.array(words)


def test_sigma2_conversions():
    assert awgn_sigma2(0.0) == pytest.approx(0.5)
    assert awgn_sigma2(10.0) == pytest.approx(0.05)
    assert awgn_sigma2(-3.0) > awgn_sigma2(3.0)


def test_noiseless_limits_all_decoders(ex1, all_ex1_messages):
    sigma2 = awgn_sigma2(20.0)
    for msg in all_ex1_messages:
        u = input_word(ex1, msg)
        y = _bpsk(encode(ex1, msg))
        for dec in (sc_marginal_decode, bitwise_map_sc_decode,
                    blockwise_map_decode):
            assert np.array_equal(dec(ex1, y, sigma2), u), dec.__name__


def test_blockwise_against_direct_posterior(ex1):
    # recompute the codeword posterior with scipy densities and compare
    # decisions wherever the argmax is unique
    rng = np.random.default_rng(2)
    words = _all_valid_words(ex1)
    codewords = np.array([encode(ex1, w[list(ex1.A)]) for w in words])
    sigma2 = awgn_sigma2(0.0)
    for _ in range(60):
        msg = rng.integers(0, 2, size=3).astype(np.uint8)
        y = _bpsk(encode(ex1, msg)) + rng.normal(0, sigma2 ** 0.5, 8)
        post = np.array([
            norm.logpdf(y, loc=_bpsk(c), scale=sigma2 ** 0.5).sum()
            for c in codewords
        ])
        got = blockwise_map_decode(ex1, y, sigma2)
        assert np.array_equal(got, words[np.argmax(post)])


def test_bitwise_against_hand_marginalization(ex1):
    # sequential bitwise MAP done longhand: at each information bit sum
    # the posterior over valid completions of each branch, commit the
    # larger, and reuse the committed prefix downstream
    rng = np.random.default_rng(3)
    words = _all_valid_words(ex1)
    codewords = np.array([encode(ex1, w[list(ex1.A)]) for w in words])
    sigma2 = awgn_sigma2(-1.0)
    for _ in range(60):
        msg = rng.integers(0, 2, size=3).astype(np.uint8)
        y = _bpsk(encode(ex1, msg)) + rng.normal(0, sigma2 ** 0.5, 8)
        ll = np.array([
            norm.logpdf(y, loc=_bpsk(c), scale=sigma2 ** 0.5).sum()
            for c in codewords
        ])
        live = np.ones(len(words), dtype=bool)
        decided = {}
        for i in ex1.A:
            s = {}
            for b in (0, 1):
                sel = live & (words[:, i] == b)
                s[b] = logsumexp(ll[sel]) if sel.any() else -np.inf
            bit = int(s[1] > s[0])
            decided[i] = bit
            live &= words[:, i] == bit
        got = bitwise_map_sc_decode(ex1, y, sigma2)
        for i, b in decided.items():
            assert got[i] == b


def test_sc_marginal_against_hand_marginalization(ex1):
    # plain SC marginalizes over unconstrained suffixes: enumerate all
    # 2^8 input words, no validity restriction, forced values at frozen
    # and parity positions
    rng = np.random.default_rng(4)
    from fcpolar.gf2 import mat_mul
    all_words = np.array([[(m >> (7 - j)) & 1 for j in range(8)]
                          for m in range(256)], dtype=np.uint8)
    from fcpolar.gf2 import kron_power
    all_x = mat_mul(all_words, kron_power(3))
    sigma2 = awgn_sigma2(1.0)
    a_set = set(ex1.A)
    for _ in range(40):
        msg = rng.integers(0, 2, size=3).astype(np.uint8)
        y = _bpsk(encode(ex1, msg)) + rng.normal(0, sigma2 ** 0.5, 8)
        ll = np.array([
            norm.logpdf(y, loc=_bpsk(c), scale=sigma2 ** 0.5).sum()
            for c in all_x
        ])
        prefix = []
        for i in range(8):
            match = np.ones(256, dtype=bool)
            for j, b in enumerate(prefix):
                match &= all_words[:, j] == b
            if i in a_set:
                s0 = logsumexp(ll[match & (all_words[:, i] == 0)])
                s1 = logsumexp(ll[match & (all_words[:, i] == 1)])
                prefix.append(int(s1 > s0))
            else:
                col = ex1.T[:i, i]
                forced = int(np.array(prefix, dtype=np.uint8) @ col % 2) \
                    if i else 0
                prefix.append(forced)
        got = sc_marginal_decode(ex1, y, sigma2)
        assert np.array_equal(got, np.array(prefix, dtype=np.uint8))


def test_batch_matches_scalar(ex1):
    rng = np.random.default_rng(5)
    sigma2 = awgn_sigma2(0.0)
    msgs = rng.integers(0, 2, size=(20, 3)).astype(np.uint8)
    ys = np.array([_bpsk(encode(ex1, m)) + rng.normal(0, sigma2 ** 0.5, 8)
                   for m in msgs])
    ll = awgn_loglik(ys, sigma2)
    sc_b = sc_marginal_decode_batch(ex1, ll)
    bw_b = bitwise_map_sc_decode_batch(ex1, ll)
    bl_b = blockwise_map_decode_batch(ex1, ll)
    for t in range(20):
        assert np.array_equal(sc_b[t], sc_marginal_decode(ex1, ys[t], sigma2))
        assert np.array_equal(bw_b[t],
                              bitwise_map_sc_decode(ex1, ys[t], sigma2))
        assert np.array_equal(bl_b[t],
                              blockwise_map_decode(ex1, ys[t], sigma2))


def test_blockwise_tie_breaks_to_smallest_message(ex1):
    y = np.zeros(8)
    got = blockwise_map_decode(ex1, y, 0.5)
    assert not got.any()


def test_size_guards(nr64):
    with pytest.raises(ValueError):
        sc_marginal_decode_batch(nr64, np.zeros((1, 64, 2)))
