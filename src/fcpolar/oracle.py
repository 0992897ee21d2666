"""Brute-force reference decoders for desk-size codes.

Three decoders over the BI-AWGN channel (x mapped to s = 1 - 2x, noise
variance sigma2): plain SC by exhaustive marginalization over
unconstrained suffixes, bitwise-MAP-SC marginalizing only over valid
completions (uH' = 0), and blockwise MAP over all 2^K messages. All
likelihood work happens in the log domain on a score matrix with one
column per candidate input word, so both sequential decoders are one loop,
_sequential_decode: grouped log-sum-exp reductions over candidate blocks
that share a prefix, SC deciding at every position and bitwise-MAP-SC at A.
"""

from __future__ import annotations

import numpy as np
from scipy.special import logsumexp

from .batch import encode_batch
from .codes import CodeSpec
from .gf2 import mat_mul

__all__ = [
    "awgn_sigma2",
    "sc_marginal_decode",
    "bitwise_map_sc_decode",
    "blockwise_map_decode",
    "sc_marginal_decode_batch",
    "bitwise_map_sc_decode_batch",
    "blockwise_map_decode_batch",
]


def awgn_sigma2(esn0_db: float) -> float:
    """Noise variance for unit-energy BPSK at the given Es/N0 in dB."""
    return 1.0 / (2.0 * 10.0 ** (esn0_db / 10.0))


def _all_input_words(spec: CodeSpec) -> np.ndarray:
    """All 2^N input words u, ordered with u_0 as the most significant bit."""
    if spec.N > 16:
        raise ValueError("exhaustive SC marginalization limited to N <= 16")
    idx = np.arange(1 << spec.N, dtype=np.uint32)
    shifts = np.arange(spec.N - 1, -1, -1, dtype=np.uint32)
    return ((idx[:, None] >> shifts[None, :]) & 1).astype(np.uint8)


def _valid_words(spec: CodeSpec) -> tuple[np.ndarray, np.ndarray]:
    """Input words and codewords of all 2^K messages, m_0 as the MSB."""
    if spec.K > 20:
        raise ValueError("message enumeration limited to K <= 20")
    idx = np.arange(1 << spec.K, dtype=np.uint32)
    shifts = np.arange(spec.K - 1, -1, -1, dtype=np.uint32)
    messages = ((idx[:, None] >> shifts[None, :]) & 1).astype(np.uint8)
    return encode_batch(spec, messages)


def awgn_loglik(y: np.ndarray, sigma2: float) -> np.ndarray:
    """Per-position log W(y_j | x_j = c), shape (..., N, 2), constants dropped."""
    y = np.asarray(y, dtype=float)
    s = np.array([1.0, -1.0])
    return -((y[..., None] - s) ** 2) / (2.0 * sigma2)


def _scores(ll: np.ndarray, words: np.ndarray) -> np.ndarray:
    """Candidate log-likelihood sums; ll (trials, N, 2), words (C, N)."""
    trials = ll.shape[0]
    out = np.zeros((trials, words.shape[0]))
    for j in range(words.shape[1]):
        out += ll[:, j, :][:, words[:, j]]
    return out


def _sequential_decode(spec: CodeSpec, scores: np.ndarray, words: np.ndarray,
                       positions) -> np.ndarray:
    """The decision loop of both sequential decoders; returns the words.

    words must be ordered so that their bits at positions form the binary
    expansion of the candidate index (MSB first), the other bits following
    from those. Each decision halves the candidate range: an argmax of the
    grouped scores at a position in A, the forced bit elsewhere (the
    prefix's product with its T column; 0 for a frozen bit).
    """
    trials, depth = scores.shape[0], len(positions)
    rows = np.arange(trials)
    committed = np.zeros(trials, dtype=np.int64)
    for r, i in enumerate(positions):
        if spec.info_mask[i]:
            grouped = logsumexp(scores.reshape(trials, 1 << (r + 1), -1), axis=2)
            bit = grouped[rows, 2 * committed + 1] > grouped[rows, 2 * committed]
        else:
            prefix = words[committed << (depth - r), :i]
            bit = mat_mul(prefix, spec.T[:i, i][:, None])[:, 0]
        committed = (committed << 1) + bit
    return words[committed]


def sc_marginal_decode_batch(spec: CodeSpec, ll: np.ndarray) -> np.ndarray:
    """Plain SC by exhaustive marginalization, vectorized over trials: a
    decision at every position, the suffix ranging over every bit pattern."""
    words = _all_input_words(spec)
    scores = _scores(ll, mat_mul(words, spec.generator))
    return _sequential_decode(spec, scores, words, range(spec.N))


def bitwise_map_sc_decode_batch(spec: CodeSpec, ll: np.ndarray) -> np.ndarray:
    """Bitwise-MAP-SC: sequential argmax over valid completions only."""
    words, x = _valid_words(spec)
    scores = _scores(ll, x)
    return _sequential_decode(spec, scores, words, spec.A)


def blockwise_map_decode_batch(spec: CodeSpec, ll: np.ndarray) -> np.ndarray:
    """Blockwise MAP over valid words; ties break toward smaller messages."""
    words, x = _valid_words(spec)
    scores = _scores(ll, x)
    return words[np.argmax(scores, axis=1)]


def sc_marginal_decode(spec: CodeSpec, y, sigma2: float) -> np.ndarray:
    return sc_marginal_decode_batch(spec, awgn_loglik(np.atleast_2d(y), sigma2))[0]


def bitwise_map_sc_decode(spec: CodeSpec, y, sigma2: float) -> np.ndarray:
    return bitwise_map_sc_decode_batch(spec, awgn_loglik(np.atleast_2d(y), sigma2))[0]


def blockwise_map_decode(spec: CodeSpec, y, sigma2: float) -> np.ndarray:
    return blockwise_map_decode_batch(spec, awgn_loglik(np.atleast_2d(y), sigma2))[0]

