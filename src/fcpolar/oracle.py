"""Brute-force reference decoders for desk-size codes.

Three decoders over the BI-AWGN channel (x mapped to s = 1 - 2x, noise
variance sigma2): plain SC by exhaustive marginalization over
unconstrained suffixes, bitwise-MAP-SC marginalizing only over valid
completions (uH' = 0), and blockwise MAP over all 2^K messages. All
likelihood work happens in the log domain on a score matrix with one
column per candidate input word, so the sequential decoders reduce to
grouped log-sum-exp reductions over candidate blocks that share a prefix.

The same machinery doubles as a BEC oracle by swapping the Gaussian
log-likelihoods for erasure indicators (0 for compatible, -inf for
contradicted).
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
    "bec_candidate_messages",
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


def bec_loglik(y_symbols: np.ndarray) -> np.ndarray:
    """Erasure-indicator log-likelihoods: 0 if compatible, -inf otherwise."""
    y = np.asarray(y_symbols)
    ll = np.zeros(y.shape + (2,))
    for c in (0, 1):
        ll[..., c] = np.where((y == 2) | (y == c), 0.0, -np.inf)
    return ll


def _scores(ll: np.ndarray, words: np.ndarray) -> np.ndarray:
    """Candidate log-likelihood sums; ll (trials, N, 2), words (C, N)."""
    trials = ll.shape[0]
    out = np.zeros((trials, words.shape[0]))
    for j in range(words.shape[1]):
        out += ll[:, j, :][:, words[:, j]]
    return out


def _sequential_argmax(spec: CodeSpec, scores: np.ndarray, words: np.ndarray,
                       decision_positions) -> np.ndarray:
    """Shared core of the sequential decoders.

    words must be ordered so that the bits at decision_positions form the
    binary expansion of the candidate index (MSB first); every other
    position is a deterministic function of the decisions, so committing a
    decision halves the candidate range. Returns the decoded words.
    """
    trials = scores.shape[0]
    depth = len(decision_positions)
    committed = np.zeros(trials, dtype=np.int64)
    for r in range(depth):
        grouped = logsumexp(scores.reshape(trials, 1 << (r + 1), -1), axis=2)
        s0 = grouped[np.arange(trials), committed << 1]
        s1 = grouped[np.arange(trials), (committed << 1) + 1]
        bit = (s1 > s0).astype(np.int64)
        committed = (committed << 1) + bit
    return words[committed]


def sc_marginal_decode_batch(spec: CodeSpec, ll: np.ndarray) -> np.ndarray:
    """Plain SC by exhaustive marginalization, vectorized over trials.

    At each position the suffix ranges over every bit pattern; at frozen
    and parity positions the decision is the forced value rather than an
    argmax, which restricts the candidate set just like a decision does.
    """
    words = _all_input_words(spec)
    scores = _scores(ll, mat_mul(words, spec.generator))
    trials = ll.shape[0]
    committed = np.zeros(trials, dtype=np.int64)
    decided = np.zeros((trials, spec.N), dtype=np.uint8)
    for i in range(spec.N):
        if spec.info_mask[i]:
            grouped = logsumexp(scores.reshape(trials, 1 << (i + 1), -1), axis=2)
            s0 = grouped[np.arange(trials), committed << 1]
            s1 = grouped[np.arange(trials), (committed << 1) + 1]
            bit = (s1 > s0).astype(np.int64)
        else:
            bit = (mat_mul(decided[:, :i], spec.T[:i, i][:, None])[:, 0]
                   if spec.parity_mask[i] else np.zeros(trials, dtype=np.uint8)
                   ).astype(np.int64)
        decided[:, i] = bit
        committed = (committed << 1) + bit
    return decided


def bitwise_map_sc_decode_batch(spec: CodeSpec, ll: np.ndarray) -> np.ndarray:
    """Bitwise-MAP-SC: sequential argmax over valid completions only."""
    words, x = _valid_words(spec)
    scores = _scores(ll, x)
    return _sequential_argmax(spec, scores, words, spec.A)


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


def bec_candidate_messages(spec: CodeSpec, y_symbols) -> np.ndarray:
    """Messages whose codewords match the BEC output on unerased positions."""
    x = _valid_words(spec)[1]
    y = np.asarray(list(y_symbols))
    ok = ((x == y) | (y == 2)).all(axis=1)
    return np.flatnonzero(ok)
