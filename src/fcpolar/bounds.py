"""Finite-blocklength reference curves for the BEC.

The achievability and converse bounds condition on the erasure count e:
given e erasures the channel delivers exactly N - e bits of information
density, so both bounds reduce to binomial mixtures of closed forms. The
ML bound is simulation-based: it lower-bounds the error rate of maximum
likelihood decoding by counting SC block errors that no decoder could
have avoided.
"""

from __future__ import annotations

import numpy as np
from scipy.stats import binom

from . import batch
from .codes import CodeSpec
from .gf2 import mat_mul

__all__ = ["dt_bound", "mc_bound", "ml_bound_sim"]


def _erasure_weights(N: int, p: float) -> tuple[np.ndarray, np.ndarray]:
    e = np.arange(N + 1)
    return e, binom.pmf(e, N, p)


def dt_bound(N: int, K: int, p: float) -> float:
    """Dependence-testing achievability bound, BEC form.

    Average block error of a random 2^K-codeword code under the
    threshold-testing decoder: with e erasures the information density is
    N - e bits, and each of the 2^K - 1 wrong messages survives the test
    with probability 2^{-(N-e)}, counted with the factor 1/2 from breaking
    ties at the threshold, giving E_e[min{1, (2^K - 1) 2^{-(N-e)-1}}].
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"erasure probability {p} out of range")
    e, w = _erasure_weights(N, p)
    log2_m1 = K + np.log2(1.0 - 2.0 ** (-K)) if K < 50 else float(K)
    exponent = log2_m1 - (N - e) - 1
    term = np.where(exponent >= 0, 1.0, np.exp2(np.minimum(exponent, 0.0)))
    return float(w @ term)


def mc_bound(N: int, K: int, p: float) -> float:
    """Meta-converse lower bound on the BLER of any (N, 2^K) code, BEC form.

    With e erasures only 2^{N-e} outputs are distinguishable, so any code
    errs with probability at least 1 - 2^{N-e-K} when e > N - K.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"erasure probability {p} out of range")
    e, w = _erasure_weights(N, p)
    d = (N - e - K).astype(float)
    term = np.where(d >= 0, 0.0, 1.0 - np.exp2(np.minimum(d, 0.0)))
    return float(w @ term)


def ml_bound_sim(spec: CodeSpec, p: float, trials: int, seed: int = 0) -> float:
    """Simulated lower bound on ML block error rate.

    Runs plain SC; every block error whose re-encoded output matches the
    channel output on all non-erased positions would fool any decoder
    (both codewords have the same likelihood), so the rate of such events
    lower-bounds the ML error rate. The trials run batch.CHUNK at a time.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"erasure probability {p} out of range")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    hits = 0
    for start in range(0, trials, batch.CHUNK):
        ids = np.arange(start, min(start + batch.CHUNK, trials))
        u, x = batch.encode_batch(spec, batch.sample_messages(spec, seed, ids))
        erased = batch.sample_erasures(spec, p, seed, ids)
        out = batch.decode_sc_batch(spec, batch.channel_planes(x, erased),
                                    seed, ids)
        block_err = (out.u_hat != u).any(axis=1)
        consistent = ((mat_mul(out.u_hat, spec.generator) == x)
                      | erased).all(axis=1)
        hits += np.count_nonzero(block_err & consistent)
    return hits / trials
