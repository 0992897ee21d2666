"""Reference curves: achievability, converse, simulated ML lower bound."""
import numpy as np
import pytest

from fcpolar import batch
from fcpolar.bounds import dt_bound, mc_bound, ml_bound_sim
from fcpolar.gf2 import gf2_rank, kron_power, mat_mul


def test_dt_endpoints():
    assert dt_bound(8, 3, 0.0) == pytest.approx(7 * 2.0 ** (-9), abs=1e-15)
    assert dt_bound(8, 3, 1.0) == 1.0
    assert dt_bound(64, 32, 0.0) == pytest.approx((2**32 - 1) * 2.0**-65,
                                                  rel=1e-12)


def test_dt_monotone_in_p_and_k():
    grid = np.linspace(0.0, 1.0, 21)
    vals = [dt_bound(32, 16, p) for p in grid]
    assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))
    for p in (0.2, 0.5):
        ks = [dt_bound(32, k, p) for k in range(1, 32)]
        assert all(b >= a - 1e-15 for a, b in zip(ks, ks[1:]))


def test_mc_endpoints_and_order():
    assert mc_bound(8, 3, 0.0) == 0.0
    assert mc_bound(8, 3, 1.0) == pytest.approx(1 - 2.0 ** (-3), abs=1e-12)
    for N, K in ((8, 3), (16, 6), (64, 32), (128, 64)):
        for p in np.linspace(0.0, 1.0, 11):
            assert mc_bound(N, K, p) <= dt_bound(N, K, p) + 1e-12


def test_mc_exact_for_repetition_pair():
    # (2, 1): with both symbols erased any decoder guesses, erring half
    # the time; one erasure still pins the bit. The converse is tight.
    for p in (0.1, 0.4, 0.9):
        assert mc_bound(2, 1, p) == pytest.approx(p * p / 2, abs=1e-12)


def test_dt_brackets_random_linear_oracle():
    # a random linear code decoded by coset-uniform ML sits below the
    # achievability curve and above half of it at this scale
    rng = np.random.default_rng(0)
    N, K, p, T = 10, 4, 0.4, 3000
    errs = 0.0
    for _ in range(T):
        G = rng.integers(0, 2, size=(K, N)).astype(np.uint8)
        keep = rng.random(N) >= p
        d = K - gf2_rank(G[:, keep])
        errs += 1.0 - 2.0 ** (-d)
    sim = errs / T
    dt = dt_bound(N, K, p)
    se = (sim * (1 - sim) / T) ** 0.5
    assert sim <= dt + 3 * se
    assert dt <= 2 * sim + 3 * se


def test_ml_sim_endpoints(nr16):
    assert ml_bound_sim(nr16, 0.0, 500) == 0.0
    full = ml_bound_sim(nr16, 1.0, 4000)
    assert full == pytest.approx(1 - 2.0 ** (-nr16.K), abs=0.03)


def test_ml_sim_below_sc_bler_same_trials(nr16):
    p, T, seed = 0.45, 4000, 11
    ml = ml_bound_sim(nr16, p, T, seed=seed)
    ids = np.arange(T)
    msg = batch.sample_messages(nr16, seed, ids)
    u, x = batch.encode_batch(nr16, msg)
    erased = batch.sample_erasures(nr16, p, seed, ids)
    out = batch.decode_sc_batch(nr16, batch.channel_planes(x, erased),
                                seed, ids)
    bler = float((out.u_hat != u).any(axis=1).mean())
    assert ml <= bler  # counted events are a subset of block errors


def test_ml_sim_below_exact_ml(nr16):
    # rank oracle: ML with uniform tie-breaking errs 1 - 2^-d per pattern
    p, T, seed = 0.45, 4000, 13
    ml = ml_bound_sim(nr16, p, T, seed=seed)
    embed = np.eye(nr16.N, dtype=np.uint8)[list(nr16.A)]
    M = mat_mul(embed, mat_mul(nr16.T, kron_power(nr16.n)))
    erased = batch.sample_erasures(nr16, p, seed, np.arange(T))
    exact = np.mean([1.0 - 2.0 ** (-(nr16.K - gf2_rank(M[:, ~e])))
                     for e in erased])
    se = (exact * (1 - exact) / T) ** 0.5
    assert ml <= exact + 3 * se


def test_ml_sim_deterministic(nr16):
    a = ml_bound_sim(nr16, 0.4, 1000, seed=3)
    b = ml_bound_sim(nr16, 0.4, 1000, seed=3)
    assert a == b


def test_validation():
    with pytest.raises(ValueError):
        dt_bound(8, 3, -0.2)
    with pytest.raises(ValueError):
        mc_bound(8, 3, 1.2)


def test_ml_sim_validation(nr16):
    with pytest.raises(ValueError):
        ml_bound_sim(nr16, 0.4, 0)
    with pytest.raises(ValueError):
        ml_bound_sim(nr16, 1.5, 10)
