"""Depth-first traversal: visit accounting, backjumps, determinism."""
import itertools

import numpy as np
import pytest

from fcpolar import batch, planes, search
from fcpolar.codes import build_example1, encode, input_word
from fcpolar.search import decode_sc, decode_with_fc
from fcpolar.symbols import ERASURE


def _erase(x, positions):
    y = np.array(x, dtype=np.uint8)
    y[list(positions)] = ERASURE
    return y


def test_sc_noiseless_exact(ex1, all_ex1_messages):
    for msg in all_ex1_messages:
        out = decode_sc(ex1, encode(ex1, msg))
        assert out.status == "success"
        assert np.array_equal(out.u_hat, input_word(ex1, msg))
        assert out.visited_nodes == ex1.N


def test_sc_all_erased_success_rate(ex1):
    # every information bit becomes a fair coin: exact recovery has
    # probability 2^-K; 800 trials of a Binomial(800, 1/8) stay within
    # 4 standard deviations of the mean
    y = np.full(8, ERASURE, dtype=np.uint8)
    msg = np.array([1, 1, 0], dtype=np.uint8)
    u = input_word(ex1, msg)
    hits = sum(
        np.array_equal(decode_sc(ex1, y, seed=7, trial=t).u_hat, u)
        for t in range(800)
    )
    mean, sd = 800 / 8, (800 * (1 / 8) * (7 / 8)) ** 0.5
    assert abs(hits - mean) < 4 * sd


def test_sc_deterministic_per_trial(ex1):
    y = np.full(8, ERASURE, dtype=np.uint8)
    a = decode_sc(ex1, y, seed=3, trial=11)
    b = decode_sc(ex1, y, seed=3, trial=11)
    assert np.array_equal(a.u_hat, b.u_hat)
    distinct = {tuple(decode_sc(ex1, y, seed=3, trial=t).u_hat) for t in range(64)}
    assert len(distinct) > 1


def test_fc_noiseless_visits_formula(ex1, all_ex1_messages):
    # spans cost ell_i - ell_prev visits; a refuted zero hypothesis
    # repeats its span, so visits = 8 + 5*u3 + 2*u5 + 1*u7
    for msg in all_ex1_messages:
        u = input_word(ex1, msg)
        x = encode(ex1, msg)
        expected = 8 + 5 * int(u[3]) + 2 * int(u[5]) + 1 * int(u[7])
        for engine in ("scc", "bp_scc"):
            out = decode_with_fc(ex1, x, engine=engine, i_max=2, sbj=True)
            assert out.status == "success"
            assert np.array_equal(out.u_hat, u)
            assert out.visited_nodes == expected
            assert out.backjumps == 0


def test_backjump_recovers_engineered_dead_end(ex1):
    # erasing the first half of the word lets H_{3,0} pass on erasures,
    # drives bit 5 into a double conflict, and forces a jump back to
    # the complementary branch of bit 3
    msg = np.array([1, 0, 0], dtype=np.uint8)
    u = input_word(ex1, msg)
    y = _erase(encode(ex1, msg), [0, 1, 2, 3])

    out = decode_with_fc(ex1, y, engine="scc", i_max=2, sbj=True)
    assert out.status == "success"
    assert out.backjumps == 1
    assert np.array_equal(out.u_hat, u)

    out_off = decode_with_fc(ex1, y, engine="scc", i_max=2, sbj=False)
    assert out_off.status == "failure"
    assert out_off.u_hat is None

    out_bp = decode_with_fc(ex1, y, engine="bp_scc", i_max=2, sbj=True)
    assert out_bp.status == "success"
    assert np.array_equal(out_bp.u_hat, u)


def test_search_never_revisits_a_node(ex1, nr64, monkeypatch):
    # A check of H_{i,b} runs at the tree node (i, committed past, b); at
    # check time the committed past is the hypothesis prefix up to i. The
    # spy raises at the first repeated node, so a search that comes back to
    # one fails here instead of running on. NR(64, 32) at p=0.45 backjumps
    # in chains, where a checkpoint popped twice would repeat its nodes.
    nodes = set()
    check = search.bp_scc_check

    def spy(spec, graph, hyp, **kwargs):
        node = (hyp.i, tuple(hyp.prefix[:hyp.i].tolist()), hyp.b)
        if node in nodes:
            raise AssertionError(f"node i={hyp.i}, b={hyp.b} checked twice")
        nodes.add(node)
        return check(spec, graph, hyp, **kwargs)

    monkeypatch.setattr(search, "bp_scc_check", spy)
    rng = np.random.default_rng(5)
    for _ in range(200):
        msg = rng.integers(0, 2, size=3).astype(np.uint8)
        x = encode(ex1, msg)
        y = _erase(x, np.flatnonzero(rng.random(8) < 0.5))
        for engine in ("scc", "bp_scc"):
            nodes.clear()
            decode_with_fc(ex1, y, engine=engine, i_max=2, sbj=True)
            assert nodes
    trials = np.arange(4)
    _, x = batch.encode_batch(nr64, batch.sample_messages(nr64, 2, trials))
    erased = batch.sample_erasures(nr64, 0.45, 2, trials)
    for y in planes.to_symbols(batch.channel_planes(x, erased)):
        for engine in ("scc", "bp_scc"):
            nodes.clear()
            out = decode_with_fc(nr64, y, engine=engine, i_max=1, sbj=True)
            assert out.status == "success"
            assert out.backjumps >= 2


def test_fc_deterministic(ex1):
    rng = np.random.default_rng(9)
    for _ in range(50):
        msg = rng.integers(0, 2, size=3).astype(np.uint8)
        y = _erase(encode(ex1, msg), np.flatnonzero(rng.random(8) < 0.6))
        a = decode_with_fc(ex1, y, engine="bp_scc", i_max=3, sbj=True)
        b = decode_with_fc(ex1, y, engine="bp_scc", i_max=3, sbj=True)
        assert a.status == b.status
        assert a.visited_nodes == b.visited_nodes
        if a.status == "success":
            assert np.array_equal(a.u_hat, b.u_hat)


def test_success_satisfies_outer_checks(ex1, nr64):
    from fcpolar.codes import crc_remainder, NR_CRC11_TAPS
    from fcpolar.gf2 import mat_mul
    rng = np.random.default_rng(21)
    for spec in (ex1, nr64):
        for _ in range(20):
            msg = rng.integers(0, 2, size=spec.K).astype(np.uint8)
            x = encode(ex1 if spec is ex1 else spec, msg)
            y = _erase(x, np.flatnonzero(rng.random(spec.N) < 0.3))
            out = decode_with_fc(spec, y, engine="bp_scc", i_max=2, sbj=True)
            if out.status == "success":
                prod = mat_mul(out.u_hat[None, :], spec.H_prime)
                assert not prod.any()


def test_exhaustive_small_patterns_sound(ex1):
    # whenever the traversal succeeds, the reported word is a valid
    # input word; whenever the true word survives erasure uniquely,
    # the traversal finds exactly it
    from fcpolar.gf2 import mat_mul
    msg = np.array([0, 1, 1], dtype=np.uint8)
    u = input_word(ex1, msg)
    x = encode(ex1, msg)
    for r in range(0, 4):
        for pat in itertools.combinations(range(8), r):
            y = _erase(x, pat)
            out = decode_with_fc(ex1, y, engine="bp_scc", i_max=2, sbj=True)
            if out.status == "success":
                assert not mat_mul(out.u_hat[None, :], ex1.H_prime).any()


def test_unknown_engine_rejected(ex1):
    # "bp_scc" is the one spelling of BP-SCC, in both engines
    yp = batch.channel_planes(np.zeros((1, 8), dtype=np.uint8),
                              np.zeros((1, 8), dtype=bool))
    for engine in ("turbo", "bpscc"):
        with pytest.raises(ValueError):
            decode_with_fc(ex1, np.zeros(8, dtype=np.uint8), engine=engine)
        with pytest.raises(ValueError):
            batch.decode_fc_batch(ex1, yp, engine=engine)
