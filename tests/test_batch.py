"""Vectorized decoders must agree bit-for-bit with the scalar engines."""
import numpy as np
import pytest

from fcpolar import batch, bitboard, planes
from fcpolar.codes import build_nr_code
from fcpolar.constraints import system_structure
from fcpolar.decoders import processing_index
from fcpolar.gf2 import mat_mul_f32
from fcpolar.search import decode_sc, decode_with_fc
from fcpolar.symbols import ERASURE


@pytest.mark.parametrize("p", [0.25, 0.55])
def test_sc_batch_matches_scalar(ex1, p):
    # NR(128, 64) runs the multi-word blocks of the word layout
    for spec, T in ((ex1, 80), (build_nr_code(128, 64), 24)):
        trials = np.arange(T)
        msgs = batch.sample_messages(spec, seed=1, trials=trials)
        _, x = batch.encode_batch(spec, msgs)
        erased = batch.sample_erasures(spec, p, seed=1, trials=trials)
        yp = batch.channel_planes(x, erased)
        out = batch.decode_sc_batch(spec, yp, seed=1, trials=trials)
        rows = planes.to_symbols(yp)
        for t in range(T):
            ref = decode_sc(spec, rows[t], seed=1, trial=t)
            assert np.array_equal(out.u_hat[t], ref.u_hat), (spec.N, t)


@pytest.mark.parametrize("engine,i_max,sbj", [
    ("scc", 1, False),
    ("scc", 2, True),
    ("bp_scc", 1, False),
    ("bp_scc", 3, False),
    ("bp_scc", 2, True),
])
def test_fc_batch_matches_scalar(ex1, nr16, engine, i_max, sbj):
    for spec, p in ((ex1, 0.5), (nr16, 0.35)):
        T = 60
        trials = np.arange(T)
        msgs = batch.sample_messages(spec, seed=2, trials=trials)
        _, x = batch.encode_batch(spec, msgs)
        erased = batch.sample_erasures(spec, p, seed=2, trials=trials)
        yp = batch.channel_planes(x, erased)
        rows = planes.to_symbols(yp)
        out = batch.decode_fc_batch(spec, yp, engine=engine, i_max=i_max,
                                    sbj=sbj, seed=2, trials=trials)
        for t in range(T):
            ref = decode_with_fc(spec, rows[t], engine=engine, i_max=i_max,
                                 sbj=sbj, seed=2, trial=t)
            assert out.success[t] == (ref.status == "success"), (spec.N, t)
            assert out.visits[t] == ref.visited_nodes, (spec.N, t)
            if ref.status == "success":
                assert np.array_equal(out.u_hat[t], ref.u_hat), (spec.N, t)


def _round_maps(spec, ubuf, ell):
    """Both FCCN rounds of every stage with future constraints, as
    check_batch64 takes them: (popcount rounds, BLAS rounds)."""
    popcount, blas = {}, {}
    for t in range(1, spec.n + 1):
        _, Q, offsets = system_structure(spec, ell, t)
        if not offsets.shape[1]:
            continue
        phi = mat_mul_f32(ubuf, offsets).astype(bool)
        masks = bitboard.pack_rows(Q.T)
        popcount[t] = lambda s, m=masks, f=phi: bitboard._fccn_pass64(s, m, f)
        blas[t] = (lambda s, q=Q.astype(np.float32), f=phi:
                   batch._fccn_pass_batch(s, q, f))
    return popcount, blas


def test_check_engines_agree(ex1, nr16, nr64):
    # The popcount and BLAS rounds through the one sweep, on the same
    # channel rows and true prefixes at every information bit (every third
    # from N=128 on): b = 0 and 1 make some hypotheses wrong, and the
    # erasure rates leave work for the rounds. _check_batch, which picks a
    # round by N, must agree with both, and where a code has rounds at all
    # (NR16 without CRC has none) they must move some verdict.
    for spec, p in ((ex1, 0.5), (nr16, 0.4), (nr64, 0.3),
                    (build_nr_code(128, 64), 0.3),
                    (build_nr_code(256, 128), 0.3)):
        trials = np.arange(64)
        u, x = batch.encode_batch(spec, batch.sample_messages(spec, 3, trials))
        yp = batch.channel_planes(x, batch.sample_erasures(spec, p, 3, trials))
        yv, ye = (bitboard.pack_rows(plane) for plane in yp[:2])
        moved = has_rounds = False
        for i in spec.A[::3] if spec.N >= 128 else spec.A:
            ell = processing_index(spec, i)
            for b in (0, 1):
                ubuf = batch._extend_prefix(spec, u, i, ell, b)
                popcount, blas = _round_maps(spec, ubuf, ell)
                has_rounds |= bool(blas)
                for i_max in (1, 3):
                    want = bitboard.check_batch64(spec, yv, ye, ubuf, ell,
                                                  blas, i_max)
                    key = (spec.N, i, b, i_max)
                    for got in (bitboard.check_batch64(spec, yv, ye, ubuf, ell,
                                                       popcount, i_max),
                                batch._check_batch(spec, yv, ye, ubuf, ell,
                                                   True, i_max)):
                        for w, g in zip(want, got):
                            assert np.array_equal(w, g), key
                    bare = bitboard.check_batch64(spec, yv, ye, ubuf, ell, {},
                                                  i_max)
                    moved |= not all(map(np.array_equal, want, bare))
        assert moved == has_rounds, spec.N


@pytest.mark.parametrize("N,K,p,T,seed", [
    (64, 32, 0.25, 24, 1),
    (128, 64, 0.32, 10, 0),
    (256, 128, 0.35, 3, 0),
])
def test_sbj_engines_match_scalar_on_nr_codes(N, K, p, T, seed):
    # Each case has rows that dead-end in the straight-line pass, so the
    # packed lockstep search (N=64) or the scalar fallback (N>64) runs.
    spec = build_nr_code(N, K)
    trials = np.arange(T)
    _, x = batch.encode_batch(spec, batch.sample_messages(spec, seed, trials))
    yp = batch.channel_planes(x, batch.sample_erasures(spec, p, seed, trials))
    rows = planes.to_symbols(yp)
    out = batch.decode_fc_batch(spec, yp, sbj=True, seed=seed, trials=trials)
    assert out.backjumps.any()
    for t in range(T):
        ref = decode_with_fc(spec, rows[t], engine="bp_scc", sbj=True,
                             seed=seed, trial=t)
        assert out.success[t] == (ref.status == "success"), t
        assert out.visits[t] == ref.visited_nodes, t
        assert out.backjumps[t] == ref.backjumps, t
        if ref.status == "success":
            assert np.array_equal(out.u_hat[t], ref.u_hat), t


def test_sampling_is_reproducible(ex1):
    trials = np.arange(100)
    a = batch.sample_messages(ex1, seed=9, trials=trials)
    b = batch.sample_messages(ex1, seed=9, trials=trials)
    assert np.array_equal(a, b)
    c = batch.sample_messages(ex1, seed=10, trials=trials)
    assert not np.array_equal(a, c)
    # per-trial keying: a subset drawn later matches the original rows
    sub = batch.sample_messages(ex1, seed=9, trials=trials[40:60])
    assert np.array_equal(sub, a[40:60])


def test_erasure_rate_matches_p(ex1):
    trials = np.arange(4000)
    erased = batch.sample_erasures(ex1, 0.3, seed=4, trials=trials)
    rate = erased.mean()
    assert abs(rate - 0.3) < 0.01
    assert not batch.sample_erasures(ex1, 0.0, seed=4, trials=trials).any()
    assert batch.sample_erasures(ex1, 1.0, seed=4, trials=trials).all()


def test_channel_planes_round_trip(ex1):
    trials = np.arange(16)
    msgs = batch.sample_messages(ex1, seed=5, trials=trials)
    _, x = batch.encode_batch(ex1, msgs)
    erased = batch.sample_erasures(ex1, 0.5, seed=5, trials=trials)
    yp = batch.channel_planes(x, erased)
    rows = planes.to_symbols(yp)
    assert rows.shape == x.shape
    assert np.array_equal(rows == ERASURE, erased)
    keep = ~erased
    assert np.array_equal(rows[keep], x[keep])


def test_encode_batch_matches_scalar(ex1):
    from fcpolar.codes import encode, input_word
    trials = np.arange(12)
    msgs = batch.sample_messages(ex1, seed=6, trials=trials)
    u, x = batch.encode_batch(ex1, msgs)
    for t in range(12):
        assert np.array_equal(u[t], input_word(ex1, msgs[t]))
        assert np.array_equal(x[t], encode(ex1, msgs[t]))
