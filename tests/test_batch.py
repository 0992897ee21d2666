"""Vectorized decoders must agree bit-for-bit with the scalar engines."""
import numpy as np
import pytest

from fcpolar import batch, bitboard, planes
from fcpolar.codes import build_nr_code
from fcpolar.constraints import system_structure
from fcpolar.decoders import processing_index
from fcpolar.gf2 import kron_power, mat_mul
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
        out = batch.decode_fc_batch(spec, yp, engine=engine, i_max=i_max,
                                    sbj=sbj, seed=2, trials=trials)
        _assert_rows_match_scalar(spec, yp, out, trials, engine=engine,
                                  i_max=i_max, sbj=sbj)


def _assert_rows_match_scalar(spec, yp, out, trials, **kw):
    """Each row of out has the success, visits, backjumps and u_hat of
    search.decode_with_fc(**kw) on the same channel output."""
    rows = planes.to_symbols(yp)
    for r, t in enumerate(trials):
        ref = decode_with_fc(spec, rows[r], trial=t, **kw)
        key = (spec.N, spec.A, kw, t)
        assert out.success[r] == (ref.status == "success"), key
        assert out.visits[r] == ref.visited_nodes, key
        assert out.backjumps[r] == ref.backjumps, key
        if ref.status == "success":
            assert np.array_equal(out.u_hat[r], ref.u_hat), key


@pytest.mark.parametrize("sbj", [False, True])
@pytest.mark.parametrize("i_max", [1, 2])
@pytest.mark.parametrize("engine", ["scc", "bp_scc"])
def test_fc_batch_matches_scalar_on_random_codes(random_code, engine, i_max,
                                                 sbj):
    # Random A/P/F splits and parity taps, not only NR + CRC11 layouts.
    rng = np.random.default_rng(4)
    trials = np.arange(16)
    for n in (4, 4, 5, 5):
        spec = random_code(rng, n)
        for p in (0.2, 0.35):
            msgs = batch.sample_messages(spec, seed=3, trials=trials)
            _, x = batch.encode_batch(spec, msgs)
            yp = batch.channel_planes(
                x, batch.sample_erasures(spec, p, seed=3, trials=trials))
            out = batch.decode_fc_batch(spec, yp, engine=engine, i_max=i_max,
                                        sbj=sbj)
            _assert_rows_match_scalar(spec, yp, out, trials, engine=engine,
                                      i_max=i_max, sbj=sbj)


def _nr_batch(N, K, p, seed, trials):
    """A keyed NR + CRC11 batch: (spec, channel planes)."""
    spec = build_nr_code(N, K)
    trials = np.asarray(trials)
    _, x = batch.encode_batch(spec, batch.sample_messages(spec, seed, trials))
    return spec, batch.channel_planes(
        x, batch.sample_erasures(spec, p, seed, trials))


@pytest.mark.parametrize("engine,i_max,sbj", [
    ("scc", 1, False),
    ("bp_scc", 1, False),
    ("bp_scc", 3, False),
    ("bp_scc", 3, True),
])
@pytest.mark.parametrize("N,K,trials", [
    (128, 64, range(6)),
    (256, 128, [0, 1, 5, 10]),
])
def test_search_matches_scalar_on_longer_codes(N, K, trials, engine, i_max,
                                               sbj):
    # Past N=64 the checks take the BLAS round. Each batch has rows that
    # fail both hypotheses at some bit: without sbj they fail with an empty
    # stack, with sbj they backjump.
    spec, yp = _nr_batch(N, K, 0.35, 0, trials)
    out = batch.decode_fc_batch(spec, yp, engine=engine, i_max=i_max, sbj=sbj)
    assert out.backjumps.any() if sbj else not out.success.all()
    _assert_rows_match_scalar(spec, yp, out, trials, engine=engine,
                              i_max=i_max, sbj=sbj)


@pytest.mark.parametrize("sbj", [False, True])
@pytest.mark.parametrize("N,K,p,T", [(64, 32, 0.3, 32), (256, 128, 0.35, 16)])
def test_outcomes_do_not_depend_on_batch_makeup(N, K, p, T, sbj):
    # The same rows as one batch, in reverse order and as two halves: rows
    # that wait for others, or are decoded alone, take the same path.
    spec, yp = _nr_batch(N, K, p, 0, np.arange(T))

    def decode(order):
        out = batch.decode_fc_batch(spec, tuple(pl[order] for pl in yp),
                                    i_max=3, sbj=sbj)
        back = np.argsort(order)
        return {f: getattr(out, f)[back] for f in (
            "success", "u_hat", "visits", "backjumps", "iters_sum", "checks")}

    rows = np.arange(T)
    whole = decode(rows)
    assert whole["backjumps"].any() if sbj else not whole["success"].all()
    halves = [decode(rows[:T // 2]), decode(rows[T // 2:])]
    split = {f: np.concatenate([h[f] for h in halves]) for f in whole}
    for got in (decode(rows[::-1]), split):
        for f, want in whole.items():
            if f == "u_hat":
                ok = whole["success"]
                assert np.array_equal(got[f][ok], want[ok]), (N, f)
            else:
                assert np.array_equal(got[f], want), (N, f)


def _round_maps(spec, ubuf, ell):
    """Both FCCN rounds of every stage with future constraints, as
    check_batch64 takes them: (popcount rounds, BLAS rounds)."""
    popcount, blas = {}, {}
    for t in range(1, spec.n + 1):
        _, Q, offsets = system_structure(spec, ell, t)
        if not offsets.shape[1]:
            continue
        phi = mat_mul(ubuf, offsets).astype(bool)
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
        yv, ye = (bitboard.pack_rows(plane) for plane in yp)
        moved = has_rounds = False
        for i in spec.A[::3] if spec.N >= 128 else spec.A:
            ell = processing_index(spec, i)
            for b in (0, 1):
                ubuf = (batch._extend_prefix(spec, u, i, ell)
                    ^ b * spec.T[i, :ell + 1])
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


@pytest.mark.parametrize("N,used,unused", [
    (64, "_fccn_pass64", "_fccn_pass_batch"),
    (128, "_fccn_pass_batch", "_fccn_pass64"),
])
def test_round_is_chosen_by_n(N, used, unused, monkeypatch):
    # The popcount round runs up to N=64 and the BLAS round above, never
    # both; _check_batch looks the round up on each call, so spies see it.
    calls = {"_fccn_pass64": 0, "_fccn_pass_batch": 0}
    for owner, name in ((bitboard, "_fccn_pass64"),
                        (batch, "_fccn_pass_batch")):
        def spy(*args, real=getattr(owner, name), name=name):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(owner, name, spy)
    spec = build_nr_code(N, N // 2)
    trials = np.arange(16)
    _, x = batch.encode_batch(spec, batch.sample_messages(spec, 2, trials))
    yp = batch.channel_planes(x, batch.sample_erasures(spec, 0.3, 2, trials))
    batch.decode_fc_batch(spec, yp, engine="bp_scc")
    assert calls[used] > 0 and calls[unused] == 0


def _full_update_check(spec, yv, ye, ubuf, ell, rounds, i_max):
    """bitboard.check_batch64 on the four-symbol operators, with the full
    update in every sweep: the stage blocks below the channel start
    all-erased and sweep 1 updates them both ways, as later sweeps do;
    conflicts are stored per symbol as (1, 1) (a round's clash words and the
    conflicts it was handed are OR-ed into both words), beta is the product
    with kron_power, every row runs until its leaf is concrete or i_max
    sweeps are done, and the verdict reads the leaf's conflict too. Returns
    (passed, iters) and the rows holding a conflict above the leaf after
    sweep 1."""
    rows, n = ubuf.shape[0], spec.n
    U64 = np.uint64
    state = [None] * (n + 1)
    state[n] = (yv, ye)
    for t in range(n):
        zeros = np.zeros((rows, max(1, (1 << t) >> 6)), dtype=U64)
        state[t] = (zeros, np.full_like(zeros, bitboard.mask(1 << t)))
    betas = {}
    for t in range(n):
        if (ell >> t) & 1:
            lo = (ell >> (t + 1)) << (t + 1)
            betas[t] = bitboard.pack_rows(mat_mul(
                ubuf[:, lo:lo + (1 << t)], kron_power(t)))
    prescribed = ubuf[:, ell].astype(U64)
    r = np.full(rows, -1, dtype=np.int8)
    iters = np.zeros(rows, dtype=np.int64)
    fail = np.zeros(rows, dtype=bool)
    for it in range(1, i_max + 1):
        for t in range(n - 1, -1, -1):
            if t + 1 in rounds:
                held = state[t + 1][0] & state[t + 1][1]
                (v, e), clash = rounds[t + 1](state[t + 1])
                state[t + 1] = (v | held | clash, e | held | clash)
            a, c = bitboard.split(state[t + 1], t)
            old = state[t]
            if (ell >> t) & 1 == 0:
                child = planes.dot(old, planes.plus(a, c))
                na = planes.dot(a, planes.plus(old, c))
                nc = planes.dot(c, planes.plus(old, a))
            else:
                bt = betas[t]
                child = planes.dot(old, planes.dot(planes.plus_bits(a, bt), c))
                na = planes.dot(planes.plus_bits(old, bt), a)
                nc = planes.dot(old, c)
            state[t] = child
            state[t + 1] = bitboard.join(na, nc, t)
        conflicts = [v & e for v, e in state]
        fail |= np.hstack(conflicts).any(axis=1)
        if it == 1:
            early = np.hstack(conflicts[1:]).any(axis=1)
        lv, le = (q[:, 0] & U64(1) for q in state[0])
        open_rows = r == -1
        hit = open_rows & fail
        concrete = open_rows & ~hit & (le == 0)
        good = concrete & (lv == prescribed)
        r[hit | (concrete & ~good)] = 0
        r[good] = 1
        iters[hit | concrete] = it
        if not (r == -1).any():
            break
    iters[r == -1] = i_max
    return r != 0, iters, early


@pytest.mark.parametrize("N,K,p,step", [(16, 5, 0.4, 1), (64, 32, 0.3, 1),
                                        (256, 128, 0.3, 5)])
def test_sweep_one_descent_matches_full_update(N, K, p, step):
    # Sweep 1 of check_batch64 is the SC descent alone: it skips the upward
    # update, exact because the blocks start all-erased and a row with a
    # conflict fails in that sweep. True prefixes with b = 0 and 1 at every
    # step-th information bit make some hypotheses wrong, so some rows
    # clash above the leaf, where the skipped update would have acted.
    spec = build_nr_code(N, K)
    trials = np.arange(48)
    u, x = batch.encode_batch(spec, batch.sample_messages(spec, 4, trials))
    yp = batch.channel_planes(x, batch.sample_erasures(spec, p, 4, trials))
    yv, ye = (bitboard.pack_rows(plane) for plane in yp)
    early = 0
    for i in spec.A[::step]:
        ell = processing_index(spec, i)
        for b in (0, 1):
            ubuf = (batch._extend_prefix(spec, u, i, ell)
                    ^ b * spec.T[i, :ell + 1])
            for rounds in (*_round_maps(spec, ubuf, ell), {}):
                for i_max in (1, 2, 3):
                    *want, clash = _full_update_check(spec, yv, ye, ubuf, ell,
                                                      rounds, i_max)
                    got = bitboard.check_batch64(spec, yv, ye, ubuf, ell,
                                                 rounds, i_max)
                    for w, g in zip(want, got):
                        assert np.array_equal(w, g), (N, i, b, i_max)
                    early += int(clash.sum())
    assert early


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_pair_check_matches_three_plane_reference_on_random_codes(
        random_code, n):
    # Random A/P/F splits: the word-pair check, its clash flag, the fixed
    # point stop and the butterfly beta against the reference on the
    # four-symbol operators (the test's name is from when that reference
    # kept a third, conflict plane), with both rounds and none, on true
    # prefixes with b = 0 and 1; the rounds must move some verdict.
    rng = np.random.default_rng(10 + n)
    trials = np.arange(24)
    moved = False
    for _ in range(3):
        spec = random_code(rng, n)
        u, x = batch.encode_batch(spec, batch.sample_messages(spec, 5, trials))
        yp = batch.channel_planes(x, batch.sample_erasures(spec, 0.35, 5,
                                                           trials))
        yv, ye = (bitboard.pack_rows(plane) for plane in yp)
        for i in spec.A[::max(1, len(spec.A) // 8)]:
            ell = processing_index(spec, i)
            for b in (0, 1):
                ubuf = (batch._extend_prefix(spec, u, i, ell)
                    ^ b * spec.T[i, :ell + 1])
                verdicts = []
                for rounds in (*_round_maps(spec, ubuf, ell), {}):
                    for i_max in (1, 2, 3):
                        want = _full_update_check(spec, yv, ye, ubuf, ell,
                                                  rounds, i_max)[:2]
                        got = bitboard.check_batch64(spec, yv, ye, ubuf, ell,
                                                     rounds, i_max)
                        for w, g in zip(want, got):
                            assert np.array_equal(w, g), (n, i, b, i_max)
                    verdicts.append(got[0])
                moved |= not np.array_equal(verdicts[0], verdicts[2])
    assert moved


def _reference_check(*args):
    """The four-symbol reference in check_batch64's place: no fixed-point
    stop, so every open row sweeps up to i_max."""
    return _full_update_check(*args)[:2]


@pytest.mark.parametrize("n,i_max,seed", [(6, 30, 1), (6, 300, 1),
                                          (7, 30, 2)])
def test_fixed_point_stop_keeps_simulate_bytes(tmp_path, monkeypatch, n,
                                               i_max, seed):
    # A row whose sweep leaves its erased count unchanged stops there and
    # passes with iters = i_max: the CSV and sidecar bytes are those of the
    # reference check, which sweeps every open row to i_max.
    from fcpolar import cli
    argv = ["simulate", "--n", str(n), "--k", str(1 << (n - 1)),
            "--decoder", "bpscc", "--imax", str(i_max), "--p-grid", "0.35",
            "--trials", "16", "--seed", str(seed), "--out", "s.csv"]
    files = {}
    for name in ("stop", "reference"):
        if name == "reference":
            monkeypatch.setattr(bitboard, "check_batch64", _reference_check)
        (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / name)
        assert cli.main(argv) == 0
        files[name] = [(tmp_path / name / f).read_bytes()
                       for f in ("s.csv", "s.csv.json")]
    assert files["stop"] == files["reference"]


def test_sweeps_stop_at_a_fixed_point(monkeypatch):
    # Every sweep splits each of the n stage blocks once, so a spy on split
    # counts sweeps. Every open row reaches its fixed point within a few
    # sweeps, so the count does not grow with i_max, even at 100000, while
    # the rows that pass still erased report i_max iterations.
    calls = []
    real = bitboard.split

    def spy(p, t):
        calls.append(t)
        return real(p, t)

    monkeypatch.setattr(bitboard, "split", spy)
    spec, yp = _nr_batch(64, 32, 0.35, 1, np.arange(16))
    sweeps, iters = {}, {}
    for i_max in (3, 30, 300, 100_000):
        calls.clear()
        out = batch.decode_fc_batch(spec, yp, i_max=i_max)
        sweeps[i_max] = len(calls) // spec.n
        iters[i_max] = out.iters_sum.sum()
    assert sweeps[3] < sweeps[30] == sweeps[300] == sweeps[100_000]
    assert iters[30] < iters[300] < iters[100_000]


def test_speculative_hypothesis_is_not_counted(nr64, monkeypatch):
    # All-zero codewords: H_{k,0} is true, so it passes on every row at every
    # bit. Each search step still checks H_{k,1} in the same call (twice the
    # rows), but checks and iters_sum count the one check the scalar search
    # runs per bit: H_{k,0}, whose iterations a direct check gives.
    spec, T = nr64, 32
    erased = batch.sample_erasures(spec, 0.3, 0, np.arange(T))
    yp = batch.channel_planes(np.zeros((T, spec.N), dtype=np.uint8), erased)
    yv, ye = (bitboard.pack_rows(plane) for plane in yp)
    rows = []
    real = batch._check_batch

    def spy(spec, yv, ye, ubuf, *args):
        rows.append(ubuf.shape[0])
        return real(spec, yv, ye, ubuf, *args)

    monkeypatch.setattr(batch, "_check_batch", spy)
    out = batch.decode_fc_batch(spec, yp, i_max=3, sbj=True)
    K = len(spec.A)
    assert out.success.all() and not out.u_hat.any()
    assert not out.backjumps.any()
    assert sum(rows) == 2 * T * K
    assert (out.checks == K).all()
    assert (out.visits == spec.N).all()
    want = sum(real(spec, yv, ye, np.zeros((T, ell + 1), dtype=np.uint8),
                    ell, True, 3)[1]
               for ell in (processing_index(spec, i) for i in spec.A))
    assert np.array_equal(out.iters_sum, want)
    assert want.sum() > T * K


@pytest.mark.parametrize("N,K,p,T,seed", [
    (64, 32, 0.25, 24, 1),
    (64, 32, 0.35, 16, 3),
    (128, 64, 0.32, 10, 0),
    (256, 128, 0.35, 3, 0),
])
def test_sbj_engines_match_scalar_on_nr_codes(N, K, p, T, seed):
    # Each case has rows that fail both hypotheses at some bit, so the
    # batched stack search backjumps, at N=64 and past it alike. In the
    # p=0.35 case, 65 of the 371 backjump steps pop more than one distinct
    # checkpoint, so one backjump XORs different rows of T into its rows.
    spec = build_nr_code(N, K)
    trials = np.arange(T)
    _, x = batch.encode_batch(spec, batch.sample_messages(spec, seed, trials))
    yp = batch.channel_planes(x, batch.sample_erasures(spec, p, seed, trials))
    out = batch.decode_fc_batch(spec, yp, sbj=True, seed=seed, trials=trials)
    assert out.backjumps.any()
    _assert_rows_match_scalar(spec, yp, out, trials, engine="bp_scc", sbj=True)


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
    assert len(yp) == 2 and not (yp[0] & yp[1]).any()  # no conflict
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
