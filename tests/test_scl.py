"""List decoding: fork on erasure, die on conflict, random pruning at L."""
import numpy as np
import pytest

from fcpolar import batch, bitboard, planes, scl
from fcpolar.bitboard import pack_rows, refresh, update_partial_sums
from fcpolar.codes import build_nr_code, encode, input_word
from fcpolar.gf2 import gf2_rank, kron_power, mat_mul
from fcpolar.rng import STREAM_PRUNE, keyed_array, keyed_uniform_array
from fcpolar.scl import decode_scl
from fcpolar.search import decode_sc
from fcpolar.symbols import ERASURE

_ONE = np.uint64(1)


def reference_scl(spec, y, L, seed, trial):
    """One trial's list decode, the list held as rows of one batch.

    The oracle of the batched decoder: candidates in the order single
    paths, 0-forks, 1-forks; an overflowing list keeps the L smallest
    keyed priorities. Returns (success, u_hat or None, visited, whether
    the list ever overflowed).
    """
    n = spec.n
    alpha = [None] * (n + 1)
    alpha[n] = tuple(pack_rows(p)
                     for p in planes.from_symbols(np.asarray(y)[None, :]))
    u = np.zeros((1, spec.N), dtype=np.uint8)
    ps = {}
    a_set = set(spec.A)
    visited = 0
    overflowed = False

    for i in range(spec.N):
        refresh(alpha, ps, i, 0, n)
        val, e = ((p[:, 0] & _ONE).astype(bool) for p in alpha[0])
        conflict = val & e
        erased = e & ~val

        if i in a_set:
            fork = erased & ~conflict
            single = ~erased & ~conflict
            keep_idx = np.concatenate([np.flatnonzero(single),
                                       np.flatnonzero(fork), np.flatnonzero(fork)])
            new_vals = np.concatenate([
                val[single].astype(np.uint8),
                np.zeros(fork.sum(), dtype=np.uint8),
                np.ones(fork.sum(), dtype=np.uint8)])
        else:
            col = spec.T[:i, i]
            if i and col.any():
                forced = ((u[:, :i].astype(np.int64) @ col.astype(np.int64)) & 1
                          ).astype(np.uint8)
            else:
                forced = np.zeros(u.shape[0], dtype=np.uint8)
            dead = conflict | (~erased & (val != forced.astype(bool)))
            keep_idx = np.flatnonzero(~dead)
            new_vals = forced[keep_idx]

        if keep_idx.size == 0:
            return False, None, visited, overflowed
        if keep_idx.size > L:
            overflowed = True
            rows = keep_idx.size
            priority = keyed_uniform_array(
                seed, np.full(rows, STREAM_PRUNE), np.full(rows, trial),
                np.full(rows, i), np.arange(rows))
            keep = np.sort(np.argsort(priority, kind="stable")[:L])
            keep_idx = keep_idx[keep]
            new_vals = new_vals[keep]
        u = u[keep_idx]
        u[:, i] = new_vals
        for t in range(n + 1):
            p = alpha[t]
            alpha[t] = (p[0][keep_idx], p[1][keep_idx])
        for t in list(ps):
            ps[t] = ps[t][keep_idx]
        update_partial_sums(ps, i, pack_rows(new_vals[:, None]), 0)
        visited += u.shape[0]

    ok = (u.astype(np.int64) @ spec.H_prime.astype(np.int64) % 2 == 0).all(axis=1)
    survivors = np.flatnonzero(ok)
    if survivors.size == 0:
        return False, None, visited, overflowed
    pick = survivors[int(keyed_array(seed, STREAM_PRUNE, trial, spec.N, 0)
                         % np.uint64(survivors.size))]
    return True, u[pick].copy(), visited, overflowed


def decode_symbols(spec, y, L, seed=0, trials=None):
    """decode_scl on a (rows, N) or (N,) symbol array; the trial ids number
    the rows from 0 unless given."""
    y = np.atleast_2d(y)
    trials = np.arange(len(y)) if trials is None else np.atleast_1d(trials)
    return decode_scl(spec, planes.from_symbols(y), L, seed, trials)


_CODES = {
    "ex1": None,
    "nr16": None,
    "nr128": (128, 64),
    "nr256": (256, 128),
    # a step of 128 leaves, and a K = 1 code that is one step
    "nr256k8": (256, 8, "none"),
    "nr128k1": (128, 1, "none"),
    # information blocks at leaf 0 (the whole code) and at leaf N/2, the
    # steps that read the channel block
    "nr16k16": (16, 16, "none"),
    "nr16k12": (16, 12, "none"),
    "nr64k58": (64, 58, "none"),
}


@pytest.fixture(scope="module")
def codes(ex1, nr16):
    built = {name: build_nr_code(*size) for name, size in _CODES.items()
             if size}
    return {**built, "ex1": ex1, "nr16": nr16}


def _mixed_batch(spec, seed, light, heavy):
    """Channel outputs whose trials overflow the list, never fork, or die.

    Five row kinds, five rows each, shuffled: erased at the light rate; at
    the heavy rate; not erased; not erased with the last position flipped,
    which flips every input bit, so the list dies at bit 0; erased at the
    light rate with the last position flipped. Trial ids are distinct and
    not in row order.
    """
    rng = np.random.default_rng(seed)
    kind = rng.permutation(np.arange(25) % 5)
    ids = rng.permutation(1000)[:25]
    _, x = batch.encode_batch(spec, batch.sample_messages(spec, seed, ids))
    rate = np.array([light, heavy, 0.0, 0.0, light])[kind]
    erased = rng.random(x.shape) < rate[:, None]
    flip = kind >= 3
    erased[flip, -1] = False
    x[flip, -1] ^= 1
    return planes.to_symbols(batch.channel_planes(x, erased)), ids


@pytest.mark.parametrize("name,light,heavy", [
    ("ex1", 0.5, 0.75), ("nr16", 0.5, 0.75), ("nr128", 0.3, 0.4),
    ("nr256", 0.3, 0.4), ("nr256k8", 0.6, 0.99), ("nr128k1", 0.5, 0.995),
    # rates at which some information blocks are clean on every row and
    # taken whole, and others are split
    ("nr16k16", 0.05, 0.3), ("nr16k12", 0.05, 0.4), ("nr64k58", 0.02, 0.2)])
@pytest.mark.parametrize("L", [1, 2, 8, "2^K"])
def test_batch_matches_per_trial_reference(codes, name, light, heavy, L):
    spec = codes[name]
    L = 2 ** spec.K if L == "2^K" else L
    y, ids = _mixed_batch(spec, spec.N + len(str(L)), light, heavy)
    out = decode_symbols(spec, y, L, seed=11, trials=ids)
    visited, overflowed = [], []
    for r in range(len(ids)):
        ok, u_hat, v, over = reference_scl(spec, y[r], L, seed=11,
                                           trial=int(ids[r]))
        visited.append(v)
        overflowed.append(over)
        assert out.success[r] == ok
        assert out.visits[r] == v
        expect = u_hat if ok else np.zeros(spec.N, dtype=np.uint8)
        assert np.array_equal(out.u_hat[r], expect)
    # the batch mixes trials that never fork, die early (unless no bit is
    # frozen), and overflow
    assert spec.N in visited
    assert (0 in visited) == (spec.K < spec.N)
    assert any(overflowed) == (L < 2 ** spec.K)


def _message_to_codeword_map(spec):
    embed = np.eye(spec.N, dtype=np.uint8)[list(spec.A)]
    return mat_mul(embed, mat_mul(spec.T, kron_power(spec.n)))


def _received(spec, rng, p, count):
    """count (message, erasure mask, y) draws, one trial at a time."""
    msgs, ers, ys = [], [], []
    for _ in range(count):
        msg = rng.integers(0, 2, size=spec.K).astype(np.uint8)
        x = encode(spec, msg)
        er = rng.random(spec.N) < p
        msgs.append(msg)
        ers.append(er)
        ys.append(np.where(er, ERASURE, x).astype(np.uint8))
    return msgs, ers, np.array(ys)


def test_noiseless_exact_single_path(ex1, all_ex1_messages):
    y = np.array([encode(ex1, msg) for msg in all_ex1_messages])
    out = decode_symbols(ex1, y, L=8)
    assert out.success.all()
    for msg, u_hat in zip(all_ex1_messages, out.u_hat):
        assert np.array_equal(u_hat, input_word(ex1, msg))
    # the list never forks without erasures: one path, N steps
    assert (out.visits == ex1.N).all()


def test_success_is_valid_input_word(nr16):
    _, _, y = _received(nr16, np.random.default_rng(1), 0.5, 100)
    out = decode_symbols(nr16, y, L=4, seed=2)
    assert out.success.any()
    assert not mat_mul(out.u_hat[out.success], nr16.H_prime).any()


def test_unpruned_list_is_maximum_likelihood(nr16):
    # with L = 2^K the list can hold every fork, so the survivors are
    # exactly the words consistent with y and the uniform pick succeeds
    # with probability 2^-d, d the rank deficiency of the message map
    # restricted to unerased positions
    M = _message_to_codeword_map(nr16)
    msgs, ers, y = _received(nr16, np.random.default_rng(3), 0.45, 400)
    out = decode_symbols(nr16, y, L=64, seed=5)
    hits, mean, var = 0, 0.0, 0.0
    for t, (msg, er) in enumerate(zip(msgs, ers)):
        ok = out.success[t] and np.array_equal(out.u_hat[t],
                                               input_word(nr16, msg))
        d = nr16.K - gf2_rank(M[:, ~er])
        q = 2.0 ** (-d)
        hits += ok
        mean += q
        var += q * (1 - q)
    assert abs(hits - mean) < 4 * max(var ** 0.5, 1e-9)


def test_pruning_only_hurts(nr16):
    msgs, _, y = _received(nr16, np.random.default_rng(4), 0.45, 300)
    u = np.array([input_word(nr16, msg) for msg in msgs])
    wins = {}
    for L in (2, 64):
        out = decode_symbols(nr16, y, L=L, seed=6)
        wins[L] = int((out.success & (out.u_hat == u).all(axis=1)).sum())
    assert wins[64] >= wins[2]


def test_visits_sum_list_sizes(nr16):
    _, _, y = _received(nr16, np.random.default_rng(7), 0.5, 50)
    out = decode_symbols(nr16, y, L=4, seed=8)
    visited = out.visits
    assert ((nr16.N <= visited) & (visited <= nr16.N * 4)).all()


def test_deterministic_per_trial(nr16):
    msg = np.ones(nr16.K, dtype=np.uint8)
    x = encode(nr16, msg)
    y = np.where(np.arange(16) % 2 == 0, ERASURE, x).astype(np.uint8)
    a = decode_symbols(nr16, y, L=4, seed=9, trials=3)
    b = decode_symbols(nr16, np.stack([x, y, y]), L=4, seed=9,
                       trials=np.array([7, 3, 5]))
    assert a.success[0] == b.success[1]
    assert a.visits[0] == b.visits[1]
    assert np.array_equal(a.u_hat[0], b.u_hat[1])


def test_all_paths_dead_is_failure(ex1):
    # a received word outside the code with no erasures kills the only path
    msg = np.zeros(3, dtype=np.uint8)
    y = encode(ex1, msg)
    y[7] ^= 1  # not a codeword any more
    out = decode_symbols(ex1, y, L=8)
    assert not out.success[0]
    assert not out.u_hat.any()


def test_bad_list_size_rejected(ex1):
    with pytest.raises(ValueError):
        decode_symbols(ex1, np.zeros(8, dtype=np.uint8), L=0)
    with pytest.raises(ValueError):
        decode_symbols(ex1, np.zeros(4, dtype=np.uint8), L=2)
    with pytest.raises(ValueError):
        decode_symbols(ex1, np.zeros((3, 8), dtype=np.uint8), L=2,
                       trials=[0, 1])


def test_decode_scl_takes_channel_planes_and_one_trial_id_per_row(ex1):
    ids = np.array([4, 9, 2])
    u, x = batch.encode_batch(ex1, batch.sample_messages(ex1, 3, ids))
    yp = batch.channel_planes(x, np.zeros(x.shape, dtype=bool))
    out = decode_scl(ex1, yp, 8, 3, ids)
    assert out.success.all() and np.array_equal(out.u_hat, u)
    yv, ye = yp
    with pytest.raises(ValueError, match="two"):
        decode_scl(ex1, (yv, ye[:2]), 8, 3, ids)
    with pytest.raises(ValueError, match="two"):
        decode_scl(ex1, (yv[0], ye[0]), 8, 3, ids[:1])
    with pytest.raises(ValueError, match="two"):
        decode_scl(ex1, (yv[:, :4], ye[:, :4]), 8, 3, ids)
    with pytest.raises(ValueError, match="one trial id per row"):
        decode_scl(ex1, yp, 8, 3, ids[:2])


@pytest.mark.parametrize("name", ["ex1", "nr128", "nr256"])
def test_a_batch_whose_lists_all_die_fails_with_no_visits(codes, name):
    # every row flips its last position, unerased, so every input bit
    # flips and each list dies at bit 0; the rest runs on no rows
    spec = codes[name]
    ids = np.arange(5)
    _, x = batch.encode_batch(spec, batch.sample_messages(spec, 1, ids))
    x[:, -1] ^= 1
    yp = batch.channel_planes(x, np.zeros(x.shape, dtype=bool))
    out = decode_scl(spec, yp, 8, 1, ids)
    assert not out.success.any()
    assert not out.visits.any()
    assert not out.u_hat.any()


def test_clean_information_blocks_are_taken_whole(monkeypatch):
    # An information block is decided in one step where no row's stage
    # symbols are erased or in conflict, and is split into halves, down to
    # single leaves, where one is. NR(64, 58) ends in the information block
    # [32, 64). Erasing x_5 and x_37 erases stage-5 symbol 5 there, so SC
    # and SCL split the block, fork at an erased leaf and take the clean
    # halves after it whole; both ways give the leaf-by-leaf words and
    # visits.
    spec = build_nr_code(64, 58, crc="none")
    walked = []
    real = bitboard.walk

    def spy(spec, alpha, ps, *channel):
        for i0, t, bits in real(spec, alpha, ps, *channel):
            walked.append((i0, t, bool(alpha[t][1].any())))
            yield i0, t, bits

    monkeypatch.setattr(scl, "walk", spy)
    monkeypatch.setattr(bitboard, "walk", spy)
    _, x = batch.encode_batch(spec, batch.sample_messages(spec, 3, [0, 1]))
    erased = np.zeros(x.shape, dtype=bool)
    erased[1, [5, 37]] = True
    y = planes.to_symbols(batch.channel_planes(x, erased))
    for r in range(2):
        for decode in ("scl", "sc"):
            walked.clear()
            if decode == "scl":
                out = decode_symbols(spec, y[r], 8, seed=5, trials=[r])
                ok, u_hat, visits, _ = reference_scl(spec, y[r], 8, 5, r)
                assert out.success[0] and ok and out.visits[0] == visits
            else:
                out = batch.decode_sc_batch(
                    spec, planes.from_symbols(y[r:r + 1]), 5, np.array([r]))
                u_hat = decode_sc(spec, y[r], seed=5, trial=r).u_hat
            assert np.array_equal(out.u_hat[0], u_hat), (decode, r)
            whole = [(i0, t) for i0, t, dirty in walked
                     if t and spec.info_mask[i0] and not dirty]
            # every information block of t > 0 that is yielded is clean
            assert len(whole) == sum(t > 0 and spec.info_mask[i0]
                                     for i0, t, _ in walked)
            if r == 0:
                assert [(i0, t) for i0, t, _ in walked] == list(
                    bitboard.steps(spec))
            else:
                assert (32, 5) not in whole
                assert any(i0 > 32 and t for i0, t in whole), walked
    # the list forked at the erased leaf, so a whole block after it counts
    # 2 visits per leaf
    assert visits > spec.N
