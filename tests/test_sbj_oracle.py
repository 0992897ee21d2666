"""SBJ's word against its closed form, the least consistent message.

With no budget hit, the stack search of decode_fc_batch(..., sbj=True)
tries 0 before 1 at every information bit and only backtracks past a bit
when no consistent completion exists, so the first word it accepts is the
least message, in the order of the information bits (bit 0 most
significant), that agrees with the unerased channel bits. A stronger check
(the engine, i_max) changes its visits, never its word.
"""
import numpy as np

from fcpolar import batch
from fcpolar.codes import build_nr_code
from fcpolar.gf2 import mat_mul


def least_consistent_message(spec, x, erased):
    """The least message m, bit 0 most significant, with m M = x on the
    unerased columns, M the rows A of T G; returns (m, nullity).

    Elimination on python ints: bit k of an equation is message bit k and
    bit K its right side. Each equation's pivot is its latest message bit,
    so a message bit is fixed by the earlier ones exactly when it is a
    pivot. Every other bit is 0, and the pivots are read off their rows in
    ascending order.
    """
    K, mask = spec.K, (1 << spec.K) - 1
    M = mat_mul(spec.T, spec.generator)[list(spec.A)]
    pivots: dict[int, int] = {}
    for c in np.flatnonzero(~erased):
        cur = int(x[c]) << K
        for k in np.flatnonzero(M[:, c]):
            cur |= 1 << int(k)
        while cur & mask:
            top = (cur & mask).bit_length() - 1
            if top not in pivots:
                pivots[top] = cur
                break
            cur ^= pivots[top]
        else:
            assert cur == 0, "the true message satisfies every equation"
    word = 0
    for top in sorted(pivots):
        row = pivots[top]
        bit = (row >> K ^ (row & word).bit_count()) & 1
        word |= bit << top
    m = np.array([(word >> k) & 1 for k in range(K)], dtype=np.uint8)
    return m, K - len(pivots)


def _sbj_against_oracle(spec, p, seed, trials, configs):
    """Decode a keyed batch under each (engine, i_max) with SBJ and check
    every row against the oracle; returns the rows' nullities and their
    backjumps, one row per config."""
    trials = np.arange(trials)
    _, x = batch.encode_batch(spec, batch.sample_messages(spec, seed, trials))
    erased = batch.sample_erasures(spec, p, seed, trials)
    yp = batch.channel_planes(x, erased)
    want, nullity = zip(*(least_consistent_message(spec, x[r], erased[r])
                          for r in range(trials.size)))
    backjumps = []
    for engine, i_max in configs:
        out = batch.decode_fc_batch(spec, yp, engine=engine, i_max=i_max,
                                    sbj=True)
        key = (spec.N, spec.A, engine, i_max)
        assert out.success.all(), key
        assert np.array_equal(out.u_hat[:, list(spec.A)], np.array(want)), key
        backjumps.append(out.backjumps)
    return np.array(nullity), np.array(backjumps)


def test_oracle_with_nothing_or_everything_erased(nr16):
    # Nothing erased leaves one consistent message, the true one; everything
    # erased leaves every bit free, so the least message is all zeros.
    m = batch.sample_messages(nr16, 0, np.arange(4))
    _, x = batch.encode_batch(nr16, m)
    for r in range(4):
        got, nullity = least_consistent_message(
            nr16, x[r], np.zeros(nr16.N, dtype=bool))
        assert nullity == 0 and np.array_equal(got, m[r])
    got, nullity = least_consistent_message(
        nr16, x[0], np.ones(nr16.N, dtype=bool))
    assert nullity == nr16.K and not got.any()


def test_sbj_word_is_least_consistent_message_on_nr64():
    # bp_scc only: scc's search takes several times longer at this size.
    # Two of the 16 rows have more than one consistent message.
    nullity, _ = _sbj_against_oracle(build_nr_code(64, 32), 0.40, 1, 16,
                                     [("bp_scc", 1), ("bp_scc", 3)])
    assert (nullity > 0).any()


def test_sbj_word_is_least_consistent_message_on_nr1024():
    # Backjumps over stage blocks of several words, through the float32
    # BLAS round of the FCCN pass; no other oracle case goes past N = 64.
    _, backjumps = _sbj_against_oracle(build_nr_code(1024, 512), 0.42, 1, 8,
                                       [("bp_scc", 1)])
    assert backjumps.any()


def test_sbj_word_is_least_consistent_message_on_random_codes(random_code):
    # Both engines at i_max 1 and 3, on codes from N = 2 to 32; at p = 0.5
    # many rows have more than one consistent message, so the tie rule
    # (the least one) decides the word.
    rng = np.random.default_rng(11)
    configs = [(e, i) for e in ("scc", "bp_scc") for i in (1, 3)]
    tied = 0
    for n in (1, 1, 2, 2, 3, 3, 4, 4, 4, 5, 5, 5):
        spec = random_code(rng, n)
        nullity, _ = _sbj_against_oracle(spec, 0.5, 2, 32, configs)
        tied += (nullity > 0).sum()
    assert tied > 0
