"""Both loop-free FCCN rounds against the per-member merge, on word pairs."""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fcpolar import batch, bitboard, planes


def loop_fccn_pass(state, Q, phi):
    """Reference round: every member merges its checks' messages one by one.

    Messages come from a snapshot taken at round start; merges land on the
    live state in check order. A conflict is read as V & E; messages from a
    row that holds one at round start mean nothing.
    """
    V, E = state
    sv, se = V.copy(), E.copy()
    for j in range(Q.shape[1]):
        idx = list(np.flatnonzero(Q[:, j]))
        if not idx:
            continue
        es = se[:, idx]
        total_e = es.sum(axis=1)
        xor_v = np.logical_xor.reduce(sv[:, idx], axis=1)
        for pos, k in enumerate(idx):
            msg_v = xor_v ^ sv[:, k] ^ phi[:, j]
            msg_e = (total_e - es[:, pos]) > 0
            kv, ke = V[:, k], E[:, k]
            clash = ~msg_e & ~ke & (msg_v ^ kv)
            nh = (kv & ke) | clash
            ne = ke & ~kv & msg_e
            V[:, k] = np.where(ke, msg_v, kv) & ~ne | nh
            E[:, k] = ne | nh


@st.composite
def fccn_rounds(draw):
    """A random check graph, round-start symbols and offsets.

    Q's columns are drawn from a small pool that holds an empty column, so
    empty and duplicate checks are common. Symbols are 0, 1, erasure or
    conflict; the first half of the rows holds no conflict, the rows the
    round must get right. Widths run
    from 2 to 256 symbols, so blocks span one to four words.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    width = 1 << draw(st.integers(1, 8))
    rows = draw(st.integers(1, 12))
    pool = rng.random((width, draw(st.integers(1, 6)))) < draw(
        st.sampled_from([0.1, 0.3, 0.6]))
    pool = np.concatenate([pool, np.zeros((width, 1), dtype=bool)], axis=1)
    Q = pool[:, rng.integers(0, pool.shape[1], size=draw(st.integers(0, 10)))]
    p_erased = draw(st.sampled_from([0.02, 0.1, 0.3, 0.7]))
    sym = np.where(rng.random((rows, width)) < p_erased, 2,
                   rng.integers(0, 2, size=(rows, width)))
    sym[rows // 2:][rng.random((rows - rows // 2, width)) < 0.05] = 3
    phi = rng.random((rows, Q.shape[1])) < 0.5
    return Q.astype(np.uint8), planes.from_symbols(sym), phi


@given(fccn_rounds())
@settings(max_examples=300)
def test_closed_form_round_matches_member_loop(case):
    Q, state, phi = case
    width = Q.shape[0]
    want = tuple(p.copy() for p in state)
    loop_fccn_pass(want, Q, phi)
    words = tuple(bitboard.pack_rows(p) for p in state)
    pair, clash = batch._fccn_pass_batch(words, Q.astype(np.float32), phi)
    v, e, h = (bitboard.unpack_rows(w, width).astype(bool)
               for w in (*pair, clash))
    # On a row without conflicts at round start, the clash words are the
    # conflicts the round raises, and the pair holds every other symbol.
    clean = ~(state[0] & state[1]).any(axis=1)
    assert np.array_equal(h[clean], (want[0] & want[1])[clean])
    keep = clean[:, None] & ~h
    for w, g in zip(want, (v, e)):
        assert np.array_equal(w[keep], g[keep])

    popcount = bitboard._fccn_pass64(words, bitboard.pack_rows(Q.T), phi)
    # every row, unused high bits included
    for b, p in zip((*pair, clash), (*popcount[0], popcount[1])):
        assert np.array_equal(b, p)
    for w, p in zip(words, state):  # the rounds leave their input alone
        assert np.array_equal(w, bitboard.pack_rows(p))
