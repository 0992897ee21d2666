"""A decoder's success means a valid input word.

Every row a decoder reports as a success carries a word u with u H' = 0,
so the parity (dynamic frozen) bits agree with its information bits; every
decoder but plain SC, which flips a coin for an erased information bit,
also agrees with every unerased channel bit. The channels are the BEC and
the BEC with some unerased bits flipped, where no word may agree with all
of them and a decoder that skips a test would show.
"""
import numpy as np
import pytest

from fcpolar import batch, scl
from fcpolar.codes import build_nr_code
from fcpolar.gf2 import mat_mul

_FC = [(engine, sbj, i_max) for engine in ("scc", "bp_scc")
       for sbj in (False, True) for i_max in (1, 3)]
_DECODERS = {
    "sc": lambda spec, yp, ids: batch.decode_sc_batch(spec, yp, 1, ids),
    **{f"scl-L{L}": (lambda spec, yp, ids, L=L:
                     scl.decode_scl(spec, yp, L, 1, ids)) for L in (1, 4)},
    **{f"{engine}-sbj{int(sbj)}-imax{i_max}": (
        lambda spec, yp, ids, e=engine, s=sbj, i=i_max:
        batch.decode_fc_batch(spec, yp, engine=e, i_max=i, sbj=s))
       for engine, sbj, i_max in _FC},
}


def _channel(spec, p, flip, seed, trials):
    """Keyed BEC output planes of trials codewords, each unerased bit then
    flipped with probability flip; returns (planes, trial ids, whether a
    row has a flipped bit)."""
    ids = np.arange(trials)
    _, x = batch.encode_batch(spec, batch.sample_messages(spec, seed, ids))
    erased = batch.sample_erasures(spec, p, seed, ids)
    flips = (np.random.default_rng(seed).random(x.shape) < flip) & ~erased
    return (batch.channel_planes(x ^ flips, erased), ids,
            flips.any(axis=1))


def _check_successes(spec, yp, out, agree):
    """Check the rows out reports as successes."""
    ok = np.flatnonzero(out.success)
    u = out.u_hat[ok]
    assert not mat_mul(u, spec.H_prime).any(), "u H' != 0"
    if agree:
        x = mat_mul(u, spec.generator).astype(bool)
        yv, ye = yp
        assert not ((x != yv[ok]) & ~ye[ok]).any(), "disagrees with y"


@pytest.mark.parametrize("name", list(_DECODERS))
def test_success_is_a_valid_word_on_random_codes(random_code, name):
    # N <= 16 throughout: on a channel no word agrees with, SBJ searches
    # the whole tree before it gives up.
    decode = _DECODERS[name]
    rng = np.random.default_rng(23)
    flipped_wins = 0
    for c in range(200):
        spec = random_code(rng, n=int(rng.integers(1, 5)))
        for flip in (0.0, 0.1):
            yp, ids, flipped = _channel(spec, 0.5, flip, c, 8)
            out = decode(spec, yp, ids)
            _check_successes(spec, yp, out, agree=name != "sc")
            flipped_wins += np.count_nonzero(out.success & flipped)
    assert flipped_wins


@pytest.mark.parametrize("N, p", [(64, 0.55), (256, 0.6)])
def test_scl_success_is_a_valid_word_with_flipped_bits(N, p):
    # Near capacity some rows with flipped bits still decode: the list
    # finds a word that agrees with every unerased bit, flipped or not.
    # A final parity test would act on such rows if a path could survive
    # with u H' != 0.
    spec = build_nr_code(N, N // 2)
    yp, ids, flipped = _channel(spec, p, 0.05, 7, 1000)
    out = scl.decode_scl(spec, yp, 8, 1, ids)
    _check_successes(spec, yp, out, agree=True)
    assert (out.success & flipped).any()
