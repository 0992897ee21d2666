"""Density evolution: pushforward tables, polarization recursion, exactness."""
import itertools

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from fcpolar import de
from fcpolar.codes import build_nr_code, encode, input_word
from fcpolar.constraints import system_structure
from fcpolar.de import (channel_pmf, de_fccn_update, de_run, psi_boxdot,
                        psi_boxplus)
from fcpolar.decoders import (bp_scc_check, build_hypothesis, check_lists,
                              make_graph)
from fcpolar.gf2 import kron_power
from fcpolar.symbols import BOX_DOT, BOX_PLUS, CONFLICT, ERASURE

pmf_strategy = st.lists(
    st.floats(min_value=0.0, max_value=1.0), min_size=4, max_size=4
).filter(lambda v: sum(v) > 0).map(lambda v: np.array(v) / sum(v))

_ONE_HOT_PLUS = (np.asarray(BOX_PLUS)[:, :, None] == np.arange(4)).astype(float)
_ONE_HOT_DOT = (np.asarray(BOX_DOT)[:, :, None] == np.arange(4)).astype(float)
_SWAP01 = np.array([1, 0, 2, 3])


def point_mass(symbol):
    return np.eye(4)[symbol]


def fccn_plan(vn_of):
    """The round plan of the checks' member lists vn_of, each ascending."""
    return de._fccn_plan(
        np.array([len(members) for members in vn_of], dtype=np.int64),
        np.array([k for members in vn_of for k in members], dtype=np.int32))


def _einsum_plus(p1, p2):
    return np.einsum("a,b,abs->s", p1, p2, _ONE_HOT_PLUS)


def _einsum_dot(p1, p2, b=0):
    return np.einsum("a,b,abs->s", p1[_SWAP01] if b else p1, p2, _ONE_HOT_DOT)


def _fccn_update_loop(pmfs, vn_of, phi):
    """The per-VN loop the batched round replaces, on einsum pushforwards:
    for each VN k, in ascending check order, fold the point mass at phi_j
    with the other members of j; the first check of largest conflict mass
    wins."""
    checks_of = [[j for j, members in enumerate(vn_of) if k in members]
                 for k in range(len(pmfs))]
    out = pmfs.copy()
    for k, incident in enumerate(checks_of):
        if not incident:
            continue
        best = None
        for j in incident:
            q = point_mass(int(phi[j]))
            for l in vn_of[j]:
                if l != k:
                    q = _einsum_plus(q, pmfs[l])
            if best is None or q[CONFLICT] > best[CONFLICT]:
                best = q
        out[k] = _einsum_dot(pmfs[k], best, 0)
    return out


@st.composite
def fccn_cases(draw):
    """Random check lists over m VNs (empty checks, VNs in several checks),
    PMFs and offsets. The PMFs come from a pool of up to m rows, so equal
    PMFs repeat, also on members next to each other in a check. Copies of
    checks keep their offset or flip it; a flipped copy sends the same
    conflict mass with 0 and 1 swapped, so the tie rule decides."""
    m = draw(st.integers(1, 9))
    vn_of = [sorted(draw(st.sets(st.integers(0, m - 1))))
             for _ in range(draw(st.integers(0, 6)))]
    phi = [draw(st.integers(0, 1)) for _ in vn_of]
    for _ in range(draw(st.integers(0, 3)) if vn_of else 0):
        j = draw(st.integers(0, len(vn_of) - 1))
        at = draw(st.integers(0, len(vn_of)))
        vn_of.insert(at, vn_of[j])
        phi.insert(at, phi[j] ^ draw(st.integers(0, 1)))
    pool = [draw(pmf_strategy)]
    for _ in range(draw(st.integers(0, m - 1))):
        # a new row, or an earlier one's values in another order: rows that
        # agree on some symbols only
        pool.append(draw(pmf_strategy) if draw(st.booleans()) else
                    pool[draw(st.integers(0, len(pool) - 1))][
                        draw(st.permutations(range(4)))])
    pmfs = np.array(pool)[[draw(st.integers(0, len(pool) - 1))
                           for _ in range(m)]]
    if draw(st.booleans()):
        # no conflict mass anywhere: every message ties at zero
        pmfs[:, CONFLICT] = 0.0
    return pmfs, tuple(map(tuple, vn_of)), np.array(phi, dtype=np.int64)


@given(fccn_cases())
@example((np.array([[0.5, 0.1, 0.3, 0.1], [0.2, 0.3, 0.4, 0.1]] * 2),
          ((0, 1), (2, 3)), np.array([0, 1])))
def test_batched_fccn_round_matches_loop(case):
    # equal PMFs share one fold; in the example two checks over equal PMFs
    # differ only in their offsets
    pmfs, vn_of, phi = case
    batched = pmfs.copy()
    de_fccn_update(batched, fccn_plan(vn_of), phi)
    assert np.array_equal(batched, _fccn_update_loop(pmfs, vn_of, phi))


def test_round_folds_each_distinct_message_once(monkeypatch):
    # a bpscc1 point of NR(256, 128) folds under a tenth of the rows that
    # folding every (check, member) pair on its own takes: deg - 1 per pair
    spec = build_nr_code(256, 128)
    all_pairs = 0
    for i in spec.A:
        for t in range(1, spec.n + 1):
            deg = np.count_nonzero(system_structure(spec, spec.ell[i], t)[1],
                                   axis=0)
            all_pairs += int((deg * (deg - 1)).sum())
    folded, in_round = [], []
    plus, update = de.psi_boxplus, de.de_fccn_update

    def counted_plus(p1, p2):
        if in_round:
            folded.append(len(p1))
        return plus(p1, p2)

    def counted_update(pmfs, plan, phi):
        in_round.append(True)
        update(pmfs, plan, phi)
        in_round.pop()

    monkeypatch.setattr(de, "psi_boxplus", counted_plus)
    monkeypatch.setattr(de, "de_fccn_update", counted_update)
    de_run(spec, "bpscc1", 0.4)
    assert folded and 10 * sum(folded) < all_pairs


def test_fccn_tie_goes_to_smallest_check():
    # checks 0 and 1 have the same members and opposite offsets: their
    # messages to VN 0 tie in conflict mass but differ, and check 0 wins
    pmfs = np.array([[0.5, 0.1, 0.3, 0.1], [0.2, 0.3, 0.4, 0.1]])
    for phi in ([0, 1], [1, 0]):
        batched = pmfs.copy()
        de_fccn_update(batched, fccn_plan(((0, 1), (0, 1))), np.array(phi))
        wins = _einsum_dot(pmfs[0], _einsum_plus(point_mass(phi[0]), pmfs[1]))
        loses = _einsum_dot(pmfs[0], _einsum_plus(point_mass(phi[1]), pmfs[1]))
        assert np.array_equal(batched[0], wins)
        assert not np.array_equal(batched[0], loses)


@given(st.lists(st.tuples(pmf_strategy, pmf_strategy, st.integers(0, 1)),
                min_size=1, max_size=8))
def test_psi_rows_match_einsum_row_by_row(rows):
    # the batched pushforwards keep the einsum's summation order exactly,
    # with a per-row bit b for psi_boxdot
    p1, p2, b = (np.array(col) for col in zip(*rows))
    plus, dot = psi_boxplus(p1, p2), psi_boxdot(p1, p2, b)
    for r in range(len(rows)):
        assert np.array_equal(plus[r], _einsum_plus(p1[r], p2[r]))
        assert np.array_equal(dot[r], _einsum_dot(p1[r], p2[r], b[r]))
        assert np.array_equal(plus[r], psi_boxplus(p1[r], p2[r]))
        assert np.array_equal(dot[r], psi_boxdot(p1[r], p2[r], b[r]))


@given(pmf_strategy, pmf_strategy)
def test_transfer_functions_preserve_mass(p1, p2):
    for out in (psi_boxplus(p1, p2), psi_boxdot(p1, p2, 0),
                psi_boxdot(p1, p2, 1)):
        assert np.all(out >= -1e-12)
        assert abs(out.sum() - 1.0) < 1e-9


def test_point_masses_reproduce_operator_tables():
    for a in range(4):
        for c in range(4):
            plus = psi_boxplus(point_mass(a), point_mass(c))
            table_plus = np.asarray(BOX_PLUS)
            table_dot = np.asarray(BOX_DOT)
            assert np.array_equal(plus, point_mass(table_plus[a, c]))
            for b in (0, 1):
                dot = psi_boxdot(point_mass(a), point_mass(c), b)
                expected = table_dot[table_plus[a, b], c]
                assert np.array_equal(dot, point_mass(expected))


@pytest.mark.parametrize("p", [0.0, 0.2, 0.5, 0.9, 1.0])
def test_channel_combines_match_closed_forms(p):
    ch = channel_pmf(p)
    plus = psi_boxplus(ch, ch)
    np.testing.assert_allclose(
        plus, [(1 - p) ** 2, 0.0, 2 * p - p * p, 0.0], atol=1e-12)
    dot = psi_boxdot(ch, ch, 0)
    np.testing.assert_allclose(dot, [1 - p * p, 0.0, p * p, 0.0], atol=1e-12)


def _polarized_erasure(p, i, n):
    eps = p
    for t in range(n - 1, -1, -1):
        eps = eps * eps if (i >> t) & 1 else 2 * eps - eps * eps
    return eps


@pytest.mark.parametrize("p", [0.1, 0.35, 0.5, 0.8])
def test_sc_per_bit_is_half_polarized_erasure(ex1, nr64, p):
    for spec in (ex1, nr64):
        per_bit, _ = de_run(spec, "sc", p)
        oracle = np.array([_polarized_erasure(p, i, spec.n) / 2
                           for i in spec.A])
        np.testing.assert_allclose(per_bit, oracle, atol=1e-12)


def _exact_wrong_pass(spec, p, use_fccn, i_max):
    """Enumerate every message and erasure pattern; average the wrong-
    hypothesis pass rate with a genie prefix. Tractable for N = 8."""
    out = []
    msgs = [np.array(m, dtype=np.uint8)
            for m in itertools.product((0, 1), repeat=spec.K)]
    patterns = list(itertools.product((0, 1), repeat=spec.N))
    for i in spec.A:
        total = 0.0
        for msg in msgs:
            u = input_word(spec, msg)
            x = encode(spec, msg)
            hyp = build_hypothesis(spec, u[:i], i, 1 - int(u[i]))
            for pat in patterns:
                w = 1.0
                for e in pat:
                    w *= p if e else (1 - p)
                y = np.where(np.array(pat, dtype=bool), ERASURE,
                             x).astype(np.uint8)
                g = make_graph(spec, y, hyp, use_fccn)
                rep = bp_scc_check(spec, g, hyp, i_max=i_max,
                                   use_fccn=use_fccn)
                total += w * rep.r
        out.append(0.5 * total / len(msgs))
    return np.array(out)


def test_scc_per_bit_exact_on_small_code(ex1):
    # the instant graph without FCCNs is a tree over independent channel
    # leaves, so the evolved leaf PMF is the true leaf distribution and
    # the per-bit formula is exact, not just asymptotic
    for p in (0.3, 0.5):
        per_bit, _ = de_run(ex1, "scc", p)
        oracle = _exact_wrong_pass(ex1, p, use_fccn=False, i_max=1)
        np.testing.assert_allclose(per_bit, oracle, atol=1e-12)


def test_fccn_de_direction_on_small_code(ex1):
    # folding the check message is approximate (neighbor snapshots are
    # reused, so correlated refutations compound): the evolved estimate
    # must not exceed the true rate here, and only bit 3 (the one with
    # an attached check) may move away from the plain-span value
    p = 0.5
    pb_scc, _ = de_run(ex1, "scc", p)
    pb_bp, _ = de_run(ex1, "bpscc1", p)
    oracle = _exact_wrong_pass(ex1, p, use_fccn=True, i_max=1)
    assert pb_bp[0] < oracle[0]
    np.testing.assert_allclose(pb_bp[1:], pb_scc[1:], atol=1e-12)
    np.testing.assert_allclose(oracle[1:], pb_scc[1:], atol=1e-12)


def test_frozen_scc_values_at_half(ex1):
    per_bit, bler = de_run(ex1, "scc", 0.5)
    np.testing.assert_allclose(
        per_bit, [0.142578125, 0.060546875, 0.001953125], atol=1e-15)
    expected = 1.0 - np.prod(1.0 - per_bit)
    assert abs(bler - expected) < 1e-15


@pytest.mark.parametrize("decoder", ["sc", "scc", "bpscc1"])
def test_endpoints(ex1, nr64, decoder):
    for spec in (ex1, nr64):
        pb0, b0 = de_run(spec, decoder, 0.0)
        assert np.all(pb0 == 0.0) and b0 == 0.0
        pb1, b1 = de_run(spec, decoder, 1.0)
        np.testing.assert_allclose(pb1, 0.5, atol=1e-12)
        np.testing.assert_allclose(b1, 1.0 - 2.0 ** (-spec.K), atol=1e-12)


@pytest.mark.parametrize("decoder", ["sc", "scc"])
def test_per_bit_monotone_in_p(ex1, decoder):
    grid = np.linspace(0.05, 0.95, 10)
    prev = None
    for p in grid:
        per_bit, _ = de_run(ex1, decoder, p)
        if prev is not None:
            assert np.all(per_bit >= prev - 1e-12)
        prev = per_bit


def test_span_and_fccn_only_help(nr64):
    for p in (0.35, 0.5):
        pb_sc, bler_sc = de_run(nr64, "sc", p)
        pb_scc, bler_scc = de_run(nr64, "scc", p)
        pb_bp, bler_bp = de_run(nr64, "bpscc1", p)
        assert np.all(pb_scc <= pb_sc + 1e-12)
        assert np.all(pb_bp <= pb_scc + 1e-12)
        assert bler_bp <= bler_scc <= bler_sc


def test_input_validation(ex1):
    with pytest.raises(ValueError):
        de_run(ex1, "sc", -0.1)
    with pytest.raises(ValueError):
        de_run(ex1, "sc", 1.5)
    with pytest.raises(ValueError):
        de_run(ex1, "scl", 0.5)


def _de_run_loop(spec, decoder, p):
    """The per-bit sweep that de_run's one sweep replaces: each information
    bit runs its own n stages, with one FCCN round on its own checks per
    stage."""
    per_bit = []
    for i in spec.A:
        if decoder == "sc":
            ell = i
            prefix = np.zeros(i + 1, dtype=np.uint8)
            prefix[i] = 1
        else:
            hyp = build_hypothesis(spec, np.zeros(i, dtype=np.uint8), i, 1)
            ell, prefix = hyp.ell, hyp.prefix
        pmfs = np.tile(channel_pmf(p), (spec.N, 1))
        for t in range(spec.n - 1, -1, -1):
            if decoder == "bpscc1":
                cols, _, offsets = system_structure(spec, ell, t + 1)
                if cols:
                    phi = (prefix.astype(np.int64)
                           @ offsets.astype(np.int64)) % 2
                    key = ("reference_fccn_plan", ell, t + 1)
                    if key not in spec._cache:
                        spec._cache[key] = fccn_plan(
                            check_lists(spec, ell, t + 1))
                    de_fccn_update(pmfs, spec._cache[key], phi)
            half = 1 << t
            if (ell >> t) & 1 == 0:
                pmfs = psi_boxplus(pmfs[:half], pmfs[half:])
            else:
                lo = (ell >> (t + 1)) << (t + 1)
                beta = (prefix[lo:lo + half].astype(np.int64)
                        @ kron_power(t).astype(np.int64)) % 2
                pmfs = psi_boxdot(pmfs[:half], pmfs[half:], beta)
        leaf = pmfs[0]
        per_bit.append(0.5 * (leaf[int(prefix[ell])] + leaf[ERASURE]))
    per_bit = np.array(per_bit)
    return per_bit, float(1.0 - np.prod(1.0 - per_bit))


_CODES = {
    "nr128": lambda: build_nr_code(128, 64),
    "nr128-nocrc": lambda: build_nr_code(128, 64, crc="none"),
    "nr256": lambda: build_nr_code(256, 128),
}

# random codes of N = 2 to 64 by their n: dense parity taps give checks of
# ragged degrees, so the lockstep steps of a round fold slices of many widths
_RANDOM = {f"random{j}-n{n}": n
           for j, n in enumerate((1, 2, 3, 4, 4, 5, 5, 6, 6))}


@pytest.fixture(scope="module")
def de_codes(ex1, nr64, random_code):
    rng = np.random.default_rng(41)
    return {"ex1": ex1, "nr64": nr64,
            **{name: build() for name, build in _CODES.items()},
            **{name: random_code(rng, n=n) for name, n in _RANDOM.items()}}


def _assert_matches_loop(spec, decoder):
    for p in (0.0, 0.3, 0.42, 1.0):
        per_bit, bler = de_run(spec, decoder, p)
        expected, expected_bler = _de_run_loop(spec, decoder, p)
        assert np.array_equal(per_bit, expected), (decoder, p)
        assert bler == expected_bler, (decoder, p)


@pytest.mark.parametrize("decoder", ["sc", "scc", "bpscc1"])
@pytest.mark.parametrize("code", ["ex1", "nr64", *_CODES, *_RANDOM])
def test_grouped_sweep_matches_per_bit_loop(de_codes, code, decoder):
    # "grouped": de_run sweeps all K bits in one group
    _assert_matches_loop(de_codes[code], decoder)


def test_one_fccn_round_per_stage_with_checks(monkeypatch):
    # all K bits go in one sweep: a bpscc1 point makes one round at each
    # stage where some bit has checks, and none at the others
    spec = build_nr_code(128, 64)
    stages = sum(any(system_structure(spec, spec.ell[i], t)[0] for i in spec.A)
                 for t in range(1, spec.n + 1))
    rounds, update = [], de.de_fccn_update

    def counted_update(pmfs, plan, phi):
        rounds.append(plan)
        update(pmfs, plan, phi)

    monkeypatch.setattr(de, "de_fccn_update", counted_update)
    de_run(spec, "bpscc1", 0.4)
    assert 0 < stages < spec.n
    assert len(rounds) == stages


def test_hypothesis_prefix_is_row_of_T(ex1, nr64, random_code):
    # de._hypothesis reads the H_{i,1} prefix with an all-zero past off row
    # i of T; the scalar recursion of build_hypothesis is the reference.
    rng = np.random.default_rng(29)
    specs = [ex1, nr64, build_nr_code(256, 128)]
    specs += [random_code(rng, n=int(rng.integers(2, 7))) for _ in range(20)]
    for spec in specs:
        for i in spec.A:
            zeros = np.zeros(i, dtype=np.uint8)
            hyp = build_hypothesis(spec, zeros, i, 1)
            for decoder in ("scc", "bpscc1"):
                ell, prefix = de._hypothesis(spec, decoder, i)
                assert ell == hyp.ell
                assert np.array_equal(prefix, hyp.prefix)
            ell, prefix = de._hypothesis(spec, "sc", i)
            assert ell == i
            assert np.array_equal(prefix, np.append(zeros, 1))
