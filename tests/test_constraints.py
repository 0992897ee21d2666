"""Instant-system conversion: exactness on codewords and stage partitions."""
import numpy as np
import pytest

from fcpolar import constraints
from fcpolar.codes import CodeSpec, build_nr_code, input_word
from fcpolar.constraints import future_constraints, global_Q, system_structure
from fcpolar.decoders import check_lists, processing_index
from fcpolar.gf2 import kron_power, mat_mul


def _all_messages(K):
    return [np.array([(m >> k) & 1 for k in range(K)], dtype=np.uint8)
            for m in range(1 << K)]


def _stage_values(spec, u, lo, hi, t):
    return mat_mul(u[None, lo:hi], kron_power(t))[0]


def check_theorems(spec: CodeSpec, u: np.ndarray):
    # stage-block form on the decoding-path block T(ell, t)
    for ell in range(spec.N):
        prefix = u[:ell + 1]
        for t in range(1, spec.n + 1):
            cols, Q, offsets = system_structure(spec, ell, t)
            if not cols:
                continue
            lo = (ell >> t) << t
            xb = _stage_values(spec, u, lo, lo + (1 << t), t)
            phi = mat_mul(prefix[None, :], offsets)[0]
            lhs = phi ^ mat_mul(xb[None, :], Q)[0]
            assert not lhs.any(), (ell, t)
            # the scalar engine's member lists hold the same checks
            for j, members in enumerate(check_lists(spec, ell, t)):
                assert phi[j] == xb[list(members)].sum() % 2, (ell, t, j)


def test_theorems_on_example1(ex1, all_ex1_messages):
    for msg in all_ex1_messages:
        check_theorems(ex1, input_word(ex1, msg))


def test_theorems_on_random_codes(random_code):
    rng = np.random.default_rng(202)
    for _ in range(200):
        spec = random_code(rng)
        msg = rng.integers(0, 2, size=spec.K, dtype=np.uint8)
        check_theorems(spec, input_word(spec, msg))


def test_stage_partition_covers_L(ex1, nr64, random_code):
    rng = np.random.default_rng(7)
    specs = [ex1, nr64] + [random_code(rng) for _ in range(20)]
    for spec in specs:
        for i in range(spec.N + 1):
            fc = future_constraints(spec, i)
            flat = [k for stage in fc.per_stage for k in stage]
            assert sorted(flat) == list(fc.L)
            assert len(flat) == len(set(flat))
            assert list(fc.L) == [k for k in range(i, spec.N)
                                  if k not in spec.A]
        # The structures read their columns off the stage blocks; over the
        # stages they are disjoint, each ascending, and together L_{ell+1}.
        for ell in range(spec.N):
            stages = [system_structure(spec, ell, t)[0]
                      for t in range(1, spec.n + 1)]
            flat = [k for cols in stages for k in cols]
            assert all(list(cols) == sorted(cols) for cols in stages), ell
            assert len(flat) == len(set(flat)), ell
            assert sorted(flat) == list(future_constraints(spec, ell + 1).L)


def test_future_constraints_bounds(ex1):
    assert future_constraints(ex1, ex1.N).L == ()
    with pytest.raises(ValueError):
        future_constraints(ex1, -1)
    with pytest.raises(ValueError):
        future_constraints(ex1, ex1.N + 1)


def test_global_q_annihilates_codewords(ex1, all_ex1_messages):
    Q = global_Q(ex1)
    for msg in all_ex1_messages:
        x = mat_mul(input_word(ex1, msg)[None, :], ex1.generator)
        assert not mat_mul(x, Q).any()


def test_system_structure_memoized(nr64):
    a = system_structure(nr64, 18, 3)
    b = system_structure(nr64, 18, 3)
    assert a is b
    with pytest.raises(ValueError):
        system_structure(nr64, 18, 0)
    with pytest.raises(ValueError):
        system_structure(nr64, 18, nr64.n + 1)


def _dense_structure(spec, ell, t):
    """(cols, Q, offsets) by one dense product over every column, the
    parity ones and the frozen ones alike."""
    lo = (ell >> t) << t
    hi = lo + (1 << t)
    start = ((ell >> (t - 1)) + 1) << (t - 1)
    cols = [k for k in range(start, hi) if not spec.info_mask[k]]
    rows = np.arange(ell + 1, hi)
    Q = mat_mul(kron_power(t)[:, rows - lo], spec.H[np.ix_(rows, cols)])
    return tuple(cols), Q, spec.H[:ell + 1, cols].copy()


@pytest.mark.parametrize("code", ["ex1", "nr64", "nr64-nocrc", "nr256",
                                  "random"])
def test_structure_matches_dense_products(code, ex1, nr64, random_code):
    rng = np.random.default_rng(31)
    specs = {"ex1": lambda: [ex1], "nr64": lambda: [nr64],
             "nr64-nocrc": lambda: [build_nr_code(64, 32, crc="none")],
             "nr256": lambda: [build_nr_code(256, 128)],
             "random": lambda: [random_code(rng, n) for n in range(1, 7)
                                for _ in range(3)]}[code]()
    for spec in specs:
        for ell in range(spec.N):
            for t in range(1, spec.n + 1):
                got = system_structure(spec, ell, t)
                want = _dense_structure(spec, ell, t)
                assert got[0] == want[0], (spec.N, ell, t)
                assert all(type(c) is int for c in got[0])
                for a, b in zip(got[1:], want[1:]):
                    assert a.dtype == b.dtype == np.uint8
                    assert a.shape == b.shape, (spec.N, ell, t)
                    assert a.flags.c_contiguous
                    assert np.array_equal(a, b), (spec.N, ell, t)
                # a frozen check is a column of the kernel power, unshifted
                cols, Q, offsets = got
                lo = (ell >> t) << t
                for j, c in enumerate(cols):
                    if not spec.parity_mask[c]:
                        assert np.array_equal(Q[:, j],
                                              kron_power(t)[:, c - lo])
                        assert not offsets[:, j].any()


def test_only_parity_stages_take_a_product(monkeypatch):
    # The (ell, t) pairs of perfbench's sbj-n256 set-up: one product for
    # each of the 131 with a parity column, none for the 837 empty and the
    # 56 frozen-only ones.
    spec = build_nr_code(256, 128)
    calls = []
    monkeypatch.setattr(constraints, "mat_mul",
                        lambda a, b: calls.append(1) or mat_mul(a, b))
    kinds = {"empty": 0, "frozen": 0, "parity": 0}
    for i in spec.A:
        ell = processing_index(spec, i)
        for t in range(1, spec.n + 1):
            calls.clear()
            cols = system_structure(spec, ell, t)[0]
            kind = ("parity" if spec.parity_mask[list(cols)].any() else
                    "frozen" if cols else "empty")
            kinds[kind] += 1
            assert len(calls) == (kind == "parity"), (ell, t)
    assert kinds == {"empty": 837, "frozen": 56, "parity": 131}


def test_structure_matches_integer_products_and_lists(nr64):
    for ell in range(nr64.N):
        for t in range(1, nr64.n + 1):
            cols, Q, _ = system_structure(nr64, ell, t)
            assert np.array_equal(Q, _dense_structure(nr64, ell, t)[1])
            assert check_lists(nr64, ell, t) == tuple(
                tuple(int(k) for k in np.flatnonzero(Q[:, j]))
                for j in range(len(cols)))


def test_every_check_has_a_member(nr64, random_code):
    # Column c of a stage-t system lies above ell, inside block T(ell, t)
    # and outside A, so H[c, c] = 1 and Q[:, c] is a nonzero combination
    # of the block rows of kron_power(t), which are independent: no check
    # is memberless, so none can pin its offset alone.
    rng = np.random.default_rng(12)
    specs = [nr64, build_nr_code(128, 64)] + [
        random_code(rng, n) for n in (1, 2, 3, 4, 5, 6) for _ in range(5)]
    for spec in specs:
        for ell in range(spec.N):
            for t in range(1, spec.n + 1):
                cols, Q, _ = system_structure(spec, ell, t)
                assert Q.any(axis=0).all(), (spec.N, ell, t)
                assert all(check_lists(spec, ell, t)), (spec.N, ell, t)
