"""Hypothesis checks on the instant graph: structure, soundness, SC leaf."""
import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import fcpolar

from fcpolar.codes import build_example1, encode, input_word
from fcpolar.constraints import system_structure
from fcpolar.decoders import (bp_scc_check, build_hypothesis, check_lists,
                              make_graph, processing_index, sc_decode_bit)
from fcpolar.gf2 import mat_mul
from fcpolar.symbols import CONFLICT, ERASURE


def _erase(x, positions):
    y = np.array(x, dtype=np.uint8)
    y[list(positions)] = ERASURE
    return y


def test_processing_index_example1(ex1):
    assert [processing_index(ex1, i) for i in ex1.A] == [4, 6, 7]
    with pytest.raises(ValueError):
        processing_index(ex1, 4)


def test_processing_index_covers_blocks(nr64):
    ells = [processing_index(nr64, i) for i in nr64.A]
    # spans tile the index line: each processing index precedes the next
    # information bit, and the last one reaches the end of the word
    assert ells[-1] == nr64.N - 1
    for i, ell in zip(nr64.A[1:], ells[:-1]):
        assert ell + 1 == i


def test_fccn_structure_for_bit3(ex1):
    # decoding u3 must expose exactly one FCCN, at stage 2, tying the
    # second and third block variables with offset equal to the
    # hypothesized value of u3 (the parity u6 = u3 + u5 in disguise)
    for b in (0, 1):
        hyp = build_hypothesis(ex1, [0, 0, 0], 3, b)
        assert hyp.ell == 4
        populated = {t for t in range(1, ex1.n + 1)
                     if system_structure(ex1, hyp.ell, t)[0]}
        assert populated == {2}
        cols, _, offsets = system_structure(ex1, hyp.ell, 2)
        assert cols == (6,)
        assert check_lists(ex1, hyp.ell, 2) == ((1, 2),)
        assert list(mat_mul(hyp.prefix[None, :], offsets)[0]) == [b]


def test_graph_carries_systems_and_betas(ex1):
    hyp = build_hypothesis(ex1, [0, 0, 0], 3, 1)
    g = make_graph(ex1, np.full(8, ERASURE, dtype=np.uint8), hyp, use_fccn=True)
    assert set(g.fccn) == {2}
    vn_of, phi = g.fccn[2]
    assert vn_of == ((1, 2),) and list(phi) == [1]
    assert g.beta[2] == [1, 1, 1, 1]


def test_true_hypothesis_always_passes(ex1, all_ex1_messages):
    rng = np.random.default_rng(3)
    for msg in all_ex1_messages:
        u = input_word(ex1, msg)
        x = encode(ex1, msg)
        for _ in range(8):
            y = _erase(x, np.flatnonzero(rng.random(8) < 0.5))
            for i in ex1.A:
                hyp = build_hypothesis(ex1, u[:i], i, int(u[i]))
                for fccn in (False, True):
                    g = make_graph(ex1, y, hyp, use_fccn=fccn)
                    rep = bp_scc_check(ex1, g, hyp, i_max=2, use_fccn=fccn)
                    assert rep.r == 1, (msg, i, fccn, y)


def test_wrong_hypothesis_refuted_noiseless(ex1, all_ex1_messages):
    for msg in all_ex1_messages:
        u = input_word(ex1, msg)
        y = encode(ex1, msg)
        for i in ex1.A:
            hyp = build_hypothesis(ex1, u[:i], i, int(1 - u[i]))
            g = make_graph(ex1, y, hyp, use_fccn=False)
            rep = bp_scc_check(ex1, g, hyp, i_max=1, use_fccn=False)
            assert rep.r == 0


def test_sc_leaf_on_clean_channel(ex1, all_ex1_messages):
    from fcpolar.decoders import Hypothesis
    for msg in all_ex1_messages:
        u = input_word(ex1, msg)
        y = encode(ex1, msg)
        for i in ex1.A:
            hyp_i = Hypothesis(i=i, b=0, ell=i,
                               prefix=np.append(u[:i], 0).astype(np.uint8))
            g = make_graph(ex1, y, hyp_i, use_fccn=False)
            assert sc_decode_bit(ex1, g, hyp_i) == u[i]


def test_single_erasure_at_last_position(ex1, all_ex1_messages):
    # erasing x7 only: both the plain SC recursion and the FC-aware
    # checks recover the message exactly (one erasure vanishes under
    # the combine rules; the recursion never yields an erased leaf)
    from fcpolar.search import decode_sc, decode_with_fc
    for msg in all_ex1_messages:
        u = input_word(ex1, msg)
        y = _erase(encode(ex1, msg), [7])
        out = decode_sc(ex1, y, seed=0)
        assert out.status == "success"
        assert np.array_equal(out.u_hat, u)
        for engine in ("scc", "bp_scc"):
            fc = decode_with_fc(ex1, y, engine=engine, i_max=2, sbj=True)
            assert fc.status == "success"
            assert np.array_equal(fc.u_hat, u)


def test_conflict_reported_as_refutation(ex1):
    # prefix clashing with a frozen position forces eta during the sweep
    msg = np.array([1, 1, 0], dtype=np.uint8)
    x = encode(ex1, msg)
    wrong_prefix = np.array([0, 0, 0], dtype=np.uint8)
    hyp = build_hypothesis(ex1, wrong_prefix, 3, 1)
    g = make_graph(ex1, x, hyp, use_fccn=False)
    rep = bp_scc_check(ex1, g, hyp, use_fccn=False)
    assert rep.r in (0, 1)
    if rep.r == 0:
        assert rep.symbol in (CONFLICT, 0, 1)


def test_only_the_scalar_engine_binds_decoders_and_search():
    # decoders, search and symbols are the scalar reference: no other
    # module binds a name to one of their functions or classes (or to the
    # modules), so the batch engines cannot lean on them.
    # batch.decode_with_fc is the one exception: a benchmark span wraps it
    # by that name. bitboard, the word layout, sits below the constraint
    # layer too: batch hands it the FCCN rounds ready to run.
    scalar = ("fcpolar.decoders", "fcpolar.search", "fcpolar.symbols")
    below = {"fcpolar.bitboard": scalar + ("fcpolar.constraints",)}
    allowed = {"fcpolar.batch.decode_with_fc"}
    bound = []
    for info in pkgutil.iter_modules(fcpolar.__path__, "fcpolar."):
        if info.name in scalar:
            continue
        module = importlib.import_module(info.name)
        for name, value in vars(module).items():
            origin = (value.__name__ if inspect.ismodule(value)
                      else value.__module__
                      if inspect.isfunction(value) or inspect.isclass(value)
                      else None)
            if (origin in below.get(info.name, scalar)
                    and f"{info.name}.{name}" not in allowed):
                bound.append(f"{info.name}.{name}")
    assert not bound


def _imports(path):
    """(module, name) of every import statement in the fcpolar module at
    path, nested ones too, relative modules resolved; name is None for a
    plain import."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from ((alias.name, None) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, (
                "fcpolar" if node.level else None, node.module)))
            yield from ((module, alias.name) for alias in node.names)


def test_no_production_module_imports_the_scalar_engine():
    # The import statements themselves, which the attribute scan above
    # cannot see for a constant such as an int symbol code: no module
    # outside decoders, search and symbols imports one of them, or a name
    # from one. batch's benchmark hook decode_with_fc is the exception.
    scalar = {"fcpolar.decoders", "fcpolar.search", "fcpolar.symbols"}
    allowed = {("fcpolar.batch", "fcpolar.search", "decode_with_fc")}
    found = []
    for info in pkgutil.iter_modules(fcpolar.__path__, "fcpolar."):
        if info.name in scalar:
            continue
        path = Path(fcpolar.__path__[0], info.name.split(".")[-1] + ".py")
        for module, name in _imports(path):
            target = f"{module}.{name}" if f"{module}.{name}" in scalar else module
            if target in scalar and (info.name, target, name) not in allowed:
                found.append(f"{info.name} imports {target}")
    assert not found
