"""Density evolution for erasure-channel SC-family decoders.

A symbol PMF is a length-4 float row over (0, 1, erasure, conflict),
indexed by the integer symbol codes; the PMFs of a stage are one (m, 4)
array, one row per block variable. The stage transfer functions are the
pushforwards of planes.plus and planes.dot, the decoders' operators,
under independent inputs (_sum_plan reads their tables off the 16 symbol
pairs). The forward-only per-bit run tracks the wrong-hypothesis check
H_{i,1} under the all-zero-codeword convention and turns the per-bit pass
probability into a block error estimate via the independence product.

de_run sweeps all information bits of a point in one pass: a stage holds
one array for every bit, bit by bit, and each step is one batched call
(one FCCN round on the union of the bits' checks, one ⊞ call and one ⊡
call down the tree). A round folds each distinct check-to-variable
message once, in one lockstep pass over a member table built once.

Every output is bit-identical to one np.einsum("a,b,abs->s", p1, p2, M)
per pair of rows with the one-hot pushforward tensor M: output symbol s
adds the products p1[a] * p2[b] of the pairs (a, b) that the operator
table maps to s, left to right in row-major (a, b) order. Floating-point
addition is not associative, so that order is kept; an outer product
followed by a matrix product, or a factored closed form, moves the
per-bit values in the last digits.
"""

from __future__ import annotations

from itertools import chain
from typing import NamedTuple

import numpy as np

from .bitboard import left_partial_sums, pack_rows, unpack_rows
from .codes import CodeSpec
from .constraints import system_structure
from .gf2 import mat_mul
from .planes import dot, from_symbols, plus, to_symbols
from .symbols import CONFLICT, ERASURE

__all__ = [
    "channel_pmf",
    "point_mass",
    "psi_boxplus",
    "psi_boxdot",
    "FccnPlan",
    "fccn_plan",
    "de_fccn_update",
    "de_run",
]

_SWAP01 = np.array([1, 0, 2, 3])


def _sum_plan(op) -> tuple:
    """How _pushforward sums the pushforward of a planes operator.

    The terms of symbol s are the pairs (a, b) that op maps to s, in
    row-major order. Symbols are ranked by term count, ascending, and the
    terms laid out step-major: step r holds the r-th term of every symbol
    that has one, which is a trailing run of the ranking. Returns the
    operand indices of every term, the (start, width) of steps 1, 2, ...,
    and the ranking's inverse.
    """
    a, b = np.divmod(np.arange(16), 4)
    table = to_symbols(op(from_symbols(a), from_symbols(b)))
    terms = [np.flatnonzero(table == s).tolist() for s in range(4)]
    rank = sorted(range(4), key=lambda s: len(terms[s]))
    pairs, steps = [], []
    for r in range(len(terms[rank[-1]])):
        live = [terms[s][r] for s in rank if len(terms[s]) > r]
        steps.append((len(pairs), len(live)))
        pairs += live
    a, b = np.divmod(pairs, 4)
    return a, b, steps[1:], np.argsort(rank)


_PLUS = _sum_plan(plus)
_DOT = _sum_plan(dot)


def _pushforward(p1: np.ndarray, p2: np.ndarray, plan) -> np.ndarray:
    """Rows of the PMF of table(a, b) for independent a ~ p1, b ~ p2. Each
    symbol's terms are added left to right; one add per step covers every
    symbol that still has a term. A call holds 16 products per row, and
    de_run's calls grow with K * N, the PMF rows of its stage n."""
    a, b, steps, unrank = plan
    shape = p1.shape
    if p2.shape != shape:
        shape = np.broadcast_shapes(shape, p2.shape)
        p1, p2 = np.broadcast_to(p1, shape), np.broadcast_to(p2, shape)
    p1, p2 = p1.reshape(-1, 4), p2.reshape(-1, 4)
    prod = p1[:, a]
    prod *= p2[:, b]
    acc = prod[:, :4]
    for start, width in steps:
        acc[:, 4 - width:] += prod[:, start:start + width]
    return acc[:, unrank].reshape(shape)


def point_mass(symbol: int) -> np.ndarray:
    pmf = np.zeros(4)
    pmf[symbol] = 1.0
    return pmf


def channel_pmf(p: float) -> np.ndarray:
    return np.array([1.0 - p, 0.0, p, 0.0])


def psi_boxplus(p1: np.ndarray, p2: np.ndarray) -> np.ndarray:
    """PMF of a ⊞ b for independent symbols a ~ p1, b ~ p2, row by row
    (the rows of p1 and p2 broadcast)."""
    return _pushforward(p1, p2, _PLUS)


def psi_boxdot(p1: np.ndarray, p2: np.ndarray, b=0) -> np.ndarray:
    """PMF of (a ⊞ b) ⊡ c for independent a ~ p1, c ~ p2 and a known bit b,
    row by row; b is one bit or one per row.

    b = 1 swaps the roles of p1[0] and p1[1]; the two-argument form used in
    the FCCN update is the b = 0 case.
    """
    b = np.asarray(b, dtype=bool)
    if b.any():
        p1 = np.where(b[..., None], p1[..., _SWAP01], p1)
    return _pushforward(p1, p2, _DOT)


class FccnPlan(NamedTuple):
    """Index plan of one batched FCCN round; see fccn_plan."""
    order: np.ndarray      # checks with members, by degree, descending
    deg: np.ndarray        # the degree of each ranked check
    first: np.ndarray      # pair of each ranked check's first member
    slot: np.ndarray       # each pair's member as an index into vns
    by_vn: np.ndarray      # pairs in (VN, check) order
    seg: np.ndarray        # where each VN's run of pairs starts in by_vn
    vns: np.ndarray        # the VN of each run, ascending


def fccn_plan(vn_of) -> FccnPlan:
    """Plan of the FCCN round over the checks' member lists vn_of (each
    ascending), as built by constraints.check_lists: the checks ranked by
    degree, descending, and their (check, member) pairs check by check."""
    deg = np.fromiter(map(len, vn_of), dtype=np.int64, count=len(vn_of))
    members = np.fromiter(chain.from_iterable(vn_of), dtype=np.int32,
                          count=int(deg.sum()))
    return _fccn_plan(deg, members)


def _fccn_plan(deg: np.ndarray, members: np.ndarray) -> FccnPlan:
    """fccn_plan of the checks with deg[j] members each, whose member lists
    members holds one after the other."""
    begin = np.cumsum(deg) - deg
    order = np.argsort(-deg, kind="stable")
    order = order[deg[order] > 0]
    deg = deg[order]
    first = np.cumsum(deg) - deg
    rank = np.repeat(np.arange(deg.size), deg)
    members = members[begin[order][rank] + np.arange(rank.size) - first[rank]]
    by_vn = np.lexsort((order[rank], members))
    seg = np.flatnonzero(np.diff(members[by_vn], prepend=-1))
    vns = members[by_vn][seg]
    return FccnPlan(*(a.astype(np.int32) for a in (
        order, deg, first, np.searchsorted(vns, members), by_vn, seg, vns)))


def de_fccn_update(pmfs: np.ndarray, plan: FccnPlan, phi: np.ndarray) -> None:
    """Combine each attached VN with its most conflict-informative check.

    pmfs is the (m, 4) array of the block's PMFs, updated in place; plan is
    fccn_plan of the checks' member lists and phi their offsets. For every
    pair of a check j and a member k, the check-to-variable PMF q_{j->k}
    starts at the point mass at phi_j and folds, through psi_boxplus, the
    round-start PMFs of the other members of j in ascending order (the
    running q is the first operand). Only the message with the largest
    conflict mass (ties to the smallest check index) is folded back into
    pmfs[k] through psi_boxdot, to limit cycle effects.

    Each distinct message is folded once, as a pushforward is a function
    of its operands' bits. The round-start PMFs get ids by their bits;
    checks with the same offset and member ids send the same messages, and
    so do adjacent members with equal ids. One pair per check key and run
    of equal ids folds, in lockstep: step s folds the s-th member of the
    pair's check that is not its own, and the pairs of checks with more
    than s + 1 members are a leading slice. One gather per round lays the
    members out step by step, so each step folds the rows of a contiguous
    slice of that table.
    """
    if not plan.vns.size:
        return
    rows, phi = pmfs[plan.vns], phi[plan.order]
    bits = rows.view(np.uint64)
    by_bits = np.lexsort(bits.T)
    ranked = bits[by_bits]
    ids = np.empty(len(rows), dtype=np.int32)
    ids[by_bits] = np.cumsum(
        np.diff(ranked, axis=0, prepend=ranked[:1]).any(axis=1))
    ids = ids[plan.slot]
    seq, keys = ids.tobytes(), {}
    spans = zip(phi.tolist(), plan.first.tolist(), plan.deg.tolist())
    rep = np.array([keys.setdefault((f, seq[4 * a:4 * (a + d)]), r)
                    for r, (f, a, d) in enumerate(spans)], dtype=np.int32)
    pairs = np.arange(ids.size, dtype=np.int32)
    run = np.diff(ids, prepend=-1) != 0
    run[plan.first] = True
    source = np.maximum.accumulate(np.where(run, pairs, 0)) + np.repeat(
        plan.first[rep] - plan.first, plan.deg)
    folded = np.flatnonzero(source == pairs)
    check = np.searchsorted(plan.first, folded, side="right") - 1
    lead, deg = plan.first[check], plan.deg[check]
    own = folded - lead
    width = np.searchsorted(-deg, -np.arange(1, deg[0]))
    start = np.cumsum(width) - width
    step = np.repeat(np.arange(width.size, dtype=np.int32), width)
    fold = np.arange(step.size) - start[step]
    member = plan.slot[lead[fold] + step + (step >= own[fold])]
    q = np.eye(4)[phi[check]]
    for a, n in zip(start.tolist(), width.tolist()):
        q[:n] = psi_boxplus(q[:n], rows[member[a:a + n]])
    message = np.searchsorted(folded, source[plan.by_vn]).astype(np.int32)
    conflict = q[message, CONFLICT]
    peak = np.maximum.reduceat(conflict, plan.seg)
    hits = np.flatnonzero(conflict == np.repeat(
        peak, np.diff(plan.seg, append=conflict.size)))
    pmfs[plan.vns] = psi_boxdot(
        rows, q[message[hits[np.searchsorted(hits, plan.seg)]]])


class _Stage(NamedTuple):
    """Stage t of de_run's sweep."""
    plan: FccnPlan | None  # union FCCN round at stage t + 1, if any checks
    phi: np.ndarray | None  # its check offsets, bit by bit
    plus: np.ndarray       # places in A of the bits that take the ⊞ row
    dot: np.ndarray        # places in A of the bits that take the ⊡ row
    beta: np.ndarray       # (len(dot), 2^t) partial sums of the ⊡ bits


def _hypothesis(spec: CodeSpec, decoder: str, i: int) -> tuple:
    """(ell, prefix) of the H_{i,1} check of bit i with an all-zero past;
    sc stops at bit i and forces no parity values. Under the invariant of
    codes._assemble the prefix is row i of T up to ell."""
    ell = i if decoder == "sc" else int(spec.ell[i])
    return ell, spec.T[i, :ell + 1]


def _stage(spec: CodeSpec, bits: list, t: int, use_fccn: bool) -> _Stage:
    """Stage t of the sweep of bits, a list of (ell, prefix, betas), betas
    the prefix's partial sums as bitboard.left_partial_sums words.

    The union FCCN plan lists the bits' stage-(t + 1) checks in bit order,
    each check's members ascending (the support of its column of Q) and
    offset by the bit's place times 2^(t + 1). A VN's checks all come from
    its own bit, in their own order, so its folds and its tie rule are
    those of the bit's own plan.
    """
    plan = phi = None
    if use_fccn:
        deg, members, phis = [], [], []
        for g, (ell, prefix, _) in enumerate(bits):
            cols, Q, offsets = system_structure(spec, ell, t + 1)
            if cols:
                deg.append(np.count_nonzero(Q, axis=0))
                members.append(np.nonzero(Q.T)[1] + (g << (t + 1)))
                phis.append(mat_mul(prefix, offsets))
        if deg:
            plan = _fccn_plan(np.concatenate(deg), np.concatenate(members))
            phi = np.concatenate(phis)
    side = np.array([(ell >> t) & 1 for ell, *_ in bits], dtype=bool)
    beta = [unpack_rows(betas[t], 1 << t)[0] for ell, _, betas in bits
            if (ell >> t) & 1]
    return _Stage(plan=plan, phi=phi, plus=np.flatnonzero(~side),
                  dot=np.flatnonzero(side),
                  beta=np.array(beta, dtype=bool).reshape(-1, 1 << t))


def _sweep(spec: CodeSpec, decoder: str) -> tuple:
    """The plan of de_run's sweep, memoized on the spec per decoder: the
    hypothesized value of each information bit at its leaf, and the _Stage
    of every t = n - 1 down to 0."""
    key = ("de_sweep", decoder)
    if key not in spec._cache:
        use_fccn = decoder == "bpscc1"
        bits = [(ell, prefix, left_partial_sums(pack_rows(prefix[None, :]), ell))
                for ell, prefix in (_hypothesis(spec, decoder, i)
                                    for i in spec.A)]
        spec._cache[key] = (
            np.array([prefix[ell] for ell, prefix, _ in bits], dtype=np.int64),
            tuple(_stage(spec, bits, t, use_fccn)
                  for t in range(spec.n - 1, -1, -1)))
    return spec._cache[key]


def de_run(spec: CodeSpec, decoder: str, p: float):
    """Per-bit error estimates P_b(i) for i in A and the block estimate P_B.

    Each information bit is analyzed through the H_{i,1} hypothesis check
    with an all-zero past: the hypothesis prefix is zero except for the bit
    itself and the parity values it forces, and the block error follows as
    1 - prod(1 - P_b(i)). sc skips both the parity span and the FCCNs; scc
    keeps the span but skips the FCCNs; bpscc1 runs one full sweep.

    All K information bits are swept in one pass. Stage t + 1 holds one
    (K * 2^(t + 1), 4) array, bit by bit. Its FCCN round is one
    de_fccn_update on the union plan of the bits' checks. The step down to
    stage t is one psi_boxplus call on the bits whose processing index has
    bit t clear and one psi_boxdot call, with each bit's partial sums, on
    the others. Every row's arithmetic is that of a sweep of its bit alone,
    so the outputs are those of one sweep per bit, bit for bit. The plan is
    built on the first call and memoized on the spec.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"erasure probability {p} out of range")
    if decoder not in ("sc", "scc", "bpscc1"):
        raise ValueError(f"unknown decoder {decoder!r} for density evolution")
    leaf, stages = _sweep(spec, decoder)
    K = leaf.size
    pmfs = np.tile(channel_pmf(p), (K * spec.N, 1))
    for t, stage in zip(range(spec.n - 1, -1, -1), stages):
        if stage.plan is not None:
            de_fccn_update(pmfs, stage.plan, stage.phi)
        halves = pmfs.reshape(K, 2, 1 << t, 4)
        pmfs = np.empty((K, 1 << t, 4))
        plus, dot = stage.plus, stage.dot
        if plus.size:
            pmfs[plus] = psi_boxplus(halves[plus, 0], halves[plus, 1])
        if dot.size:
            pmfs[dot] = psi_boxdot(halves[dot, 0], halves[dot, 1], stage.beta)
        pmfs = pmfs.reshape(-1, 4)
    per_bit = 0.5 * (pmfs[np.arange(K), leaf] + pmfs[:, ERASURE])
    bler = 1.0 - np.prod(1.0 - per_bit)
    return per_bit, float(bler)
