"""Density evolution for erasure-channel SC-family decoders.

A symbol PMF is a length-4 float row over (0, 1, erasure, conflict),
indexed by the integer symbol codes; the PMFs of a stage are one (m, 4)
array, one row per block variable. The stage transfer functions are the
pushforwards of the combining operators under independent inputs; the
forward-only per-bit run tracks the wrong-hypothesis check H_{i,1} under
the all-zero-codeword convention and turns the per-bit pass probability
into a block error estimate via the independence product.

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

from .codes import CodeSpec
from .constraints import check_lists, system_structure
from .decoders import build_hypothesis
from .gf2 import kron_power
from .symbols import BOX_DOT, BOX_PLUS, CONFLICT, ERASURE, SYMBOLS

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


def _sum_plan(table) -> tuple:
    """How _pushforward sums the pushforward of an operator table.

    The terms of symbol s are the pairs (a, b) with table[a][b] == s in
    row-major order. Symbols are ranked by term count, ascending, and the
    terms laid out step-major: step r holds the r-th term of every symbol
    that has one, which is a trailing run of the ranking. Returns the
    operand indices of every term, the (start, width) of steps 1, 2, ...,
    and the ranking's inverse.
    """
    terms = [[(a, b) for a in SYMBOLS for b in SYMBOLS if table[a][b] == s]
             for s in SYMBOLS]
    rank = sorted(SYMBOLS, key=lambda s: len(terms[s]))
    pairs, steps = [], []
    for r in range(len(terms[rank[-1]])):
        live = [terms[s][r] for s in rank if len(terms[s]) > r]
        steps.append((len(pairs), len(live)))
        pairs += live
    a, b = np.array(pairs).T
    return a, b, steps[1:], np.argsort(rank)


_PLUS = _sum_plan(BOX_PLUS)
_DOT = _sum_plan(BOX_DOT)


def _pushforward(p1: np.ndarray, p2: np.ndarray, plan) -> np.ndarray:
    """Rows of the PMF of table(a, b) for independent a ~ p1, b ~ p2. Each
    symbol's terms are added left to right; one add per step covers every
    symbol that still has a term."""
    a, b, steps, unrank = plan
    prod = p1[..., a] * p2[..., b]
    acc = prod[..., :4]
    for start, width in steps:
        acc[..., 4 - width:] += prod[..., start:start + width]
    return acc[..., unrank]


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
    members: np.ndarray    # their member lists, concatenated in that order
    first: np.ndarray      # position in members of each ranked check's first
    prefix_rows: tuple     # checks with more than s members, s = 0, 1, ...
    start: np.ndarray      # row of each pair's shared prefix fold
    nxt: np.ndarray        # position in members of each pair's next member
    active: tuple          # pairs with more than s members left to fold
    by_vn: np.ndarray      # pairs in (VN, check) order
    seg: np.ndarray        # where each VN's run of pairs starts in by_vn
    vns: np.ndarray        # the VN of each run


def fccn_plan(vn_of) -> FccnPlan:
    """Plan of the FCCN round over the checks' member lists vn_of (each
    ascending), as built by constraints.check_lists.

    A pair (j, k) of a check and one of its members folds the check offset
    with the members of j before k, then those after k. The folds before k
    are shared prefix folds of check j; a pair then folds only the members
    after k. Checks are ranked and pairs sorted by how many members remain,
    so the rows still folding at any step are a leading slice.
    """
    deg = np.fromiter(map(len, vn_of), dtype=np.int64, count=len(vn_of))
    order = np.argsort(-deg, kind="stable")
    order = order[deg[order] > 0]
    deg = deg[order]
    members = np.fromiter(chain.from_iterable(vn_of[j] for j in order),
                          dtype=np.int32, count=int(deg.sum()))
    first = np.cumsum(deg) - deg
    top = int(deg[0]) if deg.size else 0
    prefix_rows = tuple(int(np.count_nonzero(deg > s)) for s in range(top))
    # pair (rank r, member i) starts from prefix fold i of check r, stored
    # at row offset[i] + r of the stacked prefix folds
    rank = np.repeat(np.arange(deg.size), deg)
    i = np.arange(members.size) - first[rank]
    left = deg[rank] - 1 - i
    by_left = np.argsort(-left, kind="stable")
    offset = np.cumsum((0,) + prefix_rows)
    active = tuple(int(np.count_nonzero(left > s)) for s in range(top - 1))
    vn, check = members[by_left], order[rank[by_left]]
    by_vn = np.lexsort((check, vn))
    seg = np.flatnonzero(np.diff(vn[by_vn], prepend=-1))
    return FccnPlan(order=order.astype(np.int32), members=members,
                    first=first.astype(np.int32), prefix_rows=prefix_rows,
                    start=(offset[i] + rank)[by_left].astype(np.int32),
                    nxt=(first[rank] + i + 1)[by_left].astype(np.int32),
                    active=active, by_vn=by_vn.astype(np.int32),
                    seg=seg.astype(np.int32),
                    vns=vn[by_vn][seg].astype(np.int32))


def _plan(spec: CodeSpec, ell: int, t: int) -> FccnPlan:
    """fccn_plan of the stage-t systems of step ell, memoized on the spec."""
    key = ("de_fccn", ell, t)
    if key not in spec._cache:
        spec._cache[key] = fccn_plan(check_lists(spec, ell, t)[0])
    return spec._cache[key]


def de_fccn_update(pmfs: np.ndarray, plan: FccnPlan, phi: np.ndarray) -> None:
    """Combine each attached VN with its most conflict-informative check.

    pmfs is the (m, 4) array of the block's PMFs, updated in place; plan is
    fccn_plan of the checks' member lists and phi their offsets. For every
    pair of a check j and a member k, the check-to-variable PMF q_{j->k}
    starts at the point mass at phi_j and folds, through psi_boxplus, the
    round-start PMFs of the other members of j in ascending order (the
    running q is the first operand). Only the message with the largest
    conflict mass (ties to the smallest check index) is folded back into
    pmfs[k] through psi_boxdot, to limit cycle effects. All pairs fold at
    once, one psi_boxplus call per step.
    """
    if not plan.vns.size:
        return
    rows = len(plan.order)
    fold = np.zeros((rows, 4))
    fold[np.arange(rows), phi[plan.order]] = 1.0
    prefixes = [fold]
    for s, n in enumerate(plan.prefix_rows[1:]):
        fold = psi_boxplus(fold[:n], pmfs[plan.members[plan.first[:n] + s]])
        prefixes.append(fold)
    q = np.concatenate(prefixes)[plan.start]
    for s, n in enumerate(plan.active):
        q[:n] = psi_boxplus(q[:n], pmfs[plan.members[plan.nxt[:n] + s]])
    conflict = q[plan.by_vn, CONFLICT]
    peak = np.maximum.reduceat(conflict, plan.seg)
    hits = np.flatnonzero(conflict == np.repeat(
        peak, np.diff(plan.seg, append=conflict.size)))
    best = q[plan.by_vn[hits[np.searchsorted(hits, plan.seg)]]]
    pmfs[plan.vns] = psi_boxdot(pmfs[plan.vns], best)


def de_run(spec: CodeSpec, decoder: str, p: float):
    """Per-bit error estimates P_b(i) for i in A and the block estimate P_B.

    Each information bit is analyzed through the H_{i,1} hypothesis check
    with an all-zero past: the hypothesis prefix is zero except for the bit
    itself and the parity values it forces, and the block error follows as
    1 - prod(1 - P_b(i)). sc skips both the parity span and the FCCNs; scc
    keeps the span but skips the FCCNs; bpscc1 runs one full sweep.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"erasure probability {p} out of range")
    if decoder not in ("sc", "scc", "bpscc1"):
        raise ValueError(f"unknown decoder {decoder!r} for density evolution")
    sc_mode = decoder == "sc"
    use_fccn = decoder == "bpscc1"

    per_bit = []
    for i in spec.A:
        if sc_mode:
            ell = i
            prefix = np.zeros(i + 1, dtype=np.uint8)
            prefix[i] = 1
        else:
            hyp = build_hypothesis(spec, np.zeros(i, dtype=np.uint8), i, 1)
            ell = hyp.ell
            prefix = hyp.prefix
        pmfs = np.tile(channel_pmf(p), (spec.N, 1))
        for t in range(spec.n - 1, -1, -1):
            if use_fccn:
                cols, _, offsets = system_structure(spec, ell, t + 1)
                if cols:
                    phi = (prefix.astype(np.int64) @ offsets.astype(np.int64)) % 2
                    de_fccn_update(pmfs, _plan(spec, ell, t + 1), phi)
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
    bler = 1.0 - np.prod(1.0 - per_bit)
    return per_bit, float(bler)
