"""Per-hypothesis BEC decoding engines: plain SC, SCC, and BP-SCC.

A hypothesis H_{i,b} fixes the input-word prefix through the processing
index ell_i (the last index before the next information bit). The check
engine runs the erasure-symbol sweep down the decoding tree toward leaf
ell_i, optionally exchanging messages with the attached instant-constraint
check nodes (FCCNs) at each stage, and reports whether the hypothesis
survived: r = 0 exactly when a conflict was detected.

This module is the scalar reference engine; batch.py vectorizes the same
update rules across trials and is cross-checked against this one. No
production module calls it. It walks each FCCN's member list
(check_lists, the support of the check's column of Q) with the symbol
tables of symbols.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codes import CodeSpec
from .constraints import system_structure
from .gf2 import kron_power, mat_mul
from .symbols import BOX_DOT, BOX_PLUS, CONFLICT, ERASURE

__all__ = [
    "InstantGraph",
    "Hypothesis",
    "HypothesisReport",
    "processing_index",
    "build_hypothesis",
    "check_lists",
    "make_graph",
    "cancel_prefix",
    "sc_decode_bit",
    "bp_scc_check",
]


@dataclass
class InstantGraph:
    """Mutable sweep state for one hypothesis check.

    alpha[t] covers the stage-t block T(ell, t) (2^t symbols); beta[t] holds
    the re-encoded left-sibling values where the path descends right; fccn[t]
    holds the instant systems attached at stage t as (vn_of, phi): the
    variables of each check and the checks' prefix offsets.
    """

    ell: int
    alpha: list[list[int]]
    beta: dict[int, list[int]]
    fccn: dict[int, tuple[tuple, np.ndarray]]


@dataclass(frozen=True)
class Hypothesis:
    i: int
    b: int
    ell: int
    prefix: np.ndarray  # length ell + 1, indices 0..ell

    def __post_init__(self):
        if len(self.prefix) != self.ell + 1:
            raise ValueError("hypothesis prefix must cover 0..ell")


@dataclass(frozen=True)
class HypothesisReport:
    r: int
    symbol: int
    iterations_used: int


def processing_index(spec: CodeSpec, i: int) -> int:
    """Last index strictly before the next information bit (or N-1), read
    off the spec's table."""
    if not (0 <= i < spec.N and spec.info_mask[i]):
        raise ValueError(f"bit {i} is not an information bit")
    return int(spec.ell[i])


def build_hypothesis(spec: CodeSpec, prefix_estimates, i: int, b: int) -> Hypothesis:
    """Prefix vector for H_{i,b}: past estimates, then b, then the forced bits.

    Indices strictly between i and the processing index are frozen or parity
    positions; their values follow from the hypothesized prefix through the
    corresponding T column.
    """
    prefix_estimates = np.asarray(prefix_estimates, dtype=np.uint8)
    if prefix_estimates.shape != (i,):
        raise ValueError(f"prefix estimates must have length {i}")
    ell = processing_index(spec, i)
    u = np.zeros(ell + 1, dtype=np.uint8)
    u[:i] = prefix_estimates
    u[i] = b
    for j in range(i + 1, ell + 1):
        u[j] = int(u[:j] @ spec.T[:j, j]) & 1
    return Hypothesis(i=i, b=b, ell=ell, prefix=u)


def _row_supports(m: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """Column indices of the nonzero entries of each row of m."""
    cols = np.nonzero(m)[1].tolist()
    ends = np.cumsum(np.count_nonzero(m, axis=1)).tolist()
    return tuple(tuple(cols[a:b]) for a, b in zip([0] + ends[:-1], ends))


def check_lists(spec: CodeSpec, ell: int, t: int) -> tuple:
    """vn_of of the stage-t systems, memoized: the variables of each check,
    ascending (the support of its column of Q)."""
    key = ("lists", ell, t)
    if key not in spec._cache:
        spec._cache[key] = _row_supports(system_structure(spec, ell, t)[1].T)
    return spec._cache[key]


def make_graph(spec: CodeSpec, y, hyp: Hypothesis, use_fccn: bool) -> InstantGraph:
    """Fresh sweep state: channel symbols at the root, erasures below."""
    y = list(y)
    if len(y) != spec.N:
        raise ValueError("y must have length N")
    alpha: list[list[int]] = [[ERASURE] * (1 << t) for t in range(spec.n)]
    alpha.append(list(y))
    fccn = {}
    if use_fccn:
        for t in range(1, spec.n + 1):
            cols, _, offsets = system_structure(spec, hyp.ell, t)
            if cols:
                fccn[t] = (check_lists(spec, hyp.ell, t),
                           mat_mul(hyp.prefix[None, :], offsets)[0])
    graph = InstantGraph(ell=hyp.ell, alpha=alpha, beta={}, fccn=fccn)
    cancel_prefix(graph, hyp)
    return graph


def cancel_prefix(graph: InstantGraph, hyp: Hypothesis) -> InstantGraph:
    """Re-encode the hypothesis prefix into the left-sibling beta values.

    Wherever the path to leaf ell descends into a right child at stage t,
    the left sibling block covers input indices below ell only, so its
    stage-t partial transforms are fully determined by the prefix.
    """
    ell = graph.ell
    for t in range(len(graph.alpha) - 1):
        if (ell >> t) & 1:
            lo = ((ell >> (t + 1)) << (t + 1))
            left = hyp.prefix[lo:lo + (1 << t)]
            graph.beta[t] = [int(v) & 1 for v in (left @ kron_power(t)) % 2]
    return graph


def _fccn_pass(graph: InstantGraph, t: int) -> bool:
    """One extrinsic check-to-variable round at stage t; True on conflict."""
    if t not in graph.fccn:
        return False
    vn_of, phi = graph.fccn[t]
    alpha = graph.alpha[t]
    messages: list[list[tuple[int, int]]] = [[] for _ in alpha]
    for j, neighbors in enumerate(vn_of):
        for k in neighbors:
            msg = int(phi[j])
            for l in neighbors:
                if l != k:
                    msg = BOX_PLUS[msg][alpha[l]]
            messages[k].append((j, msg))
    for k, incoming in enumerate(messages):
        merged = alpha[k]
        for _, msg in incoming:
            merged = BOX_DOT[merged][msg]
        alpha[k] = merged
        if merged == CONFLICT:
            return True
    return False


def _sweep(graph: InstantGraph, use_fccn: bool) -> bool:
    """One top-down iteration; True if a conflict appeared anywhere."""
    ell = graph.ell
    n = len(graph.alpha) - 1
    for t in range(n - 1, -1, -1):
        if use_fccn and _fccn_pass(graph, t + 1):
            return True
        parent = graph.alpha[t + 1]
        child = graph.alpha[t]
        half = 1 << t
        if (ell >> t) & 1 == 0:
            for k in range(half):
                a, c, old = parent[k], parent[k + half], child[k]
                child[k] = BOX_DOT[old][BOX_PLUS[a][c]]
                parent[k] = BOX_DOT[a][BOX_PLUS[old][c]]
                parent[k + half] = BOX_DOT[c][BOX_PLUS[old][a]]
        else:
            beta = graph.beta[t]
            for k in range(half):
                a, c, old = parent[k], parent[k + half], child[k]
                child[k] = BOX_DOT[old][BOX_DOT[BOX_PLUS[a][beta[k]]][c]]
                parent[k] = BOX_DOT[BOX_PLUS[old][beta[k]]][a]
                parent[k + half] = BOX_DOT[old][c]
        if CONFLICT in child or CONFLICT in parent:
            return True
    return False


def sc_decode_bit(spec: CodeSpec, graph: InstantGraph, hyp: Hypothesis) -> int:
    """Plain SC symbol for leaf ell: forward combining only, no FCCNs."""
    _sweep(graph, use_fccn=False)
    return graph.alpha[0][0]


def bp_scc_check(spec: CodeSpec, graph: InstantGraph, hyp: Hypothesis,
                 i_max: int = 1, use_fccn: bool = True) -> HypothesisReport:
    """Check hypothesis H_{i,b}: sweep, compare the processing symbol, repeat.

    r = 0 exactly when a conflict is detected, either as an eta symbol
    anywhere or as a concrete processing symbol differing from the
    prescribed one. A processing symbol still erased after i_max sweeps
    yields r = 1 with the erasure surfaced for the search layer.
    """
    prescribed = int(hyp.prefix[hyp.ell])
    for it in range(1, i_max + 1):
        if _sweep(graph, use_fccn):
            return HypothesisReport(r=0, symbol=CONFLICT, iterations_used=it)
        symbol = graph.alpha[0][0]
        if symbol == prescribed:
            return HypothesisReport(r=1, symbol=symbol, iterations_used=it)
        if symbol != ERASURE:
            return HypothesisReport(r=0, symbol=symbol, iterations_used=it)
    return HypothesisReport(r=1, symbol=ERASURE, iterations_used=i_max)
