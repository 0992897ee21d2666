"""Sequential estimation over the binary decision tree, one trial at a time.

decode_sc walks the tree once, committing every level; decode_with_fc runs
the hypothesis-check traversal shared by SCC and BP-SCC, optionally with
stack-based backjumping (SBJ). They are the scalar references: the batch
engines (batch.decode_sc_batch and the stack search behind
batch.decode_fc_batch) are tested against them row by row. Node visits
are counted as decision-tree levels traversed: a check of H_{i,b} walks
the levels from just past the previous processing index through ell_i,
so a full pass over the block touches all N levels and the opportunistic
scheme averages 3N/2 checks' worth of levels on a noiseless channel. A
resumed checkpoint costs one visit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codes import CodeSpec
from .decoders import (Hypothesis, bp_scc_check, build_hypothesis, make_graph,
                       processing_index, sc_decode_bit)
from .rng import STREAM_COIN, keyed_bit

__all__ = ["BranchCheckpoint", "DecodeOutcome", "decode_sc", "decode_with_fc"]


@dataclass(frozen=True)
class BranchCheckpoint:
    i: int
    b: int
    prefix: tuple[int, ...]  # committed estimates for indices 0..i-1


@dataclass(frozen=True)
class DecodeOutcome:
    status: str  # "success" or "failure"
    u_hat: np.ndarray | None
    visited_nodes: int
    backjumps: int


def _forced_value(spec: CodeSpec, committed: list[int], i: int) -> int:
    col = spec.T[:i, i]
    return int(np.asarray(committed, dtype=np.uint8) @ col) & 1 if i else 0


def decode_sc(spec: CodeSpec, y, seed: int = 0, trial: int = 0) -> DecodeOutcome:
    """Plain SC: coin-flip unresolved information bits, never backtrack.

    Each bit flips at most once, so its coin is keyed by (seed, trial, bit)
    with count 0, the key batch.decode_sc_batch draws."""
    a_set = set(spec.A)
    committed: list[int] = []
    for i in range(spec.N):
        if i not in a_set:
            committed.append(_forced_value(spec, committed, i))
            continue
        hyp = Hypothesis(i=i, b=0, ell=i,
                         prefix=np.array(committed + [0], dtype=np.uint8))
        graph = make_graph(spec, y, hyp, use_fccn=False)
        symbol = sc_decode_bit(spec, graph, hyp)
        committed.append(symbol if symbol in (0, 1)
                         else keyed_bit(seed, STREAM_COIN, trial, i, 0))
    return DecodeOutcome(status="success", u_hat=np.array(committed, dtype=np.uint8),
                         visited_nodes=spec.N, backjumps=0)


def decode_with_fc(spec: CodeSpec, y, engine: str = "bp_scc", i_max: int = 1,
                   sbj: bool = False, seed: int = 0,
                   trial: int = 0) -> DecodeOutcome:
    """Hypothesis-check traversal for SCC (engine="scc") and BP-SCC.

    Per information bit: check H_{i,0}; on pass proceed with 0 and push the
    complementary branch; otherwise check H_{i,1}; on pass proceed with 1;
    otherwise backjump to the most recent checkpoint (sbj) or fail. The
    traversal is deterministic given the channel output: an unrefuted zero
    hypothesis is always taken first, so no coin (seed, trial) is drawn.
    A checkpoint is popped once, so no tree node is checked twice.
    """
    if engine not in ("scc", "bp_scc"):
        raise ValueError(f"unknown engine {engine!r}")
    use_fccn = engine != "scc"
    info_bits = list(spec.A)
    ell_of = {i: processing_index(spec, i) for i in info_bits}
    next_pos = {info_bits[k]: k + 1 for k in range(len(info_bits))}

    stack: list[BranchCheckpoint] = []
    committed: list[int] = []
    for j in range(info_bits[0]):
        committed.append(_forced_value(spec, committed, j))
    pos = 0  # index into info_bits
    visits = 0
    backjumps = 0
    checks = 0
    check_cap = 1 << min(spec.K + 1, 40)

    def run_check(i: int, b: int) -> int:
        nonlocal visits, checks
        prev_ell = ell_of[info_bits[next_pos[i] - 2]] if next_pos[i] >= 2 else -1
        visits += ell_of[i] - prev_ell
        checks += 1
        hyp = build_hypothesis(spec, committed, i, b)
        graph = make_graph(spec, y, hyp, use_fccn)
        report = bp_scc_check(spec, graph, hyp, i_max=i_max, use_fccn=use_fccn)
        return report.r

    def commit(i: int, b: int) -> None:
        nonlocal committed, pos
        hyp = build_hypothesis(spec, committed, i, b)
        committed = committed[:i] + [int(v) for v in hyp.prefix[i:]]
        pos = next_pos[i]

    while pos < len(info_bits):
        if checks > check_cap:
            raise RuntimeError("check budget exceeded; traversal is stuck")
        i = info_bits[pos]
        r0 = run_check(i, 0)
        if r0:
            stack.append(BranchCheckpoint(i=i, b=1, prefix=tuple(committed)))
            commit(i, 0)
            continue
        r1 = run_check(i, 1)
        if r1:
            commit(i, 1)
            continue
        if not sbj or not stack:
            return DecodeOutcome(status="failure", u_hat=None,
                                 visited_nodes=visits, backjumps=backjumps)
        cp = stack.pop()
        backjumps += 1
        visits += 1
        committed = list(cp.prefix)
        commit(cp.i, cp.b)

    u_hat = np.array(committed, dtype=np.uint8)
    return DecodeOutcome(status="success", u_hat=u_hat,
                         visited_nodes=visits, backjumps=backjumps)
