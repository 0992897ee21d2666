"""Density evolution for erasure-channel SC-family decoders.

A symbol PMF is a length-4 float array over (0, 1, erasure, conflict),
indexed by the integer symbol codes. The stage transfer functions are the
pushforwards of the combining operators under independent inputs; the
forward-only per-bit run tracks the wrong-hypothesis check H_{i,1} under
the all-zero-codeword convention and turns the per-bit pass probability
into a block error estimate via the independence product.
"""

from __future__ import annotations

import numpy as np

from .codes import CodeSpec
from .constraints import check_lists, system_structure
from .decoders import build_hypothesis, processing_index
from .gf2 import kron_power
from .symbols import BOX_DOT, BOX_PLUS, CONFLICT, ERASURE

__all__ = [
    "channel_pmf",
    "point_mass",
    "psi_boxplus",
    "psi_boxdot",
    "de_fccn_update",
    "de_run",
]

_SWAP01 = np.array([1, 0, 2, 3])


def _pushforward(table: np.ndarray) -> np.ndarray:
    """One-hot tensor M[a, b, s] = 1 iff table[a, b] == s."""
    return (np.asarray(table)[:, :, None] == np.arange(4)).astype(float)


_M_PLUS = _pushforward(BOX_PLUS)
_M_DOT = _pushforward(BOX_DOT)


def point_mass(symbol: int) -> np.ndarray:
    pmf = np.zeros(4)
    pmf[symbol] = 1.0
    return pmf


def channel_pmf(p: float) -> np.ndarray:
    return np.array([1.0 - p, 0.0, p, 0.0])


def psi_boxplus(p1: np.ndarray, p2: np.ndarray) -> np.ndarray:
    """PMF of a ⊞ b for independent symbols a ~ p1, b ~ p2."""
    return np.einsum("a,b,abs->s", p1, p2, _M_PLUS)


def psi_boxdot(p1: np.ndarray, p2: np.ndarray, b: int = 0) -> np.ndarray:
    """PMF of (a ⊞ b) ⊡ c for independent a ~ p1, c ~ p2 and a known bit b.

    b = 1 swaps the roles of p1[0] and p1[1]; the two-argument form used in
    the FCCN update is the b = 0 case.
    """
    if b:
        p1 = p1[_SWAP01]
    return np.einsum("a,b,abs->s", p1, p2, _M_DOT)


def de_fccn_update(pmfs: list[np.ndarray], lists, phi: np.ndarray) -> None:
    """Combine each attached VN with its most conflict-informative check.

    For every variable node the check-to-variable PMF q_{j->k} folds the
    point mass at the offset phi_j with the other neighbors' PMFs through
    psi_boxplus; only the message with the largest conflict mass (ties to
    the smallest check index) is folded back, to limit cycle effects.
    lists is (vn_of, checks_of) from constraints.check_lists.
    """
    vn_of, checks_of = lists
    snapshot = [pmf.copy() for pmf in pmfs]
    for k, incident in enumerate(checks_of):
        if not incident:
            continue
        best = None
        for j in incident:
            q = point_mass(int(phi[j]))
            for l in vn_of[j]:
                if l != k:
                    q = psi_boxplus(q, snapshot[l])
            if best is None or q[CONFLICT] > best[CONFLICT]:
                best = q
        pmfs[k] = psi_boxdot(pmfs[k], best, 0)


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
    if decoder not in ("sc", "scc", "bpscc1", "bp_scc1"):
        raise ValueError(f"unknown decoder {decoder!r} for density evolution")
    sc_mode = decoder == "sc"
    use_fccn = decoder.startswith("bp")

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
        pmfs = [channel_pmf(p) for _ in range(spec.N)]
        for t in range(spec.n - 1, -1, -1):
            if use_fccn:
                cols, _, offsets = system_structure(spec, ell, t + 1)
                if cols:
                    phi = (prefix.astype(np.int64) @ offsets.astype(np.int64)) % 2
                    de_fccn_update(pmfs, check_lists(spec, ell, t + 1), phi)
            half = 1 << t
            if (ell >> t) & 1 == 0:
                pmfs = [psi_boxplus(pmfs[k], pmfs[k + half]) for k in range(half)]
            else:
                lo = (ell >> (t + 1)) << (t + 1)
                beta = (prefix[lo:lo + half].astype(np.int64)
                        @ kron_power(t).astype(np.int64)) % 2
                pmfs = [psi_boxdot(pmfs[k], pmfs[k + half], int(beta[k]))
                        for k in range(half)]
        leaf = pmfs[0]
        per_bit.append(0.5 * (leaf[int(prefix[ell])] + leaf[ERASURE]))

    per_bit = np.array(per_bit)
    bler = 1.0 - np.prod(1.0 - per_bit)
    return per_bit, float(bler)
