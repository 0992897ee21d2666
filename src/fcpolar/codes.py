"""Code construction: rate profiles, outer CRC, and the pre-transform pair (T, H).

A code is described by the index partition of [0, N): information set A,
parity set P (dynamic frozen bits driven by the outer code), and frozen set F.
The pre-transform matrix T maps a length-N vector v with v[A] = message,
v elsewhere 0, to the polar input word u = v T; its parity columns encode
u_i = u_0^{i-1} T[0:i, i] for i in P. The companion matrix H satisfies
T H = 0 and u H = 0 exactly for valid input words; H' keeps the columns of H
indexed by the complement of A.
_assemble checks the invariant under which u = v T, that recursion and
u H = 0 agree, and stores the index tables that every engine reads.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import lru_cache
from importlib import resources

import numpy as np

from .gf2 import kron_power, mat_mul

NR_CRC11_TAPS = (1, 1, 1, 0, 0, 0, 1, 0, 0, 0, 0, 1)  # D^11+D^10+D^9+D^5+1


@dataclass(frozen=True)
class OuterCode:
    """Outer systematic code appending CRC-style parity to the message."""

    kind: str
    generator_taps: tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.generator_taps) - 1


@dataclass(frozen=True, eq=False)
class CodeSpec:
    """Everything the decoders need to know about one concatenated code."""

    n: int
    N: int
    K: int
    A: tuple[int, ...]
    P: tuple[int, ...]
    F: tuple[int, ...]
    T: np.ndarray
    H: np.ndarray
    H_prime: np.ndarray
    outer: OuterCode | None
    info_mask: np.ndarray    # (N,) bool: i in A
    parity_mask: np.ndarray  # (N,) bool: i in P
    ell: np.ndarray          # (N,) next index in A minus 1, else N - 1
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def generator(self) -> np.ndarray:
        return kron_power(self.n)

    def code_hash(self) -> str:
        """Hash of the T and H bit patterns, for result provenance."""
        return hashlib.sha256(self.T.tobytes() + self.H.tobytes()).hexdigest()[:16]


def crc_remainder(bits, taps) -> np.ndarray:
    """Remainder of bits(D) * D^deg divided by the generator taps (MSB
    first), for each row of bits along its last axis."""
    taps = np.asarray(taps, dtype=np.uint8)
    bits = np.asarray(bits, dtype=np.uint8)
    reg = np.concatenate([bits, np.zeros(bits.shape[:-1] + (len(taps) - 1,),
                                         dtype=np.uint8)], axis=-1)
    for i in range(bits.shape[-1]):
        reg[..., i:i + len(taps)] ^= reg[..., i:i + 1] * taps
    return reg[..., bits.shape[-1]:]


@lru_cache(maxsize=1)
def load_nr_sequence() -> tuple[int, ...]:
    """Bundled 1024-entry polar reliability sequence (TS 38.212)."""
    text = resources.files("fcpolar.data").joinpath("nr_reliability_1024.txt").read_text()
    vals = []
    for line in text.splitlines():
        line = line.split("#")[0].strip()
        if line:
            vals.extend(int(t) for t in line.split())
    if sorted(vals) != list(range(1024)):
        raise ValueError("bundled reliability table is not a permutation of 0..1023")
    return tuple(vals)


def nr_profile(N: int) -> tuple[int, ...]:
    """The sub-channel indices of blocklength N, most reliable last."""
    if N < 2 or N & (N - 1) or N > 1024:
        raise ValueError(f"N must be a power of two in [2, 1024], got {N}")
    return tuple(i for i in load_nr_sequence() if i < N)


def _assemble(n, N, A, P, F, T, outer) -> CodeSpec:
    """Check T, build H and the read-only index tables, and package the
    spec; shared by all constructors. T must be upper-triangular with unit
    A columns, no F column tapped above its diagonal and no P column
    tapping a P row."""
    A, P, F = tuple(A), tuple(P), tuple(F)
    info, parity = np.zeros((2, N), dtype=bool)
    info[list(A)] = parity[list(P)] = True
    rows, cols = np.nonzero(T)
    above = rows < cols
    if (rows > cols).any():
        raise ValueError("T must be upper-triangular")
    if info[cols[above]].any() or not T[A, A].all():
        raise ValueError("every column of T in A must be a unit column")
    # the columns outside A and P are F
    if not parity[cols[above]].all():
        raise ValueError("a column of T in F has a tap above its diagonal")
    if parity[rows[above]].any():
        raise ValueError("a column of T in P taps another P row")
    # so H is T with its diagonal set to 1 off A and to 0 on A
    H = T.astype(np.uint8)
    np.fill_diagonal(H, ~info)
    ell = np.array(A + (N,))[np.searchsorted(A, np.arange(N), side="right")] - 1
    for table in (info, parity, ell):
        table.setflags(write=False)
    return CodeSpec(n=n, N=N, K=len(A), A=A, P=P, F=F, T=T, H=H,
                    H_prime=np.ascontiguousarray(H[:, ~info]), outer=outer,
                    info_mask=info, parity_mask=parity, ell=ell)


def build_example1() -> CodeSpec:
    """The (8, 3) running example: A = {3,5,7}, one parity bit u6 = u3 + u5."""
    N, A, P, F = 8, (3, 5, 7), (6,), (0, 1, 2, 4)
    T = np.zeros((N, N), dtype=np.uint8)
    for i in A:
        T[i, i] = 1
    T[3, 6] = T[5, 6] = 1
    return _assemble(3, N, A, P, F, T, OuterCode(kind="parity", generator_taps=(1, 1)))


def build_nr_code(N: int, K: int, crc: str = "nr11") -> CodeSpec:
    """CRC-concatenated polar code on the bundled NR reliability profile.

    The K-bit message plus its CRC occupy the K+r most reliable sub-channels
    in ascending index order, so the parity bits land on the r largest
    allocated indices and T stays upper triangular.
    """
    if K < 1:
        raise ValueError("K must be at least 1")
    if crc == "nr11":
        outer = OuterCode(kind="crc", generator_taps=NR_CRC11_TAPS)
    elif crc == "none":
        outer = None
    else:
        raise ValueError(f"unknown outer code {crc!r}")
    r = outer.degree if outer else 0
    if K + r > N:
        raise ValueError(f"K + {r} parity bits exceed N = {N}")
    n = int(N).bit_length() - 1
    allocated = tuple(sorted(nr_profile(N)[N - K - r:]))
    A, P = allocated[:K], allocated[K:]
    F = tuple(sorted(set(range(N)) - set(allocated)))

    T = np.zeros((N, N), dtype=np.uint8)
    for i in A:
        T[i, i] = 1
    if outer:
        T[np.ix_(A, P)] = crc_remainder(np.eye(K, dtype=np.uint8),
                                        outer.generator_taps)
    return _assemble(n, N, A, P, F, T, outer)


def encode(spec: CodeSpec, message) -> np.ndarray:
    """Map a K-bit message to the transmitted codeword x = u G."""
    if np.shape(message) != (spec.K,):
        raise ValueError(f"message must have length {spec.K}")
    return mat_mul(input_word(spec, message)[None, :], spec.generator)[0]


def input_word(spec: CodeSpec, message) -> np.ndarray:
    """The polar input word u for a message, with parity bits filled in."""
    message = np.asarray(message, dtype=np.uint8)
    v = np.zeros(spec.N, dtype=np.uint8)
    v[list(spec.A)] = message
    return mat_mul(v[None, :], spec.T)[0]
