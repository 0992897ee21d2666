"""Future-constraint-aided successive-cancellation decoding workbench.

Tools for CRC-concatenated polar codes on the binary erasure channel:
precoding and parity-check algebra, conversion of parity constraints
into per-bit instant constraint systems, erasure-domain SC and
constraint-aided decoders with backjumping search, a list-decoding
baseline, density evolution, finite-blocklength reference bounds, and
exact MAP oracles for small codes on the BI-AWGN channel.
"""

__version__ = "0.1.0"

from .codes import CodeSpec, build_example1, build_nr_code, encode
from .scl import decode_scl

__all__ = [
    "CodeSpec",
    "build_example1",
    "build_nr_code",
    "encode",
    "decode_scl",
    "__version__",
]
