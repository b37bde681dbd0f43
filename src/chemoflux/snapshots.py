"""Raw field snapshot format (CFX1).

Layout: 16-byte header -- magic ``CFX1``, u32 N, u32 component count,
u32 reserved (zero) -- followed by ``count`` blocks of N*N little-endian
float64 samples, row-major within a block, component-major between blocks.
"""

from __future__ import annotations

import struct

import numpy as np

MAGIC = b"CFX1"
_HEADER = struct.Struct("<4sIII")


def write_snapshot(path, components) -> None:
    """Write one or more N x N sample arrays to a CFX1 file."""
    arrays = [np.ascontiguousarray(c, dtype="<f8") for c in components]
    if not arrays:
        raise ValueError("snapshot needs at least one component")
    n = arrays[0].shape[0]
    for a in arrays:
        if a.shape != (n, n):
            raise ValueError(f"component shape {a.shape} != {(n, n)}")
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, n, len(arrays), 0))
        for a in arrays:
            fh.write(a.data)   # the buffer itself, not a bytes copy of it

