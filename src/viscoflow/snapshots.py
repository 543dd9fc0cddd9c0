"""Self-describing binary snapshot format for spectral fields.

Layout (all integers little-endian unsigned 32-bit, floats little-endian
IEEE-754 binary64):

    offset  size  content
    0       8     magic bytes b"VISCOFLD"
    8       4     format version (currently 1)
    12      4     spatial dimension (2 or 3)
    16      4     rank code: 0 scalar, 1 vector, 2 matrix
    20      4     points per axis n
    24      8     domain scale L (float64)
    32      4     component count (1, dim, or dim*dim)
    36      8     dealias fraction (float64)
    44      ...   for each component, in row-major component order, the
                  complex coefficients as (re, im) float64 pairs in
                  row-major wavevector order (numpy C order of the
                  full FFT layout, axis frequencies 0..n/2-1, -n/2..-1)

Coefficients use the package normalization: the k=0 entry is the grid mean.

The file holds this v1 full layout.  Fields are stored in memory as their
``rfftn`` half (see ``grid``): ``save_field`` writes the full layout rebuilt
by ``grid.full_spectrum``, and ``load_field`` keeps the half of the file's
coefficients, the columns k_last = 0..n/2.
"""

from __future__ import annotations

import os
import struct

import numpy as np

from .errors import InputError
from .grid import Grid, SpectralField, full_spectrum

MAGIC = b"VISCOFLD"
VERSION = 1
_RANK_CODE = {"scalar": 0, "vector": 1, "matrix": 2}
_CODE_RANK = {v: k for k, v in _RANK_CODE.items()}
_HEADER = struct.Struct("<8sIIIIdId")    # magic through dealias fraction: 44 bytes


def save_field(path, f: SpectralField):
    g = f.grid
    ncomp = f.ncomp
    header = _HEADER.pack(MAGIC, VERSION, g.dim, _RANK_CODE[f.rank],
                          g.n, g.length, ncomp, g.dealias_frac)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(full_spectrum(f), dtype="<c16").tobytes())


def load_field(path) -> SpectralField:
    """Read a snapshot; any file that is not exactly a v1 field is an InputError."""
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise InputError(f"cannot read snapshot {path}: {exc.strerror}") from None
    with fh:
        size = os.fstat(fh.fileno()).st_size
        header = fh.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise InputError(f"snapshot {path}: {len(header)} bytes, shorter than "
                             f"the {_HEADER.size}-byte header")
        magic, version, dim, rank_code, n, length, ncomp, frac = _HEADER.unpack(header)
        if magic != MAGIC:
            raise InputError(f"snapshot {path}: not a field snapshot, bad magic {magic!r}")
        if version != VERSION:
            raise InputError(f"snapshot {path}: unsupported version {version}")
        if rank_code not in _CODE_RANK:
            raise InputError(f"snapshot {path}: unknown rank code {rank_code}")
        if dim not in (2, 3):
            raise InputError(f"snapshot {path}: unsupported dimension {dim}")
        # checked before any allocation: 1, dim or dim*dim components
        if ncomp != dim ** rank_code:
            raise InputError(f"snapshot {path}: component count {ncomp} "
                             f"inconsistent with rank {_CODE_RANK[rank_code]}")
        expected_size = _HEADER.size + ncomp * n ** dim * 16
        if size != expected_size:
            raise InputError(f"snapshot {path}: {size} bytes, expected {expected_size} "
                             f"for {ncomp} components on {n}^{dim} points")
        grid = Grid(dim, n, length, frac)
        full = np.frombuffer(fh.read(expected_size - _HEADER.size), dtype="<c16")
    full = full.reshape((dim,) * rank_code + (n,) * dim)
    return SpectralField(grid, np.ascontiguousarray(full[..., :n // 2 + 1], dtype=np.complex128))
