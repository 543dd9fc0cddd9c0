"""A fixed reference kernel that measures how fast the host runs right now.

The host shares its CPUs with other load and changes speed by up to 1.8x in
phases that last minutes, longer than one run (NOTES.md, "Host noise").  A
worker times this kernel after every repetition and every start-up probe.
run.py scales each time metric by ``NOMINAL_S / median(kernel times)``: it
reports seconds on a host that runs the kernel in ``NOMINAL_S``.

The kernel uses numpy and Python only, never viscoflow, so a change to the
program cannot change it.  It mixes the kinds of work the workloads do,
because no single kind tracked every workload: batched 2-D FFTs, numpy
calls on small arrays, interpreter-bound Python, and streaming over arrays
larger than the per-core L2.
"""

from __future__ import annotations

import time

import numpy as np

NOMINAL_S = 0.04

_rng = np.random.default_rng(0)
_SPECTRAL = _rng.standard_normal((2, 64, 64)) + 1j * _rng.standard_normal((2, 64, 64))
_SMALL = _rng.standard_normal((64, 64))
_STREAM = _rng.standard_normal((2, 1 << 18))     # 2 x 2 MiB


def _fft():
    for _ in range(60):
        np.fft.ifft2(np.fft.fft2(_SPECTRAL, axes=(-2, -1)) * 0.5, axes=(-2, -1))


def _small_arrays():
    x = _SMALL
    for _ in range(600):
        x = x * 0.999 + _SMALL


def _interpreter():
    d, s = {}, 0
    for i in range(60000):
        d[i & 255] = i
        s += d[i & 127]


def _stream():
    a, b = _STREAM
    for _ in range(25):
        np.add(a, b, out=a)
        np.multiply(a, 0.5, out=a)


def time_kernel() -> float:
    """Wall seconds of one pass of the reference kernel."""
    t0 = time.perf_counter()
    _fft()
    _small_arrays()
    _interpreter()
    _stream()
    return time.perf_counter() - t0
