"""Dyadic frequency blocks, Besov and hybrid norms, paraproducts.

The radial cutoff chi is 1 on [0, 5/3], vanishes beyond 12/5, and descends
smoothly in between via an exp(-1/x) smoothstep, so the induced bump
psi(xi) = chi(|xi|) - chi(2|xi|) is supported in the shell
{5/6 <= |xi| <= 12/5} and the shifted family psi(2^-q xi) partitions unity
away from the origin.  Block q of a field keeps frequencies in
2^q * [5/6, 12/5]; blocks at distance >= 2 have disjoint supports.

A ``DyadicFamily`` holds the psi_q of one grid as one stack: row i is
psi(2^-q |xi|) on the stored half spectrum, q = q_lo + i, with the Nyquist
planes zeroed, plus the elementwise square of that stack flattened to
(rows, modes).  Both are built on the first call that needs them, once per
family.  Every grid owns one family, ``Grid.dyadic``, built at its first
use; every block operator and norm reads the family of its field's grid.
The family keeps the grid's arrays it reads, not the grid, so a grid is
freed by reference counting.  Since the psi_q are fixed per grid, a field's
block profile (||block_q f||_L2 over the active range) is one matrix-vector
product of the squared stack with the field's power spectrum, and a
weighted block sum is one dot product with a weight vector cached per
regularity index (s, t) (``DyadicFamily.weights``).  These two are the one
norm kernel: ``besov_norm``, ``hybrid_norm`` and the run ledger
``evolve.NormSeries`` all measure through ``block_l2_profile`` and
``weighted_sum``, and no other module reads the squared stack.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import InputError
from .grid import Grid, SpectralField, dealiased_product

_CHI_FLAT = 5.0 / 3.0          # chi == 1 up to here
_CHI_END = 12.0 / 5.0          # chi == 0 from here


def _smooth_step(t):
    """C-infinity step: 0 for t<=0, 1 for t>=1."""
    t = np.asarray(t, dtype=np.float64)
    a = np.zeros_like(t)
    pos = t > 0.0
    a[pos] = np.exp(-1.0 / t[pos])
    b = np.zeros_like(t)
    neg = t < 1.0
    b[neg] = np.exp(-1.0 / (1.0 - t[neg]))
    return a / (a + b)


def chi(r):
    """Radial low-pass profile: 1 on [0, 5/3], 0 beyond 12/5, smooth between."""
    r = np.asarray(r, dtype=np.float64)
    out = np.empty_like(r)
    out[r <= _CHI_FLAT] = 1.0
    out[r >= _CHI_END] = 0.0
    mid = (r > _CHI_FLAT) & (r < _CHI_END)
    out[mid] = 1.0 - _smooth_step((r[mid] - _CHI_FLAT) / (_CHI_END - _CHI_FLAT))
    return out


def psi(r):
    """Shell bump chi(r) - chi(2r), supported in [5/6, 12/5]."""
    r = np.asarray(r, dtype=np.float64)
    return chi(r) - chi(2.0 * r)


class DyadicFamily:
    """Block multipliers psi(2^-q |xi|) of one grid; ``grid.dyadic`` is the
    grid's own, so callers never build one.

    The active index range [q_lo, q_hi] is fixed by the grid's frequency
    extent; blocks outside it are identically zero on the grid, so all
    Z-indexed sums truncate exactly.
    """

    def __init__(self, grid: Grid):
        self.dim = grid.dim
        self.xi_mag = grid.xi_mag
        self.keep_mask = grid.keep_mask
        self.q_lo = int(np.floor(np.log2(grid.xi_min * 5.0 / 12.0)))
        self.q_hi = int(np.ceil(np.log2(grid.xi_max * 6.0 / 5.0)))
        self._chi = {}
        self._weights = {}

    @property
    def q_range(self):
        return range(self.q_lo, self.q_hi + 1)

    @cached_property
    def psi_stack(self) -> np.ndarray:
        """(rows, *spectral_shape) stack of psi_q over ``q_range``, built once."""
        q = np.arange(self.q_lo, self.q_hi + 1.0).reshape((-1,) + (1,) * self.dim)
        return psi(self.xi_mag * 2.0 ** (-q)) * self.keep_mask

    @cached_property
    def psi_sq(self) -> np.ndarray:
        """(rows, modes) elementwise square of the psi stack, built once."""
        return (self.psi_stack ** 2).reshape(len(self.q_range), -1)

    def psi_array(self, q: int) -> np.ndarray:
        """Row q of the psi stack; q must lie in the active range."""
        if not self.q_lo <= q <= self.q_hi:
            raise InputError(f"block {q} outside the active range [{self.q_lo}, {self.q_hi}]")
        return self.psi_stack[q - self.q_lo]

    def chi_array(self, q: int) -> np.ndarray:
        """Low-pass multiplier chi(2^-q |xi|) on retained modes, mean included."""
        if q not in self._chi:
            self._chi[q] = chi(self.xi_mag * 2.0 ** (-q)) * self.keep_mask
        return self._chi[q]

    def weights(self, s: float, t: float | None = None) -> np.ndarray:
        """2^(q e(q)) over the active range, with e(q) = s, or (hybrid, t
        given) s for q <= 0 and t for q >= 1: the standard low/high-frequency
        split.  Built once per (s, t); an index whose weights overflow raises
        ``InputError``."""
        if (s, t) not in self._weights:
            # float64 scalar powers: libm pow, as Python's, where the array
            # power may take a vector path that differs in the last bit
            with np.errstate(over="ignore"):
                w = np.array([np.float64(2.0) ** (q * (s if t is None or q <= 0 else t))
                              for q in self.q_range])
            if not np.isfinite(w).all():
                raise InputError(f"index {s if t is None else (s, t)} overflows the block "
                                 f"weights 2^(q s) for q in [{self.q_lo}, {self.q_hi}]")
            self._weights[s, t] = w
        return self._weights[s, t]

    def weighted_sum(self, profile: np.ndarray, s: float, t: float | None = None) -> float:
        """sum_q 2^(q e(q)) profile[q] over the active range, with the
        exponents of ``weights(s, t)``.  ``profile`` is
        ``block_l2_profile(f)``, so one profile serves every index a field is
        measured in: one dot product with the cached weight vector."""
        return float(self.weights(s, t) @ profile)

    def partition_defect(self) -> float:
        """max over nonzero retained frequencies of |sum_q psi_q - 1|."""
        total = self.psi_stack.sum(axis=0)
        mask = self.keep_mask & (self.xi_mag > 0)
        return float(np.max(np.abs(total[mask] - 1.0)))

    # -- block operators -----------------------------------------------

    def block(self, f: SpectralField, q: int) -> SpectralField:
        """Frequency localization of f to the dyadic shell of index q.

        Outside the active range the result is a zero field (documented,
        not an error): those multipliers vanish on every grid frequency.
        """
        if q < self.q_lo or q > self.q_hi:
            return SpectralField.zeros(f.grid, f.rank)
        return SpectralField(f.grid, f.coeff * self.psi_array(q))

    def low_cutoff(self, f: SpectralField, q: int) -> SpectralField:
        """Telescoped partial sum of blocks p <= q-1 (mean mode excluded)."""
        if q - 1 < self.q_lo:
            return SpectralField.zeros(f.grid, f.rank)
        g = SpectralField(f.grid, f.coeff * self.chi_array(q - 1))
        return g.project_mean_zero()

    def block_l2_profile(self, f: SpectralField) -> np.ndarray:
        """Array of ||block_q f||_L2 over the active range.

        One matrix-vector product: the squared psi stack (rows q, columns
        the stored modes) against f's Hermitian-weighted power spectrum.
        """
        return np.sqrt(self.psi_sq @ f.power_profile().ravel())


def besov_norm(f: SpectralField, s: float, fam: DyadicFamily | None = None) -> float:
    """Homogeneous Besov norm: sum_q 2^(sq) ||block_q f||_L2 (mean-zero f),
    in ``fam`` or else in the family of f's grid."""
    fam = fam or f.grid.dyadic
    return fam.weighted_sum(fam.block_l2_profile(f), s)


def hybrid_norm(f: SpectralField, s: float, t: float,
                fam: DyadicFamily | None = None) -> float:
    """Hybrid norm: exponent s on blocks q <= 0, t on blocks q >= 1.

    hybrid_norm(f, s, s) reproduces besov_norm(f, s) bit for bit: both take
    the same profile and equal weight vectors, 2^(qs) on every block.
    """
    fam = fam or f.grid.dyadic
    return fam.weighted_sum(fam.block_l2_profile(f), s, t)


# ----------------------------------------------------------------------
# paraproducts
# ----------------------------------------------------------------------

def paraproduct(f: SpectralField, g: SpectralField) -> SpectralField:
    """Low-high part of the product: sum_q (low_cutoff_{q-1} f) * (block_q g)."""
    fam = f.grid.dyadic
    out = SpectralField.zeros(f.grid, g.rank)
    for q in fam.q_range:
        low = fam.low_cutoff(f, q - 1)  # blocks p <= q-2 of f
        if np.all(low.coeff == 0):
            continue
        out = out + dealiased_product(low, fam.block(g, q))
    return out


def remainder(f: SpectralField, g: SpectralField) -> SpectralField:
    """Diagonal part of the product: blocks of f against neighbor blocks of g."""
    fam = f.grid.dyadic
    out = SpectralField.zeros(f.grid, g.rank)
    for q in fam.q_range:
        bf = fam.block(f, q)
        near = fam.block(g, q - 1) + fam.block(g, q) + fam.block(g, q + 1)
        out = out + dealiased_product(bf, near)
    return out


def bony_defect(f: SpectralField, g: SpectralField) -> float:
    """Relative gap between T_f g + T_g f + R(f,g) and the dealiased product fg."""
    direct = dealiased_product(f, g).project_mean_zero()
    recon = (paraproduct(f, g) + paraproduct(g, f) + remainder(f, g)).project_mean_zero()
    denom = direct.l2()
    if denom == 0.0:
        return (recon - direct).l2()
    return (recon - direct).l2() / denom
