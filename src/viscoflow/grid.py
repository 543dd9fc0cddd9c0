"""Periodic grid, Fourier field containers, and dealiased products.

Fields live on the torus [0, 2*pi*L)^N with N in {2, 3}.  They are stored as
complex Fourier coefficients indexed by integer wavevectors k; the physical
frequency of mode k is k/L, so a large L populates sub-integer frequencies.
Coefficients are normalized so that the k=0 entry is the grid mean and the
coefficient-sum L2 equals the grid-averaged L2 norm of the physical values
(Parseval).  The Nyquist plane is always zeroed, which keeps derivative
multipliers skew-adjoint.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError

_ALLOWED_RANKS = ("scalar", "vector", "matrix")


class Grid:
    """Uniform periodic grid with cached wavevector arrays.

    Parameters
    ----------
    dim : int
        Spatial dimension, 2 or 3.
    n : int
        Points per axis; a power of two, at least 8.
    length : float
        Domain scale L; the domain is [0, 2*pi*L)^dim and physical
        frequencies are k/L.  Must be finite and >= 1.
    dealias_frac : float
        Fraction of the spectrum kept when dealiasing products (default 2/3).
    """

    def __init__(self, dim: int, n: int, length: float = 8.0,
                 dealias_frac: float = 2.0 / 3.0):
        if dim not in (2, 3):
            raise InputError(f"dim must be 2 or 3, got {dim}")
        if n < 8 or (n & (n - 1)) != 0:
            raise InputError(f"n must be a power of two >= 8, got {n}")
        if not (1.0 <= length < np.inf):  # NaN-safe
            raise InputError(f"length must be >= 1, got {length} (finite values only)")
        if not 0.0 < dealias_frac <= 1.0:
            raise InputError(f"dealias_frac must lie in (0, 1], got {dealias_frac}")
        self.dim = dim
        self.n = n
        self.length = float(length)
        self.dealias_frac = float(dealias_frac)

        k1 = np.fft.fftfreq(n, 1.0 / n)          # integer-valued: 0..n/2-1, -n/2..-1
        shape = [1] * dim
        self.k_axes = []
        for ax in range(dim):
            s = shape.copy()
            s[ax] = n
            self.k_axes.append(k1.reshape(s))
        self.xi_axes = [k / self.length for k in self.k_axes]

        self.xi_sq = sum(x * x for x in self.xi_axes)
        self.xi_mag = np.sqrt(self.xi_sq)
        # 1/|xi| with the mean mode zeroed; callers own the mean-mode policy
        safe = np.where(self.xi_mag > 0.0, self.xi_mag, 1.0)
        self.inv_xi = np.where(self.xi_mag > 0.0, 1.0 / safe, 0.0)

        nyq = np.zeros((n,) * dim, dtype=bool)
        for k in self.k_axes:
            nyq |= (k == -n // 2)
        self.keep_mask = ~nyq

        kc = (n - 1) // 3 if dealias_frac == 2.0 / 3.0 else int(dealias_frac * (n // 2)) - 1
        self.dealias_cut = kc
        mask = np.ones((n,) * dim, dtype=bool)
        for k in self.k_axes:
            mask &= (np.abs(k) <= kc)
        self.dealias_mask = mask & self.keep_mask

        self.n_points = n ** dim
        self.xi_max = float(self.xi_mag[self.keep_mask].max())
        self.xi_min = 1.0 / self.length

    def axes_points(self):
        """1-D coordinate array, shared by every axis."""
        return np.arange(self.n) * (2.0 * np.pi * self.length / self.n)

    def meshgrid(self):
        """Physical coordinates, shape (dim, n, ..., n)."""
        x = self.axes_points()
        return np.stack(np.meshgrid(*([x] * self.dim), indexing="ij"))

    def compatible(self, other: "Grid") -> bool:
        return (self.dim == other.dim and self.n == other.n
                and self.length == other.length)

    def __repr__(self):
        return f"Grid(dim={self.dim}, n={self.n}, length={self.length})"


class SpectralField:
    """Scalar/vector/matrix field stored as Fourier coefficients.

    The coefficient array has shape ``comp_shape + (n,)*dim`` where
    ``comp_shape`` is ``()`` for scalars, ``(dim,)`` for vectors and
    ``(dim, dim)`` for matrices.
    """

    __slots__ = ("grid", "coeff")

    def __init__(self, grid: Grid, coeff: np.ndarray):
        self.grid = grid
        self.coeff = coeff

    # -- constructors -------------------------------------------------

    @classmethod
    def zeros(cls, grid: Grid, rank: str = "scalar") -> "SpectralField":
        shape = cls._comp_shape(grid, rank) + (grid.n,) * grid.dim
        return cls(grid, np.zeros(shape, dtype=np.complex128))

    @classmethod
    def from_physical(cls, grid: Grid, values: np.ndarray) -> "SpectralField":
        """Forward transform of real physical samples (Nyquist plane dropped)."""
        values = np.asarray(values, dtype=np.float64)
        spatial = values.shape[-grid.dim:]
        if spatial != (grid.n,) * grid.dim:
            raise InputError(f"physical array shape {values.shape} does not match grid {grid}")
        comp = values.shape[:values.ndim - grid.dim]
        if comp not in ((), (grid.dim,), (grid.dim, grid.dim)):
            raise InputError("component shape must be (), (dim,), or (dim, dim)")
        axes = tuple(range(values.ndim - grid.dim, values.ndim))
        coeff = np.fft.fftn(values, axes=axes) / grid.n_points
        coeff *= grid.keep_mask
        return cls(grid, coeff)

    def to_physical(self) -> np.ndarray:
        """Inverse transform; returns the real samples (a new real array, so
        the complex transform buffer is freed at once)."""
        axes = tuple(range(self.coeff.ndim - self.grid.dim, self.coeff.ndim))
        return np.fft.ifftn(self.coeff, axes=axes).real * self.grid.n_points

    @staticmethod
    def _comp_shape(grid: Grid, rank: str):
        if rank == "scalar":
            return ()
        if rank == "vector":
            return (grid.dim,)
        if rank == "matrix":
            return (grid.dim, grid.dim)
        raise InputError(f"rank must be one of {_ALLOWED_RANKS}")

    # -- structure ----------------------------------------------------

    @property
    def rank(self) -> str:
        extra = self.coeff.ndim - self.grid.dim
        return _ALLOWED_RANKS[extra]

    @property
    def ncomp(self) -> int:
        extra = self.coeff.ndim - self.grid.dim
        return self.grid.dim ** extra

    def copy(self) -> "SpectralField":
        return SpectralField(self.grid, self.coeff.copy())

    def mean_values(self) -> np.ndarray:
        """k=0 coefficients per component (the grid means)."""
        idx = (Ellipsis,) + (0,) * self.grid.dim
        return self.coeff[idx].real

    def project_mean_zero(self) -> "SpectralField":
        out = self.coeff.copy()
        idx = (Ellipsis,) + (0,) * self.grid.dim
        out[idx] = 0.0
        return SpectralField(self.grid, out)

    def dealias(self) -> "SpectralField":
        return SpectralField(self.grid, self.coeff * self.grid.dealias_mask)

    # -- algebra --------------------------------------------------------

    def __add__(self, other):
        return SpectralField(self.grid, self.coeff + other.coeff)

    def __sub__(self, other):
        return SpectralField(self.grid, self.coeff - other.coeff)

    def __mul__(self, scalar):
        return SpectralField(self.grid, self.coeff * scalar)

    __rmul__ = __mul__

    def __neg__(self):
        return SpectralField(self.grid, -self.coeff)

    # -- metrics --------------------------------------------------------

    def l2(self) -> float:
        """Grid-averaged L2 norm (Frobenius over components)."""
        return float(np.sqrt(np.sum(np.abs(self.coeff) ** 2)))

    def inner(self, other: "SpectralField") -> float:
        """Grid-averaged L2 inner product (components contracted)."""
        return float(np.sum(self.coeff * np.conj(other.coeff)).real)

    def power_profile(self) -> np.ndarray:
        """|coeff|^2 summed over components; used by block-norm kernels."""
        extra = self.coeff.ndim - self.grid.dim
        p = np.abs(self.coeff) ** 2
        if extra:
            p = p.sum(axis=tuple(range(extra)))
        return p


# ----------------------------------------------------------------------
# products and derived constructions
# ----------------------------------------------------------------------

def dealiased_product(f: SpectralField, g: SpectralField) -> SpectralField:
    """Pointwise product with 2/3-rule dealiasing.

    Supports scalar*scalar and scalar*tensor; richer contraction patterns
    (convection, matrix products) are provided by the operator layer.  On
    band-limited inputs the result is free of aliasing on retained modes.
    """
    if not f.grid.compatible(g.grid):
        raise InputError("fields live on different grids")
    if f.rank != "scalar" and g.rank != "scalar":
        raise InputError(f"rank pattern {f.rank}*{g.rank} needs a dedicated contraction")
    if f.rank != "scalar":
        f, g = g, f
    return dealias_physical(f.grid, f.to_physical() * g.to_physical())


def dealias_physical(grid: Grid, values: np.ndarray) -> SpectralField:
    """Forward transform of physical products with the 2/3 mask applied.

    ``values`` may carry any leading component shape.  Products that share a
    destination are summed first and cost one transform: by linearity that
    equals dealiasing each product on its own.
    """
    axes = tuple(range(values.ndim - grid.dim, values.ndim))
    coeff = np.fft.fftn(values, axes=axes)
    coeff *= grid.dealias_mask / grid.n_points
    return SpectralField(grid, coeff)


def fine_grid_product(f: SpectralField, g: SpectralField) -> SpectralField:
    """Product computed on a 2x finer grid, then truncated: aliasing-free oracle."""
    if f.rank != "scalar" or g.rank != "scalar":
        raise InputError("oracle product implemented for scalar fields")
    grid = f.grid
    n, d = grid.n, grid.dim
    big = np.zeros((2 * n,) * d, dtype=np.complex128)
    _embed(big, f.coeff, n, d)
    fa = np.fft.ifftn(big) * (2 * n) ** d
    big[:] = 0.0
    _embed(big, g.coeff, n, d)
    ga = np.fft.ifftn(big) * (2 * n) ** d
    prod = np.fft.fftn(fa * ga) / (2 * n) ** d
    small = np.zeros((n,) * d, dtype=np.complex128)
    _extract(small, prod, n, d)
    out = SpectralField(grid, small * grid.keep_mask)
    return out.dealias()


def _half_slices(n):
    # positive-frequency block [0, n/2) and negative block [-n/2, 0)
    return (slice(0, n // 2), slice(-(n // 2), None))


def _embed(big, small, n, d):
    for idx in np.ndindex(*(2,) * d):
        sl = tuple(_half_slices(n)[i] for i in idx)
        big[sl] = small[sl]


def _extract(small, big, n, d):
    for idx in np.ndindex(*(2,) * d):
        sl = tuple(_half_slices(n)[i] for i in idx)
        small[sl] = big[sl]


def scale_dyadic(f: SpectralField) -> SpectralField:
    """Return x -> f(2x): coefficient of f at k moves to 2k, odd modes vanish.

    The input must be mean-zero and band-limited to half the retained
    spectrum, otherwise the doubled modes cannot be represented and the
    stated postcondition is unsatisfiable.
    """
    grid = f.grid
    if np.max(np.abs(f.mean_values())) > 1e-14 * (f.l2() + 1e-300):
        raise InputError("scale_dyadic requires a mean-zero field")
    n = grid.n
    kmax_src = (n // 2 - 1) // 2
    k1 = np.fft.fftfreq(n, 1.0 / n).astype(int)
    src_pos = np.where(np.abs(k1) <= kmax_src)[0]
    tgt_pos = (2 * k1[src_pos]) % n

    # reject content that cannot be doubled onto this grid
    keep = np.zeros(n, dtype=bool)
    keep[src_pos] = True
    mask_ok = np.ones((n,) * grid.dim, dtype=bool)
    shape = [1] * grid.dim
    for ax in range(grid.dim):
        s = shape.copy()
        s[ax] = n
        mask_ok &= keep.reshape(s)
    if np.any(np.abs(f.coeff * ~mask_ok) > 1e-14 * (f.l2() + 1e-300)):
        raise InputError("field has modes beyond half band; f(2x) not representable")

    out = np.zeros_like(f.coeff)
    src = np.ix_(src_pos, *([src_pos] * (grid.dim - 1)))
    tgt = np.ix_(tgt_pos, *([tgt_pos] * (grid.dim - 1)))
    if f.rank == "scalar":
        out[tgt] = f.coeff[src]
    else:
        for ci in np.ndindex(f.coeff.shape[:f.coeff.ndim - grid.dim]):
            out[ci + tuple(tgt)] = f.coeff[ci + tuple(src)]
    return SpectralField(grid, out)


def random_field(grid: Grid, rank: str, rng: np.random.Generator,
                 band: tuple[float, float] | None = None,
                 amplitude: float = 1.0, mean_zero: bool = True) -> SpectralField:
    """Random real band-limited field, built in physical space.

    ``band`` restricts |xi| to [lo, hi]; by default the dealias band is used
    so that products of two such fields stay exact.
    """
    vals = rng.standard_normal(SpectralField._comp_shape(grid, rank) + (grid.n,) * grid.dim)
    f = SpectralField.from_physical(grid, vals)
    if band is None:
        mask = grid.dealias_mask
    else:
        lo, hi = band
        mask = (grid.xi_mag >= lo) & (grid.xi_mag <= hi) & grid.keep_mask
    f = SpectralField(grid, f.coeff * mask)
    if mean_zero:
        f = f.project_mean_zero()
    nrm = f.l2()
    if nrm > 0:
        f = f * (amplitude / nrm)
    return f


def refine_field(f: SpectralField, fine: Grid) -> SpectralField:
    """Represent the same function on a finer grid (coefficient injection).

    Both grids must share the domain scale; every retained coarse mode is
    copied to its wavevector slot on the fine grid, so the physical function
    is unchanged and refinement studies compare like with like.
    """
    coarse = f.grid
    if fine.dim != coarse.dim or fine.length != coarse.length or fine.n < coarse.n:
        raise InputError("refinement target must share dim and length, with larger n")
    k1 = np.fft.fftfreq(coarse.n, 1.0 / coarse.n).astype(int)
    keep = np.abs(k1) < coarse.n // 2
    src_pos = np.where(keep)[0]
    tgt_pos = k1[src_pos] % fine.n
    out = SpectralField.zeros(fine, f.rank)
    src = np.ix_(src_pos, *([src_pos] * (coarse.dim - 1)))
    tgt = np.ix_(tgt_pos, *([tgt_pos] * (coarse.dim - 1)))
    if f.rank == "scalar":
        out.coeff[tgt] = f.coeff[src]
    else:
        for ci in np.ndindex(f.coeff.shape[:f.coeff.ndim - coarse.dim]):
            out.coeff[ci + tuple(tgt)] = f.coeff[ci + tuple(src)]
    return out


def cosine_mode(grid: Grid, kvec, amplitude: float = 1.0,
                rank: str = "scalar", component=None, phase: str = "cos") -> SpectralField:
    """Single harmonic amplitude*cos(k.x/L) (or sin) placed exactly."""
    f = SpectralField.zeros(grid, rank)
    kvec = tuple(int(k) for k in kvec)
    pos = tuple(k % grid.n for k in kvec)
    neg = tuple((-k) % grid.n for k in kvec)
    half = amplitude / 2.0 if phase == "cos" else amplitude / 2.0j
    ci = () if rank == "scalar" else tuple(component)
    f.coeff[ci + pos] += half
    f.coeff[ci + neg] += np.conj(half)
    return f
