"""Periodic grid, Fourier field containers, and dealiased products.

Fields live on the torus [0, 2*pi*L)^N with N in {2, 3}.  They are stored as
complex Fourier coefficients indexed by integer wavevectors k; the physical
frequency of mode k is k/L, so a large L populates sub-integer frequencies.
Coefficients are normalized so that the k=0 entry is the grid mean.  The
Nyquist planes are always zeroed, which keeps derivative multipliers
skew-adjoint.

Storage layout.  Every field is real, so its spectrum is Hermitian,
c(-k) = conj(c(k)), and only the ``rfftn`` half is stored: the coefficient
array has shape ``comp_shape + (n,)*(N-1) + (n//2+1,)``, the first N-1 axes
in FFT order (0..n/2-1, -n/2..-1) and the last axis k_N = 0..n/2.  Every
transform is real-to-complex (with ``norm="forward"``, see "Transforms"),
and every multiplier of ``Grid`` (wavevectors, |xi|, masks) has the stored
shape.  A mode with 0 < k_N < n/2 stands for itself and its mirror -k, so
sums over the full spectrum are weighted sums over the half: the Hermitian
weight ``Grid.hermitian_weight`` is 1 on the k_N = 0 (and Nyquist) column
and 2 on the interior columns.  ``l2``, ``inner`` and ``power_profile``
apply it, so the coefficient L2 equals the grid-averaged L2 norm of the
physical values (Parseval).  ``full_spectrum`` rebuilds the full FFT layout
for the snapshot file and the fine-grid oracle.

Workspace.  Every right-hand side transforms in one pass of
``Grid.workspace()`` over three slabs the grid owns, each grown at first
use to the largest request seen and reused by every later pass:
``spectral`` hands out rows of ``spec`` for the families a pass samples,
``inverse`` transforms them in one batch into ``samples``, ``products``
hands out rows of ``products``, and ``forward`` transforms those in one
batch (dealiased in place) into ``spec`` again.  The steps run in that
order (a step out of order raises) and a pass may end after any of them.
Every request starts at row 0 of its own slab, so a slab grows only while
it holds no live rows and nothing is ever copied.  Each slab line is
transformed on its own, so the batched transforms equal the per-field
``to_physical``/``dealias_physical`` bit for bit.  Aliasing rule: a view
is valid only inside its pass, a spectral row only until ``inverse``
consumes it; whatever a right-hand side returns owns its memory.  A pass
cannot be nested (that raises), and a workspace is not thread-safe:
parameter sweeps fan out to processes, each with its own grids.

Transforms.  Two kernels make every transform of the workspace,
``to_physical`` and ``dealias_physical``, and neither allocates a
temporary: each writes into the array it is given.  The inverse
(``_inverse``) runs ``ifft`` in place over each leading spatial axis of
the coefficients it consumes, then ``irfft`` along the last axis into the
samples: the passes of ``irfftn``, in its order, without the complex
temporary it allocates for every leading axis.  The forward (``_forward``)
runs ``rfft`` along the last axis into its output, then the leading-axis
``fft`` passes only on the kept columns k_N <= ``dealias_cut`` (in 3-D,
the first-axis pass only on the two slabs of kept rows of the second
axis), and zeroes by slicing the pruned columns and the rows of the kept
columns outside the dealias box: the passes of ``rfftn`` in its order,
pruned of the lines the dealias mask zeroes (FFT pruning), so on finite
input it equals the masked ``rfftn`` (the masked entries may differ in the
sign of zero).  ``from_physical`` keeps one
``rfftn`` call (it masks only the Nyquist planes), and
``fine_grid_product`` its own complex path, which is not counted.  The
grid counts the others: each call of ``_inverse``, ``_forward`` or
``from_physical`` adds one scalar transform per field component to
``Grid.transforms``, whatever the number of one-dimensional passes, and one
real-axis pass (its ``irfft``, ``rfft`` or ``rfftn``) to
``Grid.transform_passes``.
"""

from __future__ import annotations

import math
from functools import cached_property

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
        Fraction of the spectrum kept when dealiasing products (default 2/3):
        a dealiased product keeps the modes with every |k_i| < frac * n/2,
        so a larger fraction never keeps fewer modes.

    The grid owns its per-grid data: the wavevector arrays, the derivative
    symbol stack ``nabla`` (``nabla[l] = 1j * xi_l``, every differential map
    of ``operators`` is one contraction with it), ``xi_power(s)``, the
    transform workspace, the transform counters ``transforms`` and
    ``transform_passes`` and the dyadic family ``dyadic``.
    """

    def __init__(self, dim: int, n: int, length: float = 8.0,
                 dealias_frac: float = 2.0 / 3.0):
        if dim not in (2, 3):
            raise InputError(f"dim must be 2 or 3, got {dim}")
        if n < 8 or (n & (n - 1)) != 0:
            raise InputError(f"n must be a power of two >= 8, got {n}")
        if not (1.0 <= length < np.inf):  # NaN-safe
            raise InputError(f"length must be >= 1, got {length} (finite values only)")
        if (1.0 / length) ** 2 < np.finfo(float).tiny:  # (k/L)^2 must stay a normal float
            raise InputError(f"length must be below 6.7e153, where (1/length)^2 underflows, "
                             f"got {length}")
        if not 0.0 < dealias_frac <= 1.0:
            raise InputError(f"dealias_frac must lie in (0, 1], got {dealias_frac}")
        self.dim = dim
        self.n = n
        self.length = float(length)
        self.dealias_frac = float(dealias_frac)

        # integer-valued: 0..n/2-1, -n/2..-1 on the first dim-1 axes, 0..n/2 on the last
        k1 = np.fft.fftfreq(n, 1.0 / n)
        self.spectral_shape = (n,) * (dim - 1) + (n // 2 + 1,)
        self.k_axes = []
        for ax in range(dim):
            s = [1] * dim
            s[ax] = self.spectral_shape[ax]
            k = k1 if ax < dim - 1 else np.fft.rfftfreq(n, 1.0 / n)
            self.k_axes.append(k.reshape(s))
        self.xi_axes = [k / self.length for k in self.k_axes]
        # the derivative symbols 1j*xi_l as one stack, shape (dim,) + spectral_shape
        self.nabla = 1j * np.stack(np.broadcast_arrays(*self.xi_axes))

        self.xi_sq = sum(x * x for x in self.xi_axes)
        self.xi_mag = np.sqrt(self.xi_sq)
        # 1/|xi| with the mean mode zeroed; callers own the mean-mode policy
        safe = np.where(self.xi_mag > 0.0, self.xi_mag, 1.0)
        self.inv_xi = np.where(self.xi_mag > 0.0, 1.0 / safe, 0.0)

        nyq = np.zeros(self.spectral_shape, dtype=bool)
        for k in self.k_axes:
            nyq |= (np.abs(k) == n // 2)
        self.keep_mask = ~nyq
        # each interior column k_last = 1..n/2-1 also stands for its mirror -k
        self.hermitian_weight = np.full(n // 2 + 1, 2.0)
        self.hermitian_weight[[0, -1]] = 1.0
        self._xi_power = {}

        # keep |k| < frac * n/2 per axis: (n-1)//3 at 2/3 for every power-of-two n
        kc = math.ceil(dealias_frac * (n // 2)) - 1
        self.dealias_cut = kc
        mask = np.ones(self.spectral_shape, dtype=bool)
        for k in self.k_axes:
            mask &= (np.abs(k) <= kc)
        self.dealias_mask = mask & self.keep_mask

        self.xi_max = float(self.xi_mag[self.keep_mask].max())
        self.xi_min = 1.0 / self.length
        # the workspace slabs, grown at first use; a pass holds the grid, the
        # grid never holds a pass, so no reference cycle keeps a grid alive
        self._stacks = {"spec": np.empty((0,) + self.spectral_shape, dtype=np.complex128),
                        "samples": np.empty((0,) + (n,) * dim),
                        "products": np.empty((0,) + (n,) * dim)}
        self._in_pass = False
        self.transforms = self.transform_passes = 0  # see "Transforms"

    def workspace(self) -> "Workspace":
        """A pass over this grid's transform slabs: ``with grid.workspace()
        as ws``."""
        return Workspace(self)

    @cached_property
    def dyadic(self) -> "DyadicFamily":
        """The grid's dyadic family, built at first use and kept; it holds
        the grid's arrays, not the grid, so no reference cycle forms."""
        from .dyadic import DyadicFamily
        return DyadicFamily(self)

    def xi_power(self, s: float) -> np.ndarray:
        """|xi|^s with the mean mode set to 0, built once per grid and s."""
        if s not in self._xi_power:
            mult = np.where(self.xi_mag > 0.0, self.xi_mag, 1.0) ** s
            self._xi_power[s] = np.where(self.xi_mag > 0.0, mult, 0.0)
        return self._xi_power[s]

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


class Workspace:
    """One pass over a grid's transform slabs (see "Workspace" in the module
    docstring).  ``spectral`` and ``products`` hand out rows for the caller
    to fill, one view per component shape (shaped ``comp_shape + spatial
    shape``); ``inverse`` and ``forward`` return their transforms in the
    same shapes.  A step out of order raises and leaves the pass as it was.
    """

    _STEPS = ("spectral", "inverse", "products", "forward", None)

    def __init__(self, grid: Grid):
        self.grid = grid

    def __enter__(self) -> "Workspace":
        if self.grid._in_pass:
            raise RuntimeError(f"the transform workspace of {self.grid} is already in use")
        self.grid._in_pass = True
        self._done = 0  # steps taken
        return self

    def __exit__(self, *exc):
        self.grid._in_pass = False

    def _take(self, step: str, name: str, shapes=None):
        """Rows from row 0 of the slab ``name`` at the pass's ``step``: the
        block and one view per component shape, of ``shapes`` for a request
        and of the request's shapes for a transform.  The slab holds no live
        rows, so one too small is replaced, not copied."""
        expected = self._STEPS[self._done]
        if step != expected:
            raise RuntimeError(f"workspace step {step} out of order on {self.grid}: "
                               f"the pass expects {expected or 'no further step'}")
        self._done += 1
        if shapes is not None:
            self._layout = shapes, list(map(math.prod, shapes))
        shapes, counts = self._layout
        slab = self.grid._stacks[name]
        end = sum(counts)
        if len(slab) < end:
            slab = self.grid._stacks[name] = np.empty((end,) + slab.shape[1:], slab.dtype)
        views, row = [], 0
        for s, c in zip(shapes, counts):
            views.append(slab[row:row + c].reshape(s + slab.shape[1:]))
            row += c
        return slab[:end], views

    def spectral(self, *shapes) -> list[np.ndarray]:
        """Spectral rows for the caller to fill, one view per component shape."""
        self._coeff, views = self._take("spectral", "spec", shapes)
        return views

    def inverse(self) -> list[np.ndarray]:
        """Samples of the spectral rows; the views are rows of one contiguous
        slab, kept as ``samples``."""
        self.samples, views = self._take("inverse", "samples")
        _inverse(self.grid, self._coeff, self.samples)
        return views

    def products(self, *shapes) -> list[np.ndarray]:
        """Physical rows for the caller to fill, one view per component shape."""
        self._values, views = self._take("products", "products", shapes)
        return views

    def forward(self) -> list[SpectralField]:
        """Dealiased coefficients of the product rows."""
        coeff, views = self._take("forward", "spec")
        _forward(self.grid, self._values, coeff)
        return [SpectralField(self.grid, c) for c in views]


class SpectralField:
    """Scalar/vector/matrix field stored as Fourier coefficients.

    The coefficient array has shape ``comp_shape + grid.spectral_shape``
    (the ``rfftn`` half, see the module docstring) where ``comp_shape`` is
    ``()`` for scalars, ``(dim,)`` for vectors and ``(dim, dim)`` for
    matrices.
    """

    __slots__ = ("grid", "coeff")

    def __init__(self, grid: Grid, coeff: np.ndarray):
        self.grid = grid
        self.coeff = coeff

    # -- constructors -------------------------------------------------

    @classmethod
    def zeros(cls, grid: Grid, rank: str = "scalar") -> "SpectralField":
        shape = cls._comp_shape(grid, rank) + grid.spectral_shape
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
        coeff = np.fft.rfftn(values, axes=axes, norm="forward")
        grid.transforms += values.size // grid.n ** grid.dim
        grid.transform_passes += 1
        coeff *= grid.keep_mask
        return cls(grid, coeff)

    def to_physical(self) -> np.ndarray:
        """Inverse transform; returns the real samples.  The kernel consumes
        a copy, so ``coeff`` is never written."""
        g = self.grid
        out = np.empty(self.coeff.shape[:-g.dim] + (g.n,) * g.dim)
        _inverse(g, self.coeff.copy(), out)
        return out

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
        return float(np.sqrt(np.sum(self.power_profile())))

    def inner(self, other: "SpectralField") -> float:
        """Grid-averaged L2 inner product (components contracted)."""
        return float(np.sum((self.coeff * np.conj(other.coeff)).real
                            * self.grid.hermitian_weight))

    def power_profile(self) -> np.ndarray:
        """|coeff|^2 summed over components, times the Hermitian weight, so
        that it sums to the full-spectrum power; used by block-norm kernels."""
        extra = self.coeff.ndim - self.grid.dim
        p = np.abs(self.coeff) ** 2
        if extra:
            p = p.sum(axis=tuple(range(extra)))
        return p * self.grid.hermitian_weight


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
    coeff = np.empty(values.shape[:-grid.dim] + grid.spectral_shape, dtype=np.complex128)
    _forward(grid, values, coeff)
    return SpectralField(grid, coeff)


def _inverse(grid: Grid, coeff: np.ndarray, out: np.ndarray) -> None:
    """Samples of ``coeff`` into ``out``, equal to ``irfftn`` byte for byte;
    ``coeff`` is consumed (see "Transforms" in the module docstring)."""
    for ax in range(-grid.dim, -1):
        np.fft.ifft(coeff, axis=ax, norm="forward", out=coeff)
    np.fft.irfft(coeff, n=grid.n, axis=-1, norm="forward", out=out)
    grid.transforms += out.size // grid.n ** grid.dim
    grid.transform_passes += 1


def _forward(grid: Grid, values: np.ndarray, out: np.ndarray) -> None:
    """Dealiased coefficients of ``values`` into ``out``, equal to the masked
    ``rfftn`` (see "Transforms" in the module docstring)."""
    n, kc = grid.n, grid.dealias_cut
    np.fft.rfft(values, axis=-1, norm="forward", out=out)
    grid.transforms += values.size // n ** grid.dim
    grid.transform_passes += 1
    kept = out[..., :kc + 1]
    np.fft.fft(kept, axis=-2, norm="forward", out=kept)
    if grid.dim == 3:
        for rows in (slice(0, kc + 1), slice(n - kc, n)):
            slab = kept[..., rows, :]
            np.fft.fft(slab, axis=-3, norm="forward", out=slab)
    out[..., kc + 1:] = 0.0
    kept[..., kc + 1:n - kc, :] = 0.0  # the rows |k| > kc of each leading axis
    if grid.dim == 3:
        kept[..., kc + 1:n - kc, :, :] = 0.0


def full_spectrum(f: SpectralField) -> np.ndarray:
    """The full FFT layout of f, shape ``comp_shape + (n,)*dim``: the stored
    half, and in the columns k_last = -n/2+1..-1 the conjugate of the stored
    coefficient at -k."""
    g = f.grid
    n = g.n
    full = np.empty(f.coeff.shape[:-1] + (n,), dtype=np.complex128)
    full[..., :n // 2 + 1] = f.coeff
    mirror = f.coeff[..., n // 2 - 1:0:-1]        # k_last = n/2-1 .. 1
    for ax in range(f.coeff.ndim - g.dim, f.coeff.ndim - 1):
        # index i -> (n - i) % n, that is k -> -k on the other axes
        mirror = np.roll(np.flip(mirror, axis=ax), 1, axis=ax)
    full[..., n // 2 + 1:] = np.conj(mirror)
    return full


def fine_grid_product(f: SpectralField, g: SpectralField) -> SpectralField:
    """Product computed on a 2x finer grid, then truncated: aliasing-free oracle.

    It works on the full layout with complex transforms of its own, so it
    stays independent of the real-transform path it checks.
    """
    if f.rank != "scalar" or g.rank != "scalar":
        raise InputError("oracle product implemented for scalar fields")
    grid = f.grid
    n, d = grid.n, grid.dim
    big = np.zeros((2 * n,) * d, dtype=np.complex128)
    _copy_modes(big, full_spectrum(f), n, d)
    fa = np.fft.ifftn(big) * (2 * n) ** d
    big[:] = 0.0
    _copy_modes(big, full_spectrum(g), n, d)
    ga = np.fft.ifftn(big) * (2 * n) ** d
    prod = np.fft.fftn(fa * ga) / (2 * n) ** d
    small = np.zeros((n,) * d, dtype=np.complex128)
    _copy_modes(small, prod, n, d)
    out = SpectralField(grid, small[..., :n // 2 + 1] * grid.keep_mask)
    return out.dealias()


def _copy_modes(dst, src, n, d):
    """dst[k] = src[k] for every mode -n/2 <= k_i < n/2; one of the two full
    spectra is on n points, the other on 2n."""
    # positive-frequency block [0, n/2) and negative block [-n/2, 0)
    halves = (slice(0, n // 2), slice(-(n // 2), None))
    for idx in np.ndindex(*(2,) * d):
        sl = tuple(halves[i] for i in idx)
        dst[sl] = src[sl]


def _axis_wavenumbers(grid: Grid):
    """Integer wavenumbers along each axis of the stored layout."""
    return [k.ravel().astype(int) for k in grid.k_axes]


def scale_dyadic(f: SpectralField) -> SpectralField:
    """Return x -> f(2x): coefficient of f at k moves to 2k, odd modes vanish.

    The input must be mean-zero and band-limited to half the retained
    spectrum, otherwise the doubled modes cannot be represented and the
    stated postcondition is unsatisfiable.
    """
    grid = f.grid
    if np.max(np.abs(f.mean_values())) > 1e-14 * (f.l2() + 1e-300):
        raise InputError("scale_dyadic requires a mean-zero field")
    kmax_src = (grid.n // 2 - 1) // 2
    ks = _axis_wavenumbers(grid)
    src = np.ix_(*(np.flatnonzero(np.abs(k) <= kmax_src) for k in ks))
    tgt = tuple((2 * k[s]) % grid.n for k, s in zip(ks, src))

    # reject content that cannot be doubled onto this grid
    mask_ok = np.zeros(grid.spectral_shape, dtype=bool)
    mask_ok[src] = True
    if np.any(np.abs(f.coeff * ~mask_ok) > 1e-14 * (f.l2() + 1e-300)):
        raise InputError("field has modes beyond half band; f(2x) not representable")

    out = np.zeros_like(f.coeff)
    out[(Ellipsis,) + tgt] = f.coeff[(Ellipsis,) + src]
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
    ks = _axis_wavenumbers(coarse)
    src = np.ix_(*(np.flatnonzero(np.abs(k) < coarse.n // 2) for k in ks))
    tgt = tuple(k[s] % fine.n for k, s in zip(ks, src))
    out = SpectralField.zeros(fine, f.rank)
    out.coeff[(Ellipsis,) + tgt] = f.coeff[(Ellipsis,) + src]
    return out


def cosine_mode(grid: Grid, kvec, amplitude: float = 1.0,
                rank: str = "scalar", component=None, phase: str = "cos") -> SpectralField:
    """Single harmonic amplitude*cos(k.x/L) (or sin) placed exactly.

    Of the pair +-k the stored half holds the one with k_last mod n <= n/2,
    or both when k_last = 0.
    """
    f = SpectralField.zeros(grid, rank)
    kvec = tuple(int(k) for k in kvec)
    half = amplitude / 2.0 if phase == "cos" else amplitude / 2.0j
    ci = () if rank == "scalar" else tuple(component)
    for sign, c in ((1, half), (-1, np.conj(half))):
        pos = tuple((sign * k) % grid.n for k in kvec)
        if pos[-1] <= grid.n // 2:
            f.coeff[ci + pos] += c
    return f
