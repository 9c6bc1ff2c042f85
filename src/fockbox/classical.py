"""Classical Dirac-field configurations on a periodic spatial grid.

A classical field state is a set of complex mode coefficients; the field is
synthesized on a grid, squared into a (negative-definite) charge density,
and fed to the periodic Coulomb energy.  The energy is evaluated two ways:
a momentum-space kernel sum (production path) and a direct real-space
double sum over grid points (retained as the independent test oracle).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import ModelConfig, build_spinors, coulomb_kernel
from .modes import momentum_lattice

# a split (rho1, rho2) may miss its total by this much, relative to max |rho|
SPLIT_RTOL = 1e-10


@dataclass(frozen=True)
class SpatialGrid:
    """Periodic grid: d in {1,3}, box length L, G points per axis."""

    dimension: int
    box_l: float
    points: int

    def __post_init__(self):
        if self.dimension not in (1, 3):
            raise ValueError("dimension must be 1 or 3")
        if not (np.isfinite(self.box_l) and self.box_l > 0):
            raise ValueError(f"box length must be finite and > 0, got {self.box_l!r}")
        if self.points < 2 or (self.points & (self.points - 1)):
            raise ValueError("points per axis must be a power of two >= 2")

    @classmethod
    def for_config(cls, cfg: ModelConfig, points: int | None = None) -> "SpatialGrid":
        return cls(cfg.dimension, cfg.box_l, cfg.grid_points if points is None else points)

    @property
    def spacing(self) -> float:
        return self.box_l / self.points

    @property
    def cell_volume(self) -> float:
        return self.spacing**self.dimension

    @property
    def volume(self) -> float:
        return self.box_l**self.dimension

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.points,) * self.dimension

    def axes(self) -> np.ndarray:
        return np.arange(self.points) * self.spacing


@dataclass
class ClassicalModeState:
    """Complex coefficients per (spin, lattice momentum) mode.

    ``b[s-1, i]`` weighs the positive-frequency (electron) basis function
    u^s(p_i) e^{+i p.x/hbar}; ``d[s-1, i]`` weighs the negative-frequency
    function v^s(p_i) e^{-i p.x/hbar} (the paper-convention coefficient that
    multiplies it directly).  Free evolution rotates b by e^{-iEt/hbar} and
    d by e^{+iEt/hbar}.
    """

    lattice: tuple[tuple[int, ...], ...]
    b: np.ndarray = field(default=None)
    d: np.ndarray = field(default=None)

    def __post_init__(self):
        k = len(self.lattice)
        if self.b is None:
            self.b = np.zeros((2, k), dtype=np.complex128)
        if self.d is None:
            self.d = np.zeros((2, k), dtype=np.complex128)
        self.b = np.asarray(self.b, dtype=np.complex128).reshape(2, k)
        self.d = np.asarray(self.d, dtype=np.complex128).reshape(2, k)
        if not (np.all(np.isfinite(self.b)) and np.all(np.isfinite(self.d))):
            raise ValueError("mode coefficients must be finite")

    @classmethod
    def zero(cls, cfg: ModelConfig) -> "ClassicalModeState":
        lat = tuple(momentum_lattice(cfg.dimension, cfg.n_max, cfg.momentum_ball))
        return cls(lattice=lat)

    def index(self, n) -> int:
        key = tuple(int(c) for c in np.atleast_1d(n))
        try:
            return self.lattice.index(key)
        except ValueError:
            n_max = max((abs(c) for m in self.lattice for c in m), default=0)
            raise ValueError(
                f"momentum {key} is not on the mode lattice (n_max = {n_max})"
            ) from None

    def _slot(self, spin: int, n) -> tuple[int, int]:
        if spin not in (1, 2):
            raise ValueError(f"spin must be 1 or 2, got {spin!r}")
        return spin - 1, self.index(n)

    def set_b(self, spin: int, n, value: complex) -> "ClassicalModeState":
        self.b[self._slot(spin, n)] = value
        return self

    def set_d(self, spin: int, n, value: complex) -> "ClassicalModeState":
        self.d[self._slot(spin, n)] = value
        return self

    def scaled(self, z: complex) -> "ClassicalModeState":
        return ClassicalModeState(self.lattice, self.b * z, self.d * z)

    def coeff_norm_sq(self) -> float:
        return float(np.sum(np.abs(self.b) ** 2) + np.sum(np.abs(self.d) ** 2))


def synthesize_field(state: ClassicalModeState, grid: SpatialGrid, cfg: ModelConfig) -> np.ndarray:
    """Four-component field on the grid from the mode coefficients.

    Box-discretized plane-wave synthesis with the 1/sqrt(2E V) measure;
    linear in the coefficients.  The cutoff must stay below the grid
    Nyquist frequency (no aliasing).  Each plane wave is built from the
    open grid axes and added into one spinor component at a time, so
    beside the (4, G^d) result only a few G^d arrays are alive.
    """
    max_n = max((max(abs(c) for c in n) for n in state.lattice), default=0)
    if max_n >= grid.points / 2:
        raise ValueError(
            f"momentum cutoff {max_n} aliases on a {grid.points}-point axis"
        )
    table = build_spinors(cfg)
    axes = np.meshgrid(*[grid.axes()] * grid.dimension, indexing="ij", sparse=True)
    psi = np.zeros((4, *grid.shape), dtype=np.complex128)
    plus = np.empty(grid.shape, dtype=np.complex128)  # reused by every plane wave
    minus = np.empty_like(plus) if state.d.any() else None
    root_v = np.sqrt(grid.volume)
    for i, n in enumerate(state.lattice):
        if not (state.b[:, i].any() or state.d[:, i].any()):
            continue  # adds nothing: skip its plane wave
        # e^{i p.x / hbar} = e^{2 pi i n.g / G} on grid points; the phase
        # terms are summed in axis order, broadcast up to the full grid
        phase = 0.0
        for comp, axis in zip(n, axes):
            phase = phase + (2.0 * np.pi / grid.box_l) * comp * axis
        np.exp(np.multiply(1j, phase, out=plus), out=plus)
        if state.d[:, i].any():
            np.conjugate(plus, out=minus)
        inv_root = 1.0 / (np.sqrt(2.0 * table.e[n]) * root_v)
        for s in (1, 2):
            for coef, spinors, wave in ((state.b[s - 1, i], table.u, plus),
                                        (state.d[s - 1, i], table.v, minus)):
                if coef != 0:
                    weights = inv_root * coef * spinors[(s, n)]
                    for c in range(4):
                        psi[c] += weights[c] * wave
    return psi


def charge_density(psi: np.ndarray, cfg: ModelConfig) -> np.ndarray:
    """rho = -e psi+ psi pointwise (never positive), summed one component
    at a time."""
    rho = np.abs(psi[0]) ** 2
    for comp in psi[1:]:
        rho += np.abs(comp) ** 2
    rho *= -cfg.charge
    return rho


def _check_density(rho: np.ndarray, grid: SpatialGrid) -> None:
    if np.shape(rho) != grid.shape:
        raise ValueError(f"density has shape {np.shape(rho)}, the grid {grid.shape}")


def total_charge(rho: np.ndarray, grid: SpatialGrid) -> float:
    _check_density(rho, grid)
    return float(rho.sum()) * grid.cell_volume


def _density_transform(rho: np.ndarray, grid: SpatialGrid) -> np.ndarray:
    """rho_hat(k): the FFT of rho times the cell volume."""
    _check_density(rho, grid)
    rho_hat = np.fft.fftn(np.asarray(rho, dtype=float))
    rho_hat *= grid.cell_volume
    return rho_hat


def _self_energy(kvals: np.ndarray, rho_hat: np.ndarray, grid: SpatialGrid) -> float:
    weighted = np.abs(rho_hat) ** 2
    weighted *= kvals
    u = 0.5 / grid.volume * np.sum(weighted)
    return float(u.real)


def _cross_energy(kvals: np.ndarray, f1: np.ndarray, f2: np.ndarray, grid: SpatialGrid) -> float:
    weighted = f1.conj()
    weighted *= kvals
    weighted *= f2
    u = np.sum(weighted) / grid.volume
    return float(u.real)


def coulomb_energy(rho: np.ndarray, grid: SpatialGrid, cfg: ModelConfig) -> float:
    """Periodic Coulomb energy (1/2V) sum_k V(k) |rho_hat(k)|^2.

    The k = 0 mode is handled by the kernel configuration (dropped by
    default: neutralizing background).
    """
    kvals = coulomb_kernel(cfg).grid_values(grid.points)
    return _self_energy(kvals, _density_transform(rho, grid), grid)


def coulomb_cross_energy(rho1: np.ndarray, rho2: np.ndarray, grid: SpatialGrid,
                         cfg: ModelConfig) -> float:
    """Bilinear cross term integral rho1 K rho2 (no 1/2)."""
    kvals = coulomb_kernel(cfg).grid_values(grid.points)
    return _cross_energy(kvals, _density_transform(rho1, grid), _density_transform(rho2, grid),
                         grid)


def coulomb_energy_direct(rho: np.ndarray, grid: SpatialGrid, cfg: ModelConfig) -> float:
    """Real-space oracle: direct double sum over grid points.

    Tabulates the periodic kernel in real space by an explicit mode sum
    (no FFT) and accumulates (1/2) sum_{x,y} rho(x) rho(y) K(x-y) dV^2 as
    sum_s K(s) C(s), with the autocorrelation C(s) = sum_x rho(x) rho(x+s)
    taken from shifted copies of rho.  In 3D the (y, z) shifts are gathered
    one y-shift at a time, and one batched matrix product of x-planes gives
    C for all x- and z-shifts of that y-shift.  O(G^(2d)) work and
    O(G^(d+1)) memory (8 MiB at G = 32 in 3D).
    """
    _check_density(rho, grid)
    rho = np.asarray(rho, dtype=float)
    ktable = _kernel_real_table(grid, cfg)
    g = grid.points
    shift = (np.arange(g)[:, None] + np.arange(g)) % g  # [s, x] -> x + s
    if grid.dimension == 1:
        corr = rho[shift] @ rho
    else:
        flat = rho.reshape(g, g * g)
        xs, zs = np.arange(g), shift[:, None, :, None]
        corr = np.empty((g, g, g))
        for a in range(g):
            # moved[b, y*g+z, x'] = rho(x', y + a, z + b); with x' innermost
            # each product's right operand is row-major, which fixes the
            # BLAS kernel, and so the rounding, of every product
            moved = rho[xs, shift[a][:, None, None], zs].reshape(g, g * g, g)
            # planes[b, x, x'] = sum_{y,z} rho(x, y, z) rho(x', y + a, z + b)
            planes = flat @ moved
            # corr[sx, a, b] = sum_x planes[b, x, x + sx]
            corr[:, a, :] = planes[:, xs, shift].sum(axis=-1).T
    total = float(np.sum(ktable * corr))
    return 0.5 * total * grid.cell_volume**2


def _kernel_real_table(grid: SpatialGrid, cfg: ModelConfig) -> np.ndarray:
    """K(r) on grid offsets via a direct (non-FFT) sum over k modes."""
    kern = coulomb_kernel(cfg)
    kvals = kern.grid_values(grid.points)
    freqs = np.fft.fftfreq(grid.points, d=1.0 / grid.points).astype(int)
    idx = np.arange(grid.points)
    # one axis of phases: e^{2 pi i q g / G}
    phase = np.exp(2j * np.pi * np.outer(freqs, idx) / grid.points)
    if grid.dimension == 1:
        table = (kvals[:, None] * phase).sum(axis=0) / grid.volume
    else:
        # sum_{abc} K[a, b, c] P[a, x] P[b, y] P[c, z], one axis at a time: a
        # broadcast product summed along that axis (no einsum path search)
        table = (kvals[:, None, :, :] * phase[:, :, None, None]).sum(axis=0)  # [x, b, c]
        table = (table[:, :, None, :] * phase[None, :, :, None]).sum(axis=1)  # [x, y, c]
        table = (table[:, :, :, None] * phase[None, None, :, :]).sum(axis=2) / grid.volume
    assert np.abs(table.imag).max() < 1e-10 * max(1.0, np.abs(table.real).max())
    return table.real


def gaussian_cloud(grid: SpatialGrid, sigma: float, total: float,
                   center=None) -> np.ndarray:
    """Periodically wrapped isotropic Gaussian charge cloud.

    Image sums run over +-2 boxes per axis; the result is renormalized so
    the grid integral equals ``total`` exactly.
    """
    if not (np.isfinite(sigma) and sigma > 0):
        raise ValueError(f"cloud width sigma must be finite and > 0, got {sigma!r}")
    if center is None:
        center = (grid.box_l / 2.0,) * grid.dimension
    center = np.atleast_1d(np.asarray(center, dtype=float))
    if center.shape != (grid.dimension,):
        raise ValueError(f"center has length {center.size}; grid dimension {grid.dimension}")
    ax = grid.axes()
    # the image sum of an isotropic Gaussian factorizes per axis
    axis_profiles = []
    for c in center:
        prof = np.zeros_like(ax)
        for img in range(-2, 3):
            prof += np.exp(-((ax - c + img * grid.box_l) ** 2) / (2.0 * sigma * sigma))
        axis_profiles.append(prof)
    if grid.dimension == 1:
        rho = axis_profiles[0]
    else:
        rho = np.einsum("x,y,z->xyz", *axis_profiles)
    q = rho.sum() * grid.cell_volume
    rho *= total / q
    return rho


@dataclass(frozen=True)
class SplitEnergies:
    self1: float
    self2: float
    cross: float

    @property
    def total(self) -> float:
        return self.self1 + self.self2 + self.cross

    @property
    def self_sum(self) -> float:
        return self.self1 + self.self2


def decomposition_report(rho_total: np.ndarray, splits, grid: SpatialGrid,
                         cfg: ModelConfig) -> list[SplitEnergies]:
    """Self/cross Coulomb energy partition for each decomposition of rho.

    Every (rho1, rho2) must sum to rho_total pointwise, to within
    ``SPLIT_RTOL`` of max |rho_total|; the total energy is
    identical across splits by bilinearity while the self/cross partition
    varies.  Each energy equals that of :func:`coulomb_energy` or
    :func:`coulomb_cross_energy` bit for bit; the kernel grid is tabulated
    once per call and each part transformed once.
    """
    _check_density(rho_total, grid)
    scale = float(np.abs(rho_total).max()) or 1.0
    kvals = coulomb_kernel(cfg).grid_values(grid.points)
    out = []
    for rho1, rho2 in splits:
        if np.abs(rho1 + rho2 - rho_total).max() > SPLIT_RTOL * scale:
            raise ValueError("split does not sum to the total density")
        out.append(_split_energies(kvals, rho1, rho2, grid))
    return out


def _split_energies(kvals: np.ndarray, rho1: np.ndarray, rho2: np.ndarray,
                    grid: SpatialGrid) -> SplitEnergies:
    """One split's energies; its two transforms are freed on return."""
    f1, f2 = _density_transform(rho1, grid), _density_transform(rho2, grid)
    return SplitEnergies(
        self1=_self_energy(kvals, f1, grid),
        self2=_self_energy(kvals, f2, grid),
        cross=_cross_energy(kvals, f1, f2, grid),
    )
