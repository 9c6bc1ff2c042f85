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


@dataclass(frozen=True)
class SpatialGrid:
    """Periodic grid: d in {1,3}, box length L, G points per axis."""

    dimension: int
    box_l: float
    points: int

    def __post_init__(self):
        if self.dimension not in (1, 3):
            raise ValueError("dimension must be 1 or 3")
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

    def meshes(self) -> list[np.ndarray]:
        ax = self.axes()
        if self.dimension == 1:
            return [ax]
        return list(np.meshgrid(ax, ax, ax, indexing="ij"))


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
        return self.lattice.index(tuple(int(c) for c in np.atleast_1d(n)))

    def set_b(self, spin: int, n, value: complex) -> "ClassicalModeState":
        self.b[spin - 1, self.index(n)] = value
        return self

    def set_d(self, spin: int, n, value: complex) -> "ClassicalModeState":
        self.d[spin - 1, self.index(n)] = value
        return self

    def scaled(self, z: complex) -> "ClassicalModeState":
        return ClassicalModeState(self.lattice, self.b * z, self.d * z)

    def coeff_norm_sq(self) -> float:
        return float(np.sum(np.abs(self.b) ** 2) + np.sum(np.abs(self.d) ** 2))


def synthesize_field(state: ClassicalModeState, grid: SpatialGrid, cfg: ModelConfig) -> np.ndarray:
    """Four-component field on the grid from the mode coefficients.

    Box-discretized plane-wave synthesis with the 1/sqrt(2E V) measure;
    linear in the coefficients.  The cutoff must stay below the grid
    Nyquist frequency (no aliasing).
    """
    max_n = max((max(abs(c) for c in n) for n in state.lattice), default=0)
    if max_n >= grid.points / 2:
        raise ValueError(
            f"momentum cutoff {max_n} aliases on a {grid.points}-point axis"
        )
    table = build_spinors(cfg)
    meshes = grid.meshes()
    psi = np.zeros((4, *grid.shape), dtype=np.complex128)
    root_v = np.sqrt(grid.volume)
    for i, n in enumerate(state.lattice):
        if not (state.b[:, i].any() or state.d[:, i].any()):
            continue  # adds nothing: skip its plane wave
        # e^{i p.x / hbar} = e^{2 pi i n.g / G} on grid points
        phase = np.zeros(grid.shape, dtype=float)
        for comp, mesh in zip(n, meshes):
            phase = phase + (2.0 * np.pi / grid.box_l) * comp * mesh
        plus = np.exp(1j * phase)
        minus = plus.conj()
        inv_root = 1.0 / (np.sqrt(2.0 * table.e[n]) * root_v)
        comp_shape = (4,) + (1,) * grid.dimension
        for s in (1, 2):
            bc = state.b[s - 1, i]
            dc = state.d[s - 1, i]
            if bc != 0:
                u = table.u[(s, n)].reshape(comp_shape)
                psi += inv_root * bc * u * plus
            if dc != 0:
                v = table.v[(s, n)].reshape(comp_shape)
                psi += inv_root * dc * v * minus
    return psi


def charge_density(psi: np.ndarray, cfg: ModelConfig) -> np.ndarray:
    """rho = -e psi+ psi pointwise (never positive)."""
    return -cfg.charge * np.sum(np.abs(psi) ** 2, axis=0)


def total_charge(rho: np.ndarray, grid: SpatialGrid) -> float:
    return float(rho.sum()) * grid.cell_volume


def _density_transform(rho: np.ndarray, grid: SpatialGrid) -> np.ndarray:
    """rho_hat(k): the FFT of rho times the cell volume."""
    return np.fft.fftn(np.asarray(rho, dtype=float)) * grid.cell_volume


def _self_energy(kvals: np.ndarray, rho_hat: np.ndarray, grid: SpatialGrid) -> float:
    u = 0.5 / grid.volume * np.sum(kvals * np.abs(rho_hat) ** 2)
    return float(u.real)


def _cross_energy(kvals: np.ndarray, f1: np.ndarray, f2: np.ndarray, grid: SpatialGrid) -> float:
    u = np.sum(kvals * f1.conj() * f2) / grid.volume
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
    taken from shifted copies of rho.  In 3D every (y, z) shift is gathered
    at once, and one batched matrix product of x-planes gives C for all
    x-shifts.  O(G^(2d)) work and O(G^(d+2)) memory; intended for small
    grids in tests.
    """
    rho = np.asarray(rho, dtype=float)
    ktable = _kernel_real_table(grid, cfg)
    g = grid.points
    shift = (np.arange(g)[:, None] + np.arange(g)) % g  # [s, x] -> x + s
    if grid.dimension == 1:
        corr = rho[shift] @ rho
    else:
        # moved[a, b, x', y*g+z] = rho(x', y + a, z + b)
        moved = rho[:, shift[:, None, :, None], shift[None, :, None, :]]
        moved = moved.transpose(1, 2, 0, 3, 4).reshape(g, g, g, g * g)
        # planes[a, b, x, x'] = sum_{y,z} rho(x, y, z) rho(x', y + a, z + b)
        planes = rho.reshape(g, g * g) @ moved.transpose(0, 1, 3, 2)
        # corr[sx, a, b] = sum_x planes[a, b, x, x + sx]
        corr = planes[:, :, np.arange(g), shift].sum(axis=-1).transpose(2, 0, 1)
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
    if center is None:
        center = (grid.box_l / 2.0,) * grid.dimension
    center = np.atleast_1d(np.asarray(center, dtype=float))
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
    return rho * (total / q)


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
                         cfg: ModelConfig, rtol: float = 1e-10) -> list[SplitEnergies]:
    """Self/cross Coulomb energy partition for each decomposition of rho.

    Every (rho1, rho2) must sum to rho_total pointwise; the total energy is
    identical across splits by bilinearity while the self/cross partition
    varies.  Each energy equals that of :func:`coulomb_energy` or
    :func:`coulomb_cross_energy` bit for bit; the kernel grid is tabulated
    once per call and each part transformed once.
    """
    scale = float(np.abs(rho_total).max()) or 1.0
    kvals = coulomb_kernel(cfg).grid_values(grid.points)
    out = []
    for rho1, rho2 in splits:
        if np.abs(rho1 + rho2 - rho_total).max() > rtol * scale:
            raise ValueError("split does not sum to the total density")
        f1, f2 = _density_transform(rho1, grid), _density_transform(rho2, grid)
        out.append(
            SplitEnergies(
                self1=_self_energy(kvals, f1, grid),
                self2=_self_energy(kvals, f2, grid),
                cross=_cross_energy(kvals, f1, f2, grid),
            )
        )
    return out
