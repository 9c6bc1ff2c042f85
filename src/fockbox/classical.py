"""Classical Dirac-field configurations on a periodic spatial grid.

The grid is the config's own: ``cfg.grid_points`` points per axis of the
box of side ``cfg.box_l`` in ``cfg.dimension`` dimensions, which
:class:`~fockbox.model.ModelConfig` validates, so every function here takes
the config and no grid.  A classical field state is a set of complex mode
coefficients; the field is synthesized on the grid, squared into a
(negative-definite) charge density, and fed to the periodic Coulomb energy.
The energy is evaluated two ways: a momentum-space kernel sum (production
path) and a direct real-space double sum over grid points (retained as the
independent test oracle).  A coarser grid is a config with other
``grid_points``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .model import ModelConfig, build_spinors, coulomb_kernel
from .modes import momentum_lattice

# a split (rho1, rho2) may miss its total by this much, relative to max |rho|
SPLIT_RTOL = 1e-10


def _axis(cfg: ModelConfig) -> np.ndarray:
    """Grid coordinates along one axis."""
    return np.arange(cfg.grid_points) * (cfg.box_l / cfg.grid_points)


def _cell_volume(cfg: ModelConfig) -> float:
    return (cfg.box_l / cfg.grid_points) ** cfg.dimension


def _grid_shape(cfg: ModelConfig) -> tuple[int, ...]:
    return (cfg.grid_points,) * cfg.dimension


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


def synthesize_field(state: ClassicalModeState, cfg: ModelConfig) -> np.ndarray:
    """Four-component field on the config's grid from the mode coefficients.

    Box-discretized plane-wave synthesis with the 1/sqrt(2E V) measure;
    linear in the coefficients.  Every lattice point of the state must be a
    mode of ``cfg``, and the cutoff must stay below the grid Nyquist
    frequency (no aliasing).  Each plane wave is built from the open grid
    axes and added into one spinor component at a time, so beside the
    (4, G^d) result only a few G^d arrays are alive.
    """
    table = build_spinors(cfg)
    stray = next((n for n in state.lattice if n not in table.e), None)
    if stray is not None:
        raise ValueError(
            f"lattice point {stray} of the mode state is not a mode of the config "
            f"(dimension {cfg.dimension}, n_max = {cfg.n_max})"
        )
    max_n = max((max(abs(c) for c in n) for n in state.lattice), default=0)
    if max_n >= cfg.grid_points / 2:
        raise ValueError(
            f"momentum cutoff {max_n} aliases on a {cfg.grid_points}-point axis"
        )
    axes = np.meshgrid(*[_axis(cfg)] * cfg.dimension, indexing="ij", sparse=True)
    psi = np.zeros((4, *_grid_shape(cfg)), dtype=np.complex128)
    plus = np.empty(_grid_shape(cfg), dtype=np.complex128)  # reused by every plane wave
    minus = np.empty_like(plus) if state.d.any() else None
    root_v = np.sqrt(cfg.volume)
    for i, n in enumerate(state.lattice):
        if not (state.b[:, i].any() or state.d[:, i].any()):
            continue  # adds nothing: skip its plane wave
        # e^{i p.x / hbar} = e^{2 pi i n.g / G} on grid points; the phase
        # terms are summed in axis order, broadcast up to the full grid
        phase = 0.0
        for comp, axis in zip(n, axes):
            phase = phase + (2.0 * np.pi / cfg.box_l) * comp * axis
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


def _check_density(rho: np.ndarray, cfg: ModelConfig) -> None:
    if np.shape(rho) != _grid_shape(cfg):
        raise ValueError(f"density has shape {np.shape(rho)}, the grid {_grid_shape(cfg)}")


def total_charge(rho: np.ndarray, cfg: ModelConfig) -> float:
    _check_density(rho, cfg)
    return float(rho.sum()) * _cell_volume(cfg)


def _density_transform(rho: np.ndarray, cfg: ModelConfig) -> np.ndarray:
    """rho_hat(k) on the real half spectrum: ``np.fft.rfftn`` of rho (the
    last axis keeps frequencies 0..G/2) times the cell volume.  rho is real,
    so rho_hat(-k) = conj(rho_hat(k)) fixes the other half."""
    _check_density(rho, cfg)
    rho_hat = np.fft.rfftn(np.asarray(rho, dtype=float))
    rho_hat *= _cell_volume(cfg)
    return rho_hat


def _half_kernel(cfg: ModelConfig) -> np.ndarray:
    """V(k) on the half spectrum of :func:`_density_transform`, weighted so
    that a sum over the half equals the sum over the full FFT grid: the
    last axis is cut to 0..G/2 and its interior planes 1..G/2-1 are
    doubled, each standing for itself and its conjugate; planes 0 and G/2
    are their own conjugates."""
    g = cfg.grid_points
    kvals = coulomb_kernel(cfg).grid_values(g)[..., :g // 2 + 1].copy()
    kvals[..., 1:g // 2] *= 2.0
    return kvals


def _self_energy(kvals: np.ndarray, rho_hat: np.ndarray, cfg: ModelConfig) -> float:
    weighted = np.abs(rho_hat) ** 2
    weighted *= kvals
    return float(0.5 / cfg.volume * np.sum(weighted))


def _cross_energy(kvals: np.ndarray, f1: np.ndarray, f2: np.ndarray, cfg: ModelConfig) -> float:
    # a conjugate pair adds conj(f1) f2 and its conjugate: twice the real part
    weighted = f1.conj()
    weighted *= kvals
    weighted *= f2
    u = np.sum(weighted) / cfg.volume
    return float(u.real)


def coulomb_energy(rho: np.ndarray, cfg: ModelConfig) -> float:
    """Periodic Coulomb energy (1/2V) sum_k V(k) |rho_hat(k)|^2, summed
    over the real half spectrum against :func:`_half_kernel`.

    The k = 0 mode is handled by the kernel configuration (dropped by
    default: neutralizing background).
    """
    return _self_energy(_half_kernel(cfg), _density_transform(rho, cfg), cfg)


def coulomb_cross_energy(rho1: np.ndarray, rho2: np.ndarray, cfg: ModelConfig) -> float:
    """Bilinear cross term integral rho1 K rho2 (no 1/2)."""
    return _cross_energy(_half_kernel(cfg), _density_transform(rho1, cfg),
                         _density_transform(rho2, cfg), cfg)


def coulomb_energy_direct(rho: np.ndarray, cfg: ModelConfig) -> float:
    """Real-space oracle: direct double sum over grid points.

    Tabulates the periodic kernel in real space by an explicit mode sum
    (no FFT) and accumulates (1/2) sum_{x,y} rho(x) rho(y) K(x-y) dV^2 as
    sum_s K(s) C(s), with the autocorrelation C(s) = sum_x rho(x) rho(x+s)
    taken from shifted copies of rho.  In 3D the (y, z) shifts are gathered
    one y-shift at a time, and one batched matrix product of x-planes gives
    C for all x- and z-shifts of that y-shift; each block is freed before
    the next is gathered.  O(G^(2d)) work and O(G^(d+1)) memory (8 MiB at
    G = 32 in 3D).
    """
    _check_density(rho, cfg)
    rho = np.asarray(rho, dtype=float)
    ktable = _kernel_real_table(cfg)
    g = cfg.grid_points
    shift = (np.arange(g)[:, None] + np.arange(g)) % g  # [s, x] -> x + s
    if cfg.dimension == 1:
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
            del moved  # one G^4 block alive at a time
            # corr[sx, a, b] = sum_x planes[b, x, x + sx]
            corr[:, a, :] = planes[:, xs, shift].sum(axis=-1).T
            del planes
    total = float(np.sum(ktable * corr))
    return 0.5 * total * _cell_volume(cfg) ** 2


def _kernel_real_table(cfg: ModelConfig) -> np.ndarray:
    """K(r) on grid offsets via a direct (non-FFT) sum over k modes:
    sum_{abc} K[a, b, c] P[a, x] P[b, y] P[c, z] in 3D, contracted one k
    axis at a time, so no array beyond G^d is formed."""
    g = cfg.grid_points
    freqs = np.fft.fftfreq(g, d=1.0 / g).astype(int)
    # one axis of phases: e^{2 pi i q g / G}
    phase = np.exp(2j * np.pi * np.outer(freqs, np.arange(g)) / g)
    table = coulomb_kernel(cfg).grid_values(g)
    for _ in range(cfg.dimension):
        # the leading k axis becomes a trailing x axis, so after d steps
        # the axes are (x, y, z)
        table = np.tensordot(table, phase, axes=(0, 0))
    table /= cfg.volume
    assert np.abs(table.imag).max() < 1e-10 * max(1.0, np.abs(table.real).max())
    return table.real


def gaussian_cloud(cfg: ModelConfig, sigma: float, total: float,
                   center=None) -> np.ndarray:
    """Periodically wrapped isotropic Gaussian charge cloud on the config's grid.

    Image sums run over +-2 boxes per axis; the result is renormalized so
    the grid integral equals ``total`` exactly.
    """
    if not (np.isfinite(sigma) and sigma > 0):
        raise ValueError(f"cloud width sigma must be finite and > 0, got {sigma!r}")
    if center is None:
        center = (cfg.box_l / 2.0,) * cfg.dimension
    center = np.atleast_1d(np.asarray(center, dtype=float))
    if center.shape != (cfg.dimension,):
        raise ValueError(f"center has length {center.size}; grid dimension {cfg.dimension}")
    ax = _axis(cfg)
    # the image sum of an isotropic Gaussian factorizes per axis, so the
    # cloud is the outer product of its axis profiles
    axis_profiles = []
    for c in center:
        prof = np.zeros_like(ax)
        for img in range(-2, 3):
            prof += np.exp(-((ax - c + img * cfg.box_l) ** 2) / (2.0 * sigma * sigma))
        axis_profiles.append(prof)
    rho = reduce(np.multiply.outer, axis_profiles)
    q = rho.sum() * _cell_volume(cfg)
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


def decomposition_report(rho_total: np.ndarray, splits, cfg: ModelConfig) -> list[SplitEnergies]:
    """Self/cross Coulomb energy partition for each decomposition of rho.

    Every (rho1, rho2) must sum to rho_total pointwise, to within
    ``SPLIT_RTOL`` of max |rho_total|; the total energy is
    identical across splits by bilinearity while the self/cross partition
    varies.  Each energy equals that of :func:`coulomb_energy` or
    :func:`coulomb_cross_energy` bit for bit; the half-spectrum kernel
    (:func:`_half_kernel`) is tabulated once per call and each part
    transformed once.
    """
    _check_density(rho_total, cfg)
    scale = float(np.abs(rho_total).max()) or 1.0
    kvals = _half_kernel(cfg)
    out = []
    for rho1, rho2 in splits:
        if np.abs(rho1 + rho2 - rho_total).max() > SPLIT_RTOL * scale:
            raise ValueError("split does not sum to the total density")
        out.append(_split_energies(kvals, rho1, rho2, cfg))
    return out


def _split_energies(kvals: np.ndarray, rho1: np.ndarray, rho2: np.ndarray,
                    cfg: ModelConfig) -> SplitEnergies:
    """One split's energies; its two transforms are freed on return."""
    f1, f2 = _density_transform(rho1, cfg), _density_transform(rho2, cfg)
    return SplitEnergies(
        self1=_self_energy(kvals, f1, cfg),
        self2=_self_energy(kvals, f2, cfg),
        cross=_cross_energy(kvals, f1, f2, cfg),
    )
