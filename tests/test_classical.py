"""Classical field configurations, charge densities and Coulomb energies."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from fockbox.classical import (
    ClassicalModeState,
    charge_density,
    coulomb_cross_energy,
    coulomb_energy,
    coulomb_energy_direct,
    decomposition_report,
    gaussian_cloud,
    synthesize_field,
    total_charge,
)
from fockbox.model import ModelConfig, build_spinors

CFG1 = ModelConfig(dimension=1, grid_points=64)
CFG3 = ModelConfig(dimension=3, grid_points=16)
CFG8 = ModelConfig(dimension=3, grid_points=8)


class TestSynthesis:
    def test_zero_momentum_mode_is_constant(self):
        st = ClassicalModeState.zero(CFG1).set_b(1, (0,), 1.0)
        psi = synthesize_field(st, CFG1)
        for comp in psi:
            assert np.abs(comp - comp.flat[0]).max() <= 1e-13

    def test_linearity(self):
        st = ClassicalModeState.zero(CFG1).set_b(1, (1,), 0.3 + 0.4j).set_d(2, (0,), 0.5)
        psi = synthesize_field(st, CFG1)
        psi_scaled = synthesize_field(st.scaled(2.0 - 1.0j), CFG1)
        assert np.abs(psi_scaled - (2.0 - 1.0j) * psi).max() <= 1e-12

    def test_parseval(self, rng):
        # integral of psi+ psi equals the squared coefficient norm; the
        # oracle is the plain grid sum
        st = ClassicalModeState.zero(CFG1)
        st.b[:] = rng.standard_normal(st.b.shape) + 1j * rng.standard_normal(st.b.shape)
        st.d[:] = rng.standard_normal(st.d.shape) + 1j * rng.standard_normal(st.d.shape)
        psi = synthesize_field(st, CFG1)
        grid_integral = float(np.sum(np.abs(psi) ** 2)) * _cell_volume(CFG1)
        assert grid_integral == pytest.approx(st.coeff_norm_sq(), rel=1e-10)

    def test_aliasing_rejected(self):
        cfg = ModelConfig(dimension=1, n_max=1, grid_points=2)
        st = ClassicalModeState.zero(cfg)
        with pytest.raises(ValueError):
            synthesize_field(st, cfg)

    @pytest.mark.parametrize("make, message", [
        (lambda: gaussian_cloud(CFG1, 0.0, -1.0), r"sigma must be finite and > 0, got 0\.0"),
        (lambda: gaussian_cloud(CFG1, np.nan, -1.0), "sigma must be finite and > 0, got nan"),
        (lambda: gaussian_cloud(CFG1, -1.0, -1.0), r"sigma must be finite and > 0, got -1\.0"),
        # a 1D cloud used the first of three coordinates; a 3D one failed inside einsum
        (lambda: gaussian_cloud(CFG1, 1.0, -1.0, center=(1.0, 2.0, 3.0)),
         "center has length 3; grid dimension 1"),
        (lambda: gaussian_cloud(CFG3, 1.0, -1.0, center=(1.0,)),
         "center has length 1; grid dimension 3"),
        (lambda: ClassicalModeState(((0,),), b=[[np.nan], [0.0]]), "coefficients must be finite"),
        (lambda: ClassicalModeState(((0,),), d=[[0.0], [np.inf]]), "coefficients must be finite"),
        # spin 0 would index b[-1], which is spin 2
        (lambda: ClassicalModeState.zero(CFG1).set_b(0, (0,), 1.0), "spin must be 1 or 2, got 0"),
        (lambda: ClassicalModeState.zero(CFG1).set_d(0, (0,), 1.0), "spin must be 1 or 2, got 0"),
        (lambda: ClassicalModeState.zero(CFG1).set_b(3, (0,), 1.0), "spin must be 1 or 2, got 3"),
        (lambda: ClassicalModeState.zero(CFG1).set_d(1, (2,), 1.0),
         r"momentum \(2,\) is not on the mode lattice \(n_max = 1\)"),
        (lambda: ClassicalModeState.zero(CFG3).set_b(1, (1, 1, 0), 1.0),
         r"momentum \(1, 1, 0\) is not on the mode lattice \(n_max = 1\)"),
        (lambda: ClassicalModeState.zero(CFG3).set_b(1, (0,), 1.0),
         r"momentum \(0,\) is not on the mode lattice"),
        # a length-8 vector broadcast against an 8^3 grid used to give a number
        (lambda: coulomb_energy(np.ones(8), CFG8),
         r"density has shape \(8,\), the grid \(8, 8, 8\)"),
        (lambda: coulomb_cross_energy(np.ones((8, 8, 8)), np.ones(8), CFG8),
         r"density has shape \(8,\), the grid \(8, 8, 8\)"),
        (lambda: decomposition_report(np.ones(8), [(np.ones(8), np.zeros(8))], CFG8),
         r"density has shape \(8,\), the grid \(8, 8, 8\)"),
        (lambda: decomposition_report(np.ones(8), [(np.ones((8, 8, 8)), np.zeros((8, 8, 8)))],
                                      CFG8),
         r"density has shape \(8,\), the grid \(8, 8, 8\)"),
        (lambda: total_charge(np.ones(8), CFG8),
         r"density has shape \(8,\), the grid \(8, 8, 8\)"),
        (lambda: coulomb_energy_direct(np.ones(8), CFG8),
         r"density has shape \(8,\), the grid \(8, 8, 8\)"),
        (lambda: coulomb_energy_direct(np.ones((4, 4, 4)), CFG8),
         r"density has shape \(4, 4, 4\), the grid \(8, 8, 8\)"),
        # a state of another lattice failed with a bare KeyError
        (lambda: synthesize_field(ClassicalModeState.zero(replace(CFG1, n_max=2)), CFG1),
         r"lattice point \(-2,\) of the mode state is not a mode of the config "
         r"\(dimension 1, n_max = 1\)"),
        (lambda: synthesize_field(ClassicalModeState.zero(CFG1).set_b(1, (0,), 1.0), CFG3),
         r"lattice point \(-1,\) of the mode state is not a mode of the config "
         r"\(dimension 3, n_max = 1\)"),
        # the classical grid is the config's, so its box is checked there
        (lambda: replace(CFG1, box_l=np.inf), "box_l must be finite, got inf"),
    ], ids=["cloud-zero-sigma",
            "cloud-nan-sigma", "cloud-negative-sigma", "cloud-center-3-in-1d",
            "cloud-center-1-in-3d", "nan-b", "inf-d", "set-b-spin-0",
            "set-d-spin-0", "set-b-spin-3", "momentum-off-lattice-1d",
            "momentum-off-ball-3d", "momentum-wrong-dimension", "energy-density-shape",
            "cross-energy-density-shape", "report-density-shape", "report-total-density-shape",
            "total-charge-density-shape",
            "direct-energy-density-shape", "direct-energy-grid-size",
            "synthesis-state-of-larger-lattice", "synthesis-1d-state-in-3d",
            "grid-inf-box"])
    def test_bad_inputs_rejected(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()


def _grid_shape(cfg):
    return (cfg.grid_points,) * cfg.dimension


def _cell_volume(cfg):
    return (cfg.box_l / cfg.grid_points) ** cfg.dimension


def _reference_synthesize_field(state, cfg):
    """The synthesis loop that tabulated every lattice point's plane wave,
    occupied or not."""
    table = build_spinors(cfg)
    ax = np.arange(cfg.grid_points) * (cfg.box_l / cfg.grid_points)
    meshes = np.meshgrid(*[ax] * cfg.dimension, indexing="ij")
    psi = np.zeros((4, *_grid_shape(cfg)), dtype=np.complex128)
    root_v = np.sqrt(cfg.volume)
    for i, n in enumerate(state.lattice):
        phase = np.zeros(_grid_shape(cfg), dtype=float)
        for comp, mesh in zip(n, meshes):
            phase = phase + (2.0 * np.pi / cfg.box_l) * comp * mesh
        plus = np.exp(1j * phase)
        minus = plus.conj()
        inv_root = 1.0 / (np.sqrt(2.0 * table.e[n]) * root_v)
        comp_shape = (4,) + (1,) * cfg.dimension
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


@pytest.mark.parametrize("cfg", [CFG1, CFG3], ids=["1d", "3d"])
def test_synthesis_matches_reference_loop_bitwise(rng, cfg):
    for _ in range(4):
        st = ClassicalModeState.zero(cfg)
        for coeffs in (st.b, st.d):
            values = rng.standard_normal(coeffs.shape) + 1j * rng.standard_normal(coeffs.shape)
            coeffs[:] = np.where(rng.random(coeffs.shape) < 0.6, 0.0, values)
        st.b[:, 0] = st.d[:, 0] = 0.0  # at least one point with no coefficient
        got = synthesize_field(st, cfg)
        assert got.tobytes() == _reference_synthesize_field(st, cfg).tobytes()


class TestChargeDensity:
    def test_zero_field(self):
        rho = charge_density(np.zeros((4, 8)), CFG1)
        assert np.all(rho == 0)

    def test_normalized_electron_state_total_charge(self):
        st = ClassicalModeState.zero(CFG1).set_b(1, (1,), 1.0)
        psi = synthesize_field(st, CFG1)
        rho = charge_density(psi, CFG1)
        assert total_charge(rho, CFG1) == pytest.approx(-CFG1.charge, abs=1e-10)

    def test_quadratic_in_amplitude(self):
        st = ClassicalModeState.zero(CFG1).set_b(2, (0,), 0.7)
        rho1 = charge_density(synthesize_field(st, CFG1), CFG1)
        rho2 = charge_density(synthesize_field(st.scaled(2.0), CFG1), CFG1)
        assert np.abs(rho2 - 4.0 * rho1).max() <= 1e-12

    def test_never_positive(self, rng):
        st = ClassicalModeState.zero(CFG1)
        st.b[:] = rng.standard_normal(st.b.shape) + 1j * rng.standard_normal(st.b.shape)
        st.d[:] = rng.standard_normal(st.d.shape) + 1j * rng.standard_normal(st.d.shape)
        rho = charge_density(synthesize_field(st, CFG1), CFG1)
        assert np.all(rho <= 0)


class TestCoulombEnergy:
    def test_zero_density(self):
        assert coulomb_energy(np.zeros(_grid_shape(CFG1)), CFG1) == 0.0

    def test_positive_for_nonzero(self):
        rho = gaussian_cloud(CFG3, CFG3.box_l / 8.0, -1.0)
        assert coulomb_energy(rho, CFG3) > 0.0

    @pytest.mark.parametrize("cfg,grid", [(CFG1, (64,)), (CFG3, (16, 16, 16))])
    def test_momentum_vs_real_space(self, cfg, grid):
        rho = gaussian_cloud(cfg, cfg.box_l / 8.0, -cfg.charge)
        assert rho.shape == grid  # the config's grid
        u_k = coulomb_energy(rho, cfg)
        u_r = coulomb_energy_direct(rho, cfg)
        assert abs(u_k - u_r) <= 1e-6 * abs(u_r)

    @pytest.mark.parametrize("cfg", [CFG1, CFG3], ids=["1d", "3d"])
    def test_energy_scales_as_charge_squared(self, cfg):
        # the density carries the charge and the kernel none, V(0) included;
        # halving a density halves every rounding, so the energies quarter exactly
        energies = []
        for e in (1.0, 0.5):
            cfg_e = replace(cfg, charge=e, q0_value=0.5)
            rho = gaussian_cloud(cfg, cfg.box_l / 8.0, -e)
            energies.append((coulomb_energy(rho, cfg_e),
                             coulomb_energy_direct(rho, cfg_e)))
        (spec1, direct1), (spec_half, direct_half) = energies
        assert spec_half == 0.25 * spec1
        assert direct_half == 0.25 * direct1

    def test_scaling_self_similar(self):
        # box and width scaled together: U scales exactly like 1/sigma
        sigma0 = CFG3.box_l / 8.0
        products = []
        for f in (1.0, 2.0, 4.0):
            cfg = replace(CFG3, box_l=CFG3.box_l * f)
            rho = gaussian_cloud(cfg, sigma0 * f, -1.0)
            products.append(coulomb_energy(rho, cfg) * sigma0 * f)
        spread = (max(products) - min(products)) / abs(products[0])
        assert spread <= 1e-4

    def test_scaling_constant_against_oracle(self):
        sigma = CFG3.box_l / 8.0
        rho = gaussian_cloud(CFG3, sigma, -1.0)
        u = coulomb_energy(rho, CFG3)
        u_oracle = coulomb_energy_direct(rho, CFG3)
        assert u * sigma == pytest.approx(u_oracle * sigma, rel=1e-6)

    def test_bilinearity(self, rng):
        rho1 = gaussian_cloud(CFG1, CFG1.box_l / 10.0, -1.0, center=(CFG1.box_l * 0.3,))
        rho2 = gaussian_cloud(CFG1, CFG1.box_l / 12.0, -1.0, center=(CFG1.box_l * 0.7,))
        lhs = coulomb_energy(rho1 + rho2, CFG1)
        rhs = (
            coulomb_energy(rho1, CFG1)
            + coulomb_energy(rho2, CFG1)
            + coulomb_cross_energy(rho1, rho2, CFG1)
        )
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)

    def test_opposite_charges_attract(self):
        rho1 = gaussian_cloud(CFG1, CFG1.box_l / 10.0, -1.0, center=(CFG1.box_l * 0.45,))
        rho2 = gaussian_cloud(CFG1, CFG1.box_l / 10.0, +1.0, center=(CFG1.box_l * 0.55,))
        assert coulomb_cross_energy(rho1, rho2, CFG1) < 0.0


class TestDecomposition:
    def _splits(self, cfg):
        rho = gaussian_cloud(cfg, cfg.box_l / 8.0, -2.0 * cfg.charge)
        halves = (rho / 2.0, rho / 2.0)
        mask = (np.indices(rho.shape)[-1] < cfg.grid_points // 2).astype(float)
        topbot = (rho * mask, rho * (1.0 - mask))
        return rho, halves, topbot

    def test_total_invariant_across_splits(self):
        rho, halves, topbot = self._splits(CFG3)
        rows = decomposition_report(rho, [halves, topbot], CFG3)
        assert rows[0].total == pytest.approx(rows[1].total, rel=1e-10)

    def test_topbottom_has_larger_self_energy(self):
        rho, halves, topbot = self._splits(CFG3)
        rows = decomposition_report(rho, [halves, topbot], CFG3)
        assert rows[1].self_sum > rows[0].self_sum
        assert rows[1].cross < rows[0].cross

    def test_trivial_split_has_zero_cross(self):
        rho, _, _ = self._splits(CFG1)
        rows = decomposition_report(rho, [(rho, np.zeros_like(rho))], CFG1)
        assert rows[0].cross == 0.0
        assert rows[0].self2 == 0.0

    @pytest.mark.parametrize("cfg", [CFG1, CFG3], ids=["1d", "3d"])
    def test_energies_equal_per_call_energies_bitwise(self, rng, cfg):
        rho, halves, topbot = self._splits(cfg)
        noise = rng.standard_normal(rho.shape)
        splits = [halves, topbot, (rho - noise, noise)]
        for row, (rho1, rho2) in zip(decomposition_report(rho, splits, cfg), splits):
            assert row.self1 == coulomb_energy(rho1, cfg)
            assert row.self2 == coulomb_energy(rho2, cfg)
            assert row.cross == coulomb_cross_energy(rho1, rho2, cfg)

    def test_mismatched_split_rejected(self):
        rho, halves, _ = self._splits(CFG1)
        with pytest.raises(ValueError):
            decomposition_report(rho, [(halves[0], halves[1] * 0.5)], CFG1)


def _full_spectrum_energies(rho1, rho2, cfg):
    """Self and cross energies summed over the full complex FFT grid."""
    from fockbox.model import coulomb_kernel

    kvals = coulomb_kernel(cfg).grid_values(cfg.grid_points)
    dv = (cfg.box_l / cfg.grid_points) ** cfg.dimension
    f1, f2 = np.fft.fftn(rho1) * dv, np.fft.fftn(rho2) * dv
    self1 = 0.5 / cfg.volume * np.sum(kvals * np.abs(f1) ** 2)
    cross = np.sum(kvals * f1.conj() * f2).real / cfg.volume
    return self1, cross


@pytest.mark.parametrize("dimension", [1, 3])
@pytest.mark.parametrize("points", [2, 4, 16, 32])
@pytest.mark.parametrize("q0_value", [0.0, 5.0])
def test_half_spectrum_energies_match_full_spectrum(rng, dimension, points, q0_value):
    # G = 2 has no interior plane; q0_value = 5 makes the k = 0 entry count,
    # and a random density's mean charge feeds it
    cfg = ModelConfig(dimension=dimension, grid_points=points, q0_value=q0_value)
    rho1, rho2 = rng.standard_normal((2, *(points,) * dimension))
    self1, cross = _full_spectrum_energies(rho1, rho2, cfg)
    assert coulomb_energy(rho1, cfg) == pytest.approx(self1, rel=1e-14, abs=0)
    assert coulomb_cross_energy(rho1, rho2, cfg) == pytest.approx(cross, rel=1e-14, abs=0)


def _reference_energy_direct(rho, cfg):
    """The shift-by-shift loop the vectorized oracle replaced: one rolled
    copy of rho and one product sum per offset."""
    from fockbox.classical import _kernel_real_table

    ktable = _kernel_real_table(cfg)
    total = 0.0
    for offset in np.ndindex(*_grid_shape(cfg)):
        moved = np.roll(rho, [-s for s in offset], axis=tuple(range(cfg.dimension)))
        total += ktable[offset] * float(np.sum(rho * moved))
    return 0.5 * total * _cell_volume(cfg) ** 2


@pytest.mark.parametrize("cfg,points", [(CFG1, 64), (CFG3, 8), (CFG3, 16)],
                         ids=["1d", "3d", "3d-16"])
def test_direct_energy_matches_shift_loop(rng, cfg, points):
    cfg = replace(cfg, grid_points=points)
    rho = rng.standard_normal(_grid_shape(cfg))  # no symmetry for the shifts to hide behind
    want = _reference_energy_direct(rho, cfg)
    # the same products, summed in another order
    assert abs(coulomb_energy_direct(rho, cfg) - want) <= 1e-13 * abs(want)


def _traced_peak(fn, *args):
    """fn(*args) and the peak of the memory it allocated, traced by tracemalloc."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_synthesis_memory_is_bounded_by_the_field():
    # the plane waves are built on open grids and added one spinor
    # component at a time: no (4, G^3) temporary beside the field
    cfg = ModelConfig(dimension=3, grid_points=32)
    st = ClassicalModeState.zero(cfg)
    st.b[:, ::2] = 0.6 - 0.8j
    psi, peak = _traced_peak(synthesize_field, st, cfg)
    assert peak <= 1.75 * psi.nbytes


def test_direct_energy_memory_is_one_shift_plane():
    # the 3D oracle gathers one y-shift's G^4 block at a time (0.5 MiB at
    # G = 16), and frees it before the next: not every shift's G^5 block,
    # nor two blocks at once
    rho = gaussian_cloud(CFG3, CFG3.box_l / 8.0, -1.0)
    _, peak = _traced_peak(coulomb_energy_direct, rho, CFG3)
    assert peak <= 1 * 2**20


def test_direct_energy_matches_momentum_sum_at_production_grid():
    # the real-space table is the exact inverse transform of the kernel
    # grid, so the two energies agree to rounding on the 32^3 grid too
    cfg = ModelConfig(dimension=3, grid_points=32)
    rho = gaussian_cloud(cfg, cfg.box_l / 8.0, -cfg.charge)
    u_direct, peak = _traced_peak(coulomb_energy_direct, rho, cfg)
    u_k = coulomb_energy(rho, cfg)
    assert abs(u_direct - u_k) <= 1e-12 * abs(u_k)
    assert peak < 12 * 2**20  # one 8 MiB shift block and G^3 arrays


@pytest.mark.parametrize("cfg", [CFG1, CFG3, ModelConfig(dimension=3, q0_value=7.0)],
                         ids=["1d", "3d", "3d-q0"])
@pytest.mark.parametrize("points", [8, 32])
def test_kernel_grid_values_match_values_bitwise(cfg, points):
    # |q|^2 summed over open grids maps through the same float code as
    # values() of the stacked integer transfer vectors
    from fockbox.model import coulomb_kernel

    kern = coulomb_kernel(cfg)
    freqs = np.fft.fftfreq(points, d=1.0 / points).astype(np.int64)
    q = np.stack(np.meshgrid(*[freqs] * cfg.dimension, indexing="ij"), axis=-1)
    want = kern.values(q)
    got = kern.grid_values(points)
    assert got.shape == want.shape == (points,) * cfg.dimension
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("cfg,points", [(CFG3, 8), (CFG3, 16), (CFG1, 64)], ids=["8", "16", "1d"])
def test_kernel_real_table_matches_einsum(cfg, points):
    # the table as one einsum over every axis of k, with no FFT
    from fockbox.classical import _kernel_real_table
    from fockbox.model import coulomb_kernel

    cfg = replace(cfg, grid_points=points)
    kvals = coulomb_kernel(cfg).grid_values(points)
    freqs = np.fft.fftfreq(points, d=1.0 / points)
    phase = np.exp(2j * np.pi * np.outer(freqs, np.arange(points)) / points)
    k_axes, x_axes = "abc"[:cfg.dimension], "xyz"[:cfg.dimension]
    spec = ",".join([k_axes] + [k + x for k, x in zip(k_axes, x_axes)]) + "->" + x_axes
    want = np.einsum(spec, kvals, *[phase] * cfg.dimension) / cfg.volume
    got = _kernel_real_table(cfg)
    assert np.abs(want.imag).max() <= 1e-12 * np.abs(want.real).max()
    assert np.abs(got - want.real).max() <= 1e-13 * np.abs(want.real).max()


def test_kernel_real_table_memory_is_a_few_grids():
    # one k axis is contracted at a time: G^3 complex arrays (0.5 MiB at
    # G = 32), no (G, G, G, G) temporary (16 MiB)
    from fockbox.classical import _kernel_real_table

    _, peak = _traced_peak(_kernel_real_table, ModelConfig(dimension=3, grid_points=32))
    assert peak <= 2 * 2**20
