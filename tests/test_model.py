"""Hamiltonian builders: kernels, free term, Coulomb orderings, pieces,
and the conservation-law block structures; config validation."""

import json
import math

import numpy as np
import pytest

from conftest import as_scipy, random_start

from fockbox.algebra import vacuum_expectation, wick_reorder
from fockbox.fock import (
    Sector,
    enumerate_basis,
    ground_state,
    to_matrix,
)
from fockbox.model import (
    ModelConfig,
    bad_electron_term,
    coulomb_full,
    coulomb_kernel,
    coulomb_partial,
    coulomb_pieces,
    dispersion,
    free_hamiltonian,
    modes_for,
)
from fockbox.coulomb import CoulombKernel
from fockbox.modes import Species

CFG1 = ModelConfig(dimension=1)
CFG3 = ModelConfig(dimension=3)


class TestKernel:
    def test_reference_value_3d(self):
        # L = 2 pi (hbar = 1): k = q, so V((1,0,0)) = 4 pi; e^2 is not in the kernel
        for charge in (0.0, 0.3, 1.0, 2.0):
            kern = coulomb_kernel(ModelConfig(dimension=3, box_l=2.0 * math.pi, charge=charge))
            assert kern.value((1, 0, 0)) == pytest.approx(4.0 * math.pi, rel=1e-14)

    def test_parity(self, rng):
        kern = coulomb_kernel(CFG3)
        for _ in range(10):
            q = tuple(int(x) for x in rng.integers(-2, 3, 3))
            assert kern.value(q) == pytest.approx(kern.value(tuple(-c for c in q)))

    def test_nonnegative_and_finite(self):
        for cfg in (CFG1, CFG3):
            kern = coulomb_kernel(cfg)
            axis = np.arange(-2 * cfg.n_max, 2 * cfg.n_max + 1)
            cube = np.stack(np.meshgrid(*[axis] * cfg.dimension, indexing="ij"), axis=-1)
            v = kern.values(cube)
            assert v.size == axis.size**cfg.dimension
            assert np.all(v >= 0.0) and np.all(np.isfinite(v))

    def test_q0_dropped_by_default(self):
        assert coulomb_kernel(CFG3).value((0, 0, 0)) == 0.0

    def test_q0_override(self):
        kern = coulomb_kernel(ModelConfig(dimension=3, q0_value=7.0))
        assert kern.value((0, 0, 0)) == 7.0

    def test_1d_softened_kernel_decays(self):
        kern = coulomb_kernel(CFG1)
        v1, v2 = kern.value((1,)), kern.value((2,))
        assert v1 > v2 > 0.0

    @pytest.mark.parametrize("make, message", [
        (lambda: CoulombKernel(2, 1.0), "dimension must be 1 or 3"),
        (lambda: coulomb_kernel(CFG3).value((1, 0)), "has 2 components, expected 3"),
        # the 1D V(q) would be nan for every q at a < 0 or nan, and inf at 0
        *[(lambda a=a: CoulombKernel(1, 1.0, a=a), "softening length a must be finite and > 0")
          for a in (-1.0, 0.0, math.nan, math.inf)],
        # a defaults to box_l / 100, so a bad box is named before a is derived
        *[(lambda d=d, box_l=box_l: CoulombKernel(d, box_l),
           "box length box_l must be finite and > 0")
          for d in (1, 3) for box_l in (-1.0, 0.0, math.nan, math.inf)],
        *[(lambda q0=q0: CoulombKernel(3, 2 * math.pi, q0_value=q0), "q0_value must be finite")
          for q0 in (math.nan, math.inf)],
    ], ids=["dimension", "transfer", "a-negative", "a-zero", "a-nan", "a-inf",
            *[f"box_l-{d}d-{case}" for d in (1, 3) for case in ("negative", "zero", "nan", "inf")],
            "q0-nan", "q0-inf"])
    def test_bad_arguments_rejected(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()


class TestDispersion:
    def test_rest_energy(self):
        cfg = ModelConfig(dimension=3, mass=1.7, c=2.0)
        assert dispersion(cfg, (0, 0, 0)) == pytest.approx(1.7 * 4.0)

    def test_symmetric_and_monotone(self):
        assert dispersion(CFG3, (1, 0, 0)) == pytest.approx(dispersion(CFG3, (-1, 0, 0)))
        assert dispersion(CFG3, (1, 0, 0)) > dispersion(CFG3, (0, 0, 0))

    def test_cutoff_enforced(self):
        with pytest.raises(ValueError):
            dispersion(CFG3, (2, 0, 0))


class TestFreeHamiltonian:
    def test_one_particle_block_is_diagonal_dispersions(self):
        ms = modes_for(CFG1)
        basis = enumerate_basis(ms, Sector(n=1))
        mat = to_matrix(free_hamiltonian(CFG1), basis, ms).toarray()
        expected = [dispersion(CFG1, ms[int(b).bit_length() - 1].momentum) for b in basis]
        assert np.abs(mat - np.diag(expected)).max() <= 1e-12

    def test_vacuum_expectation_zero(self):
        assert vacuum_expectation(free_hamiltonian(CFG1)) == 0

    def test_positive_on_nonvacuum(self):
        ms = modes_for(CFG1)
        basis = enumerate_basis(ms, Sector(n_max=2))
        mat = to_matrix(free_hamiltonian(CFG1), basis, ms).toarray()
        eigs = np.linalg.eigvalsh(mat)
        assert (np.sort(eigs)[1:] > 0).all()  # all but the vacuum

    def test_ground_state_is_lowest_mode_energy_sum(self):
        # the free Hamiltonian is diagonal: the sector ground energy is the
        # smallest sum of occupied-mode dispersions
        ms = modes_for(CFG1)
        basis = enumerate_basis(ms, Sector(n=2, charge=-2))
        op = to_matrix(free_hamiltonian(CFG1), basis, ms)
        energy, _ = ground_state(op, random_start(op, 0))
        best = min(
            sum(dispersion(CFG1, ms[k].momentum) for k in range(len(ms)) if int(b) >> k & 1)
            for b in basis
        )
        assert energy == pytest.approx(best, abs=1e-10)


def _one_electron_block(cfg, expr):
    ms = modes_for(cfg)
    basis = enumerate_basis(ms, Sector(n=1, charge=-1))
    return to_matrix(expr, basis, ms)


class TestCoulombFull:
    @pytest.mark.parametrize("cfg", [CFG1, CFG3])
    def test_one_electron_block_structurally_zero(self, cfg):
        block = _one_electron_block(cfg, coulomb_full(cfg))
        assert block.nnz == 0  # no stored entries at all

    def test_vacuum_expectation_zero(self):
        assert abs(vacuum_expectation(coulomb_full(CFG1))) == 0

    def test_purely_quartic(self):
        assert {t.degree for t in coulomb_full(CFG1).terms} == {4}

    @pytest.mark.parametrize("sector", [Sector(n_max=2), Sector(n_max=4, charge=0), Sector(n=2, charge=-2)])
    def test_hermitian_on_sectors(self, sector):
        ms = modes_for(CFG1)
        basis = enumerate_basis(ms, sector)
        op = to_matrix(coulomb_full(CFG1), basis, ms)
        assert op.hermiticity_defect() <= 1e-12

    def test_charge_block_diagonal(self):
        ms = modes_for(CFG1)
        basis = enumerate_basis(ms, Sector(n_max=2))
        charges = np.array(
            [sum(ms[k].species.charge for k in range(len(ms)) if int(b) >> k & 1) for b in basis]
        )
        mat = as_scipy(to_matrix(coulomb_full(CFG1), basis, ms)).tocoo()
        assert all(charges[r] == charges[c] for r, c in zip(mat.row, mat.col))

    def test_momentum_block_diagonal(self):
        ms = modes_for(CFG1)
        basis = enumerate_basis(ms, Sector(n_max=2))
        momenta = np.array(
            [sum(ms[k].momentum[0] for k in range(len(ms)) if int(b) >> k & 1) for b in basis]
        )
        for expr in (coulomb_full(CFG1), coulomb_partial(CFG1), free_hamiltonian(CFG1)):
            mat = as_scipy(to_matrix(expr, basis, ms)).tocoo()
            assert all(momenta[r] == momenta[c] for r, c in zip(mat.row, mat.col))

    def test_contains_number_changing_terms(self):
        degree_imbalance = {
            sum(1 if f.create else -1 for f in t.factors) for t in coulomb_full(CFG1).terms
        }
        assert degree_imbalance & {4, -4, 2, -2}

    def test_zero_coupling_gives_free_theory(self):
        for q0 in (0.0, 0.5):  # V(0) is charge-free too: e^2 = 0 clears it
            cfg = ModelConfig(dimension=1, charge=0.0, q0_value=q0)
            assert coulomb_full(cfg).is_zero()
            assert coulomb_partial(cfg).is_zero()


class TestCoulombPartial:
    def test_one_electron_block_nonzero(self):
        block = _one_electron_block(CFG1, coulomb_partial(CFG1))
        assert block.max_abs_entry() > 0

    def test_vacuum_expectation_positive(self):
        # normal-ordering each density separately kills <0|rho|0> but not
        # the cross-density pair bubble: <0|rho(x)rho(y)|0> sums
        # |<pair|rho|0>|^2, so the partially ordered term carries a strictly
        # positive vacuum energy (one of its defects)
        val = vacuum_expectation(coulomb_partial(CFG1))
        assert abs(val.imag) <= 1e-14
        assert val.real > 0

    def test_differs_from_full_by_contraction_remainder(self):
        # the remainder is one-body plus the c-number vacuum bubble; no
        # quartic content survives
        diff = wick_reorder(coulomb_partial(CFG1) - coulomb_full(CFG1))
        diff = diff.prune(1e-12 * max(coulomb_full(CFG1).max_abs_coeff(), 1.0))
        degrees = {t.degree for t in diff.terms}
        assert 2 in degrees
        assert degrees <= {0, 2}


class TestCoulombPieces:
    def test_ee_one_electron_block_zero(self):
        pieces = coulomb_pieces(CFG1)
        assert _one_electron_block(CFG1, pieces.ee).nnz == 0

    def test_piece_structure(self):
        pieces = coulomb_pieces(CFG1)
        for t in pieces.ee.terms:
            kinds = [(f.mode.species, f.create) for f in t.factors]
            assert all(sp is Species.ELECTRON for sp, _ in kinds)
            assert sorted(c for _, c in kinds) == [False, False, True, True]
        for t in pieces.ep.terms:
            species = sorted(f.mode.species.value for f in t.factors)
            assert species == ["e", "e", "p", "p"]
        for t in pieces.pp.terms:
            assert all(f.mode.species is Species.POSITRON for f in t.factors)

    def test_remainder_content(self):
        # the remainder holds the number-changing terms plus the
        # electron-positron annihilation channel (pair created at one vertex
        # and destroyed at the other), which conserves both particle numbers
        # but is not part of the three density-density pieces; it never
        # contains single-species density-density content
        pieces = coulomb_pieces(CFG1)
        saw_number_changing = False
        for t in pieces.number_changing.terms:
            n_e = sum(1 if f.create else -1 for f in t.factors if f.mode.species is Species.ELECTRON)
            n_p = sum(1 if f.create else -1 for f in t.factors if f.mode.species is Species.POSITRON)
            species = {f.mode.species for f in t.factors}
            if (n_e, n_p) != (0, 0):
                saw_number_changing = True
            else:
                assert species == {Species.ELECTRON, Species.POSITRON}
        assert saw_number_changing

    @pytest.mark.parametrize("cfg", [CFG1, CFG3])
    @pytest.mark.parametrize("sector_kwargs", [
        dict(n_max=2), dict(n_max=2, charge=0), dict(n=2, charge=-2), dict(n=1, charge=-1),
    ])
    def test_decomposition_completeness(self, cfg, sector_kwargs):
        ms = modes_for(cfg)
        basis = enumerate_basis(ms, Sector(**sector_kwargs))
        pieces = coulomb_pieces(cfg)
        full = as_scipy(to_matrix(coulomb_full(cfg), basis, ms))
        total = sum(as_scipy(to_matrix(p, basis, ms)) for p in pieces)
        diff = abs(total - full)
        scale = max(np.abs(full.data).max() if full.nnz else 0.0, 1.0)
        assert (diff.max() if diff.nnz else 0.0) <= 1e-13 * scale


class TestBadElectronTerm:
    def test_one_electron_block_nonzero_with_positive_diagonal(self):
        block = _one_electron_block(CFG1, bad_electron_term(CFG1)).toarray()
        assert np.abs(block).max() > 0
        diag = np.diag(block)
        assert np.abs(diag.imag).max() <= 1e-14
        assert (diag.real > 0).all()

    def test_wick_equals_ee_plus_one_body(self):
        # as matrices on the full N<=2 space: wick(bad) = ee + degree-2 rest
        cfg = CFG1
        ms = modes_for(cfg)
        basis = enumerate_basis(ms, Sector(n_max=2))
        bad = bad_electron_term(cfg)
        pieces = coulomb_pieces(cfg)
        remainder = wick_reorder(bad) - pieces.ee
        remainder = remainder.prune(1e-13 * max(bad.max_abs_coeff(), 1.0))
        assert {t.degree for t in remainder.terms} == {2}
        lhs = as_scipy(to_matrix(bad, basis, ms))
        rhs = as_scipy(to_matrix(pieces.ee, basis, ms)) + as_scipy(to_matrix(remainder, basis, ms))
        diff = abs(lhs - rhs)
        assert (diff.max() if diff.nnz else 0.0) <= 1e-12

    def test_hermitian(self):
        ms = modes_for(CFG1)
        basis = enumerate_basis(ms, Sector(n_max=2))
        assert to_matrix(bad_electron_term(CFG1), basis, ms).hermiticity_defect() <= 1e-12


class TestUnits:
    def test_default_config_round_trips_through_json(self, tmp_path):
        cfg = ModelConfig()
        path = tmp_path / "cfg.json"
        path.write_text(cfg.to_json())
        assert ModelConfig.from_file(path) == cfg

    @pytest.mark.parametrize("data, message", [
        ({"dimension": 1, "nmax": 2}, "^unknown config keys: nmax$"),
        ({"sectr": 2, "n_max": 1, "grid": 8}, "^unknown config keys: sectr, grid$"),
        ([1, 2], "^a config must be a JSON object, got list$"),
        ("dimension", "^a config must be a JSON object, got str$"),
        ({"schema_version": 2, "dimension": 1}, "^unsupported config schema version 2$"),
        # True == 1 and 1.0 == 1, but neither is the integer version
        ({"schema_version": True}, "^unsupported config schema version True$"),
        ({"schema_version": 1.0}, "^unsupported config schema version 1.0$"),
    ])
    def test_from_dict_rejects_what_is_not_a_config(self, data, message):
        with pytest.raises(ValueError, match=message):
            ModelConfig.from_dict(data)

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            ModelConfig(dimension=2)
        with pytest.raises(ValueError):
            ModelConfig(box_l=-1.0)
        with pytest.raises(ValueError):
            ModelConfig(grid_points=24)

    @pytest.mark.parametrize("field, value", [
        ("charge", math.nan),
        ("mass", math.nan),
        ("q0_value", math.nan),
        ("box_l", math.inf),
        ("hbar", -math.inf),
        ("c", math.nan),
        ("soften_a", math.inf),
        ("charge", "1.0"),
        ("mass", True),
        ("n_max", 1.5),
        ("n_max", True),
        ("dimension", 3.0),
        ("dimension", False),
        ("sector_n_max", -1),
        ("sector_n_max", 2.0),
        ("grid_points", 2.0),
        ("grid_points", np.int64(32)),
        ("charge", -1.0),
        ("n_max", -1),
        ("soften_a", 0.0),
        ("soften_a", 0.5),  # the 3D kernel has no softening length
        # the classical grid is the config's: its dimension, points and box
        ("dimension", 2),
        ("grid_points", 6),
        ("grid_points", 0),
        ("box_l", -1.0),
        ("box_l", 0.0),
        ("box_l", math.nan),
    ])
    def test_bad_field_rejected_by_name(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            ModelConfig(**{field: value})

    @pytest.mark.parametrize("fields", [
        # the runner checks, the benchmark workloads, the tests' and README's configs
        {}, {"dimension": 1}, {"dimension": 1, "n_max": 2, "sector_n_max": 6},
        {"charge": 0.3}, {"dimension": 1, "q0_value": 0.5}, {"dimension": 1, "grid_points": 64},
        {"dimension": 3, "grid_points": 16}, {"dimension": 1, "charge": 0.0},
        {"dimension": 3, "mass": 1.7, "c": 2.0}, {"dimension": 3, "q0_value": 7.0},
        {"dimension": 1, "mass": 2.0, "c": 3.0, "hbar": 4.0, "box_l": 10.0},
        {"dimension": 1, "soften_a": 0.1, "sector_n_max": 0}, {"momentum_ball": False},
    ])
    def test_valid_configs_load(self, fields):
        cfg = ModelConfig(**fields)
        assert ModelConfig.from_dict(json.loads(cfg.to_json())) == cfg
