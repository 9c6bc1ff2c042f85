"""Total-momentum blocks: the split of a basis, and the vacuum experiment
run on its (charge 0, P = 0) block."""

from dataclasses import replace

import numpy as np
import pytest

from conftest import as_scipy, random_start, reference_momentum_blocks

from fockbox.experiments import ExperimentSpec, run_vacuum_instability
from fockbox.fock import (
    Sector,
    enumerate_basis,
    ground_state,
    to_matrices,
    to_matrix,
)
from fockbox.model import ModelConfig, coulomb_full_packed, free_hamiltonian, modes_for

CFG1 = ModelConfig(dimension=1)


def _vacuum_sector(cfg):
    ms = modes_for(cfg)
    return ms, enumerate_basis(ms, Sector(n_max=4, charge=0))


def _hamiltonian(cfg, basis, ms):
    h_free, h_coul = to_matrices([free_hamiltonian(cfg), coulomb_full_packed(cfg)], basis, ms)
    return h_free + h_coul


@pytest.mark.parametrize("dimension", [1, 3])
def test_blocks_are_the_momentum_sectors(dimension):
    ms, basis = _vacuum_sector(ModelConfig(dimension=dimension))
    blocks = reference_momentum_blocks(basis, ms)
    assert list(blocks) == sorted(blocks)
    assert sum(idx.size for idx in blocks.values()) == basis.size
    for p, idx in blocks.items():
        assert np.array_equal(basis[idx],
                              enumerate_basis(ms, Sector(n_max=4, charge=0, momentum=p)))


@pytest.mark.parametrize("dimension", [1, 3])
def test_hamiltonians_do_not_couple_blocks(dimension):
    cfg = ModelConfig(dimension=dimension)
    ms, basis = _vacuum_sector(cfg)
    label = np.empty(basis.size, dtype=np.int64)
    for i, idx in enumerate(reference_momentum_blocks(basis, ms).values()):
        label[idx] = i
    for op in (free_hamiltonian(cfg), coulomb_full_packed(cfg)):
        coo = as_scipy(to_matrix(op, basis, ms)).tocoo()
        assert coo.nnz > 0
        across = label[coo.row] != label[coo.col]
        assert not np.any(coo.data[across] != 0)


def test_unrestricted_ground_state_lies_in_zero_momentum_block_3d():
    # the vacuum runner solves only the P = 0 block; on the whole 3D
    # charge-0 N <= 4 sector the lowest energy is that block's
    cfg = ModelConfig(dimension=3)
    ms, basis = _vacuum_sector(cfg)
    block = enumerate_basis(ms, Sector(n_max=4, charge=0, momentum=(0, 0, 0)))
    h_all, h_block = _hamiltonian(cfg, basis, ms), _hamiltonian(cfg, block, ms)
    e_all = ground_state(h_all, random_start(h_all, 2))[0]
    e_block = ground_state(h_block, random_start(h_block, 2))[0]
    assert basis.size == 8478 and block.size == 492
    assert abs(e_all - e_block) <= 1e-9


def test_vacuum_runner_matches_full_sector(tmp_path):
    rec = run_vacuum_instability(ExperimentSpec(config=CFG1, out_dir=tmp_path, seed=5))
    assert rec.all_passed
    ms, basis = _vacuum_sector(CFG1)
    assert rec.scalars["sector_dim"] == basis.size == 262
    assert rec.scalars["block_dim"] == 72
    sweep = np.loadtxt(tmp_path / "vacuum" / "coupling_sweep.csv", delimiter=",", skiprows=1)
    assert len(sweep) == 4
    for f, (charge, e_block) in zip((1.0, 0.5, 0.25, 0.125), sweep):
        assert charge == CFG1.charge * f
        h = _hamiltonian(replace(CFG1, charge=charge), basis, ms)
        assert abs(e_block - ground_state(h, random_start(h, 5))[0]) <= 1e-9
    assert sweep[0, 1] == rec.scalars["ground_energy"]


def test_vacuum_sweep_warm_starts_match_cold_solves_3d(tmp_path):
    # each sweep point starts its solve from the previous point's ground state;
    # a cold, seeded solve of the same block Hamiltonian gives the same E0
    cfg = ModelConfig(dimension=3)
    rec = run_vacuum_instability(ExperimentSpec(config=cfg, out_dir=tmp_path, seed=3))
    assert rec.all_passed
    ms = modes_for(cfg)
    basis = enumerate_basis(ms, Sector(n_max=4, charge=0, momentum=(0, 0, 0)))
    sweep = np.loadtxt(tmp_path / "vacuum" / "coupling_sweep.csv", delimiter=",", skiprows=1)
    solves = rec.meta["ground_state"]
    assert [s["charge"] for s in solves] == list(sweep[:, 0])
    for (charge, e_warm), solve in zip(sweep, solves):
        h = _hamiltonian(replace(cfg, charge=charge), basis, ms)
        cold = ground_state(h, random_start(h, 11))[0]
        assert abs(e_warm - cold) <= 1e-12
        assert solve["solver"] == "davidson"
    # the warm-started points need fewer products than the cold first one
    assert all(s["matvecs"] < solves[0]["matvecs"] for s in solves[1:])
