"""Parity on the vacuum block: the map of :func:`fockbox.fock.parity_images`
against the Hamiltonians and their term sets, the parity-even sector that
``to_matrices`` maps onto, against a dense projection built here, and the
vacuum runner's E0 against a cold solve of the whole block."""

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from conftest import random_start

from fockbox.experiments import ExperimentSpec, _charge_zero_dim, run_vacuum_instability
from fockbox.fock import (
    Sector,
    SectorError,
    SparseOperator,
    enumerate_basis,
    ground_state,
    pack,
    parity_images,
    parity_modes,
    to_matrices,
)
from fockbox.model import (
    ModelConfig,
    coulomb_full_packed,
    coulomb_partial_packed,
    free_hamiltonian,
    modes_for,
)

CFG1 = ModelConfig(dimension=1)
CFG3 = ModelConfig(dimension=3)
CONFIGS = [
    pytest.param(CFG1, id="1d"),
    pytest.param(CFG3, id="3d"),
    pytest.param(replace(CFG1, q0_value=0.5), id="1d-q0"),
    pytest.param(replace(CFG3, q0_value=0.5), id="3d-q0"),
    pytest.param(replace(CFG1, charge=0.3), id="1d-charge0.3"),
    # the 3D cube at n_max = 1 has 108 modes, past the 64 a state can hold
    pytest.param(ModelConfig(dimension=1, n_max=2, momentum_ball=False), id="1d-nmax2-cube"),
]
# the benchmark's vacuum-1d-n6 block (2146 states); CONFIGS holds the 1D and
# 3D defaults, the other two configs the benchmark runs
CFG_N6 = ModelConfig(dimension=1, n_max=2, sector_n_max=6)
WORKLOADS = [*CONFIGS, pytest.param(CFG_N6, id="vacuum-1d-n6")]


def _block(cfg, cap=4):
    ms = modes_for(cfg)
    basis = enumerate_basis(ms, Sector(n_max=cap, charge=0, momentum=(0,) * cfg.dimension))
    return ms, basis


def _operators(cfg):
    return [free_hamiltonian(cfg), coulomb_full_packed(cfg)]


def _projector(images, parity):
    """Columns: the orthonormal states of the block with P v = parity v,
    one per orbit {i, index[i]} that has one, in basis order."""
    index, sign = images
    cols = []
    for i, j in enumerate(index):
        v = np.zeros(index.size)
        if j == i and sign[i] == parity:
            v[i] = 1.0
        elif j > i:
            v[i], v[j] = 1.0, parity * sign[i]
            v /= np.sqrt(2.0)
        else:
            continue
        cols.append(v)
    return np.array(cols).reshape(-1, index.size).T


def _string_table(opcodes, nops, coeffs):
    """Each ladder string with its factors stably sorted by mode (factors of
    one mode keep their order, so the string changes only by the sign of
    the swaps): {sorted codes: (number of terms, sum of signed
    coefficients)}."""
    table = {}
    for codes, n, c in zip(opcodes, nops, coeffs):
        codes = codes[:n]
        modes = codes >> 1
        swaps = sum(int(a > b) for i, a in enumerate(modes) for b in modes[i + 1:])
        key = tuple(codes[np.argsort(modes, kind="stable")].tolist())
        count, total = table.get(key, (0, 0.0))
        table[key] = count + 1, total + (-1) ** swaps * c
    return table


@pytest.mark.parametrize("builder", [lambda cfg: pack(free_hamiltonian(cfg), modes_for(cfg)),
                                     coulomb_full_packed, coulomb_partial_packed],
                         ids=["free", "coulomb_full", "coulomb_partial"])
@pytest.mark.parametrize("cfg", WORKLOADS)
def test_term_set_maps_onto_itself(cfg, builder):
    # to_matrices counts a pair's drops twice on one column, which holds
    # when P maps the term strings onto themselves, each as often
    op = builder(cfg)
    perm, positrons = parity_modes(op.modes)
    codes = np.where(op.opcodes >= 0, 2 * np.array(perm)[op.opcodes >> 1] + (op.opcodes & 1), -1)
    # P c_k P^-1 = eta_k c_{perm[k]}, eta -1 for a positron's mode
    flips = [sum(positrons >> (int(c) >> 1) & 1 for c in row[:n])
             for row, n in zip(op.opcodes, op.nops)]
    table = _string_table(op.opcodes, op.nops, op.coeffs)
    image = _string_table(codes, op.nops, op.coeffs * (-1.0) ** np.array(flips))
    assert Counter({k: n for k, (n, _) in image.items()}) == Counter(
        {k: n for k, (n, _) in table.items()})
    scale = np.abs(op.coeffs).max()
    assert max(abs(image[k][1] - c) for k, (_, c) in table.items()) <= 1e-15 * scale


@pytest.mark.parametrize("cfg", CONFIGS)
def test_parity_commutes_with_hamiltonians(cfg):
    ms, basis = _block(cfg)
    index, sign = images = parity_images(basis, ms)
    n = basis.size
    assert np.array_equal(index[index], np.arange(n))  # an involution
    assert np.array_equal(sign[index], sign)
    assert set(np.unique(sign)) <= {-1.0, 1.0}
    p = np.zeros((n, n))
    p[index, np.arange(n)] = sign
    for h in to_matrices(_operators(cfg), basis, ms):
        a = h.toarray()
        assert np.abs(p @ a @ p - a).max() <= 1e-14 * max(1.0, np.abs(a).max())
    assert index[0] == 0 and sign[0] == 1.0  # the vacuum is even


@pytest.mark.parametrize("cfg, cap, block, even", [
    (CFG1, 4, 72, 35),
    (ModelConfig(dimension=1, n_max=2), 4, 314, 160),
    (CFG3, 4, 492, 257),
    (ModelConfig(dimension=1, n_max=2), 6, 2146, 1044),
], ids=["1d", "1d-nmax2", "3d", "1d-nmax2-cap6"])
def test_even_sector_sizes(cfg, cap, block, even):
    ms, basis = _block(cfg, cap)
    h_free, h_coul = to_matrices(_operators(cfg), basis, ms, parity_even=True)
    assert basis.size == block
    assert h_free.dim == h_coul.dim == even


@pytest.mark.parametrize("cfg", WORKLOADS)
def test_even_sector_is_the_projection(cfg):
    # assembled from the sector's source columns only, with the whole
    # block's drops
    ms, basis = _block(cfg, max(4, cfg.sector_n_max))
    u = _projector(parity_images(basis, ms), 1.0)
    whole = to_matrices(_operators(cfg), basis, ms)
    even = to_matrices(_operators(cfg), basis, ms, parity_even=True)
    for h, h_even in zip(whole, even):
        assert h_even.dim == u.shape[1]
        assert h_even.dropped == h.dropped  # the whole block's count
        assert np.abs(h_even.toarray() - u.T @ h.toarray() @ u).max() <= 1e-14
        assert h_even.hermiticity_defect() <= 1e-14


@pytest.mark.parametrize("cfg", CONFIGS)
def test_even_and_odd_spectra_make_the_block(cfg):
    ms, basis = _block(cfg)
    b_free, b_coul = to_matrices(_operators(cfg), basis, ms)
    h_free, h_coul = to_matrices(_operators(cfg), basis, ms, parity_even=True)
    odd = _projector(parity_images(basis, ms), -1.0)
    a = (b_free + b_coul).toarray()
    parts = np.concatenate([np.linalg.eigvalsh((h_free + h_coul).toarray()),
                            np.linalg.eigvalsh(odd.T @ a @ odd)])
    assert parts.size == basis.size
    assert np.abs(np.sort(parts) - np.linalg.eigvalsh(a)).max() <= 1e-12


@pytest.mark.parametrize("config", [
    pytest.param({"dimension": 1, "n_max": 2, "sector_n_max": 6}, id="vacuum-1d-n6"),
    pytest.param({}, id="vacuum-3d"),
    pytest.param({"dimension": 1, "q0_value": 0.5, "charge": 0.3, "momentum_ball": False},
                 id="1d-q0-charge0.3-cube"),
])
def test_runner_energy_is_the_block_minimum(tmp_path, config):
    # the sweep is continued from the vacuum inside the even sector; a cold,
    # seeded solve of the whole block finds the same lowest energy
    cfg = ModelConfig.from_dict(config)
    rec = run_vacuum_instability(ExperimentSpec(config=cfg, out_dir=tmp_path))
    assert rec.all_passed
    ms, basis = _block(cfg, max(4, cfg.sector_n_max))
    h_free, h_coul = to_matrices(_operators(cfg), basis, ms)
    h = h_free + h_coul
    e_block = ground_state(h, random_start(h, 7))[0]
    assert abs(rec.scalars["ground_energy"] - e_block) <= 1e-9


@pytest.mark.parametrize("config, drops", [
    pytest.param({"dimension": 1, "n_max": 2, "sector_n_max": 6}, 146680, id="vacuum-1d-n6"),
    pytest.param({}, 126432, id="vacuum-3d"),
    pytest.param({"dimension": 1}, 936, id="1d"),
])
def test_runner_drops_are_pinned(tmp_path, config, drops):
    # the whole block's drop count, as when every column was assembled
    cfg = ModelConfig.from_dict(config)
    rec = run_vacuum_instability(ExperimentSpec(config=cfg, out_dir=tmp_path))
    assert rec.truncation_drops == {"free": 0, "coulomb_full": drops}


def test_sweep_checks_each_solved_operator(tmp_path, monkeypatch):
    # each of the four sums H_free + f^2 H_C, checked once by the solve it goes to
    checked, solved = [], []
    defect = SparseOperator.hermiticity_defect
    monkeypatch.setattr(SparseOperator, "hermiticity_defect",
                        lambda self: checked.append(self) or defect(self))
    monkeypatch.setattr("fockbox.experiments.ground_state",
                        lambda op, v0: solved.append(op) or ground_state(op, v0))
    run_vacuum_instability(ExperimentSpec(config=CFG_N6, out_dir=tmp_path))
    assert len(checked) == 4 and all(a is b for a, b in zip(checked, solved, strict=True))
    assert [op.dim for op in checked] == [1044] * 4


def test_non_hermitian_summand_stops_the_sweep(tmp_path, monkeypatch):
    # doubling H_C's pair-creation terms, not their adjoints, keeps its
    # parity and breaks its Hermiticity: the first solve refuses the sum
    def skewed(cfg):
        op = coulomb_full_packed(cfg)
        creates = np.where(op.opcodes >= 0, op.opcodes & 1, 0).sum(axis=1) == op.nops
        assert creates.any()
        return replace(op, coeffs=np.where(creates, 2 * op.coeffs, op.coeffs))

    monkeypatch.setattr("fockbox.experiments.coulomb_full_packed", skewed)
    with pytest.raises(ValueError, match=r"^operator is not Hermitian \(defect \d\.\d{3}e-\d\d\)$"):
        run_vacuum_instability(ExperimentSpec(config=CFG_N6, out_dir=tmp_path))


def test_nonzero_momentum_block_has_no_parity():
    ms = modes_for(CFG1)
    basis = enumerate_basis(ms, Sector(n_max=4, charge=0, momentum=(1,)))
    missing = "parity image 0x[0-9a-f]+ of state 0x[0-9a-f]+ is not in the basis"
    with pytest.raises(SectorError, match=missing):
        parity_images(basis, ms)
    # the even sector is found from the block itself, so it fails the same way
    with pytest.raises(SectorError, match=missing):
        to_matrices(_operators(CFG1), basis, ms, parity_even=True)


@pytest.mark.parametrize("cfg", [CFG1, CFG3, ModelConfig(dimension=3, n_max=0)],
                         ids=["1d", "3d", "nmax0"])
@pytest.mark.parametrize("cap", [4, 6, 8])
def test_charge_zero_count_matches_enumeration(cfg, cap):
    ms = modes_for(cfg)
    assert _charge_zero_dim(ms, cap) == enumerate_basis(ms, Sector(n_max=cap, charge=0)).size
