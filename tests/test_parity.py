"""The maps of :func:`fockbox.fock.sector_maps` on the vacuum block (P, and
C and S in 1D, the pi rotations Rx and Rz in 3D) against the Hamiltonians
and their term sets; the symmetric sector that ``to_matrices`` maps onto,
against a dense projection built here from the maps' images, and its
refusal of a basis that leaves it empty, or that is empty; and the vacuum
runner's E0 against a cold solve of the whole block."""

import itertools
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
    map_images,
    pack,
    sector_maps,
    to_matrices,
)
from fockbox.model import (
    ModelConfig,
    bad_electron_term_packed,
    coulomb_full_packed,
    coulomb_partial_packed,
    free_hamiltonian,
    modes_for,
)
from fockbox.modes import Mode, ModeSet, Species

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


def _images(basis, ms):
    """{name: (index, sign)}: each map of the mode set on the basis."""
    return {name: map_images(basis, perm, mask, name)
            for name, (perm, mask) in sector_maps(ms).items()}


def _conjugate(a, images):
    """G+ A G for the dense matrix G of a map, G[index[i], i] = sign[i]."""
    index, sign = images
    return a[np.ix_(index, index)] * np.outer(sign, sign)


def _projector(images, chars):
    """The dense projector onto the states v of the block with G v = chi v
    for each map G, chi its entry of ``chars``: the product of the
    (1 + chi G) / 2, which commute on a block of even particle number."""
    n = next(iter(images.values()))[0].size
    proj = np.eye(n)
    for (index, sign), chi in zip(images.values(), chars, strict=True):
        g_proj = np.empty_like(proj)
        g_proj[index] = sign[:, None] * proj
        proj = (proj + chi * g_proj) / 2
    return proj


def _sector_states(proj):
    """Columns: the normalized projection of each state that is the lowest
    of its orbit (the support of its projected column), in basis order.
    The projector's entries are dyadic, so a cancelled entry is exactly 0."""
    nonzero = proj != 0
    lowest = np.argmax(nonzero, axis=0)
    reps = [j for j in range(proj.shape[0]) if nonzero[j, j] and lowest[j] == j]
    u = proj[:, reps]
    return u / np.linalg.norm(u, axis=0)


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


@pytest.mark.parametrize("m", [1, 7, 8, 9, 28, 64])
def test_map_images_follow_the_definition(m):
    # a random involution of m modes, with random signs, on a basis closed
    # under it, against the creators of each state's image put in order one
    # state at a time
    rng = np.random.default_rng(m)
    order = [int(k) for k in rng.permutation(m)]
    perm = list(range(m))
    for a, b in zip(order[0::2], order[1::2]):
        perm[a], perm[b] = b, a
    mask = int(rng.integers(0, 2**m, dtype=np.uint64))

    def image(state):
        occupied = [k for k in range(m) if state >> k & 1]
        targets = [perm[k] for k in occupied]
        swaps = sum(a > b for i, a in enumerate(targets) for b in targets[i + 1:])
        flips = sum(mask >> k & 1 for k in occupied)
        return sum(1 << t for t in targets), (-1.0) ** (swaps + flips)

    seeds = {0, 2**m - 1, *(int(s) for s in rng.integers(0, 2**m, 40, dtype=np.uint64))}
    basis = np.array(sorted(seeds | {image(s)[0] for s in seeds}), dtype=np.uint64)
    index, sign = map_images(basis, perm, mask, "G")
    assert [(int(basis[i]), s) for i, s in zip(index, sign)] == [image(int(b)) for b in basis]


@pytest.mark.parametrize("builder", [lambda cfg: pack(free_hamiltonian(cfg), modes_for(cfg)),
                                     coulomb_full_packed, coulomb_partial_packed],
                         ids=["free", "coulomb_full", "coulomb_partial"])
@pytest.mark.parametrize("cfg", WORKLOADS)
def test_term_set_maps_onto_itself(cfg, builder):
    # to_matrices counts an orbit's drops |orbit| times on one column, which
    # holds when each map takes the term strings onto themselves, each as often
    op = builder(cfg)
    maps = sector_maps(op.modes)
    assert list(maps) == (["P", "C", "S"] if cfg.dimension == 1 else ["P", "Rx", "Rz"])
    table = _string_table(op.opcodes, op.nops, op.coeffs)
    scale = np.abs(op.coeffs).max()
    for perm, mask in maps.values():
        codes = np.where(op.opcodes >= 0,
                         2 * np.array(perm)[op.opcodes >> 1] + (op.opcodes & 1), -1)
        # G c_k G^-1 = eta_k c_{perm[k]}, eta -1 for a mode in the mask
        flips = [sum(mask >> (int(c) >> 1) & 1 for c in row[:n])
                 for row, n in zip(op.opcodes, op.nops)]
        image = _string_table(codes, op.nops, op.coeffs * (-1.0) ** np.array(flips))
        assert Counter({k: n for k, (n, _) in image.items()}) == Counter(
            {k: n for k, (n, _) in table.items()})
        assert max(abs(image[k][1] - c) for k, (_, c) in table.items()) <= 1e-15 * scale


@pytest.mark.parametrize("cfg", WORKLOADS)
def test_parity_commutes_with_hamiltonians(cfg):
    # P, C and S in 1D, P, Rx and Rz in 3D: involutions that fix the vacuum with sign +1 and
    # commute with H_free, H_C and the partial H_C
    ms, basis = _block(cfg, max(4, cfg.sector_n_max))
    n = basis.size
    ops = [*_operators(cfg), coulomb_partial_packed(cfg)]
    hams = [h.toarray() for h in to_matrices(ops, basis, ms)]
    for index, sign in _images(basis, ms).values():
        assert np.array_equal(index[index], np.arange(n))
        assert np.array_equal(sign[index], sign)
        assert set(np.unique(sign)) <= {-1.0, 1.0}
        assert index[0] == 0 and sign[0] == 1.0  # the vacuum is fixed
        for a in hams:
            scale = max(1.0, np.abs(a).max())
            assert np.abs(_conjugate(a, (index, sign)) - a).max() <= 1e-14 * scale


def test_3d_maps_are_rotations():
    # C as in 1D (electron <-> positron at fixed spin and momentum) does not
    # commute with the 3D Coulomb term; the pi rotations do: Rx about x with
    # the spin flip, Rz about z with -1 per spin-2 mode
    ms, basis = _block(CFG3)
    other = {Species.ELECTRON: Species.POSITRON, Species.POSITRON: Species.ELECTRON}
    spin2 = sum(1 << k for k, m in enumerate(ms) if m.spin == 2)
    maps = {
        "C": ([ms.index(Mode(other[m.species], m.spin, m.momentum)) for m in ms], 0),
        "Rx": ([ms.index(Mode(m.species, 3 - m.spin, (x, -y, -z)))
                for m in ms for x, y, z in [m.momentum]], 0),
        "Rz": ([ms.index(Mode(m.species, m.spin, (-x, -y, z)))
                for m in ms for x, y, z in [m.momentum]], spin2),
    }
    got = sector_maps(ms)
    assert list(got) == ["P", "Rx", "Rz"] and (got["Rx"], got["Rz"]) == (maps["Rx"], maps["Rz"])
    hams = [h.toarray() for h in to_matrices(_operators(CFG3), basis, ms)]
    defect = {name: max(np.abs(_conjugate(a, map_images(basis, perm, mask, name)) - a).max()
                        for a in hams)
              for name, (perm, mask) in maps.items()}
    assert defect["C"] > 0.01
    assert defect["Rx"] <= 1e-16 and defect["Rz"] <= 1e-16


@pytest.mark.parametrize("cfg, cap, block, symmetric", [
    (CFG1, 4, 72, 16),
    (ModelConfig(dimension=1, n_max=2), 4, 314, 58),
    (CFG3, 4, 492, 80),
    (ModelConfig(dimension=1, n_max=2), 6, 2146, 279),
    (CFG3, 6, 4868, 609),
], ids=["1d", "1d-nmax2", "3d", "1d-nmax2-cap6", "3d-cap6"])
def test_even_sector_sizes(cfg, cap, block, symmetric):
    ms, basis = _block(cfg, cap)
    h_free, h_coul = to_matrices(_operators(cfg), basis, ms, symmetric=True)
    assert basis.size == block
    assert h_free.dim == h_coul.dim == symmetric


@pytest.mark.parametrize("cfg", WORKLOADS)
def test_even_sector_is_the_projection(cfg):
    # assembled from one source column per orbit, with the whole block's drops
    ms, basis = _block(cfg, max(4, cfg.sector_n_max))
    images = _images(basis, ms)
    u = _sector_states(_projector(images, [1] * len(images)))
    whole = to_matrices(_operators(cfg), basis, ms)
    sector = to_matrices(_operators(cfg), basis, ms, symmetric=True)
    assert np.abs(u.T @ u - np.eye(u.shape[1])).max() <= 1e-14
    for h, h_sym in zip(whole, sector):
        assert h_sym.dim == u.shape[1]
        assert h_sym.dropped == h.dropped  # the whole block's count
        assert np.abs(h_sym.toarray() - u.T @ h.toarray() @ u).max() <= 1e-14
        assert h_sym.hermiticity_defect() <= 1e-14


@pytest.mark.parametrize("cfg", CONFIGS)
def test_even_and_odd_spectra_make_the_block(cfg):
    # the sectors of every character of the maps (8 of them), the
    # symmetric one from to_matrices, together hold the block's spectrum
    ms, basis = _block(cfg)
    b_free, b_coul = to_matrices(_operators(cfg), basis, ms)
    h_free, h_coul = to_matrices(_operators(cfg), basis, ms, symmetric=True)
    images = _images(basis, ms)
    a = (b_free + b_coul).toarray()
    parts = [np.linalg.eigvalsh((h_free + h_coul).toarray())]
    for chars in itertools.product([1, -1], repeat=len(images)):
        w, v = np.linalg.eigh(_projector(images, chars))
        u = v[:, w > 0.5]
        if min(chars) < 0:
            parts.append(np.linalg.eigvalsh(u.T @ a @ u))
        else:
            assert u.shape[1] == h_free.dim
    assert len(parts) == 2 ** len(images)
    parts = np.concatenate(parts)
    assert parts.size == basis.size
    assert np.abs(np.sort(parts) - np.linalg.eigvalsh(a)).max() <= 1e-12


def test_odd_particle_numbers_drop_out_in_1d():
    # PC and CP differ by (-1)^N, so the group holds (-1)^N, which fixes
    # every state of odd N with sign -1: on a block of every charge, the
    # sector is that of its even-N states
    ms = modes_for(CFG1)
    basis = enumerate_basis(ms, Sector(n_max=3, momentum=(0,)))
    even = basis[np.bitwise_count(basis) % 2 == 0]
    assert even.size < basis.size
    for h, h_even in zip(to_matrices(_operators(CFG1), basis, ms, symmetric=True),
                         to_matrices(_operators(CFG1), even, ms, symmetric=True), strict=True):
        assert np.array_equal(h.toarray(), h_even.toarray())


@pytest.mark.parametrize("cfg", [CFG1, ModelConfig(dimension=1, n_max=2)], ids=["1d", "1d-nmax2"])
def test_sector_energy_is_the_block_minimum(cfg):
    ms, basis = _block(cfg)
    b_free, b_coul = to_matrices(_operators(cfg), basis, ms)
    h_free, h_coul = to_matrices(_operators(cfg), basis, ms, symmetric=True)
    h = h_free + h_coul
    e_block = np.linalg.eigvalsh((b_free + b_coul).toarray())[0]
    assert abs(np.linalg.eigvalsh(h.toarray())[0] - e_block) <= 1e-12
    assert abs(ground_state(h, np.eye(1, h.dim)[0])[0] - e_block) <= 1e-12


def test_electron_only_term_is_refused_on_the_sector():
    # the electron-only quartic breaks C, so on the sector H_free plus it
    # is not Hermitian, and the solver refuses it
    ms, basis = _block(CFG1)
    h_bad = to_matrices([bad_electron_term_packed(CFG1)], basis, ms)[0].toarray()
    assert np.abs(_conjugate(h_bad, _images(basis, ms)["C"]) - h_bad).max() > 0.1
    h_free, h_term = to_matrices([free_hamiltonian(CFG1), bad_electron_term_packed(CFG1)],
                                 basis, ms, symmetric=True)
    h = h_free + h_term
    assert h.hermiticity_defect() > 0.1
    with pytest.raises(ValueError, match=r"^operator is not Hermitian \(defect "):
        ground_state(h, np.eye(1, h.dim)[0])


@pytest.mark.parametrize("config", [
    pytest.param({"dimension": 1, "n_max": 2, "sector_n_max": 6}, id="vacuum-1d-n6"),
    pytest.param({}, id="vacuum-3d"),
    pytest.param({"sector_n_max": 6}, id="3d-cap6"),
    pytest.param({"dimension": 1, "q0_value": 0.5, "charge": 0.3, "momentum_ball": False},
                 id="1d-q0-charge0.3-cube"),
])
def test_runner_energy_is_the_block_minimum(tmp_path, config):
    # the sweep is continued from the vacuum inside the symmetric sector; a
    # cold, seeded solve of the whole block finds the same lowest energy
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
    assert [op.dim for op in checked] == [279] * 4


def test_non_hermitian_summand_stops_the_sweep(tmp_path, monkeypatch):
    # doubling H_C's pair-creation terms, not their adjoints, keeps its
    # symmetries and breaks its Hermiticity: the first solve refuses the sum
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
    missing = "^P image 0x[0-9a-f]+ of state 0x[0-9a-f]+ is not in the basis$"
    perm, mask = sector_maps(ms)["P"]
    with pytest.raises(SectorError, match=missing):
        map_images(basis, perm, mask, "P")
    # the sector is found from the block itself, so it fails the same way
    with pytest.raises(SectorError, match=missing):
        to_matrices(_operators(CFG1), basis, ms, symmetric=True)


def test_charged_block_has_no_charge_conjugation():
    # C takes charge -1 to +1: a 1D charge -1, P = 0 block has no C image
    ms = modes_for(CFG1)
    basis = enumerate_basis(ms, Sector(n_max=3, charge=-1, momentum=(0,)))
    with pytest.raises(SectorError,
                       match="^C image 0x[0-9a-f]+ of state 0x[0-9a-f]+ is not in the basis$"):
        to_matrices(_operators(CFG1), basis, ms, symmetric=True)


def test_odd_block_has_an_empty_sector_in_3d():
    # Rx and Rz anticommute on odd particle numbers, so their group holds -1,
    # which fixes every state of a charge -1 block with sign -1
    ms = modes_for(CFG3)
    basis = enumerate_basis(ms, Sector(n_max=4, charge=-1, momentum=(0, 0, 0)))
    assert basis.size == 76 and np.all(np.bitwise_count(basis) % 2 == 1)
    images = _images(basis, ms)
    (rx, sx), (rz, sz) = images["Rx"], images["Rz"]
    assert np.array_equal(rx[rz], rz[rx]) and np.array_equal(sz * sx[rz], -(sx * sz[rx]))
    with pytest.raises(SectorError, match=r"^the sector that P, Rx, Rz fix is empty on this "
                                          r"basis: each state is fixed with sign -1 by an "
                                          r"element of their group$"):
        to_matrices(_operators(CFG3), basis, ms, symmetric=True)


@pytest.mark.parametrize("cfg, maps", [(CFG1, "P, C, S"), (CFG3, "P, Rx, Rz")],
                         ids=["1d", "3d"])
def test_empty_basis_has_an_empty_sector(cfg, maps):
    # the sector is empty because the basis is, not because of a sign
    with pytest.raises(SectorError, match=f"^the sector that {maps} fix is empty on this "
                                          "basis: the basis has no states$"):
        to_matrices(_operators(cfg), np.zeros(0, np.uint64), modes_for(cfg), symmetric=True)


def test_mode_set_without_positrons_has_no_charge_conjugation():
    # in 1D, C takes each electron mode to a positron mode of the same spin
    # and momentum; P alone would still apply
    ms = ModeSet([m for m in modes_for(CFG1) if m.species is Species.ELECTRON])
    basis = enumerate_basis(ms, Sector(n_max=2))
    with pytest.raises(SectorError, match=r"^C image Mode\(.+\) not in mode set$"):
        to_matrices([], basis, ms, symmetric=True)


@pytest.mark.parametrize("cfg", [CFG1, CFG3, ModelConfig(dimension=3, n_max=0)],
                         ids=["1d", "3d", "nmax0"])
@pytest.mark.parametrize("cap", [4, 6, 8])
def test_charge_zero_count_matches_enumeration(cfg, cap):
    ms = modes_for(cfg)
    assert _charge_zero_dim(ms, cap) == enumerate_basis(ms, Sector(n_max=cap, charge=0)).size
