"""The assembly kernel against the per-term reference and the dense
Jordan-Wigner oracle."""

import numpy as np
import pytest

from conftest import jw_expr_matrix, random_expr, reference_assemble

from fockbox import assembly
from fockbox.fock import Sector, enumerate_basis, pack, to_matrix
from fockbox.model import (
    ModelConfig,
    bad_electron_term_packed,
    coulomb_full_packed,
    coulomb_partial_packed,
    coulomb_pieces_packed,
    free_hamiltonian,
    modes_for,
)

SECTORS = [Sector(), Sector(n_max=2), Sector(n=3), Sector(n_max=3, charge=-1)]


def assert_same_triplets(got, want):
    """rows, cols, the bits of vals and dropped all equal."""
    for a, b in zip(got[:3], want[:3]):
        assert a.dtype == b.dtype
        assert np.array_equal(a.view(np.uint8), b.view(np.uint8))
    assert got[3] == want[3]


def arrays(op):
    return op.coeffs, op.opcodes, op.nops


def random_weight(rng, n):
    """Multiplicities 0-3 on about half of n columns, 0 elsewhere."""
    return np.where(rng.random(n) < 0.5, rng.integers(1, 4, size=n), 0)


@pytest.mark.parametrize("sector", SECTORS, ids=str)
def test_matches_reference(rng, modes8, sector):
    # random strings: mixed order, repeated modes, nilpotent and identity
    # terms; on every column, and on random source columns and weights
    basis = enumerate_basis(modes8, sector)
    for _ in range(20):
        p = pack(random_expr(rng, modes8, n_terms=8, max_factors=5), modes8)
        assert_same_triplets(assembly.assemble(*arrays(p), basis),
                             reference_assemble(*arrays(p), basis))
        weight = random_weight(rng, basis.size)
        assert_same_triplets(assembly.assemble(*arrays(p), basis, weight),
                             reference_assemble(*arrays(p), basis, weight))


def test_every_block_boundary(rng, modes8, monkeypatch):
    monkeypatch.setattr(assembly, "BLOCK", 1)
    basis = enumerate_basis(modes8, Sector(n_max=3))
    for _ in range(5):
        p = pack(random_expr(rng, modes8, n_terms=8, max_factors=4), modes8)
        assert_same_triplets(assembly.assemble(*arrays(p), basis),
                             reference_assemble(*arrays(p), basis))


@pytest.mark.parametrize("sector", [Sector(n_max=2), Sector(n_max=3, charge=-1)], ids=str)
def test_capped_sectors_every_block_boundary(rng, modes8, sector, monkeypatch):
    # pairs whose image would exceed the cap are only counted, one term a block
    monkeypatch.setattr(assembly, "BLOCK", 1)
    basis = enumerate_basis(modes8, sector)
    over = 0
    for _ in range(20):
        p = pack(random_expr(rng, modes8, n_terms=8, max_factors=5), modes8)
        assert_same_triplets(assembly.assemble(*arrays(p), basis),
                             reference_assemble(*arrays(p), basis))
        weight = random_weight(rng, basis.size)
        assert_same_triplets(assembly.assemble(*arrays(p), basis, weight),
                             reference_assemble(*arrays(p), basis, weight))
        need1, need0, flip, _, _, live = assembly._reduce_terms(p.opcodes, p.nops)
        cols = np.arange(basis.size)
        over += int(assembly._candidates(need1, need0, flip, live, basis, cols)[3].sum())
    assert over > 0


def test_source_columns_weights_and_extremes(rng, modes8):
    basis = enumerate_basis(modes8, Sector(n_max=3))
    p = pack(random_expr(rng, modes8, n_terms=8, max_factors=5), modes8)
    whole = assembly.assemble(*arrays(p), basis)
    assert whole[3] > 0
    # weight 1 everywhere is the default; 0 everywhere assembles nothing
    assert_same_triplets(assembly.assemble(*arrays(p), basis, np.ones(basis.size, int)), whole)
    rows, cols, vals, dropped = assembly.assemble(*arrays(p), basis, np.zeros(basis.size, int))
    assert rows.size == cols.size == vals.size == dropped == 0
    # drops are linear in the weights; the triplets do not depend on them
    weight = random_weight(rng, basis.size)
    once = assembly.assemble(*arrays(p), basis, weight > 0)
    assert_same_triplets(assembly.assemble(*arrays(p), basis, 2 * weight)[:3] + (0,),
                         once[:3] + (0,))
    assert (assembly.assemble(*arrays(p), basis, 2 * weight)[3]
            == 2 * assembly.assemble(*arrays(p), basis, weight)[3])


def test_over_cap_pairs_skip_the_lookup(monkeypatch):
    # the 1D vacuum block conserves charge and momentum, so every drop is a
    # cap drop: no image is looked up in vain
    cfg = ModelConfig(dimension=1)
    ms = modes_for(cfg)
    basis = enumerate_basis(ms, Sector(n_max=4, charge=0, momentum=(0,)))
    op = coulomb_full_packed(cfg)
    looked_up = []
    lookup = assembly.lookup

    def record(keys, needles):
        # the group lookups of _states_by_group search the group masks
        if keys is basis:
            looked_up.append(needles.copy())
        return lookup(keys, needles)

    monkeypatch.setattr(assembly, "lookup", record)
    got = assembly.assemble(*arrays(op), basis)
    assert_same_triplets(got, reference_assemble(*arrays(op), basis))
    images = np.concatenate(looked_up)
    assert np.bitwise_count(images).max() <= 4
    assert images.size == got[0].size
    assert got[3] > 0


def _brute_force_lookup(keys, needles):
    hits = [[i for i, k in enumerate(keys) if k == x] for x in np.ravel(needles)]
    found = np.array([bool(h) for h in hits], dtype=bool).reshape(np.shape(needles))
    return [h[0] if h else None for h in hits], found


@pytest.mark.parametrize("nkeys", [0, 1, 2, 37])
@pytest.mark.parametrize("shape", [(), (0,), (25,), (6, 4)])
def test_lookup_matches_brute_force(rng, nkeys, shape):
    # 2-D needles as _states_by_group passes them; absent needles below,
    # between and above the keys
    keys = np.unique(rng.integers(1, 1 << 12, size=nkeys, dtype=np.uint64) * np.uint64(2))
    pool = np.concatenate([keys, np.array([0, 1, 3, 1 << 13], dtype=np.uint64)])
    needles = rng.choice(pool, size=shape)
    pos, found = assembly.lookup(keys, needles)
    where, want = _brute_force_lookup(keys, needles)
    assert np.shape(pos) == np.shape(found) == shape
    assert np.array_equal(found, want)
    assert all(w is None or p == w for p, w in zip(np.ravel(pos), where))
    # every position indexes into the keys, found or not
    assert np.all((0 <= np.asarray(pos)) & (np.asarray(pos) < max(keys.size, 1)))


@pytest.mark.parametrize("sector", SECTORS[1:], ids=str)
def test_to_matrix_matches_jordan_wigner(rng, modes8, sector):
    # on a truncated sector the matrix is the oracle's block on the sector
    basis = enumerate_basis(modes8, sector)
    idx = basis.astype(np.int64)
    for _ in range(10):
        expr = random_expr(rng, modes8, n_terms=6, max_factors=4)
        mine = to_matrix(expr, basis, modes8).toarray()
        oracle = jw_expr_matrix(expr, modes8)[np.ix_(idx, idx)]
        assert np.abs(mine - oracle).max(initial=0.0) <= 1e-12


def _model_operators(cfg):
    ms = modes_for(cfg)
    pieces = coulomb_pieces_packed(cfg)
    return ms, {
        "free": pack(free_hamiltonian(cfg), ms),
        "full": coulomb_full_packed(cfg),
        "partial": coulomb_partial_packed(cfg),
        "bad": bad_electron_term_packed(cfg),
        "ee": pieces.ee,
        "ep": pieces.ep,
        "pp": pieces.pp,
    }


@pytest.mark.parametrize("dimension,sector", [
    (1, Sector(n_max=4, charge=0)),
    (3, Sector(n=1, charge=-1)),
], ids=["1d-charge0", "3d-one-electron"])
def test_model_operators_match_reference(dimension, sector):
    ms, ops = _model_operators(ModelConfig(dimension=dimension))
    basis = enumerate_basis(ms, sector)
    for op in ops.values():
        assert_same_triplets(assembly.assemble(*arrays(op), basis),
                             reference_assemble(*arrays(op), basis))


def test_identity_term(modes8):
    basis = enumerate_basis(modes8, Sector(n_max=1))
    coeffs = np.array([2.5 + 0.5j])
    opcodes = np.full((1, 1), -1, dtype=np.int32)
    nops = np.zeros(1, dtype=np.int32)
    rows, cols, vals, dropped = assembly.assemble(coeffs, opcodes, nops, basis)
    assert np.array_equal(rows, cols)
    assert np.all(vals == 2.5 + 0.5j)
    assert dropped == 0


def test_mode_64_boundary():
    # highest representable mode index toggles the top bit of the word
    basis = np.array([0, 1 << 63], dtype=np.uint64)
    coeffs = np.array([1.0 + 0j])
    opcodes = np.array([[2 * 63 + 1]], dtype=np.int32)  # create mode 63
    nops = np.array([1], dtype=np.int32)
    rows, cols, vals, dropped = assembly.assemble(coeffs, opcodes, nops, basis)
    assert list(rows) == [1] and list(cols) == [0]
    assert vals[0] == 1.0
    assert dropped == 0
