"""Packed (array) Hamiltonian builders against the symbolic oracle, their
e^2 scaling, and the exactness of the vacuum runner's coupling sweep."""

import itertools
from dataclasses import replace

import numpy as np
import pytest

from conftest import as_scipy, reference_quadruples

from fockbox import model
from fockbox.coulomb import CoulombKernel
from fockbox.experiments import COUPLINGS
from fockbox.fock import (
    Sector,
    SectorError,
    enumerate_basis,
    pack,
    to_matrices,
    to_matrix,
)
from fockbox.model import (
    ModelConfig,
    bad_electron_term,
    bad_electron_term_packed,
    coulomb_full,
    coulomb_full_packed,
    coulomb_partial,
    coulomb_partial_packed,
    coulomb_pieces,
    coulomb_pieces_packed,
    free_hamiltonian,
    modes_for,
)
from fockbox.modes import momentum_lattice

CFG1 = ModelConfig(dimension=1)
CFG1_N2 = ModelConfig(dimension=1, n_max=2)
CFG3 = ModelConfig(dimension=3)

# (name, symbolic builder, packed builder), each returning one operator
BUILDERS = [
    ("full", coulomb_full, coulomb_full_packed),
    ("partial", coulomb_partial, coulomb_partial_packed),
    ("bad", bad_electron_term, bad_electron_term_packed),
    ("ee", lambda cfg: coulomb_pieces(cfg).ee, lambda cfg: coulomb_pieces_packed(cfg).ee),
    ("ep", lambda cfg: coulomb_pieces(cfg).ep, lambda cfg: coulomb_pieces_packed(cfg).ep),
    ("pp", lambda cfg: coulomb_pieces(cfg).pp, lambda cfg: coulomb_pieces_packed(cfg).pp),
]
CONFIGS = [pytest.param(CFG1, id="1d"), pytest.param(CFG1_N2, id="1d-nmax2"),
           pytest.param(CFG3, id="3d"),
           pytest.param(ModelConfig(dimension=1, q0_value=0.5), id="1d-q0"),
           # the 3D q = 0 transfers, which no other config keeps
           pytest.param(ModelConfig(dimension=3, q0_value=2.0), id="3d-q0")]


def _sectors(cfg):
    out = [Sector(n=1, charge=-1), Sector(n_max=2, charge=0)]
    if cfg.dimension == 1:
        out.append(Sector(n_max=4, charge=0))
    return out


@pytest.mark.parametrize("cfg", CONFIGS)
@pytest.mark.parametrize("name, symbolic, packed", BUILDERS, ids=[b[0] for b in BUILDERS])
def test_packed_matches_symbolic(cfg, name, symbolic, packed):
    ms = modes_for(cfg)
    expr = symbolic(cfg)
    want, got = pack(expr, ms), packed(cfg)
    assert got.modes == ms
    assert got.opcodes.shape == want.opcodes.shape
    assert np.array_equal(got.opcodes, want.opcodes)  # same terms, same order
    assert np.array_equal(got.nops, want.nops)
    scale = expr.max_abs_coeff()
    assert np.abs(got.coeffs - want.coeffs).max(initial=0.0) <= 1e-14 * scale

    for sector in _sectors(cfg):
        basis = enumerate_basis(ms, sector)
        a, b = to_matrix(got, basis, ms), to_matrix(expr, basis, ms)
        assert a.dropped == b.dropped
        diff = abs(as_scipy(a) - as_scipy(b))
        assert (diff.max() if diff.nnz else 0.0) <= 1e-14


@pytest.mark.parametrize("cfg", [CFG1, CFG3], ids=["1d", "3d"])
def test_packed_full_one_electron_block_is_zero(cfg):
    ms = modes_for(cfg)
    basis = enumerate_basis(ms, Sector(n=1, charge=-1))
    block = to_matrix(coulomb_full_packed(cfg), basis, ms)
    assert block.nnz == 0
    assert block.max_abs_entry() == 0.0


@pytest.mark.parametrize("cfg", [c for c in CONFIGS if c.id.endswith("q0")])
@pytest.mark.parametrize("name, packed", [(b[0], b[2]) for b in BUILDERS],
                         ids=[b[0] for b in BUILDERS])
def test_charge_zero_has_no_terms(cfg, name, packed):
    # V(0) = q0_value carries no charge either, so e^2 = 0 clears every term
    assert packed(replace(cfg, charge=0.0)).coeffs.size == 0


def test_coefficients_scale_as_charge_squared():
    # halving the charge quarters every coefficient, bit for bit
    cfg = ModelConfig(dimension=3, q0_value=2.0)
    one, half = coulomb_full_packed(cfg), coulomb_full_packed(replace(cfg, charge=0.5))
    assert np.array_equal(half.opcodes, one.opcodes)
    assert np.array_equal(half.nops, one.nops)
    assert np.array_equal(half.coeffs, 0.25 * one.coeffs)


def _rebuilt(cfg, basis, ms, symmetric=False):
    """H_free + H_C built from scratch at ``cfg``, H_C by the runner's own
    builder (its agreement with the symbolic one is checked above)."""
    h_free, h_coul = to_matrices([free_hamiltonian(cfg), coulomb_full_packed(cfg)],
                                 basis, ms, symmetric)
    return h_free + h_coul


@pytest.mark.parametrize(
    "cfg",
    [CFG1, replace(CFG1, charge=0.3), replace(CFG1, q0_value=0.5)],
    ids=["1d", "1d-charge0.3", "1d-q0"],
)
def test_coupling_sweep_is_exact(cfg):
    # the vacuum runner's H_free + f^2 H_C against a full rebuild at charge
    # f*e, entry for entry and bit for bit, on the whole basis and on its
    # symmetric sector: H_C is proportional to e^2, q = 0 term included
    ms = modes_for(cfg)
    basis = enumerate_basis(ms, Sector(n_max=4, charge=0))
    for symmetric in (False, True):
        h_free, h_coul = to_matrices([free_hamiltonian(cfg), coulomb_full_packed(cfg)],
                                     basis, ms, symmetric)
        for f in COUPLINGS:
            scaled = h_free + h_coul * (f * f)
            rebuilt = _rebuilt(replace(cfg, charge=cfg.charge * f), basis, ms, symmetric)
            assert np.array_equal(scaled.pattern.keys, rebuilt.pattern.keys)
            assert np.array_equal(scaled.data, rebuilt.data)
            assert scaled.dropped == rebuilt.dropped


@pytest.mark.parametrize(
    "cfg", [CFG1, replace(CFG1, q0_value=0.5), ModelConfig(dimension=3, q0_value=7.0)],
    ids=["1d", "1d-q0", "3d-q0"],
)
def test_coupling_sweep_on_shared_pattern_is_exact(cfg):
    # the runner's form: H_free + f^2 H_C on one pattern of its block's
    # symmetric sector, against a rebuild at charge f*e
    ms = modes_for(cfg)
    basis = enumerate_basis(ms, Sector(n_max=4, charge=0, momentum=(0,) * cfg.dimension))
    h_free, h_coul = to_matrices([free_hamiltonian(cfg), coulomb_full_packed(cfg)],
                                 basis, ms, symmetric=True)
    assert h_coul.pattern is h_free.pattern
    for f in COUPLINGS:
        rebuilt = _rebuilt(replace(cfg, charge=cfg.charge * f), basis, ms, symmetric=True)
        assert np.array_equal((h_free + h_coul * (f * f)).toarray(), rebuilt.toarray())


def test_to_matrix_rejects_foreign_mode_set():
    packed = coulomb_full_packed(CFG1)
    other = modes_for(CFG1_N2)
    basis = enumerate_basis(other, Sector(n=1, charge=-1))
    with pytest.raises(SectorError, match="different mode set"):
        to_matrix(packed, basis, other)


# (g1, g2, g3, g4): the signs of p in the phases of the quartic's four slots.
# Each species choice of the quartic has one of these 16 patterns.
SIGN_PATTERNS = list(itertools.product((-1, 1), repeat=4))


@pytest.mark.parametrize("cfg", [
    pytest.param(CFG1, id="1d"),
    pytest.param(CFG1_N2, id="1d-nmax2"),
    pytest.param(ModelConfig(dimension=1, n_max=3), id="1d-nmax3"),
    pytest.param(CFG3, id="3d"),
])
def test_quadruples_match_label_grid_walk(cfg):
    ctx = model._quartic_context(cfg)
    for signs in SIGN_PATTERNS:
        got = ctx.quadruples(signs)
        want = reference_quadruples(ctx, signs)
        assert len(want[0]) > 0
        # the walk's order is free (the packed sum fixes its own): compare
        # both sides sorted by label quadruple, which never repeats
        got = [x[np.lexsort(got[3::-1])] for x in got]
        want = [x[np.lexsort(want[3::-1])] for x in want]
        for g, w in zip(got, want):
            assert g.dtype == w.dtype
            assert np.array_equal(g, w)


def test_quartic_sort_key_fits_at_64_modes():
    # a code is 2 * mode + create, at most 4 * 32 - 1 at 64 modes: 7 bits,
    # so the 8 codes of a (canonical, raw) sort key take 56 of int64's 63.
    # An overflowed key would mix the canonical runs, which come out
    # distinct and ascending at 60 modes (1D n_max = 7).
    assert 8 * (4 * 32 - 1).bit_length() < 63
    cfg = ModelConfig(dimension=1, n_max=7)
    assert len(modes_for(cfg)) == 60
    for op in (coulomb_full_packed(cfg), coulomb_partial_packed(cfg)):
        keys = [sum((int(c) ^ 1) << (7 * (3 - i)) for i, c in enumerate(row))
                for row in op.opcodes]
        assert all(a < b for a, b in zip(keys, keys[1:]))


@pytest.mark.parametrize("dimension", [1, 3])
@pytest.mark.parametrize("ball", [True, False], ids=["ball", "cube"])
@pytest.mark.parametrize("n_max", [0, 1, 2, 3])
def test_negation_reverses_the_lattice_index(dimension, ball, n_max):
    # quadruples negates a momentum by the index reversal i -> L - 1 - i
    lattice = momentum_lattice(dimension, n_max, ball)
    index = {n: i for i, n in enumerate(lattice)}
    for i, n in enumerate(lattice):
        assert index[tuple(-c for c in n)] == len(lattice) - 1 - i


def test_builders_share_one_context():
    # a config no other test builds, so every builder below is cold
    cfg = ModelConfig(dimension=1, box_l=5.0)
    before = model._quartic_context.cache_info().misses
    coulomb_full_packed(cfg)
    coulomb_partial_packed(cfg)
    bad_electron_term_packed(cfg)
    coulomb_pieces_packed(cfg)
    coulomb_full(cfg)
    coulomb_partial(cfg)
    bad_electron_term(cfg)
    coulomb_pieces(cfg)
    assert model._quartic_context.cache_info().misses - before == 1


def test_kernel_is_evaluated_once_per_config(monkeypatch):
    # every sign pattern shares one walk of the lattice, so the kernel runs
    # once for all six packed operators; a config no other test builds
    cfg = ModelConfig(dimension=1, box_l=5.5)
    calls = []
    values = CoulombKernel.values

    def counted(self, q):
        calls.append(len(q))
        return values(self, q)

    monkeypatch.setattr(CoulombKernel, "values", counted)
    coulomb_full_packed(cfg)
    coulomb_partial_packed(cfg)
    bad_electron_term_packed(cfg)
    coulomb_pieces_packed(cfg)
    assert calls == [len(model._quartic_context(cfg).lattice) ** 3]


def test_memoized_tables_are_read_only():
    ctx = model._quartic_context(CFG3)
    signs = (1, -1, -1, 1)
    first = ctx.quadruples(signs)
    want = [x.copy() for x in first]
    points, vq = ctx._walk
    assert points.shape == (4, len(vq)) and points.max() < len(ctx.lattice)  # lattice level
    for arr in (points, vq, ctx.bilinear_table("u", "v")):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = arr[0]
    for x in first:  # a caller's arrays are its own
        x[:] = -1
    for g, w in zip(ctx.quadruples(signs), want):
        assert np.array_equal(g, w)


@pytest.mark.parametrize("cfg", [CFG1, CFG1_N2, CFG3], ids=["1d", "1d-nmax2", "3d"])
def test_u_v_bilinears_at_opposite_momenta_are_exactly_zero(cfg):
    # u+(p) v(-p) = 0 exactly for every spin pair; a fused multiply-add in
    # the dot product would leave 2e-17 there, which a q = 0 transfer
    # (q0_value != 0) multiplies into spurious terms
    ctx = model._quartic_context(cfg)
    index = {label: j for j, label in enumerate(ctx.labels)}
    i, j = np.array([(index[(s1, n)], index[(s2, tuple(-c for c in n))])
                     for s1, n in ctx.labels for s2 in (1, 2)]).T
    for table in (ctx.bilinear_table("u", "v"), ctx.bilinear_table("v", "u")):
        assert np.all(table[i, j] == 0.0)
