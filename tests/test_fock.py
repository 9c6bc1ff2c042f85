"""Fock sectors: enumeration, matrices, eigensolving, evolution."""

import itertools
import re

import numpy as np
import pytest
from conftest import as_scipy, jw_expr_matrix, random_expr, random_start, reference_enumerate
from test_assembly import SECTORS

from fockbox.algebra import Ladder, OperatorExpr, Term, normal_order_prescription, wick_reorder
from fockbox.fock import (
    Sector,
    SectorError,
    SparseOperator,
    basis_index,
    enumerate_basis,
    evolve,
    expectation,
    ground_state,
    state_vector,
    to_matrix,
)
from fockbox.model import ModelConfig, modes_for
from fockbox.modes import Mode, ModeSet, Species

E, P = Species.ELECTRON, Species.POSITRON


def _brute_force_basis(modes, sector):
    """Oracle: filter all 2^M occupancies by the sector constraints."""
    out = []
    for bits in range(2 ** len(modes)):
        occupied = [modes[k] for k in range(len(modes)) if bits >> k & 1]
        n = len(occupied)
        if sector.n is not None and n != sector.n:
            continue
        if sector.n_max is not None and n > sector.n_max:
            continue
        if sector.charge is not None and sum(m.species.charge for m in occupied) != sector.charge:
            continue
        if sector.momentum is not None:
            total = tuple(
                sum(m.momentum[i] for m in occupied)
                for i in range(len(sector.momentum))
            )
            if total != sector.momentum:
                continue
        out.append(bits)
    return sorted(out)


class TestEnumerateBasis:
    def test_two_modes_single_particle(self, modes4):
        ms = ModeSet(list(modes4)[:2])
        basis = enumerate_basis(ms, Sector(n=1))
        assert list(basis) == [0b01, 0b10]

    def test_four_choose_two(self, modes4):
        basis = enumerate_basis(modes4, Sector(n=2))
        assert len(basis) == 6

    def test_neutral_pairs_against_brute_force(self):
        ms = ModeSet(
            sorted(
                [Mode(E, 1, (n,)) for n in (0, 1)] + [Mode(P, 1, (n,)) for n in (0, 1)],
                key=lambda m: m.sort_key,
            )
        )
        sector = Sector(n_max=2, charge=0)
        basis = enumerate_basis(ms, sector)
        assert list(basis) == _brute_force_basis(ms, sector)
        assert len(basis) == 5  # vacuum + 4 pair states

    @pytest.mark.parametrize("kwargs", [
        dict(n=1), dict(n_max=2), dict(n_max=3, charge=-1),
        dict(n=2, momentum=(0,)), dict(n_max=2, charge=0, momentum=(1,)),
    ])
    def test_random_sectors_against_brute_force(self, modes8, kwargs):
        sector = Sector(**kwargs)
        assert list(enumerate_basis(modes8, sector)) == _brute_force_basis(modes8, sector)

    def test_empty_sector_is_not_an_error(self, modes4):
        basis = enumerate_basis(modes4, Sector(n=1, charge=+1))  # no positron modes
        assert basis.size == 0

    def test_inconsistent_constraints_rejected(self):
        with pytest.raises(SectorError):
            Sector(n_max=1, charge=-2)

    @pytest.mark.parametrize("kwargs", [dict(n=-1), dict(n_max=-1, charge=0)], ids=str)
    def test_negative_counts_rejected(self, kwargs):
        with pytest.raises(SectorError, match="particle counts must be >= 0"):
            Sector(**kwargs)

    @pytest.mark.parametrize("kwargs, name", [
        (dict(n=True), "n"),
        (dict(n=1.5), "n"),
        (dict(n_max=2.0), "n_max"),
        (dict(n_max=np.True_), "n_max"),
        (dict(charge=0.5, n_max=2), "charge"),
        (dict(charge=False, n_max=2), "charge"),
        (dict(n=1, momentum=(0.5,)), "momentum component"),
        (dict(n=1, momentum=(0, True)), "momentum component"),
    ], ids=str)
    def test_non_integer_constraints_rejected(self, kwargs, name):
        with pytest.raises(SectorError, match=f"sector {name} must be an integer"):
            Sector(**kwargs)

    def test_numpy_integer_constraints_accepted(self):
        sector = Sector(n_max=np.int64(2), charge=np.int32(0), momentum=np.array([0, 1]))
        assert sector == Sector(n_max=2, charge=0, momentum=(0, 1))
        assert all(type(c) is int for c in (sector.n_max, sector.charge, *sector.momentum))

    def test_momentum_length_must_match_modes(self):
        ms = ModeSet.build(3, 1)
        with pytest.raises(SectorError, match="1 components.*3-component"):
            enumerate_basis(ms, Sector(n=1, momentum=(0,)))


def _assert_same_basis(got, want):
    assert got.dtype == want.dtype == np.uint64
    assert np.array_equal(got, want)
    assert np.all(got[1:] > got[:-1])


RUNNER_SECTORS = [Sector(n=1, charge=-1)] + [Sector(n=2, charge=q) for q in (-2, 0, 2)]


class TestEnumerateAgainstReference:
    """The subset-join enumerator against the combination filter, array for
    array (dtype, order and values)."""

    @pytest.mark.parametrize("sector", SECTORS, ids=str)
    @pytest.mark.parametrize("fixture", ["modes4", "modes8"])
    def test_small_mode_sets(self, request, fixture, sector):
        ms = request.getfixturevalue(fixture)
        _assert_same_basis(enumerate_basis(ms, sector), reference_enumerate(ms, sector))

    @pytest.mark.parametrize("cfg,sector", [
        (dict(dimension=1), Sector(n_max=2)),
        (dict(dimension=1), Sector(n_max=4, charge=0)),
        (dict(dimension=1), Sector(n_max=4, charge=0, momentum=(0,))),
        (dict(dimension=1, n_max=2), Sector(n_max=6, charge=0)),
        (dict(dimension=1, n_max=2), Sector(n_max=6, charge=0, momentum=(0,))),
        (dict(dimension=3), Sector(n_max=4, charge=0, momentum=(0, 0, 0))),
    ] + [(dict(dimension=d), sector) for d in (1, 3) for sector in RUNNER_SECTORS], ids=str)
    def test_model_sectors(self, cfg, sector):
        ms = modes_for(ModelConfig(**cfg))
        _assert_same_basis(enumerate_basis(ms, sector), reference_enumerate(ms, sector))

    @pytest.mark.parametrize("sector", [
        Sector(n_max=2, charge=0, momentum=(5,)),  # unreachable momentum
        Sector(n=9),  # more particles than modes
    ], ids=str)
    def test_empty(self, modes8, sector):
        got = enumerate_basis(modes8, sector)
        assert got.size == 0
        _assert_same_basis(got, reference_enumerate(modes8, sector))

    @pytest.mark.parametrize("sector, want", [
        (Sector(), [0]),
        (Sector(momentum=(0,)), [0]),
        (Sector(n_max=2, charge=0, momentum=(0, 0, 0)), [0]),
        (Sector(momentum=(1,)), []),
        (Sector(n=1), []),
    ], ids=str)
    def test_no_modes(self, sector, want):
        # only the vacuum, with or without a momentum constraint
        _assert_same_basis(enumerate_basis(ModeSet([]), sector), np.array(want, dtype=np.uint64))

    @pytest.mark.parametrize("sector", [Sector(), Sector(n=1, momentum=(0,))], ids=str)
    def test_same_errors(self, sector):
        ms = ModeSet.build(3, 1)
        with pytest.raises(SectorError) as want:
            reference_enumerate(ms, sector)
        with pytest.raises(SectorError, match=re.escape(str(want.value))):
            enumerate_basis(ms, sector)


class TestToMatrix:
    def test_number_operator(self, modes4):
        ms = ModeSet(list(modes4)[:2])
        num = OperatorExpr.from_factors([Ladder(ms[0], True), Ladder(ms[0], False)])
        basis = enumerate_basis(ms, Sector())
        mat = to_matrix(num, basis, ms).toarray().real
        assert np.array_equal(np.diag(mat), [0, 1, 0, 1])
        assert np.abs(mat - np.diag(np.diag(mat))).max() == 0

    def test_nilpotent_is_zero_matrix(self, modes4):
        expr = OperatorExpr.from_factors([Ladder(modes4[0], False), Ladder(modes4[0], False)])
        basis = enumerate_basis(modes4, Sector())
        assert to_matrix(expr, basis, modes4).nnz == 0

    def test_parity_sign_consistency(self, modes8):
        # b+_i b+_j |0> and -b+_j b+_i |0> are the same state |{i, j}>,
        # read from the vacuum column
        basis = enumerate_basis(modes8, Sector(n_max=2))
        vac = int(basis_index(basis, 0))
        for i, j in itertools.combinations(range(len(modes8)), 2):
            one = to_matrix(
                OperatorExpr.from_factors([Ladder(modes8[i], True), Ladder(modes8[j], True)]),
                basis, modes8,
            ).toarray()[:, vac]
            two = to_matrix(
                OperatorExpr.from_factors(
                    [Ladder(modes8[j], True), Ladder(modes8[i], True)], coeff=-1.0
                ),
                basis, modes8,
            ).toarray()[:, vac]
            want = np.zeros(basis.size)
            want[np.searchsorted(basis, (1 << i) | (1 << j))] = 1.0
            assert np.array_equal(one, want)
            assert np.array_equal(two, want)

    def test_matches_jw_oracle(self, rng, modes8):
        basis = enumerate_basis(modes8, Sector())
        for _ in range(15):
            a = random_expr(rng, modes8)
            mine = to_matrix(a, basis, modes8).toarray()
            oracle = jw_expr_matrix(a, modes8)
            assert np.abs(mine - oracle).max() <= 1e-12

    def test_wick_reorder_same_matrix(self, rng, modes8):
        basis = enumerate_basis(modes8, Sector())
        for _ in range(15):
            a = random_expr(rng, modes8)
            d = as_scipy(to_matrix(a, basis, modes8)) - as_scipy(to_matrix(wick_reorder(a), basis, modes8))
            assert (np.abs(d.data).max() if d.nnz else 0.0) <= 1e-12

    def test_product_homomorphism_on_full_space(self, rng, modes8):
        basis = enumerate_basis(modes8, Sector())
        for _ in range(10):
            a = random_expr(rng, modes8, n_terms=2, max_factors=2)
            b = random_expr(rng, modes8, n_terms=2, max_factors=2)
            ab = to_matrix(a * b, basis, modes8).toarray()
            prod = to_matrix(a, basis, modes8).toarray() @ to_matrix(b, basis, modes8).toarray()
            assert np.abs(ab - prod).max() <= 1e-10

    def test_linear(self, rng, modes8):
        basis = enumerate_basis(modes8, Sector(n_max=2))
        a = random_expr(rng, modes8)
        b = random_expr(rng, modes8)
        lhs = to_matrix(a + b, basis, modes8).toarray()
        rhs = to_matrix(a, basis, modes8).toarray() + to_matrix(b, basis, modes8).toarray()
        assert np.abs(lhs - rhs).max() <= 1e-12

    def test_truncation_drop_counter(self, modes4):
        basis = enumerate_basis(modes4, Sector(n_max=1))
        pair = OperatorExpr.from_factors([Ladder(modes4[0], True), Ladder(modes4[1], True)])
        op = to_matrix(pair, basis, modes4)
        assert op.nnz == 0
        # vacuum and the two single states not containing modes 0/1 all map
        # to two-particle images outside the sector
        assert op.dropped == 3

    def test_basis_beyond_mode_set_rejected(self):
        ms = ModeSet.build(3, 1)
        expr = OperatorExpr.single(Ladder(ms[0], True))
        with pytest.raises(SectorError, match="beyond the 28 modes"):
            to_matrix(expr, np.array([0, 1 << 40], dtype=np.uint64), ms)

    @pytest.mark.parametrize("basis", [[2, 1], [1, 1]], ids=["descending", "repeated"])
    def test_basis_not_ascending_rejected(self, modes4, basis):
        expr = OperatorExpr.single(Ladder(modes4[0], True))
        with pytest.raises(SectorError, match="basis must be strictly ascending"):
            to_matrix(expr, np.array(basis, dtype=np.uint64), modes4)

    def test_unknown_mode_rejected(self, modes4):
        stranger = Mode(P, 2, (1,))
        expr = OperatorExpr.single(Ladder(stranger, True))
        basis = enumerate_basis(modes4, Sector(n_max=1))
        with pytest.raises(KeyError):
            to_matrix(expr, basis, modes4)

    def test_number_conserving_block_structure(self, rng, modes8):
        # number-conserving expressions never connect different particle
        # numbers: matrix is block diagonal across N
        basis = enumerate_basis(modes8, Sector(n_max=3))
        sizes = np.array([int(b).bit_count() for b in basis])
        expr_terms = []
        for _ in range(6):
            i, j = rng.integers(0, len(modes8), 2)
            expr_terms.append(
                Term(complex(rng.standard_normal()),
                     (Ladder(modes8[int(i)], True), Ladder(modes8[int(j)], False)))
            )
        mat = as_scipy(to_matrix(OperatorExpr(expr_terms), basis, modes8)).tocoo()
        assert all(sizes[r] == sizes[c] for r, c in zip(mat.row, mat.col))


def _two_level_hamiltonian(coupling):
    return SparseOperator.from_dense(np.array([[0.0, coupling], [coupling, 0.0]], dtype=complex))


class TestGroundState:
    def test_diagonal(self):
        op = SparseOperator.from_dense(np.diag([0.0, 1.0, 2.0]).astype(complex))
        energy, vec = ground_state(op, random_start(op, 0))
        assert energy == pytest.approx(0.0, abs=1e-12)
        assert abs(vec[0]) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_non_hermitian(self):
        op = SparseOperator.from_dense(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))
        with pytest.raises(ValueError):
            ground_state(op, random_start(op, 0))

    def test_rejects_empty_operator(self):
        with pytest.raises(ValueError, match="empty sector has no ground state"):
            ground_state(SparseOperator.from_dense(np.zeros((0, 0))), np.zeros(0))

    def test_matches_dense_oracle_iterative_path(self, rng):
        n = 60
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        h = (a + a.conj().T) / 2
        op = SparseOperator.from_dense(h)
        energy, vec = ground_state(op, random_start(op, 7))
        dense = np.linalg.eigvalsh(h)[0]
        assert abs(energy - dense) <= 1e-9
        assert np.linalg.norm(h @ vec - energy * vec) <= 1e-8 * np.abs(h).sum(axis=1).max()

    def test_deterministic(self, rng):
        # the same start vector twice gives the same bits
        n = 40
        a = rng.standard_normal((n, n))
        h = (a + a.T) / 2
        op = SparseOperator.from_dense(h.astype(complex))
        v0 = random_start(op, 3)
        e1, v1 = ground_state(op, v0)
        e2, v2 = ground_state(op, v0)
        assert e1 == e2
        assert np.array_equal(v1, v2)


class TestEvolve:
    def test_diagonal_phase(self):
        energy = 1.7
        op = SparseOperator.from_dense(np.diag([energy, 0.3]).astype(complex))
        v0 = np.array([1.0, 0.0], dtype=complex)
        t = 2.31
        out = evolve(op, v0, t, dt=0.1)
        expect = np.exp(-1j * energy * t) * v0
        assert np.abs(out[-1] - expect).max() <= 1e-11

    def test_zero_hamiltonian(self):
        op = SparseOperator.from_dense(np.zeros((3, 3)))
        v0 = np.array([0.3, 0.4j, 0.5], dtype=complex)
        out = evolve(op, v0, 1.0, dt=0.25)
        assert out.shape == (4, 3)
        assert np.abs(out - v0).max() <= 1e-14

    def test_rabi_oscillation(self):
        # closed-form two-level solution: full population return after
        # T = 2 pi hbar / (2 |coupling|)
        coupling = 0.8
        op = _two_level_hamiltonian(coupling)
        v0 = np.array([1.0, 0.0], dtype=complex)
        period = 2.0 * np.pi / (2.0 * coupling)
        half = evolve(op, v0, period / 2.0, dt=period / 200.0)
        assert abs(half[-1, 0]) <= 1e-9  # full transfer at half period
        back = evolve(op, v0, period, dt=period / 200.0)
        assert abs(abs(back[-1, 0]) - 1.0) <= 1e-9

    def test_norm_preserved(self, rng):
        n = 30
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        op = SparseOperator.from_dense((a + a.conj().T) / 2)
        v0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        v0 /= np.linalg.norm(v0)
        t = 10.0
        out = evolve(op, v0, t, dt=0.05)
        assert np.abs(np.linalg.norm(out, axis=1) - 1.0).max() <= 1e-9 * t

    def test_rejects_bad_dt(self):
        op = _two_level_hamiltonian(1.0)
        for dt in (0.0, -0.1, np.nan):
            with pytest.raises(ValueError, match="dt"):
                evolve(op, np.array([1.0, 0.0], dtype=complex), 1.0, dt=dt)

    @pytest.mark.parametrize("hbar", [0.0, -1.0, np.nan, np.inf])
    def test_rejects_bad_hbar(self, hbar):
        op = _two_level_hamiltonian(1.0)
        with pytest.raises(ValueError, match="hbar must be finite and > 0"):
            evolve(op, np.array([1.0, 0.0], dtype=complex), 1.0, dt=0.1, hbar=hbar)

    def test_rejects_negative_t(self):
        op = _two_level_hamiltonian(1.0)
        with pytest.raises(ValueError, match="t must be >= 0"):
            evolve(op, np.array([1.0, 0.0], dtype=complex), -0.1, dt=0.1)

    def test_rejects_state_of_wrong_dimension(self):
        op = _two_level_hamiltonian(1.0)
        with pytest.raises(ValueError, match="state/operator dimension mismatch"):
            evolve(op, np.ones(3, dtype=complex), 1.0, dt=0.1)

    @pytest.mark.parametrize("t, dt", [(np.inf, 0.1), (1e300, 1e-300)])
    def test_rejects_non_finite_step_count(self, t, dt):
        op = _two_level_hamiltonian(1.0)
        with pytest.raises(ValueError, match=re.escape(f"t={t!r} and dt={dt!r}")):
            evolve(op, np.array([1.0, 0.0], dtype=complex), t, dt)

    def test_zero_t_gives_no_rows(self):
        op = _two_level_hamiltonian(1.0)
        out = evolve(op, np.array([1.0, 0.0], dtype=complex), 0.0, dt=0.1)
        assert out.shape == (0, 2)
        assert op.meta["evolve"] == {"dim": 2, "steps": 0}

    def test_rejects_non_hermitian(self):
        op = SparseOperator.from_dense(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))
        v0 = np.array([1.0, 0.0], dtype=complex)
        with pytest.raises(ValueError, match=r"Hermitian operator \(defect 1\.000e\+00\)"):
            evolve(op, v0, 1.0, dt=0.5)

    def test_reassigned_matrix_is_rechecked(self):
        op = _two_level_hamiltonian(0.8)
        v0 = np.array([1.0, 0.0], dtype=complex)
        evolve(op, v0, 0.1, dt=0.1)
        bad = SparseOperator.from_dense(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))
        op.data, op.pattern = bad.data, bad.pattern
        with pytest.raises(ValueError, match="Hermitian"):
            evolve(op, v0, 0.1, dt=0.1)

    def test_hermiticity_checked_once_per_operator(self, monkeypatch):
        # one call propagates over every step, and checks once
        op = _two_level_hamiltonian(0.8)
        calls = []
        defect = SparseOperator.hermiticity_defect
        monkeypatch.setattr(SparseOperator, "hermiticity_defect",
                            lambda self: calls.append(1) or defect(self))
        out = evolve(op, np.array([1.0, 0.0], dtype=complex), 0.3, dt=0.1)
        assert out.shape == (3, 2)
        assert len(calls) == 1

    def test_eigenbasis_path_matches_expm_at_long_time(self, rng):
        # every row, at time (k + 1) t / n, is the exact exponential
        from scipy.linalg import expm

        h = _random_hermitian(rng, 14)
        op = SparseOperator.from_dense(h)
        v0 = _random_unit(rng, 14)
        t, hbar = 250.0, 0.7
        out = evolve(op, v0, t, dt=10.0, hbar=hbar)
        assert op.meta["evolve"] == {"dim": 14, "steps": 25}
        for k, row in enumerate(out):
            assert np.abs(row - expm(-1j * h * (k + 1) * 10.0 / hbar) @ v0).max() <= 1e-9

    def test_trajectory_equals_chained_steps(self, rng):
        op = SparseOperator.from_dense(_random_hermitian(rng, 8))
        v = _random_unit(rng, 8)
        t, steps = 3.0, 7
        dt = t / steps
        out = evolve(op, v, t, dt, hbar=0.7)
        for row in out:
            v = evolve(op, v, dt, dt, hbar=0.7)[-1]
            assert np.array_equal(row, v)

    def test_last_row_at_t_when_dt_does_not_divide_t(self, rng):
        from scipy.linalg import expm

        h = _random_hermitian(rng, 6)
        op = SparseOperator.from_dense(h)
        v0 = _random_unit(rng, 6)
        out = evolve(op, v0, 1.0, dt=0.3)
        assert out.shape == (4, 6)
        for k, row in enumerate(out):
            assert np.abs(row - expm(-1j * h * (k + 1) * 0.25) @ v0).max() <= 1e-12

    @pytest.mark.parametrize("n", [2, 30])
    def test_non_finite_state_rejected_on_either_path(self, rng, n):
        # the smallest sector and the largest one-electron sector (1D, n_max=7)
        op = SparseOperator.from_dense(_random_hermitian(rng, n))
        v0 = np.zeros(n, dtype=complex)
        v0[0] = np.inf
        with np.errstate(invalid="ignore"), pytest.raises(FloatingPointError):
            evolve(op, v0, 0.1, dt=0.1)


def _random_hermitian(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (a + a.conj().T) / 2


def _random_unit(rng, n):
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


class TestExpectation:
    def test_number_operator(self, modes4):
        num = OperatorExpr.from_factors([Ladder(modes4[0], True), Ladder(modes4[0], False)])
        basis = enumerate_basis(modes4, Sector(n_max=1))
        op = to_matrix(num, basis, modes4)
        v = state_vector({0b1: 1.0}, basis)
        assert expectation(op, v) == pytest.approx(1.0)

    def test_normal_ordered_on_vacuum(self, rng, modes8):
        basis = enumerate_basis(modes8, Sector(n_max=2))
        vac = state_vector({0: 1.0}, basis)
        for _ in range(10):
            a = random_expr(rng, modes8, n_terms=3, max_factors=3)
            a = OperatorExpr(tuple(t for t in a.terms if t.degree > 0))
            na = normal_order_prescription(a)
            op = to_matrix(na, basis, modes8)
            assert abs(expectation(op, vac)) <= 1e-12

    def test_hermitian_gives_real(self, rng, modes8):
        basis = enumerate_basis(modes8, Sector(n_max=2))
        a = random_expr(rng, modes8)
        herm = a + a.adjoint()
        op = to_matrix(herm, basis, modes8)
        v = rng.standard_normal(basis.size) + 1j * rng.standard_normal(basis.size)
        v /= np.linalg.norm(v)
        assert abs(expectation(op, v).imag) <= 1e-12

    def test_dimension_mismatch(self, modes4):
        basis = enumerate_basis(modes4, Sector(n_max=1))
        num = OperatorExpr.from_factors([Ladder(modes4[0], True), Ladder(modes4[0], False)])
        op = to_matrix(num, basis, modes4)
        with pytest.raises(ValueError):
            expectation(op, np.zeros(3, dtype=complex))


@pytest.mark.parametrize("make, message", [
    (lambda: Mode(E, 3, (0,)), "spin index must be 1 or 2, got 3"),
    (lambda: ModeSet([Mode(E, 1, (1,)), Mode(E, 1, (0,))]), "must be given in canonical order"),
    (lambda: ModeSet([Mode(E, 1, (0,))] * 2), "duplicate modes"),
    (lambda: ModeSet.build(1, 16), "at most 64 modes supported, got 132"),
], ids=["spin", "order", "duplicate", "too-many"])
def test_bad_modes_rejected(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def test_mode_sets_are_values():
    # equal mode sets, built apart, hash equal and hold the same modes
    a, b = ModeSet.build(1, 1), ModeSet.build(1, 1)
    assert a is not b and a == b and hash(a) == hash(b)
    assert len({a, b, ModeSet.build(1, 2)}) == 2
    assert Mode(E, 2, (1,)) in a and Mode(E, 2, (2,)) not in a


def test_basis_index(modes8):
    basis = enumerate_basis(modes8, Sector(n_max=2))
    occ = basis[[[3, 0], [7, basis.size - 1]]]
    assert np.array_equal(basis_index(basis, occ), [[3, 0], [7, basis.size - 1]])
    assert basis_index(basis, int(basis[5])) == 5
    assert basis_index(basis, []).shape == (0,)
    # the first occupancy outside the basis is named in hex
    with pytest.raises(SectorError, match=r"^occupancy 0x7 outside basis$"):
        basis_index(basis, [0b11, 0b111, 0xf0])
    with pytest.raises(SectorError, match=r"^occupancy 0x100 outside basis$"):
        basis_index(basis, 1 << 8)
    with pytest.raises(SectorError, match=r"^occupancy 0x0 outside basis$"):
        basis_index(np.zeros(0, dtype=np.uint64), [0])


def test_state_vector(modes4):
    basis = enumerate_basis(modes4, Sector(n_max=2))
    v = state_vector({0b11: 0.5j, 0: 2.0, 0b1010: -1.0}, basis)
    want = np.zeros(basis.size, dtype=np.complex128)
    want[[list(basis).index(k) for k in (0b11, 0, 0b1010)]] = [0.5j, 2.0, -1.0]
    assert v.dtype == np.complex128 and np.array_equal(v, want)
    assert not state_vector({}, basis).any()
    with pytest.raises(SectorError, match=r"^occupancy 0xe outside basis$"):
        state_vector({0b11: 1.0, 0b1110: 1.0, 0b1111: 1.0}, basis)
