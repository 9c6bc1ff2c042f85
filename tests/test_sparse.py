"""fockbox's own sparse matrix type, Davidson ground state and K0 quadrature,
against SciPy and dense oracles; and runs that never import SciPy."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
import scipy.special
from conftest import random_start

import fockbox
from fockbox import assembly, fock
from fockbox.coulomb import bessel_k0
from fockbox.fock import (
    Sector,
    SparseOperator,
    enumerate_basis,
    evolve,
    ground_state,
    pack,
    to_matrices,
    to_matrix,
)
from fockbox.model import (
    ModelConfig,
    coulomb_full_packed,
    coulomb_kernel,
    free_hamiltonian,
    modes_for,
)


def _random_dense(rng, n, density=0.2, hermitian=False, real=False):
    a = rng.standard_normal((n, n))
    if not real:
        a = a + 1j * rng.standard_normal((n, n))
    a = a * (rng.random((n, n)) < density)
    a[rng.integers(0, n, 2)] = 0.0  # some empty rows
    if hermitian:
        a = a + a.conj().T
    return a


def _op(a) -> SparseOperator:
    return SparseOperator.from_dense(a)


def _assert_same_csr(mine: SparseOperator, theirs):
    theirs = sp.csr_matrix(theirs)
    theirs.sum_duplicates()
    assert (mine.dim, mine.dim) == theirs.shape
    assert np.array_equal(mine.pattern.indptr, theirs.indptr)
    assert np.array_equal(mine.pattern.indices, theirs.indices)
    assert np.array_equal(mine.data, theirs.data)


def _parts_on_one_pattern(rng, n=24):
    """Two near-Hermitian operators and a non-Hermitian one, on one pattern."""
    h = [_random_dense(rng, n, hermitian=True) for _ in range(2)]
    g = _random_dense(rng, n)
    mask = (h[0] != 0) | (h[1] != 0) | (g != 0)
    pattern = SparseOperator.from_dense(mask.astype(float)).pattern
    rows, cols = pattern.rows, pattern.indices
    noise = 1e-14 * rng.standard_normal(pattern.keys.size)
    return [SparseOperator(a[rows, cols] + noise * (k < 2), pattern)
            for k, a in enumerate((*h, g))]


class TestCSRMatrix:
    """The compressed sparse row storage of :class:`SparseOperator`."""

    def test_sum_duplicates_in_input_order(self, rng):
        n, k = 7, 200
        rows, cols = rng.integers(0, n, k), rng.integers(0, n, k)
        vals = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        pattern, (data,) = fock._sum_duplicates([(rows, cols, vals)], n)
        mat = SparseOperator(data, pattern)
        want = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
        want.sum_duplicates()  # in SciPy's own order
        assert np.array_equal(mat.pattern.indptr, want.indptr)
        assert np.array_equal(mat.pattern.indices, want.indices)
        assert np.abs(mat.data - want.data).max() <= 1e-14 * np.abs(vals).sum()
        # bitwise: each entry is the left-to-right sum of its triplets
        for r, c, v in zip(mat.pattern.rows, mat.pattern.indices, mat.data):
            acc = 0.0 + 0.0j
            for x in vals[(rows == r) & (cols == c)]:
                acc += x
            assert v == acc

    def test_from_dense_and_toarray(self, rng):
        a = _random_dense(rng, 30)
        mat = SparseOperator.from_dense(a)
        _assert_same_csr(mat, a)
        assert np.array_equal(mat.toarray(), a)
        assert mat.nnz == np.count_nonzero(a)

    def test_empty_matrix(self):
        mat = SparseOperator.from_dense(np.zeros((4, 4)))
        assert mat.nnz == 0
        assert np.array_equal(mat.pattern.indptr, np.zeros(5))
        assert np.array_equal(mat @ np.ones(4), np.zeros(4))
        assert mat.norm_inf() == 0.0
        assert mat.hermiticity_defect() == 0.0
        assert np.array_equal(mat.toarray(), np.zeros((4, 4)))
        assert SparseOperator.from_dense(np.zeros((0, 0))).dim == 0

    @pytest.mark.parametrize("real_x", [False, True])
    def test_matvec(self, rng, real_x):
        a = _random_dense(rng, 40)
        x = rng.standard_normal(40) + (0 if real_x else 1j * rng.standard_normal(40))
        got = SparseOperator.from_dense(a) @ x
        assert np.abs(got - sp.csr_matrix(a) @ x).max() <= 1e-14 * np.abs(a).sum(axis=1).max()

    @pytest.mark.parametrize("make, message", [
        (lambda: SparseOperator.from_dense(np.ones((2, 3))), r"square matrix, got shape \(2, 3\)"),
        (lambda: SparseOperator.from_dense(np.ones(3)), r"square matrix, got shape \(3,\)"),
        (lambda: SparseOperator(np.ones(3), _op(np.eye(4)).pattern),
         "3 values for a pattern of 4 entries"),
    ], ids=["non-square", "one-dimensional", "data-size"])
    def test_malformed_operator_rejected(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()

    def test_matvec_rejects_wrong_shape(self, rng):
        with pytest.raises(ValueError, match="cannot apply"):
            SparseOperator.from_dense(_random_dense(rng, 5)) @ np.ones(4)

    def test_add_shared_pattern_adds_data(self, rng):
        a = SparseOperator.from_dense(_random_dense(rng, 20))
        b = a * (2.0 - 1.0j)
        assert b.pattern is a.pattern
        total = a + b
        assert total.pattern is a.pattern
        assert np.array_equal(total.data, a.data + b.data)

    def test_add_across_patterns_names_to_matrices(self, rng):
        # another pattern object does not add, even one with the same entries
        a = _random_dense(rng, 20)
        for other in (a, np.eye(4)):
            with pytest.raises(ValueError, match="to_matrices"):
                SparseOperator.from_dense(a) + SparseOperator.from_dense(other)

    def test_add_non_operator_is_a_type_error(self, rng):
        # as for 2 * op: Python names the operand types, not a missing attribute
        op = SparseOperator.from_dense(_random_dense(rng, 5))
        for other in (1, 0.5):
            with pytest.raises(TypeError):
                op + other

    def test_scale(self, rng):
        a = _random_dense(rng, 15)
        z = 0.25 - 3.0j
        _assert_same_csr(SparseOperator.from_dense(a) * z, sp.csr_matrix(a) * z)

    @pytest.mark.parametrize("real", [True, False])
    def test_diagonal(self, rng, real):
        a = _random_dense(rng, 30, 0.3, real=real)  # some diagonal entries are absent
        op = SparseOperator.from_dense(a)
        assert np.count_nonzero(np.diag(a)) < 30
        assert op.diagonal().dtype == op.data.dtype
        assert np.array_equal(op.diagonal(), np.diag(a))

    def test_norm_inf(self, rng):
        a = _random_dense(rng, 30)
        assert SparseOperator.from_dense(a).norm_inf() == pytest.approx(
            spla.norm(sp.csr_matrix(a), np.inf), rel=1e-14)

    @pytest.mark.parametrize("kind", ["hermitian", "random", "upper", "lone"])
    def test_hermiticity_defect(self, rng, kind):
        a = {
            "hermitian": _random_dense(rng, 30, hermitian=True),
            "random": _random_dense(rng, 30),
            "upper": np.triu(_random_dense(rng, 30), 1),  # no entry has a partner
            "lone": np.diag(np.arange(5.0)) + np.eye(5, k=2) * 3j,
        }[kind]
        s = sp.csr_matrix(a)
        want = np.abs((s - s.getH()).toarray()).max()
        assert SparseOperator.from_dense(a).hermiticity_defect() == want
        if kind == "hermitian":
            assert want == 0.0

    @pytest.mark.parametrize("real", [True, False])
    @pytest.mark.parametrize("kind", ["hermitian", "random", "upper", "lone"])
    def test_hermiticity_defect_against_dense(self, rng, kind, real):
        a = {
            "hermitian": _random_dense(rng, 30, hermitian=True, real=real),
            "random": _random_dense(rng, 30, real=real),
            "upper": np.triu(_random_dense(rng, 30, real=real), 1),
            "lone": np.diag(np.arange(5.0)) + np.eye(5, k=2) * (3.0 if real else 3j),
        }[kind]
        op = SparseOperator.from_dense(a)
        assert op.data.dtype == (np.float64 if real else np.complex128)
        lone = op.pattern.partner < 0
        assert np.array_equal(op.pattern.unpaired, np.flatnonzero(lone))
        assert lone.any() == (kind in ("random", "upper", "lone"))
        assert op.hermiticity_defect() == np.abs(a - a.conj().T).max()

    def test_to_matrices_share_one_pattern(self, rng, modes8):
        from conftest import random_expr

        basis = enumerate_basis(modes8, Sector(n_max=3))
        exprs = [random_expr(rng, modes8, n_terms=6) for _ in range(3)]
        ops = to_matrices(exprs, basis, modes8)
        assert all(op.pattern is ops[0].pattern for op in ops)
        for op, expr in zip(ops, exprs):
            alone = to_matrix(expr, basis, modes8)
            assert np.array_equal(op.toarray(), alone.toarray())
            assert op.dropped == alone.dropped
        total = ops[0] + ops[1] * 0.5
        assert total.pattern is ops[0].pattern
        assert np.array_equal(total.toarray(), ops[0].toarray() + ops[1].toarray() * 0.5)

    def test_to_matrices_of_no_operators_is_empty(self, modes8):
        basis = enumerate_basis(modes8, Sector(n_max=3))
        assert to_matrices([], basis, modes8) == []

    def test_to_matrix_equals_scipy_assembly(self, rng, modes8):
        from conftest import random_expr
        from fockbox import assembly

        basis = enumerate_basis(modes8, Sector(n_max=3))
        op = fock.pack(random_expr(rng, modes8, n_terms=12), modes8)
        rows, cols, vals, _ = assembly.assemble(op.coeffs, op.opcodes, op.nops, basis)
        want = sp.coo_matrix((vals, (rows, cols)), shape=(basis.size,) * 2).tocsr()
        want.sum_duplicates()
        got = to_matrix(op, basis, modes8)
        assert np.array_equal(got.pattern.indptr, want.indptr)
        assert np.array_equal(got.pattern.indices, want.indices)
        assert np.abs(got.data - want.data).max() <= 1e-14 * np.abs(vals).sum()

    def test_non_hermitian_summand_stops_the_solvers(self, rng):
        a, _, g = _parts_on_one_pattern(rng)
        for h in (a + g, a + g * 0.5, (a + g) * -2.0):
            defect = h.hermiticity_defect()
            message = re.escape(f"operator is not Hermitian (defect {defect:.3e})")
            with pytest.raises(ValueError, match=message):
                ground_state(h, random_start(h, 0))
            with pytest.raises(ValueError, match=r"evolution requires a Hermitian operator"):
                evolve(h, np.ones(h.dim), 0.1, 0.1)

    def test_hermitian_sum_of_non_hermitian_parts_is_accepted(self, rng):
        # g + (-g) is exactly 0: the sum's own defect is what is checked
        a, _, g = _parts_on_one_pattern(rng)
        h = a + g + g * -1.0
        assert g.hermiticity_defect() > 1.0 and h.hermiticity_defect() <= 1e-12
        ground_state(h, random_start(h, 0))


class TestLanczos:
    """``ground_state``'s diagonal-preconditioned Davidson loop.  The class
    name predates that loop and is kept so that the test ids stay stable."""

    @pytest.mark.parametrize("real", [True, False])
    def test_matches_eigh(self, rng, real):
        a = _random_dense(rng, 200, 0.05, hermitian=True, real=real)
        op = _op(a)
        energy, vec = ground_state(op, random_start(op, 1))
        w, v = np.linalg.eigh(a)
        hnorm = np.abs(a).sum(axis=1).max()
        assert abs(energy - w[0]) <= 1e-12 * hnorm
        assert np.linalg.norm(a @ vec - energy * vec) <= 1e-8 * hnorm
        assert abs(abs(np.vdot(v[:, 0], vec)) - 1.0) <= 1e-9
        meta = op.meta["ground_state"]
        assert set(meta) == {"solver", "dtype", "steps", "restarts", "matvecs", "residual"}
        assert meta["solver"] == "davidson"
        assert meta["residual"] <= fock.DAVIDSON_RTOL * hnorm
        # one product per step, and one fresh product of the returned vector
        assert meta["steps"] >= 1 and meta["matvecs"] == meta["steps"] + 1
        assert meta["restarts"] >= 0

    @pytest.mark.parametrize("real", [True, False])
    def test_residual_is_from_a_fresh_product(self, rng, real):
        a = _random_dense(rng, 120, 0.1, hermitian=True, real=real)
        op = _op(a)
        energy, vec = ground_state(op, random_start(op, 2))
        hnorm = np.abs(a).sum(axis=1).max()
        hv = op @ vec
        assert abs(energy - np.vdot(vec, hv).real) <= 1e-14 * hnorm
        fresh = np.linalg.norm(hv - energy * vec)
        assert abs(op.meta["ground_state"]["residual"] - fresh) <= 1e-15 * hnorm

    @staticmethod
    def _near_degenerate(rng, split, n=80):
        """A Hermitian matrix whose two lowest levels are ``split`` apart,
        and an orthonormal basis of their span."""
        q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        levels = np.concatenate(([-1.0, -1.0 + split], np.linspace(0.0, 3.0, n - 2)))
        a = (q * levels) @ q.conj().T
        return (a + a.conj().T) / 2, q[:, :2]

    @pytest.mark.parametrize("split", [0.0, 1e-9])
    def test_near_degenerate_ground_state(self, rng, split):
        a, low = self._near_degenerate(rng, split)
        op = _op(a)
        energy, vec = ground_state(op, random_start(op, 5))
        assert abs(energy - np.linalg.eigvalsh(a)[0]) <= 1e-12
        # the vector lies in the span of the two lowest levels
        assert np.linalg.norm(vec - low @ (low.conj().T @ vec)) <= 1e-8

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("split", [1e-6, 1e-4, 1e-2])
    def test_near_degenerate_small_basis(self, monkeypatch, split, seed):
        # a restart keeps the lowest Ritz vectors, so a basis of 6 does not
        # lose the second level's direction; a restart from the lowest Ritz
        # vector alone drops it every round and stalls at splits 1e-6 and 1e-4
        monkeypatch.setattr(fock, "DAVIDSON_BASIS", 6)
        a, low = self._near_degenerate(np.random.default_rng(seed), split)
        op = _op(a)
        energy, vec = ground_state(op, random_start(op, 5))
        assert abs(energy - np.linalg.eigvalsh(a)[0]) <= 1e-12
        assert np.linalg.norm(vec - low @ (low.conj().T @ vec)) <= 1e-8
        assert op.meta["ground_state"]["restarts"] > 0
        assert op.meta["ground_state"]["matvecs"] <= 60

    @pytest.mark.parametrize("real", [True, False])
    @pytest.mark.parametrize("kind", ["constant diagonal", "diagonal"])
    def test_preconditioner_edge_cases(self, rng, kind, real):
        # a constant diagonal makes the preconditioner a scalar; a diagonal
        # operator makes it nearly exact.  Neither may divide by zero
        n = 60
        if kind == "diagonal":
            a = np.diag(rng.uniform(-1.0, 1.0, n))
        else:
            a = _random_dense(rng, n, 0.2, hermitian=True, real=real)
            np.fill_diagonal(a, 0.5)
        op = _op(a) if real else _complex_cast(_op(a))
        assert op.data.dtype == (np.float64 if real else np.complex128)
        with np.errstate(all="raise"):
            energy, vec = ground_state(op, random_start(op, 4))
        w, v = np.linalg.eigh(a)
        hnorm = np.abs(a).sum(axis=1).max()
        assert abs(energy - w[0]) <= 1e-12 * hnorm
        assert abs(abs(np.vdot(v[:, 0], vec)) - 1.0) <= 1e-9
        assert np.all(np.isfinite(vec))
        # a warm start at the answer takes one step: one product, one fresh
        again = _op(a) if real else _complex_cast(_op(a))
        with np.errstate(all="raise"):
            e_again, _ = ground_state(again, v0=vec)
        assert abs(e_again - w[0]) <= 1e-12 * hnorm
        assert again.meta["ground_state"]["steps"] == 1
        assert again.meta["ground_state"]["matvecs"] == 2

    def test_vacuum_3d_cold_solves_stop_near_the_tolerance(self):
        # 13-14 products reach the tolerance at every seed
        (h_free, h_coul), _, _ = _vacuum_block(3)
        for seed in range(1, 11):
            h = h_free + h_coul
            ground_state(h, random_start(h, seed))
            assert h.meta["ground_state"]["matvecs"] <= 16

    def test_warm_start(self, rng):
        a = _random_dense(rng, 300, 0.03, hermitian=True)
        b = _random_dense(rng, 300, 0.03, hermitian=True) * 1e-3
        cold = _op(a + b)
        e_cold, _ = ground_state(cold, random_start(cold, 3))
        prev = _op(a)
        _, v_prev = ground_state(prev, random_start(prev, 3))
        warm = _op(a + b)
        e_warm, _ = ground_state(warm, v0=v_prev)
        assert abs(e_warm - e_cold) <= 1e-12 * np.abs(a + b).sum(axis=1).max()
        assert warm.meta["ground_state"]["matvecs"] < cold.meta["ground_state"]["matvecs"]
        # a warm start at the answer converges at once, in one step
        again = _op(a + b)
        fresh = _op(a + b)
        e_again, _ = ground_state(again, v0=ground_state(fresh, random_start(fresh, 0))[1])
        assert abs(e_again - e_cold) <= 1e-12 * np.abs(a + b).sum(axis=1).max()
        assert again.meta["ground_state"]["steps"] == 1
        assert again.meta["ground_state"]["matvecs"] == 2

    def test_start_vector_checked(self, rng):
        op = _op(_random_dense(rng, 20, hermitian=True))
        with pytest.raises(ValueError, match="start vector"):
            ground_state(op, v0=np.ones(19))
        with pytest.raises(ValueError, match="start vector"):
            ground_state(op, v0=np.zeros(20))
        # a non-finite entry would carry NaN through the solve to the result
        for bad in (np.inf, np.nan):
            with pytest.raises(ValueError, match="start vector"):
                ground_state(op, v0=np.r_[1.0, bad, np.zeros(18)])

    def test_residual_bound_enforced(self, rng, monkeypatch):
        # with no restarts allowed the solver stops after one step, far
        # from an eigenvector, and ground_state refuses the answer
        monkeypatch.setattr(fock, "DAVIDSON_RESTARTS", 0)
        op = _op(_random_dense(rng, 50, 0.2, hermitian=True))
        with pytest.raises(RuntimeError, match=r"eigensolver residual .* exceeds 1e-8\*\|\|H\|\|"):
            ground_state(op, random_start(op, 1))
        assert op.meta["ground_state"]["steps"] == 1

    def test_nan_residual_refused(self, rng, monkeypatch):
        # a NaN residual fails the gate instead of slipping past a comparison
        monkeypatch.setattr(fock, "_davidson_lowest",
                            lambda h, v, tol: (np.nan, v, {"residual": np.nan}))
        op = _op(_random_dense(rng, 20, hermitian=True))
        with pytest.raises(RuntimeError, match="eigensolver residual nan"):
            ground_state(op, random_start(op, 0))

    def test_restarts(self, rng, monkeypatch):
        monkeypatch.setattr(fock, "DAVIDSON_BASIS", 6)
        a = _random_dense(rng, 100, 0.1, hermitian=True)
        op = _op(a)
        energy, _ = ground_state(op, random_start(op, 2))
        assert abs(energy - np.linalg.eigvalsh(a)[0]) <= 1e-10
        assert op.meta["ground_state"]["restarts"] > 0

    def test_basis_exhausted(self, rng):
        # n below the basis size: the basis fills the whole space
        a = _random_dense(rng, 17, 0.5, hermitian=True)
        op = _op(a)
        energy, _ = ground_state(op, random_start(op, 0))
        assert abs(energy - np.linalg.eigvalsh(a)[0]) <= 1e-12 * np.abs(a).sum(axis=1).max()
        assert op.meta["ground_state"]["steps"] <= 17 + 1

    @pytest.mark.parametrize("real", [True, False])
    def test_collapsed_correction_stops(self, rng, monkeypatch, real):
        # with a tolerance no residual reaches, the basis fills the space;
        # then the correction and the residual both fall into its span, and
        # the loop stops there without dividing by zero
        monkeypatch.setattr(fock, "DAVIDSON_RTOL", 0.0)
        a = _random_dense(rng, 17, 0.5, hermitian=True, real=real)
        op = _op(a)
        with np.errstate(all="raise"):
            energy, _ = ground_state(op, random_start(op, 0))
        assert abs(energy - np.linalg.eigvalsh(a)[0]) <= 1e-12 * np.abs(a).sum(axis=1).max()
        assert op.meta["ground_state"]["steps"] == 17
        assert op.meta["ground_state"]["restarts"] == 0

    @pytest.mark.parametrize("real", [True, False])
    @pytest.mark.parametrize("n", range(1, 17))
    def test_small_dimensions(self, rng, n, real):
        # Davidson serves every dimension: a random operator, one with a
        # constant diagonal, and a diagonal one with a degenerate lowest level
        random = _random_dense(rng, n, 0.5, hermitian=True, real=real)
        flat = random.copy()
        np.fill_diagonal(flat, 0.5)
        degenerate = np.diag(np.repeat(rng.uniform(-1.0, 1.0, (n + 1) // 2), 2)[:n])
        for a in (random, flat, degenerate):
            op = _op(a) if real else _complex_cast(_op(a))
            with np.errstate(all="raise"):
                energy, vec = ground_state(op, random_start(op, n))
            hnorm = max(1.0, np.abs(a).sum(axis=1).max())
            assert abs(energy - np.linalg.eigvalsh(a)[0]) <= 1e-12 * hnorm
            assert np.linalg.norm(a @ vec - energy * vec) <= 1e-8 * hnorm
            assert op.meta["ground_state"]["solver"] == "davidson"


def _vacuum_block(dimension, n_max=1, cap=4):
    """The vacuum experiment's operators: H_free and the full Coulomb term
    on the charge-0, P=0 block of N <= cap, with the packed operators and
    the block."""
    cfg = ModelConfig(dimension=dimension, n_max=n_max)
    ms = modes_for(cfg)
    basis = enumerate_basis(ms, Sector(n_max=cap, charge=0, momentum=(0,) * dimension))
    ops = [pack(free_hamiltonian(cfg), ms), coulomb_full_packed(cfg)]
    return to_matrices(ops, basis, ms), ops, basis


def _complex_cast(op: SparseOperator) -> SparseOperator:
    return SparseOperator(op.data.astype(np.complex128), op.pattern)


class TestRealArithmetic:
    """Real operators are stored as float64 and solved in real arithmetic;
    the oracle is the same operator cast to complex128."""

    def test_dtype_follows_the_values(self):
        (h_free, h_coul), _, _ = _vacuum_block(1)
        assert h_free.data.dtype == h_coul.data.dtype == np.float64
        (h_free, h_coul), _, _ = _vacuum_block(3)
        assert h_free.data.dtype == np.float64  # dispersions only
        assert h_coul.data.dtype == np.complex128
        assert np.abs(h_coul.data.imag).max() > 0.0

    @pytest.mark.parametrize("dimension", [1, 3])
    def test_data_is_the_input_order_sum_bitwise(self, dimension):
        # each entry is the sum of its assembled values in input order; a
        # real operator holds exactly the real part of the complex sum
        (h_free, h_coul), (_, packed), basis = _vacuum_block(dimension)
        rows, cols, vals, _ = assembly.assemble(packed.coeffs, packed.opcodes, packed.nops, basis)
        pattern = h_coul.pattern
        where = np.searchsorted(pattern.keys, rows * basis.size + cols)
        want = np.zeros(pattern.keys.size, dtype=np.complex128)
        np.add.at(want, where, vals.astype(np.complex128))
        if dimension == 1:
            assert not vals.imag.any()
            assert np.array_equal(h_coul.data, want.real)
        else:
            assert np.array_equal(h_coul.data, want)

    def test_post_init_and_from_dense_dtypes(self):
        pattern = SparseOperator.from_dense(np.eye(3)).pattern
        for data, dtype in [(np.ones(3), np.float64), (np.ones(3, dtype=np.int64), np.complex128),
                            (np.ones(3, dtype=np.float32), np.complex128),
                            (np.ones(3, dtype=np.complex64), np.complex128)]:
            assert SparseOperator(data, pattern).data.dtype == dtype
        assert SparseOperator.from_dense(np.eye(3) + 0j).data.dtype == np.float64
        assert SparseOperator.from_dense(np.eye(3, dtype=np.int64)).data.dtype == np.float64
        assert SparseOperator.from_dense(np.eye(3) * 1j).data.dtype == np.complex128

    def test_sums_and_products_promote(self, rng):
        a = rng.standard_normal((20, 20)) * (rng.random((20, 20)) < 0.3)
        real = SparseOperator.from_dense(a)
        cplx = real * (1.0 + 0.5j)
        x = rng.standard_normal(20)
        assert cplx.data.dtype == np.complex128
        assert (real * 0.25).data.dtype == (real + real).data.dtype == np.float64
        assert (real + cplx).data.dtype == (cplx + real).data.dtype == np.complex128
        assert np.array_equal((real + cplx).data, real.data + cplx.data)
        assert (real @ x).dtype == np.float64
        assert (real @ (x + 0j)).dtype == (cplx @ x).dtype == np.complex128
        assert real.toarray().dtype == np.float64
        assert np.array_equal(real.toarray(), a)

    @pytest.mark.parametrize("n_max,cap", [(1, 4), (2, 4)])
    def test_ground_state_matches_complex_cast_and_eigh(self, n_max, cap):
        (h_free, h_coul), _, _ = _vacuum_block(1, n_max, cap)
        h = h_free + h_coul
        assert h.data.dtype == np.float64
        # a real start on the real operator keeps the arithmetic real; the
        # complex cast with a complex start runs it in complex128
        v0 = random_start(h, 4)
        assert v0.dtype == np.float64
        e_real, v_real = ground_state(h, v0)
        assert v_real.dtype == np.float64
        assert h.meta["ground_state"]["dtype"] == "float64"
        hc = _complex_cast(h)
        v0 = random_start(hc, 4)
        assert v0.dtype == np.complex128
        e_cplx, v_cplx = ground_state(hc, v0)
        assert v_cplx.dtype == np.complex128
        assert hc.meta["ground_state"]["dtype"] == "complex128"
        dense = np.linalg.eigvalsh(h.toarray())[0]
        assert abs(e_real - e_cplx) <= 1e-12
        assert abs(e_real - dense) <= 1e-12
        # both phase-fixed: the same unit vector, entry by entry
        assert np.abs(v_real - v_cplx).max() <= 1e-10
        # a complex start vector makes the arithmetic complex
        e_mixed, v_mixed = ground_state(h, v0=v_real + 1e-3j)
        assert v_mixed.dtype == np.complex128
        assert h.meta["ground_state"]["dtype"] == "complex128"
        assert abs(e_mixed - e_real) <= 1e-12

    def test_two_state_solve_records_dtype(self):
        for a, dtype in [(np.diag([2.0, -1.0]), "float64"),
                         (np.array([[0.0, 1j], [-1j, 0.0]]), "complex128")]:
            op = _op(a)
            _, vec = ground_state(op, random_start(op, 0))
            assert vec.dtype.name == op.meta["ground_state"]["dtype"] == dtype

    def test_evolve_matches_complex_cast(self, rng):
        h = _op(_random_dense(rng, 40, 0.2, hermitian=True, real=True))
        assert h.data.dtype == np.float64
        v = rng.standard_normal(40) + 1j * rng.standard_normal(40)
        v /= np.linalg.norm(v)
        real = evolve(h, v, 3.0, 0.1)
        cplx = evolve(_complex_cast(h), v, 3.0, 0.1)
        assert real.dtype == cplx.dtype == np.complex128
        assert real.shape == (30, 40)
        assert np.abs(real - cplx).max() <= 1e-12


class TestBesselK0:
    def test_matches_scipy(self):
        x = np.geomspace(1e-6, 700.0, 4001)
        assert np.abs(bessel_k0(x) / scipy.special.k0(x) - 1.0).max() <= 1e-14

    def test_special_values_and_shape(self):
        got = bessel_k0(np.array([[0.0, np.inf], [-1.0, np.nan]]))
        assert got.shape == (2, 2)
        assert got[0, 0] == np.inf and got[0, 1] == 0.0
        assert np.isnan(got[1]).all()
        assert bessel_k0(1.0).shape == ()

    def test_each_value_depends_on_its_argument_alone(self, rng):
        x = rng.uniform(0.01, 40.0, 50)
        batch = bessel_k0(x)
        assert all(bessel_k0(v) == b for v, b in zip(x, batch))

    def test_1d_kernel_values(self):
        cfg = ModelConfig(dimension=1)
        kern = coulomb_kernel(cfg)
        q = np.arange(1, 33).reshape(-1, 1)
        k = 2.0 * np.pi * q[:, 0] / cfg.box_l
        want = 2.0 * scipy.special.k0(k * kern.a)
        assert np.abs(kern.values(q) / want - 1.0).max() <= 1e-14


def test_runs_import_no_scipy(tmp_path):
    """Every runner on the 1D default, in a fresh interpreter, leaves no
    scipy module loaded, and no ``numpy.ma`` (a plain ``np.unique`` loads
    it, at about 13 ms of start-up)."""
    script = (
        "import json, sys\n"
        "from fockbox.experiments import RUNNERS, ExperimentSpec\n"
        "from fockbox.model import ModelConfig\n"
        "spec = ExperimentSpec(config=ModelConfig(dimension=1), out_dir=sys.argv[1])\n"
        "assert len(RUNNERS) == 5\n"
        "for run in RUNNERS.values():\n"
        "    assert run(spec).all_passed\n"
        "print(json.dumps(sorted(m for m in sys.modules\n"
        "                        if m.split('.')[0] == 'scipy' or m.split('.')[:2] == ['numpy', 'ma'])))\n"
    )
    assert json.loads(_fresh_python(script, str(tmp_path))) == []


def test_experiments_import_loads_numpy_random():
    """Importing the runners loads ``numpy.random`` (about 15 ms in a fresh
    interpreter), so that the immunity runner's first ``default_rng`` does
    not pay for it in the middle of a run."""
    script = "import sys\nimport fockbox.experiments\nprint('numpy.random' in sys.modules)\n"
    assert _fresh_python(script) == "True"


def _fresh_python(script, *args):
    """Last line that ``script`` prints in a fresh interpreter that imports
    this fockbox."""
    src = str(Path(fockbox.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", script, *args], env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    return out.stdout.splitlines()[-1]
