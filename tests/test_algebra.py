"""Operator algebra: products, adjoints, Wick reordering, normal ordering,
canonical forms."""

import numpy as np
import pytest

from conftest import jw_expr_matrix, random_expr

from fockbox.algebra import (
    Ladder,
    OperatorExpr,
    Term,
    adjoint,
    canonicalize,
    is_normal_ordered,
    multiply,
    normal_order_prescription,
    vacuum_expectation,
    wick_reorder,
)
from fockbox.modes import Mode, Species

E, P = Species.ELECTRON, Species.POSITRON
M0 = Mode(E, 1, (0,))
M1 = Mode(E, 2, (0,))
M2 = Mode(E, 1, (1,))
D0 = Mode(P, 1, (0,))


def bp(m):
    return OperatorExpr.single(Ladder(m, True))


def bm(m):
    return OperatorExpr.single(Ladder(m, False))


class TestMultiply:
    def test_creator_times_annihilator(self):
        out = multiply(bp(M0), bm(M0))
        assert out.terms == (Term(1.0, (Ladder(M0, True), Ladder(M0, False))),)

    def test_nilpotency(self):
        assert multiply(bm(M0), bm(M0)).is_zero()
        assert multiply(bp(M0), bp(M0)).is_zero()

    def test_coefficients_multiply(self):
        out = multiply(2.0 * bp(M0), 3.0 * OperatorExpr.single(Ladder(D0, True)))
        assert len(out) == 1
        assert out.terms[0].coeff == 6.0
        assert out.terms[0].factors == (Ladder(M0, True), Ladder(D0, True))

    def test_expressions_are_immutable(self):
        with pytest.raises(AttributeError, match="OperatorExpr is immutable"):
            bp(M0).terms = ()

    def test_distributes_over_sums(self, rng, modes8):
        a = random_expr(rng, modes8)
        b = random_expr(rng, modes8)
        c = random_expr(rng, modes8)
        left = multiply(a, b + c)
        right = multiply(a, b) + multiply(a, c)
        assert canonicalize(wick_reorder(left - right)).prune(1e-12).is_zero()


class TestValueProtocol:
    def test_repr(self):
        assert repr(Ladder(M0, True)) == "Mode(e,s=1,n=(0,))+"
        assert repr(Ladder(D0, False)) == "Mode(p,s=1,n=(0,))-"
        assert repr(OperatorExpr.zero()) == "OperatorExpr(0)"
        assert repr(bp(M2) + multiply(bp(M1), bm(M0))) == "OperatorExpr(2 terms, max degree 2)"

    def test_negation(self):
        a = bp(M2) + 2.0 * multiply(bp(M1), bm(M0))
        assert (-a).terms == tuple(Term(-t.coeff, t.factors) for t in a.terms)
        assert (a + -a).is_zero()

    def test_equal_expressions_hash_equal(self):
        a, b = multiply(bp(M0), bm(M1)), multiply(bp(M0), bm(M1))
        assert a is not b and a == b and hash(a) == hash(b)
        assert len({a, b, bp(M0)}) == 2

    def test_add_non_expression_is_a_type_error(self):
        with pytest.raises(TypeError):
            bp(M0) + 1


class TestAdjoint:
    def test_dagger_flips(self):
        assert adjoint(bp(M0)) == bm(M0)

    def test_conjugates_and_reverses(self):
        expr = 1j * multiply(bp(M0), bm(M1))
        out = adjoint(expr)
        assert out.terms == (
            Term(-1j, (Ladder(M1, True), Ladder(M0, False))),
        )

    def test_involution(self, rng, modes8):
        for _ in range(20):
            a = random_expr(rng, modes8)
            assert adjoint(adjoint(a)) == a


class TestWickReorder:
    def test_distinct_modes_anticommute(self):
        out = wick_reorder(multiply(bm(M0), bp(M1)))
        assert out.terms == (Term(-1.0, (Ladder(M1, True), Ladder(M0, False))),)

    def test_same_mode_generates_delta(self):
        out = wick_reorder(multiply(bm(M0), bp(M0)))
        assert out.terms == (
            Term(1.0, ()),
            Term(-1.0, (Ladder(M0, True), Ladder(M0, False))),
        )

    def test_output_normal_ordered(self, rng, modes8):
        for _ in range(20):
            out = wick_reorder(random_expr(rng, modes8, n_terms=2))
            assert all(is_normal_ordered(t.factors) for t in out.terms)

    def test_matrix_equivalence_oracle(self, rng, modes8):
        # the reordered expression is the same operator, verified through
        # the independent Jordan-Wigner matrix construction
        for _ in range(25):
            a = random_expr(rng, modes8, n_terms=2, max_factors=4)
            ma = jw_expr_matrix(a, modes8)
            mw = jw_expr_matrix(wick_reorder(a), modes8)
            assert np.abs(ma - mw).max() <= 1e-12

    def test_commutes_with_adjoint(self, rng, modes8):
        for _ in range(10):
            a = random_expr(rng, modes8, n_terms=2)
            lhs = canonicalize(wick_reorder(adjoint(a)))
            rhs = canonicalize(adjoint(wick_reorder(a)))
            assert canonicalize(lhs - rhs).prune(1e-12).is_zero()


class TestNormalOrderPrescription:
    def test_drops_contraction(self):
        out = normal_order_prescription(multiply(bm(M0), bp(M0)))
        assert out.terms == (Term(-1.0, (Ladder(M0, True), Ladder(M0, False))),)

    def test_already_ordered_fixed(self):
        expr = multiply(bp(M0), bm(M0))
        assert normal_order_prescription(expr) == expr

    def test_idempotent(self, rng, modes8):
        for _ in range(20):
            once = normal_order_prescription(random_expr(rng, modes8))
            assert normal_order_prescription(once) == once

    def test_degree_preserved(self, rng, modes8):
        for _ in range(20):
            a = random_expr(rng, modes8, n_terms=1)
            out = normal_order_prescription(a)
            degrees_in = {t.degree for t in a.terms}
            assert {t.degree for t in out.terms} <= degrees_in

    def test_contraction_remainder_lower_degree(self, rng, modes8):
        # X - :X: is an operator of strictly lower degree, both symbolically
        # and as matrices
        for n_factors in (2, 4):
            for _ in range(10):
                idx = rng.integers(0, len(modes8), n_factors)
                kinds = rng.integers(0, 2, n_factors)
                factors = tuple(
                    Ladder(modes8[int(i)], bool(k)) for i, k in zip(idx, kinds)
                )
                a = OperatorExpr.from_factors(factors)
                if a.is_zero():
                    continue
                remainder = wick_reorder(a) - normal_order_prescription(a)
                remainder = remainder.prune(1e-14)
                assert remainder.max_degree() < n_factors
                diff = jw_expr_matrix(a, modes8) - jw_expr_matrix(
                    normal_order_prescription(a), modes8
                )
                rem_matrix = jw_expr_matrix(remainder, modes8)
                assert np.abs(diff - rem_matrix).max() <= 1e-12

    def test_vacuum_expectation_vanishes(self, rng, modes8):
        # <vac| :A: |vac> = 0 when every term keeps at least one factor
        for _ in range(20):
            a = random_expr(rng, modes8, n_terms=3, max_factors=4)
            a = OperatorExpr(tuple(t for t in a.terms if t.degree > 0))
            na = normal_order_prescription(a)
            assert abs(vacuum_expectation(na)) <= 1e-12


class TestCanonicalize:
    def test_sorts_creators_with_sign(self):
        expr = OperatorExpr.from_factors([Ladder(M1, True), Ladder(M0, True)])
        out = canonicalize(expr)
        assert out.terms == (Term(-1.0, (Ladder(M0, True), Ladder(M1, True))),)

    def test_merges_like_terms(self):
        t = (Ladder(M0, True), Ladder(M1, False))
        out = canonicalize(OperatorExpr((Term(1.0, t), Term(1.0, t))))
        assert out.terms == (Term(2.0, t),)

    def test_duplicate_creator_vanishes(self):
        out = canonicalize(
            OperatorExpr.from_factors(
                [Ladder(M0, True), Ladder(M0, True), Ladder(M1, False)]
            )
        )
        assert out.is_zero()

    def test_annihilators_sorted_descending(self):
        expr = OperatorExpr.from_factors([Ladder(M0, False), Ladder(M1, False)])
        out = canonicalize(expr)
        assert out.terms == (Term(-1.0, (Ladder(M1, False), Ladder(M0, False))),)

    def test_transposition_order_independence(self, rng, modes8):
        # shuffling a normal-ordered term with tracked parity always lands
        # on the same canonical form
        for _ in range(20):
            k = int(rng.integers(2, 5))
            idx = rng.choice(len(modes8), size=k, replace=False)
            creators = [Ladder(modes8[int(i)], True) for i in idx]
            base = canonicalize(OperatorExpr.from_factors(creators))
            perm = rng.permutation(k)
            sign = _permutation_sign(perm)
            shuffled = OperatorExpr.from_factors(
                [creators[int(p)] for p in perm], coeff=sign
            )
            assert canonicalize(shuffled) == base

    def test_mixed_order_terms_left_factor_stable(self):
        factors = (Ladder(M0, False), Ladder(M1, True))  # not normal ordered
        out = canonicalize(OperatorExpr.from_factors(factors))
        assert out.terms[0].factors == factors


def _permutation_sign(perm):
    sign = 1.0
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j, length = i, 0
        while not seen[j]:
            seen[j] = True
            j = int(perm[j])
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


class TestNilpotencyEdgeCases:
    def test_sandwiched_conjugate_survives(self):
        # b b+ b  =  b  (not zero: the conjugate operator blocks nilpotency)
        expr = OperatorExpr.from_factors(
            [Ladder(M0, False), Ladder(M0, True), Ladder(M0, False)]
        )
        assert not expr.is_zero()
        out = wick_reorder(expr)
        assert out.terms == (Term(1.0, (Ladder(M0, False),)),)

    def test_separated_identical_factors_vanish(self):
        expr = OperatorExpr.from_factors(
            [Ladder(M0, False), Ladder(M2, False), Ladder(M0, False)]
        )
        assert expr.is_zero()
