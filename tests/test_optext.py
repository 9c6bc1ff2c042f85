"""Textual operator syntax: lossless round trips."""

import pytest

from conftest import random_expr

from fockbox.algebra import Ladder, OperatorExpr, Term, canonicalize
from fockbox.modes import Mode, ModeSet, Species
from fockbox.optext import OperatorSyntaxError, parse_expr, print_expr


def test_parse_single_ladder():
    e = parse_expr("b+(1,0,0,0)")
    assert e.terms == (Term(1.0, (Ladder(Mode(Species.ELECTRON, 1, (0, 0, 0)), True),)),)


def test_parse_product_and_sum():
    e = parse_expr("(2.0+0.0i)·b+(1,1) b-(2,0) + (0.0-1.0i)·d+(1,0)")
    assert len(e) == 2
    coeffs = [t.coeff for t in e.terms]
    assert -1j in coeffs and 2.0 in coeffs


def test_ascii_star_alias():
    assert parse_expr("(2.0+0.0i)*b+(1,0)") == parse_expr("(2.0+0.0i)·b+(1,0)")


def test_negative_momentum_components():
    e = parse_expr("d-(2,-1,0,1)")
    (term,) = e.terms
    assert term.factors[0].mode == Mode(Species.POSITRON, 2, (-1, 0, 1))
    assert term.factors[0].create is False


def test_constant_term():
    e = parse_expr("(0.5+0.25i)")
    assert e.terms == (Term(0.5 + 0.25j, ()),)


def test_round_trip_random(rng):
    modeset = ModeSet.build(3, 1)
    for _ in range(30):
        a = canonicalize(random_expr(rng, modeset, n_terms=4, max_factors=3))
        text = print_expr(a)
        assert parse_expr(text) == a
        assert print_expr(parse_expr(text)) == text


def test_round_trip_1d(rng):
    modeset = ModeSet.build(1, 1)
    for _ in range(10):
        a = canonicalize(random_expr(rng, modeset, n_terms=3))
        assert parse_expr(print_expr(a)) == a


@pytest.mark.parametrize("z", [
    complex(1 / 3, -2 / 7),
    complex(1e-05, 0.0),
    complex(-3.25e17, 4.5e-12),
    complex(0.0, -1e-300),
])
def test_lossless_float_coefficients(z):
    e = OperatorExpr((Term(z, (Ladder(Mode(Species.ELECTRON, 1, (0,)), True),)),))
    assert parse_expr(print_expr(e)) == e


def test_arity_mismatch_rejected():
    with pytest.raises(OperatorSyntaxError):
        parse_expr("b+(1,0,0,0) b-(1,0)")


def test_dimension_enforced():
    with pytest.raises(OperatorSyntaxError):
        parse_expr("b+(1,0)", dimension=3)


def test_garbage_rejected():
    with pytest.raises(OperatorSyntaxError):
        parse_expr("c+(1,0)")
    with pytest.raises(OperatorSyntaxError):
        parse_expr("")


@pytest.mark.parametrize("text, message", [
    ("b+(1,0) +  + b-(1,0)", "empty term"),
    ("(1.0+0.0i) b+(1,0)", "expected '·' after coefficient in '\\(1.0\\+0.0i\\) b\\+\\(1,0\\)'"),
], ids=["empty-term", "no-separator"])
def test_syntax_error_names_the_cause(text, message):
    with pytest.raises(OperatorSyntaxError, match=message):
        parse_expr(text)


def test_zero_prints_parseable():
    assert parse_expr(print_expr(OperatorExpr.zero())).is_zero()
