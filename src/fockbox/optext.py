"""Textual syntax for operator expressions.

Grammar (whitespace separates product factors):

    expr    :=  term ( '+' term )*
    term    :=  coeff [ '·' factors ]  |  factors          (coeff 1 implied)
    coeff   :=  '(' float ('+'|'-') float 'i' ')'
    factors :=  ladder ( ' ' ladder )*
    ladder  :=  ('b'|'d') ('+'|'-') '(' s ',' n1 [',' n2 ',' n3] ')'

'b' is an electron operator, 'd' a positron operator; '+' creates,
'-' annihilates; s is the spin index (1 or 2) and n* the integer momentum
components (no spaces inside the argument list).  '*' is accepted as an
ASCII alias for '·'.  A term with no ladder factors is written as its
coefficient alone.  The '+' between terms is flanked by whitespace, which
keeps it distinct from the creation marker.

print_expr emits the canonical form (repr floats, '·', terms in canonical
order), so parse(print(x)) == x and print(parse(s)) == s for canonical s.
"""

from __future__ import annotations

import re

from .algebra import Ladder, OperatorExpr, Term, canonicalize
from .modes import Mode, Species

_LADDER_RE = re.compile(r"([bd])([+-])\(\s*([0-9]+)\s*((?:,\s*-?[0-9]+\s*)+)\)")
_FLOAT = r"(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
_COEFF_RE = re.compile(rf"\(\s*([+-]?{_FLOAT})\s*([+-])\s*({_FLOAT})\s*i\s*\)")


class OperatorSyntaxError(ValueError):
    pass


def format_coeff(z: complex) -> str:
    re_part = repr(float(z.real))
    im_part = repr(abs(float(z.imag)))
    sign = "-" if z.imag < 0 else "+"
    return f"({re_part}{sign}{im_part}i)"


def format_ladder(l: Ladder) -> str:
    sym = "b" if l.mode.species is Species.ELECTRON else "d"
    kind = "+" if l.create else "-"
    args = ",".join(str(c) for c in (l.mode.spin, *l.mode.momentum))
    return f"{sym}{kind}({args})"


def print_expr(a: OperatorExpr) -> str:
    """Canonical, losslessly re-parseable rendering of an expression."""
    a = canonicalize(a)
    if a.is_zero():
        return format_coeff(0.0)
    parts = []
    for t in a.terms:
        if t.factors:
            parts.append(format_coeff(t.coeff) + "·" + " ".join(map(format_ladder, t.factors)))
        else:
            parts.append(format_coeff(t.coeff))
    return " + ".join(parts)


def _parse_ladder(tok: str, pos: int) -> Ladder:
    m = _LADDER_RE.fullmatch(tok)
    if m is None:
        raise OperatorSyntaxError(f"bad ladder operator {tok!r} at term {pos}")
    sym, kind, spin, rest = m.groups()
    momentum = tuple(int(x) for x in rest.replace(" ", "").lstrip(",").split(","))
    species = Species.ELECTRON if sym == "b" else Species.POSITRON
    return Ladder(Mode(species, int(spin), momentum), kind == "+")


def parse_expr(text: str, dimension: int | None = None) -> OperatorExpr:
    """Parse the textual syntax back into an OperatorExpr.

    ``dimension``, when given, is enforced against every momentum arity;
    otherwise the arity just has to be consistent across the expression.
    """
    text = text.strip().replace("*", "·")
    if not text:
        raise OperatorSyntaxError("empty expression")
    terms = []
    dim = dimension
    # split on '+' separating terms, but not the '+' inside '(..)' or 'b+'
    for chunk in _split_terms(text):
        chunk = chunk.strip()
        if not chunk:
            raise OperatorSyntaxError("empty term")
        cm = _COEFF_RE.match(chunk)
        if cm is not None and chunk.startswith("("):
            re_p = float(cm.group(1))
            im_p = float(cm.group(3)) * (-1.0 if cm.group(2) == "-" else 1.0)
            coeff = complex(re_p, im_p)
            rest = chunk[cm.end() :].lstrip()
            if rest.startswith("·"):
                rest = rest[1:].lstrip()
            elif rest:
                raise OperatorSyntaxError(f"expected '·' after coefficient in {chunk!r}")
        else:
            coeff = 1.0 + 0.0j
            rest = chunk
        factors = []
        for tok in rest.split():
            lad = _parse_ladder(tok, len(terms))
            if dim is None:
                dim = len(lad.mode.momentum)
            elif len(lad.mode.momentum) != dim:
                raise OperatorSyntaxError(
                    f"momentum arity {len(lad.mode.momentum)} != expected {dim}"
                )
            factors.append(lad)
        terms.append(Term(coeff, tuple(factors)))
    return OperatorExpr(terms)


def _split_terms(text: str):
    """Split a sum on top-level '+' (those flanked by whitespace)."""
    depth = 0
    start = 0
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif (
            ch == "+"
            and depth == 0
            and i > 0
            and text[i - 1].isspace()
            and i + 1 < len(text)
            and text[i + 1].isspace()
        ):
            yield text[start:i]
            start = i + 1
        i += 1
    yield text[start:]
