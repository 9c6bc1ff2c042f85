"""Symbolic algebra of fermionic ladder operators with exact sign tracking.

An :class:`OperatorExpr` is a complex-weighted sum of ordered products of
creation/annihilation operators over :class:`~fockbox.modes.Mode` labels.
All rewriting uses the box-discretized canonical anticommutators

    {a_m, a_n+} = delta_mn,    {a_m, a_n} = {a_m+, a_n+} = 0,

where a stands for either the electron operators b or the positron
operators d and delta is a Kronecker delta on the full mode label.

Two distinct reorderings are provided:

* :func:`wick_reorder` is equivalence-preserving: it moves every creator to
  the left of every annihilator, inserting a sign per transposition and
  keeping the Kronecker-delta (contraction) terms, so the result represents
  the same operator.
* :func:`normal_order_prescription` is the normal-ordering map :X: -- same
  sign bookkeeping, but all contraction terms are dropped.  The result is a
  different operator from X in general.

Everything here is immutable and pure; instances can be shared freely
between threads.
"""

from __future__ import annotations

from dataclasses import dataclass

from .modes import Mode

_MERGE_DROP_TOL = 0.0  # merged coefficients are dropped only if exactly zero


@dataclass(frozen=True, slots=True)
class Ladder:
    """A single creation (create=True) or annihilation operator."""

    mode: Mode
    create: bool

    @property
    def sort_key(self):
        return self.mode.sort_key

    def dagger(self) -> "Ladder":
        return Ladder(self.mode, not self.create)

    def __repr__(self):
        return f"{self.mode!r}{'+' if self.create else '-'}"


@dataclass(frozen=True, slots=True)
class Term:
    """coeff * (ordered product of ladder operators).

    The factor list is stored exactly as given; no reordering happens at
    construction.  ``degree`` is the number of ladder factors.
    """

    coeff: complex
    factors: tuple[Ladder, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeff", complex(self.coeff))
        object.__setattr__(self, "factors", tuple(self.factors))

    @property
    def degree(self) -> int:
        return len(self.factors)

    def scaled(self, z: complex) -> "Term":
        return Term(self.coeff * z, self.factors)


def _term_is_null(factors: tuple[Ladder, ...]) -> bool:
    """Detect products that vanish by fermionic nilpotency.

    A term is zero when two identical ladder factors can be anticommuted
    adjacent without crossing any factor of the same mode (crossing a
    different mode only flips the sign; crossing the conjugate operator of
    the same mode would generate a delta and blocks the argument).
    """
    k = len(factors)
    for i in range(k):
        for j in range(i + 1, k):
            if factors[i] == factors[j]:
                between = factors[i + 1 : j]
                if all(f.mode != factors[i].mode for f in between):
                    return True
    return False


def _merge(terms) -> tuple[Term, ...]:
    """Combine like factor lists, drop nulls and zero coefficients."""
    acc: dict[tuple[Ladder, ...], complex] = {}
    for t in terms:
        if t.coeff == 0 or _term_is_null(t.factors):
            continue
        acc[t.factors] = acc.get(t.factors, 0.0) + t.coeff
    merged = [Term(c, f) for f, c in acc.items() if abs(c) > _MERGE_DROP_TOL]
    merged.sort(key=_term_order_key)
    return tuple(merged)


def _term_order_key(t: Term):
    return (t.degree, tuple((f.sort_key, not f.create) for f in t.factors))


class OperatorExpr:
    """Sum of :class:`Term`; always kept merged (no duplicate factor lists,
    no zero coefficients).  Supports +, -, * (scalar or expr) and adjoint.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        object.__setattr__(self, "terms", _merge(terms))

    def __setattr__(self, *a):
        raise AttributeError("OperatorExpr is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "OperatorExpr":
        return cls(())

    @classmethod
    def single(cls, ladder: Ladder, coeff: complex = 1.0) -> "OperatorExpr":
        return cls((Term(coeff, (ladder,)),))

    @classmethod
    def from_factors(cls, factors, coeff: complex = 1.0) -> "OperatorExpr":
        return cls((Term(coeff, tuple(factors)),))

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "OperatorExpr") -> "OperatorExpr":
        if not isinstance(other, OperatorExpr):
            return NotImplemented
        return OperatorExpr(self.terms + other.terms)

    def __sub__(self, other: "OperatorExpr") -> "OperatorExpr":
        return self + (other * -1.0)

    def __mul__(self, other):
        if isinstance(other, OperatorExpr):
            return multiply(self, other)
        return OperatorExpr(tuple(t.scaled(other) for t in self.terms))

    def __rmul__(self, z) -> "OperatorExpr":
        return self * z

    def __neg__(self) -> "OperatorExpr":
        return self * -1.0

    def adjoint(self) -> "OperatorExpr":
        return adjoint(self)

    # -- inspection ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def max_degree(self) -> int:
        return max((t.degree for t in self.terms), default=0)

    def max_abs_coeff(self) -> float:
        return max((abs(t.coeff) for t in self.terms), default=0.0)

    def prune(self, tol: float) -> "OperatorExpr":
        """Drop terms with |coeff| <= tol (useful after float cancellations)."""
        return OperatorExpr(tuple(t for t in self.terms if abs(t.coeff) > tol))

    def __len__(self):
        return len(self.terms)

    def __eq__(self, other):
        return isinstance(other, OperatorExpr) and self.terms == other.terms

    def __hash__(self):
        return hash(self.terms)

    def __repr__(self):
        if not self.terms:
            return "OperatorExpr(0)"
        return f"OperatorExpr({len(self.terms)} terms, max degree {self.max_degree()})"


def multiply(a: OperatorExpr, b: OperatorExpr) -> OperatorExpr:
    """Operator product: coefficients multiply, factor lists concatenate."""
    out = []
    for ta in a.terms:
        for tb in b.terms:
            out.append(Term(ta.coeff * tb.coeff, ta.factors + tb.factors))
    return OperatorExpr(out)


def adjoint(a: OperatorExpr) -> OperatorExpr:
    """Hermitian adjoint: conjugate coefficients, reverse and dagger factors."""
    return OperatorExpr(
        tuple(
            Term(t.coeff.conjugate(), tuple(f.dagger() for f in reversed(t.factors)))
            for t in a.terms
        )
    )


def is_normal_ordered(factors: tuple[Ladder, ...]) -> bool:
    """True when no annihilator appears to the left of a creator."""
    seen_annihilator = False
    for f in factors:
        if f.create and seen_annihilator:
            return False
        if not f.create:
            seen_annihilator = True
    return True


def wick_reorder(a: OperatorExpr) -> OperatorExpr:
    """Equivalence-preserving normal ordering.

    Repeatedly rewrites  a_m a_n+  ->  delta_mn - a_n+ a_m  on the leftmost
    offending adjacent pair, so every output term is normal ordered and the
    sum represents exactly the same operator as the input.
    """
    done: list[Term] = []
    stack = list(a.terms)
    while stack:
        t = stack.pop()
        fs = t.factors
        for i in range(len(fs) - 1):
            if (not fs[i].create) and fs[i + 1].create:
                swapped = fs[:i] + (fs[i + 1], fs[i]) + fs[i + 2 :]
                stack.append(Term(-t.coeff, swapped))
                if fs[i].mode == fs[i + 1].mode:
                    stack.append(Term(t.coeff, fs[:i] + fs[i + 2 :]))
                break
        else:
            done.append(t)
    return canonicalize(OperatorExpr(done))


def normal_order_prescription(a: OperatorExpr) -> OperatorExpr:
    """The normal-ordering map :X:.

    Creators are moved left of annihilators with a sign per creator/
    annihilator transposition; contraction (delta) terms are discarded.
    Relative order within the creators and within the annihilators is
    preserved, so the map is idempotent.
    """
    out = []
    for t in a.terms:
        creators = []
        annihilators = []
        swaps = 0
        for f in t.factors:
            if f.create:
                # this creator hops over every annihilator already to its left
                swaps += len(annihilators)
                creators.append(f)
            else:
                annihilators.append(f)
        sign = -1.0 if swaps % 2 else 1.0
        out.append(Term(sign * t.coeff, tuple(creators + annihilators)))
    return canonicalize(OperatorExpr(out))


def _sort_block(block: list[Ladder], descending: bool) -> tuple[int, list[Ladder]]:
    """Insertion-sort a same-kind block, counting transpositions.

    Returns (number of transpositions, sorted block).  Duplicate modes in a
    same-kind block make the term vanish; callers detect that via
    _term_is_null before or after.
    """
    blk = list(block)
    swaps = 0
    for i in range(1, len(blk)):
        j = i
        while j > 0 and (
            (blk[j - 1].sort_key > blk[j].sort_key)
            if not descending
            else (blk[j - 1].sort_key < blk[j].sort_key)
        ):
            blk[j - 1], blk[j] = blk[j], blk[j - 1]
            swaps += 1
            j -= 1
    return swaps, blk


def canonicalize(a: OperatorExpr) -> OperatorExpr:
    """Canonical form: in each fully normal-ordered term, creators sorted
    ascending and annihilators sorted descending by mode order, with a
    fermionic sign per transposition.  Mixed-order terms keep their factor
    order.  Like terms merge; zero and nilpotent terms drop.
    """
    out = []
    for t in a.terms:
        if not is_normal_ordered(t.factors):
            out.append(t)
            continue
        split = next((i for i, f in enumerate(t.factors) if not f.create), len(t.factors))
        s1, creators = _sort_block(list(t.factors[:split]), descending=False)
        s2, annihilators = _sort_block(list(t.factors[split:]), descending=True)
        sign = -1.0 if (s1 + s2) % 2 else 1.0
        out.append(Term(sign * t.coeff, tuple(creators + annihilators)))
    return OperatorExpr(out)


def vacuum_expectation(a: OperatorExpr) -> complex:
    """<vac| a |vac>: the identity-term coefficient after Wick reordering."""
    reordered = wick_reorder(a)
    return sum((t.coeff for t in reordered.terms if t.degree == 0), 0.0 + 0.0j)
