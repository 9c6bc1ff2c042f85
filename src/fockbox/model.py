"""Hamiltonian variants of the Dirac field with Coulomb interactions on a
periodic momentum lattice.

All operators are built from the box-discretized plane-wave expansion

    psi(x) = (1/sqrt(V)) sum_{s,n} (2 E_n)^(-1/2)
             [ b_{s,n} u^s(p_n) e^{i p_n.x/hbar} + d+_{s,n} v^s(p_n) e^{-i p_n.x/hbar} ]

with p_n = (2 pi hbar / L) n and box-normalized ladder operators obeying
Kronecker anticommutators.  The Coulomb quartic

    (e^2/2) integral  psi+ psi(x) psi+ psi(y) / |x-y|

is expanded into mode sums; momentum conservation and the kernel Fourier
coefficients come out of the double position integral.  The kernel carries
no charge; e^2 enters once, in the e^2/2V of every mode sum, so H_C is
proportional to e^2.  Three orderings of the same quartic are exposed:

* :func:`coulomb_full` applies the normal-ordering prescription to the
  whole quartic (all creators left, sign per swap, contractions dropped).
  Its one-electron block vanishes identically.
* :func:`coulomb_partial` normal-orders each charge-density factor
  separately and keeps the as-written order across the two densities; this
  operator acts on single-electron states.
* :func:`bad_electron_term` is the electron-only part of the partial
  ordering (creation and annihilation alternating), the operator version of
  the classical self-repulsion energy.

:func:`coulomb_pieces` builds the electron-electron, electron-positron and
positron-positron number-conserving pieces directly from their explicit
normal-ordered mode sums, as an independent cross-check decomposition of
:func:`coulomb_full`.

These builders return symbolic :class:`~fockbox.algebra.OperatorExpr` sums
and serve as the specification.  The experiments run their ``*_packed``
twins, :class:`~fockbox.fock.PackedOperator` arrays that are each one choice
of species and ordering of a single vectorized walk of the quartic
(:func:`_quartic_packed`).  Each has the terms of ``pack`` of its symbolic
twin in the same order, with coefficients equal to rounding.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import asdict, dataclass, fields
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .algebra import (
    Ladder,
    OperatorExpr,
    Term,
    canonicalize,
    normal_order_prescription,
)
from .assembly import lookup
from .coulomb import CoulombKernel
from .fock import PackedOperator
from .modes import Mode, ModeSet, Species, momentum_lattice
from .spinors import SpinorTable

CONFIG_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class ModelConfig:
    """Physical and numerical parameters (Gaussian cgs conventions).

    The defaults are the desk-scale dimensionless setup hbar = c = m = 1,
    L = 2 pi, e^2 = 1: momenta sit at integer wavevectors and the rest
    energy is 1.  ``momentum_ball`` trims the cutoff cube to |n|^2 <=
    n_max^2 (origin plus face neighbours at n_max = 1), keeping the default
    3D mode count at 28.
    """

    dimension: int = 3
    box_l: float = 2.0 * math.pi
    n_max: int = 1
    momentum_ball: bool = True
    mass: float = 1.0
    charge: float = 1.0
    hbar: float = 1.0
    c: float = 1.0
    q0_value: float = 0.0
    soften_a: float | None = None
    sector_n_max: int = 2
    grid_points: int = 32

    def __post_init__(self):
        # contexts and builders are cached by config: 3.0 would share an entry
        # with 3, and a nan field would make equal configs compare unequal
        for name in ("dimension", "n_max", "sector_n_max", "grid_points"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        reals = ["box_l", "mass", "charge", "hbar", "c", "q0_value"]
        if self.soften_a is not None:
            reals.append("soften_a")
        for name in reals:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(f"{name} must be a real number, got {value!r}")
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.dimension not in (1, 3):
            raise ValueError("dimension must be 1 or 3")
        for name in ("box_l", "mass", "hbar", "c"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        # charge 0 is allowed: the free-theory limit is exercised in tests
        if self.charge < 0:
            raise ValueError("charge must be >= 0")
        if self.n_max < 0:
            raise ValueError("n_max must be >= 0")
        if self.sector_n_max < 0:
            raise ValueError("sector_n_max must be >= 0")
        if self.soften_a is not None and self.soften_a <= 0:
            raise ValueError("soften_a must be positive")
        if self.soften_a is not None and self.dimension == 3:  # it would change the hash alone
            raise ValueError("soften_a must be None in 3D; it softens the 1D kernel only")
        if self.grid_points < 2 or self.grid_points & (self.grid_points - 1):
            raise ValueError("grid_points must be a power of two >= 2")

    @property
    def e2(self) -> float:
        return self.charge * self.charge

    @property
    def volume(self) -> float:
        return self.box_l**self.dimension

    def to_dict(self) -> dict:
        d = asdict(self)
        d["schema_version"] = CONFIG_SCHEMA_VERSION
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        if not isinstance(d, dict):
            raise ValueError(f"a config must be a JSON object, got {type(d).__name__}")
        d = dict(d)
        version = d.pop("schema_version", CONFIG_SCHEMA_VERSION)
        if version != CONFIG_SCHEMA_VERSION or type(version) is not int:  # not True, not 1.0
            raise ValueError(f"unsupported config schema version {version}")
        names = {f.name for f in fields(cls)}
        unknown = [key for key in d if key not in names]
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(map(str, unknown))}")
        return cls(**d)

    @classmethod
    def from_file(cls, path) -> "ModelConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def config_hash(self) -> str:
        payload = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(payload).hexdigest()[:16]


# -- mode bookkeeping --------------------------------------------------


@lru_cache(maxsize=32)
def modes_for(cfg: ModelConfig) -> ModeSet:
    return ModeSet.build(cfg.dimension, cfg.n_max, cfg.momentum_ball)


@lru_cache(maxsize=32)
def build_spinors(cfg: ModelConfig) -> SpinorTable:
    lattice = momentum_lattice(cfg.dimension, cfg.n_max, cfg.momentum_ball)
    return SpinorTable(cfg.mass, cfg.c, cfg.hbar, cfg.box_l, lattice)


def coulomb_kernel(cfg: ModelConfig) -> CoulombKernel:
    """The charge-free kernel of ``cfg``, with V(0) = ``q0_value``."""
    return CoulombKernel(cfg.dimension, cfg.box_l, cfg.q0_value, cfg.soften_a)


def dispersion(cfg: ModelConfig, n) -> float:
    """Single-mode energy E(p_n) = sqrt(m^2 c^4 + |p_n|^2 c^2)."""
    n = tuple(int(c) for c in np.atleast_1d(n))
    if any(abs(c) > cfg.n_max for c in n):
        raise ValueError(f"momentum {n} outside cutoff n_max={cfg.n_max}")
    dp = 2.0 * math.pi * cfg.hbar / cfg.box_l
    p2 = dp * dp * sum(c * c for c in n)
    return math.sqrt((cfg.mass * cfg.c**2) ** 2 + p2 * cfg.c**2)


# -- Hamiltonian builders ----------------------------------------------


@lru_cache(maxsize=8)
def free_hamiltonian(cfg: ModelConfig) -> OperatorExpr:
    """Normal-ordered free Dirac Hamiltonian: sum_s,n E_n (b+b + d+d)."""
    table = build_spinors(cfg)
    terms = []
    for n in table.lattice():
        e_n = table.e[n]
        for s in (1, 2):
            for species in (Species.ELECTRON, Species.POSITRON):
                mode = Mode(species, s, n)
                terms.append(Term(e_n, (Ladder(mode, True), Ladder(mode, False))))
    return OperatorExpr(terms)


class _Slot(NamedTuple):
    create: bool  # ladder kind
    species: Species
    spinor: str  # "u" or "v"
    sigma: int  # sign of p in the position-space phase


# psi+(x) contributes b+ (u*, e^{-ipx}) or d (v*, e^{+ipx});
# psi(x) contributes b (u, e^{+ipx}) or d+ (v, e^{-ipx}).
_DAGGER_SLOTS = {
    Species.ELECTRON: _Slot(True, Species.ELECTRON, "u", -1),
    Species.POSITRON: _Slot(False, Species.POSITRON, "v", +1),
}
_PLAIN_SLOTS = {
    Species.ELECTRON: _Slot(False, Species.ELECTRON, "u", +1),
    Species.POSITRON: _Slot(True, Species.POSITRON, "v", -1),
}


class _QuarticContext:
    """Tables shared by the Coulomb quartic builders of one config.

    :func:`_quartic_context` keeps one context per config for the whole
    process, and every builder, symbolic or packed, takes it from there.  So
    the spinor bilinears and the momentum-conserving lattice triples
    (:attr:`_walk`) are computed once and kept read-only, as every builder
    shares them.  The walk emits its quadruples in no set order:
    :func:`_quartic_packed` adds like terms in runs of canonical rows, in
    raw-key order within a run.
    """

    def __init__(self, cfg: ModelConfig):
        self.cfg = cfg
        self.table = build_spinors(cfg)
        self.kernel = coulomb_kernel(cfg)
        self.lattice = list(self.table.lattice())
        self.lattice_set = set(self.lattice)
        # label j: spin j // L + 1 and lattice point j % L (L lattice points),
        # so species k (electron 0, positron 1) with label j is mode k*2L + j
        self.labels = [(s, n) for s in (1, 2) for n in self.lattice]
        self._label_index = {label: j for j, label in enumerate(self.labels)}
        self.momentum = np.array(self.lattice, dtype=np.int64).reshape(-1, cfg.dimension)
        self._vq: dict = {}
        self._bil_tables: dict = {}

    def kernel_value(self, q: tuple) -> float:
        """V(q), memoized: the mode sums revisit the same few transfers."""
        hit = self._vq.get(q)
        if hit is None:
            hit = self._vq[q] = self.kernel.value(q)
        return hit

    def bilinear(self, kind1, s1, n1, kind2, s2, n2) -> complex:
        """conj(w1) . w2 / sqrt(2E1 * 2E2) with w in {u, v}."""
        table = self.bilinear_table(kind1, kind2)
        return complex(table[self._label_index[(s1, n1)], self._label_index[(s2, n2)]])

    # -- array views for the packed builders --------------------------

    def bilinear_table(self, kind1: str, kind2: str) -> np.ndarray:
        """:meth:`bilinear` over all label pairs, indexed by label number;
        read-only, built on first use.

        The dot products run in real arithmetic with separate multiplies and
        adds: a fused multiply-add (as in ``np.vdot``) leaves 2e-17 where
        u+(p) v(-p) cancels to exactly 0.
        """
        table = self._bil_tables.get((kind1, kind2))
        if table is None:
            t = self.table
            a = np.array([(t.u if kind1 == "u" else t.v)[label] for label in self.labels])[:, None]
            b = np.array([(t.u if kind2 == "u" else t.v)[label] for label in self.labels])[None]
            e = np.array([t.e[n] for _, n in self.labels])
            table = np.empty((len(self.labels),) * 2, dtype=np.complex128)
            table.real = (a.real * b.real + a.imag * b.imag).sum(axis=-1)
            table.imag = (a.real * b.imag - a.imag * b.real).sum(axis=-1)
            table /= np.sqrt(4.0 * e[:, None] * e[None, :])
            table.flags.writeable = False
            self._bil_tables[(kind1, kind2)] = table
        return table

    @cached_property
    def _walk(self):
        """With m_k = g_k n_k, for g_k the sign of p in slot k's phase, every
        sign pattern has q = m1 + m2 and m4 = -(m1 + m2 + m3).  The triples
        (a1, a2, a3) of lattice indices with V(q) != 0 and m4 on the lattice,
        stacked over the index a4 of m4, and V(q), as read-only arrays."""
        a = np.indices((len(self.lattice),) * 3).reshape(3, -1)
        m1, m2, m3 = self.momentum[a]
        vq = self.kernel.values(m1 + m2)
        a4 = self._lattice_index(-(m1 + m2 + m3))
        keep = (vq != 0.0) & (a4 >= 0)
        walk = (np.vstack((a[:, keep], a4[keep])), vq[keep])
        for x in walk:
            x.flags.writeable = False
        return walk

    def quadruples(self, signs):
        """Momentum-conserving label quadruples (i1, i2, i3, i4) and V(q) of
        the slot signs g_k: q = g1 n1 + g2 n2 and sum_k g_k n_k = 0.  n_k = g_k
        m_k of :attr:`_walk`, and the sorted lattice is symmetric under n -> -n,
        so negation is the index reversal i -> L - 1 - i.  One broadcast
        expands the rows to the 16 spin choices, in no set order (see
        :func:`_quartic_packed`); fresh arrays on each call."""
        points, vq = self._walk
        points = np.where(np.array(signs)[:, None] < 0, len(self.lattice) - 1 - points, points)
        # label j = spin offset (0 or L) + lattice index
        spins = len(self.lattice) * np.indices((2,) * 4).reshape(4, -1, 1)
        i1, i2, i3, i4 = (spins + points[:, None, :]).reshape(4, -1)
        return i1, i2, i3, i4, np.tile(vq, 16)

    def _lattice_index(self, vecs: np.ndarray) -> np.ndarray:
        """Position of each vector in the lattice, -1 where it is absent."""
        lattice = self.momentum
        r = int(max(np.abs(vecs).max(initial=0), np.abs(lattice).max(initial=0)))
        # base-(2r+1) digits, first component most significant: the codes of
        # the lexicographically sorted lattice ascend
        weights = (2 * r + 1) ** np.arange(lattice.shape[1] - 1, -1, -1)
        codes = (lattice + r) @ weights
        want = (vecs + r) @ weights
        pos, found = lookup(codes, want)
        return np.where(found, pos, -1)


@lru_cache(maxsize=8)
def _quartic_context(cfg: ModelConfig) -> _QuarticContext:
    """The :class:`_QuarticContext` of ``cfg``, one per config and process."""
    return _QuarticContext(cfg)


def _vertex_factors(slot_a: _Slot, lab_a, slot_b: _Slot, lab_b, ctx: _QuarticContext,
                    order_pair: bool):
    """Operators and spinor factor of one psi+ psi vertex.

    With ``order_pair`` the two operators of the vertex are normal ordered
    (prescription: sign, no contraction), which realizes the separately
    normal-ordered charge density :psi+ psi:.
    """
    (s_a, n_a), (s_b, n_b) = lab_a, lab_b
    bil = ctx.bilinear(slot_a.spinor, s_a, n_a, slot_b.spinor, s_b, n_b)
    op_a = Ladder(Mode(slot_a.species, s_a, n_a), slot_a.create)
    op_b = Ladder(Mode(slot_b.species, s_b, n_b), slot_b.create)
    sign = 1.0
    ops = (op_a, op_b)
    if order_pair and (not op_a.create) and op_b.create:
        ops = (op_b, op_a)
        sign = -1.0
    return ops, sign * bil


def _coulomb_quartic(cfg: ModelConfig, vertex_ordered: bool,
                     species_filter=None) -> list[Term]:
    """All quartic mode-sum terms of the Coulomb interaction.

    ``species_filter``, when given, restricts the four (x-dagger, x-plain,
    y-dagger, y-plain) species choices.  ``vertex_ordered`` applies the
    per-density normal ordering (partial prescription).
    """
    ctx = _quartic_context(cfg)
    e2_2v = cfg.e2 / (2.0 * cfg.volume)
    terms: list[Term] = []
    species_choices = list(itertools.product((Species.ELECTRON, Species.POSITRON), repeat=4))
    if species_filter is not None:
        species_choices = [sc for sc in species_choices if sc == species_filter]
    for c1, c2, c3, c4 in species_choices:
        sl1, sl2 = _DAGGER_SLOTS[c1], _PLAIN_SLOTS[c2]
        sl3, sl4 = _DAGGER_SLOTS[c3], _PLAIN_SLOTS[c4]
        for lab1, lab2, lab3 in itertools.product(ctx.labels, ctx.labels, ctx.labels):
            n1, n2, n3 = lab1[1], lab2[1], lab3[1]
            qx = tuple(sl1.sigma * a + sl2.sigma * b for a, b in zip(n1, n2))
            vq = ctx.kernel_value(qx)
            if vq == 0.0:
                continue
            # sigma1 n1 + ... + sigma4 n4 = 0 fixes the fourth momentum
            n4 = tuple(
                -sl4.sigma * (sl1.sigma * a + sl2.sigma * b + sl3.sigma * g)
                for a, b, g in zip(n1, n2, n3)
            )
            if n4 not in ctx.lattice_set:
                continue
            ops_x, bil_x = _vertex_factors(sl1, lab1, sl2, lab2, ctx, vertex_ordered)
            if bil_x == 0.0:
                continue
            for s4 in (1, 2):
                lab4 = (s4, n4)
                ops_y, bil_y = _vertex_factors(sl3, lab3, sl4, lab4, ctx, vertex_ordered)
                coeff = e2_2v * vq * bil_x * bil_y
                if coeff == 0.0:
                    continue
                terms.append(Term(coeff, ops_x + ops_y))
    return terms


@lru_cache(maxsize=8)
def coulomb_full(cfg: ModelConfig) -> OperatorExpr:
    """Fully normal-ordered Coulomb term.

    Hermitian; conserves net charge and total lattice momentum; contains
    number-changing (pair creating/annihilating) pieces, but no piece that
    acts within the one-electron sector.
    """
    raw = OperatorExpr(_coulomb_quartic(cfg, vertex_ordered=False))
    return normal_order_prescription(raw)


@lru_cache(maxsize=8)
def coulomb_partial(cfg: ModelConfig) -> OperatorExpr:
    """Coulomb term with each charge density normal-ordered separately.

    This is the operator version of the classical Coulomb energy; it
    differs from :func:`coulomb_full` by a contraction remainder (one-body
    terms plus a c-number vacuum bubble) and has a nonzero one-electron
    block as well as a positive vacuum expectation.
    """
    return canonicalize(OperatorExpr(_coulomb_quartic(cfg, vertex_ordered=True)))


@lru_cache(maxsize=8)
def bad_electron_term(cfg: ModelConfig) -> OperatorExpr:
    """Electron-only part of the partial ordering: b+ b b+ b alternating.

    The one-electron block of this operator is nonzero with positive real
    diagonal: the quantum residue of classical self-repulsion.
    """
    all_e = (Species.ELECTRON,) * 4
    return canonicalize(
        OperatorExpr(_coulomb_quartic(cfg, vertex_ordered=False, species_filter=all_e))
    )


class CoulombPieces(NamedTuple):
    ee: OperatorExpr
    ep: OperatorExpr
    pp: OperatorExpr
    number_changing: OperatorExpr


@lru_cache(maxsize=8)
def coulomb_pieces(cfg: ModelConfig) -> CoulombPieces:
    """Number-conserving pieces of the full Coulomb term, built directly
    from their explicit normal-ordered mode sums (not by classifying
    :func:`coulomb_full`), plus the number-changing remainder.

    ee carries the -e^2/2 prefactor with two electron creators left of two
    electron annihilators; ep the +e^2 electron-positron density term; pp
    the -e^2/2 positron term.  The remainder is the canonicalized
    difference full - (ee + ep + pp), pruned of rounding dust.  Besides the
    particle-number-changing terms it also holds the electron-positron
    annihilation channel (a pair destroyed at one vertex and recreated at
    the other), which conserves both particle numbers but lies outside the
    three density-density structures.
    """
    ctx = _quartic_context(cfg)
    e2_2v = cfg.e2 / (2.0 * cfg.volume)
    ee_terms: list[Term] = []
    ep_terms: list[Term] = []
    pp_terms: list[Term] = []
    e, p = Species.ELECTRON, Species.POSITRON
    for lab1, lab2, lab3 in itertools.product(ctx.labels, ctx.labels, ctx.labels):
        (s1, n1), (s2, n2), (s3, n3) = lab1, lab2, lab3
        q = tuple(a - b for a, b in zip(n3, n1))
        vq = ctx.kernel_value(q)
        if vq == 0.0:
            continue
        n4 = tuple(a + b - g for a, b, g in zip(n1, n2, n3))
        if n4 not in ctx.lattice_set:
            continue
        for s4 in (1, 2):
            # electron-electron: -e^2/2, b+(1) b+(2) b(3) b(4)
            coeff = -e2_2v * vq * ctx.bilinear("u", s1, n1, "u", s3, n3) \
                * ctx.bilinear("u", s2, n2, "u", s4, n4)
            if coeff != 0.0:
                ee_terms.append(
                    Term(coeff, (
                        Ladder(Mode(e, s1, n1), True),
                        Ladder(Mode(e, s2, n2), True),
                        Ladder(Mode(e, s3, n3), False),
                        Ladder(Mode(e, s4, n4), False),
                    ))
                )
            # electron-positron: +e^2, d+(1) b+(2) d(3) b(4)
            coeff = 2.0 * e2_2v * vq * ctx.bilinear("v", s3, n3, "v", s1, n1) \
                * ctx.bilinear("u", s2, n2, "u", s4, n4)
            if coeff != 0.0:
                ep_terms.append(
                    Term(coeff, (
                        Ladder(Mode(p, s1, n1), True),
                        Ladder(Mode(e, s2, n2), True),
                        Ladder(Mode(p, s3, n3), False),
                        Ladder(Mode(e, s4, n4), False),
                    ))
                )
            # positron-positron: -e^2/2, d+(1) d+(2) d(3) d(4)
            coeff = -e2_2v * vq * ctx.bilinear("v", s3, n3, "v", s1, n1) \
                * ctx.bilinear("v", s4, n4, "v", s2, n2)
            if coeff != 0.0:
                pp_terms.append(
                    Term(coeff, (
                        Ladder(Mode(p, s1, n1), True),
                        Ladder(Mode(p, s2, n2), True),
                        Ladder(Mode(p, s3, n3), False),
                        Ladder(Mode(p, s4, n4), False),
                    ))
                )
    ee = canonicalize(OperatorExpr(ee_terms))
    ep = canonicalize(OperatorExpr(ep_terms))
    pp = canonicalize(OperatorExpr(pp_terms))
    full = coulomb_full(cfg)
    remainder = full - ee - ep - pp
    scale = max(full.max_abs_coeff(), 1e-300)
    remainder = remainder.prune(1e-13 * scale)
    return CoulombPieces(ee, ep, pp, remainder)


# -- packed builders (the hot path) --------------------------------------
# Every packed Coulomb operator is a choice of species and ordering of one
# walk, _quartic_packed.  The symbolic builders stay as the specification and
# the test oracle, which the packed ones match term for term, to rounding.

_ALL_CHOICES = tuple(itertools.product((Species.ELECTRON, Species.POSITRON), repeat=4))


def _run_sums(keys: np.ndarray, coeffs: np.ndarray):
    """The first index and the sum of ``coeffs`` of each run of equal
    ``keys`` (which are >= 0), added from 0.0 in array order by ``bincount``."""
    new = np.diff(keys, prepend=-1) != 0
    run, sums = np.cumsum(new) - 1, np.empty(int(new.sum()), dtype=np.complex128)
    sums.real = np.bincount(run, coeffs.real, len(sums))
    sums.imag = np.bincount(run, coeffs.imag, len(sums))
    return np.flatnonzero(new), sums


def _null_rows(ops: np.ndarray) -> np.ndarray:
    """``algebra._term_is_null`` on rows: two equal factors with no factor of
    the same mode between them."""
    mode = ops >> 1
    k = ops.shape[1]
    null = np.zeros(len(ops), dtype=bool)
    for i in range(k):
        for j in range(i + 1, k):
            hit = ops[:, i] == ops[:, j]
            for m in range(i + 1, j):
                hit &= mode[:, m] != mode[:, i]
            null |= hit
    return null


def _quartic_packed(cfg: ModelConfig, choices=_ALL_CHOICES, vertex_ordered: bool = False,
                    normal_ordered: bool = False) -> PackedOperator:
    """The terms of :func:`_coulomb_quartic` over the (x-dagger, x-plain,
    y-dagger, y-plain) species ``choices``, canonicalized and packed.

    ``vertex_ordered`` normal-orders each psi+ psi vertex (the partial
    prescription); ``normal_ordered`` applies the :X: map of
    :func:`normal_order_prescription` to the whole quartic.  A choice takes
    the quadruples of its slot signs (:meth:`_QuarticContext.quadruples`).
    Raw rows never repeat: a choice's quadruples differ, and a row's factor
    kinds name its choice.  A choice fixes the create flags, so :X: is a
    column permutation, and the sign of :X: and canonical order is the
    parity of a sorting network's swaps, put on the raw rows (-1 commutes
    with rounding).  Like terms are summed once, in one order of addition: a
    sort by (canonical, raw) puts the rows in runs of equal canonical rows,
    raw keys ascending within a run, and a ``bincount`` over the runs adds
    each run's terms from 0.0 in that order, whatever order the walk emits
    them in.  Without :X: that is what the symbolic passes (raw, then
    canonical) add; the symbolic :X: pass also sums its own like terms
    first, so under :X: the two agree to rounding.
    """
    ctx = _quartic_context(cfg)
    e2_2v = cfg.e2 / (2.0 * cfg.volume)
    n_labels = len(ctx.labels)
    raw, coeffs = [], []
    for choice in choices:
        slots = [_DAGGER_SLOTS[choice[0]], _PLAIN_SLOTS[choice[1]],
                 _DAGGER_SLOTS[choice[2]], _PLAIN_SLOTS[choice[3]]]
        i1, i2, i3, i4, vq = ctx.quadruples([sl.sigma for sl in slots])
        bil_x = ctx.bilinear_table(slots[0].spinor, slots[1].spinor)[i1, i2]
        bil_y = ctx.bilinear_table(slots[2].spinor, slots[3].spinor)[i3, i4]
        if vertex_ordered:  # _vertex_factors: an annihilator-creator vertex swaps, sign -1
            if not slots[0].create and slots[1].create:
                i1, i2, slots[:2], bil_x = i2, i1, slots[1::-1], -bil_x
            if not slots[2].create and slots[3].create:
                i3, i4, slots[2:], bil_y = i4, i3, slots[:1:-1], -bil_y
        c = e2_2v * vq * bil_x * bil_y
        live = c != 0
        # factor codes 2 * mode + create, with mode k*2L + j for label j of species k
        offset = [[2 * int(sl.species is Species.POSITRON) * n_labels + sl.create] for sl in slots]
        raw.append(2 * np.stack((i1, i2, i3, i4))[:, live] + offset)
        coeffs.append(c[live])
    raw, coeffs = np.concatenate(raw, axis=1, dtype=np.int32), np.concatenate(coeffs)
    # the network sorts creators (odd codes) ascending, then annihilators
    # descending; it may swap equal factors, which make a row nilpotent.
    # Under :X: it sorts every raw row; otherwise mixed rows stay as they are.
    top = 8 * n_labels
    flip = np.zeros(len(coeffs), dtype=bool)
    mixed = np.zeros_like(flip) if normal_ordered else np.any(raw[:-1] & 1 < raw[1:] & 1, axis=0)
    sort_key = np.where(raw & 1, raw, top - raw)
    sort_key[:, mixed] = np.arange(4)[:, None]
    for i, j in ((0, 1), (2, 3), (0, 2), (1, 3), (1, 2)):
        a, b = sort_key[i], sort_key[j]
        flip ^= a > b
        sort_key[i], sort_key[j] = np.minimum(a, b), np.maximum(a, b)
    np.negative(coeffs, out=coeffs, where=flip)
    canonical = np.where(sort_key & 1, sort_key, top - sort_key)
    canonical[:, mixed] = raw[:, mixed]
    # one int64 key packs the canonical codes above the raw codes, each with
    # the create bit flipped (_term_order_key order): its order is the
    # (canonical, raw) order, and raw rows never repeat, so keys are distinct
    bits = (4 * n_labels - 1).bit_length()
    assert 8 * bits <= 63, f"{n_labels} mode labels overflow the int64 sort key"
    key = np.zeros(len(coeffs), dtype=np.int64)
    for x in (*canonical, *raw):
        key = (key << bits) | (x ^ 1)
    first = np.argsort(key)
    runs, coeffs = _run_sums(key[first] >> (4 * bits), coeffs[first])
    ops = canonical.T[first[runs]]
    keep = (coeffs != 0) & ~_null_rows(ops)  # nilpotent products vanish
    nops = np.full(keep.sum(), 4, dtype=np.int32)
    return PackedOperator(coeffs[keep], ops[keep], nops, modes_for(cfg))


def coulomb_full_packed(cfg: ModelConfig) -> PackedOperator:
    """:func:`coulomb_full`, built as arrays."""
    return _quartic_packed(cfg, normal_ordered=True)


def coulomb_partial_packed(cfg: ModelConfig) -> PackedOperator:
    """:func:`coulomb_partial`, built as arrays."""
    return _quartic_packed(cfg, vertex_ordered=True)


def bad_electron_term_packed(cfg: ModelConfig) -> PackedOperator:
    """:func:`bad_electron_term`, built as arrays."""
    return _quartic_packed(cfg, [(Species.ELECTRON,) * 4])


class PackedPieces(NamedTuple):
    ee: PackedOperator
    ep: PackedOperator
    pp: PackedOperator


def coulomb_pieces_packed(cfg: ModelConfig) -> PackedPieces:
    """The ee, ep and pp pieces of :func:`coulomb_pieces` (not the
    number-changing remainder): the normal-ordered quartic with electron
    densities at both vertices, one density of each species, or positron
    densities at both.  The symbolic pieces are explicit mode sums, so the
    two check each other."""
    e, p = Species.ELECTRON, Species.POSITRON
    return PackedPieces(
        ee=_quartic_packed(cfg, [(e, e, e, e)], normal_ordered=True),
        ep=_quartic_packed(cfg, [(e, e, p, p), (p, p, e, e)], normal_ordered=True),
        pp=_quartic_packed(cfg, [(p, p, p, p)], normal_ordered=True),
    )
