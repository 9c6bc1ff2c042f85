"""Shared fixtures and independent oracles.

The Jordan-Wigner kron-product construction below is a fully independent
route to operator matrices on the complete Fock space of M modes: ladder
matrices are built as explicit tensor products and expressions are
evaluated by dense matrix arithmetic, never touching the package's
occupancy-bitmask assembly kernels.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest

from fockbox.algebra import Ladder, OperatorExpr, Term
from fockbox.fock import Sector, SectorError, SparseOperator
from fockbox.modes import Mode, ModeSet, Species

_ID = np.eye(2)
_Z = np.diag([1.0, -1.0])
_ANNIHILATE = np.array([[0.0, 1.0], [0.0, 0.0]])  # |0><1| per mode factor


def jw_ladder_matrix(mode_index: int, create: bool, n_modes: int) -> np.ndarray:
    """Dense ladder matrix with Z-strings on lower mode indices.

    Basis index = occupancy bitmask with mode 0 in the least significant
    bit, matching the package's parity convention (-1)^(occupied below k).
    """
    op = np.array([[1.0]])
    for k in range(n_modes - 1, -1, -1):  # most significant factor first
        if k > mode_index:
            factor = _ID
        elif k == mode_index:
            factor = _ANNIHILATE.T if create else _ANNIHILATE
        else:
            factor = _Z
        op = np.kron(op, factor)
    return op


def jw_expr_matrix(expr: OperatorExpr, modes: ModeSet) -> np.ndarray:
    """Dense matrix of an expression on the full 2^M Fock space."""
    m = len(modes)
    dim = 2**m
    total = np.zeros((dim, dim), dtype=np.complex128)
    for term in expr.terms:
        acc = np.eye(dim, dtype=np.complex128)
        for ladder in term.factors:
            acc = acc @ jw_ladder_matrix(modes.index(ladder.mode), ladder.create, m)
        total += term.coeff * acc
    return total


def as_scipy(op: SparseOperator):
    """SciPy CSR copy of an operator's matrix, for tests that check
    fockbox's own sparse type against SciPy or use SciPy's sparse algebra."""
    import scipy.sparse as sp

    return sp.csr_matrix((op.data, op.pattern.indices, op.pattern.indptr),
                         shape=(op.dim, op.dim))


def reference_assemble(coeffs, opcodes, nops, basis, weight=None):
    """Per-term reference for :func:`fockbox.assembly.assemble`: applies
    each packed ladder string factor by factor to every basis state, with
    the same output contract (term-major triplets of the columns of nonzero
    ``weight``, int8 signs, drops counted ``weight`` times; every column
    once by default).  Within a term the columns come by particle number,
    then ascending.
    """
    nb = basis.size
    weight = np.ones(nb, dtype=np.int64) if weight is None else np.asarray(weight)
    rows_out, cols_out, vals_out = [], [], []
    dropped = 0
    all_cols = np.argsort(np.bitwise_count(basis), kind="stable")
    basis_by_count = basis[all_cols]
    for t in range(coeffs.size):
        state = basis_by_count.copy()
        sign = np.ones(nb, dtype=np.int8)
        alive = np.ones(nb, dtype=bool)
        for j in range(int(nops[t]) - 1, -1, -1):
            code = int(opcodes[t, j])
            k = code >> 1
            bit = np.uint64(1 << k)
            occupied = (state & bit) != 0
            alive &= (~occupied) if code & 1 else occupied
            if not alive.any():
                break
            parity = np.bitwise_count(state & np.uint64((1 << k) - 1))
            sign = np.where(parity & 1, -sign, sign)
            state = np.where(alive, state ^ bit, state)
        if not alive.any():
            continue
        img = state[alive]
        pos = np.minimum(np.searchsorted(basis, img), nb - 1)
        found = basis[pos] == img
        col = all_cols[alive]
        dropped += int(weight[col[~found]].sum())
        keep = found & (weight[col] > 0)
        rows_out.append(pos[keep].astype(np.int64))
        cols_out.append(col[keep])
        vals_out.append(coeffs[t] * sign[alive][keep])
    if not rows_out:
        return (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64),
                np.zeros(0, dtype=np.complex128), dropped)
    return np.concatenate(rows_out), np.concatenate(cols_out), np.concatenate(vals_out), dropped


def reference_enumerate(modes: ModeSet, sector: Sector) -> np.ndarray:
    """Combination-filter reference for :func:`fockbox.fock.enumerate_basis`:
    walks every ``itertools.combinations`` of the allowed sizes and keeps
    those with the sector's charge and momentum, with the same output
    contract (ascending uint64) and the same ``SectorError`` messages.
    """
    m = len(modes)
    if sector.n is not None:
        sizes = [sector.n] if sector.n <= m else []
    elif sector.n_max is not None:
        sizes = list(range(0, min(sector.n_max, m) + 1))
    else:
        if m > 20:
            raise SectorError(
                f"refusing to enumerate all 2^{m} states; set n or n_max"
            )
        sizes = list(range(0, m + 1))

    charges = np.array([mode.species.charge for mode in modes], dtype=np.int64)
    momenta = np.array([mode.momentum for mode in modes], dtype=np.int64)
    want_p = None if sector.momentum is None else np.array(sector.momentum, dtype=np.int64)
    if want_p is not None and m and momenta.shape[1] != want_p.size:
        raise SectorError(
            f"sector momentum has {want_p.size} components, "
            f"but the modes carry {momenta.shape[1]}-component momenta"
        )

    out = []
    for size in sizes:
        for occ in combinations(range(m), size):
            idx = list(occ)
            if sector.charge is not None and charges[idx].sum() != sector.charge:
                continue
            if want_p is not None and not np.array_equal(
                momenta[idx].sum(axis=0) if idx else np.zeros_like(want_p), want_p
            ):
                continue
            bits = 0
            for k in idx:
                bits |= 1 << k
            out.append(bits)
    return np.array(sorted(out), dtype=np.uint64)


def reference_quadruples(ctx, signs):
    """Label-grid reference for :meth:`fockbox.model._QuarticContext.quadruples`.

    Walks every (label1, label2, label3) triple of the context's 2L labels
    in the symbolic builders' loop order; with the slot signs (g1, g2, g3,
    g4) the kernel's transfer vector is q = g1 n1 + g2 n2 and the fourth
    momentum n4 = -g4 (g1 n1 + g2 n2 + g3 n3).  Keeps the triples with V(q)
    != 0 and n4 on the lattice, gives each both values of spin4, and returns
    the four label index arrays and V(q).
    """
    g1, g2, g3, g4 = signs
    n_lattice = len(ctx.lattice)
    momentum = np.array(
        [n for _, n in ctx.labels], dtype=np.int64
    ).reshape(len(ctx.labels), ctx.cfg.dimension)
    i1, i2, i3 = np.indices((len(ctx.labels),) * 3).reshape(3, -1)
    n1, n2, n3 = momentum[i1], momentum[i2], momentum[i3]
    vq = ctx.kernel.values(g1 * n1 + g2 * n2)
    l4 = _reference_lattice_index(momentum[:n_lattice], -g4 * (g1 * n1 + g2 * n2 + g3 * n3))
    keep = (vq != 0.0) & (l4 >= 0)
    spin_offsets = np.array([0, n_lattice])
    i4 = (l4[keep, None] + spin_offsets).ravel()
    i1, i2, i3, vq = (np.repeat(x[keep], 2) for x in (i1, i2, i3, vq))
    return i1, i2, i3, i4, vq


def _reference_lattice_index(lattice: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Position of each vector in the sorted lattice, -1 where it is absent."""
    r = int(max(np.abs(vecs).max(initial=0), np.abs(lattice).max(initial=0)))
    weights = (2 * r + 1) ** np.arange(lattice.shape[1] - 1, -1, -1)
    codes = (lattice + r) @ weights
    want = (vecs + r) @ weights
    pos = np.minimum(np.searchsorted(codes, want), len(codes) - 1)
    return np.where(codes[pos] == want, pos, -1)


def reference_momentum_blocks(basis: np.ndarray,
                              modes: ModeSet) -> dict[tuple[int, ...], np.ndarray]:
    """Split a basis by total lattice momentum.

    Maps each total momentum P that occurs, in ascending order, to the
    ascending positions in ``basis`` of the states with momentum P.  So
    ``basis[blocks[P]]`` is the basis of ``Sector(..., momentum=P)``.
    """
    basis = np.asarray(basis, dtype=np.uint64)
    m = len(modes)
    d = len(modes[0].momentum) if m else 0
    momenta = np.array([mode.momentum for mode in modes], dtype=np.int64).reshape(m, d)
    occupied = (basis[:, None] >> np.arange(m, dtype=np.uint64)) & np.uint64(1)
    totals = occupied.astype(np.int64) @ momenta
    keys, label = np.unique(totals, axis=0, return_inverse=True)
    order = np.argsort(label.ravel(), kind="stable")
    bounds = np.cumsum(np.bincount(label.ravel(), minlength=len(keys)))[:-1]
    return {tuple(int(c) for c in key): idx
            for key, idx in zip(keys, np.split(order, bounds))}


def random_expr(rng, modes: ModeSet, n_terms=3, max_factors=4) -> OperatorExpr:
    terms = []
    for _ in range(n_terms):
        k = int(rng.integers(0, max_factors + 1))
        factors = tuple(
            Ladder(modes[int(i)], bool(rng.integers(0, 2)))
            for i in rng.integers(0, len(modes), k)
        )
        coeff = complex(rng.standard_normal(), rng.standard_normal())
        terms.append(Term(coeff, factors))
    return OperatorExpr(terms)


def random_start(op: SparseOperator, seed: int) -> np.ndarray:
    """Seeded Gaussian start vector for a cold ``ground_state`` solve: real
    for a real operator, complex for a complex one."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(op.dim)
    if op.data.dtype == np.complex128:
        v = v + 1j * rng.standard_normal(op.dim)
    return v


@pytest.fixture
def rng():
    return np.random.default_rng(20230504)


def pytest_terminal_summary(terminalreporter):
    """One pass/fail line per acceptance criterion, printed even on green runs."""
    try:
        from test_acceptance import REPORT
    except ImportError:
        return
    if REPORT:
        terminalreporter.section("acceptance criteria")
        for line in REPORT:
            terminalreporter.write_line(line)


@pytest.fixture
def modes8():
    """Eight electron modes (1D, spins 1-2, n in {-1,0,1} minus two)."""
    return ModeSet(
        sorted(
            [Mode(Species.ELECTRON, s, (n,)) for s in (1, 2) for n in (-1, 0, 1)]
            + [Mode(Species.POSITRON, 1, (n,)) for n in (0, 1)],
            key=lambda m: m.sort_key,
        )
    )


@pytest.fixture
def modes4():
    return ModeSet(
        sorted(
            [Mode(Species.ELECTRON, s, (n,)) for s in (1, 2) for n in (0, 1)],
            key=lambda m: m.sort_key,
        )
    )
