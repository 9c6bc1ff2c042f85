"""Truncated Fock sectors: basis enumeration, sparse matrices, eigensolving
and unitary time evolution.

A basis state is an occupation bit pattern packed into a Python int /
uint64: bit k set means mode k of the :class:`~fockbox.modes.ModeSet` is
occupied.  The state with occupied indices i1 < i2 < ... < im is defined as

    c+_{i1} c+_{i2} ... c+_{im} |0>

(smallest index leftmost), so annihilating mode k picks up the parity
(-1)^(number of occupied modes with index < k).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import assembly
from .algebra import Ladder, OperatorExpr
from .modes import ModeSet

SERIAL_FORMAT_VERSION = 1


class SectorError(ValueError):
    """Inconsistent sector constraints or operator/sector mismatch."""


@dataclass(frozen=True)
class Sector:
    """Constraints selecting a Fock subspace.

    n: exact total particle count; n_max: inclusive upper bound (ignored if
    n is given); charge: net charge in units of e (electron -1, positron
    +1); momentum: exact total lattice momentum.  All optional.
    """

    n: int | None = None
    n_max: int | None = None
    charge: int | None = None
    momentum: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.momentum is not None:
            object.__setattr__(self, "momentum", tuple(int(c) for c in self.momentum))
        counts = [c for c in (self.n, self.n_max) if c is not None]
        if any(c < 0 for c in counts):
            raise SectorError("particle counts must be >= 0")
        if self.charge is not None:
            cap = self.n if self.n is not None else self.n_max
            if cap is not None and abs(self.charge) > cap:
                raise SectorError(
                    f"|charge|={abs(self.charge)} unreachable with <= {cap} particles"
                )


def _ragged(counts: np.ndarray):
    """For group sizes ``counts``, the group and the rank within its group
    of each of the ``counts.sum()`` members, groups in order."""
    group = np.repeat(np.arange(counts.size), counts)
    return group, np.arange(group.size) - (np.cumsum(counts) - counts)[group]


def _subsets(bits: np.ndarray, momenta: np.ndarray, cap: int):
    """Every subset of at most ``cap`` of the given modes, by size.

    ``bits`` holds each mode's occupation bit and ``momenta`` its momentum
    vector.  Entry k of the result is (masks, momentum sums) of the subsets
    of size k.  Each size extends the subsets of the size below by one mode
    above their highest, so a subset is made once and nothing is filtered.
    """
    g, d = momenta.shape
    masks = np.zeros(1, dtype=np.uint64)
    sums = np.zeros((1, d), dtype=np.int64)
    top = np.full(1, -1, dtype=np.int64)  # highest mode in each subset
    out = [(masks, sums)]
    for _ in range(min(cap, g)):
        src, rank = _ragged(g - 1 - top)  # one child per mode above the highest
        top = top[src] + 1 + rank
        masks = masks[src] | bits[top]
        sums = sums[src] + momenta[top]
        out.append((masks, sums))
    return out


def enumerate_basis(modes: ModeSet, sector: Sector) -> np.ndarray:
    """All occupation patterns satisfying the sector constraints.

    Returned as a strictly ascending uint64 array (the deterministic basis
    order used everywhere).  An empty sector gives an empty array.

    Electron and positron subsets are enumerated separately, up to the
    sizes the sector allows, and paired on (particle counts, total
    momentum): the charge fixes how many of each species a state holds,
    and the momentum fixes which positron subsets can complete an electron
    subset.  So the work follows the per-species subsets plus the states
    returned, not every combination of modes.
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

    want_p = None if sector.momentum is None else np.array(sector.momentum, dtype=np.int64)
    momenta = np.array([mode.momentum for mode in modes], dtype=np.int64)
    if m == 0:
        momenta = momenta.reshape(0, 0 if want_p is None else want_p.size)
    if want_p is not None and momenta.shape[1] != want_p.size:
        raise SectorError(
            f"sector momentum has {want_p.size} components, "
            f"but the modes carry {momenta.shape[1]}-component momenta"
        )
    if not sizes:
        return np.zeros(0, dtype=np.uint64)

    charges = np.array([mode.species.charge for mode in modes], dtype=np.int64)
    bits = np.left_shift(np.uint64(1), np.arange(m, dtype=np.uint64))
    top = max(sizes)
    # most electrons / positrons a state can hold: with net charge q, a
    # state of at most `top` particles has ne + np <= top and np - ne = q
    q = sector.charge
    caps = (top, top) if q is None else ((top - q) // 2, (top + q) // 2)
    elec, posi = (
        _subsets(bits[charges == sign], momenta[charges == sign], cap)
        for sign, cap in zip((-1, 1), caps)
    )
    if want_p is not None:
        # one integer key per momentum vector, injective over the electron
        # sums and the positron sums' complements P - p that are compared
        vecs = [s for _, s in elec] + [want_p - s for _, s in posi]
        lo = np.min([v.min(axis=0) for v in vecs], axis=0)
        span = np.max([v.max(axis=0) for v in vecs], axis=0) - lo + 1
        stride = np.cumprod(np.concatenate(([1], span)))[:-1]

        def key(v):
            return (v - lo) @ stride

    allowed = set(sizes)
    out = []
    for ne, (emasks, esums) in enumerate(elec):
        for npos, (pmasks, psums) in enumerate(posi):
            if ne + npos not in allowed:
                continue
            if q is not None and npos - ne != q:
                continue
            if want_p is None:
                out.append((emasks[:, None] | pmasks[None, :]).ravel())
                continue
            pkeys = key(want_p - psums)
            order = np.argsort(pkeys, kind="stable")
            pkeys = pkeys[order]
            ekeys = key(esums)
            left = np.searchsorted(pkeys, ekeys, side="left")
            count = np.searchsorted(pkeys, ekeys, side="right") - left
            src, rank = _ragged(count)
            partner = order[left[src] + rank]
            out.append(emasks[src] | pmasks[partner])
    if not out:
        return np.zeros(0, dtype=np.uint64)
    return np.sort(np.concatenate(out))


def apply_ladder(ladder: Ladder, state: int, modes: ModeSet):
    """Act with one ladder operator on an occupation pattern.

    Returns (sign, new_state) or None when the action annihilates the state
    (creating an occupied mode / annihilating an empty one).
    """
    k = modes.index(ladder.mode)
    state = int(state)
    bit = 1 << k
    occupied = bool(state & bit)
    if ladder.create == occupied:
        return None
    sign = -1 if (state & (bit - 1)).bit_count() % 2 else 1
    return sign, state ^ bit


def apply_expr_to_state(expr: OperatorExpr, state: int, modes: ModeSet) -> dict[int, complex]:
    """Amplitude map of expr|state> with no sector truncation."""
    out: dict[int, complex] = {}
    for term in expr.terms:
        amp = term.coeff
        cur = int(state)
        ok = True
        for ladder in reversed(term.factors):
            res = apply_ladder(ladder, cur, modes)
            if res is None:
                ok = False
                break
            sign, cur = res
            amp *= sign
        if ok:
            out[cur] = out.get(cur, 0.0 + 0.0j) + amp
    return {s: a for s, a in out.items() if a != 0}


@dataclass
class SparseOperator:
    """An operator expression restricted to an enumerated sector.

    ``dropped`` counts (term, source-state) images that fell outside the
    sector (the truncation-drop counter).
    """

    matrix: sp.csr_matrix
    dropped: int = 0
    meta: dict = field(default_factory=dict)
    # (matrix, defect) of the last hermiticity check
    _defect: tuple | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def max_abs_entry(self) -> float:
        return float(np.abs(self.matrix.data).max()) if self.matrix.nnz else 0.0

    def hermiticity_defect(self) -> float:
        """Largest entry of |A - A+|.  Memoized per ``matrix`` object: it is
        recomputed when ``matrix`` is reassigned, but not when it is modified
        in place, which callers must not do after the first check."""
        if self._defect is None or self._defect[0] is not self.matrix:
            d = self.matrix - self.matrix.getH()
            self._defect = (self.matrix, float(np.abs(d.data).max()) if d.nnz else 0.0)
        return self._defect[1]

    def is_hermitian(self, tol: float = 1e-12) -> bool:
        return self.hermiticity_defect() <= tol

    def dense(self) -> np.ndarray:
        return self.matrix.toarray()

    def __add__(self, other: "SparseOperator") -> "SparseOperator":
        return SparseOperator(
            (self.matrix + other.matrix).tocsr(), self.dropped + other.dropped
        )

    def __sub__(self, other: "SparseOperator") -> "SparseOperator":
        return SparseOperator(
            (self.matrix - other.matrix).tocsr(), self.dropped + other.dropped
        )

    def __mul__(self, z) -> "SparseOperator":
        return SparseOperator(self.matrix * z, self.dropped)


@dataclass(frozen=True, eq=False)
class PackedOperator:
    """An operator as arrays over the modes of ``modes``: the sum of
    ``coeffs[i]`` times the ladder string ``opcodes[i, :nops[i]]``.

    Each code is ``2 * mode_index + create``; rows are padded with -1.  This
    is the form the assembly kernel consumes.
    """

    coeffs: np.ndarray  # complex128[nt]
    opcodes: np.ndarray  # int32[nt, kmax]
    nops: np.ndarray  # int32[nt]
    modes: ModeSet

    def __len__(self) -> int:
        return len(self.coeffs)


def pack(expr: OperatorExpr, modes: ModeSet) -> PackedOperator:
    """Pack an expression's terms, in their order, as arrays over ``modes``."""
    nt = len(expr.terms)
    kmax = max((t.degree for t in expr.terms), default=0)
    coeffs = np.zeros(nt, dtype=np.complex128)
    opcodes = np.full((nt, max(kmax, 1)), -1, dtype=np.int32)
    nops = np.zeros(nt, dtype=np.int32)
    for i, term in enumerate(expr.terms):
        coeffs[i] = term.coeff
        nops[i] = term.degree
        for j, ladder in enumerate(term.factors):
            opcodes[i, j] = 2 * modes.index(ladder.mode) + (1 if ladder.create else 0)
    return PackedOperator(coeffs, opcodes, nops, modes)


def to_matrix(
    op: OperatorExpr | PackedOperator, basis: np.ndarray, modes: ModeSet
) -> SparseOperator:
    """Sparse matrix of an expression or packed operator on the enumerated
    basis.

    Matrix elements whose image lies outside the basis are discarded and
    counted in ``dropped``.  Linear in the operator; for a full
    (untruncated) Fock basis the matrix of a product is the product of the
    matrices.  A packed operator must have been packed over ``modes``.
    """
    basis = np.asarray(basis, dtype=np.uint64)
    if basis.size and np.any(basis[1:] <= basis[:-1]):
        raise SectorError("basis must be strictly ascending")
    if basis.size and int(basis[-1]) >> len(modes):
        raise SectorError(
            f"basis state {int(basis[-1]):#x} occupies a mode beyond the {len(modes)} modes"
        )
    if isinstance(op, OperatorExpr):
        op = pack(op, modes)
    elif op.modes != modes:
        raise SectorError(
            f"operator was packed over a different mode set ({op.modes}, not {modes})"
        )
    nb, nt = int(basis.size), len(op)
    if nb == 0 or nt == 0:
        return SparseOperator(sp.csr_matrix((nb, nb), dtype=np.complex128), 0)
    rows, cols, vals, dropped = assembly.assemble(op.coeffs, op.opcodes, op.nops, basis)
    mat = sp.coo_matrix((vals, (rows, cols)), shape=(nb, nb)).tocsr()
    mat.sum_duplicates()
    return SparseOperator(mat, int(dropped))


def vacuum_index(basis: np.ndarray) -> int:
    """Index of the empty occupation pattern; raises if absent."""
    idx = int(np.searchsorted(basis, np.uint64(0)))
    if idx >= len(basis) or basis[idx] != 0:
        raise SectorError("vacuum not contained in this basis")
    return idx


def state_vector(amplitudes: dict[int, complex], basis: np.ndarray) -> np.ndarray:
    """Dense amplitude vector on the basis from an occupancy->amplitude map.

    Occupancies outside the basis are an error (use a basis that contains
    the support of the state).
    """
    v = np.zeros(len(basis), dtype=np.complex128)
    for occ, amp in amplitudes.items():
        idx = int(np.searchsorted(basis, np.uint64(occ)))
        if idx >= len(basis) or basis[idx] != np.uint64(occ):
            raise SectorError(f"occupancy {occ:#x} outside basis")
        v[idx] = amp
    return v


def ground_state(op: SparseOperator, seed: int = 0):
    """Lowest eigenpair (energy, vector) of a Hermitian operator.

    Iterative (ARPACK Lanczos) with a fixed-seed start vector for
    determinism; small dimensions go through dense diagonalization.  The
    residual ||Hv - Ev|| <= 1e-8 * ||H||_inf is verified before returning.
    """
    h = op.matrix
    if not op.is_hermitian(1e-12):
        raise ValueError(f"operator is not Hermitian (defect {op.hermiticity_defect():.3e})")
    n = h.shape[0]
    if n == 0:
        raise ValueError("empty sector has no ground state")
    if n <= 16:
        w, v = np.linalg.eigh(h.toarray())
        energy, vec = float(w[0]), v[:, 0].astype(np.complex128)
    else:
        rng = np.random.default_rng(seed)
        v0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        v0 /= np.linalg.norm(v0)
        w, v = spla.eigsh(h, k=1, which="SA", v0=v0, tol=0, maxiter=200 * n)
        energy, vec = float(w[0]), v[:, 0].astype(np.complex128)
    hnorm = max(1.0, spla.norm(h, np.inf)) if h.nnz else 1.0
    residual = np.linalg.norm(h @ vec - energy * vec)
    if residual > 1e-8 * hnorm:
        raise RuntimeError(f"eigensolver residual {residual:.3e} exceeds 1e-8*||H||")
    # fix the overall phase for reproducibility: largest entry made real positive
    k = int(np.argmax(np.abs(vec)))
    phase = vec[k] / abs(vec[k])
    vec = vec / phase
    vec /= np.linalg.norm(vec)
    return energy, vec


def momentum_blocks(basis: np.ndarray, modes: ModeSet) -> dict[tuple[int, ...], np.ndarray]:
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


def lowest_over_blocks(op: SparseOperator, basis: np.ndarray, modes: ModeSet, seed: int = 0):
    """Lowest eigenpair of a momentum-conserving operator, found block by
    block.

    Each total-momentum block of ``basis`` (:func:`momentum_blocks`) goes
    through :func:`ground_state` on its own.  Returns (energy, vector on the
    whole basis, momentum of its block); on a tie the block of lowest
    momentum wins.  An operator that couples two blocks raises
    :class:`SectorError`, since its blocks would not be independent.
    """
    blocks = momentum_blocks(basis, modes)
    if not blocks:
        raise ValueError("empty sector has no ground state")
    label = np.empty(len(basis), dtype=np.int64)
    for i, idx in enumerate(blocks.values()):
        label[idx] = i
    coo = op.matrix.tocoo()
    across = (label[coo.row] != label[coo.col]) & (coo.data != 0)
    if across.any():
        raise SectorError(
            f"operator couples momentum blocks ({int(across.sum())} entries across blocks)"
        )
    best = None
    for key, idx in blocks.items():
        energy, vec = ground_state(SparseOperator(op.matrix[idx][:, idx]), seed=seed)
        if best is None or energy < best[0]:
            best = (energy, idx, vec, key)
    energy, idx, vec, key = best
    full = np.zeros(len(basis), dtype=np.complex128)
    full[idx] = vec
    return energy, full, key


def evolve(
    op: SparseOperator,
    v: np.ndarray,
    t: float,
    dt: float,
    hbar: float = 1.0,
    krylov_dim: int = 30,
):
    """Unitary evolution exp(-i H t / hbar) v via a Lanczos propagator.

    The time interval is split into ceil(t/dt) equal steps; each step
    projects H onto a Krylov subspace of dimension m <= krylov_dim (with
    full reorthogonalization) and applies the exact exponential of the
    projected tridiagonal.  Per-step error is O((||H|| dt / hbar)^m / m!),
    so for fixed m the scheme converges to the exact matrix exponential at
    order m as dt -> 0; the projected propagator is exactly unitary, so the
    norm is preserved to rounding.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if not op.is_hermitian(1e-12):
        raise ValueError("evolution requires a Hermitian operator")
    h = op.matrix
    v = np.asarray(v, dtype=np.complex128).copy()
    if v.shape[0] != h.shape[0]:
        raise ValueError("state/operator dimension mismatch")
    if t == 0 or np.linalg.norm(v) == 0:
        return v
    nsteps = max(1, int(np.ceil(t / dt - 1e-12)))
    step = t / nsteps
    for _ in range(nsteps):
        v = _lanczos_step(h, v, step, hbar, krylov_dim)
        if not np.all(np.isfinite(v)):
            raise FloatingPointError("non-finite amplitudes during evolution")
    return v


def _lanczos_step(h, v, dt, hbar, m_max):
    beta0 = np.linalg.norm(v)
    n = v.shape[0]
    m_max = min(m_max, n)
    V = np.zeros((n, m_max), dtype=np.complex128)
    alpha = np.zeros(m_max)
    beta = np.zeros(m_max)
    V[:, 0] = v / beta0
    m = m_max
    for j in range(m_max):
        w = h @ V[:, j]
        a = np.vdot(V[:, j], w)
        alpha[j] = a.real
        w -= a * V[:, j]
        if j > 0:
            w -= beta[j - 1] * V[:, j - 1]
        # full reorthogonalization keeps the basis orthonormal in floating point
        w -= V[:, : j + 1] @ (V[:, : j + 1].conj().T @ w)
        b = np.linalg.norm(w)
        if j + 1 < m_max:
            if b < 1e-13 * max(1.0, abs(a)):
                m = j + 1
                break
            beta[j] = b
            V[:, j + 1] = w / b
    else:
        m = m_max
    T = np.diag(alpha[:m]) + np.diag(beta[: m - 1], 1) + np.diag(beta[: m - 1], -1)
    w_t, u_t = np.linalg.eigh(T)
    e1 = u_t.conj().T[:, 0]
    small = u_t @ (np.exp(-1j * w_t * dt / hbar) * e1)
    return beta0 * (V[:, :m] @ small)


def expectation(op: SparseOperator, v: np.ndarray) -> complex:
    """<v| A |v> (no normalization applied)."""
    v = np.asarray(v, dtype=np.complex128)
    if v.shape[0] != op.matrix.shape[0]:
        raise ValueError("state/operator dimension mismatch")
    return complex(np.vdot(v, op.matrix @ v))


# -- golden-file serialization ----------------------------------------


def save_state(path, v: np.ndarray, basis: np.ndarray) -> None:
    """Versioned .npz dump of a state vector with its basis and norm."""
    v = np.asarray(v, dtype=np.complex128)
    np.savez(
        path,
        format_version=np.int64(SERIAL_FORMAT_VERSION),
        kind="state",
        amplitudes=v,
        basis=np.asarray(basis, dtype=np.uint64),
        norm=np.float64(np.linalg.norm(v)),
    )


def load_state(path):
    with np.load(path, allow_pickle=False) as z:
        if int(z["format_version"]) != SERIAL_FORMAT_VERSION:
            raise ValueError(f"unsupported state format {int(z['format_version'])}")
        v = z["amplitudes"]
        basis = z["basis"]
        norm = float(z["norm"])
    if abs(np.linalg.norm(v) - norm) > 1e-12 * max(1.0, norm):
        raise ValueError("stored norm disagrees with amplitudes")
    return v, basis


def save_operator(path, op: SparseOperator) -> None:
    """Versioned .npz dump of a sparse operator (COO triplets)."""
    coo = op.matrix.tocoo()
    np.savez(
        path,
        format_version=np.int64(SERIAL_FORMAT_VERSION),
        kind="operator",
        shape=np.array(coo.shape, dtype=np.int64),
        rows=coo.row.astype(np.int64),
        cols=coo.col.astype(np.int64),
        vals=coo.data.astype(np.complex128),
        dropped=np.int64(op.dropped),
    )


def load_operator(path) -> SparseOperator:
    with np.load(path, allow_pickle=False) as z:
        if int(z["format_version"]) != SERIAL_FORMAT_VERSION:
            raise ValueError(f"unsupported operator format {int(z['format_version'])}")
        shape = tuple(z["shape"])
        mat = sp.coo_matrix((z["vals"], (z["rows"], z["cols"])), shape=shape).tocsr()
        dropped = int(z["dropped"])
    return SparseOperator(mat, dropped)
