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
from functools import cached_property

import numpy as np

from . import assembly
from .algebra import OperatorExpr
from .modes import Mode, ModeSet, Species


_ONE, _ZERO = np.uint64(1), np.uint64(0)
# the bits of each byte value: _BYTE_BITS[v, i] is bit i of v
_BYTE_BITS = (np.arange(256)[:, None] >> np.arange(8) & 1).astype(bool)


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
        for name in ("n", "n_max", "charge"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, _integer(name, getattr(self, name)))
        if self.momentum is not None:
            object.__setattr__(self, "momentum",
                               tuple(_integer("momentum component", c) for c in self.momentum))
        counts = [c for c in (self.n, self.n_max) if c is not None]
        if any(c < 0 for c in counts):
            raise SectorError("particle counts must be >= 0")
        if self.charge is not None:
            cap = self.n if self.n is not None else self.n_max
            if cap is not None and abs(self.charge) > cap:
                raise SectorError(
                    f"|charge|={abs(self.charge)} unreachable with <= {cap} particles"
                )


def _integer(name: str, value) -> int:
    """``value`` as an int; a bool or a non-integer is a :class:`SectorError`."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise SectorError(f"sector {name} must be an integer, got {value!r}")
    return int(value)


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

    # with no momentum constraint the modes carry zero-component momenta:
    # then every key below is 0, and every pair of subsets matches
    free = sector.momentum is None
    want_p = np.array(() if free else sector.momentum, dtype=np.int64)
    momenta = np.array([() if free else mode.momentum for mode in modes], dtype=np.int64)
    if m == 0:
        momenta = momenta.reshape(0, want_p.size)
    if momenta.shape[1] != want_p.size:
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


class SparsityPattern:
    """Where the stored entries of an n x n sparse matrix are.

    The pattern is its ascending, unique entry keys ``row * n + col``; row i
    holds columns ``indices[indptr[i]:indptr[i+1]]``, ascending.  The index
    arrays derived from it are computed on first use and shared by every
    :class:`SparseOperator` stored on the pattern.
    """

    def __init__(self, keys: np.ndarray, n: int):
        self.keys = keys  # int64[nnz], strictly ascending
        self.n = n

    @cached_property
    def rows(self) -> np.ndarray:
        return self.keys // self.n

    @cached_property
    def indices(self) -> np.ndarray:
        return self.keys - self.rows * self.n

    @cached_property
    def indptr(self) -> np.ndarray:
        return np.searchsorted(self.keys, np.arange(self.n + 1, dtype=np.int64) * self.n)

    @cached_property
    def row_starts(self):
        """The rows that hold entries, and the position of each one's first
        entry: the segments ``np.add.reduceat`` sums over."""
        nonempty = np.flatnonzero(np.diff(self.indptr))
        return nonempty, self.indptr[nonempty]

    @cached_property
    def partner(self) -> np.ndarray:
        """Position of each entry's transpose (col, row), or -1 where the
        pattern has no such entry."""
        tkeys = self.indices * self.n + self.rows
        order = np.argsort(tkeys)
        out = np.full(self.keys.size, -1, dtype=np.int64)
        if np.array_equal(tkeys[order], self.keys):  # a symmetric pattern
            out[order] = np.arange(self.keys.size)
            return out
        pos, found = assembly.lookup(self.keys, tkeys[order])  # ascending needles search locally
        out[order[found]] = pos[found]
        return out

    @cached_property
    def on_diagonal(self) -> np.ndarray:
        """Positions of the diagonal entries."""
        return np.flatnonzero(self.rows == self.indices)

    @cached_property
    def unpaired(self) -> np.ndarray:
        """Positions of the entries whose transpose is not in the pattern."""
        return np.flatnonzero(self.partner < 0)


@dataclass(eq=False)
class SparseOperator:
    """A square matrix in compressed sparse row form: ``data`` in the entry
    order of its :class:`SparsityPattern`.

    ``data`` is float64 when the operator was built from real values (every
    imaginary part 0.0) and complex128 otherwise; any other dtype is cast to
    complex128.  Products, sums and the solvers follow that dtype with NumPy
    promotion, so a real Hamiltonian is handled in real arithmetic, and a
    sum with a complex operator is complex.

    ``dropped`` counts (term, source-state) images that fell outside the
    sector (the truncation-drop counter).  ``meta`` holds diagnostics, such
    as those :func:`ground_state` records; it takes no part in arithmetic.

    Operators add only when they are stored on the same pattern object, by
    adding their ``data``; :func:`to_matrices` puts several operators on one
    pattern.  The solvers check the Hermiticity of each operator they are
    given; the transpose map that check reads is cached on the pattern, so
    the operators of one pattern share it.
    """

    data: np.ndarray
    pattern: SparsityPattern
    dropped: int = 0
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.data = np.asarray(self.data)
        if self.data.dtype != np.float64:
            self.data = self.data.astype(np.complex128, copy=False)
        if self.data.shape != self.pattern.keys.shape:
            raise ValueError(
                f"{self.data.size} values for a pattern of {self.pattern.keys.size} entries"
            )

    @classmethod
    def from_dense(cls, a) -> "SparseOperator":
        """The nonzero entries of a square array; real when every entry's
        imaginary part is 0.0."""
        a = np.asarray(a)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        rows, cols = np.nonzero(a)
        pattern, (data,) = _sum_duplicates([(rows, cols, a[rows, cols])], a.shape[0])
        return cls(data, pattern)

    @property
    def dim(self) -> int:
        return self.pattern.n

    @property
    def nnz(self) -> int:
        return self.data.size

    def __matmul__(self, x) -> np.ndarray:
        x = np.asarray(x)
        if x.shape != (self.dim,):
            raise ValueError(f"cannot apply a {self.dim} x {self.dim} matrix to shape {x.shape}")
        out = np.zeros(self.dim, dtype=np.result_type(self.data, x))
        if self.nnz:
            nonempty, starts = self.pattern.row_starts
            # one nnz-sized buffer: gather x, then scale it by the entries in place
            prod = x.astype(out.dtype, copy=False)[self.pattern.indices]
            np.multiply(prod, self.data, out=prod)
            out[nonempty] = np.add.reduceat(prod, starts)
        return out

    def __add__(self, other: "SparseOperator") -> "SparseOperator":
        if not isinstance(other, SparseOperator):
            return NotImplemented
        if other.pattern is not self.pattern:
            raise ValueError("operators on different sparsity patterns do not add; "
                             "build them with one to_matrices call")
        return SparseOperator(self.data + other.data, self.pattern, self.dropped + other.dropped)

    def __mul__(self, z) -> "SparseOperator":
        return SparseOperator(self.data * z, self.pattern, self.dropped)

    def toarray(self) -> np.ndarray:
        out = np.zeros((self.dim, self.dim), dtype=self.data.dtype)
        out[self.pattern.rows, self.pattern.indices] = self.data
        return out

    def diagonal(self) -> np.ndarray:
        """The diagonal entries, 0 where none is stored."""
        on = self.pattern.on_diagonal
        out = np.zeros(self.dim, dtype=self.data.dtype)
        out[self.pattern.rows[on]] = self.data[on]
        return out

    def max_abs_entry(self) -> float:
        return float(np.abs(self.data).max()) if self.nnz else 0.0

    def norm_inf(self) -> float:
        """Largest absolute row sum."""
        if not self.nnz:
            return 0.0
        return float(np.add.reduceat(np.abs(self.data), self.pattern.row_starts[1]).max())

    def hermiticity_defect(self) -> float:
        """Largest entry of |A - A+|; an entry without a stored transpose
        partner counts with its own magnitude.

        The difference is formed in one gathered buffer; its entries at
        unpaired positions (where the gather read an arbitrary entry) are
        overwritten with A's own values before the maximum.
        """
        if not self.nnz:
            return 0.0
        diff = self.data[self.pattern.partner]
        if diff.dtype == np.complex128:
            np.conjugate(diff, out=diff)
        np.subtract(self.data, diff, out=diff)
        lone = self.pattern.unpaired
        diff[lone] = self.data[lone]
        return float(np.abs(diff).max())


def _require_hermitian(op: SparseOperator, message: str) -> None:
    """A ValueError with ``message`` and the defect unless ``op`` is
    Hermitian to 1e-12, by its own :meth:`SparseOperator.hermiticity_defect`
    (about one matrix-vector product once the pattern's transpose map is
    cached)."""
    defect = op.hermiticity_defect()
    if not defect <= 1e-12:
        raise ValueError(f"{message} (defect {defect:.3e})")


def _sum_duplicates(triplets, n: int):
    """One pattern holding every entry of the (rows, cols, vals) lists, and
    each list's values summed onto it.  Duplicates are added in input order
    by ``bincount``, real and imaginary parts apart.  A list whose values
    all have imaginary part 0.0 sums to float64 data, the real part of what
    the complex sum would give; any other list to complex128."""
    keys_in = [np.asarray(r, dtype=np.int64) * n + np.asarray(c, dtype=np.int64)
               for r, c, _ in triplets]
    keys, where = np.unique(np.concatenate(keys_in), return_inverse=True)
    where = where.ravel()
    sums, start = [], 0
    for k, (_, _, vals) in zip(keys_in, triplets):
        part, start = where[start:start + k.size], start + k.size
        vals = np.asarray(vals)
        data = np.bincount(part, vals.real, keys.size)
        if np.iscomplexobj(vals) and vals.imag.any():
            data = data.astype(np.complex128)
            data.imag = np.bincount(part, vals.imag, keys.size)
        sums.append(data)
    return SparsityPattern(keys, int(n)), sums


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
    return to_matrices([op], basis, modes)[0]


def sector_maps(modes: ModeSet) -> dict[str, tuple[list[int], int]]:
    """The maps of the mode set that commute with fockbox's Hamiltonians,
    by name: (perm, sign_mask), the map taking mode k to mode ``perm[k]``
    and multiplying the ladder operators of the modes in ``sign_mask`` by
    -1.  P, always: (species, spin, n) to (species, spin, -n), -1 per
    positron (its intrinsic parity).  In 1D also C: electron <-> positron
    at fixed spin and momentum, and S: spin 1 <-> 2, -1 per positron.  In
    3D, C and S do not commute with the Coulomb term; there the maps are
    the pi rotations Rx: (species, s, (x, y, z)) to (species, 3 - s,
    (x, -y, -z)), and Rz: (species, s, (x, y, z)) to (species, s, (-x, -y,
    z)), -1 per spin-2 mode.  A mode set that a map does not take onto
    itself is a :class:`SectorError` naming it."""
    positrons = sum(1 << k for k, m in enumerate(modes) if m.species is Species.POSITRON)
    other = {Species.ELECTRON: Species.POSITRON, Species.POSITRON: Species.ELECTRON}
    # each map on (species, spin, momentum)
    maps = {"P": (lambda sp, s, n: (sp, s, tuple(-c for c in n)), positrons)}
    if all(len(m.momentum) == 1 for m in modes):
        maps["C"] = (lambda sp, s, n: (other[sp], s, n), 0)
        maps["S"] = (lambda sp, s, n: (sp, 3 - s, n), positrons)
    elif all(len(m.momentum) == 3 for m in modes):
        spin2 = sum(1 << k for k, m in enumerate(modes) if m.spin == 2)
        maps["Rx"] = (lambda sp, s, n: (sp, 3 - s, (n[0], -n[1], -n[2])), 0)
        maps["Rz"] = (lambda sp, s, n: (sp, s, (-n[0], -n[1], n[2])), spin2)
    index = {(m.species, m.spin, m.momentum): k for k, m in enumerate(modes)}
    out = {}
    for name, (f, mask) in maps.items():
        images = [f(m.species, m.spin, m.momentum) for m in modes]
        missing = [Mode(*t) for t in images if t not in index]
        if missing:
            raise SectorError(f"{name} image {missing[0]} not in mode set")
        out[name] = [index[t] for t in images], mask
    return out


def map_images(basis: np.ndarray, perm, sign_mask: int, name: str):
    """The image of each basis state under the map (perm, sign_mask) of
    :func:`sector_maps`: (index, sign) arrays with
    G |basis[i]> = sign[i] |basis[index[i]]>, sign a float64 +-1.

    G c+_{a1} ... c+_{am} |0> is (-1)^(occupied modes in ``sign_mask``)
    times the creators of the image modes, and putting those in ascending
    order gives (-1)^(inversions): the occupied pairs a < b whose images
    are in the opposite order.  A state whose image is not in the basis
    (a P != 0 block under P, a charge != 0 block under C) is a
    :class:`SectorError` that names the map ``name`` and the state.

    The inversions of a state s are the sum over its modes k of
    popcount(s & later[k]), later[k] the modes above k whose images are
    below k's; their parity is that of popcount(s & x), x the XOR of those
    later[k].  The image and x are each a XOR over the modes of s, so both
    are read from one 256-entry table per byte of s.
    """
    basis = np.asarray(basis, dtype=np.uint64)
    m = len(perm)
    k = np.arange(m, dtype=np.uint64)
    to = np.asarray(perm, dtype=np.uint64)
    # per mode k: the bit of its image, and later[k]
    per_mode = np.zeros((2, -(-m // 8) * 8), dtype=np.uint64)
    per_mode[0, :m] = _ONE << to
    per_mode[1, :m] = np.bitwise_or.reduce(
        np.where((k > k[:, None]) & (to < to[:, None]), _ONE << k, _ZERO), axis=1)
    # tables[:, b, v]: the XOR of per_mode over the modes set in value v of byte b
    tables = np.bitwise_xor.reduce(
        np.where(_BYTE_BITS, per_mode.reshape(2, -1, 1, 8), _ZERO), axis=3)
    image, x = np.zeros_like(basis), np.zeros_like(basis)
    for b in range(tables.shape[1]):
        byte = ((basis >> np.uint64(8 * b)) & np.uint64(255)).astype(np.intp)
        image ^= tables[0, b][byte]
        x ^= tables[1, b][byte]
    # masked modes plus inversions: its lowest bit is the sign
    odd = np.bitwise_count(basis & np.uint64(sign_mask)) + np.bitwise_count(basis & x)
    index, found = assembly.lookup(basis, image)
    if not found.all():
        raise SectorError(f"{name} image {int(image[~found][0]):#x} of state "
                          f"{int(basis[~found][0]):#x} is not in the basis")
    return index, 1.0 - 2.0 * (odd & 1)


def _symmetric_sector(basis: np.ndarray, modes: ModeSet):
    """The sector of ``basis`` that the maps of :func:`sector_maps` fix:
    (weight, to_sector, n).

    The maps' images (:func:`map_images`) are composed into the group G
    they generate on the basis: 8 elements on even particle numbers, from
    P, C and S in 1D and from P, Rx and Rz in 3D.  PC and CP (in 3D, RxRz
    and RzRx) differ by (-1)^N, so a basis with odd N gives 16, and its
    odd-N states drop out.  A state's orbit O has the smallest index as its
    representative, and c, the sign of the element that takes the state
    there.  An orbit drops out when an element that fixes its states has
    sign -1; each other orbit gives one sector state, sum_O c |s> /
    sqrt(|O|), in the basis order of the representatives.  A basis none of
    whose orbits is left (one of odd N only, such as a charge -1 block in
    3D) is a :class:`SectorError` that names the maps, and so is an empty
    basis, named as such.

    ``weight`` marks the source columns as
    :func:`~fockbox.assembly.assemble` weights: |O| on each
    representative, dropped orbits too, and 0 elsewhere.

    ``to_sector(rows, cols, vals)`` maps one operator's triplets onto the
    sector.  As H commutes with G, entry (r, b) of a representative column
    b goes to row rep(r), times c(r) sqrt(|O(b)| / |O(rep(r))|).  For the
    group {1, P} that is the weight 2/1/0 and the factor sqrt(2) of a pair.
    """
    n = basis.size
    maps = sector_maps(modes)
    gens = [map_images(basis, *g, name) for name, g in maps.items()]
    group, todo = {}, [(np.arange(n), np.ones(n))]
    while todo:  # every product of the generators, each once
        index, sign = todo.pop()
        key = index.tobytes() + sign.tobytes()
        if key not in group:
            group[key] = index, sign
            todo += [(g[index], sign * s[index]) for g, s in gens]
    own = np.arange(n)
    rep, stab, drop = own.copy(), np.zeros(n, dtype=np.int64), np.zeros(n, dtype=bool)
    for index, sign in group.values():
        np.minimum(rep, index, out=rep)
        fixed = index == own
        stab += fixed
        drop |= fixed & (sign < 0)
    c = np.ones(n)
    for index, sign in group.values():
        c = np.where(index == rep, sign, c)
    size = len(group) // stab
    is_rep = (rep == own) & ~drop
    if not is_rep.any():
        why = ("each state is fixed with sign -1 by an element of their group" if n
               else "the basis has no states")
        raise SectorError(f"the sector that {', '.join(maps)} fix is empty on this basis: {why}")
    pos = np.cumsum(is_rep) - 1
    rho = np.sqrt(size)
    row_factor = c / rho[rep]

    def to_sector(rows, cols, vals):
        keep = is_rep[cols] & ~drop[rows]
        r, b = rows[keep], cols[keep]
        return pos[rep[r]], pos[b], vals[keep] * (row_factor[r] * rho[b])

    weight = np.where(rep == own, size, 0).astype(np.uint8)
    return weight, to_sector, int(np.count_nonzero(is_rep))


def to_matrices(ops, basis: np.ndarray, modes: ModeSet,
                symmetric: bool = False) -> list[SparseOperator]:
    """:func:`to_matrix` of each operator, all stored on one sparsity
    pattern, the union of theirs (an operator holds explicit zeros where
    only others have entries).  Operators add only on one pattern, so the
    terms of a sum come from one call; sums of them and of their multiples
    add ``data`` arrays and share the pattern's index arrays.  Each
    operator's entries carry the bits :func:`to_matrix` gives it alone, and
    its own dtype: float64 when every value assembled for it has imaginary
    part 0.0 (as for every 1D Hamiltonian), complex128 otherwise.  No
    operators give an empty list.

    With ``symmetric``, the operators, which must commute with the maps of
    :func:`sector_maps` (P, and C and S in 1D, Rx and Rz in 3D), come
    back on the sector of ``basis`` that those maps fix, the vacuum's (see
    :func:`_symmetric_sector`); a basis a map does not preserve (a block
    of total momentum P != 0 or, in 1D, of charge != 0) is a
    :class:`SectorError` that names the map and a state, and so is a basis
    that leaves the sector empty.  Only one source column per orbit is
    assembled (the orbits that drop out included), about 1/4 of the basis
    on the defaults and towards 1/8 on large blocks, so the assembly's
    work follows them.
    ``dropped`` is still the whole basis's count: an orbit's drops count
    |orbit| times on its source column, which is exact when an operator's
    term set maps onto itself under each map."""
    basis = np.asarray(basis, dtype=np.uint64)
    if basis.size and np.any(basis[1:] <= basis[:-1]):
        raise SectorError("basis must be strictly ascending")
    if basis.size and int(basis[-1]) >> len(modes):
        raise SectorError(
            f"basis state {int(basis[-1]):#x} occupies a mode beyond the {len(modes)} modes"
        )
    weight, to_sector, n = _symmetric_sector(basis, modes) if symmetric else (None, None, basis.size)
    triplets, dropped = [], []
    for op in ops:
        if isinstance(op, OperatorExpr):
            op = pack(op, modes)
        elif op.modes != modes:
            raise SectorError(
                f"operator was packed over a different mode set ({op.modes}, not {modes})"
            )
        rows, cols, vals, drops = assembly.assemble(op.coeffs, op.opcodes, op.nops, basis, weight)
        triplets.append((rows, cols, vals) if to_sector is None else to_sector(rows, cols, vals))
        dropped.append(int(drops))
    if not triplets:
        return []
    pattern, data = _sum_duplicates(triplets, n)
    return [SparseOperator(d, pattern, k) for d, k in zip(data, dropped)]


def basis_index(basis: np.ndarray, occupancies) -> np.ndarray:
    """Index in the ascending ``basis`` of each occupation pattern, in the
    shape of ``occupancies``; a pattern outside the basis is a
    :class:`SectorError` that names the first one."""
    occupancies = np.asarray(occupancies, dtype=np.uint64)
    pos, found = assembly.lookup(basis, occupancies)
    if not found.all():
        raise SectorError(f"occupancy {int(occupancies[~found][0]):#x} outside basis")
    return pos


def state_vector(amplitudes: dict[int, complex], basis: np.ndarray) -> np.ndarray:
    """Dense amplitude vector on the basis from an occupancy->amplitude map.

    Occupancies outside the basis are an error (use a basis that contains
    the support of the state).
    """
    v = np.zeros(len(basis), dtype=np.complex128)
    v[basis_index(basis, list(amplitudes))] = list(amplitudes.values())
    return v


# Davidson settings of ground_state: the residual it converges to, relative
# to ||H||_inf; the most basis vectors kept before a restart; the most restarts
DAVIDSON_RTOL = 1e-13
DAVIDSON_BASIS = 20
DAVIDSON_RESTARTS = 100


def ground_state(op: SparseOperator, v0: np.ndarray):
    """Lowest eigenpair (energy, vector) of a Hermitian operator, from the
    start vector ``v0`` (such as a bare state, or the ground state of a
    nearby Hamiltonian); the same ``v0`` gives the same bits.

    Davidson's method, with the diagonal of H as preconditioner, restarted
    from the lowest Ritz vectors whenever the basis reaches
    ``DAVIDSON_BASIS`` vectors, until the residual ||Hv - Ev|| falls to
    ``DAVIDSON_RTOL * ||H||_inf``; see :func:`_davidson_lowest`.
    The operator must be Hermitian to 1e-12, checked once per call by its
    :meth:`SparseOperator.hermiticity_defect`; ``v0`` must be a finite,
    nonzero vector of length ``op.dim``.  The arithmetic runs in the dtype
    of the operator's data and the start vector together
    (``np.result_type``), so a real symmetric operator with a real
    start gives a real vector.  The energy and the residual come from one
    fresh product H v of the returned vector; the residual
    ||Hv - Ev|| <= 1e-8 * ||H||_inf is verified before returning (a NaN
    residual fails), and the phase is fixed: the largest entry of the vector
    is real and positive.

    The solver's diagnostics go to ``op.meta["ground_state"]``: the solver
    (``"davidson"``), the dtype of its arithmetic, the steps (basis vectors
    built), restarts, matrix-vector products and the final residual.
    """
    _require_hermitian(op, "operator is not Hermitian")
    n = op.dim
    if n == 0:
        raise ValueError("empty sector has no ground state")
    hnorm = max(1.0, op.norm_inf())
    v0 = np.asarray(v0)
    v0 = v0.astype(np.result_type(op.data, v0), copy=False)
    if v0.shape != (n,) or not np.isfinite(v0).all() or not np.linalg.norm(v0) > 0:
        raise ValueError(f"start vector must be a finite, nonzero vector of length {n}")
    energy, vec, stats = _davidson_lowest(op, v0, DAVIDSON_RTOL * hnorm)
    op.meta["ground_state"] = {"solver": "davidson", "dtype": v0.dtype.name, **stats}
    if not stats["residual"] <= 1e-8 * hnorm:
        raise RuntimeError(f"eigensolver residual {stats['residual']:.3e} exceeds 1e-8*||H||")
    # fix the overall phase for reproducibility: largest entry made real positive
    k = int(np.argmax(np.abs(vec)))
    phase = vec[k] / abs(vec[k])
    vec = vec / phase
    vec /= np.linalg.norm(vec)
    return energy, vec


def _davidson_lowest(h: SparseOperator, v: np.ndarray, tol: float):
    """Lowest eigenpair of Hermitian ``h`` from start vector ``v``: returns
    (energy, unit vector, stats).

    Each step adds one vector to an orthonormal basis V, applies H to it and
    adds a column to the projected matrix V+ H V, whose lowest eigenpair
    (theta, s) gives the Ritz vector x = V s.  The explicit residual
    r = (HV) s - theta x is tested at every step.  The next vector is the
    correction t = r / (diag(H) - sigma), orthogonalized against V, with
    sigma = min(theta, min diag(H)) - ||r||, so that diag(H) - sigma is
    positive.  Should t fall into the span of V, r itself (orthogonal to V)
    takes its place; should r fall into it too, V spans an invariant
    subspace to rounding and the loop stops.  A basis of ``DAVIDSON_BASIS``
    vectors is restarted from its lowest third of Ritz vectors (at least
    one), whose projected matrix is diagonal.  The loop ends once
    ||r|| <= ``tol`` or at ``DAVIDSON_RESTARTS`` restarts.  The returned
    energy and ``stats["residual"]`` come from one fresh product H x.

    The basis is kept in the dtype of ``v`` (float64 for a real operator
    and start, complex128 otherwise), each vector as a row next to its
    product with H.  Projections on the basis are row-by-row dot products
    (``np.vecdot``), which NumPy runs as single-threaded BLAS calls for rows
    up to 10^4 entries, and combinations of its rows go through
    ``np.einsum``, which calls no BLAS.  A matrix-vector product with the
    basis would go to multithreaded BLAS, which between matrix products in a
    fresh process took about 1 ms a call on a 2-core machine, ten times the
    single-threaded time.
    """
    n = v.shape[0]
    m_max = min(DAVIDSON_BASIS, n)
    diag = h.diagonal().real
    dmin = diag.min()
    basis = np.empty((m_max, 2, n), dtype=v.dtype)  # basis[j] = (V[j], (HV)[j])
    g = np.empty((m_max, m_max), dtype=v.dtype)  # V+ H V
    coef = np.empty((m_max, 2), dtype=v.dtype)
    stats = {"steps": 0, "restarts": 0}
    t, k = v / np.linalg.norm(v), 0
    while True:
        basis[k, 0] = t
        basis[k, 1] = h @ t
        g[: k + 1, k] = np.vecdot(basis[: k + 1, 0], basis[k, 1])
        g[k, :k] = g[:k, k].conj()
        k += 1
        stats["steps"] += 1
        theta, y = np.linalg.eigh(g[:k, :k])
        coef[:k, 0], coef[:k, 1] = -theta[0] * y[:, 0], y[:, 0]
        r = np.einsum("ji,j->i", basis[:k].reshape(2 * k, n), coef[:k].ravel())
        norm_r = np.linalg.norm(r)
        if norm_r <= tol or stats["restarts"] == DAVIDSON_RESTARTS:
            break
        sigma = min(theta[0], dmin) - norm_r
        # the correction, or r should the correction fall into the span of V
        for t in (r / (diag - sigma), r):
            start = before = np.linalg.norm(t)
            for _ in range(3):  # Gram-Schmidt, again while a pass cancels most of t
                t -= np.einsum("ji,j->i", basis[:k, 0], np.vecdot(basis[:k, 0], t))
                b = np.linalg.norm(t)
                if b > 0.7 * before:
                    break
                before = b
            if b > 1e-12 * start:
                break
        else:  # V spans an invariant subspace to rounding
            break
        t /= b
        if k == m_max:
            k = max(1, m_max // 3)
            basis[:k] = np.einsum("jab,jp->pab", basis[:m_max], y[:, :k])
            g[:k, :k] = np.diag(theta[:k])
            stats["restarts"] += 1
    x = np.einsum("ji,j->i", basis[:k, 0], y[:, 0])
    x /= np.linalg.norm(x)
    hx = h @ x
    stats["matvecs"] = stats["steps"] + 1
    energy = float(np.vdot(x, hx).real)
    stats["residual"] = float(np.linalg.norm(hx - energy * x))
    return energy, x, stats


def evolve(op: SparseOperator, v: np.ndarray, t: float, dt: float, hbar: float = 1.0):
    """The trajectory of v under exp(-i H t / hbar): an (n, dim) array whose
    row k holds the state at time (k + 1) t / n, for n = ceil(t / dt) equal
    steps, at least one when t > 0 (so the last row is the state at t, and
    t = 0 gives no rows).

    One dense ``eigh`` per call gives H = U diag(w) U+, and each step
    applies the exact propagator v -> U (exp(-i w t / (n hbar)) U+ v).  The
    one-electron sectors have at most a few dozen states, where this is
    both exact and cheap.  A real operator is diagonalized as a real
    symmetric matrix; the trajectory is complex128 either way.  ``hbar``
    must be finite and > 0.

    ``op.meta["evolve"]`` records the dimension and the number of steps.
    """
    if not dt > 0:
        raise ValueError("dt must be positive")
    if not t >= 0:
        raise ValueError("t must be >= 0")
    if not np.isfinite(t / dt):
        raise ValueError(f"t / dt must be finite, got t={t!r} and dt={dt!r}")
    if not 0 < hbar < np.inf:
        raise ValueError(f"hbar must be finite and > 0, got {hbar!r}")
    _require_hermitian(op, "evolution requires a Hermitian operator")
    v = np.asarray(v, dtype=np.complex128)
    dim = op.dim
    if v.shape != (dim,):
        raise ValueError("state/operator dimension mismatch")
    n = max(1, int(np.ceil(t / dt - 1e-12))) if t else 0
    op.meta["evolve"] = {"dim": dim, "steps": n}
    out = np.empty((n, dim), dtype=np.complex128)
    if n:
        w, u = np.linalg.eigh(op.toarray())
        u = u.astype(np.complex128, copy=False)  # once, not in every step's product
        step = t / n
        phase = np.exp(-1j * w * (step / hbar))
        uh = u.conj().T
        for k in range(n):
            v = out[k] = u @ (phase * (uh @ v))
        if not np.all(np.isfinite(out)):
            raise FloatingPointError("non-finite amplitudes during evolution")
    return out


def expectation(op: SparseOperator, v: np.ndarray) -> complex:
    """<v| A |v> (no normalization applied)."""
    v = np.asarray(v, dtype=np.complex128)
    if v.shape[0] != op.dim:
        raise ValueError("state/operator dimension mismatch")
    return complex(np.vdot(v, op @ v))

