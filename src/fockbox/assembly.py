"""Sparse matrix assembly of packed ladder strings on a bitmask basis.

Read right to left, every factor of a ladder string fixes the occupation its
mode must have in the state s it acts on (an annihilator needs the mode
occupied, a creator needs it empty, each after the flips of the factors to
its right).  So any string, in any order, reduces to four masks

    need1  modes that must be occupied in s
    need0  modes that must be empty in s
    flip   modes the string toggles
    below  XOR of the below-masks (modes of lower index) of its factors

plus a constant sign bit ``odd``: on a state with ``s & need1 == need1`` and
``s & need0 == 0`` the image is ``s ^ flip`` with sign
``(-1) ** (odd + popcount(s & below))``.  A string whose constraints
contradict each other (``c_k c_k``) never acts and is dropped at once.

Terms are grouped by ``need1``.  A state is paired only with the terms whose
``need1`` is a subset of its occupied modes, found by looking up the
subsets of those modes of each size that occurs among the groups.  The work
therefore follows the (term, state) pairs that survive ``need1``, that is
nnz + drops + ``need0`` misses, not terms x states.

Only the source columns are paired: the states of nonzero weight, such as
one state of each orbit of a symmetry, while the images are looked up in
the whole basis.  So the work also follows the source columns, not the
basis.  A source column's drops count its weight times; with each orbit's
size as the weight of its one source column, ``dropped`` stays the whole
basis's count, as long as the term set maps onto itself under the symmetry.

A term changes the particle number by ``dN = popcount(flip & need0) -
popcount(flip & need1)``, so its image of a state holding N particles holds
N + dN.  No basis state holds more than the basis's cap, the largest
particle number in it, so a pair with N + dN above the cap can only be a
drop.  The states of each group are listed by particle number, which makes
the pairs within the cap a prefix of each term's list: only those reach the
image lookup, while the rest are only tested against ``need0`` and counted.
In the vacuum block most pairs are of the second kind.
"""

from __future__ import annotations

from itertools import combinations
from math import comb

import numpy as np

_ONE = np.uint64(1)

# (term, state) candidate pairs handled per block of consecutive terms; it
# bounds the kernel's scratch memory independently of nnz + drops
BLOCK = 1 << 16


def _reduce_terms(opcodes, nops):
    """Per-term masks (need1, need0, flip, below, odd, live) of the ladder
    strings, one vectorized pass per factor column, right to left."""
    nt = opcodes.shape[0]
    need1 = np.zeros(nt, dtype=np.uint64)
    need0 = np.zeros(nt, dtype=np.uint64)
    flip = np.zeros(nt, dtype=np.uint64)
    below = np.zeros(nt, dtype=np.uint64)
    odd = np.zeros(nt, dtype=np.uint8)
    live = np.ones(nt, dtype=bool)
    zero = np.uint64(0)
    for j in range(opcodes.shape[1] - 1, -1, -1):
        on = j < nops
        code = np.where(on, opcodes[:, j], 0)
        bit = np.where(on, _ONE << (code >> 1).astype(np.uint64), zero)
        low = np.where(on, bit - _ONE, zero)
        # occupation of the mode this factor needs in s: flips to its right
        # invert what it needs in the current state
        occupied = ((code & 1) == 0) ^ ((flip & bit) != 0)
        live &= np.where(occupied, need0 & bit, need1 & bit) == 0
        need1 |= np.where(occupied, bit, zero)
        need0 |= np.where(occupied, zero, bit)
        # popcount((s ^ flip) & low) = popcount(s & low) + popcount(flip & low) mod 2
        odd ^= np.bitwise_count(flip & low) & 1
        below ^= low
        flip ^= bit
    return need1, need0, flip, below, odd, live


def _states_by_group(groups, basis, count, cols):
    """CSR lists of the source states ``cols`` holding each group mask:
    returns (ptr, states), the basis indices of group g's states being
    ``states[ptr[g]:ptr[g+1]]`` in order of particle number ``count``,
    ascending within one number."""
    top = int(count.max(initial=0))
    sub, sub_count = basis[cols], count[cols]
    # occupied modes of each source state in ascending order, lowest set bit first
    modes = np.zeros((sub.size, top), dtype=np.uint64)
    rest = sub.copy()
    for i in range(modes.shape[1]):
        low = rest & (~rest + _ONE)
        modes[:, i] = np.bitwise_count(low - _ONE)
        rest ^= low
    sizes = np.flatnonzero(np.bincount(np.bitwise_count(groups)))
    pair_group = [np.zeros(0, dtype=np.intp)]
    pair_state = [np.zeros(0, dtype=np.intp)]
    for n in np.flatnonzero(np.bincount(sub_count)):
        where = np.flatnonzero(sub_count == n)
        states = cols[where]
        bits = _ONE << modes[where, :n]
        for p in sizes[sizes <= n]:
            subsets = np.array(list(combinations(range(n), p)), dtype=np.intp)
            subsets = subsets.reshape(comb(n, p), p)
            masks = np.zeros((states.size, subsets.shape[0]), dtype=np.uint64)
            for j in range(p):
                masks |= bits[:, subsets[:, j]]
            g, hit = lookup(groups, masks)
            pair_group.append(g[hit])
            pair_state.append(np.broadcast_to(states[:, None], masks.shape)[hit])
    pair_group = np.concatenate(pair_group)
    pair_state = np.concatenate(pair_state)
    # a state holds a group mask at most once, so the sort keys are distinct
    order = np.argsort((pair_group * (top + 1) + count[pair_state]) * basis.size + pair_state)
    ptr = np.zeros(groups.size + 1, dtype=np.int64)
    np.cumsum(np.bincount(pair_group, minlength=groups.size), out=ptr[1:])
    return ptr, pair_state[order].astype(np.int32)


def _blocks(first, cnt):
    """The (term, position) pairs in term-major order, term t taking the
    positions ``first[t] .. first[t] + cnt[t] - 1``, in blocks of whole
    terms of about ``BLOCK`` pairs: yields (term, position) arrays."""
    ends = np.cumsum(cnt)
    shift = ends - cnt - first  # pair i of the run sits at position i - shift[t]
    t0 = 0
    while t0 < cnt.size:
        base = ends[t0] - cnt[t0]
        t1 = max(t0 + 1, int(np.searchsorted(ends, base + BLOCK, side="right")))
        total = int(ends[t1 - 1] - base)
        if total:
            c = cnt[t0:t1]
            term = np.repeat(np.arange(t0, t1, dtype=np.int32), c)
            yield term, np.arange(base, base + total) - np.repeat(shift[t0:t1], c)
        t0 = t1


def _candidates(need1, need0, flip, live, basis, cols):
    """The (term, state) pairs that pass ``need1``, for the source states
    ``cols`` (ascending basis indices), split at the cap.

    Returns (states, first, within, over): ``states`` lists basis indices;
    term t's pairs within the cap take ``states[first[t] : first[t] +
    within[t]]``, and the ``over[t]`` pairs after them would have images
    above the cap, the largest particle number in ``basis``.
    """
    count = np.bitwise_count(basis)
    cap = int(count.max(initial=0))
    groups, group_of = np.unique(need1, return_inverse=True)
    ptr, states = _states_by_group(groups, basis, count, cols)
    # a group's states by particle number: term t keeps those with at most
    # cap - dN particles, a prefix of its group's list
    key = np.repeat(np.arange(groups.size, dtype=np.int64) * (cap + 1), ptr[1:] - ptr[:-1])
    key += count[states]
    dn = (np.bitwise_count(flip & need0).astype(np.int64)
          - np.bitwise_count(flip & need1))
    # -1: no state keeps its image within the cap
    room = np.minimum(np.maximum(cap - dn, -1), cap)
    first = ptr[group_of]
    end = np.searchsorted(key, group_of * (cap + 1) + room, side="right")
    within = np.where(live, end - first, 0)
    over = np.where(live, ptr[group_of + 1] - end, 0)
    return states, first, within, over


def lookup(keys, needles):
    """Where ``needles`` sit in the ascending ``keys``: returns (pos, found),
    both of the shape of ``needles``.  Where ``found``, ``pos`` is the
    needle's index in ``keys``; elsewhere it is some index into ``keys``
    (0 when ``keys`` is empty)."""
    pos = np.minimum(np.searchsorted(keys, needles), max(keys.size - 1, 0))
    return pos, keys[pos] == needles if keys.size else np.zeros(pos.shape, dtype=bool)


def assemble(coeffs, opcodes, nops, basis, weight=None):
    """Apply packed ladder strings to the source columns of the basis.

    Parameters
    ----------
    coeffs : complex128[nt]
        Term coefficients.
    opcodes : int32[nt, kmax]
        Per-term factor codes ``mode_index*2 + create``, applied right to
        left (operator order), padded with -1.
    nops : int32[nt]
        Number of valid codes per term.
    basis : uint64[nb]
        Occupancy bit patterns, strictly ascending.
    weight : non-negative int[nb], optional
        Each column's multiplicity.  The source columns are those of
        nonzero weight, and a drop from column c counts ``weight[c]`` times.
        By default every column is a source of weight 1.

    Returns
    -------
    rows, cols : int64 arrays
    vals : complex128 array
        Triplets of the source columns in term-major order: term by term,
        and within a term by the particle number of the column, then by
        column.  Each value is ``coeffs[t] * sign`` with ``sign`` an int8
        of +-1.
    dropped : int
        Weighted count of the (term, source column) pairs on which the term
        acts but whose image falls outside the basis.

    The kernel's work follows the source columns, while the images are
    looked up in the whole basis.  An orbit's size as the weight of its one
    source column keeps ``dropped`` the whole basis's count (module
    docstring).

    The cap is the largest particle number in ``basis``.  A pair whose image
    would hold more particles than the cap is a drop when the term acts on
    the state (it passes ``need0``); it is counted there and never reaches
    the image lookup, the sign or the triplets, so ``dropped`` is the same
    count as when every image is looked up.
    """
    coeffs = np.ascontiguousarray(coeffs, dtype=np.complex128)
    basis = np.ascontiguousarray(basis, dtype=np.uint64)
    nb, nt = basis.size, coeffs.size
    empty = (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64),
             np.zeros(0, dtype=np.complex128), 0)
    if nb == 0 or nt == 0:
        return empty
    opcodes = np.ascontiguousarray(opcodes, dtype=np.int32).reshape(nt, -1)
    nops = np.ascontiguousarray(nops, dtype=np.int32)
    weight = np.ones(nb, dtype=np.uint8) if weight is None else np.asarray(weight)

    need1, need0, flip, below, odd, live = _reduce_terms(opcodes, nops)
    states, first, within, over = _candidates(need1, need0, flip, live, basis,
                                              np.flatnonzero(weight))
    source, mult = basis[states], weight[states]

    dropped = 0
    for term, pos in _blocks(first + within, over):
        dropped += int(mult[pos][(source[pos] & need0[term]) == 0].sum())

    rows_out, cols_out, vals_out = [empty[0]], [empty[1]], [empty[2]]
    for term, pos in _blocks(first, within):
        col, state = states[pos], source[pos]
        acts = (state & need0[term]) == 0
        term, col, state = term[acts], col[acts], state[acts]
        image = state ^ flip[term]
        row, found = lookup(basis, image)
        dropped += int(weight[col[~found]].sum())
        term, col, row, state = term[found], col[found], row[found], state[found]
        parity = (np.bitwise_count(state & below[term]) ^ odd[term]) & 1
        rows_out.append(row)
        cols_out.append(col.astype(np.int64))
        vals_out.append(coeffs[term] * (1 - 2 * parity.astype(np.int8)))

    return (np.concatenate(rows_out), np.concatenate(cols_out),
            np.concatenate(vals_out), dropped)
