"""Hamiltonian projection onto configuration bases, and expansion.

A basis is a sorted, duplicate-free uint64 array of packed configurations.
The projection is row-wise, at linear cost, and an update of an earlier
projection (of the empty basis when there is none): it looks up members'
images under the Hamiltonian's x-mask groups and writes each group's net
element on the image into the member's row of a CSR matrix, in place and
in the Hamiltonian's dtype (real when H is).  One rule picks how the
images are looked up, and one fill writes the CSR.  The pass over every
group looks each pair {x, x ^ x_g} up once, from one member's sign pass,
and walks the groups twice, first to count each row's entries, so the CSR
is allocated at its exact size, then to fill it.  The all-pairs oracle it
is tested against lives with the tests.  Expansion (connected_bits, the
pool filter and the reachable closure) walks the off-diagonal groups one
at a time and keeps only the members with a nonzero net element, so it
never holds a groups x members array.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .paulis import PauliSum, check_basis, group_elements, index_in, pair_elements, unique_bits
from .trace import BudgetExceeded

if TYPE_CHECKING:
    import scipy.sparse as sp

ZERO_TOL = 1e-14
_LOOKUP_BLOCK = 1 << 16  # cap on the (groups x new members) images looked up per block
_UPDATE_MAX_NEW = 2 / 3  # measured break-even share of new members, lookup against group pass


@dataclass
class ProjectedMatrix:
    """H_B = Pi_B H Pi_B in compressed sparse row storage."""

    dim: int
    rows: sp.csr_matrix


def project_fast(h: PauliSum, bits: np.ndarray,
                 prev: tuple[np.ndarray, sp.csr_matrix] | None = None) -> ProjectedMatrix:
    """Row-wise projection onto the basis `bits`, written straight into
    CSR in h's dtype, as an update of `prev = (old_bits, old_rows)`, an
    earlier projection of the same H; without `prev`, of the projection
    onto the empty basis.  The result is the same matrix, bit for bit,
    whatever `prev` is.  An entry <x_i|H|x_j> is the net element D_g(x_j)
    of the x-mask group g with x_i ^ x_j = x_g, on the column's
    configuration (no Hermiticity is assumed), and is dropped below
    ZERO_TOL.

    The block among members of both bases is copied from `old_rows`, and
    the rest comes from the new members' images, looked up block by block
    (`_new_entries`) and held as pieces of index dtype, each holding its
    entries in row order.  A new member costs that lookup more than a
    member costs its share of one pass over every group
    (`_group_entries`), so the pass is taken instead when more than
    `_UPDATE_MAX_NEW` of the members are new and their images fill more
    than two lookup blocks.  The pass looks each pair {x, x ^ x_g} up
    once, from its member whose bit at x_g's highest set bit is clear,
    and walks the groups twice: the first walk keeps the pairs and counts
    each row's entries, and the second recomputes one group's elements at
    a time.  Either way the counts give `indptr`, `indices` and `data`
    are allocated at their exact size, one loop fills the pieces in
    place, and each row is sorted by column at the end."""
    import scipy.sparse as sp  # on first use: generate, verify and info never load SciPy

    check_basis(h, bits)
    dim, groups = bits.size, h.x_groups[0].size
    idx = _index_dtype(dim, groups)
    old = np.zeros(dim, dtype=bool)
    if prev is not None:
        at = index_in(bits, prev[0]).astype(idx)  # each old member's index in bits, or -1
        old[at[at >= 0]] = True
    new = dim - np.count_nonzero(old)
    if new > _UPDATE_MAX_NEW * dim and new * groups > 2 * _LOOKUP_BLOCK:
        counts, pieces = _group_entries(h, bits, idx)
    else:
        held = _new_entries(h, bits, old, idx)
        if prev is not None:
            held.append(_shared_entries(prev[1], at))
        counts = np.zeros(dim, dtype=idx)
        for r, n, _, _ in held:
            counts[r] += n
        pieces = (held.pop() for _ in range(len(held)))  # released as the CSR fills
    indptr = np.zeros(dim + 1, dtype=idx)
    np.cumsum(counts, out=indptr[1:])
    indices = np.empty(indptr[-1], dtype=idx)
    data = np.empty(indptr[-1], dtype=h.dtype)
    fill = indptr[:-1].copy()  # each row's next free slot
    for r, n, cols, vals in pieces:
        slot = fill[r]
        if cols.size > r.size:  # a row with several entries: add each entry's rank in it
            slot = np.repeat(slot - np.cumsum(n, dtype=idx) + n, n)
            slot += np.arange(cols.size, dtype=idx)
        indices[slot] = cols
        data[slot] = vals
        fill[r] += n
    m = sp.csr_matrix((data, indices, indptr), shape=(dim, dim))
    m.sort_indices()
    return ProjectedMatrix(dim, m)


def _index_dtype(dim: int, groups: int):
    """int32 indices, as SciPy would choose, whenever nnz <= dim * groups fits."""
    return np.int32 if dim * groups <= np.iinfo(np.int32).max else np.int64


def _group_entries(h: PauliSum, bits: np.ndarray, idx):
    """(counts, pieces): each row's number of entries of H projected onto
    `bits`, and a generator of those entries as pieces (rows, 1, cols,
    values) of index dtype `idx`.

    Each pair {x, x ^ x_g} in the basis is looked up once, from its member
    x whose bit at x_g's highest set bit is clear, and both its entries
    come from x's one sign pass (`pair_elements`): (x ^ x_g, x) is D_g(x)
    and (x, x ^ x_g) is D_g(x ^ x_g).  The diagonal group's pairs are the
    members themselves.  The first walk, here, keeps each group's pairs
    that have an element of at least ZERO_TOL and counts the rows' kept
    entries; the generator recomputes the kept pairs' elements one group
    at a time, so besides the CSR only the pairs and one group's elements
    are alive.  A group gives each row at most one column, and distinct
    groups distinct columns, so no entry comes twice."""
    counts = np.zeros(bits.size, dtype=idx)
    pairs, top = [], -1
    for g, x in enumerate(h.x_groups[0].tolist()):
        if x.bit_length() != top:  # x-masks ascend: groups sharing a highest bit are adjacent
            top = x.bit_length()
            lower = np.flatnonzero((bits & np.uint64((1 << top) >> 1)) == 0)
            xs = bits[lower]
        hi = index_in(bits, xs ^ np.uint64(x))
        hit = np.flatnonzero(hi >= 0)
        if not hit.size:
            continue
        keep = np.abs(_pair_rows(h, g, x, xs[hit])) >= ZERO_TOL
        live = keep.any(axis=0)
        lo, hi, keep = lower[hit[live]].astype(idx), hi[hit[live]].astype(idx), keep[:, live]
        for k, rows in zip(keep, (hi, lo)):
            counts[rows[k]] += 1
        pairs.append((g, x, lo, hi))

    def fill_pieces():  # one piece per group: its lower and upper members are distinct rows
        while pairs:
            g, x, lo, hi = pairs.pop()
            d = _pair_rows(h, g, x, bits[lo])
            keep = np.abs(d) >= ZERO_TOL
            yield (np.concatenate([r[k] for r, k in zip((hi, lo), keep)]), 1,
                   np.concatenate([c[k] for c, k in zip((lo, hi), keep)]), d[keep])

    return counts, fill_pieces()


def _pair_rows(h: PauliSum, g: int, x: int, bits: np.ndarray) -> np.ndarray:
    """(D_g(bits), D_g(bits ^ x_g)) for the group g of x-mask x, or the
    one row D_g(bits) for the diagonal group, whose x_g is 0."""
    return pair_elements(h, g, bits) if x else group_elements(h, bits, slice(g, g + 1))


def _shared_entries(old_rows: sp.csr_matrix, at: np.ndarray):
    """The entries of `old_rows` among the members it shares with the new
    basis, as a piece (rows, counts, cols, values) renumbered by `at`,
    each old member's index in the new basis or -1."""
    cols = at[old_rows.indices]
    keep = cols >= 0
    keep &= np.repeat(at >= 0, np.diff(old_rows.indptr))
    kept = np.zeros(keep.size + 1, dtype=at.dtype)
    np.cumsum(keep, out=kept[1:])
    n = np.diff(kept[old_rows.indptr])  # each old row's kept entries
    rows = np.flatnonzero(n)
    return at[rows], n[rows], cols[keep], old_rows.data[keep]


def _new_entries(h: PauliSum, bits: np.ndarray, old: np.ndarray, idx) -> list:
    """The entries of H projected onto `bits` in the rows and columns of
    the members outside the mask `old`, as pieces (rows, counts, cols,
    values) of index dtype `idx`, one per block of new members.  A
    block's images are looked up under every group at once: the image
    x_k = x_j ^ x_g of new member j gives the entry (j, k) = D_g(x_k) and,
    when k is old, the entry (k, j) = D_g(x_j), so no Hermiticity is
    assumed.  Elements below ZERO_TOL are dropped."""
    gx = h.x_groups[0]
    new = np.flatnonzero(~old)
    step = max(1, _LOOKUP_BLOCK // max(gx.size, 1))
    pieces = []
    for lo in range(0, new.size, step):
        j = new[lo : lo + step]
        addr = index_in(bits, bits[j][None, :] ^ gx[:, None])
        g, s = np.nonzero(addr >= 0)
        k, j = addr[g, s], j[s]
        back = old[k]
        rows, cols = np.concatenate((j, k[back])), np.concatenate((k, j[back]))
        d = pair_elements(h, g, bits[j])  # D_g(x_j) and D_g(x_k), x_k = x_j ^ x_g
        vals = np.concatenate((d[1], d[0][back]))
        keep = np.flatnonzero(np.abs(vals) >= ZERO_TOL)
        keep = keep[np.argsort(rows[keep])]
        rows = rows[keep].astype(idx)
        head = np.flatnonzero(np.diff(rows, prepend=-1))  # each row's first entry
        pieces.append((rows[head], np.diff(head, append=rows.size).astype(idx),
                       cols[keep].astype(idx), vals[keep]))
    return pieces


def _nonzero_images(h: PauliSum, bits: np.ndarray):
    """Yield (sources, images) for each off-diagonal x-mask group g, one
    group at a time: the indices i of the members with a net element
    |D_g(bits[i])| of at least ZERO_TOL, and their images bits[i] ^ x_g.
    The diagonal group maps each member to itself, so it is skipped."""
    for g, x in enumerate(h.x_groups[0]):
        if x:
            d = group_elements(h, bits, slice(g, g + 1))[0]
            src = np.flatnonzero(np.abs(d) >= ZERO_TOL)
            yield src, bits[src] ^ x


def connected_bits(h: PauliSum, bits: np.ndarray) -> np.ndarray:
    """Sorted configurations outside `bits` with a net element of magnitude
    at least ZERO_TOL to some member of `bits` (cancellations across terms
    respected).  `bits` must be sorted and duplicate-free, as for
    project_fast.  Only the kept images are gathered, one group at a
    time, so the scratch is O(len(bits) + output), not groups x
    len(bits)."""
    check_basis(h, bits)
    found = [img for _, img in _nonzero_images(h, bits)]
    if not found:
        return np.zeros(0, dtype=np.uint64)
    out_bits = unique_bits(np.concatenate(found))
    return out_bits[index_in(bits, out_bits) < 0]


def reachable_bits(h: PauliSum, bits: np.ndarray, cap: int) -> np.ndarray:
    """Sorted closure of `bits` under H's net elements of magnitude at
    least ZERO_TOL (the rule of projection), found breadth first.  H maps
    the span of the closure into itself.  Raises BudgetExceeded as soon as
    the closure holds more than `cap` configurations."""
    reached = unique_bits(bits)
    frontier = reached
    while frontier.size:
        frontier = connected_bits(h, frontier)
        frontier = frontier[index_in(reached, frontier) < 0]
        reached = np.sort(np.concatenate((reached, frontier)))
        if reached.size > cap:
            raise BudgetExceeded(f"reachable subspace of {reached.size} exceeds cap {cap}")
    return reached


def connectivity_filter(h: PauliSum, bits: np.ndarray) -> np.ndarray:
    """The members of the sorted, duplicate-free pool `bits` with a nonzero
    element to some different member, as a sorted array; any other pool
    raises ValueError, as the lookup needs a basis.

    One pass only; isolated configurations would be eigenstates of the
    projected Hamiltonian, so dropping them loses nothing.
    """
    check_basis(h, bits)
    keep = np.zeros(bits.size, dtype=bool)
    for src, img in _nonzero_images(h, bits):
        pos = index_in(bits, img)
        hits = pos >= 0
        # x connects out, and the partner connects back (H is Hermitian)
        keep[src[hits]] = True
        keep[pos[hits]] = True
    return bits[keep]
