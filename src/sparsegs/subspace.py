"""Hamiltonian projection onto configuration bases, and expansion.

A basis is a sorted, duplicate-free uint64 array of packed configurations.
The projection is row-wise, at linear cost, and an update of an earlier
projection (of the empty basis when there is none): it looks up members'
images under the Hamiltonian's x-mask groups and writes each group's net
element on the image into the member's row of a CSR matrix, in place and
in the Hamiltonian's dtype (real when H is).  One rule picks how the
images are looked up, and one fill writes the CSR.  The all-pairs oracle
it is tested against lives with the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .paulis import (PauliSum, check_basis, group_elements, group_images, index_in,
                     pair_elements, unique_bits)
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
    (`_new_entries`).  A new member costs that lookup more than a member
    costs one pass over every group, which looks up all members
    (`_group_entries`), so the pass is taken instead when more than
    `_UPDATE_MAX_NEW` of the members are new and their images fill more
    than two lookup blocks.  Either way the entries come in pieces of
    index dtype, each holding its entries in row order; the counts give
    `indptr`, the pieces are filled into `indices` and `data` in place,
    and each row is sorted by column at the end."""
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
        pieces = _group_entries(h, bits, idx)
    else:
        pieces = _new_entries(h, bits, old, idx)
        if prev is not None:
            pieces.append(_shared_entries(prev[1], at))
    counts = np.zeros(dim, dtype=idx)
    for r, n, _, _ in pieces:
        counts[r] += n
    indptr = np.zeros(dim + 1, dtype=idx)
    np.cumsum(counts, out=indptr[1:])
    indices = np.empty(indptr[-1], dtype=idx)
    data = np.empty(indptr[-1], dtype=h.dtype)
    fill = indptr[:-1].copy()  # each row's next free slot
    while pieces:  # released piece by piece as the CSR fills
        r, n, cols, vals = pieces.pop()
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


def _group_entries(h: PauliSum, bits: np.ndarray, idx) -> list:
    """Every entry of H projected onto `bits`, as pieces (rows, 1, cols,
    values) of index dtype `idx`, one per x-mask group: one address lookup
    gives every row i whose image bits[i] ^ x_g lies in the basis.  A
    group gives each row at most one column, and distinct groups distinct
    columns, so no entry comes twice."""
    pieces = []
    for g, x in enumerate(h.x_groups[0]):
        addr = index_in(bits, bits ^ x)
        rows = np.flatnonzero(addr >= 0)
        if rows.size == 0:
            continue
        cols = addr[rows]
        d = group_elements(h, bits[cols], slice(g, g + 1))[0]
        keep = np.abs(d) >= ZERO_TOL
        rows, cols = rows[keep].astype(idx), cols[keep].astype(idx)
        pieces.append((rows, 1, cols, d[keep]))
    return pieces


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
        vals = pair_elements(h, np.concatenate((g, g[back])), bits[cols])
        keep = np.flatnonzero(np.abs(vals) >= ZERO_TOL)
        keep = keep[np.argsort(rows[keep])]
        rows = rows[keep].astype(idx)
        head = np.flatnonzero(np.diff(rows, prepend=-1))  # each row's first entry
        pieces.append((rows[head], np.diff(head, append=rows.size).astype(idx),
                       cols[keep].astype(idx), vals[keep]))
    return pieces


def connected_bits(h: PauliSum, bits: np.ndarray) -> np.ndarray:
    """Sorted configurations outside `bits` with a net element of magnitude
    at least ZERO_TOL to some member of `bits` (cancellations across terms
    respected).  `bits` must be sorted and duplicate-free, as for
    project_fast."""
    check_basis(h, bits)
    found = [
        unique_bits(img[np.abs(d) >= ZERO_TOL]) for _, img, d in group_images(h, bits)
    ]
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
    element to some different member, as a sorted array.

    One pass only; isolated configurations would be eigenstates of the
    projected Hamiltonian, so dropping them loses nothing.
    """
    keep = np.zeros(bits.size, dtype=bool)
    moves = h.x_groups[0][:, None] != 0  # the x-mask 0 group maps x to itself
    for lo, img, d in group_images(h, bits):
        src = np.broadcast_to(np.arange(lo, lo + img.shape[1]), img.shape)
        good = moves & (np.abs(d) >= ZERO_TOL)
        src, img = src[good], img[good]
        pos = index_in(bits, img)
        hits = pos >= 0
        # x connects out, and the partner connects back (H is Hermitian)
        keep[src[hits]] = True
        keep[pos[hits]] = True
    return bits[keep]
