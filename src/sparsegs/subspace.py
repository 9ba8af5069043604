"""Hamiltonian projection onto configuration bases, and expansion.

A basis is a sorted, duplicate-free uint64 array of packed configurations.
Implements both the quadratic-cost all-pairs projection (the oracle) and
the linear-cost row-wise projection that loops over the Hamiltonian's
x-mask groups, looks up every basis member's image under each, and writes
the group's net element on the image into that member's row of a CSR
matrix, in place and in the Hamiltonian's dtype (real when H is).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .paulis import (Configuration, PauliSum, check_basis, group_elements, group_images,
                     index_in, matrix_element, unique_bits)
from .trace import BudgetExceeded

ZERO_TOL = 1e-14


@dataclass
class ProjectedMatrix:
    """H_B = Pi_B H Pi_B in compressed sparse row storage."""

    dim: int
    rows: sp.csr_matrix

    def hermiticity_defect(self) -> float:
        d = self.rows - self.rows.getH()
        return 0.0 if d.nnz == 0 else float(np.abs(d.data).max())


def project_fast(h: PauliSum, bits: np.ndarray) -> ProjectedMatrix:
    """Row-wise projection onto the basis `bits`, written straight into
    CSR in h's dtype.  For x-mask group g, one address lookup gives every
    row i whose image j = bits[i] ^ x_g lies in the basis, and the entry
    <x_i|H|x_j> is the group's net element D_g(x_j) on the column's
    configuration (no Hermiticity is assumed).  A group gives each row one
    column, and distinct groups distinct columns, so no entry is written
    twice.  Elements below ZERO_TOL are dropped group by group; the kept
    entries per row give `indptr`, the entries are filled into `indices`
    and `data` in place, and each row is sorted by column at the end."""
    check_basis(h, bits)
    dim = bits.size
    gx = h.x_groups[0]
    # int32 indices, as SciPy would choose, whenever nnz <= dim * groups fits
    idx = np.int32 if dim * gx.size <= np.iinfo(np.int32).max else np.int64
    counts = np.zeros(dim, dtype=idx)
    found = []
    for g, x in enumerate(gx):
        addr = index_in(bits, bits ^ x)
        rows = np.flatnonzero(addr >= 0)
        if rows.size == 0:
            continue
        cols = addr[rows]
        d = group_elements(h, bits[cols], slice(g, g + 1))[0]
        keep = np.abs(d) >= ZERO_TOL
        rows, cols = rows[keep].astype(idx), cols[keep].astype(idx)
        counts[rows] += 1
        found.append((rows, cols, d[keep]))
    indptr = np.zeros(dim + 1, dtype=idx)
    np.cumsum(counts, out=indptr[1:])
    indices = np.empty(indptr[-1], dtype=idx)
    data = np.empty(indptr[-1], dtype=h.dtype)
    fill = indptr[:-1].copy()  # each row's next free slot
    while found:  # released group by group as the CSR fills
        rows, cols, vals = found.pop()
        at = fill[rows]
        indices[at] = cols
        data[at] = vals
        fill[rows] += 1
    m = sp.csr_matrix((data, indices, indptr), shape=(dim, dim))
    m.sort_indices()
    return ProjectedMatrix(dim, m)


def project_naive(h: PauliSum, bits: np.ndarray) -> ProjectedMatrix:
    """All-pairs matrix elements on the basis `bits`; the quadratic-cost
    oracle."""
    check_basis(h, bits)
    members = [Configuration(int(x), h.n_qubits) for x in bits]
    rows, cols, vals = [], [], []
    for j, xj in enumerate(members):
        for i, xi in enumerate(members):
            v = matrix_element(h, xi, xj)
            if abs(v) >= ZERO_TOL:
                rows.append(i)
                cols.append(j)
                vals.append(v)
    m = sp.csr_matrix((np.array(vals, dtype=complex), (rows, cols)),
                      shape=(bits.size, bits.size))
    return ProjectedMatrix(bits.size, m)


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
