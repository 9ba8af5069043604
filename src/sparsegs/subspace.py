"""Hamiltonian projection onto configuration bases, and expansion.

A basis is a sorted, duplicate-free uint64 array of packed configurations.
Implements both the quadratic-cost all-pairs projection (the oracle) and
the linear-cost scatter projection that loops over the Hamiltonian's
x-mask groups, looks up every basis member's image under each, and stores
the group's net element at the addressed entry.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .paulis import (Configuration, PauliSum, group_elements, group_images, index_in,
                     matrix_element, unique_bits)
from .trace import BudgetExceeded

ZERO_TOL = 1e-14
HERMITICITY_TOL = 1e-12


@dataclass
class ProjectedMatrix:
    """H_B = Pi_B H Pi_B in compressed sparse row storage."""

    dim: int
    rows: sp.csr_matrix

    def hermiticity_defect(self) -> float:
        d = self.rows - self.rows.getH()
        return 0.0 if d.nnz == 0 else float(np.abs(d.data).max())


def _check_basis(h: PauliSum, bits: np.ndarray) -> None:
    """A basis is a sorted, duplicate-free uint64 array of configurations
    that fit in h's qubits; anything else raises ValueError."""
    if np.any(bits[1:] <= bits[:-1]):
        raise ValueError("basis must be sorted and duplicate-free")
    if bits.size and int(bits[-1]) >> h.n_qubits:
        raise ValueError(f"configuration 0x{int(bits[-1]):x} is wider than {h.n_qubits} qubits")


def _assemble(rows, cols, vals, dim) -> ProjectedMatrix:
    """CSR from (row, col, value) triples that are distinct and already
    free of elements below ZERO_TOL."""
    m = sp.csr_matrix((vals, (rows, cols)), shape=(dim, dim), dtype=complex)
    return ProjectedMatrix(dim, m)


def project_fast(h: PauliSum, bits: np.ndarray) -> ProjectedMatrix:
    """Scatter projection onto the basis `bits`: one address lookup per
    x-mask group, and the group's net element on every member whose image
    lies in the basis.  A group maps each column to its own row, and
    distinct groups to distinct rows, so no entry is written twice;
    elements below ZERO_TOL are dropped group by group, before anything is
    concatenated."""
    _check_basis(h, bits)
    rows_l, cols_l = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    vals_l = [np.zeros(0, dtype=complex)]
    for g, x in enumerate(h.x_groups[0]):
        addr = index_in(bits, bits ^ x)
        hit = np.flatnonzero(addr >= 0)
        if hit.size == 0:
            continue
        d = group_elements(h, bits[hit], slice(g, g + 1))[0]
        keep = np.abs(d) >= ZERO_TOL
        rows_l.append(addr[hit[keep]])
        cols_l.append(hit[keep])
        vals_l.append(d[keep])
    return _assemble(np.concatenate(rows_l), np.concatenate(cols_l), np.concatenate(vals_l),
                     bits.size)


def project_naive(h: PauliSum, bits: np.ndarray) -> ProjectedMatrix:
    """All-pairs matrix elements on the basis `bits`; the quadratic-cost
    oracle."""
    _check_basis(h, bits)
    members = [Configuration(int(x), h.n_qubits) for x in bits]
    rows, cols, vals = [], [], []
    for j, xj in enumerate(members):
        for i, xi in enumerate(members):
            v = matrix_element(h, xi, xj)
            if abs(v) >= ZERO_TOL:
                rows.append(i)
                cols.append(j)
                vals.append(v)
    return _assemble(
        np.array(rows, dtype=np.int64),
        np.array(cols, dtype=np.int64),
        np.array(vals, dtype=complex),
        bits.size,
    )


def connected_bits(h: PauliSum, bits: np.ndarray) -> np.ndarray:
    """Sorted configurations outside `bits` with a net element of magnitude
    at least ZERO_TOL to some member of `bits` (cancellations across terms
    respected)."""
    found = [
        unique_bits(img[np.abs(d) >= ZERO_TOL]) for _, img, d in group_images(h, bits)
    ]
    if not found:
        return np.zeros(0, dtype=np.uint64)
    out_bits = unique_bits(np.concatenate(found))
    return out_bits[index_in(np.sort(bits), out_bits) < 0]


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
