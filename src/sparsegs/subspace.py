"""Configuration-basis management and Hamiltonian projection.

Implements both the quadratic-cost all-pairs projection (the oracle) and
the linear-cost scatter projection that loops over the Hamiltonian's
x-mask groups, looks up every basis member's image under each, and stores
the group's net element at the addressed entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .paulis import (Configuration, PauliSum, group_elements, group_images, matrix_element,
                     unique_bits)
from .trace import BudgetExceeded

ZERO_TOL = 1e-14
HERMITICITY_TOL = 1e-12


class ConfigurationBasis:
    """Ordered, addressable set of configurations.

    Members are kept in ascending bit order and lookups answered by binary
    search.
    """

    __slots__ = ("bits", "n_qubits")

    def __init__(self, configs, n_qubits: int | None = None):
        """`configs` is an iterable of Configurations, of raw bit integers,
        or a uint64 array of bits; the last two need `n_qubits`."""
        if isinstance(configs, np.ndarray):
            raw = configs.astype(np.uint64, copy=False)
        else:
            items = list(configs)
            if items and isinstance(items[0], Configuration):
                if n_qubits is None:
                    n_qubits = items[0].n_qubits
                items = [c.bits for c in items]
            raw = np.array(items, dtype=np.uint64)
        if n_qubits is None:
            raise ValueError("n_qubits required for raw bit input or an empty basis")
        self.bits = unique_bits(raw)
        self.n_qubits = n_qubits

    def __len__(self):
        return int(self.bits.size)

    def members(self) -> list[Configuration]:
        return [Configuration(int(b), self.n_qubits) for b in self.bits]

    def member(self, i: int) -> Configuration:
        return Configuration(int(self.bits[i]), self.n_qubits)

    def address(self, x: Configuration) -> int:
        """Index of x, or -1 when absent."""
        i = int(np.searchsorted(self.bits, np.uint64(x.bits)))
        if i < self.bits.size and self.bits[i] == np.uint64(x.bits):
            return i
        return -1

    def addresses_of(self, bits: np.ndarray) -> np.ndarray:
        """Vectorized lookup; -1 marks configurations outside the basis."""
        if self.bits.size == 0:
            return np.full(bits.size, -1, dtype=np.int64)
        pos = np.searchsorted(self.bits, bits)
        pos_c = np.minimum(pos, self.bits.size - 1)
        return np.where(self.bits[pos_c] == bits, pos_c, -1).astype(np.int64)

    # -- basis files: n_qubits header + one bit-hex configuration per line --

    def to_file(self, path: Path | str) -> None:
        lines = [f"n_qubits {self.n_qubits}"]
        lines += [f"0x{int(b):x}" for b in self.bits]
        Path(path).write_text("\n".join(lines) + "\n")

    @classmethod
    def from_file(cls, path: Path | str) -> "ConfigurationBasis":
        lines = Path(path).read_text().splitlines()
        header = lines[0].split()
        if header[0] != "n_qubits":
            raise ValueError("basis file missing n_qubits header")
        n = int(header[1])
        bits = [int(s, 16) for s in lines[1:] if s.strip()]
        return cls(bits, n)


@dataclass
class ProjectedMatrix:
    """H_B = Pi_B H Pi_B in compressed sparse row storage."""

    dim: int
    rows: sp.csr_matrix
    basis: ConfigurationBasis

    def hermiticity_defect(self) -> float:
        d = self.rows - self.rows.getH()
        return 0.0 if d.nnz == 0 else float(np.abs(d.data).max())

    def to_coo_text(self, path: Path | str) -> None:
        coo = self.rows.tocoo()
        lines = [
            f"{r} {c} {float(v.real)!r} {float(v.imag)!r}"
            for r, c, v in zip(coo.row, coo.col, coo.data)
        ]
        Path(path).write_text("\n".join(lines) + ("\n" if lines else ""))


def _assemble(rows, cols, vals, dim, basis) -> ProjectedMatrix:
    """CSR from (row, col, value) triples that are distinct and already
    free of elements below ZERO_TOL."""
    m = sp.csr_matrix((vals, (rows, cols)), shape=(dim, dim), dtype=complex)
    return ProjectedMatrix(dim, m, basis)


def project_fast(h: PauliSum, b: ConfigurationBasis) -> ProjectedMatrix:
    """Scatter projection: one address lookup per x-mask group, and the
    group's net element on every member whose image lies in the basis.
    A group maps each column to its own row, and distinct groups to
    distinct rows, so no entry is written twice; elements below ZERO_TOL
    are dropped group by group, before anything is concatenated."""
    if h.n_qubits != b.n_qubits:
        raise ValueError("qubit-count mismatch")
    dim = len(b)
    rows_l, cols_l = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    vals_l = [np.zeros(0, dtype=complex)]
    for g, x in enumerate(h.x_groups[0]):
        addr = b.addresses_of(b.bits ^ x)
        hit = np.flatnonzero(addr >= 0)
        if hit.size == 0:
            continue
        d = group_elements(h, b.bits[hit], slice(g, g + 1))[0]
        keep = np.abs(d) >= ZERO_TOL
        rows_l.append(addr[hit[keep]])
        cols_l.append(hit[keep])
        vals_l.append(d[keep])
    return _assemble(np.concatenate(rows_l), np.concatenate(cols_l), np.concatenate(vals_l),
                     dim, b)


def project_naive(h: PauliSum, b: ConfigurationBasis) -> ProjectedMatrix:
    """All-pairs matrix elements; the quadratic-cost oracle."""
    if h.n_qubits != b.n_qubits:
        raise ValueError("qubit-count mismatch")
    dim = len(b)
    members = b.members()
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
        dim,
        b,
    )


def connected_bits(h: PauliSum, bits: np.ndarray) -> np.ndarray:
    """Array form of connected_configurations: sorted image bits with a
    nonzero net element to some source, sources excluded."""
    found = [
        unique_bits(img[np.abs(d) >= ZERO_TOL]) for _, img, d in group_images(h, bits)
    ]
    if not found:
        return np.zeros(0, dtype=np.uint64)
    out_bits = unique_bits(np.concatenate(found))
    return out_bits[_absent(np.sort(bits), out_bits)]


def _absent(members: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """Mask of the entries of `bits` not in the sorted, nonempty `members`."""
    pos = np.minimum(np.searchsorted(members, bits), members.size - 1)
    return members[pos] != bits


def reachable_bits(h: PauliSum, bits: np.ndarray, cap: int) -> np.ndarray:
    """Sorted closure of `bits` under H's net elements of magnitude at
    least ZERO_TOL (the rule of projection), found breadth first.  H maps
    the span of the closure into itself.  Raises BudgetExceeded as soon as
    the closure holds more than `cap` configurations."""
    reached = unique_bits(bits)
    frontier = reached
    while frontier.size:
        frontier = connected_bits(h, frontier)
        frontier = frontier[_absent(reached, frontier)]
        reached = np.sort(np.concatenate((reached, frontier)))
        if reached.size > cap:
            raise BudgetExceeded(f"reachable subspace of {reached.size} exceeds cap {cap}")
    return reached


def connected_configurations(h: PauliSum, seed) -> set[Configuration]:
    """Configurations outside the seed set with a nonzero net matrix
    element to some seed member (cancellations across terms respected)."""
    seed = set(seed)
    if not seed:
        return set()
    n = h.n_qubits
    for c in seed:
        if c.n_qubits != n:
            raise ValueError("qubit-count mismatch")
    bits = np.array(sorted(c.bits for c in seed), dtype=np.uint64)
    return {Configuration(int(b), n) for b in connected_bits(h, bits)}


def connectivity_filter(h: PauliSum, pool) -> set[Configuration]:
    """Keep x iff some different pool member has a nonzero element to x.

    One pass only; isolated configurations would be eigenstates of the
    projected Hamiltonian, so dropping them loses nothing.
    """
    pool = set(pool)
    if not pool:
        return set()
    n = h.n_qubits
    bits = np.array(sorted(c.bits for c in pool), dtype=np.uint64)
    keep = np.zeros(bits.size, dtype=bool)
    moves = h.x_groups[0][:, None] != 0  # the x-mask 0 group maps x to itself
    for lo, img, d in group_images(h, bits):
        src = np.broadcast_to(np.arange(lo, lo + img.shape[1]), img.shape)
        good = moves & (np.abs(d) >= ZERO_TOL)
        src, img = src[good], img[good]
        pos = np.minimum(np.searchsorted(bits, img), bits.size - 1)
        hits = bits[pos] == img
        # x connects out, and the partner connects back (H is Hermitian)
        keep[src[hits]] = True
        keep[pos[hits]] = True
    return {Configuration(int(b), n) for b in bits[keep]}
