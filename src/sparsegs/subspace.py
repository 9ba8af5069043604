"""Configuration-basis management and Hamiltonian projection.

Implements both the quadratic-cost all-pairs projection (the oracle) and
the linear-cost scatter projection that loops over Pauli terms, applies
each to every basis member, and accumulates into the addressed entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .paulis import Configuration, PauliSum, matrix_element

ZERO_TOL = 1e-14
HERMITICITY_TOL = 1e-12


class ConfigurationBasis:
    """Ordered, addressable set of configurations.

    Members are kept in ascending bit order and lookups answered by binary
    search.
    """

    __slots__ = ("bits", "n_qubits")

    def __init__(self, configs, n_qubits: int | None = None):
        items = list(configs)
        if items and isinstance(items[0], Configuration):
            if n_qubits is None:
                n_qubits = items[0].n_qubits
            raw = [c.bits for c in items]
        else:
            if n_qubits is None:
                raise ValueError("n_qubits required for raw bit input")
            raw = [int(b) for b in items]
        if n_qubits is None:
            raise ValueError("cannot infer qubit count from an empty basis")
        self.bits = np.unique(np.array(raw, dtype=np.uint64))
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

    def contains_bits(self, bits: np.ndarray) -> np.ndarray:
        return self.addresses_of(bits) >= 0

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
    m = sp.csr_matrix((vals, (rows, cols)), shape=(dim, dim), dtype=complex)
    m.sum_duplicates()
    if m.nnz:
        m.data[np.abs(m.data) < ZERO_TOL] = 0.0
        m.eliminate_zeros()
    return ProjectedMatrix(dim, m, basis)


def project_fast(h: PauliSum, b: ConfigurationBasis) -> ProjectedMatrix:
    """Scatter projection: one term application per (term, member) pair."""
    if h.n_qubits != b.n_qubits:
        raise ValueError("qubit-count mismatch")
    dim = len(b)
    xm, zm, coeff, phase = h.mask_arrays
    cols_base = np.arange(dim, dtype=np.int64)
    rows_l, cols_l, vals_l = [], [], []
    for k in range(len(coeff)):
        y = b.bits ^ xm[k]
        addr = b.addresses_of(y)
        hit = addr >= 0
        if not hit.any():
            continue
        signs = 1.0 - 2.0 * (np.bitwise_count(b.bits[hit] & zm[k]).astype(np.int64) & 1)
        rows_l.append(addr[hit])
        cols_l.append(cols_base[hit])
        vals_l.append(coeff[k] * phase[k] * signs)
    if rows_l:
        rows = np.concatenate(rows_l)
        cols = np.concatenate(cols_l)
        vals = np.concatenate(vals_l)
    else:
        rows = cols = np.zeros(0, dtype=np.int64)
        vals = np.zeros(0, dtype=complex)
    return _assemble(rows, cols, vals, dim, b)


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


def _net_images(h: PauliSum, bits: np.ndarray):
    """All (source index, image bits, net amplitude) triples for H applied
    to each of the given configurations, with per-pair term cancellation
    already carried out."""
    xm, zm, coeff, phase = h.mask_arrays
    n_src = bits.size
    src_l, img_l, amp_l = [], [], []
    idx = np.arange(n_src, dtype=np.int64)
    for k in range(len(coeff)):
        img_l.append(bits ^ xm[k])
        signs = 1.0 - 2.0 * (np.bitwise_count(bits & zm[k]).astype(np.int64) & 1)
        amp_l.append(coeff[k] * phase[k] * signs)
        src_l.append(idx)
    if not src_l:
        return (np.zeros(0, np.int64), np.zeros(0, np.uint64), np.zeros(0, complex))
    src = np.concatenate(src_l)
    img = np.concatenate(img_l)
    amp = np.concatenate(amp_l)
    # reduce over terms per (source, image) pair
    order = np.lexsort((img, src))
    src, img, amp = src[order], img[order], amp[order]
    boundary = np.ones(src.size, dtype=bool)
    boundary[1:] = (src[1:] != src[:-1]) | (img[1:] != img[:-1])
    group = np.cumsum(boundary) - 1
    net = np.zeros(int(group[-1]) + 1, dtype=complex)
    np.add.at(net, group, amp)
    keep_first = np.flatnonzero(boundary)
    return src[keep_first], img[keep_first], net


def connected_bits(h: PauliSum, bits: np.ndarray) -> np.ndarray:
    """Array form of connected_configurations: sorted image bits with a
    nonzero net element to some source, sources excluded."""
    if bits.size == 0:
        return np.zeros(0, dtype=np.uint64)
    _, img, net = _net_images(h, bits)
    good = np.abs(net) >= ZERO_TOL
    out_bits = np.unique(img[good])
    inside = np.isin(out_bits, bits)
    return out_bits[~inside]


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
    chunk = max(1, 2_000_000 // max(len(h), 1))
    for lo in range(0, bits.size, chunk):
        part = bits[lo : lo + chunk]
        src, img, net = _net_images(h, part)
        good = np.abs(net) >= ZERO_TOL
        src, img = src[good], img[good]
        pos = np.searchsorted(bits, img)
        pos_c = np.minimum(pos, bits.size - 1)
        in_pool = bits[pos_c] == img
        different = img != part[src]
        hits = in_pool & different
        # x connects out, and the partner connects back (H is Hermitian)
        keep[lo + src[hits]] = True
        keep[pos_c[hits]] = True
    return {Configuration(int(b), n) for b in bits[keep]}
