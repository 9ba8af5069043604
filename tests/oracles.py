"""Reference implementations the kernels are tested against, kept out of
the package: no run uses them.  Each one computes its result a slower,
more direct way than the kernel it checks."""

import math

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from sparsegs.paulis import (Configuration, PauliString, PauliSum, check_basis, group_elements,
                             pauli_signs, popcount)
from sparsegs.subspace import ZERO_TOL

_EXPLICIT_MATRIX_QUBITS = 18  # pauli_sum_to_sparse's width limit


def apply_pauli_to_config(p: PauliString, x: Configuration) -> tuple[complex, Configuration]:
    """P|x> = phase * |y>, the phase a power of i, from the literal operator
    convention on one configuration."""
    if p.n_qubits != x.n_qubits:
        raise ValueError("qubit-count mismatch")
    y = Configuration(x.bits ^ p.x_mask, x.n_qubits)
    ny = popcount(p.x_mask & p.z_mask)
    sz = popcount(x.bits & p.z_mask)
    phase = (1j) ** (ny % 4) * (-1.0) ** (sz % 2)
    return complex(phase), y


def matrix_element(h: PauliSum, x: Configuration, y: Configuration) -> complex:
    """<x|H|y> summed term by term, without the grouping; O(nL)."""
    if h.n_qubits != x.n_qubits or h.n_qubits != y.n_qubits:
        raise ValueError("qubit-count mismatch")
    xm, zm, _, _ = h.mask_arrays
    hits = (np.uint64(y.bits) ^ xm) == np.uint64(x.bits)
    if not hits.any():
        return 0j
    signs = pauli_signs(np.array([y.bits], dtype=np.uint64), zm[hits])[:, 0]
    return complex(np.sum(h._weights[hits] * signs))


def pauli_sum_to_sparse(h: PauliSum) -> sp.csr_matrix:
    """Explicit 2^n sparse matrix, group by group; use only at moderate
    widths.  Basis index bit q = qubit q value."""
    if h.n_qubits > _EXPLICIT_MATRIX_QUBITS:
        raise ValueError(f"explicit sparse matrix capped at {_EXPLICIT_MATRIX_QUBITS} qubits")
    dim = 1 << h.n_qubits
    cols = np.arange(dim, dtype=np.uint64)
    gx, _ = h.x_groups
    rows = np.concatenate([(cols ^ x).astype(np.int64) for x in gx])
    vals = np.concatenate([group_elements(h, cols, slice(g, g + 1))[0] for g in range(gx.size)])
    return sp.csr_matrix((vals, (rows, np.tile(cols.astype(np.int64), gx.size))),
                         shape=(dim, dim))


def net_element_numerators(h: PauliSum, core: np.ndarray, amps: np.ndarray,
                           bits: np.ndarray) -> np.ndarray:
    """<x|H|psi> for psi = (core, amps) on each configuration x of `bits`,
    as complex: one configuration at a time, the products D_g(x_i) c_i of
    the core members x_i = x ^ x_g whose net element has magnitude at
    least ZERO_TOL, added in ascending group order; the oracle of SCI's
    CIPSI numerators."""
    gx, _ = h.x_groups
    d = group_elements(h, core)
    prods = d * amps  # NumPy's array product: its scalar one can round complex products apart
    member = {int(b): i for i, b in enumerate(core)}
    out = np.zeros(bits.size, dtype=complex)
    for j, x in enumerate(bits.tolist()):
        acc = 0j
        for g, xg in enumerate(gx.tolist()):
            i = member.get(x ^ xg)
            if i is not None and abs(d[g, i]) >= ZERO_TOL:
                acc += prods[g, i]
        out[j] = acc
    return out


def project_naive(h: PauliSum, bits: np.ndarray) -> sp.csr_matrix:
    """All-pairs matrix elements on the basis `bits`, the whole matrix,
    for any H; the quadratic-cost oracle of project_fast."""
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
    return sp.csr_matrix((np.array(vals, dtype=complex), (rows, cols)),
                         shape=(bits.size, bits.size))


def evolve_exact(h: PauliSum, v: np.ndarray, t: float) -> np.ndarray:
    """e^{-iHt} |v> on the full 2^n statevector through the explicit sparse
    matrix: the oracle for run_skqd's reachable-subspace evolution."""
    if v.size != (1 << h.n_qubits):
        raise ValueError("statevector size mismatch")
    if t == 0.0:
        return v.copy()
    return spla.expm_multiply(-1j * t * pauli_sum_to_sparse(h), v.astype(complex))


def tangent(v: np.ndarray, psi: np.ndarray) -> float:
    """T(v) = ||(I - psi psi^dag) v|| / |<psi|v>|, the power method's
    distance from psi."""
    ov = complex(np.vdot(psi, v))
    if ov == 0:
        return math.inf
    perp = v - ov * psi
    return float(np.linalg.norm(perp) / abs(ov))
