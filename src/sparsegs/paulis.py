"""Pauli-string algebra over computational basis configurations.

Hamiltonians are weighted sums of Pauli strings stored as (x_mask, z_mask)
bit pairs, so applying a string to a basis state is a constant number of
word operations per 64 qubits.  A qubit carries Y iff it is set in both
masks, identity iff in neither.  The literal operator convention is

    P = prod_q sigma_q,   P|x> = i^|Y| * (-1)^popcount(x & z_mask) |x ^ x_mask>,

which reproduces Y|0> = i|1>, Y|1> = -i|0>.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

MAX_QUBITS = 64
COEFF_DROP_TOL = 1e-14
HERMITICITY_TOL = 1e-12

_PAULI_CHARS = "IXZY"  # index = x_bit + 2*z_bit

_SINGLE_QUBIT = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def popcount(v):
    """Bit-population count for python ints or uint64 arrays."""
    if isinstance(v, np.ndarray):
        return np.bitwise_count(v)
    return int(v).bit_count()


def _check_width(n_qubits: int) -> None:
    if not 0 < n_qubits <= MAX_QUBITS:
        raise ValueError(f"qubit count must be in [1, {MAX_QUBITS}], got {n_qubits}")


@dataclass(frozen=True)
class Configuration:
    """An n-qubit computational basis state; qubit i maps to bit i."""

    bits: int
    n_qubits: int

    def __post_init__(self):
        _check_width(self.n_qubits)
        if self.bits < 0 or self.bits >> self.n_qubits:
            raise ValueError(f"bits 0x{self.bits:x} out of range for {self.n_qubits} qubits")

    def bit(self, q: int) -> int:
        return (self.bits >> q) & 1

    def weight(self) -> int:
        return popcount(self.bits)

    def to_hex(self) -> str:
        return f"0x{self.bits:x}"

    @classmethod
    def from_hex(cls, s: str, n_qubits: int) -> "Configuration":
        return cls(int(s, 16), n_qubits)

    def __repr__(self):
        return f"Configuration(0x{self.bits:x}, n={self.n_qubits})"


@dataclass(frozen=True)
class PauliString:
    """A Pauli string as (x_mask, z_mask); Y sits in both masks."""

    x_mask: int
    z_mask: int
    n_qubits: int

    def __post_init__(self):
        _check_width(self.n_qubits)
        full = (1 << self.n_qubits) - 1
        if self.x_mask & ~full or self.z_mask & ~full:
            raise ValueError("mask has bits beyond n_qubits")

    def weight(self) -> int:
        return popcount(self.x_mask | self.z_mask)

    @property
    def label(self) -> str:
        """n-character string over {I,X,Y,Z}, qubit 0 leftmost."""
        chars = []
        for q in range(self.n_qubits):
            idx = ((self.x_mask >> q) & 1) + 2 * ((self.z_mask >> q) & 1)
            chars.append(_PAULI_CHARS[idx])
        return "".join(chars)

    @classmethod
    def from_label(cls, label: str) -> "PauliString":
        xm = zm = 0
        for q, ch in enumerate(label):
            if ch in ("X", "Y"):
                xm |= 1 << q
            if ch in ("Z", "Y"):
                zm |= 1 << q
            if ch not in "IXYZ":
                raise ValueError(f"bad Pauli character {ch!r}")
        return cls(xm, zm, len(label))

    def dense(self) -> np.ndarray:
        """2^n x 2^n matrix; basis index bit q = qubit q value."""
        ops = [_SINGLE_QUBIT[self.label[q]] for q in range(self.n_qubits)]
        out = ops[-1]
        for op in ops[-2::-1]:
            out = np.kron(out, op)
        return out


def apply_pauli_to_config(p: PauliString, x: Configuration) -> tuple[complex, Configuration]:
    """P|x> = phase * |y>; phase is a power of i."""
    if p.n_qubits != x.n_qubits:
        raise ValueError("qubit-count mismatch")
    y = Configuration(x.bits ^ p.x_mask, x.n_qubits)
    ny = popcount(p.x_mask & p.z_mask)
    sz = popcount(x.bits & p.z_mask)
    phase = (1j) ** (ny % 4) * (-1.0) ** (sz % 2)
    return complex(phase), y


class PauliSum:
    """Hamiltonian H = sum_k alpha_k T_k, canonicalized on construction.

    Duplicate strings are merged, coefficients below 1e-14 dropped, and
    terms sorted by mask pair, so equal operators compare equal term by
    term.  Immutable; cached mask/coefficient arrays back the vectorized
    kernels.
    """

    __slots__ = ("n_qubits", "terms", "_xm", "_zm", "_coeff", "_phase", "_weights",
                 "_gx", "_gstart", "_gterm")

    def __init__(self, terms, n_qubits: int):
        _check_width(n_qubits)
        acc: dict[tuple[int, int], complex] = {}
        for coeff, string in terms:
            if string.n_qubits != n_qubits:
                raise ValueError("all strings must share n_qubits")
            key = (string.x_mask, string.z_mask)
            acc[key] = acc.get(key, 0j) + complex(coeff)
        kept = sorted(
            ((k, v) for k, v in acc.items() if abs(v) >= COEFF_DROP_TOL),
            key=lambda kv: kv[0],
        )
        self.n_qubits = n_qubits
        self.terms = tuple(
            (v, PauliString(k[0], k[1], n_qubits)) for k, v in kept
        )
        self._xm = np.array([k[0] for k, _ in kept], dtype=np.uint64)
        self._zm = np.array([k[1] for k, _ in kept], dtype=np.uint64)
        self._coeff = np.array([v for _, v in kept], dtype=complex)
        # i^|Y| is a per-term constant
        ny = np.bitwise_count(self._xm & self._zm).astype(np.int64) % 4
        self._phase = (1j) ** ny
        self._weights = self._coeff * self._phase
        # terms are sorted by x-mask first, so each x-mask group is a run
        self._gx, self._gstart = np.unique(self._xm, return_index=True)
        self._gstart = np.append(self._gstart, self._xm.size)
        self._gterm = np.repeat(np.arange(self._gx.size), np.diff(self._gstart))
        for arr in (self._xm, self._zm, self._coeff, self._phase, self._weights,
                    self._gx, self._gstart, self._gterm):
            arr.flags.writeable = False

    def __len__(self):
        return len(self.terms)

    def __eq__(self, other):
        if not isinstance(other, PauliSum):
            return NotImplemented
        return self.n_qubits == other.n_qubits and self.terms == other.terms

    def __repr__(self):
        return f"PauliSum({len(self.terms)} terms, n={self.n_qubits})"

    @property
    def mask_arrays(self):
        """(x_masks, z_masks, coefficients, i^|Y| phases) as numpy arrays."""
        return self._xm, self._zm, self._coeff, self._phase

    @property
    def x_groups(self):
        """(x_masks, starts): the distinct x-masks in ascending order and the
        offsets of their term runs, so group g is terms starts[g]:starts[g+1].
        Writing H = sum_g X^(x_g) D_g, every kernel walks groups, not terms."""
        return self._gx, self._gstart

    def coeff_one_norm(self) -> float:
        return float(np.abs(self._coeff).sum())

    def is_hermitian(self, tol: float = HERMITICITY_TOL) -> bool:
        # Pauli strings are Hermitian and linearly independent, so the sum
        # equals its adjoint iff every coefficient is real.
        if len(self._coeff) == 0:
            return True
        return float(np.abs(self._coeff.imag).max()) <= tol

    def scaled(self, factor: complex) -> "PauliSum":
        return PauliSum([(factor * c, s) for c, s in self.terms], self.n_qubits)

    def __add__(self, other: "PauliSum") -> "PauliSum":
        if self.n_qubits != other.n_qubits:
            raise ValueError("qubit-count mismatch")
        return PauliSum(list(self.terms) + list(other.terms), self.n_qubits)

    # -- serialization ----------------------------------------------------

    def to_text(self) -> str:
        lines = [f"{c.real!r} {c.imag!r} {s.label}" for c, s in self.terms]
        return "\n".join(lines) + ("\n" if lines else "")

    @classmethod
    def from_text(cls, text: str, n_qubits: int | None = None) -> "PauliSum":
        terms = []
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            re_s, im_s, label = line.split()
            if n_qubits is None:
                n_qubits = len(label)
            terms.append((complex(float(re_s), float(im_s)), PauliString.from_label(label)))
        if n_qubits is None:
            raise ValueError("empty serialization with no qubit count")
        return cls(terms, n_qubits)

    def to_json_dict(self) -> dict:
        return {
            "n_qubits": self.n_qubits,
            "terms": [
                {"coeff": [c.real, c.imag], "label": s.label} for c, s in self.terms
            ],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "PauliSum":
        terms = [
            (complex(t["coeff"][0], t["coeff"][1]), PauliString.from_label(t["label"]))
            for t in d["terms"]
        ]
        return cls(terms, d["n_qubits"])

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=1)

    @classmethod
    def from_json(cls, text: str) -> "PauliSum":
        return cls.from_json_dict(json.loads(text))


class SparseVector:
    """Sparse amplitude map over configurations, array backed and immutable.

    Entries are kept sorted by configuration bits; amplitudes of magnitude
    exactly zero are pruned on construction.
    """

    __slots__ = ("bits", "amps", "n_qubits")

    def __init__(self, bits, amps, n_qubits: int, *, _sorted: bool = False):
        _check_width(n_qubits)
        bits = np.asarray(bits, dtype=np.uint64)
        amps = np.asarray(amps, dtype=complex)
        if bits.shape != amps.shape:
            raise ValueError("bits/amps length mismatch")
        if not _sorted:
            order = np.argsort(bits, kind="stable")
            bits, amps = bits[order], amps[order]
            if bits.size and np.any(bits[1:] == bits[:-1]):
                uniq, inv = np.unique(bits, return_inverse=True)
                merged = np.zeros(uniq.size, dtype=complex)
                np.add.at(merged, inv, amps)
                bits, amps = uniq, merged
        keep = amps != 0
        self.bits = bits[keep]
        self.amps = amps[keep]
        self.n_qubits = n_qubits
        self.bits.flags.writeable = False
        self.amps.flags.writeable = False

    @classmethod
    def basis_state(cls, x: Configuration) -> "SparseVector":
        return cls([x.bits], [1.0 + 0j], x.n_qubits, _sorted=True)

    def __len__(self):
        return int(self.bits.size)

    def items(self):
        for b, a in zip(self.bits, self.amps):
            yield Configuration(int(b), self.n_qubits), complex(a)

    def amplitude(self, x: Configuration) -> complex:
        i = np.searchsorted(self.bits, np.uint64(x.bits))
        if i < self.bits.size and self.bits[i] == np.uint64(x.bits):
            return complex(self.amps[i])
        return 0j

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def normalized(self) -> "SparseVector":
        n = self.norm()
        if n == 0.0:
            raise ZeroDivisionError("cannot normalize the zero vector")
        return SparseVector(self.bits, self.amps / n, self.n_qubits, _sorted=True)

    def scaled(self, factor: complex) -> "SparseVector":
        return SparseVector(self.bits, self.amps * factor, self.n_qubits, _sorted=True)

    def dot(self, other: "SparseVector") -> complex:
        """<self|other> with conjugation on self."""
        _, ia, ib = np.intersect1d(self.bits, other.bits, assume_unique=True, return_indices=True)
        return complex(np.vdot(self.amps[ia], other.amps[ib]))

    def add(self, other: "SparseVector", factor: complex = 1.0) -> "SparseVector":
        if other.n_qubits != self.n_qubits:
            raise ValueError("qubit-count mismatch")
        bits = np.concatenate([self.bits, other.bits])
        amps = np.concatenate([self.amps, factor * other.amps])
        return SparseVector(bits, amps, self.n_qubits)

    def truncate_top(self, k: int) -> "SparseVector":
        """Keep the k largest-magnitude amplitudes; ties break by bit value."""
        if len(self) <= k:
            return self
        order = np.lexsort((self.bits, -np.abs(self.amps)))[:k]
        return SparseVector(self.bits[order], self.amps[order], self.n_qubits)

    def support(self) -> np.ndarray:
        return self.bits.copy()

    def to_dense(self) -> np.ndarray:
        if self.n_qubits > 26:
            raise ValueError("dense form over 26 qubits is not sensible")
        v = np.zeros(1 << self.n_qubits, dtype=complex)
        v[self.bits.astype(np.int64)] = self.amps
        return v

    def __repr__(self):
        return f"SparseVector({len(self)} entries, n={self.n_qubits})"


# -- vectorized action kernels -------------------------------------------
#
# H|x> = sum_g D_g(x) |x ^ x_g>, with D_g(x) = sum_{k in g} w_k (-1)^popcount(x & z_k)
# and w_k = alpha_k i^|Y_k|.  Each kernel below walks the x-mask groups.


_APPLY_BLOCK = 1 << 23  # cap on the (terms x entries) broadcast scratch


def unique_bits(bits: np.ndarray) -> np.ndarray:
    """np.unique for configuration arrays by sort and compare; NumPy 2.4's
    np.unique takes about 15x longer on uint64 arrays of 1e5 entries."""
    bits = np.sort(bits)
    return bits[np.concatenate(([True], bits[1:] != bits[:-1]))] if bits.size else bits


def pauli_signs(bits: np.ndarray, z_masks: np.ndarray) -> np.ndarray:
    """(-1)^popcount(bits & z) as floats, shape (len(z_masks), len(bits))."""
    return 1.0 - 2.0 * (np.bitwise_count(bits[None, :] & z_masks[:, None]) & 1)


def group_elements(h: PauliSum, bits: np.ndarray, groups: slice = slice(None)) -> np.ndarray:
    """Net elements D_g(x) = <x ^ x_g|H|x> of the x-mask groups in `groups`
    on each configuration, shape (groups, len(bits)).

    Each element is summed from zero one term at a time, in term order (a
    pairwise reduction would round differently).
    """
    gx, starts = h.x_groups
    lo, hi, _ = groups.indices(gx.size)
    out = np.zeros((max(hi - lo, 0), bits.size), dtype=complex)
    for g in range(lo, hi):
        a, b = starts[g], starts[g + 1]
        for w, signs in zip(h._weights[a:b], pauli_signs(bits, h._zm[a:b])):
            out[g - lo] += w * signs
    return out


def group_images(h: PauliSum, bits: np.ndarray):
    """Yield (offset, images, elements) over chunks of the source
    configurations: images[g, i] = bits[offset + i] ^ x_g and elements the
    matching D_g.  Chunks keep terms x sources, and so the groups x sources
    arrays, under _APPLY_BLOCK entries."""
    gx, _ = h.x_groups
    chunk = max(1, _APPLY_BLOCK // max(len(h), 1))
    for lo in range(0, bits.size, chunk):
        part = bits[lo : lo + chunk]
        yield lo, part[None, :] ^ gx[:, None], group_elements(h, part)


def apply_sum_to_vector(h: PauliSum, v: SparseVector) -> SparseVector:
    """H|v> computed exactly; output sparsity at most (x-mask groups) * len(v).

    Each (term, entry) product (w_k s) a is binned to its image and added
    into one running sum per image in term-major order, so every image sums
    the same products in the same order whatever the block size.  Term
    blocks bound the product scratch by _APPLY_BLOCK.
    """
    if h.n_qubits != v.n_qubits:
        raise ValueError("qubit-count mismatch")
    if len(v) == 0 or len(h) == 0:
        return SparseVector([], [], v.n_qubits)
    gx, _ = h.x_groups
    out_bits, inv = np.unique(v.bits[None, :] ^ gx[:, None], return_inverse=True)
    inv = inv.reshape(gx.size, len(v))
    re = np.zeros(out_bits.size)
    im = np.zeros(out_bits.size)
    block = max(1, _APPLY_BLOCK // len(v))
    for lo in range(0, len(h), block):
        hi = lo + block
        amps = (h._weights[lo:hi, None] * pauli_signs(v.bits, h._zm[lo:hi])
                * v.amps[None, :]).ravel()
        bins = inv[h._gterm[lo:hi]].ravel()
        np.add.at(re, bins, amps.real)  # in index order, onto the earlier blocks
        np.add.at(im, bins, amps.imag)
    amps = np.empty(out_bits.size, dtype=complex)
    amps.real, amps.imag = re, im
    return SparseVector(out_bits, amps, v.n_qubits, _sorted=True)


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


def diagonal_element(h: PauliSum, bits) -> np.ndarray | float:
    """<x|H|x> for one packed configuration or an array of them: D_0."""
    scalar = not isinstance(bits, np.ndarray)
    b = np.atleast_1d(np.asarray(bits, dtype=np.uint64))
    gx, _ = h.x_groups
    if gx.size and gx[0] == 0:
        out = group_elements(h, b, slice(0, 1))[0]
    else:
        out = np.zeros(b.size, dtype=complex)
    res = out.real if np.abs(out.imag).max(initial=0.0) < 1e-9 else out
    return float(res[0]) if scalar else res


def conjugate_by_x_layer(h: PauliSum, mask: int) -> PauliSum:
    """X_mask H X_mask; each coefficient flips sign per (-1)^|z_mask & mask|."""
    if mask < 0 or mask >> h.n_qubits:
        raise ValueError("mask does not fit qubit count")
    out = []
    for c, s in h.terms:
        sign = -1.0 if popcount(s.z_mask & mask) % 2 else 1.0
        out.append((sign * c, s))
    return PauliSum(out, h.n_qubits)


def pauli_sum_to_dense(h: PauliSum) -> np.ndarray:
    """Dense 2^n matrix oracle.  Basis index bit q = qubit q value."""
    if h.n_qubits > 14:
        raise ValueError("dense oracle limited to 14 qubits")
    dim = 1 << h.n_qubits
    m = np.zeros((dim, dim), dtype=complex)
    cols = np.arange(dim, dtype=np.uint64)
    for g, x in enumerate(h.x_groups[0]):
        m[(cols ^ x).astype(np.int64), cols.astype(np.int64)] = group_elements(
            h, cols, slice(g, g + 1)
        )[0]
    return m


def decompose_dense_block(
    m: np.ndarray,
    qubits: list[int],
    n: int,
    *,
    max_block_qubits: int = 4,
    hermiticity_tol: float = 1e-12,
) -> PauliSum:
    """Expand a dense Hermitian block into Pauli strings on the given qubits.

    Coefficients are tr(P m) / 2^k; entries below the canonical drop
    threshold disappear in the returned sum.
    """
    m = np.asarray(m, dtype=complex)
    k = len(qubits)
    if m.shape != (1 << k, 1 << k):
        raise ValueError(f"matrix shape {m.shape} does not match {k} qubits")
    if k > max_block_qubits:
        raise ValueError(f"block on {k} qubits exceeds cap {max_block_qubits}")
    if np.abs(m - m.conj().T).max() > hermiticity_tol:
        raise ValueError("matrix is not Hermitian within tolerance")
    if len(set(qubits)) != k:
        raise ValueError("duplicate qubits in block")

    terms = []
    for code in range(4**k):
        local_label = []
        xm = zm = 0
        cc = code
        for j in range(k):
            p = cc % 4
            cc //= 4
            local_label.append(_PAULI_CHARS[p])
            if p in (1, 3):
                xm |= 1 << qubits[j]
            if p in (2, 3):
                zm |= 1 << qubits[j]
        local = PauliString.from_label("".join(local_label))
        coeff = np.trace(local.dense() @ m) / (1 << k)
        if abs(coeff) >= COEFF_DROP_TOL:
            terms.append((coeff, PauliString(xm, zm, n)))
    return PauliSum(terms, n)
