"""Pauli-string algebra over computational basis configurations.

Hamiltonians are weighted sums of Pauli strings stored as (x_mask, z_mask)
bit pairs, so applying a string to a basis state is a constant number of
word operations per 64 qubits.  A qubit carries Y iff it is set in both
masks, identity iff in neither.  The literal operator convention is

    P = prod_q sigma_q,   P|x> = i^|Y| * (-1)^popcount(x & z_mask) |x ^ x_mask>,

which reproduces Y|0> = i|1>, Y|1> = -i|0>.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

MAX_QUBITS = 64
COEFF_DROP_TOL = 1e-14
HERMITICITY_TOL = 1e-12
BLOCK_MAX_QUBITS = 4  # decompose_dense_block's width limit

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
        ops = [_SINGLE_QUBIT[ch] for ch in self.label]
        out = ops[-1]
        for op in ops[-2::-1]:
            out = np.kron(out, op)
        return out


class PauliSum:
    """Hamiltonian H = sum_k alpha_k T_k, canonicalized on construction.

    Duplicate strings are merged, coefficients below 1e-14 dropped, and
    terms sorted by mask pair, so equal operators compare equal term by
    term.  Immutable; cached mask/coefficient arrays back the vectorized
    kernels.  The net weights w_k = alpha_k i^|Y_k| are stored as float64
    when every one has an imaginary part of exactly zero (H is then a real
    matrix), as complex128 otherwise; `dtype` is theirs, and the kernels
    compute in it.
    """

    __slots__ = ("n_qubits", "terms", "_xm", "_zm", "_coeff", "_phase", "_weights",
                 "_gx", "_gstart")

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
        w = self._coeff * self._phase
        # exactly real, not within a tolerance: the real path then rounds
        # as the complex one did
        self._weights = w if w.imag.any() else w.real.copy()
        # terms are sorted by x-mask first, so each x-mask group is a run
        self._gx, self._gstart = np.unique(self._xm, return_index=True)
        self._gstart = np.append(self._gstart, self._xm.size)
        for arr in (self._xm, self._zm, self._coeff, self._phase, self._weights,
                    self._gx, self._gstart):
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
    def dtype(self) -> np.dtype:
        """float64 when H is a real matrix, complex128 otherwise."""
        return self._weights.dtype

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


# -- vectorized action kernels -------------------------------------------
#
# H|x> = sum_g D_g(x) |x ^ x_g>, with D_g(x) = sum_{k in g} w_k (-1)^popcount(x & z_k)
# and w_k = alpha_k i^|Y_k|.  Each kernel below walks the x-mask groups, in the
# weights' dtype: real arithmetic when H is real.  The fold and the
# expansion (subspace) hold one group's elements at a time.  The action
# (apply_sum_to_vector) indexes every image, groups x len(bits) of them,
# by unique_inverse (image_index), at most four arrays of that size and 8
# bytes at once, and its fold (fold_images) still adds one product w_k
# (-1)^popcount(x & z_k) a(x) per term, not D_g(x) a(x): a net element
# rounds differently, which would move every matrix-free solver's
# iterates.  SCI's scoring (sci._scores) indexes, by the same
# unique_inverse, only the images of the (group, member) pairs whose net
# element is nonzero, and sums D_g(x) a(x).  A sparse vector is a sorted,
# duplicate-free uint64 `bits` array (a basis, as check_basis defines it)
# plus an aligned `amps` array.  The amplitudes are complex128 even when H
# is real, because BLAS's real dot products and norms round differently
# from the complex ones, which moves the Gram-Schmidt residue that
# truncated Arnoldi keeps or cuts.


def unique_bits(bits: np.ndarray) -> np.ndarray:
    """np.unique for configuration arrays by sort and compare; NumPy 2.4's
    np.unique takes about 15x longer on uint64 arrays of 1e5 entries."""
    bits = np.sort(bits)
    return bits[np.concatenate(([True], bits[1:] != bits[:-1]))] if bits.size else bits


def index_in(members: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """Index of each of `bits` in the sorted, duplicate-free `members`, or
    -1 when absent; by binary search, as NumPy's isin takes about 3x longer."""
    if members.size == 0:
        return np.full(bits.shape, -1, dtype=np.int64)
    pos = np.searchsorted(members, bits).astype(np.int64, copy=False)
    np.minimum(pos, members.size - 1, out=pos)  # in place: `bits` can hold millions of images
    pos[members[pos] != bits] = -1
    return pos


def check_basis(h: PauliSum, bits: np.ndarray) -> None:
    """A basis is a sorted, duplicate-free uint64 array of configurations
    that fit in h's qubits; anything else raises ValueError."""
    if np.any(bits[1:] <= bits[:-1]):
        raise ValueError("basis must be sorted and duplicate-free")
    if bits.size and int(bits[-1]) >> h.n_qubits:
        raise ValueError(f"configuration 0x{int(bits[-1]):x} is wider than {h.n_qubits} qubits")


def pauli_signs(bits: np.ndarray, z_masks: np.ndarray) -> np.ndarray:
    """(-1)^popcount(bits & z) as floats, shape (len(z_masks), len(bits))."""
    return _parity_signs(bits[None, :], z_masks[:, None])


def _parity_signs(bits: np.ndarray, z_masks: np.ndarray) -> np.ndarray:
    """(-1)^popcount(bits & z_masks) as floats, broadcast."""
    return 1.0 - 2.0 * (np.bitwise_count(bits & z_masks) & 1)


def group_elements(h: PauliSum, bits: np.ndarray, groups: slice = slice(None)) -> np.ndarray:
    """Net elements D_g(x) = <x ^ x_g|H|x> of the x-mask groups in `groups`
    on each configuration, shape (groups, len(bits)).

    Each element is summed from zero one term at a time, in term order (a
    pairwise reduction would round differently), so a term's signs are the
    only scratch: O(len(bits)), not a (terms x configurations) array.
    """
    gx, starts = h.x_groups
    lo, hi, _ = groups.indices(gx.size)
    out = np.zeros((max(hi - lo, 0), bits.size), dtype=h.dtype)
    for g in range(lo, hi):
        for k in range(starts[g], starts[g + 1]):
            out[g - lo] += h._weights[k] * _parity_signs(bits, h._zm[k])
    return out


def group_bounds(h: PauliSum) -> np.ndarray:
    """W_g = sum_{k in g} |w_k| for each x-mask group g, summed one term at
    a time in group_elements' order.  Rounding is monotone and symmetric,
    so by induction over the terms each partial sum of a real D_g(x) is at
    most W_g's in magnitude: |D_g(x)| <= W_g holds in floating point."""
    starts = h.x_groups[1]
    n = np.diff(starts)
    out = np.zeros(n.size)
    for r in range(int(n.max(initial=0))):
        more = n > r
        out[more] += np.abs(h._weights[starts[:-1][more] + r])
    return out


def pair_elements(h: PauliSum, groups: np.ndarray, bits: np.ndarray) -> np.ndarray:
    """D_g(x) for each pair of group index g = groups[i] and configuration
    x = bits[i], shape (len(bits),), summed as group_elements sums."""
    starts = h.x_groups[1]
    # the pairs by falling term count, so that those with a term r are a prefix
    fewer = starts[groups] - starts[groups + 1]
    order = np.argsort(fewer, kind="stable")
    fewer, first, bits = fewer[order], starts[groups][order], bits[order]
    sums = np.zeros(bits.size, dtype=h.dtype)
    for r in range(-int(fewer.min(initial=0))):
        n = np.searchsorted(fewer, -r)
        t = first[:n] + r
        sums[:n] += h._weights[t] * _parity_signs(bits[:n], h._zm[t])
    out = np.empty_like(sums)
    out[order] = sums
    return out


def unique_inverse(flat: np.ndarray):
    """(images, inverse): the sorted distinct values of the flat uint64
    array `flat` and each entry's index among them, as np.unique(...,
    return_inverse=True) gives them.  np.unique's own method, built by
    hand so that the unsorted and the sorted values are released as soon
    as they are used: passed a temporary, at most four arrays of flat's
    size and 8 bytes are alive, where np.unique holds about seven."""
    order = np.argsort(flat)
    flat = flat[order]  # sorted; a temporary argument's unsorted values are released
    head = np.empty(flat.size, dtype=bool)  # each distinct value's first place
    head[:1] = True
    np.not_equal(flat[1:], flat[:-1], out=head[1:])
    images = flat[head]
    del flat
    rank = np.cumsum(head, dtype=np.intp)
    rank -= 1
    inv = np.empty_like(rank)
    inv[order] = rank
    return images, inv


def image_index(h: PauliSum, bits: np.ndarray):
    """(images, inverse): the sorted distinct images bits[i] ^ x_g of the
    configurations under H's x-mask groups, and inverse[g, i], the index
    of bits[i] ^ x_g in images, by unique_inverse over every image."""
    gx, _ = h.x_groups
    images, inv = unique_inverse((bits[None, :] ^ gx[:, None]).ravel())
    return images, inv.reshape(gx.size, bits.size)


def fold_images(h: PauliSum, bits: np.ndarray, amps: np.ndarray, inv: np.ndarray,
                size: int) -> np.ndarray:
    """<y|H|v> for v = (bits, amps) on each of `size` images y, as complex128,
    given image_index's inverse.

    Group by group, the running sums at the group's images are gathered,
    each of its terms' products (+-w_k) a is added onto them in term order,
    and the sums are scattered back.  A group sends distinct entries to
    distinct images, so every image sums the same products in the same
    term-major order whatever the grouping.  When H and the amplitudes are
    both real, the sums are real too: they are folded in float64 into the
    real parts, and the imaginary parts stay +0.0, as the complex sums of
    products with zero imaginary parts would.
    """
    amps = np.asarray(amps, dtype=complex)
    out = np.zeros(size, dtype=complex)
    fold = out
    if h.dtype == np.float64 and not amps.imag.any():
        fold, amps = out.real, amps.real
    _, starts = h.x_groups
    w, zm = h._weights[:, None], h._zm[:, None]
    for g, (lo, hi) in enumerate(itertools.pairwise(starts.tolist())):
        sums = fold[inv[g]]
        # -(w_k a) is (-w_k) a exactly, so the sign goes on after the product
        prods = w[lo:hi] * amps
        np.negative(prods, out=prods, where=(np.bitwise_count(bits & zm[lo:hi]) & 1).view(bool))
        for p in prods:
            sums += p
        fold[inv[g]] = sums
    return out


def apply_sum_to_vector(h: PauliSum, bits: np.ndarray, amps: np.ndarray):
    """H|v> computed exactly for v = (bits, amps), returned as (bits, amps):
    sorted, complex128, exact zeros dropped; output sparsity at most
    (x-mask groups) * len(bits).  See fold_images for the summation order.
    """
    check_basis(h, bits)
    if np.shape(amps) != bits.shape:
        raise ValueError("bits/amps length mismatch")
    if bits.size == 0 or len(h) == 0:
        return np.zeros(0, dtype=np.uint64), np.zeros(0, dtype=complex)
    out_bits, inv = image_index(h, bits)
    out = fold_images(h, bits, amps, inv, out_bits.size)
    keep = out != 0
    return out_bits[keep], out[keep]


def _merge_bases(bl: np.ndarray, bs: np.ndarray):
    """(union, new, pos) of two bases, without a sort: `pos` is each bs
    entry's place in bl, and bs's missing entries (mask `new`) are
    inserted there.  The binary search and the insert are cheapest when
    bs is the shorter."""
    pos = np.searchsorted(bl, bs)
    new = bl.take(pos, mode="clip") != bs if bl.size else np.ones(bs.size, dtype=bool)
    return np.insert(bl, pos[new], bs[new]), new, pos


def add_scaled(bu: np.ndarray, au: np.ndarray, bv: np.ndarray, av: np.ndarray,
               factor: complex):
    """u + factor * v over the union of the two supports, exact zeros
    dropped.  factor * v is added onto u's entries and onto zeros
    elsewhere: a shared entry is u + (factor * v), rounded once.  The
    shorter support is searched in the longer."""
    au, fv = np.asarray(au, dtype=complex), factor * av
    if bu.size >= bv.size:
        merged, new, pos = _merge_bases(bu, bv)
        amps = np.insert(au, pos[new], 0)
        amps[pos + np.cumsum(new) - new] += fv
    else:
        merged, new, pos = _merge_bases(bv, bu)
        # fv + 0: factor * v added onto zeros, down to the sign of a zero part
        amps = np.insert(np.asarray(fv + 0, dtype=complex), pos[new], au[new])
        shared = ~new
        amps[(pos + np.cumsum(new) - new)[shared]] = au[shared] + fv[pos[shared]]
    keep = amps != 0
    return merged[keep], amps[keep]


def sparse_vdot(ba: np.ndarray, aa: np.ndarray, bb: np.ndarray, ab: np.ndarray) -> complex:
    """<a|b>, conjugating a, summed over the shared entries in ascending
    bit order; a is looked up in b, so pass the shorter vector first."""
    idx = index_in(bb, ba)
    hit = idx >= 0
    return complex(np.vdot(aa[hit], ab[idx[hit]]))


def truncate_top(bits: np.ndarray, amps: np.ndarray, k: int):
    """The k largest-magnitude entries, ties broken by ascending bit value,
    kept in bit order.  A partition finds the k-th largest magnitude; every
    entry above it is kept, and the lowest-bit entries at it fill up to k."""
    if bits.size <= k:
        return bits, amps
    mags = np.abs(amps)
    cut = np.partition(mags, bits.size - k)[bits.size - k]
    keep = mags > cut
    keep[np.flatnonzero(mags == cut)[: k - np.count_nonzero(keep)]] = True
    return bits[keep], amps[keep]


def _diagonal_elements(h: PauliSum, bits: np.ndarray) -> np.ndarray:
    """D_0(x) on each configuration in h's dtype, as group_elements sums
    it: group 0 when its x-mask is 0, zeros when H has no diagonal group."""
    gx, _ = h.x_groups
    if gx.size and gx[0] == 0:
        return group_elements(h, bits, slice(0, 1))[0]
    return np.zeros(bits.size, dtype=h.dtype)


def diagonal_element(h: PauliSum, bits) -> np.ndarray | float:
    """<x|H|x> for one packed configuration or an array of them: D_0."""
    out = _diagonal_elements(h, np.atleast_1d(np.asarray(bits, dtype=np.uint64)))
    res = out.real if np.abs(out.imag).max(initial=0.0) < 1e-9 else out
    return res if isinstance(bits, np.ndarray) else float(res[0])


def conjugate_by_x_layer(h: PauliSum, mask: int) -> PauliSum:
    """X_mask H X_mask; each coefficient flips sign per (-1)^|z_mask & mask|."""
    if mask < 0 or mask >> h.n_qubits:
        raise ValueError("mask does not fit qubit count")
    out = []
    for c, s in h.terms:
        sign = -1.0 if popcount(s.z_mask & mask) % 2 else 1.0
        out.append((sign * c, s))
    return PauliSum(out, h.n_qubits)


def decompose_dense_block(
    m: np.ndarray,
    qubits: list[int],
    n: int,
) -> PauliSum:
    """Expand a dense Hermitian block into Pauli strings on the given qubits.

    Coefficients are tr(P m) / 2^k; entries below the canonical drop
    threshold disappear in the returned sum.
    """
    m = np.asarray(m, dtype=complex)
    k = len(qubits)
    if m.shape != (1 << k, 1 << k):
        raise ValueError(f"matrix shape {m.shape} does not match {k} qubits")
    if k > BLOCK_MAX_QUBITS:
        raise ValueError(f"block on {k} qubits exceeds cap {BLOCK_MAX_QUBITS}")
    if np.abs(m - m.conj().T).max() > HERMITICITY_TOL:
        raise ValueError("matrix is not Hermitian within tolerance")
    if len(set(qubits)) != k:
        raise ValueError("duplicate qubits in block")

    terms = []
    for code, local in enumerate(_local_paulis(k)):
        xm = zm = 0
        for j in range(k):
            p = (code >> 2 * j) & 3  # base-4 digit j of the code: qubit j's Pauli
            if p & 1:
                xm |= 1 << qubits[j]
            if p & 2:
                zm |= 1 << qubits[j]
        coeff = np.trace(local @ m) / (1 << k)
        if abs(coeff) >= COEFF_DROP_TOL:
            terms.append((coeff, PauliString(xm, zm, n)))
    return PauliSum(terms, n)


@functools.cache
def _local_paulis(k: int) -> tuple[np.ndarray, ...]:
    """The 4^k Pauli matrices on k qubits, read-only, indexed by a code
    whose base-4 digit j (I, X, Z, Y) is qubit j's Pauli; built once per
    width."""
    out = []
    for code in range(4**k):
        label = "".join(_PAULI_CHARS[(code >> 2 * j) & 3] for j in range(k))
        mat = PauliString.from_label(label).dense()
        mat.flags.writeable = False
        out.append(mat)
    return tuple(out)
