"""Hamiltonian projection onto configuration bases, and expansion.

A basis is a sorted, duplicate-free uint64 array of packed configurations.
The projection of a Hermitian H is row-wise, at linear cost, and an
update of an earlier projection (of the empty basis when there is none):
it looks up members' images under the Hamiltonian's x-mask groups and
writes each group's net element on the image into a CSR matrix of the
upper triangle, in place and in the Hamiltonian's dtype (real when H is).
`ProjectedMatrix` holds that triangle and is the one Hermitian operator
the eigensolvers and the propagator read.  One rule picks how the images
are looked up, and one fill writes the CSR.  One walk, `_nonzero_images`,
keeps only the members with a nonzero net element, one off-diagonal group
at a time, so nothing holds a groups x members array: expansion
(connected_bits, the pool filter, the reachable closure) reads their
images, SCI's scoring their elements too, and the projection's pass walks
each pair {x, x ^ x_g} from its column, looking its row up only for a
nonzero element.  Its all-pairs oracle lives with the tests.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING

import numpy as np

from .paulis import (PauliSum, _diagonal_elements, check_basis, group_elements, index_in,
                     pair_elements, unique_bits)
from .trace import BudgetExceeded

if TYPE_CHECKING:
    import scipy.sparse as sp

ZERO_TOL = 1e-14
_LOOKUP_BLOCK = 1 << 16  # cap on the (groups x new members) images looked up per block
# share of new members above which the group pass beats the lookup on ASCI's 4,000-member
# flagship basis: 0.8-0.9 when the pass walked pairs from rows, 0.6-0.7 from columns
_UPDATE_MAX_NEW = 0.85
_ROW_SUM_BLOCK = 1 << 17  # entries of |H| summed at a time for the Gershgorin row sums


@dataclass
class ProjectedMatrix:
    """H_B = Pi_B H Pi_B of a Hermitian H, held as its upper triangle:
    `rows` is the CSR of the entries with row <= column, diagonal
    included, and the lower triangle is their conjugate.  It is the one
    operator the eigensolvers and the propagator read: `@`, `toarray`,
    `diagonal`, `abs_row_sums` and `nnz`, the whole matrix's count."""

    dim: int
    rows: sp.csr_matrix

    @property
    def shape(self) -> tuple[int, int]:
        return self.dim, self.dim

    @property
    def dtype(self) -> np.dtype:
        return self.rows.dtype

    @cached_property
    def _diag(self) -> np.ndarray:
        d = self.rows.diagonal()
        d.flags.writeable = False
        return d

    @cached_property
    def _columns(self):
        """U^T, a CSC view of the rows' own arrays: no copy of `data`."""
        return self.rows.T

    @property
    def nnz(self) -> int:
        """Nonzeros of the whole matrix: each stored entry twice, the
        diagonal's once."""
        return 2 * self.rows.nnz - int(np.count_nonzero(self._diag))

    def diagonal(self) -> np.ndarray:
        """The diagonal, read-only."""
        return self._diag

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        """H x = U x + U^H x - d x, U the upper triangle and d the
        diagonal, which U and U^H both hold; x is a vector or a block of
        columns."""
        y = self.rows @ x
        if np.iscomplexobj(self.rows.data):  # U^H x = conj(U^T conj(x))
            y += (self._columns @ x.conj()).conj()
        else:
            y += self._columns @ x
        y -= (self._diag * x.T).T
        return y

    def toarray(self) -> np.ndarray:
        """The dense matrix, its lower triangle written as the conjugate of
        the upper."""
        a = self.rows.toarray()
        a += np.tril(a.T.conj(), -1)
        return a

    def abs_row_sums(self) -> np.ndarray:
        """sum_j |H_ij| for each row i, over blocks of about _ROW_SUM_BLOCK
        entries of the upper triangle cut at row ends, so |H|'s data is
        never held whole.  A block adds its strictly lower entries into
        their columns' sums (np.add.at), then its rows' upper sums
        (np.add.reduceat over the nonempty rows).  So each sum is a row's
        lower entries in storage order plus its upper sum, whatever the
        block size.  A stored diagonal entry heads its row, whose columns
        are sorted, as project_fast leaves them."""
        u = self.rows
        out = np.zeros(self.dim)
        rows = np.flatnonzero(np.diff(u.indptr))
        starts = u.indptr[rows]
        cuts = np.searchsorted(starts, np.arange(0, u.nnz, _ROW_SUM_BLOCK))
        for a, b in itertools.pairwise(np.unique(np.append(cuts, rows.size)).tolist()):
            lo, hi = starts[a], u.indptr[rows[b - 1] + 1]
            mag, heads = np.abs(u.data[lo:hi]), starts[a:b] - lo
            upper = np.add.reduceat(mag, heads)
            mag[heads[u.indices[starts[a:b]] == rows[a:b]]] = 0  # the diagonal is its row's
            np.add.at(out, u.indices[lo:hi], mag)
            out[rows[a:b]] += upper
            del mag  # one block's magnitudes at a time
        return out


def project_fast(h: PauliSum, bits: np.ndarray,
                 prev: tuple[np.ndarray, sp.csr_matrix] | None = None) -> ProjectedMatrix:
    """Row-wise projection of a Hermitian H onto the basis `bits`, written
    straight into the CSR of its upper triangle in h's dtype, as an update
    of `prev = (old_bits, old_rows)`, an earlier projection of the same H;
    without `prev`, of the projection onto the empty basis.  The result is
    the same matrix, bit for bit, whatever `prev` is.  An entry
    <x_i|H|x_j>, i <= j, is the net element D_g(x_j) of the x-mask group g
    with x_i ^ x_j = x_g, on the column's configuration, and is dropped
    below ZERO_TOL.  A non-Hermitian H raises ValueError.

    The block among members of both bases is copied from `old_rows`, and
    the rest comes from the new members' images, looked up block by block
    (`_new_entries`) and held as pieces of index dtype, each holding its
    entries in row order.  A new member costs that lookup more than a
    member costs its share of one pass over every group
    (`_group_entries`), so the pass is taken instead when more than
    `_UPDATE_MAX_NEW` of the members are new and their images fill more
    than two lookup blocks.  The pass walks each pair from its column,
    looks its row up only for a nonzero element, and holds one group's
    entries at a time.  Either way the counts give `indptr`, so `indices`
    and `data` are allocated at their exact size, one loop fills the
    pieces in place, and each row is sorted by column at the end."""
    import scipy.sparse as sp  # on first use: generate, verify and info never load SciPy

    check_basis(h, bits)
    if not h.is_hermitian():
        raise ValueError("projection needs a Hermitian H (real coefficients)")
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
    del counts
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
    """(counts, pieces): each row's number of entries in the upper
    triangle of H projected onto `bits`, and a generator of those entries
    as pieces (rows, 1, cols, values) of index dtype `idx`: the diagonal's,
    then one per off-diagonal group.  The first walk over the pairs from
    their columns counts the rows' entries and packs, per group, a bit per
    walked member whose row is in the basis; the second, as the generator
    is drawn, walks only those.  A group gives a row at most one column,
    and distinct groups distinct ones, so no entry comes twice."""
    counts = (np.abs(_diagonal_elements(h, bits)) >= ZERO_TOL).astype(idx)
    found = []
    for _, images, d, kept in _nonzero_images(h, bits, _columns(h, bits, idx)):
        rows = index_in(bits, images)
        counts[rows[rows >= 0]] += 1
        walked = np.zeros(d.size, dtype=bool)
        walked[kept[rows >= 0]] = True
        found.append(np.packbits(walked))

    def pieces():
        d = _diagonal_elements(h, bits)
        diag = np.flatnonzero(np.abs(d) >= ZERO_TOL).astype(idx)
        yield diag, 1, diag, d[diag]
        del d, diag
        for cols, images, d, kept in _nonzero_images(h, bits, _columns(h, bits, idx, found)):
            yield index_in(bits, images).astype(idx), 1, cols, d[kept]

    return counts, pieces()


def _columns(h: PauliSum, bits: np.ndarray, idx, found=None):
    """`within` for `_nonzero_images`: the columns, the members whose bit at
    x_g's highest set bit is set, in dtype `idx`; with `found`, the marked ones."""
    gx, packed = h.x_groups[0].tolist(), iter(found or ())

    @lru_cache(maxsize=1)  # x-masks ascend: groups sharing a highest bit are adjacent
    def upper(top):
        return np.flatnonzero(bits & np.uint64(1 << top)).astype(idx)

    def within(g):
        cols = upper(gx[g].bit_length() - 1)
        return cols if found is None else cols[np.unpackbits(next(packed), count=cols.size) > 0]
    return within


def _shared_entries(old_rows: sp.csr_matrix, at: np.ndarray):
    """The entries of `old_rows` among the members it shares with the new
    basis, as a piece (rows, counts, cols, values) renumbered by `at`,
    each old member's index in the new basis or -1.  The renumbering is
    monotone, so an upper entry stays upper."""
    cols = at[old_rows.indices]
    keep = cols >= 0
    keep &= np.repeat(at >= 0, np.diff(old_rows.indptr))
    kept = np.zeros(keep.size + 1, dtype=at.dtype)
    np.cumsum(keep, out=kept[1:])
    n = np.diff(kept[old_rows.indptr])  # each old row's kept entries
    rows = np.flatnonzero(n)
    return at[rows], n[rows], cols[keep], old_rows.data[keep]


def _new_entries(h: PauliSum, bits: np.ndarray, old: np.ndarray, idx) -> list:
    """The upper-triangle entries of H projected onto `bits` in the rows
    and columns of the members outside the mask `old`, as pieces (rows,
    counts, cols, values) of index dtype `idx`, one per block of new
    members.  A block's images are looked up under every group at once:
    the image x_k = x_j ^ x_g of new member j gives the entry
    (min(j, k), max(j, k)), whose value is the net element D_g on the
    column's configuration.  A pair of new members is looked up from both,
    so it is taken from its row's member.  Elements below ZERO_TOL are
    dropped."""
    gx = h.x_groups[0]
    new = np.flatnonzero(~old)
    step = max(1, _LOOKUP_BLOCK // max(gx.size, 1))
    pieces = []
    for lo in range(0, new.size, step):
        j = new[lo : lo + step]
        addr = index_in(bits, bits[j][None, :] ^ gx[:, None])
        g, s = np.nonzero(addr >= 0)
        k, j = addr[g, s], j[s]
        take = np.flatnonzero((k >= j) | old[k])
        g, j, k = g[take], j[take], k[take]
        rows, cols = np.minimum(j, k), np.maximum(j, k)
        vals = pair_elements(h, g, bits[cols])
        keep = np.flatnonzero(np.abs(vals) >= ZERO_TOL)
        keep = keep[np.argsort(rows[keep])]
        rows = rows[keep].astype(idx)
        head = np.flatnonzero(np.diff(rows, prepend=-1))  # each row's first entry
        pieces.append((rows[head], np.diff(head, append=rows.size).astype(idx),
                       cols[keep].astype(idx), vals[keep]))
    return pieces


def _nonzero_images(h: PauliSum, bits: np.ndarray, within=None):
    """Yield (sources, images, elements, kept) for each off-diagonal x-mask
    group g in ascending order: the indices i of the members with a net
    element D_g(bits[i]) of magnitude at least ZERO_TOL, their images
    bits[i] ^ x_g, the elements of the members looked at, and the sources'
    places among those (elements[kept] are the sources' own).  `within`, a
    function of g called once per such group before it is yielded, gives
    the indices of the members to look at; without it, all are.  The
    diagonal group maps each member to itself, so it is skipped."""
    for g, x in enumerate(h.x_groups[0]):
        if x:
            look = None if within is None else within(g)
            d = group_elements(h, bits if look is None else bits[look], slice(g, g + 1))[0]
            kept = np.flatnonzero(np.abs(d) >= ZERO_TOL)
            src = kept if look is None else look[kept]
            yield src, bits[src] ^ x, d, kept


def connected_bits(h: PauliSum, bits: np.ndarray) -> np.ndarray:
    """Sorted configurations outside `bits` with a net element of magnitude
    at least ZERO_TOL to some member of `bits` (cancellations across terms
    respected).  `bits` must be sorted and duplicate-free, as for
    project_fast.  Only the kept images are gathered, one group at a
    time, so the scratch is O(len(bits) + output), not groups x
    len(bits)."""
    check_basis(h, bits)
    found = [img for _, img, _, _ in _nonzero_images(h, bits)]
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

    One pass only.  An isolated member is an eigenvector of the projected
    Hamiltonian with its diagonal energy as eigenvalue, so dropping it
    gives up that energy: the filtered pool's lowest eigenvalue can lie
    above the whole pool's.  For H = 2 Z_0 + X_1 X_2 the pool {0b000,
    0b001, 0b110} projects to -2, from the isolated 0b001, and the
    filtered {0b000, 0b110} to 1.

    Dropping isolated members is also what keeps each instance's isolated
    zero-energy configuration out of a pool.  Every patch's empty state
    has energy 0, which is the certified energy, and no element connects
    it to anything; after obfuscation it is one configuration (x0 ^ 1 =
    0xffe6 on `path16` at seed 9).  It is outside R(x0), so only SKQD's
    noise channel samples it, and a pool that kept it would report the
    certified energy from a state with zero overlap with the certified one.
    """
    check_basis(h, bits)
    keep = np.zeros(bits.size, dtype=bool)
    for src, img, _, _ in _nonzero_images(h, bits):
        pos = index_in(bits, img)
        hits = pos >= 0
        # x connects out, and the partner connects back (H is Hermitian)
        keep[src[hits]] = True
        keep[pos[hits]] = True
    return bits[keep]
