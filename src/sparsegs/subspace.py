"""Hamiltonian projection onto configuration bases, and expansion.

A basis is a sorted, duplicate-free uint64 array of packed configurations.
The projection of a Hermitian H is row-wise, at linear cost, and an
update of an earlier projection (of the empty basis when there is none):
it looks up members' images under the Hamiltonian's x-mask groups and
writes each group's net element on the image into a CSR matrix of the
upper triangle, in place and in the Hamiltonian's dtype (real when H is).
`ProjectedMatrix` holds that triangle and is the one Hermitian operator
the eigensolvers and the propagator read.  One rule picks how the images
are looked up, and one fill writes the CSR.  The pass over every group
looks each pair {x, x ^ x_g} up from its smaller member, the entry's row,
and walks the groups twice, first to count each row's entries, so the CSR
is allocated at its exact size, then to fill it.  The all-pairs oracle it
is tested against lives with the tests.  Expansion (connected_bits, the
pool filter and the reachable closure) walks the off-diagonal groups one
at a time and keeps only the members with a nonzero net element, so it
never holds a groups x members array; SCI's scoring step walks the same
pairs, with their elements.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .paulis import PauliSum, check_basis, group_elements, index_in, pair_elements, unique_bits
from .trace import BudgetExceeded

if TYPE_CHECKING:
    import scipy.sparse as sp

ZERO_TOL = 1e-14
_LOOKUP_BLOCK = 1 << 16  # cap on the (groups x new members) images looked up per block
_UPDATE_MAX_NEW = 0.85  # measured break-even share of new members, lookup against group pass
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
    than two lookup blocks.  The pass walks the groups twice, first to
    count each row's entries and then to fill them, and holds one group's
    entries at a time.  Either way the counts give `indptr`, `indices` and
    `data` are allocated at their exact size, one loop fills the pieces in
    place, and each row is sorted by column at the end."""
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
    as pieces (rows, 1, cols, values) of index dtype `idx`, one per group.
    The groups are walked twice by `_upper_pairs`.  The first walk, here,
    looks every member up, counts the rows' entries and packs, for each
    group, a bit per looked-up member that gave one; the second, as the
    generator is drawn, looks up only those members and recomputes their
    elements.  So besides the CSR and the bits only one group's entries
    are alive.  A group gives each row at most one column, and distinct
    groups distinct columns, so no entry comes twice."""
    counts = np.zeros(bits.size, dtype=idx)
    found = []
    for rows, _, _, kept in _upper_pairs(h, bits, idx):
        counts[rows] += 1
        found.append(np.packbits(kept))
    return counts, ((rows, 1, cols, d) for rows, cols, d, _ in _upper_pairs(h, bits, idx, found))


def _upper_pairs(h: PauliSum, bits: np.ndarray, idx, found=None):
    """Yield (rows, cols, values, kept) for each x-mask group g in turn:
    the pairs {x, x ^ x_g} in the basis, each looked up once, from its
    member x whose bit at x_g's highest set bit is clear, which is the
    smaller and so the pair's row; its column is x ^ x_g and its value
    D_g(x ^ x_g), kept when at least ZERO_TOL.  The diagonal group's pairs
    are the members themselves.  Rows and columns are of index dtype
    `idx`, and `kept` marks the looked-up members that gave an entry.
    With `found`, each group's `kept` bits packed by an earlier walk, only
    those members are looked up."""
    top = -1
    for g, x in enumerate(h.x_groups[0].tolist()):
        if x.bit_length() != top:  # x-masks ascend: groups sharing a highest bit are adjacent
            top = x.bit_length()
            lower = np.flatnonzero((bits & np.uint64((1 << top) >> 1)) == 0).astype(idx)
            xs = bits[lower]
        pick = slice(None) if found is None else np.unpackbits(
            found[g], count=lower.size).view(bool)
        lo = lower[pick]
        hi = index_in(bits, xs[pick] ^ np.uint64(x)) if x else lo  # x = 0: a member is its pair
        kept = hi >= 0
        lo, hi = lo[kept], hi[kept].astype(idx)
        d = group_elements(h, bits[hi], slice(g, g + 1))[0]
        keep = np.abs(d) >= ZERO_TOL
        kept[kept] = keep
        entries = lo[keep], hi[keep], d[keep], kept
        del lo, hi, d, keep  # the walk holds no more than the entries while they are read
        yield entries


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
    group g, one group at a time: the indices i of the members with a net
    element D_g(bits[i]) of magnitude at least ZERO_TOL, their images
    bits[i] ^ x_g, the net elements of the members looked at, and the
    sources' places among those, so elements[kept] are the sources' own (a
    caller that reads them gathers them).  With `within`, a function of g
    giving the indices of the members to look at, the others are skipped.
    The diagonal group maps each member to itself, so it is skipped too."""
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
