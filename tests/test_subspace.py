import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import sparsegs.subspace as subspace
from conftest import (flagship_ball, grouped_pauli_sum, kron_dense, layout_instance,
                      random_pauli_sum, to_width, without_odd_y)
from oracles import matrix_element, project_naive
from sparsegs.builder import CoreBlockParams, build_core_block, build_main_patch
from sparsegs.paulis import (Configuration, PauliSum, PauliString, diagonal_element,
                             group_elements, index_in, unique_bits)
from sparsegs.subspace import (
    connected_bits,
    ZERO_TOL,
    connectivity_filter,
    project_fast,
    reachable_bits,
)
from sparsegs.trace import BudgetExceeded


def test_singleton_basis_projects_to_diagonal():
    rng = np.random.default_rng(0)
    h = random_pauli_sum(rng, 4, 10)
    x = Configuration(5, 4)
    b = unique_bits(np.array([x.bits], dtype=np.uint64))
    m = project_fast(h, b).toarray()
    assert m.shape == (1, 1)
    assert m[0, 0] == pytest.approx(matrix_element(h, x, x), abs=1e-14)


def test_empty_basis_gives_empty_matrix():
    rng = np.random.default_rng(1)
    h = random_pauli_sum(rng, 3, 5)
    b = unique_bits(np.array([], dtype=np.uint64))
    assert project_naive(h, b).shape == (0, 0)
    assert project_fast(h, b).toarray().shape == (0, 0)


def _random_case(rng, kind):
    """(h, basis): a random sum of kind "real" (no odd Y count),
    "hermitian" (real coefficients, Y terms give imaginary elements) or
    "non-hermitian" (complex coefficients), on 2 to 8 qubits, and a random
    basis of up to 64 configurations."""
    n = int(rng.integers(2, 9))
    h = random_pauli_sum(rng, n, int(rng.integers(1, 16)), real=kind != "non-hermitian")
    if kind == "real":
        h = without_odd_y(h)
    size = int(rng.integers(1, min(64, 1 << n) + 1))
    return h, np.sort(rng.choice(1 << n, size=size, replace=False).astype(np.uint64))


@given(seed=st.integers(0, 10_000), kind=st.sampled_from(["real", "hermitian", "non-hermitian"]))
@settings(max_examples=60, deadline=None)
def test_fast_equals_naive(seed, kind):
    # the upper triangle and its conjugate give the all-pairs matrix; a
    # non-Hermitian H has no such matrix and is refused
    h, b = _random_case(np.random.default_rng(seed), kind)
    if kind == "non-hermitian":
        with pytest.raises(ValueError, match="Hermitian"):
            project_fast(h, b)
        return
    assert np.abs(project_fast(h, b).toarray() - project_naive(h, b).toarray()).max() < 1e-12


@pytest.mark.parametrize("kind", ["real", "hermitian"])
@pytest.mark.parametrize("seed", range(6))
def test_projected_matrix_reads_as_the_whole_matrix(seed, kind):
    # every consumer reads the one triangle through these: the product,
    # the whole matrix's nonzero count (the flop counts) and the
    # Gershgorin row sums, each against the all-pairs oracle
    rng = np.random.default_rng(600 + seed)
    h, b = _random_case(rng, kind)
    m, want = project_fast(h, b), project_naive(h, b)
    assert np.all(m.rows.indices >= np.repeat(np.arange(b.size), np.diff(m.rows.indptr)))
    assert m.nnz == want.nnz
    x = rng.standard_normal(b.size) + 1j * rng.standard_normal(b.size)
    scale = 1 + np.abs(want.toarray()).sum()
    for v in (x, x.real, np.column_stack([x, 2 * x])):
        assert np.abs(m @ v - want.toarray() @ v).max() < 1e-13 * scale
    assert np.allclose(m.abs_row_sums(), np.abs(want.toarray()).sum(axis=1), rtol=1e-13, atol=1e-13)
    assert np.abs(m.diagonal() - want.diagonal()).max() < 1e-13 * scale


def test_projection_diagonal_matches_matrix_element():
    rng = np.random.default_rng(8)
    h = random_pauli_sum(rng, 5, 12)
    bits = rng.choice(32, size=12, replace=False)
    b = unique_bits(np.array([int(x) for x in bits], dtype=np.uint64))
    m = project_fast(h, b).toarray()
    for i, x in enumerate(b.tolist()):
        cfg = Configuration(x, 5)
        assert m[i, i] == pytest.approx(matrix_element(h, cfg, cfg), abs=1e-12)


def test_projection_monotonicity_under_basis_growth():
    rng = np.random.default_rng(9)
    h = random_pauli_sum(rng, 6, 18)
    all_bits = rng.permutation(64)
    prev = np.inf
    for size in (4, 8, 16, 32, 64):
        b = unique_bits(np.array([int(x) for x in all_bits[:size]], dtype=np.uint64))
        w = np.linalg.eigvalsh(project_fast(h, b).toarray())[0]
        assert w <= prev + 1e-12
        prev = w


def test_projection_onto_patch_support_is_core_block():
    p = CoreBlockParams()
    pr = build_main_patch(list(range(16)), p, 0.1, 0.01, 16)
    h = PauliSum(pr.terms, 16)
    b = unique_bits(np.array([int(x) for x in pr.support_bits], dtype=np.uint64))
    m = project_fast(h, b).toarray()
    assert np.abs(m.real - build_core_block(p)).max() < 1e-10


def test_addressing_modes_agree():
    rng = np.random.default_rng(10)
    bits = [int(b) for b in rng.choice(256, size=40, replace=False)]
    bs = unique_bits(np.array(bits, dtype=np.uint64))
    assert len(bs) == 40
    assert np.array_equal(index_in(bs, bs), np.arange(40))
    query = rng.permutation(bs)
    assert np.array_equal(bs[index_in(bs, query)], query)
    absent = np.array([(set(range(256)) - set(bits)).pop()], dtype=np.uint64)
    assert index_in(bs, absent).tolist() == [-1]


def test_connected_banded_neighbors(patch_instance):
    h, cert = patch_instance
    # support is stored bit-sorted; recover logical order via amplitudes
    # instead use the unobfuscated patch directly
    p = CoreBlockParams()
    pr = build_main_patch(list(range(16)), p, 0.1, 0.01, 16)
    hp = PauliSum(pr.terms, 16)
    conn = connected_bits(hp, np.array([pr.support_bits[3]], dtype=np.uint64)).tolist()
    support = [int(b) for b in pr.support_bits]
    inside = sorted(support.index(c) for c in conn if c in set(support))
    assert inside == [2, 4]  # the banded core row has neighbors only
    odd = [c for c in conn if c not in set(support)]
    assert all(c & 0x5555 == 0 for c in odd)  # the rest are S1 images


def test_connected_empty_seed():
    rng = np.random.default_rng(11)
    h = random_pauli_sum(rng, 4, 6)
    assert connected_bits(h, np.zeros(0, dtype=np.uint64)).size == 0


def test_connected_matches_dense_pattern():
    rng = np.random.default_rng(12)
    h = random_pauli_sum(rng, 4, 8)
    dense = kron_dense(h)
    for xb in range(16):
        got = connected_bits(h, np.array([xb], dtype=np.uint64))
        want = [yb for yb in range(16) if yb != xb and abs(dense[yb, xb]) >= 1e-14]
        assert got.tolist() == want


def test_connected_respects_cancellation():
    # X and Y share the flip image; add XZ to cancel nothing, then build an
    # exact cancellation: (X + (i)(Y at the right phase)) has zero net element
    n = 1
    h = PauliSum(
        [(1.0, PauliString.from_label("X")), (-1j, PauliString.from_label("Y"))], n
    )
    # <1|X|0> = 1, <1|(-i)Y|0> = -i * i = 1 -> net 2 (no cancellation here)
    assert connected_bits(h, np.array([0], dtype=np.uint64)).size
    h2 = PauliSum(
        [(1.0, PauliString.from_label("X")), (1j, PauliString.from_label("Y"))], n
    )
    # <1|X|0> = 1, <1|(i)Y|0> = i * i = -1 -> exact zero, no connection
    assert connected_bits(h2, np.array([0], dtype=np.uint64)).size == 0


# width 64 moves the sum to the top of the 64-bit word, where configurations
# use the word's high bit
@pytest.mark.parametrize("width", [None, 64])
@pytest.mark.parametrize("seed", range(4))
def test_grouped_expansion_matches_dense_oracle(seed, width):
    # several terms per x-mask with exact cancellations
    rng = np.random.default_rng(200 + seed)
    n = 6
    h = grouped_pauli_sum(rng, n, 5, 6)
    dense = kron_dense(h)
    link = np.abs(dense) >= 1e-14
    np.fill_diagonal(link, False)
    assert (group_elements(h, np.arange(1 << n, dtype=np.uint64)) == 0).any()  # cancellations
    hw, shift = to_width(h, width)
    for size in (1, 5, 20):
        src = np.sort(rng.choice(1 << n, size=size, replace=False)).astype(np.uint64)
        inside = np.zeros(1 << n, dtype=bool)
        inside[src.astype(np.int64)] = True
        want = np.flatnonzero(link[:, src.astype(np.int64)].any(axis=1) & ~inside)
        assert np.array_equal(connected_bits(hw, src << shift), want.astype(np.uint64) << shift)

        sub = link[np.ix_(src.astype(np.int64), src.astype(np.int64))]
        assert np.array_equal(connectivity_filter(hw, src << shift), src[sub.any(axis=0)] << shift)


def _all_groups_expansion(h, bits):
    """(connected_bits, connectivity_filter) computed from every group's
    images and net elements at once, as groups x len(bits) arrays: the
    expansion before it walked one group at a time."""
    gx = h.x_groups[0]
    images, nonzero = bits[None, :] ^ gx[:, None], np.abs(group_elements(h, bits)) >= ZERO_TOL
    out = unique_bits(images[nonzero])
    connected = out[index_in(bits, out) < 0]
    moves = nonzero & (gx[:, None] != 0)
    src = np.broadcast_to(np.arange(bits.size), images.shape)[moves]
    pos = index_in(bits, images[moves])
    hits = pos >= 0
    keep = np.zeros(bits.size, dtype=bool)
    keep[src[hits]] = True
    keep[pos[hits]] = True
    return connected, bits[keep]


def test_expansion_matches_the_all_groups_walk():
    h, _ = layout_instance("flagship")
    cases = [(h, flagship_ball(d)) for d in (3, 4, 5)]
    rng = np.random.default_rng(206)
    for _ in range(3):
        hg = grouped_pauli_sum(rng, 8, 6, 5)
        for size in (1, 30, 120):
            bits = np.sort(rng.choice(256, size=size, replace=False)).astype(np.uint64)
            cases += [(hg, bits), (without_odd_y(hg), bits)]
    for hh, bits in cases:
        want_connected, want_kept = _all_groups_expansion(hh, bits)
        assert np.array_equal(connected_bits(hh, bits), want_connected)
        assert np.array_equal(connectivity_filter(hh, bits), want_kept)


def test_expansion_scratch_is_one_group_not_every_image():
    # all groups at once held about 3.1 groups x N x 8 B in both; one group
    # at a time holds the kept images (connected_bits) or only their lookups
    h, _ = layout_instance("flagship")
    bits = np.sort(np.random.default_rng(207).choice(flagship_ball(5), size=8000, replace=False))
    unit = h.x_groups[0].size * bits.size * 8
    for fn, bound in ((connected_bits, 1.0), (connectivity_filter, 0.25)):
        tracemalloc.start()
        fn(h, bits)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak <= bound * unit, fn.__name__


def test_filter_keeps_connected_support(patch_instance):
    h, cert = patch_instance
    pool = np.sort(np.array([c.bits for c in cert.support], dtype=np.uint64))
    assert np.array_equal(connectivity_filter(h, pool), pool)


def test_filter_drops_singleton(patch_instance):
    h, cert = patch_instance
    assert connectivity_filter(h, np.array([cert.support[0].bits], dtype=np.uint64)).size == 0


def test_filter_drops_far_config(patch_instance):
    h, cert = patch_instance
    far = Configuration(cert.support[0].bits ^ 0b101010101, 16)
    support = {c.bits for c in cert.support}
    pool = np.array(sorted(support | {far.bits}), dtype=np.uint64)
    if far.bits not in support:
        kept = connectivity_filter(h, pool)
        connected_to_pool = any(
            abs(matrix_element(h, far, c)) >= 1e-14 for c in cert.support
        )
        assert (far.bits in kept) == connected_to_pool


def test_filter_drops_the_isolated_zero_energy_configuration():
    # on `path16` at seed 9 the patch's empty state is x0 ^ 1 = 0xffe6: its
    # energy is the certified 0, but nothing connects to it, so a pool that
    # holds it beside the support loses it to the filter
    h, cert = layout_instance("path16")
    vac = np.uint64(0xFFE6)
    assert int(vac) == cert.initial_config.bits ^ 1
    assert abs(diagonal_element(h, vac)) < 1e-13
    assert connected_bits(h, np.array([vac])).size == 0
    support = np.array([c.bits for c in cert.support], dtype=np.uint64)
    pool = unique_bits(np.append(support, vac))
    assert np.array_equal(connectivity_filter(h, pool), np.sort(support))


def test_width_mismatch_raises():
    # a basis is a sorted, duplicate-free array of configurations that fit;
    # the expansion and the pool filter, whose lookups are binary searches,
    # take the same arrays and check them the same way
    rng = np.random.default_rng(15)
    h = random_pauli_sum(rng, 4, 5)
    for bits, why in (([0, 1 << 4], "wider than 4 qubits"), ([3, 1, 2], "sorted"),
                      ([1, 2, 2], "duplicate")):
        for fn in (project_fast, project_naive, connected_bits, connectivity_filter):
            with pytest.raises(ValueError, match=why):
                fn(h, np.array(bits, dtype=np.uint64))


def test_projection_accepts_the_widest_configuration():
    h = PauliSum([(1.0, PauliString.from_label("Z" * 64))], 64)
    b = np.array([0, (1 << 64) - 1], dtype=np.uint64)
    assert np.array_equal(project_fast(h, b).diagonal(), [1.0, 1.0])


def test_empty_basis_lookup():
    b = np.zeros(0, dtype=np.uint64)
    out = index_in(b, np.array([0, 3], dtype=np.uint64))
    assert list(out) == [-1, -1]


def _project_unfiltered(h, b):
    """project_fast as it was before elements were filtered per group: every
    addressed element concatenated, then summed and filtered in CSR; its
    upper triangle."""
    rows, cols, vals = [], [], []
    for g, x in enumerate(h.x_groups[0]):
        addr = index_in(b, b ^ x)
        hit = np.flatnonzero(addr >= 0)
        rows.append(addr[hit])
        cols.append(hit)
        vals.append(group_elements(h, b[hit], slice(g, g + 1))[0])
    m = sp.csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                      shape=(len(b), len(b)), dtype=complex)
    m.sum_duplicates()
    m.data[np.abs(m.data) < ZERO_TOL] = 0.0
    m.eliminate_zeros()
    return sp.triu(m, format="csr")


@pytest.mark.parametrize("seed", range(4))
def test_group_filtered_projection_is_bit_identical(seed):
    rng = np.random.default_rng(300 + seed)
    n = 7
    h = grouped_pauli_sum(rng, n, 6, 6)
    for size in (1, 40, 1 << n):
        bits = rng.choice(1 << n, size=size, replace=False).astype(np.uint64)
        b = unique_bits(bits)
        got, want = project_fast(h, b).rows, _project_unfiltered(h, b)
        assert got.has_canonical_format
        for attr in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(got, attr), getattr(want, attr))
    assert (group_elements(h, np.arange(1 << n, dtype=np.uint64)) == 0).any()  # cancellations


@pytest.mark.parametrize("seed", range(3))
def test_real_h_projects_to_a_real_matrix(seed):
    rng = np.random.default_rng(320 + seed)
    n = 7
    h = without_odd_y(grouped_pauli_sum(rng, n, 6, 6))
    assert h.dtype == np.float64
    for size in (1, 40, 1 << n):
        bits = np.sort(rng.choice(1 << n, size=size, replace=False).astype(np.uint64))
        got = project_fast(h, bits)
        assert got.dtype == np.float64
        assert np.array_equal(got.toarray(), project_naive(h, bits).toarray())


def test_projection_memory_is_a_small_multiple_of_the_matrix():
    # the CSR is allocated at its exact size and filled in place, so the
    # peak is the matrix plus the group pass's kept pairs (about 4 B per
    # entry), with no triplet concatenation and no COO-to-CSR copy
    h, cert = layout_instance("path16-coupled")
    bits = reachable_bits(h, np.array([cert.initial_config.bits], dtype=np.uint64), 1 << 16)
    assert bits.size == 65_535
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        m = project_fast(h, bits)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert m.nnz == 1_753_087 and m.rows.has_sorted_indices
    assert peak <= 3 * (m.rows.data.nbytes + m.rows.indices.nbytes + m.rows.indptr.nbytes)


@pytest.mark.parametrize("seed", range(4))
def test_reachable_bits_is_the_dense_closure(seed):
    rng = np.random.default_rng(400 + seed)
    n = 7
    h = grouped_pauli_sum(rng, n, 3, 4)
    link = np.abs(kron_dense(h)) >= ZERO_TOL
    start = int(rng.integers(0, 1 << n))
    want = np.zeros(1 << n, dtype=bool)
    want[start] = True
    while True:
        grown = want | link[:, want].any(axis=1)
        if (grown == want).all():
            break
        want = grown
    got = reachable_bits(h, np.array([start], dtype=np.uint64), 1 << n)
    assert np.array_equal(got, np.flatnonzero(want).astype(np.uint64))
    assert connected_bits(h, got).size == 0  # closed under H
    if got.size > 1:
        with pytest.raises(BudgetExceeded):
            reachable_bits(h, np.array([start], dtype=np.uint64), got.size - 1)


def test_reachable_bits_of_patch_support(patch_instance):
    h, cert = patch_instance
    r = reachable_bits(h, np.array([cert.initial_config.bits], dtype=np.uint64), 10**7)
    assert r.size == 16
    assert {c.bits for c in cert.support} <= set(r.tolist())


def _assert_same_csr(got, want):
    for attr in ("indptr", "indices", "data"):
        a, b = getattr(got, attr), getattr(want, attr)
        assert a.dtype == b.dtype and np.array_equal(a, b)


def _basis_pairs(rng, universe):
    """(old, new) bases drawn from the sorted `universe`: grow, shrink,
    same, disjoint, mixed, an empty old or new basis, a dim-1 old basis."""
    pick = lambda k: np.sort(rng.choice(universe, size=k, replace=False))
    a = pick(universe.size // 2)
    rest = universe[index_in(a, universe) < 0]
    return [
        (a, np.union1d(a, rest[: rest.size // 2])),  # grow
        (a, a[rng.random(a.size) < 0.6]),  # shrink
        (a, a),  # same
        (a, rest),  # disjoint
        (a, np.union1d(a[::2], rest[::3])),  # mixed
        (a[:0], a), (a, a[:0]),  # empty old, empty new
        (a[:1], a), (a[:1], rest[:5]),  # dim-1 old basis, shared or not
    ]


def _projected_by_groups(h, bits):
    """project_fast(h, bits) by the pass over every group, whatever the
    basis size."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(subspace, "_UPDATE_MAX_NEW", 0.0)
        mp.setattr(subspace, "_LOOKUP_BLOCK", 0)
        return project_fast(h, bits)


def _assert_update_matches(h, pairs):
    # an update and a fresh call give the group pass's matrix, bit for bit,
    # whichever lookup the rule picks for them
    for old, new in pairs:
        want = _projected_by_groups(h, new).rows
        _assert_same_csr(project_fast(h, new, (old, project_fast(h, old).rows)).rows, want)
        _assert_same_csr(project_fast(h, new).rows, want)


# max_new 2/3 sends the flagship ball's mostly new bases to the group pass,
# and 1.0 looks up the new members of every pair and every fresh basis,
# however few members they share
@pytest.mark.parametrize("max_new", [2 / 3, 1.0])
@pytest.mark.parametrize("kind", ["real", "hermitian", "non-hermitian"])
@pytest.mark.parametrize("seed", range(3))
def test_incremental_projection_is_bit_identical(seed, kind, max_new, monkeypatch):
    # Y terms make the elements complex, so an entry (k, j) with k < j
    # must be D_g(x_j) whichever member was looked up; complex
    # coefficients make H non-Hermitian, which a fresh call and an update
    # both refuse
    monkeypatch.setattr(subspace, "_UPDATE_MAX_NEW", max_new)
    rng = np.random.default_rng(340 + seed)
    n = 7
    h = random_pauli_sum(rng, n, 24, real=kind != "non-hermitian")
    if kind == "real":
        h = without_odd_y(h)
    assert (h.dtype == np.float64) == (kind == "real")
    pairs = _basis_pairs(rng, np.arange(1 << n, dtype=np.uint64))
    if kind == "non-hermitian":
        old, new = pairs[0]
        prev = (old, sp.csr_matrix((old.size, old.size)))
        for args in ((h, new), (h, new, prev)):
            with pytest.raises(ValueError, match="Hermitian"):
                project_fast(*args)
        return
    _assert_update_matches(h, pairs)


@pytest.mark.parametrize("max_new", [2 / 3, 1.0])
def test_incremental_projection_on_the_flagship_ball(max_new, monkeypatch):
    monkeypatch.setattr(subspace, "_UPDATE_MAX_NEW", max_new)
    h, _ = layout_instance("flagship")
    balls = [flagship_ball(d) for d in range(5)]
    assert [b.size for b in balls[-2:]] == [580, 2531]
    rng = np.random.default_rng(350)
    pairs = list(zip(balls, balls[1:])) + [(balls[-1], balls[-2])]
    _assert_update_matches(h, pairs + _basis_pairs(rng, balls[-1]))


def test_a_mostly_new_basis_is_projected_afresh(monkeypatch):
    # one rule for fresh and update calls, a fresh call being an update from
    # the empty basis: the pass over every group when more than
    # _UPDATE_MAX_NEW of the members are new and their images fill more than
    # two lookup blocks, block-wise lookups of the new members otherwise
    h, _ = layout_instance("flagship")
    balls = [flagship_ball(d) for d in range(5)]
    small, bits = balls[3], balls[4]
    groups = h.x_groups[0].size
    assert small.size * groups <= 2 * subspace._LOOKUP_BLOCK < bits.size * groups
    passes = []
    real_lookup, real_groups = subspace._new_entries, subspace._group_entries
    monkeypatch.setattr(subspace, "_new_entries", lambda h, b, old, idx: passes.append(
        ("lookup", int(np.count_nonzero(~old)))) or real_lookup(h, b, old, idx))
    monkeypatch.setattr(subspace, "_group_entries", lambda h, b, idx: passes.append(
        ("groups", b.size)) or real_groups(h, b, idx))
    k = bits.size - int(subspace._UPDATE_MAX_NEW * bits.size)  # new: just above and at the share
    cases = [(None, b, ("lookup", b.size)) for b in balls[1:4]]  # small fresh bases
    cases += [(None, bits, ("groups", bits.size)),
              (bits[:k - 1], bits, ("groups", bits.size)),
              (bits[:k], bits, ("lookup", bits.size - k)),
              (small[:1], small, ("lookup", small.size - 1))]  # fit in two lookup blocks
    for old, new, how in cases:
        prev = None if old is None else (old, _projected_by_groups(h, old).rows)
        passes.clear()
        got = project_fast(h, new, prev).rows
        assert passes == [how]
        _assert_same_csr(got, _projected_by_groups(h, new).rows)


@pytest.mark.parametrize("new_share", [0.0, 0.1, 0.5, 1.0])
def test_update_peak_memory_stays_under_three_times_the_csr(new_share, monkeypatch):
    # the new members' entries are held as index-dtype pieces, block by
    # block, as a fresh projection holds its groups' (the bound of
    # test_projection_memory_is_a_small_multiple_of_the_matrix)
    monkeypatch.setattr(subspace, "_UPDATE_MAX_NEW", 1.0)
    h, cert = layout_instance("path16-coupled")
    bits = reachable_bits(h, np.array([cert.initial_config.bits], dtype=np.uint64), 1 << 16)
    old = bits[int(new_share * bits.size):]
    prev = (old, project_fast(h, old).rows)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        m = project_fast(h, bits, prev).rows
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert m.indices.dtype == np.int32
    assert peak <= 3 * (m.data.nbytes + m.indices.nbytes + m.indptr.nbytes)


def _projected_before_the_pair_rule(h, bits):
    """project_fast's fresh group pass as it was before each pair was looked
    up once: every member looks up its image under every group, and each
    group's pieces, with elements from group_elements on the columns, are
    held until the CSR is filled in place; its upper triangle."""
    idx = subspace._index_dtype(bits.size, h.x_groups[0].size)
    pieces = []
    for g, x in enumerate(h.x_groups[0]):
        addr = index_in(bits, bits ^ x)
        rows = np.flatnonzero(addr >= 0)
        cols = addr[rows]
        d = group_elements(h, bits[cols], slice(g, g + 1))[0]
        keep = (np.abs(d) >= ZERO_TOL) & (rows <= cols)
        pieces.append((rows[keep].astype(idx), cols[keep].astype(idx), d[keep]))
    counts = np.zeros(bits.size, dtype=idx)
    for r, _, _ in pieces:
        counts[r] += 1
    indptr = np.zeros(bits.size + 1, dtype=idx)
    np.cumsum(counts, out=indptr[1:])
    indices, data = np.empty(indptr[-1], dtype=idx), np.empty(indptr[-1], dtype=h.dtype)
    fill = indptr[:-1].copy()
    for r, c, v in pieces:
        indices[fill[r]], data[fill[r]] = c, v
        fill[r] += 1
    m = sp.csr_matrix((data, indices, indptr), shape=(bits.size, bits.size))
    m.sort_indices()
    return m


@pytest.mark.parametrize("seed", range(40))
def test_group_pass_looks_each_pair_up_once_bit_identically(seed):
    # terms with an odd number of Y factors make the elements complex, so
    # a pair's entry must come out on its column, as the per-member pass
    # gave it, not from its row's member's conjugate
    rng = np.random.default_rng(500 + seed)
    n = int(rng.integers(2, 10))
    hs = [random_pauli_sum(rng, n, int(rng.integers(1, 30))) for _ in range(2)]
    hs[1] = without_odd_y(hs[1])
    hs.append(grouped_pauli_sum(rng, n, min(6, 1 << n), min(6, 1 << n)))
    for h in hs:
        for size in (1, int(rng.integers(2, (1 << n) + 1)), 1 << n):
            b = np.sort(rng.choice(1 << n, size=size, replace=False).astype(np.uint64))
            _assert_same_csr(_projected_by_groups(h, b).rows, _projected_before_the_pair_rule(h, b))


def test_group_pass_on_the_flagship_ball_is_bit_identical():
    h, _ = layout_instance("flagship")
    ball = flagship_ball(4)
    _assert_same_csr(_projected_by_groups(h, ball).rows, _projected_before_the_pair_rule(h, ball))


@pytest.mark.parametrize("case", ["path16-coupled", "flagship"])
def test_group_pass_looks_a_row_up_only_for_a_nonzero_element(case, monkeypatch):
    # the first walk looks up the row of each (off-diagonal group, column
    # member) pair whose element is at least ZERO_TOL, the column being
    # the member with x_g's highest bit set; the second walk only the rows
    # of the stored entries.  Looking up every row member of a pair, as a
    # walk from the rows does, fails the first.
    h, cert = layout_instance(case)
    if case == "flagship":
        bits = flagship_ball(4)
    else:
        bits = reachable_bits(h, np.array([cert.initial_config.bits], dtype=np.uint64), 1 << 16)
    gx = h.x_groups[0]
    d = group_elements(h, bits)
    first, second = [], []
    stored = _projected_before_the_pair_rule(h, bits).tocoo()
    for g, x in enumerate(gx.tolist()):
        if x:
            cols = np.flatnonzero((bits & np.uint64(1 << (x.bit_length() - 1))) != 0)
            first.append(bits[cols[np.abs(d[g, cols]) >= ZERO_TOL]] ^ np.uint64(x))
            mine = np.flatnonzero(bits[stored.row] ^ bits[stored.col] == x)
            mine = mine[np.argsort(stored.col[mine])]
            second.append(bits[stored.row[mine]])
    del d
    looked, real = [], subspace.index_in
    monkeypatch.setattr(subspace, "index_in", lambda m, b: looked.append(b.copy()) or real(m, b))
    _projected_by_groups(h, bits)
    assert len(looked) == len(first) + len(second)
    for got, want in zip(looked, first + second):
        assert np.array_equal(got, want)
    assert sum(w.size for w in second) == stored.nnz - np.count_nonzero(stored.row == stored.col)


def _diagonal_piece_cases():
    """5-qubit sums by name: without a diagonal group, with nothing but Z
    strings, and with one term; real, and with an odd number of Y factors."""
    pick = lambda *labels: PauliSum([(c, PauliString.from_label(s)) for c, s in labels], 5)
    return {
        "hops only, real": pick((0.7, "XXIII"), (0.7, "YYIII"), (-0.4, "IIXXI"), (-0.4, "IIYYI"),
                                (0.25, "XZZXI")),
        "hops only, odd Y": pick((0.7, "XYIII"), (-0.7, "YXIII"), (0.3, "IXYZI"), (0.5, "YIIIX")),
        "Z strings only": pick((1.0, "ZIIII"), (-0.5, "ZZIII"), (0.25, "IIZIZ"), (-1.0, "IIIII"),
                               (0.5, "IZIZI")),
        "Z strings only, cancelling": pick((1.0, "ZIIII"), (-1.0, "IZIII"), (1.0, "IIZZI"),
                                           (-1.0, "IIIIZ")),
        "one identity term": pick((2.0, "IIIII")),
        "one Z term": pick((-1.5, "IZZIZ")),
        "one X term": pick((0.5, "XIIXI")),
        "one odd-Y term": pick((0.5, "IYIZI")),
        "one odd-Y term, three Y": pick((-0.75, "YYYII")),
    }


@pytest.mark.parametrize("name", list(_diagonal_piece_cases()))
def test_group_pass_writes_the_diagonal_piece_bit_identically(name):
    # the walk skips the diagonal group, so the pass writes its piece from
    # D_0 on every member, or none when H has no diagonal group
    h = _diagonal_piece_cases()[name]
    has_diagonal = h.x_groups[0][0] == 0
    assert has_diagonal == (name.startswith("Z") or name in ("one identity term", "one Z term"))
    assert (h.dtype == np.complex128) == ("odd" in name)
    rng = np.random.default_rng(sum(map(ord, name)))
    full = np.arange(32, dtype=np.uint64)
    stored = []
    for b in (full, full[:1], np.sort(rng.choice(full, size=13, replace=False))):
        got = _projected_by_groups(h, b).rows
        _assert_same_csr(got, _projected_before_the_pair_rule(h, b))
        u = got.tocoo()
        stored.append(np.count_nonzero(u.row == u.col))
        assert stored[-1] == np.count_nonzero(np.abs(diagonal_element(h, b)) >= ZERO_TOL)
    assert (stored[0] > 0) == has_diagonal


def _traced_peak_over_the_csr(call):
    """(projection, traced peak of the call over the bytes of its CSR)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        m = call()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return m, peak / (m.rows.data.nbytes + m.rows.indices.nbytes + m.rows.indptr.nbytes)


def test_fresh_group_pass_peaks_under_twice_the_csr():
    # besides the CSR, only the kept pairs (two index-dtype entries per
    # pair, about 4 B per entry) and one group's elements are alive; the
    # pieces of the per-member pass held 16 B per entry (2.81x on R, 2.38x
    # on the depth-6 ball)
    h, cert = layout_instance("path16-coupled")
    bits = reachable_bits(h, np.array([cert.initial_config.bits], dtype=np.uint64), 1 << 16)
    m, ratio = _traced_peak_over_the_csr(lambda: project_fast(h, bits))
    assert m.nnz == 1_753_087 and ratio <= 2.0
    hf, _ = layout_instance("flagship")
    ball = flagship_ball(6)
    assert ball.size == 37_385
    m, ratio = _traced_peak_over_the_csr(lambda: project_fast(hf, ball))
    assert m.nnz == 659_923 and ratio <= 1.6


def test_fresh_build_peaks_under_three_quarters_of_the_whole_csr():
    # one triangle is built and held, and the second walk holds one group's
    # entries beside it, so the build of H_R peaks below the bytes of the
    # whole matrix's CSR, which the build of both triangles held (1.43x)
    h, cert = layout_instance("path16-coupled")
    bits = reachable_bits(h, np.array([cert.initial_config.bits], dtype=np.uint64), 1 << 16)
    m, ratio = _traced_peak_over_the_csr(lambda: project_fast(h, bits))
    u = m.rows
    whole = m.nnz * (u.data.itemsize + u.indices.itemsize) + u.indptr.nbytes
    assert m.nnz == 1_753_087 and u.nnz == (m.nnz + bits.size) // 2
    assert ratio * (u.data.nbytes + u.indices.nbytes + u.indptr.nbytes) <= 0.75 * whole
