import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sparsegs.paulis as pl
from conftest import (flagship_ball, grouped_pauli_sum, kron_dense, layout_instance,
                      random_pauli_sum, to_width, without_odd_y)
from oracles import apply_pauli_to_config, matrix_element, pauli_sum_to_sparse
from sparsegs.paulis import (
    Configuration,
    PauliString,
    PauliSum,
    add_scaled,
    apply_sum_to_vector,
    conjugate_by_x_layer,
    decompose_dense_block,
    diagonal_element,
    fold_images,
    group_elements,
    image_index,
    pauli_signs,
    sparse_vdot,
    truncate_top,
)


def _bits(*xs):
    return np.array(xs, dtype=np.uint64)


def _dense(bits, amps, n):
    v = np.zeros(1 << n, dtype=complex)
    v[bits.astype(np.int64)] = amps
    return v


def test_apply_pauli_z_eigenstate():
    phase, y = apply_pauli_to_config(PauliString.from_label("Z"), Configuration(0, 1))
    assert phase == 1 and y == Configuration(0, 1)


def test_apply_pauli_x_flip():
    phase, y = apply_pauli_to_config(PauliString.from_label("X"), Configuration(0, 1))
    assert phase == 1 and y == Configuration(1, 1)


def test_apply_pauli_y_phase():
    phase, y = apply_pauli_to_config(PauliString.from_label("Y"), Configuration(1, 1))
    assert phase == -1j and y == Configuration(0, 1)


def test_apply_pauli_width_mismatch():
    with pytest.raises(ValueError):
        apply_pauli_to_config(PauliString.from_label("XX"), Configuration(0, 3))


def test_matrix_element_diagonal_pauli():
    h = PauliSum([(0.5, PauliString.from_label("ZZ"))], 2)
    assert matrix_element(h, Configuration(0, 2), Configuration(0, 2)) == 0.5


def test_matrix_element_single_flip():
    # X on qubit 0: |01> with qubit1 set is bits=2; flipping qubit 0 gives bits=3
    h = PauliSum([(1.0, PauliString.from_label("XI"))], 2)
    assert matrix_element(h, Configuration(3, 2), Configuration(2, 2)) == 1.0


def test_matrix_element_matches_kron_oracle():
    rng = np.random.default_rng(0)
    h = random_pauli_sum(rng, 4, 12)
    dense = kron_dense(h)
    for xb in range(16):
        for yb in range(16):
            got = matrix_element(h, Configuration(xb, 4), Configuration(yb, 4))
            assert got == pytest.approx(dense[xb, yb], abs=1e-12)


def test_apply_sum_single_flip():
    h = PauliSum([(1.0, PauliString.from_label("X"))], 1)
    bits, amps = apply_sum_to_vector(h, _bits(0), np.ones(1))
    assert np.array_equal(bits, _bits(1)) and np.array_equal(amps, [1.0])


def test_apply_sum_twice_matches_dense():
    rng = np.random.default_rng(1)
    h = random_pauli_sum(rng, 6, 15)
    dense = kron_dense(h)
    bits, amps = _bits(3, 17, 40), np.array([0.3, -0.5j, 0.8])
    amps /= np.linalg.norm(amps)
    hv = apply_sum_to_vector(h, *apply_sum_to_vector(h, bits, amps))
    want = dense @ (dense @ _dense(bits, amps, 6))
    assert np.abs(_dense(*hv, 6) - want).max() < 1e-12


def test_apply_sum_output_sparsity_bound():
    rng = np.random.default_rng(2)
    h = random_pauli_sum(rng, 8, 20)
    bits, _ = apply_sum_to_vector(h, _bits(0), np.ones(1))
    assert bits.size <= len(h)


def test_conjugate_zero_mask_identity():
    rng = np.random.default_rng(3)
    h = random_pauli_sum(rng, 4, 8)
    assert conjugate_by_x_layer(h, 0) == h


def test_conjugate_xzx_sign():
    h = PauliSum([(1.0, PauliString.from_label("Z"))], 1)
    hc = conjugate_by_x_layer(h, 1)
    assert hc.terms[0][0] == -1.0


def test_conjugate_preserves_spectrum():
    rng = np.random.default_rng(4)
    h = random_pauli_sum(rng, 5, 12)
    hc = conjugate_by_x_layer(h, 0b10110)
    wa = np.sort(np.linalg.eigvalsh(kron_dense(h)))
    wb = np.sort(np.linalg.eigvalsh(kron_dense(hc)))
    assert np.abs(wa - wb).max() < 1e-10


@given(mask=st.integers(min_value=0, max_value=31), seed=st.integers(0, 50))
@settings(max_examples=25, deadline=None)
def test_conjugate_involution(mask, seed):
    rng = np.random.default_rng(seed)
    h = random_pauli_sum(rng, 5, 10)
    assert conjugate_by_x_layer(conjugate_by_x_layer(h, mask), mask) == h


def test_decompose_identity():
    ps = decompose_dense_block(np.eye(2), [0], 1)
    assert len(ps) == 1
    coeff, s = ps.terms[0]
    assert s.label == "I" and coeff == 1.0


def test_decompose_x():
    ps = decompose_dense_block(np.array([[0.0, 1.0], [1.0, 0.0]]), [0], 1)
    assert len(ps) == 1
    coeff, s = ps.terms[0]
    assert s.label == "X" and coeff == 1.0


def test_decompose_rejects_non_hermitian():
    with pytest.raises(ValueError):
        decompose_dense_block(np.array([[0, 1], [0, 0]], dtype=float), [0], 1)


def test_decompose_rejects_oversized():
    with pytest.raises(ValueError):
        decompose_dense_block(np.eye(32), [0, 1, 2, 3, 4], 5)


@given(k=st.integers(1, 4), seed=st.integers(0, 200))
@settings(max_examples=30, deadline=None)
def test_decompose_round_trip_random_hermitian(k, seed):
    rng = np.random.default_rng(seed)
    dim = 1 << k
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = m + m.conj().T
    ps = decompose_dense_block(m, list(range(k)), k)
    assert np.abs(kron_dense(ps) - m).max() < 1e-12


def test_dense_kernels_agree():
    # the bitmask fast path and the Kronecker oracle are independent routes
    rng = np.random.default_rng(5)
    h = random_pauli_sum(rng, 6, 18, real=False)
    assert np.abs(pauli_sum_to_sparse(h).toarray() - kron_dense(h)).max() < 1e-12


@given(seed=st.integers(0, 300))
@settings(max_examples=40, deadline=None)
def test_hermitian_conjugate_symmetry(seed):
    rng = np.random.default_rng(seed)
    h = random_pauli_sum(rng, 4, 10)  # real coefficients -> Hermitian
    assert h.is_hermitian()
    x = Configuration(int(rng.integers(0, 16)), 4)
    y = Configuration(int(rng.integers(0, 16)), 4)
    assert matrix_element(h, x, y) == pytest.approx(
        np.conj(matrix_element(h, y, x)), abs=1e-12
    )


def test_non_hermitian_flagged():
    h = PauliSum([(1j, PauliString.from_label("X"))], 1)
    assert not h.is_hermitian()


def test_canonicalization_merges_and_drops():
    s = PauliString.from_label("XZ")
    h = PauliSum([(0.5, s), (0.25, s), (1e-16, PauliString.from_label("YY"))], 2)
    assert len(h) == 1
    assert h.terms[0][0] == 0.75


@given(seed=st.integers(0, 500))
@settings(max_examples=40, deadline=None)
def test_serialization_round_trips_bit_exact(seed):
    rng = np.random.default_rng(seed)
    h = random_pauli_sum(rng, 5, 8, real=False)
    assert PauliSum.from_json_dict(json.loads(json.dumps(h.to_json_dict()))) == h


def test_label_qubit0_leftmost():
    s = PauliString.from_label("XIZ")
    assert s.x_mask == 0b001 and s.z_mask == 0b100
    assert s.label == "XIZ"


def test_sparse_vector_prunes_exact_zeros():
    # entry 1 cancels exactly and entry 3 is an exact zero of v
    bits, amps = add_scaled(_bits(0, 1, 2), np.array([1.0, 0.5, -2.0]),
                            _bits(1, 3), np.array([1.0, 0.0]), -0.5)
    assert np.array_equal(bits, _bits(0, 2))
    assert np.array_equal(amps, [1.0, -2.0])


def test_sparse_vector_truncate_ties_by_bit_value():
    bits, amps = truncate_top(_bits(1, 2, 4), np.array([0.5, 0.5, 0.5]), 2)
    assert np.array_equal(bits, _bits(1, 2))
    # the kept entries come back in bit order, not magnitude order
    bits, amps = truncate_top(_bits(1, 2, 4), np.array([0.5, 0.9, 0.5]), 2)
    assert np.array_equal(bits, _bits(1, 2)) and np.array_equal(amps, [0.5, 0.9])


def test_configuration_validation():
    with pytest.raises(ValueError):
        Configuration(4, 2)
    with pytest.raises(ValueError):
        Configuration(0, 65)


@pytest.mark.parametrize("bits, amps, match", [
    (_bits(3, 1), np.ones(2), "sorted"),
    (_bits(1, 1), np.ones(2), "duplicate-free"),
    (_bits(1, 8), np.ones(2), "wider than 3 qubits"),
    (_bits(1, 2), np.ones(3), "length mismatch"),
], ids=["unsorted", "duplicated", "too-wide", "length-mismatch"])
def test_apply_sum_rejects_malformed_vectors(bits, amps, match):
    h = PauliSum([(0.5, PauliString.from_label("XZI"))], 3)
    with pytest.raises(ValueError, match=match):
        apply_sum_to_vector(h, bits, amps)


def test_pauli_sum_scaled_and_added():
    rng = np.random.default_rng(20)
    h = random_pauli_sum(rng, 3, 5)
    two_h = h + h
    assert two_h == h.scaled(2.0)
    assert np.abs(kron_dense(two_h) - 2 * kron_dense(h)).max() < 1e-12


def test_immutability_of_cached_arrays():
    rng = np.random.default_rng(21)
    h = random_pauli_sum(rng, 3, 5)
    xm, zm, coeff, phase = h.mask_arrays
    with pytest.raises(ValueError):
        coeff[0] = 0.0


def _apply_per_term(h, bits, amps):
    """The per-term action: broadcast every term over every entry, then sort
    the images and merge them in entry order, dropping exact zeros, as
    apply_sum_to_vector did before the x-mask grouping."""
    xm, zm, coeff, phase = h.mask_arrays
    images = bits[None, :] ^ xm[:, None]
    signs = 1.0 - 2.0 * (np.bitwise_count(bits[None, :] & zm[:, None]).astype(np.int64) & 1)
    prods = (coeff * phase)[:, None] * signs * amps[None, :]
    out_bits, inv = np.unique(images.ravel(), return_inverse=True)
    out = np.zeros(out_bits.size, dtype=complex)
    np.add.at(out, inv, prods.ravel())  # term-major, as the products were made
    keep = out != 0
    return out_bits[keep], out[keep]


# width 64 moves the sum to the top of the 64-bit word, where configurations
# use the word's high bit
@pytest.mark.parametrize("width", [None, 64])
@pytest.mark.parametrize("seed", range(6))
def test_apply_sum_bit_identical_to_per_term(seed, width):
    rng = np.random.default_rng(100 + seed)
    n = 8
    h = grouped_pauli_sum(rng, n, 6, 5)
    size = 16
    src = rng.choice(1 << n, size=size, replace=False).astype(np.uint64)
    h, shift = to_width(h, width)
    src <<= shift
    order = np.argsort(src)
    vectors = [
        # small-integer amplitudes: images of different sources cancel exactly
        (src[order], (rng.choice([-2.0, -1.0, 1.0, 2.0], size=size) + 0j)[order]),
        (src[order], (rng.standard_normal(size) + 1j * rng.standard_normal(size))[order]),
    ]
    real = without_odd_y(h)
    assert h.dtype == np.complex128 and real.dtype == np.float64
    for hh in (h, real):
        for v in vectors:
            got, want = apply_sum_to_vector(hh, *v), _apply_per_term(hh, *v)
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])
    hv_bits, _ = apply_sum_to_vector(h, *vectors[0])
    images = np.unique(src[None, :] ^ h.x_groups[0][:, None])
    assert hv_bits.size < images.size  # exact cancellations were pruned


def _fold_term_major(h, bits, amps, inv, size):
    """The fold as one term-major block: every (term, entry) product (w_k s) a
    at once, binned to its image by np.add.at in term-major order."""
    _, starts = h.x_groups
    term_group = np.repeat(np.arange(starts.size - 1), np.diff(starts))
    prod = (h._weights[:, None] * pauli_signs(bits, h.mask_arrays[1])
            * np.asarray(amps, dtype=complex)[None, :]).ravel()
    bins = inv[term_group].ravel()
    re, im = np.zeros(size), np.zeros(size)
    np.add.at(re, bins, prod.real)
    np.add.at(im, bins, prod.imag)
    out = np.empty(size, dtype=complex)
    out.real, out.imag = re, im
    return out


def _flagship_entries(rng, count, depth=4):
    """`count` sorted members of the flagship's ball of `depth` around x0."""
    h, _ = layout_instance("flagship")
    return h, np.sort(rng.choice(flagship_ball(depth), size=count, replace=False))


def _amplitudes(rng, kind, size):
    if kind == "complex":
        return rng.standard_normal(size) + 1j * rng.standard_normal(size)
    if kind == "real":
        return rng.standard_normal(size) + 0j
    return rng.choice([-2.0, -1.0, 1.0, 2.0], size=size) + 0j  # images cancel exactly


@pytest.mark.parametrize("amps_kind", ["complex", "real", "cancelling"])
@pytest.mark.parametrize("instance", ["grouped", "flagship"])
def test_group_fold_bit_identical_to_term_major(instance, amps_kind):
    rng = np.random.default_rng(400)
    if instance == "grouped":
        h = grouped_pauli_sum(rng, 8, 6, 5)
        bits = np.sort(rng.choice(1 << 8, size=40, replace=False)).astype(np.uint64)
        real = without_odd_y(h)
    else:
        real, bits = _flagship_entries(rng, 2000)
        h = real + PauliSum([(0.01, PauliString.from_label("Y" + "I" * 48))], 49)
    assert h.dtype == np.complex128 and real.dtype == np.float64
    amps = _amplitudes(rng, amps_kind, bits.size)
    for hh in (h, real):
        images, inv = image_index(hh, bits)
        got = fold_images(hh, bits, amps, inv, images.size)
        want = _fold_term_major(hh, bits, amps, inv, images.size)
        assert got.dtype == np.complex128
        assert np.array_equal(got, want)
        if hh.dtype == np.float64 and amps_kind != "complex":
            assert not got.imag.any() and not np.signbit(got.imag).any()  # +0.0
        if instance == "grouped" and amps_kind == "cancelling":
            assert (got == 0).any()


def test_fold_of_no_entries_is_empty():
    h = grouped_pauli_sum(np.random.default_rng(401), 6, 4, 3)
    bits = np.zeros(0, dtype=np.uint64)
    images, inv = image_index(h, bits)
    out = fold_images(h, bits, np.zeros(0), inv, images.size)
    assert images.size == 0 and out.shape == (0,) and out.dtype == np.complex128


def test_image_index_equals_numpy_unique():
    # np.unique's images and inverse, in values and dtype, on flagship balls,
    # one member, no members and sums whose net elements cancel
    h, _ = layout_instance("flagship")
    cases = [(h, flagship_ball(d)) for d in (0, 3, 4, 5)] + [(h, np.zeros(0, dtype=np.uint64))]
    rng = np.random.default_rng(404)
    for width in (None, 64):
        hg, shift = to_width(grouped_pauli_sum(rng, 8, 6, 5), width)
        bits = np.sort(rng.choice(256, size=40, replace=False)).astype(np.uint64) << shift
        cases += [(hg, bits), (hg, bits[:1])]
    for hh, bits in cases:
        images, inv = image_index(hh, bits)
        gx = hh.x_groups[0]
        want, want_inv = np.unique(bits[None, :] ^ gx[:, None], return_inverse=True)
        assert images.dtype == want.dtype and np.array_equal(images, want)
        assert inv.dtype == want_inv.dtype == np.intp
        assert inv.shape == (gx.size, bits.size)
        assert np.array_equal(inv, want_inv.reshape(inv.shape))


def test_image_index_holds_at_most_four_image_arrays():
    # np.unique(..., return_inverse=True) peaks at about 6.8 groups x N x 8 B;
    # the index by hand at the order, the distinct images, the ranks and the
    # inverse
    h, bits = _flagship_entries(np.random.default_rng(405), 8000, depth=5)
    tracemalloc.start()
    image_index(h, bits)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak <= 4.5 * h.x_groups[0].size * bits.size * 8


def test_group_fold_scratch_is_one_group_not_every_term():
    # 2,000 flagship entries: the term-major block holds 366 x 2,000 complex
    # products, signs and bins; the group walk one group's products at a time
    h, bits = _flagship_entries(np.random.default_rng(402), 2000)
    amps = _amplitudes(np.random.default_rng(403), "real", bits.size)
    images, inv = image_index(h, bits)
    peaks = []
    for fold in (fold_images, _fold_term_major):
        tracemalloc.start()
        fold(h, bits, amps, inv, images.size)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[0] < peaks[1] / 3


def test_weights_are_real_exactly_when_h_is():
    rng = np.random.default_rng(24)
    h = without_odd_y(random_pauli_sum(rng, 5, 30))
    assert h.dtype == np.float64
    assert np.array_equal(h._weights, (h.mask_arrays[2] * h.mask_arrays[3]).real)
    y = PauliSum([(0.25, PauliString.from_label("IYIII"))], 5)
    assert (h + y).dtype == np.complex128  # i^|Y| = i
    assert (h + y.scaled(1j)).dtype == np.float64  # 0.25i * i is real
    assert (h + PauliSum([(0.5j, PauliString.from_label("ZIIII"))], 5)).dtype == np.complex128
    assert PauliSum([], 5).dtype == np.float64
    # real and complex weights give the same diagonal elements
    bits = np.arange(32, dtype=np.uint64)
    hc = h + PauliSum([(1e-3, PauliString.from_label("YIIII"))], 5)
    assert diagonal_element(h, bits).dtype == np.float64
    assert np.array_equal(diagonal_element(h, bits), diagonal_element(hc, bits))


def test_sparse_vector_amplitudes_stay_complex():
    # truncated Arnoldi's Gram-Schmidt residue depends on the complex BLAS
    # rounding, so real input still gives complex128 amplitudes
    bits, amps = _bits(1, 3), np.array([-2.0, 0.5])
    h = PauliSum([(0.5, PauliString.from_label("XZI"))], 3)
    assert h.dtype == np.float64
    assert apply_sum_to_vector(h, bits, amps)[1].dtype == np.complex128
    assert add_scaled(bits, amps, bits, amps, 0.5)[1].dtype == np.complex128


def _random_sparse(rng, n, size, integer):
    bits = np.sort(rng.choice(1 << n, size=size, replace=False)).astype(np.uint64)
    if integer:  # small integers, so sums and differences cancel exactly
        return bits, rng.choice([-2.0, -1.0, 1.0, 2.0], size=size) + 0j
    return bits, rng.standard_normal(size) + 1j * rng.standard_normal(size)


@pytest.mark.parametrize("integer", [False, True])
@pytest.mark.parametrize("seed", range(4))
def test_vector_algebra_matches_dense(seed, integer):
    rng = np.random.default_rng(400 + seed)
    n = 6
    u = _random_sparse(rng, n, 30, integer)
    v = _random_sparse(rng, n, 25, integer)
    du, dv = _dense(*u, n), _dense(*v, n)
    factors = [-1.0, 1.0, 0.5 - 2j] if integer else [0.3 - 0.7j]
    for factor in factors:
        bits, amps = add_scaled(*u, *v, factor)
        want = du + factor * dv
        assert np.array_equal(bits, np.flatnonzero(want))
        assert np.array_equal(_dense(bits, amps, n), want)
    assert add_scaled(*u, *u, -1.0)[0].size == 0  # u - u cancels everywhere
    assert sparse_vdot(*u, *v) == pytest.approx(np.vdot(du, dv), abs=1e-12)
    assert sparse_vdot(*v, *u) == pytest.approx(np.vdot(dv, du), abs=1e-12)
    for k in (1, 7, 30, 40):
        bits, amps = truncate_top(*u, k)
        order = np.lexsort((np.arange(1 << n), -np.abs(du)))[: min(k, u[0].size)]
        assert np.array_equal(bits, np.sort(order))
        assert np.array_equal(amps, du[bits.astype(np.int64)])


def _add_scaled_by_sort(bu, au, bv, av, factor):
    """add_scaled as a stable argsort of both supports: the sort-based form
    the binary-search merge replaced."""
    both = np.concatenate((bu, bv))
    order = np.argsort(both, kind="stable")
    merged = both[order]
    first = np.ones(both.size, dtype=bool)
    first[1:] = merged[1:] != merged[:-1]
    slot = np.empty(both.size, dtype=np.int64)
    slot[order] = np.cumsum(first) - 1
    amps = np.zeros(np.count_nonzero(first), dtype=complex)
    amps[slot[: bu.size]] = au
    amps[slot[bu.size :]] += factor * av
    keep = amps != 0
    return merged[first][keep], amps[keep]


def _truncate_top_by_sort(bits, amps, k):
    """truncate_top as a full lexsort: the form the partition replaced."""
    if bits.size <= k:
        return bits, amps
    keep = np.sort(np.lexsort((bits, -np.abs(amps)))[:k])
    return bits[keep], amps[keep]


def _assert_same(got, want):
    assert got[0].dtype == want[0].dtype and got[1].dtype == want[1].dtype
    assert np.array_equal(got[0], want[0]) and got[1].tobytes() == want[1].tobytes()


@pytest.mark.parametrize("integer", [False, True])
def test_add_scaled_bit_identical_to_sort_merge(integer):
    rng = np.random.default_rng(91)

    def vec(*bits):
        bits = np.array(bits, dtype=np.uint64)
        if integer:
            return bits, rng.integers(-3, 4, size=bits.size)
        return bits, rng.standard_normal(bits.size) + 1j * rng.standard_normal(bits.size)

    u, v = vec(*range(0, 40, 3)), vec(*range(1, 40, 5))
    long = vec(*range(0, 3000, 2))  # shares u's even entries
    real_long = (long[0], long[1].real.astype(complex))  # factor -1 gives -0.0 parts
    cases = [
        (u, long), (long, u), (u, real_long), (real_long, u),  # v >> u and u >> v
        (vec(), vec()), (vec(), v), (u, vec()),  # empty u or v
        (u, (u[0][2:9:2], v[1][:4])), ((u[0][2:9:2], v[1][:4]), u),  # v in u, u in v
        (u, vec(*range(41, 60, 2))), (vec(*range(41, 60, 2)), u),  # disjoint, one above the other
        (vec(1, 3, 5), vec(0, 2, 4, 6)),  # disjoint, interleaved
        (u, v), (v, u),  # partly shared
        (u, u),
    ]
    for factor in (-1.0, 0.5, 0.3 - 0.7j, 2):
        for a, b in cases:
            _assert_same(add_scaled(*a, *b, factor), _add_scaled_by_sort(*a, *b, factor))
    assert add_scaled(*u, *u, -1)[0].size == 0  # u - u cancels everywhere
    _assert_same(add_scaled(*u, *u, -1), _add_scaled_by_sort(*u, *u, -1))
    for seed in range(20):
        r = np.random.default_rng(seed)
        a = _random_sparse(r, 7, int(r.integers(0, 60)), integer)
        b = _random_sparse(r, 7, int(r.integers(0, 60)), integer)
        _assert_same(add_scaled(*a, *b, -1.0), _add_scaled_by_sort(*a, *b, -1.0))
        _assert_same(add_scaled(*a, *b, 0.25 + 1j), _add_scaled_by_sort(*a, *b, 0.25 + 1j))
        # the same merge grows truncated Arnoldi's union
        assert np.array_equal(pl._merge_bases(a[0], b[0])[0],
                              pl.unique_bits(np.concatenate((a[0], b[0]))))


@pytest.mark.parametrize("integer", [False, True])
def test_truncate_top_bit_identical_to_lexsort(integer):
    bits = np.arange(3, 3 + 7 * 24, 7, dtype=np.uint64)
    n = bits.size
    rng = np.random.default_rng(17)
    tied = np.array([5, 1, 3, 3, 5, 2, 3, 5, 3, 1, 3, 4, 3, 2, 5, 3, 0, 3, 1, 4, 3, 2, 3, 4])
    amps = [
        tied,  # magnitude 3 straddles most cut-offs
        -tied,
        np.full(n, 2),  # every magnitude equal
        np.zeros(n),
        rng.integers(-4, 5, size=n),
    ]
    if not integer:
        amps = [a * (0.6 - 0.8j) for a in amps]  # same magnitudes, complex phases
        amps += [rng.standard_normal(n) + 1j * rng.standard_normal(n),
                 np.where(rng.random(n) < 0.5, 1j, -1) * tied]  # ties across phases
    for a in amps:
        for k in (1, 2, 5, 8, 12, 17, n - 1, n, n + 3):
            _assert_same(truncate_top(bits, a, k), _truncate_top_by_sort(bits, a, k))


def test_group_elements_match_matrix_element():
    rng = np.random.default_rng(23)
    n = 5
    h = grouped_pauli_sum(rng, n, 4, 6)
    gx, starts = h.x_groups
    assert gx.size == 4 and np.diff(starts).min() > 1
    bits = np.arange(1 << n, dtype=np.uint64)
    d = group_elements(h, bits)
    assert d.shape == (4, 1 << n)
    for g, x in enumerate(gx):
        assert np.array_equal(d[g], group_elements(h, bits, slice(g, g + 1))[0])
        for b in bits:
            want = matrix_element(h, Configuration(int(b ^ x), n), Configuration(int(b), n))
            assert d[g, b] == pytest.approx(want, abs=1e-14)
    assert (d == 0).any()  # the sums above include exact cancellations


def test_group_elements_fold_terms_in_order():
    # random float weights, so a reduction in another order would round
    # differently; the reference adds one term at a time from zero
    rng = np.random.default_rng(25)
    n = 6
    base = grouped_pauli_sum(rng, n, 4, 12)
    h = PauliSum([(c * rng.uniform(0.5, 2.0), s) for c, s in base.terms], n)
    bits = np.arange(1 << n, dtype=np.uint64)
    xm, zm, coeff, phase = h.mask_arrays
    gx = h.x_groups[0]
    want = np.zeros((gx.size, bits.size), dtype=complex)
    for k in range(len(h)):
        signs = 1.0 - 2.0 * (np.bitwise_count(bits & zm[k]).astype(np.int64) & 1)
        want[np.searchsorted(gx, xm[k])] += coeff[k] * phase[k] * signs
    got = group_elements(h, bits)
    assert np.array_equal(got, want)
    # read pairwise, one row of the same sums bit for bit, over groups of
    # every term count, for complex and real weights
    sizes = np.diff(h.x_groups[1])
    assert np.unique(sizes).size > 1
    for hh in (h, without_odd_y(h)):
        gx = hh.x_groups[0]
        whole = group_elements(hh, bits)
        g, x = rng.integers(0, gx.size, 300), rng.integers(0, 1 << n, 300)
        assert np.unique(g).size == gx.size
        pairs = pl.pair_elements(hh, g, x.astype(np.uint64))
        assert pairs.shape == (300,) and pairs.dtype == whole.dtype == hh.dtype
        assert pairs.tobytes() == whole[g, x].tobytes()
        empty = pl.pair_elements(hh, np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.uint64))
        assert empty.shape == (0,) and empty.dtype == hh.dtype


def test_group_bounds_hold_in_floating_point():
    # W_g sums |w_k| term by term in group_elements' order, so every real
    # net element, rounded as the kernel rounds it, lies within it
    rng = np.random.default_rng(27)
    n = 6
    base = without_odd_y(grouped_pauli_sum(rng, n, 4, 12))
    h = PauliSum([(c * rng.uniform(0.5, 2.0), s) for c, s in base.terms], n)
    assert h.dtype == np.float64
    _, starts = h.x_groups
    want = np.zeros(starts.size - 1)
    for g in range(want.size):
        for k in range(starts[g], starts[g + 1]):
            want[g] += abs(h.terms[k][0])
    bound = pl.group_bounds(h)
    assert np.array_equal(bound, want)
    d = group_elements(h, np.arange(1 << n, dtype=np.uint64))
    assert np.all(np.abs(d) <= bound[:, None])


def test_diagonal_element_is_dense_diagonal():
    rng = np.random.default_rng(24)
    h = random_pauli_sum(rng, 4, 30)
    want = np.diag(kron_dense(h)).real
    got = diagonal_element(h, np.arange(16, dtype=np.uint64))
    assert np.abs(got - want).max() < 1e-12
    assert diagonal_element(h, 5) == pytest.approx(want[5], abs=1e-12)
    off = PauliSum([(1.0, PauliString.from_label("XX"))], 2)
    assert diagonal_element(off, 3) == 0.0
