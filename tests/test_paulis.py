import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sparsegs.paulis as pl
from conftest import grouped_pauli_sum, kron_dense, random_pauli_sum
from sparsegs.paulis import (
    Configuration,
    PauliString,
    PauliSum,
    SparseVector,
    apply_pauli_to_config,
    apply_sum_to_vector,
    conjugate_by_x_layer,
    decompose_dense_block,
    diagonal_element,
    group_elements,
    matrix_element,
    pauli_sum_to_dense,
)


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
    v = SparseVector.basis_state(Configuration(0, 1))
    hv = apply_sum_to_vector(h, v)
    assert hv.amplitude(Configuration(1, 1)) == 1.0 and len(hv) == 1


def test_apply_sum_twice_matches_dense():
    rng = np.random.default_rng(1)
    h = random_pauli_sum(rng, 6, 15)
    dense = kron_dense(h)
    v = SparseVector([3, 17, 40], [0.3, -0.5j, 0.8], 6).normalized()
    hv = apply_sum_to_vector(h, apply_sum_to_vector(h, v))
    want = dense @ (dense @ v.to_dense())
    assert np.abs(hv.to_dense() - want).max() < 1e-12


def test_apply_sum_output_sparsity_bound():
    rng = np.random.default_rng(2)
    h = random_pauli_sum(rng, 8, 20)
    v = SparseVector.basis_state(Configuration(0, 8))
    hv = apply_sum_to_vector(h, v)
    assert len(hv) <= len(h)


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
    assert np.abs(pauli_sum_to_dense(h) - kron_dense(h)).max() < 1e-12


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
    assert PauliSum.from_text(h.to_text()) == h
    assert PauliSum.from_json(h.to_json()) == h


def test_label_qubit0_leftmost():
    s = PauliString.from_label("XIZ")
    assert s.x_mask == 0b001 and s.z_mask == 0b100
    assert s.label == "XIZ"


def test_sparse_vector_prunes_exact_zeros():
    v = SparseVector([0, 1, 2], [1.0, 0.0, -2.0], 2)
    assert len(v) == 2
    assert v.amplitude(Configuration(1, 2)) == 0


def test_sparse_vector_merges_duplicates():
    v = SparseVector([5, 5, 3], [1.0, 2.0, 1.0], 3)
    assert v.amplitude(Configuration(5, 3)) == 3.0
    assert v.norm() == pytest.approx(np.sqrt(10.0))


def test_sparse_vector_truncate_ties_by_bit_value():
    v = SparseVector([4, 1, 2], [0.5, 0.5, 0.5], 3)
    t = v.truncate_top(2)
    assert sorted(int(b) for b in t.bits) == [1, 2]


def test_configuration_validation():
    with pytest.raises(ValueError):
        Configuration(4, 2)
    with pytest.raises(ValueError):
        Configuration(0, 65)


def test_sparse_vector_add_checks_width():
    a = SparseVector([0], [1.0], 2)
    b = SparseVector([0], [1.0], 3)
    with pytest.raises(ValueError):
        a.add(b)


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
    v = SparseVector([1, 2], [0.5, 0.5], 3)
    with pytest.raises(ValueError):
        v.amps[0] = 0.0


def test_apply_sum_chunked_matches_direct():
    # force the blocked path by shrinking the scratch cap
    rng = np.random.default_rng(22)
    h = random_pauli_sum(rng, 6, 20)
    v = SparseVector(rng.choice(64, size=30, replace=False),
                     rng.standard_normal(30) + 0j, 6)
    direct = apply_sum_to_vector(h, v)
    old = pl._APPLY_BLOCK
    try:
        pl._APPLY_BLOCK = 64  # a few terms per block
        chunked = apply_sum_to_vector(h, v)
    finally:
        pl._APPLY_BLOCK = old
    assert np.array_equal(direct.bits, chunked.bits)
    assert np.array_equal(direct.amps, chunked.amps)


def _apply_per_term(h, v):
    """The per-term action: broadcast every term over every entry, then let
    SparseVector merge the images, as apply_sum_to_vector did before the
    x-mask grouping."""
    xm, zm, coeff, phase = h.mask_arrays
    bits = v.bits[None, :] ^ xm[:, None]
    signs = 1.0 - 2.0 * (np.bitwise_count(v.bits[None, :] & zm[:, None]).astype(np.int64) & 1)
    amps = (coeff * phase)[:, None] * signs * v.amps[None, :]
    return SparseVector(bits.ravel(), amps.ravel(), v.n_qubits)


@pytest.mark.parametrize("cap", [None, 64])
@pytest.mark.parametrize("seed", range(6))
def test_apply_sum_bit_identical_to_per_term(seed, cap):
    rng = np.random.default_rng(100 + seed)
    n = 8
    h = grouped_pauli_sum(rng, n, 6, 5)
    size = 16
    src = rng.choice(1 << n, size=size, replace=False)
    vectors = [
        # small-integer amplitudes: images of different sources cancel exactly
        SparseVector(src, rng.choice([-2.0, -1.0, 1.0, 2.0], size=size) + 0j, n),
        SparseVector(src, rng.standard_normal(size) + 1j * rng.standard_normal(size), n),
    ]
    old = pl._APPLY_BLOCK
    try:
        if cap is not None:
            pl._APPLY_BLOCK = cap  # four terms per block
        for v in vectors:
            got, want = apply_sum_to_vector(h, v), _apply_per_term(h, v)
            assert np.array_equal(got.bits, want.bits)
            assert np.array_equal(got.amps, want.amps)
    finally:
        pl._APPLY_BLOCK = old
    hv = apply_sum_to_vector(h, vectors[0])
    images = np.unique(src.astype(np.uint64)[None, :] ^ h.x_groups[0][:, None])
    assert len(hv) < images.size  # exact cancellations were pruned


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
    assert np.array_equal(group_elements(h, bits), want)


def test_diagonal_element_is_dense_diagonal():
    rng = np.random.default_rng(24)
    h = random_pauli_sum(rng, 4, 30)
    want = np.diag(kron_dense(h)).real
    got = diagonal_element(h, np.arange(16, dtype=np.uint64))
    assert np.abs(got - want).max() < 1e-12
    assert diagonal_element(h, 5) == pytest.approx(want[5], abs=1e-12)
    off = PauliSum([(1.0, PauliString.from_label("XX"))], 2)
    assert diagonal_element(off, 3) == 0.0
