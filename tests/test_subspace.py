import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import kron_dense, random_pauli_sum
from sparsegs.builder import CoreBlockParams, build_core_block, build_main_patch
from sparsegs.paulis import Configuration, PauliSum, PauliString, matrix_element
from sparsegs.subspace import (
    ConfigurationBasis,
    connected_configurations,
    connectivity_filter,
    project_fast,
    project_naive,
)


def test_singleton_basis_projects_to_diagonal():
    rng = np.random.default_rng(0)
    h = random_pauli_sum(rng, 4, 10)
    x = Configuration(5, 4)
    b = ConfigurationBasis([x])
    m = project_fast(h, b).rows.toarray()
    assert m.shape == (1, 1)
    assert m[0, 0] == pytest.approx(matrix_element(h, x, x), abs=1e-14)


def test_empty_basis_gives_empty_matrix():
    rng = np.random.default_rng(1)
    h = random_pauli_sum(rng, 3, 5)
    b = ConfigurationBasis([], 3)
    assert project_naive(h, b).rows.shape == (0, 0)
    assert project_fast(h, b).rows.shape == (0, 0)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_fast_equals_naive(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    h = random_pauli_sum(rng, n, int(rng.integers(1, 16)))
    size = int(rng.integers(1, min(64, 1 << n) + 1))
    bits = rng.choice(1 << n, size=size, replace=False)
    b = ConfigurationBasis([int(x) for x in bits], n)
    diff = (project_fast(h, b).rows - project_naive(h, b).rows)
    assert diff.nnz == 0 or np.abs(diff.data).max() < 1e-12


def test_projection_hermitian():
    rng = np.random.default_rng(7)
    h = random_pauli_sum(rng, 6, 20)
    bits = rng.choice(64, size=30, replace=False)
    b = ConfigurationBasis([int(x) for x in bits], 6)
    assert project_fast(h, b).hermiticity_defect() < 1e-12


def test_projection_diagonal_matches_matrix_element():
    rng = np.random.default_rng(8)
    h = random_pauli_sum(rng, 5, 12)
    bits = rng.choice(32, size=12, replace=False)
    b = ConfigurationBasis([int(x) for x in bits], 5)
    m = project_fast(h, b).rows.toarray()
    for i, cfg in enumerate(b.members()):
        assert m[i, i] == pytest.approx(matrix_element(h, cfg, cfg), abs=1e-12)


def test_projection_monotonicity_under_basis_growth():
    rng = np.random.default_rng(9)
    h = random_pauli_sum(rng, 6, 18)
    all_bits = rng.permutation(64)
    prev = np.inf
    for size in (4, 8, 16, 32, 64):
        b = ConfigurationBasis([int(x) for x in all_bits[:size]], 6)
        w = np.linalg.eigvalsh(project_fast(h, b).rows.toarray())[0]
        assert w <= prev + 1e-12
        prev = w


def test_projection_onto_patch_support_is_core_block():
    p = CoreBlockParams()
    pr = build_main_patch(list(range(16)), p, 0.1, 0.01, 16)
    h = PauliSum(pr.terms, 16)
    b = ConfigurationBasis([int(x) for x in pr.support_bits], 16)
    m = project_fast(h, b).rows.toarray()
    assert np.abs(m.real - build_core_block(p)).max() < 1e-10


def test_addressing_modes_agree():
    rng = np.random.default_rng(10)
    bits = [int(b) for b in rng.choice(256, size=40, replace=False)]
    bs = ConfigurationBasis(bits, 8)
    assert len(bs) == 40
    for cfg in bs.members():
        assert bs.member(bs.address(cfg)) == cfg
    absent = Configuration(int((set(range(256)) - set(bits)).pop()), 8)
    assert bs.address(absent) == -1


def test_connected_banded_neighbors(patch_instance):
    h, cert = patch_instance
    elem3 = cert.support[3] if False else None
    # support is stored bit-sorted; recover logical order via amplitudes
    # instead use the unobfuscated patch directly
    p = CoreBlockParams()
    pr = build_main_patch(list(range(16)), p, 0.1, 0.01, 16)
    hp = PauliSum(pr.terms, 16)
    seed = {Configuration(int(pr.support_bits[3]), 16)}
    conn = connected_configurations(hp, seed)
    support = [Configuration(int(b), 16) for b in pr.support_bits]
    inside = sorted(support.index(c) for c in conn if c in set(support))
    assert inside == [2, 4]  # the banded core row has neighbors only
    odd = [c for c in conn if c not in set(support)]
    assert all(c.bits & 0x5555 == 0 for c in odd)  # the rest are S1 images


def test_connected_empty_seed():
    rng = np.random.default_rng(11)
    h = random_pauli_sum(rng, 4, 6)
    assert connected_configurations(h, set()) == set()


def test_connected_matches_dense_pattern():
    rng = np.random.default_rng(12)
    h = random_pauli_sum(rng, 4, 8)
    dense = kron_dense(h)
    every = {Configuration(b, 4) for b in range(16)}
    for xb in range(16):
        got = connected_configurations(h, {Configuration(xb, 4)})
        want = {
            Configuration(yb, 4)
            for yb in range(16)
            if yb != xb and abs(dense[yb, xb]) >= 1e-14
        }
        assert got == want


def test_connected_respects_cancellation():
    # X and Y share the flip image; add XZ to cancel nothing, then build an
    # exact cancellation: (X + (i)(Y at the right phase)) has zero net element
    n = 1
    h = PauliSum(
        [(1.0, PauliString.from_label("X")), (-1j, PauliString.from_label("Y"))], n
    )
    # <1|X|0> = 1, <1|(-i)Y|0> = -i * i = 1 -> net 2 (no cancellation here)
    assert connected_configurations(h, {Configuration(0, 1)})
    h2 = PauliSum(
        [(1.0, PauliString.from_label("X")), (1j, PauliString.from_label("Y"))], n
    )
    # <1|X|0> = 1, <1|(i)Y|0> = i * i = -1 -> exact zero, no connection
    assert connected_configurations(h2, {Configuration(0, 1)}) == set()


def test_filter_keeps_connected_support(patch_instance):
    h, cert = patch_instance
    pool = set(cert.support)
    assert connectivity_filter(h, pool) == pool


def test_filter_drops_singleton(patch_instance):
    h, cert = patch_instance
    assert connectivity_filter(h, {cert.support[0]}) == set()


def test_filter_drops_far_config(patch_instance):
    h, cert = patch_instance
    far = Configuration(cert.support[0].bits ^ 0b101010101, 16)
    pool = set(cert.support) | {far}
    if far not in set(cert.support):
        kept = connectivity_filter(h, pool)
        connected_to_pool = any(
            abs(matrix_element(h, far, c)) >= 1e-14 for c in cert.support
        )
        assert (far in kept) == connected_to_pool


def test_basis_file_round_trip(tmp_path):
    rng = np.random.default_rng(13)
    bits = [int(b) for b in rng.choice(1 << 20, size=25, replace=False)]
    b = ConfigurationBasis(bits, 20)
    b.to_file(tmp_path / "basis.txt")
    b2 = ConfigurationBasis.from_file(tmp_path / "basis.txt")
    assert np.array_equal(b.bits, b2.bits) and b2.n_qubits == 20


def test_coo_export(tmp_path):
    rng = np.random.default_rng(14)
    h = random_pauli_sum(rng, 4, 8)
    b = ConfigurationBasis(list(range(10)), 4)
    pm = project_fast(h, b)
    pm.to_coo_text(tmp_path / "m.txt")
    rows = []
    for line in (tmp_path / "m.txt").read_text().splitlines():
        r, c, re, im = line.split()
        rows.append((int(r), int(c), float(re), float(im)))
    dense = pm.rows.toarray()
    rebuilt = np.zeros_like(dense)
    for r, c, re, im in rows:
        rebuilt[r, c] = re + 1j * im
    assert np.abs(rebuilt - dense).max() < 1e-15


def test_width_mismatch_raises():
    rng = np.random.default_rng(15)
    h = random_pauli_sum(rng, 4, 5)
    b = ConfigurationBasis([0, 1], 5)
    with pytest.raises(ValueError):
        project_fast(h, b)


def test_empty_basis_lookup():
    b = ConfigurationBasis([], 4)
    out = b.addresses_of(np.array([0, 3], dtype=np.uint64))
    assert list(out) == [-1, -1]
