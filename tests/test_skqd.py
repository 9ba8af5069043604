import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.stats import chisquare

import sparsegs.skqd as skqd
import sparsegs.subspace as subspace
from conftest import kron_dense, layout_instance, random_pauli_sum
from oracles import evolve_exact, matrix_element, pauli_sum_to_sparse
from sparsegs.builder import ConstructionParams, assemble_global
from sparsegs.eigensolver import lowest_eigenpair
from sparsegs.lattice import PatchEmbedding, build_heavy_hex, build_path, embed_patches
from sparsegs.paulis import Configuration, PauliString, PauliSum, diagonal_element, unique_bits
from sparsegs.skqd import (
    ChebyshevPropagator,
    ShotRecord,
    SkqdParams,
    _chebyshev_order,
    _propagator,
    _sample_indices,
    default_dt,
    run_skqd,
    support_coverage,
)
from sparsegs.subspace import ProjectedMatrix, connectivity_filter, project_fast, reachable_bits
from sparsegs.trace import BudgetExceeded


@pytest.fixture(scope="module", params=[(False, 16), (True, 65_535)],
                ids=["path16", "path16-coupled"])
def cli_patch(request):
    """The `path16` and `path16-coupled` bundles of `sparsegs generate --seed 9`:
    (hamiltonian, certificate, size of the reachable subspace of x0)."""
    couple, reach = request.param
    g = build_path(16)
    emb = PatchEmbedding((tuple(range(16)),), ())
    params = ConstructionParams(mode="main", obfuscation_seed=9)
    return (*assemble_global(g, emb, params, couple=couple), reach)


@pytest.fixture(scope="module")
def bare_three_patch():
    """49-qubit heavy-hex instance with three uncoupled patches."""
    g = build_heavy_hex(3, 2)
    emb = embed_patches(g, 3, 16, seed=9)
    return assemble_global(g, emb, ConstructionParams(mode="main", obfuscation_seed=9),
                           couple=False)


def test_default_dt_single_pauli():
    h = PauliSum([(1.0, PauliString.from_label("X"))], 1)
    assert default_dt(h, 1.0) == pytest.approx(np.pi)


def test_default_dt_multiplier_25(patch_instance):
    h, _ = patch_instance
    assert default_dt(h) == pytest.approx(25 * np.pi / h.coeff_one_norm())


def test_one_norm_bounds_spectral_norm():
    for seed in range(6):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        h = random_pauli_sum(rng, n, 10)
        spec = np.abs(np.linalg.eigvalsh(kron_dense(h))).max()
        assert h.coeff_one_norm() >= spec - 1e-10


def test_default_dt_rejects_empty():
    h = PauliSum([], 2)
    with pytest.raises(ValueError):
        default_dt(h)


def test_default_dt_rejects_bad_multiplier():
    h = PauliSum([(1.0, PauliString.from_label("X"))], 1)
    with pytest.raises(ValueError):
        default_dt(h, 0.0)


def test_exact_evolution_rejects_non_hermitian():
    # the Chebyshev propagator's Gershgorin interval bounds a real spectrum only
    h = PauliSum([(1.0, PauliString.from_label("X")), (0.5j, PauliString.from_label("Z"))], 1)
    with pytest.raises(ValueError, match="Hermitian"):
        run_skqd(h, Configuration(0, 1), SkqdParams(krylov_dim=2, shots_per_state=10))


def test_evolve_exact_time_zero():
    rng = np.random.default_rng(0)
    h = random_pauli_sum(rng, 4, 6)
    v = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    assert np.array_equal(evolve_exact(h, v, 0.0), v)


def test_evolve_exact_matches_dense_exponential():
    rng = np.random.default_rng(1)
    h = random_pauli_sum(rng, 6, 12)
    v = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    v /= np.linalg.norm(v)
    t = 0.83
    want = sla.expm(-1j * t * kron_dense(h)) @ v
    got = evolve_exact(h, v, t)
    assert np.linalg.norm(got - want) < 1e-10


def test_eigenstate_evolution_is_stationary(patch_instance):
    h, cert = patch_instance
    psi = np.zeros(1 << 16, dtype=complex)
    for c, a in zip(cert.support, cert.amplitudes):
        psi[c.bits] = a
    out = evolve_exact(h, psi, 2.1)
    assert abs(np.vdot(psi, out)) == pytest.approx(1.0, abs=1e-9)


def test_run_skqd_patch_recovers_ground_state(patch_instance):
    h, cert = patch_instance
    p = SkqdParams(krylov_dim=8, shots_per_state=2000, rng_seed=5)
    eig, trace, record = run_skqd(h, cert.initial_config, p)
    assert abs(eig.value) < 1e-7
    cov = support_coverage(record, cert)
    assert cov[-1] == 8
    assert np.all(np.diff(cov) >= 0)


def test_run_skqd_d1_energy_bounded_by_reference(patch_instance):
    h, cert = patch_instance
    eig, trace, record = run_skqd(
        h, cert.initial_config, SkqdParams(krylov_dim=1, shots_per_state=100)
    )
    x0 = cert.initial_config
    assert eig.value <= matrix_element(h, x0, x0).real + 1e-12


def test_only_a_filtered_out_pool_of_several_configurations_warns(cli_patch):
    # the first pool is x0 alone, which the filter always empties, so a
    # correct d = 1 run falls back to x0's diagonal energy in silence; a
    # pool of two or more unconnected configurations still warns
    h, cert, _ = cli_patch
    x0 = cert.initial_config
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        eig, trace, _ = run_skqd(h, x0, SkqdParams(krylov_dim=1, shots_per_state=100))
    assert eig.value == float(diagonal_element(h, np.uint64(x0.bits)))
    assert trace.final_dim == 1
    # a Z-only H keeps x0 in place, and bit flips add configurations it never connects
    hz = PauliSum([(0.7, PauliString.from_label("ZZI")), (0.2, PauliString.from_label("IIZ"))], 3)
    p = SkqdParams(krylov_dim=1, shots_per_state=50, bitflip_probability=0.5)
    with pytest.warns(UserWarning, match="connectivity filter removed the whole pool"):
        _, _, record = run_skqd(hz, Configuration(0b101, 3), p)
    assert len(record.histograms[0]) > 1


def test_run_skqd_energy_nonincreasing_in_dim(patch_instance):
    h, cert = patch_instance
    p = SkqdParams(krylov_dim=6, shots_per_state=500, rng_seed=11)
    _, trace, _ = run_skqd(h, cert.initial_config, p)
    energies = [r.energy for r in trace.rows]
    assert all(b <= a + 1e-9 for a, b in zip(energies, energies[1:]))


def test_sampling_distribution_chi_squared():
    # 5-qubit state sampled 1e5 times; histogram consistent with Born rule
    rng = np.random.default_rng(6)
    h = random_pauli_sum(rng, 5, 8)
    p = SkqdParams(krylov_dim=2, shots_per_state=100_000, rng_seed=7)
    x0 = Configuration(3, 5)
    eig, trace, record = run_skqd(h, x0, p)
    phi = np.zeros(32, dtype=complex)
    phi[3] = 1.0
    phi = evolve_exact(h, phi, default_dt(h))
    probs = np.abs(phi) ** 2
    probs /= probs.sum()
    hist = record.histograms[1]
    counts = np.array([hist.get(b, 0) for b in range(32)])
    keep = probs > 1e-6
    stat, pval = chisquare(counts[keep], probs[keep] / probs[keep].sum() * counts[keep].sum())
    assert pval > 0.001


def test_noise_channel_exercises_filter(patch_instance):
    h, cert = patch_instance
    p = SkqdParams(krylov_dim=4, shots_per_state=500, rng_seed=8,
                   bitflip_probability=0.05)
    eig, trace, record = run_skqd(h, cert.initial_config, p)
    assert np.isfinite(eig.value)
    assert eig.value >= -1e-9


@pytest.mark.parametrize("flip", [0.0, 0.05])
def test_pool_accumulates_every_state(patch_instance, flip):
    # state k is diagonalized on the filtered union of x0 and every sample
    # drawn from states 0..k; a filter that removes everything falls back
    # to x0's diagonal energy, a dimension of 1
    h, cert = patch_instance
    x0 = cert.initial_config
    p = SkqdParams(krylov_dim=4, shots_per_state=500, rng_seed=8, bitflip_probability=flip)
    _, trace, record = run_skqd(h, x0, p)
    pool = [x0.bits]
    dims = []
    for hist in record.histograms:
        pool += list(hist)
        dims.append(connectivity_filter(h, unique_bits(np.array(pool, dtype=np.uint64))).size)
    assert [r.subspace_dim for r in trace.rows] == [d or 1 for d in dims]
    if flip == 0.0:
        assert dims[0] == 0  # state 0 is x0 alone: the fallback row


def _flip_masks_at_once(shots, n, probability, rng):
    # the bit-flip masks as they were built before the blocks: one shots x n draw
    flips = rng.random((shots, n)) < probability
    return (flips * (1 << np.arange(n, dtype=np.uint64))).sum(axis=1).astype(np.uint64)


def test_bit_flips_drawn_in_blocks_keep_the_histograms(patch_instance, monkeypatch):
    # 37 rows of 16 qubits a block: 500 shots take 13 whole blocks and a part
    h, cert = patch_instance
    p = SkqdParams(krylov_dim=3, shots_per_state=500, rng_seed=8, bitflip_probability=0.05)
    monkeypatch.setattr(skqd, "_FLIP_BLOCK", 37 * 16)
    _, _, blocked = run_skqd(h, cert.initial_config, p)
    monkeypatch.setattr(skqd, "_flip_masks", _flip_masks_at_once)
    _, _, whole = run_skqd(h, cert.initial_config, p)
    assert blocked.histograms == whole.histograms
    assert sum(len(hist) for hist in blocked.histograms) > 3


def test_bit_flips_hold_one_block(monkeypatch):
    # the masks and a few arrays of one block's size (the draws, the flips,
    # their products and the reduction's scratch); one 20,000 x 49 draw
    # would peak above 8 MB
    block, shots = 1 << 12, 20_000
    monkeypatch.setattr(skqd, "_FLIP_BLOCK", block)
    rng = np.random.default_rng(0)
    tracemalloc.start()
    masks = skqd._flip_masks(shots, 49, 0.05, rng)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 8 * shots + 4 * 8 * block
    assert np.array_equal(masks, _flip_masks_at_once(shots, 49, 0.05, np.random.default_rng(0)))


def test_support_coverage_edge_cases(patch_instance):
    _, cert = patch_instance
    empty = ShotRecord(histograms=[], state_seeds=[], n_qubits=16)
    assert support_coverage(empty, cert).size == 0
    exact = ShotRecord(
        histograms=[{c.bits: 1 for c in cert.support}], state_seeds=[0], n_qubits=16
    )
    assert support_coverage(exact, cert)[0] == len(cert.support)


def test_reproducible_given_seed(patch_instance):
    h, cert = patch_instance
    p = SkqdParams(krylov_dim=3, shots_per_state=300, rng_seed=9)
    e1, t1, r1 = run_skqd(h, cert.initial_config, p)
    e2, t2, r2 = run_skqd(h, cert.initial_config, p)
    assert e1.value == e2.value
    assert r1.histograms == r2.histograms


def test_budget_and_width_checks():
    rng = np.random.default_rng(10)
    h = random_pauli_sum(rng, 4, 5)
    with pytest.raises(ValueError):
        run_skqd(h, Configuration(0, 5), SkqdParams(krylov_dim=1, shots_per_state=10))
    with pytest.raises(ValueError):
        SkqdParams(krylov_dim=0, shots_per_state=10)


@pytest.mark.parametrize("shots", [0, -5, True, 2.5, "100", [100, 200, 300], (100, 200, 300)])
def test_shots_must_be_a_positive_int(shots):
    # a list would reach rng.random([100, 200, 300]) and draw 6e6 samples
    with pytest.raises(ValueError, match="shots_per_state"):
        SkqdParams(krylov_dim=3, shots_per_state=shots)


def test_sampler_draw_above_rounded_cdf_stays_in_support():
    v = np.random.default_rng(2).standard_normal(64).astype(complex)
    probs = np.abs(v) ** 2
    assert np.cumsum(probs / probs.sum())[-1] < np.nextafter(1.0, 0.0)

    class TopDraw:
        def random(self, shots):
            return np.full(shots, np.nextafter(1.0, 0.0))

    assert list(_sample_indices(v, 2, TopDraw())) == [63, 63]
    # trailing zero amplitudes are never drawn
    padded = np.concatenate([v, np.zeros(8, dtype=complex)])
    assert list(_sample_indices(padded, 2, TopDraw())) == [63, 63]
    # every other draw is the plain inverse-cdf lookup
    cdf = np.cumsum(probs / probs.sum())
    draws = np.random.default_rng(5).random(10_000)
    got = _sample_indices(v, 10_000, np.random.default_rng(5))
    assert np.array_equal(got, np.searchsorted(cdf, draws))


def test_reachable_krylov_states_match_full_statevector(cli_patch):
    h, cert, reach = cli_patch
    x0 = cert.initial_config
    dt = default_dt(h)
    states, prop = _propagator(h, x0, SkqdParams(krylov_dim=3, shots_per_state=1), dt)
    assert states.size == reach
    idx = states.astype(np.int64)
    outside = np.ones(1 << 16, dtype=bool)
    outside[idx] = False
    full = np.zeros(1 << 16, dtype=complex)
    full[x0.bits] = 1.0
    krylov = prop.krylov_states((states == x0.bits).astype(float), 3)
    assert np.array_equal(next(krylov)[0], full[idx])
    for phi, _ in krylov:
        full = evolve_exact(h, full, dt)
        assert np.abs(full[idx] - phi).max() < 1e-12
        assert not full[outside].any()  # exact zeros outside R(x0)


def _full_statevector_histograms(h, x0, p):
    """Exact SKQD sampling as it ran on the full 2^n statevector: H as the
    explicit sparse matrix, traceA from the identity coefficient, and the
    unclamped inverse-cdf lookup."""
    dt = default_dt(h, p.dt_multiplier)
    op = pauli_sum_to_sparse(h)
    xm, zm, coeff, _ = h.mask_arrays
    ident = complex(coeff[(xm == 0) & (zm == 0)].sum())
    phi = np.zeros(1 << h.n_qubits, dtype=complex)
    phi[x0.bits] = 1.0
    hists = []
    for k, child in enumerate(np.random.SeedSequence(p.rng_seed).spawn(p.krylov_dim)):
        if k > 0:
            phi = spla.expm_multiply(-1j * dt * op, phi, traceA=-1j * dt * ident * phi.size)
        probs = np.abs(phi) ** 2
        probs /= probs.sum()
        draws = np.random.default_rng(child).random(p.shots_per_state)
        uniq, counts = np.unique(np.searchsorted(np.cumsum(probs), draws), return_counts=True)
        hists.append({int(b): int(c) for b, c in zip(uniq, counts)})
    return hists


def test_run_skqd_histograms_match_full_statevector_loop(cli_patch):
    h, cert, _ = cli_patch
    p = SkqdParams(krylov_dim=3, shots_per_state=50_000, rng_seed=9)
    _, _, record = run_skqd(h, cert.initial_config, p)
    assert record.histograms == _full_statevector_histograms(h, cert.initial_config, p)


def test_exact_skqd_closure_budget(bare_three_patch):
    h, cert = bare_three_patch
    p = SkqdParams(krylov_dim=2, shots_per_state=10, dim_cap=1000)
    with pytest.raises(BudgetExceeded, match="1196 exceeds cap 1000"):
        run_skqd(h, cert.initial_config, p)


def test_exact_skqd_on_bare_three_patch(bare_three_patch):
    h, cert = bare_three_patch
    x0 = cert.initial_config
    assert h.n_qubits == 49
    states, _ = _propagator(h, x0, SkqdParams(krylov_dim=1, shots_per_state=1), default_dt(h))
    assert states.size == 4096
    p = SkqdParams(krylov_dim=10, shots_per_state=20_000, rng_seed=9)
    eig, _, record = run_skqd(h, x0, p)
    assert cert.energy - 1e-9 <= eig.value < cert.energy + 1e-9
    assert support_coverage(record, cert)[-1] == len(cert.support) == 512


@pytest.mark.parametrize("a", [0.5, 2.0, 10.0, 32.67, 100.0])
def test_chebyshev_propagator_matches_dense_exponential(a):
    # complex Hermitian sums (Y terms give imaginary entries), a = r dt;
    # states 1..9 share one recurrence, cut at K(9a) for the last
    for seed in range(3):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 9))
        dense = kron_dense(random_pauli_sum(rng, n, 12))
        assert np.abs(dense.imag).max() > 0
        dt = a / ChebyshevPropagator(_upper(dense), 1.0).radius
        prop = ChebyshevPropagator(_upper(dense), dt)
        assert prop.radius * dt == pytest.approx(a)
        vals = np.linalg.eigvalsh(dense)  # inside the Gershgorin interval
        assert prop.center - prop.radius <= vals[0] and vals[-1] <= prop.center + prop.radius
        v = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
        v /= np.linalg.norm(v)
        krylov = prop.krylov_states(v, 10)
        assert next(krylov)[0] is v
        for k, (phi, _) in enumerate(krylov, start=1):
            want = sla.expm(-1j * k * dt * dense) @ v
            assert np.linalg.norm(phi - want) < 1e-13


def test_chebyshev_propagator_evolves_a_real_operator_in_float64():
    # a real H_R and a real start run the recurrence in float64 on the
    # caller's matrix itself: no complex copy, and the matrix is unchanged
    products = []

    class Recorded(ProjectedMatrix):
        def __matmul__(self, other):
            products.append(other.dtype)
            return super().__matmul__(other)

    rng = np.random.default_rng(5)
    a = rng.standard_normal((40, 40))
    real = Recorded(40, _upper(a + a.T).rows)
    before = real.rows.copy()
    prop = ChebyshevPropagator(real, 0.3)
    v = np.zeros(40)
    v[3] = 1.0
    states = [phi for phi, _ in prop.krylov_states(v, 4)]
    assert products == [np.float64] * (_chebyshev_order(3 * prop.radius * 0.3) - 1)
    assert prop._h is real and real.dtype == np.float64 and (real.rows != before).nnz == 0
    # the same states, to rounding, from the complex matrix and start
    cplx = ChebyshevPropagator(ProjectedMatrix(40, before.astype(complex)), 0.3)
    for phi, want in zip(states, cplx.krylov_states(v.astype(complex), 4), strict=True):
        assert np.abs(phi - want[0]).max() < 1e-15


def _upper(dense):
    """A Hermitian dense matrix as a ProjectedMatrix: its upper triangle in CSR."""
    return ProjectedMatrix(dense.shape[0], sp.csr_matrix(np.triu(dense)))


def _whole(m):
    """The whole CSR matrix of a ProjectedMatrix, its strictly lower
    triangle the conjugate transpose of the strictly upper one."""
    return (m.rows + sp.triu(m.rows, 1).conj().T).tocsr()


def _gershgorin_by_scipy(m):
    """(center, radius) from SciPy's sum(axis=1) of |m| over the whole
    matrix m, as the propagator computed them before it held one triangle."""
    diag = m.diagonal()
    row_abs = sp.csr_matrix((np.abs(m.data), m.indices, m.indptr), shape=m.shape).sum(axis=1)
    radius = np.asarray(row_abs).ravel() - np.abs(diag)
    lo, hi = float((diag.real - radius).min()), float((diag.real + radius).max())
    return (hi + lo) / 2, (hi - lo) / 2


@pytest.mark.parametrize("block", [subspace._ROW_SUM_BLOCK, 3, 1000])
def test_gershgorin_interval_matches_scipy_row_sums(cli_patch, block, monkeypatch):
    # the upper triangle's rows and columns, summed block by block, give
    # the whole matrix's |H| row sums to rounding (a row's two halves are
    # summed apart), and bit for bit whatever the block size; a matrix with
    # an empty row and a complex one
    h, cert, reach = cli_patch
    states = reachable_bits(h, np.array([cert.initial_config.bits], dtype=np.uint64), reach)
    small = np.array([[1.0, 0, -2, 0.25], [0, 0, 0, 0], [-2, 0, -0.5, 3], [0.25, 0, 3, 0]])
    twist = np.triu(small, 1) - np.tril(small, -1)  # antisymmetric: small + i twist is Hermitian
    cases = [project_fast(h, states), _upper(small), _upper(small + 1j * twist),
             _upper(np.zeros((3, 3)))]
    sums = [m.abs_row_sums() for m in cases]
    monkeypatch.setattr(subspace, "_ROW_SUM_BLOCK", block)
    for m, want in zip(cases, sums, strict=True):
        assert np.array_equal(m.abs_row_sums(), want)
        whole = _whole(m)
        assert np.allclose(want, np.asarray(abs(whole).sum(axis=1)).ravel(), rtol=1e-13, atol=0)
        prop = ChebyshevPropagator(m, 0.1)
        center, radius = _gershgorin_by_scipy(whole)
        assert prop.center == pytest.approx(center, rel=1e-13, abs=1e-13 * radius)
        assert prop.radius == pytest.approx(radius, rel=1e-13)


def test_gershgorin_interval_copies_no_data():
    # |H_R| is summed in blocks of about 2^17 entries: the set-up holds a
    # few dim-long vectors, not a copy of path16-coupled's 14 MB of data
    h, cert = layout_instance("path16-coupled")
    m = project_fast(h, reachable_bits(h, np.array([cert.initial_config.bits],
                                                   dtype=np.uint64), 1 << 16))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        ChebyshevPropagator(m, 0.1)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * m.nnz * m.dtype.itemsize  # a quarter of the whole matrix's data


def test_chebyshev_scalar_operator_is_the_phase():
    # a Z-only Hamiltonian keeps x0 in place: |R| = 1, r = 0
    h = PauliSum([(0.7, PauliString.from_label("ZZI")), (-0.3, PauliString.from_label("IIZ")),
                  (0.2, PauliString.from_label("III"))], 3)
    x0 = Configuration(0b101, 3)
    dt = 0.41
    states, prop = _propagator(h, x0, SkqdParams(krylov_dim=2, shots_per_state=1), dt)
    assert states.tolist() == [x0.bits]
    assert prop.radius == 0.0
    assert prop.center == float(diagonal_element(h, np.uint64(x0.bits)))
    v = np.array([0.6 - 0.8j])
    for k, (phi, flops) in enumerate(prop.krylov_states(v, 4)):
        assert flops == 0.0
        assert np.array_equal(phi, np.exp(-1j * prop.center * k * dt) * v)


@pytest.mark.parametrize("a", [0.5, 2.0, 10.0, 32.67, 100.0])
def test_bessel_values_and_truncation_order(a):
    jv = pytest.importorskip("scipy.special").jv
    order = _chebyshev_order(a)
    values = jv(np.arange(order + 400), a)
    # an independent oracle: J_k(a) as the Fourier coefficients of the
    # Jacobi-Anger expansion e^{ia sin tau} = sum_k J_k(a) e^{ik tau}, from
    # 2K samples, whose phase a sin(tau) is rounded to about a eps
    m = 2 * order
    fourier = np.fft.fft(np.exp(1j * a * np.sin(2 * np.pi * np.arange(m) / m))).real / m
    assert np.abs(values[:order] - fourier[:order]).max() <= max(a, 1.0) * 2.0**-52
    bound = np.array([math.exp(k * math.log(a / 2) - math.lgamma(k + 1))
                      for k in range(order + 400)])
    assert np.all(np.abs(values) <= bound)  # DLMF 10.14.4
    # the order is the first whose true tail is at most 2^-53
    assert 2 * np.abs(values[order:]).sum() <= 2.0**-53 < 2 * np.abs(values[order - 1:]).sum()


def test_chebyshev_keeps_the_norm_on_bare_three_patch(bare_three_patch):
    h, cert = bare_three_patch
    x0 = cert.initial_config
    states, prop = _propagator(h, x0, SkqdParams(krylov_dim=11, shots_per_state=1), default_dt(h))
    for phi, _ in prop.krylov_states((states == x0.bits).astype(float), 11):
        assert abs(np.linalg.norm(phi) - 1.0) < 1e-13


def test_run_skqd_flops_formula(cli_patch):
    # state k costs the sparse products of the shared recurrence past state
    # k - 1's, K(ka) - K((k-1)a), times nnz(H_R); a kept pool that differs
    # from the last one solved costs its projection's nonzeros once plus once
    # per eigensolver application, and a repeated one costs nothing
    h, cert, _ = cli_patch
    x0 = cert.initial_config
    p = SkqdParams(krylov_dim=4, shots_per_state=2000, rng_seed=3)
    eig, trace, record = run_skqd(h, x0, p)
    dt = default_dt(h)
    states, prop = _propagator(h, x0, p, dt)
    hr = project_fast(h, states)
    orders = [_chebyshev_order(k * prop.radius * dt) for k in range(4)]
    assert orders[0] == 1 and orders[3] > orders[2] > orders[1]
    evolve = [(orders[k] - orders[k - 1]) * hr.nnz if k else 0.0 for k in range(4)]
    pool = np.array([x0.bits], dtype=np.uint64)
    want, solved = [], None
    for k, hist in enumerate(record.histograms):
        pool = unique_bits(np.concatenate([pool, np.array(list(hist), dtype=np.uint64)]))
        kept = connectivity_filter(h, pool)
        solve = 0
        if kept.size and not (solved is not None and np.array_equal(kept, solved)):
            proj = project_fast(h, kept)
            solve = (1 + lowest_eigenpair(proj).iterations) * proj.nnz
            solved = kept
        want.append((want[-1] if want else 0.0) + evolve[k] + solve)
    assert [r.flops for r in trace.rows] == want
    assert trace.flops == want[-1]
