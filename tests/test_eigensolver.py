import importlib
import importlib.util
import weakref
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import kron_dense, layout_instance, random_pauli_sum
import sparsegs.eigensolver as eigensolver
from sparsegs.builder import CoreBlockParams, build_core_block
from sparsegs.eigensolver import (DENSE_CAP, BasisSolver, dense_lowest, lanczos_lowest,
                                  lowest_eigenpair)
import sparsegs.subspace as subspace
from sparsegs.paulis import unique_bits
from sparsegs.sci import SciParams, run_sci
from sparsegs.subspace import ProjectedMatrix, connected_bits, project_fast
from sparsegs.trace import BudgetExceeded, SolverTrace


def test_dim_one_matrix():
    r = lanczos_lowest(np.array([[3.5]]))
    assert r.value == 3.5 and r.vector[0] == 1.0


def test_lanczos_matches_dense_on_random_symmetric():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((100, 100))
    a = a + a.T
    r = lanczos_lowest(sp.csr_matrix(a + 0j), tol=1e-11, seed=1)
    want = np.linalg.eigvalsh(a)[0]
    assert abs(r.value - want) < 1e-9
    assert r.converged
    assert r.residual <= 1e-11 * (1 + abs(r.value))


def test_lanczos_on_projected_core_block(patch_instance):
    h, cert = patch_instance
    basis = unique_bits(np.array([c.bits for c in cert.support], dtype=np.uint64))
    proj = project_fast(h, basis)
    r = lanczos_lowest(proj, seed=0)
    assert abs(r.value) < 1e-7


def test_dense_identity_flags_degenerate():
    r = dense_lowest(np.eye(4))
    assert r.value == pytest.approx(1.0)
    assert r.degenerate
    assert abs(np.linalg.norm(r.vector) - 1) < 1e-12


def test_dense_core_block_gap():
    w = np.linalg.eigvalsh(build_core_block(CoreBlockParams()))
    r = dense_lowest(build_core_block(CoreBlockParams()))
    assert abs(r.value - w[0]) < 1e-12
    assert w[1] - w[0] == pytest.approx(0.126, abs=1e-3)
    assert not r.degenerate


def test_lanczos_dense_mutual_check_50x50():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((50, 50))
    a = a + a.T
    r1 = lanczos_lowest(sp.csr_matrix(a + 0j), tol=1e-12, seed=0)
    r2 = dense_lowest(a)
    assert abs(r1.value - r2.value) < 1e-9
    overlap = abs(np.vdot(r1.vector, r2.vector))
    assert overlap == pytest.approx(1.0, abs=1e-6)


def test_lanczos_variational():
    rng = np.random.default_rng(3)
    for seed in range(5):
        a = rng.standard_normal((60, 60))
        a = a + a.T
        r = lanczos_lowest(sp.csr_matrix(a + 0j), tol=1e-10, seed=seed)
        assert r.value >= np.linalg.eigvalsh(a)[0] - 1e-10


def test_lanczos_seed_determinism():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((80, 80))
    a = a + a.T
    m = sp.csr_matrix(a + 0j)
    r1 = lanczos_lowest(m, seed=7)
    r2 = lanczos_lowest(m, seed=7)
    assert r1.value == r2.value
    assert r1.iterations == r2.iterations
    assert np.array_equal(r1.vector, r2.vector)


def test_lanczos_complex_hermitian():
    # genuinely complex Hermitian operand (reorthogonalization must
    # conjugate the stored vectors, not the iterate)
    rng = np.random.default_rng(9)
    a = rng.standard_normal((120, 120)) + 1j * rng.standard_normal((120, 120))
    a = a + a.conj().T
    r = lanczos_lowest(sp.csr_matrix(a), tol=1e-11, seed=2)
    want = np.linalg.eigvalsh(a)[0]
    assert abs(r.value - want) < 1e-8
    assert r.converged


def test_lanczos_nonconvergence_flagged():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((200, 200))
    a = a + a.T
    r = lanczos_lowest(sp.csr_matrix(a + 0j), tol=1e-14, max_iter=5, seed=0)
    assert not r.converged
    assert np.isfinite(r.value)
    assert r.value >= np.linalg.eigvalsh(a)[0] - 1e-10
    # Rayleigh-Ritz over the last 20 vectors ARPACK applied (exact: -40.30)
    assert r.value <= -30


def test_lowest_eigenpair_dispatch():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((30, 30))
    a = a + a.T
    r = lowest_eigenpair(a)
    assert abs(r.value - np.linalg.eigvalsh(a)[0]) < 1e-10
    # one past the dense cutoff goes to ARPACK
    b = rng.standard_normal((DENSE_CAP + 1, DENSE_CAP + 1))
    b = b + b.T
    r = lowest_eigenpair(sp.csr_matrix(b + 0j))
    assert r.converged and r.iterations > 0
    assert abs(r.value - np.linalg.eigvalsh(b)[0]) < 1e-9


def test_basis_eigenpair_reuses_the_previous_projection(monkeypatch):
    # a solver updates its last projection, not rebuilding it, and then
    # releases it; the eigenpair is a fresh solve's, bit for bit, and the
    # same basis again returns it without a solve
    h, cert = layout_instance("flagship")
    support = np.sort(np.array([c.bits for c in cert.support], dtype=np.uint64))
    old = np.union1d(support, connected_bits(h, support))
    new = np.union1d(old[::2], connected_bits(h, old)[::7])
    assert min(old.size, new.size) > DENSE_CAP
    made = []  # (bits, prev, projection) of every projection
    real = eigensolver.project_fast
    monkeypatch.setattr(eigensolver, "project_fast", lambda h, b, prev=None: made.append(
        (b, prev, real(h, b, prev))) or made[-1][2])
    cold_trace, warm_trace = SolverTrace("t"), SolverTrace("t")
    cold = BasisSolver(h, cold_trace).solve(new)
    solver = BasisSolver(h, warm_trace)
    solver.solve(old)
    before = warm_trace.flops
    warm = solver.solve(new)
    assert [prev is None for _, prev, _ in made] == [True, True, False]
    assert made[2][1][0] is old and made[2][1][1] is made[1][2].rows
    for attr in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(made[2][2].rows, attr), getattr(made[0][2].rows, attr))
    assert (warm.value, warm.iterations) == (cold.value, cold.iterations)
    assert warm.vector.tobytes() == cold.vector.tobytes()
    assert warm_trace.flops - before == cold_trace.flops
    flops = warm_trace.flops
    assert solver.solve(new.copy()) is warm and len(made) == 3 and warm_trace.flops == flops


@pytest.mark.parametrize("run", ["solver", "cipsi"])
def test_an_eigensolve_holds_no_projection_but_the_new_one(run, monkeypatch):
    # the solver releases its last projection once the update has read it,
    # so no eigensolve runs beside an older projection
    h, cert = layout_instance("flagship")
    alive = []  # a weak reference to every projection made
    real_project, real_solve = eigensolver.project_fast, eigensolver.lowest_eigenpair

    def project(h, b, prev=None):
        m = real_project(h, b, prev)
        alive.append(weakref.ref(m.rows))
        return m

    held = []  # the projections alive at each eigensolve
    monkeypatch.setattr(eigensolver, "project_fast", project)
    monkeypatch.setattr(eigensolver, "lowest_eigenpair", lambda m: held.append(
        [i for i, r in enumerate(alive) if r() is not None]) or real_solve(m))
    if run == "solver":
        balls = [np.array([cert.initial_config.bits], dtype=np.uint64)]
        for _ in range(4):
            balls.append(np.union1d(balls[-1], connected_bits(h, balls[-1])))
        solver = BasisSolver(h, SolverTrace("t"))
        for bits in balls[1:] + balls[2:3]:  # grow, then shrink
            solver.solve(bits)
    else:
        run_sci(h, cert.initial_config, SciParams("cipsi", epsilon=1e-9, max_iters=4))
    assert len(held) == len(alive) >= 4
    assert held == [[i] for i in range(len(alive))]


def test_real_and_complex_arpack_agree_on_flagship_projection():
    # a real projection runs ARPACK's real symmetric driver, its complex
    # cast the complex one
    h, cert = layout_instance("flagship")
    support = np.sort(np.array([c.bits for c in cert.support], dtype=np.uint64))
    for bits in (support, connected_bits(h, support)):
        m = project_fast(h, bits)
        assert m.dtype == np.float64 and m.shape[0] > DENSE_CAP
        cast = ProjectedMatrix(m.dim, m.rows.astype(complex))
        real, cplx = lanczos_lowest(m, seed=1), lanczos_lowest(cast, seed=1)
        assert real.converged and cplx.converged
        assert real.vector.dtype == np.float64 and cplx.vector.dtype == np.complex128
        assert abs(real.value - cplx.value) <= 1e-12
        assert abs(np.vdot(real.vector, cplx.vector)) == pytest.approx(1.0, abs=1e-10)


def test_basis_eigenpair_counts_flops_and_indexes_like_bits():
    # the dense path and, one past DENSE_CAP, the ARPACK path
    rng = np.random.default_rng(11)
    h = random_pauli_sum(rng, 9, 30)
    dense = kron_dense(h)
    for size in (40, DENSE_CAP + 1):
        bits = np.sort(rng.choice(1 << 9, size=size, replace=False).astype(np.uint64))
        trace = SolverTrace("t")
        trace.count(5.0)
        eig = BasisSolver(h, trace).solve(bits)
        assert (eig.iterations > 0) == (size > DENSE_CAP)
        nnz = project_fast(h, bits).nnz
        assert trace.flops == 5.0 + (1 + eig.iterations) * nnz
        # entry i of the vector belongs to configuration bits[i]
        block = dense[np.ix_(bits.astype(np.int64), bits.astype(np.int64))]
        assert eig.value == pytest.approx(np.linalg.eigvalsh(block)[0], abs=1e-9)
        assert np.linalg.norm(block @ eig.vector - eig.value * eig.vector) < 1e-8


def test_basis_eigenpair_checks_the_cap_before_projecting(monkeypatch):
    h = random_pauli_sum(np.random.default_rng(12), 4, 8)
    bits = np.arange(5, dtype=np.uint64)
    projected = []
    real = eigensolver.project_fast
    monkeypatch.setattr(eigensolver, "project_fast",
                        lambda h, b, *a: projected.append(b.size) or real(h, b, *a))
    BasisSolver(h, SolverTrace("t", dim_cap=4)).solve(bits[:4])
    with pytest.raises(BudgetExceeded, match="basis of 5 exceeds cap 4"):
        BasisSolver(h, SolverTrace("t", dim_cap=4)).solve(bits)
    assert projected == [4]


def _perfbench_spans():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_perfbench_traced_names_resolve():
    # the benchmark tracer swaps these bindings by name; a rename breaks it
    spans = _perfbench_spans()
    for mod, fn in spans.TRACED:
        assert callable(getattr(importlib.import_module(f"sparsegs.{mod}"), fn)), (mod, fn)
    # calls made inside lowest_eigenpair go through the swapped bindings
    rec = spans.Recorder()
    rec.install()
    try:
        lowest_eigenpair(np.eye(3))
        lowest_eigenpair(sp.identity(DENSE_CAP + 1, dtype=complex, format="csr"))
    finally:
        rec.uninstall()
    names = [s[0] for s in rec.spans]
    assert names == ["eigensolver.dense_lowest", "eigensolver.lanczos_lowest"]
    # the projection counters read ProjectedMatrix.dim and .rows
    h = random_pauli_sum(np.random.default_rng(13), 5, 12)
    bits = np.arange(0, 32, 3, dtype=np.uint64)
    rec = spans.Recorder()
    rec.install()
    try:
        BasisSolver(h, SolverTrace("t")).solve(bits)
    finally:
        rec.uninstall()
    assert [s[0] for s in rec.spans] == ["subspace.project_fast", "eigensolver.dense_lowest"]
    assert rec.spans[0][6] == {"dim": bits.size, "nnz": project_fast(h, bits).rows.nnz}


def test_perfbench_filter_counts_kept_configurations(patch_instance):
    # the tracer reads len(out) as the kept count, so the filter must return
    # the kept configurations; a mask over the pool would read 9/9
    h, cert = patch_instance
    support = np.sort(np.array([c.bits for c in cert.support], dtype=np.uint64))
    spans = _perfbench_spans()
    rec = spans.Recorder()
    rec.install()
    try:
        subspace.connectivity_filter(h, support)
        subspace.connectivity_filter(h, np.array([cert.support[0].bits], dtype=np.uint64))
    finally:
        rec.uninstall()
    stats = spans.layer_stats(rec.spans, rec.phase)
    assert stats["subspace.connectivity_filter.calls"] == 2
    assert stats["subspace.connectivity_filter.kept_ratio"] == 8 / 9
