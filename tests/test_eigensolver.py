import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from sparsegs.builder import CoreBlockParams, build_core_block
from sparsegs.eigensolver import DENSE_CAP, dense_lowest, lanczos_lowest, lowest_eigenpair
from sparsegs.subspace import ConfigurationBasis, project_fast


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
    basis = ConfigurationBasis(cert.support, 16)
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
    r = lowest_eigenpair(sp.csr_matrix(b + 0j), seed=3)
    assert r.converged and r.iterations > 0
    assert abs(r.value - np.linalg.eigvalsh(b)[0]) < 1e-9


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
