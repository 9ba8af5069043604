import numpy as np
import pytest

from conftest import kron_dense, layout_instance, random_pauli_sum, support_covered
from oracles import tangent
from sparsegs import eigensolver, matrixfree
from sparsegs.eigensolver import BasisSolver
from sparsegs.matrixfree import (
    DiagRankParams,
    TpmParams,
    TruncArnoldiParams,
    run_diag_ranking,
    run_tpm,
    run_truncated_arnoldi,
    tpm_theory,
    xi_recursion,
)
from sparsegs.paulis import (Configuration, add_scaled, apply_sum_to_vector, diagonal_element,
                             sparse_vdot, truncate_top)
from sparsegs.sci import SciParams, run_sci
from sparsegs.subspace import connected_bits
from sparsegs.trace import BudgetExceeded, SolverTrace


# -- diagonal ranking ---------------------------------------------------------


def test_diag_ranking_patch_reaches_zero(patch_instance):
    h, cert = patch_instance
    eig, trace = run_diag_ranking(h, cert.initial_config, DiagRankParams(16, 160, 40))
    assert abs(eig.value) < 1e-7
    assert trace.final_dim == 16


def test_diag_ranking_single_step_by_hand(patch_instance):
    h, cert = patch_instance
    x0 = cert.initial_config
    eig, trace = run_diag_ranking(h, x0, DiagRankParams(1, 100, 1))
    neighborhood = connected_bits(h, np.array([x0.bits], dtype=np.uint64)).tolist() + [x0.bits]
    # working set after one step: the single lowest-diagonal config seen
    diags = {b: float(diagonal_element(h, np.uint64(b))) for b in neighborhood}
    best = min(diags, key=lambda b: (diags[b], b))
    assert trace.final_dim == 1
    assert eig.value == pytest.approx(diags[best], abs=1e-12)


def test_diag_ranking_caps_respected():
    rng = np.random.default_rng(0)
    h = random_pauli_sum(rng, 6, 16)
    p = DiagRankParams(4, 10, 12)
    eig, trace = run_diag_ranking(h, Configuration(0, 6), p)
    assert all(r.subspace_dim <= 4 for r in trace.rows)
    assert trace.final_dim <= 4


def test_per_iteration_diagnostics(patch_instance):
    h, cert = patch_instance
    eig, trace = run_diag_ranking(
        h, cert.initial_config,
        DiagRankParams(16, 160, 12, per_iteration_energies=True),
    )
    curve = [r.energy for r in trace.rows]
    assert all(np.isfinite(e) for e in curve)
    assert curve[-1] == pytest.approx(eig.value, abs=1e-9)
    eig2, trace2, _ = run_truncated_arnoldi(
        h, cert.initial_config,
        TruncArnoldiParams(8, 12, per_iteration_energies=True),
    )
    curve2 = [r.energy for r in trace2.rows if np.isfinite(r.energy)]
    assert curve2 and min(curve2) >= -1e-9


def test_diag_ranking_variational():
    rng = np.random.default_rng(1)
    h = random_pauli_sum(rng, 5, 12)
    e0 = np.linalg.eigvalsh(kron_dense(h))[0]
    eig, _ = run_diag_ranking(h, Configuration(0, 5), DiagRankParams(8, 40, 15))
    assert eig.value >= e0 - 1e-9


# -- truncated Arnoldi --------------------------------------------------------


def test_tarnoldi_no_truncation_is_exact_arnoldi():
    rng = np.random.default_rng(2)
    h = random_pauli_sum(rng, 6, 14)
    e0 = np.linalg.eigvalsh(kron_dense(h))[0]
    p = TruncArnoldiParams(new_config_cap=1 << 6, iters=1 << 6)
    eig, trace, basis = run_truncated_arnoldi(h, Configuration(0, 6), p)
    assert eig.value == pytest.approx(e0, abs=1e-9)


def test_tarnoldi_tridiagonal_matches_textbook_lanczos():
    # with no truncation and Hermitian H the iterates reproduce the dense
    # Lanczos recurrence built independently below
    rng = np.random.default_rng(3)
    n = 5
    h = random_pauli_sum(rng, n, 10)
    dense = kron_dense(h)
    p = TruncArnoldiParams(new_config_cap=1 << n, iters=6)
    eig, trace, basis = run_truncated_arnoldi(h, Configuration(0, n), p)

    # independent dense Lanczos from e_0
    dim = 1 << n
    v = np.zeros(dim, dtype=complex)
    v[0] = 1.0
    vs = [v]
    for _ in range(6):
        w = dense @ vs[-1]
        for u in vs:
            w = w - np.vdot(u, w) * u
        for u in vs:
            w = w - np.vdot(u, w) * u
        nrm = np.linalg.norm(w)
        if nrm < 1e-12:
            break
        vs.append(w / nrm)

    # rebuild the package's iterates densely and compare projected matrices
    kvecs = [np.zeros(dim, dtype=complex)]
    kvecs[0][0] = 1.0
    got_eig, got_trace, got_basis = run_truncated_arnoldi(
        h, Configuration(0, n), TruncArnoldiParams(1 << n, len(vs) - 1)
    )
    tri_ref = np.array([[np.vdot(a, dense @ b) for b in vs] for a in vs])
    off = np.triu(np.abs(tri_ref), 2)
    assert off.max() < 1e-10  # tridiagonal up to reorthogonalization dust


def test_tarnoldi_patch_small_cutoff(patch_instance):
    h, cert = patch_instance
    found = None
    for m in (2, 8, 32):
        eig, trace, basis = run_truncated_arnoldi(h, cert.initial_config,
                                                  TruncArnoldiParams(m, 64))
        if abs(eig.value) < 1e-7:
            found = m
            assert support_covered(basis, cert) == 8
            break
    assert found is not None and found <= 1 << 12


def test_tarnoldi_breakdown_stops_early():
    # H = Z: from a basis state the Krylov space is one-dimensional
    from sparsegs.paulis import PauliString, PauliSum

    h = PauliSum([(1.0, PauliString.from_label("Z"))], 1)
    eig, trace, basis = run_truncated_arnoldi(h, Configuration(0, 1),
                                              TruncArnoldiParams(4, 10))
    assert trace.status == "converged"
    assert len(trace.rows) == 1
    assert eig.value == pytest.approx(1.0)


def test_tarnoldi_variational():
    rng = np.random.default_rng(4)
    h = random_pauli_sum(rng, 5, 10)
    e0 = np.linalg.eigvalsh(kron_dense(h))[0]
    eig, _, _ = run_truncated_arnoldi(h, Configuration(0, 5), TruncArnoldiParams(4, 30))
    assert eig.value >= e0 - 1e-9


# -- truncated power method ---------------------------------------------------


def test_tpm_full_cutoff_is_plain_power_method():
    rng = np.random.default_rng(7)  # this draw has a clear spectral gap
    n = 5
    h = random_pauli_sum(rng, n, 10)
    e0 = np.linalg.eigvalsh(kron_dense(h))[0]
    p = TpmParams(sparsity_cutoff=1 << n, iters=4000, mode="expectation")
    energy, trace, support = run_tpm(h, Configuration(0, n), p)
    assert energy == pytest.approx(e0, abs=1e-6)


def test_tpm_diag_support_below_expectation(patch_instance):
    h, cert = patch_instance
    k, iters = 16, 50
    e_diag, tr_diag, _ = run_tpm(h, cert.initial_config,
                                 TpmParams(k, iters, mode="diagonalize_support"))
    e_exp, tr_exp, _ = run_tpm(h, cert.initial_config,
                               TpmParams(k, iters, mode="expectation"))
    diag_curve = np.array([r.energy for r in tr_diag.rows])
    exp_curve = np.array([r.energy for r in tr_exp.rows])
    assert np.all(diag_curve <= exp_curve + 1e-10)
    assert e_diag <= e_exp + 1e-10


def test_tpm_expectation_monotone_on_patch(patch_instance):
    h, cert = patch_instance
    _, trace, _ = run_tpm(h, cert.initial_config, TpmParams(16, 80, mode="expectation"))
    curve = np.array([r.energy for r in trace.rows])
    assert np.all(np.diff(curve) <= 1e-10)


def test_tpm_variational(patch_instance):
    h, cert = patch_instance
    for mode in ("expectation", "diagonalize_support"):
        e, _, _ = run_tpm(h, cert.initial_config, TpmParams(8, 30, mode=mode))
        assert e >= -1e-9


def _tpm_applying_h_twice(h, x0, p):
    """The power method with H applied twice per iterate, once for A phi
    and once more for the Rayleigh quotient: (energy, row energies, iterates)."""
    shift = h.coeff_one_norm() + 1.0
    bits, amps = np.array([x0.bits], dtype=np.uint64), np.ones(1, dtype=complex)
    iterates, energies = [(bits, amps)], []
    for _ in range(p.iters):
        hb, ha = apply_sum_to_vector(h, bits, amps)
        bits, amps = add_scaled(bits, amps * shift, hb, ha, -1.0)
        bits, amps = truncate_top(bits, amps, p.sparsity_cutoff)
        amps = amps / np.linalg.norm(amps)
        hb, ha = apply_sum_to_vector(h, bits, amps)
        energy = float(sparse_vdot(bits, amps, hb, ha).real)
        if p.mode == "diagonalize_support":
            energy = BasisSolver(h, SolverTrace("tpm")).solve(bits).value
        iterates.append((bits, amps))
        energies.append(energy)
    return energy, energies, iterates


@pytest.mark.parametrize("mode", ["expectation", "diagonalize_support"])
@pytest.mark.parametrize("layout, k, iters", [("path16", 6, 12), ("flagship", 40, 5)])
def test_tpm_applies_h_once_per_iterate(layout, k, iters, mode, monkeypatch):
    # each iterate's H phi serves its Rayleigh quotient and the next A phi;
    # diagonalize_support mode needs no quotient, so no H phi of the last
    # iterate; every output equals the two-application loop's, bit for bit
    h, cert = layout_instance(layout)
    p = TpmParams(k, iters, mode=mode)
    want_energy, want_rows, want_iterates = _tpm_applying_h_twice(h, cert.initial_config, p)
    applied = []
    real = matrixfree.apply_sum_to_vector
    monkeypatch.setattr(matrixfree, "apply_sum_to_vector",
                        lambda h, b, a: applied.append((b, a)) or real(h, b, a))
    energy, trace, support = run_tpm(h, cert.initial_config, p)
    n_applied = iters + 1 if mode == "expectation" else iters
    assert len(applied) == n_applied
    assert energy == want_energy
    assert [r.energy for r in trace.rows] == want_rows
    assert np.array_equal(support, want_iterates[-1][0])
    for (b, a), (want_b, want_a) in zip(applied, want_iterates[:n_applied], strict=True):
        assert np.array_equal(b, want_b) and np.array_equal(a, want_a)


def test_tpm_reuses_the_eigenpair_of_an_unchanged_support(monkeypatch):
    # on the flagship at --k 2000 --iters 8, iterates 5 and 8 keep the
    # support of the iterate before, so 6 of the 8 rows solve; every energy
    # equals a fresh solve of its iterate's support, bit for bit
    h, cert = layout_instance("flagship")
    p = TpmParams(2000, 8, mode="diagonalize_support")
    want_energy, want_rows, want_iterates = _tpm_applying_h_twice(h, cert.initial_config, p)
    solved = []
    real = eigensolver.lowest_eigenpair
    monkeypatch.setattr(eigensolver, "lowest_eigenpair", lambda m: solved.append(m.shape) or real(m))
    energy, trace, _ = run_tpm(h, cert.initial_config, p)
    unchanged = [np.array_equal(a[0], b[0]) for a, b in zip(want_iterates, want_iterates[1:])]
    assert unchanged == [False] * 4 + [True, False, False, True]
    assert len(solved) == 6
    assert energy == want_energy
    assert [r.energy for r in trace.rows] == want_rows


def test_tpm_tangent_contraction_bound():
    # a designed matrix with an exactly sparse principal eigenvector and a
    # relative gap of 1/2, so k >= k_star is reachable and truncation is
    # actually engaged; the measured tangent must stay below xi_t
    rng = np.random.default_rng(0)
    dim, chi = 2048, 3
    b = np.array([[0.9, 0.25, 0.0], [0.25, 0.6, 0.1], [0.0, 0.1, 0.5]])
    bvals, bvecs = np.linalg.eigh(b)
    b = b / bvals[-1]  # principal eigenvalue 1
    rest = rng.standard_normal((dim - chi, dim - chi))
    rest = (rest + rest.T) * 0.002
    rest += np.eye(dim - chi) * 0.25  # spectrum well below 0.5
    a = np.zeros((dim, dim))
    a[:chi, :chi] = b
    a[chi:, chi:] = rest
    vals, vecs = np.linalg.eigh(a)
    lam1, lam2 = vals[-1], vals[-2]
    psi = vecs[:, -1]
    gamma = (lam1 - lam2) / lam1
    start = int(np.argmax(np.abs(psi)))
    delta = float(np.abs(psi[start]) ** 2)
    k = 1536
    th = tpm_theory(gamma=gamma, delta=delta, chi=chi, epsilon=lam1 * 0.5,
                    lambda1=lam1, k=k, xi_terms=40)
    assert k >= th.k_star, "designed instance must sit in the provable regime"
    phi = np.zeros(dim)
    phi[start] = 1.0
    for t in range(1, 41):
        theta = a @ phi
        order = np.argsort(-np.abs(theta))[:k]
        omega = np.zeros_like(theta)
        omega[order] = theta[order]
        phi = omega / np.linalg.norm(omega)
        assert tangent(phi, psi) <= th.xi_sequence[t] + 1e-9


# -- theory constants ---------------------------------------------------------


def test_theory_trivial_evaluation():
    th = tpm_theory(gamma=1.0, delta=1.0, chi=1, epsilon=9.0 * 350, lambda1=350.0)
    assert th.k_star == 64.0


def test_theory_flagship_magnitude():
    th = tpm_theory(gamma=2.9e-5, delta=3.4e-11, chi=512, epsilon=1.0, lambda1=350.0)
    assert th.k_star >= 4.6e23


def test_theory_xi_bound_and_fixed_point():
    th = tpm_theory(gamma=0.3, delta=0.25, chi=4, epsilon=1.0, lambda1=2.0, xi_terms=60)
    ts = np.arange(61)
    dev = np.abs(th.xi_sequence - th.xi_star)
    assert np.all(dev <= th.xi_deviation_bound(ts) + 1e-12)
    assert th.xi_star <= th.xi_star_bound + 1e-15


def test_theory_parameter_validation():
    with pytest.raises(ValueError):
        tpm_theory(gamma=0.0, delta=0.5, chi=1, epsilon=1.0, lambda1=1.0)
    with pytest.raises(ValueError):
        tpm_theory(gamma=0.5, delta=2.0, chi=1, epsilon=1.0, lambda1=1.0)
    with pytest.raises(ValueError):
        tpm_theory(gamma=0.5, delta=0.5, chi=0, epsilon=1.0, lambda1=1.0)


def test_xi_recursion_matches_manual():
    gamma, rho = 0.4, 0.05
    seq = xi_recursion(gamma, rho, 1.5, 3)
    x = 1.5
    for t in range(1, 4):
        x = ((1 - gamma) * x + rho) / (1 - rho * (1 - gamma) * x)
        assert seq[t] == pytest.approx(x)


def test_params_defaults():
    p = DiagRankParams(8)
    assert (p.reservoir_cap, p.iters) == (80, 100)
    assert DiagRankParams(8, 20).reservoir_cap == 20
    p = TpmParams(4)
    assert (p.iters, p.mode) == (100, "diagonalize_support")


def test_flop_accounting_present(patch_instance):
    h, cert = patch_instance
    _, trace, _ = run_tpm(h, cert.initial_config, TpmParams(8, 5, mode="expectation"))
    assert trace.total_flops > 0
    assert all(r.flops > 0 for r in trace.rows)


def test_budget_guards():
    rng = np.random.default_rng(8)
    h = random_pauli_sum(rng, 8, 30)
    with pytest.raises(BudgetExceeded):
        run_truncated_arnoldi(h, Configuration(0, 8),
                              TruncArnoldiParams(100, 30, dim_cap=8))


@pytest.mark.parametrize("run, n_bases", [
    pytest.param(lambda h, x0: run_sci(h, x0, SciParams("cipsi", epsilon=1e-9, max_iters=10)),
                 None, id="cipsi-stalled"),
    pytest.param(lambda h, x0: run_tpm(h, x0, TpmParams(60, 5, mode="diagonalize_support")),
                 None, id="tpm-diagonalize-support"),
    pytest.param(lambda h, x0: run_truncated_arnoldi(h, x0, TruncArnoldiParams(
        40, 5, per_iteration_energies=True)), None, id="tarnoldi-per-iteration"),
    pytest.param(lambda h, x0: run_diag_ranking(h, x0, DiagRankParams(
        8, 80, 4, per_iteration_energies=True)), None, id="diag-ranking-per-iteration"),
    # the union stops growing after 6 of the 8 rows
    pytest.param(lambda h, x0: run_truncated_arnoldi(h, x0, TruncArnoldiParams(
        40, 8, per_iteration_energies=True)), 6, id="tarnoldi-union-stops-growing"),
    # the working set repeats on the row where the run stalls
    pytest.param(lambda h, x0: run_diag_ranking(h, x0, DiagRankParams(
        50, 500, 8, per_iteration_energies=True)), 6, id="diag-ranking-stalls"),
])
def test_the_final_basis_is_not_solved_twice(run, n_bases, monkeypatch):
    # each distinct basis is projected and solved once: a row whose basis
    # did not change reuses the eigenpair of the row before, and the final
    # eigenpair is the last row's; n_bases=None means every row has a new basis
    h, cert = layout_instance("path16")
    projected = []
    real = eigensolver.project_fast
    monkeypatch.setattr(eigensolver, "project_fast",
                        lambda h, b, *a: projected.append(b.tobytes()) or real(h, b, *a))
    trace = run(h, cert.initial_config)[1]
    monkeypatch.undo()
    expected = len(trace.rows) if n_bases is None else n_bases
    assert len(projected) == len(set(projected)) == expected
    # every row's energy is, bit for bit, a fresh solve of one of the bases
    fresh = {eigensolver.lowest_eigenpair(real(h, np.frombuffer(b, np.uint64))).value
             for b in projected}
    assert {r.energy for r in trace.rows} == fresh
    assert trace.final_energy == trace.rows[-1].energy
    assert trace.total_flops == trace.rows[-1].flops
