"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

One sub-check is expected to fail and is kept faithful rather than
loosened: criterion 5's canonical term count of 419. The documented
hop + number-operator realization with the two-qubit edge coupling has at
most 392 canonical terms on the 49-qubit, 54-edge layout, so the source's
419 comes from a construction that is not reproduced here. See the
README's "Tests" section and the notes inline below.
"""

import os
import time
from collections import Counter

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from conftest import kron_dense, random_pauli_sum
from sparsegs.builder import (
    ConstructionParams,
    CoreBlockParams,
    assemble_global,
    build_core_block,
    level_crossing_sweep,
    partial_ground_states,
    verify_certificate,
)
from sparsegs.lattice import build_heavy_hex, embed_patches
from sparsegs.matrixfree import (
    DiagRankParams,
    TpmParams,
    TruncArnoldiParams,
    run_diag_ranking,
    run_tpm,
    run_truncated_arnoldi,
    tpm_theory,
)
from sparsegs.paulis import Configuration, decompose_dense_block
from sparsegs.sci import SciParams, run_sci
from sparsegs.skqd import SkqdParams, pauli_sum_to_sparse, run_skqd, support_coverage
from sparsegs.subspace import ConfigurationBasis, connected_configurations, project_fast, project_naive

PRINTED_PSI0 = np.array([-0.018, -0.014, -0.049, 0.119, -0.298, 0.449, -0.559, 0.616])


def report(criterion: str, passed: bool, detail: str = "") -> bool:
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'}"
          + (f"  [{detail}]" if detail else ""))
    return passed


@pytest.fixture(scope="module")
def flagship():
    g = build_heavy_hex(3, 2)
    emb = embed_patches(g, 3, 16, seed=9)
    return assemble_global(g, emb, ConstructionParams(obfuscation_seed=9))


# -- criterion 1: core-block spectrum ----------------------------------------


def test_criterion_01_core_block_spectrum():
    t0 = time.perf_counter()
    m = build_core_block(CoreBlockParams())
    w = np.linalg.eigvalsh(m)
    pgs = partial_ground_states(m)
    psi0 = pgs[7] if pgs[7][7] > 0 else -pgs[7]
    elapsed = time.perf_counter() - t0
    ok = (
        abs(w[0]) <= 1e-7
        and abs((w[1] - w[0]) - 0.126) <= 1e-3
        and abs((w[-1] - w[0]) - 4.38) <= 1e-2
        and np.abs(psi0 - PRINTED_PSI0).max() <= 2e-3
        and elapsed < 1.0
    )
    assert report(
        "1 (spectrum, gap, range, eigenvector)",
        ok,
        f"E0={w[0]:.2e} gap={w[1]-w[0]:.6f} range={w[-1]-w[0]:.4f} t={elapsed:.2f}s",
    )


def test_criterion_01_overlap_printed_value(patch_instance):
    # The source prints the ground overlap as 3.24e-4 next to an eigenvector
    # whose configuration-0 amplitude it prints as -0.018; 3.24e-4 is 0.018**2,
    # the square of that 3-decimal rounding.  The true amplitude is -0.017557,
    # so both the exact and the printed 8-decimal constants give 3.0823e-4.
    # Check the overlap at the precision the source printed the amplitude.
    printed_amp = abs(PRINTED_PSI0[0])
    overlaps = []
    for p in (CoreBlockParams(), CoreBlockParams.printed()):
        _, vecs = np.linalg.eigh(build_core_block(p))
        overlaps.append(float(vecs[0, 0] ** 2))
    rounding_ok = (
        all(round(float(np.sqrt(o)), 3) == printed_amp for o in overlaps)
        and abs(printed_amp**2 - 3.24e-4) <= 4 * np.finfo(float).eps * 3.24e-4
    )
    value_ok = (
        all(abs(o - 3.0823e-4) <= 1e-8 for o in overlaps)
        and abs(overlaps[0] - overlaps[1]) <= 1e-10
    )
    # the guiding-state overlap the certificate carries (`sparsegs info`
    # reports it as gamma0^2)
    gamma0_sq = patch_instance[1].initial_overlap_sq()
    cert_ok = abs(overlaps[0] - gamma0_sq) <= 1e-12
    ok = rounding_ok and value_ok and cert_ok
    assert report(
        "1 (overlap 3.24e-4 = 0.018^2; |psi0[0]| rounds to 0.018)",
        ok,
        f"overlap exact={overlaps[0]:.9e} printed={overlaps[1]:.9e} "
        f"gamma0^2={gamma0_sq:.9e}",
    )


# -- criterion 2: level crossing ----------------------------------------------


def test_criterion_02_level_crossing():
    t0 = time.perf_counter()
    etas = np.linspace(0.6, 1.0, 801)
    table = level_crossing_sweep(None, etas)
    gaps = table[:, 1] - table[:, 0]
    eta_star = float(etas[np.argmin(gaps)])
    elapsed = time.perf_counter() - t0
    ok = 0.75 < eta_star < 0.85 and elapsed < 1.0
    assert report("2 (level crossing)", ok, f"eta*={eta_star:.4f} t={elapsed:.2f}s")


# -- criterion 3: perturbative stall ------------------------------------------


def test_criterion_03_perturbative_stall():
    t0 = time.perf_counter()
    m = build_core_block(CoreBlockParams())
    pgs = partial_ground_states(m)
    numerators = []
    for i in range(3, 8):
        full = np.zeros(8)
        full[:i] = pgs[i - 1]
        numerators.append(abs(float(m[i] @ full)))
    zeros_ok = max(numerators) <= 1e-12

    h3 = decompose_dense_block(m, [0, 1, 2], 3)
    never_selected = True
    for eps in np.geomspace(1e-12, 1e-3, 20):
        _, trace, basis = run_sci(h3, Configuration(0, 3), SciParams("cipsi", epsilon=eps))
        found = {int(b) for b in basis.bits}
        if found & {3, 4, 5, 6, 7}:
            never_selected = False
            break
    elapsed = time.perf_counter() - t0
    ok = zeros_ok and never_selected and elapsed < 10.0
    assert report(
        "3 (perturbative stall)",
        ok,
        f"max numerator={max(numerators):.2e} cipsi-stall={never_selected} t={elapsed:.1f}s",
    )


# -- criterion 4: construction certificates -----------------------------------


@pytest.mark.slow
def test_criterion_04_construction_certificates(patch_instance):
    t0 = time.perf_counter()
    # warmup instance on <= 12 qubits, full dense verification
    g = build_heavy_hex(1, 1)
    emb = embed_patches(g, 2, 4, seed=0)
    hw, certw = assemble_global(g, emb, ConstructionParams(mode="warmup", m1=1.0))
    dense = pauli_sum_to_sparse(hw).toarray()
    ww = np.linalg.eigvalsh(dense)
    psi = np.zeros(1 << 12, dtype=complex)
    for c, a in zip(certw.support, certw.amplitudes):
        psi[c.bits] = a
    warmup_ok = (
        abs(ww[0]) <= 1e-7
        and np.linalg.norm(dense @ psi) < 1e-7
        and verify_certificate(hw, certw).passed
    )

    # main single patch at 2^16
    h, cert = patch_instance
    m = pauli_sum_to_sparse(h)
    w4 = spla.eigsh(m, k=2, which="SA", return_eigenvectors=False)
    lowest_ok = abs(np.sort(w4)[0]) <= 1e-7
    psi16 = np.zeros(1 << 16, dtype=complex)
    for c, a in zip(cert.support, cert.amplitudes):
        psi16[c.bits] = a
    support_ok = np.linalg.norm(m @ psi16) < 1e-7

    basis = ConfigurationBasis(cert.support, 16)
    proj = project_fast(h, basis).rows.toarray()
    # the bit-sorted basis permutes the obfuscated support; compare in the
    # certificate's logical order
    perm = np.array([basis.address(c) for c in cert.support])
    block = proj[np.ix_(perm, perm)]
    block_ok = np.abs(block.real - build_core_block(CoreBlockParams())).max() < 1e-10

    elapsed = time.perf_counter() - t0
    ok = warmup_ok and lowest_ok and support_ok and block_ok and elapsed < 120.0
    assert report(
        "4 (construction certificates)",
        ok,
        f"warmup={warmup_ok} patch_E0={lowest_ok} support={support_ok} "
        f"block={block_ok} t={elapsed:.0f}s",
    )


# -- criterion 5: flagship instance shape --------------------------------------


def test_criterion_05_flagship_support_and_residual(flagship):
    t0 = time.perf_counter()
    h, cert = flagship
    rep = verify_certificate(h, cert)
    elapsed = time.perf_counter() - t0
    ok = len(cert.support) == 512 and rep.passed and elapsed < 10.0
    assert report(
        "5 (512-config certificate + residual)",
        ok,
        f"support={len(cert.support)} residual={rep.residual:.2e} "
        f"tol={rep.tolerance:.2e} t={elapsed:.1f}s",
    )


def test_criterion_05_flagship_term_count(flagship):
    # Faithful to the stated count, and failing by construction.  The
    # documented realization's canonical terms are: the identity; 96 per
    # patch (40 hop pairs as XX + YY, plus 16 Z); one Z_c X_o per coupled
    # edge; one X_o per distinct coupling target (the coupling's I and Z_c
    # parts merge into the identity and the patch Z terms).  On the 49-qubit,
    # 54-edge layout that is at most 1 + 3*96 + 54 + 49 = 392 < 419, whatever
    # the routing, so the source's 419 comes from another construction.
    h, _ = flagship
    g = build_heavy_hex(3, 2)
    ceiling = 1 + 3 * 96 + len(g.edges) + g.n_qubits
    kind = {(0, 0): "identity", (1, 1): "coupled edges", (1, 0): "X targets"}
    counts = Counter(
        kind.get((bin(s.x_mask).count("1"), bin(s.z_mask).count("1")), "patch")
        for _, s in h.terms
    )
    breakdown = " + ".join(
        f"{k} {counts[k]}" for k in ("identity", "patch", "coupled edges", "X targets")
    )
    ok = len(h) == 419
    assert report(
        "5 (exactly 419 canonical Pauli terms)",
        ok,
        f"terms={len(h)} = {breakdown}; ceiling={ceiling}",
    )


# -- criterion 6: projection equivalence and scaling ---------------------------


def test_criterion_06_projection_equivalence_and_scaling(flagship):
    rng = np.random.default_rng(0)
    agree = True
    for _ in range(200):
        n = int(rng.integers(2, 9))
        h = random_pauli_sum(rng, n, int(rng.integers(1, 14)))
        size = int(rng.integers(1, min(64, 1 << n) + 1))
        bits = rng.choice(1 << n, size=size, replace=False)
        b = ConfigurationBasis([int(x) for x in bits], n)
        diff = project_fast(h, b).rows - project_naive(h, b).rows
        if diff.nnz and np.abs(diff.data).max() > 1e-12:
            agree = False
            break

    # 1e5-configuration pool from the flagship instance
    h49, cert = flagship
    pool = {c.bits for c in cert.support}
    frontier = set(cert.support)
    while len(pool) < 100_000:
        frontier = connected_configurations(h49, frontier)
        new_bits = {c.bits for c in frontier} - pool
        if not new_bits:
            break
        pool.update(new_bits)
    pool_bits = np.array(sorted(pool), dtype=np.uint64)
    assert pool_bits.size >= 100_000, f"closure reached only {pool_bits.size} configurations"
    pool_bits = pool_bits[:100_000]

    half = ConfigurationBasis([int(b) for b in pool_bits[:50_000]], 49)
    full = ConfigurationBasis([int(b) for b in pool_bits], 49)
    t0 = time.perf_counter()
    project_fast(h49, half)
    t_half = time.perf_counter() - t0
    t0 = time.perf_counter()
    project_fast(h49, full)
    t_full = time.perf_counter() - t0
    scaling_ok = t_full <= max(3.0 * t_half, t_half + 0.5)  # ~2x within 1.5x
    ok = agree and t_full < 60.0 and scaling_ok
    assert report(
        "6 (projection equivalence + scaling)",
        ok,
        f"agree200={agree} t(1e5)={t_full:.2f}s t(5e4)={t_half:.2f}s",
    )


# -- criterion 7: solver contrast at desk scale --------------------------------


def test_criterion_07_solver_contrast(patch_instance):
    t0 = time.perf_counter()
    h, cert = patch_instance
    x0 = cert.initial_config

    stalled = True
    for variant in ("cipsi", "hci"):
        for eps in np.geomspace(1e-14, 1e-4, 30):
            eig, trace, _ = run_sci(h, x0, SciParams(variant, epsilon=eps))
            if not (eig.value > 0.1):
                stalled = False
                break

    def covered(basis):
        return sum(1 for c in cert.support if basis.address(c) >= 0)

    tarnoldi_m = None
    for m in (2, 8, 64, 1024, 4096):
        eig, _, basis = run_truncated_arnoldi(h, x0, TruncArnoldiParams(m, 64))
        if abs(eig.value) <= 1e-7 and covered(basis) == 8:
            tarnoldi_m = m
            break

    diag_d = None
    for d in (8, 16, 64, 1024, 4096):
        eig, trace = run_diag_ranking(h, x0, DiagRankParams(d, 10 * d, 60))
        if abs(eig.value) <= 1e-7:
            diag_d = d
            break

    skqd_d = None
    for d in (4, 8, 16, 32):
        eig, trace, record = run_skqd(
            h, x0, SkqdParams(krylov_dim=d, shots_per_state=50_000, rng_seed=1)
        )
        if abs(eig.value) <= 1e-7 and support_coverage(record, cert)[-1] == 8:
            skqd_d = d
            break

    elapsed = time.perf_counter() - t0
    ok = (
        stalled
        and tarnoldi_m is not None and tarnoldi_m <= 1 << 12
        and diag_d is not None and diag_d <= 1 << 12
        and skqd_d is not None and skqd_d <= 32
        and elapsed < 1800.0
    )
    assert report(
        "7 (solver contrast)",
        ok,
        f"cipsi/hci stall>0.1={stalled} tarnoldi_M={tarnoldi_m} "
        f"diag_D={diag_d} skqd_d={skqd_d} t={elapsed:.0f}s",
    )


# -- criterion 8: truncated power method ---------------------------------------


def test_criterion_08_tpm_properties(patch_instance):
    h, cert = patch_instance
    x0 = cert.initial_config
    k, iters = 16, 60
    _, tr_diag, _ = run_tpm(h, x0, TpmParams(k, iters, mode="diagonalize_support"))
    _, tr_exp, _ = run_tpm(h, x0, TpmParams(k, iters, mode="expectation"))
    diag_curve = np.array([r.energy for r in tr_diag.rows])
    exp_curve = np.array([r.energy for r in tr_exp.rows])
    a_ok = bool(np.all(diag_curve <= exp_curve + 1e-10))
    b_ok = bool(np.all(np.diff(exp_curve) <= 1e-10))

    rng = np.random.default_rng(7)
    toy = random_pauli_sum(rng, 5, 10)
    e0 = np.linalg.eigvalsh(kron_dense(toy))[0]
    energy, _, _ = run_tpm(toy, Configuration(0, 5), TpmParams(32, 4000, mode="expectation"))
    c_ok = abs(energy - e0) <= 1e-6

    th = tpm_theory(gamma=2.9e-5, delta=3.4e-11, chi=512, epsilon=1.0,
                    lambda1=350.0, xi_terms=0)
    d1_ok = th.k_star >= 4.6e23
    th2 = tpm_theory(gamma=0.3, delta=0.25, chi=4, epsilon=1.0, lambda1=2.0, xi_terms=60)
    dev = np.abs(th2.xi_sequence - th2.xi_star)
    d2_ok = bool(np.all(dev <= th2.xi_deviation_bound(np.arange(61)) + 1e-12))

    ok = a_ok and b_ok and c_ok and d1_ok and d2_ok
    assert report(
        "8 (TPM properties)",
        ok,
        f"diag<=exp={a_ok} monotone={b_ok} power-method={c_ok} "
        f"k*={th.k_star:.2e} xi-bound={d2_ok}",
    )


# -- criterion 9: variational floor --------------------------------------------


@pytest.mark.slow
def test_criterion_09_variational_floor(patch_instance):
    h, cert = patch_instance
    x0 = cert.initial_config
    energies = []

    for variant, kw in (
        ("cipsi", dict(epsilon=1e-8)),
        ("hci", dict(epsilon=1e-8)),
        ("asci", dict(d_cap=32, core_cap=16)),
    ):
        eig, trace, _ = run_sci(h, x0, SciParams(variant, **kw))
        energies += [r.energy for r in trace.rows] + [eig.value]
    eig, trace = run_diag_ranking(h, x0, DiagRankParams(16, 160, 30))
    energies.append(eig.value)
    eig, trace, _ = run_truncated_arnoldi(h, x0, TruncArnoldiParams(8, 40))
    energies.append(eig.value)
    e, _, _ = run_tpm(h, x0, TpmParams(16, 40, mode="diagonalize_support"))
    energies.append(e)
    eig, trace, _ = run_skqd(h, x0, SkqdParams(krylov_dim=6, shots_per_state=2000, rng_seed=3))
    energies += [r.energy for r in trace.rows]
    floor_ok = min(energies) >= -1e-9

    # n <= 12 instance checked against the dense oracle
    g = build_heavy_hex(1, 1)
    emb = embed_patches(g, 2, 4, seed=0)
    hw, certw = assemble_global(g, emb, ConstructionParams(mode="warmup", m1=1.0))
    e0 = np.linalg.eigvalsh(pauli_sum_to_sparse(hw).toarray())[0]
    small_energies = []
    eig, trace, _ = run_sci(hw, certw.initial_config, SciParams("cipsi", epsilon=1e-6))
    small_energies += [r.energy for r in trace.rows] + [eig.value]
    eig, trace = run_diag_ranking(hw, certw.initial_config, DiagRankParams(64, 640, 30))
    small_energies.append(eig.value)
    dense_ok = min(small_energies) >= e0 - 1e-9

    ok = floor_ok and dense_ok
    assert report(
        "9 (variational floor)",
        ok,
        f"min_energy={min(energies):.2e} dense_floor_ok={dense_ok}",
    )


# -- criterion 10: optional long-running ---------------------------------------


@pytest.mark.skipif(
    not os.environ.get("SPARSEGS_LONG_RUNNING"),
    reason="multi-hour 49-qubit runs; set SPARSEGS_LONG_RUNNING=1 to enable",
)
def test_criterion_10_long_running(flagship):
    h, cert = flagship
    x0 = cert.initial_config
    eig_d, _ = run_diag_ranking(h, x0, DiagRankParams(80_000, 800_000, 200))
    diag_ok = abs(eig_d.value) <= 1e-7
    eig_a, trace_a, basis_a = run_truncated_arnoldi(
        h, x0, TruncArnoldiParams(50_000, 200)
    )
    arnoldi_ok = abs(eig_a.value) <= 1e-7
    dim_ok = abs(trace_a.final_dim - 313_303) <= 0.1 * 313_303
    ok = diag_ok and arnoldi_ok and dim_ok
    assert report(
        "10 (long-running 49q)",
        ok,
        f"diag_E={eig_d.value:.2e} tarnoldi_E={eig_a.value:.2e} "
        f"dim={trace_a.final_dim} iters={len(trace_a.rows)}",
    )
