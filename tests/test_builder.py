import json

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from conftest import kron_dense, layout_instance
from oracles import pauli_sum_to_sparse
from sparsegs.builder import (
    ConstructionParams,
    CoreBlockParams,
    GroundStateCertificate,
    assemble_global,
    build_core_block,
    build_main_patch,
    build_warmup_patch,
    level_crossing_sweep,
    load_bundle,
    partial_ground_states,
    save_bundle,
    verify_certificate,
)
from sparsegs.lattice import PatchEmbedding, build_heavy_hex, build_path, embed_patches
from sparsegs.paulis import Configuration, PauliString, PauliSum, apply_sum_to_vector, unique_bits
from sparsegs.subspace import project_fast

PRINTED_PSI0 = np.array([-0.018, -0.014, -0.049, 0.119, -0.298, 0.449, -0.559, 0.616])


def test_default_constants_round_to_printed():
    p = CoreBlockParams()
    q = CoreBlockParams.printed()
    assert round(p.a, 8) == q.a
    assert round(p.b, 8) == q.b
    assert round(p.c, 8) == q.c


def test_core_block_spectrum():
    w = np.linalg.eigvalsh(build_core_block(CoreBlockParams()))
    assert abs(w[0]) < 1e-12
    assert w[1] - w[0] == pytest.approx(0.126, abs=1e-3)
    assert w[-1] - w[0] == pytest.approx(4.38, abs=1e-2)


def test_core_block_printed_constants_ground_energy():
    w = np.linalg.eigvalsh(build_core_block(CoreBlockParams.printed()))
    assert abs(w[0]) < 1e-7


def test_partial_ground_state_scalar():
    pgs = partial_ground_states(build_core_block(None))
    assert pgs[0].shape == (1,) and pgs[0][0] == 1.0


def test_partial_ground_state_seven_matches_closed_form():
    p = CoreBlockParams()
    pgs = partial_ground_states(build_core_block(p))
    ref = np.zeros(7)
    ref[0], ref[1] = -p.c, p.b
    ref /= np.linalg.norm(ref)
    if ref[np.argmax(np.abs(ref))] < 0:
        ref = -ref
    assert np.abs(pgs[6] - ref).max() < 1e-10


def test_full_ground_state_matches_printed_vector():
    pgs = partial_ground_states(build_core_block(None))
    g = pgs[7]
    if g[7] < 0:
        g = -g
    assert np.abs(g - PRINTED_PSI0).max() < 2e-3


def test_partial_ground_states_span_first_two_entries_only():
    pgs = partial_ground_states(build_core_block(None))
    for i in range(2, 7):
        assert np.abs(pgs[i][2:]).max() < 1e-12


def test_stall_numerators_vanish():
    h = build_core_block(None)
    pgs = partial_ground_states(h)
    for i in range(3, 8):
        full = np.zeros(8)
        full[:i] = pgs[i - 1]
        assert abs(h[i] @ full) < 1e-12


def test_level_crossing_eta_one_is_core_spectrum():
    table = level_crossing_sweep(None, [1.0])
    w = np.linalg.eigvalsh(build_core_block(None))
    assert np.abs(table[0] - w) .max() < 1e-12


def test_level_crossing_location():
    etas = np.linspace(0.6, 1.0, 801)
    table = level_crossing_sweep(None, etas)
    gaps = table[:, 1] - table[:, 0]
    eta_star = etas[np.argmin(gaps)]
    assert 0.75 < eta_star < 0.85


def test_level_crossing_eta_zero_block_union():
    table = level_crossing_sweep(None, [0.0])
    h = build_core_block(None)
    h[6, 7] = h[7, 6] = 0.0
    union = np.sort(np.concatenate([np.linalg.eigvalsh(h[:7, :7]), [h[7, 7]]]))
    assert np.abs(table[0] - union).max() < 1e-12


# -- warmup patch ------------------------------------------------------------


def test_warmup_patch_dense_verification():
    pr = build_warmup_patch([0, 1, 2, 3], CoreBlockParams(), 1.0, 0.01, 4)
    dense = kron_dense(PauliSum(pr.terms, 4))
    w, v = np.linalg.eigh(dense)
    assert abs(w[0]) < 1e-8
    assert w[0] > -1e-12  # p.s.d.
    psi = np.zeros(16, dtype=complex)
    for b, a in zip(pr.support_bits, pr.amplitudes):
        psi[b] = a
    assert np.linalg.norm(dense @ psi) < 1e-8


def test_warmup_patch_degenerate_without_m2():
    # below m1 = 1 the zero eigenvalue is exactly doubly degenerate
    pr = build_warmup_patch([0, 1, 2, 3], CoreBlockParams(), 0.5, 0.0, 4)
    w = np.linalg.eigvalsh(kron_dense(PauliSum(pr.terms, 4)))
    assert abs(w[0]) < 1e-12 and abs(w[1]) < 1e-12 and w[2] > 1e-3


def test_warmup_patch_all_eigenvalues_nonnegative():
    pr = build_warmup_patch([0, 1, 2, 3], CoreBlockParams(), 1.0, 0.01, 4)
    w = np.linalg.eigvalsh(kron_dense(PauliSum(pr.terms, 4)))
    assert w.min() > -1e-12


def test_warmup_patch_rejects_bad_m1():
    with pytest.raises(ValueError):
        build_warmup_patch([0, 1, 2, 3], CoreBlockParams(), 1.5, 0.01, 4)


# -- main patch ---------------------------------------------------------------


def test_main_patch_s0_block_is_core_matrix():
    p = CoreBlockParams()
    pr = build_main_patch(list(range(16)), p, 0.1, 0.01, 16)
    h = PauliSum(pr.terms, 16)
    basis = unique_bits(np.array([int(b) for b in pr.support_bits], dtype=np.uint64))
    proj = project_fast(h, basis).toarray()
    assert np.abs(proj.real - build_core_block(p)).max() < 1e-10
    assert np.abs(proj.imag).max() < 1e-12


def test_main_patch_s0_s1_offdiagonal_blocks():
    p = CoreBlockParams()
    m1 = 0.1
    pr = build_main_patch(list(range(16)), p, m1, 0.01, 16)
    h = PauliSum(pr.terms, 16)
    s0 = [1 << (2 * i) for i in range(8)]
    s1 = [1 << (2 * i + 1) for i in range(8)]
    basis = unique_bits(np.array(s0 + s1, dtype=np.uint64))
    proj = project_fast(h, basis).toarray().real
    # basis is bit-sorted: position 2i -> index order interleaves; map indices
    order = np.argsort(np.array(s0 + s1, dtype=np.uint64))
    inv = np.empty(16, dtype=int)
    inv[order] = np.arange(16)
    block = proj[np.ix_(inv, inv)]  # rows/cols ordered as s0 + s1
    a = build_core_block(p)
    assert np.abs(block[8:, :8] - m1 * a).max() < 1e-10
    assert np.abs(block[:8, 8:] - m1 * a).max() < 1e-10


def test_main_patch_certificate_energy_zero():
    pr = build_main_patch(list(range(16)), CoreBlockParams(), 0.1, 0.01, 16)
    h = PauliSum(pr.terms, 16)
    bits = np.array(pr.support_bits, dtype=np.uint64)
    order = np.argsort(bits)
    _, hv = apply_sum_to_vector(h, bits[order], pr.amplitudes[order])
    assert np.linalg.norm(hv) < 1e-10


@pytest.mark.slow
def test_main_patch_full_spectrum_psd_and_support():
    # 2^16 verification: lowest eigenvalue 0, kernel = vacuum + certificate
    pr = build_main_patch(list(range(16)), CoreBlockParams(), 0.1, 0.01, 16)
    h = PauliSum(pr.terms, 16)
    m = pauli_sum_to_sparse(h)
    w, v = spla.eigsh(m.real, k=4, which="SA")
    assert w[0] > -1e-9
    assert abs(w[0]) < 1e-7
    # the kernel away from the vacuum is spanned by the certificate state
    psi = np.zeros(1 << 16)
    for b, a in zip(pr.support_bits, pr.amplitudes):
        psi[b] = a
    assert np.linalg.norm(m @ psi) < 1e-10
    assert np.linalg.norm(m[:, 0].toarray()) < 1e-12  # decoupled vacuum


def test_main_patch_rejects_bad_path():
    with pytest.raises(ValueError):
        build_main_patch(list(range(15)), CoreBlockParams(), 0.1, 0.01, 16)


def test_warmup_interaction_matrix_published_eigenvalues():
    from sparsegs.builder import WARMUP_INT

    w = np.linalg.eigvalsh(WARMUP_INT)
    assert np.abs(w - [0.0, 0.02, 1.2879, 4.7521]).max() < 1e-3
    assert w[0] >= -1e-12
    vals, vecs = np.linalg.eigh(WARMUP_INT)
    assert abs(abs(vecs[0, 0]) - 1.0) < 1e-12  # |00> is the unique kernel vector


def test_main_interaction_matrix_psd_cnot_structure():
    from sparsegs.builder import MAIN_INT

    w = np.linalg.eigvalsh(MAIN_INT)
    assert np.abs(np.sort(w) - [0.0, 0.0, 0.01, 2.01]).max() < 1e-12


# -- global assembly ----------------------------------------------------------


def test_assemble_49q_shape_and_certificate():
    g = build_heavy_hex(3, 2)
    emb = embed_patches(g, 3, 16, seed=9)
    h, cert = assemble_global(g, emb, ConstructionParams())
    assert h.n_qubits == 49
    assert len(cert.support) == 512
    assert cert.patch_support_size == 8
    rep = verify_certificate(h, cert)
    assert rep.passed and rep.residual <= 1e-7 * h.coeff_one_norm()
    assert cert.initial_overlap_sq() == pytest.approx(
        (0.00030823365)**3, rel=1e-5
    )


@pytest.mark.parametrize(
    "layout, terms, groups",
    [("flagship", 366, 149), ("path16", 97, 41), ("path16-coupled", 120, 49)],
)
def test_x_mask_group_counts(layout, terms, groups):
    h, _ = layout_instance(layout)
    gx, starts = h.x_groups
    assert (len(h), gx.size) == (terms, groups)
    xm = h.mask_arrays[0]
    for g, x in enumerate(gx):  # each group is one contiguous run of its x-mask
        assert np.all(xm[starts[g] : starts[g + 1]] == x)


@pytest.mark.parametrize("layout", ["flagship", "path16-coupled"])
def test_bundle_hamiltonians_are_real(layout):
    # the builder's blocks are real symmetric matrices, so H is real
    h, _ = layout_instance(layout)
    assert h.dtype == np.float64
    y = PauliString.from_label("Y" + "I" * (h.n_qubits - 1))
    assert (h + PauliSum([(0.1, y)], h.n_qubits)).dtype == np.complex128


def test_single_patch_reduction_equals_patch_certificate():
    g = build_path(16)
    emb = PatchEmbedding((tuple(range(16)),), ())
    params = ConstructionParams(obfuscation_mask=0)  # no mask
    h, cert = assemble_global(g, emb, params, couple=False)
    pr = build_main_patch(list(range(16)), CoreBlockParams(), params.m1, params.m2, 16)
    assert h == PauliSum(pr.terms, 16)
    assert [c.bits for c in cert.support] == sorted(pr.support_bits)


def test_obfuscation_preserves_spectrum_and_maps_support():
    # small warmup instance so the dense oracle is cheap
    g = build_path(4)
    emb = PatchEmbedding(((0, 1, 2, 3),), ())
    base = ConstructionParams(mode="warmup", m1=1.0, obfuscation_mask=0)
    masked = ConstructionParams(mode="warmup", m1=1.0, obfuscation_mask=0b1011)
    h0, c0 = assemble_global(g, emb, base, couple=False)
    h1, c1 = assemble_global(g, emb, masked, couple=False)
    w0 = np.linalg.eigvalsh(kron_dense(h0))
    w1 = np.linalg.eigvalsh(kron_dense(h1))
    assert np.abs(w0 - w1).max() < 1e-10
    assert {c.bits for c in c1.support} == {c.bits ^ 0b1011 for c in c0.support}
    assert c1.initial_config.bits == c0.initial_config.bits ^ 0b1011


def test_warmup_12q_instance_certificate():
    g = build_heavy_hex(1, 1)
    emb = embed_patches(g, 2, 4, seed=0)
    h, cert = assemble_global(g, emb, ConstructionParams(mode="warmup", m1=1.0))
    assert h.n_qubits == 12
    assert len(cert.support) == 64
    assert verify_certificate(h, cert).passed


def test_verify_rejects_perturbed_certificate(patch_instance):
    h, cert = patch_instance
    amps = cert.amplitudes.copy()
    amps[0] += 1e-3
    amps /= np.linalg.norm(amps)
    broken = GroundStateCertificate(
        energy=cert.energy,
        support=cert.support,
        amplitudes=amps,
        initial_config=cert.initial_config,
        patch_support_size=cert.patch_support_size,
        n_qubits=cert.n_qubits,
    )
    rep = verify_certificate(h, broken)
    assert not rep.passed and rep.residual > rep.tolerance


def test_variational_floor_on_generated_instances(patch_instance):
    # H - E0 is p.s.d. by construction; check the dense bound on the warmup
    g = build_path(4)
    emb = PatchEmbedding(((0, 1, 2, 3),), ())
    h, cert = assemble_global(g, emb, ConstructionParams(mode="warmup", m1=1.0), couple=False)
    w = np.linalg.eigvalsh(kron_dense(h))
    assert w.min() > -1e-9


def test_bundle_round_trip_and_determinism(tmp_path):
    g = build_path(16)
    emb = PatchEmbedding((tuple(range(16)),), ())
    params = ConstructionParams(obfuscation_seed=3)
    h, cert = assemble_global(g, emb, params, couple=False)
    d1 = save_bundle(tmp_path / "a", h, cert, {"k": 1})
    d2 = save_bundle(tmp_path / "b", h, cert, {"k": 1})
    assert d1 == d2
    for name in ("hamiltonian.json", "certificate.json", "metadata.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    h2, cert2, meta = load_bundle(tmp_path / "a")
    assert h2 == h
    assert [c.bits for c in cert2.support] == [c.bits for c in cert.support]
    assert meta["instance_hash"] == d1


def test_construction_params_validation():
    with pytest.raises(ValueError):
        ConstructionParams(m1=1.2)
    with pytest.raises(ValueError):
        ConstructionParams(m2=-0.1)
    with pytest.raises(ValueError):
        ConstructionParams(mode="other")
