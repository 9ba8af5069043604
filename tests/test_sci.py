import numpy as np
import pytest

from conftest import grouped_pauli_sum, kron_dense, random_pauli_sum
from sparsegs.builder import CoreBlockParams, build_core_block
from sparsegs.paulis import (
    Configuration,
    PauliSum,
    SparseVector,
    decompose_dense_block,
    matrix_element,
)
from sparsegs.sci import (
    SciParams,
    _hci_scores,
    TrimParams,
    run_sci,
    select_asci,
    select_cipsi,
    select_hci,
    select_trimci,
)
from sparsegs.subspace import connected_configurations
from sparsegs.trace import FlopCounter


def core_block_as_pauli_sum():
    return decompose_dense_block(build_core_block(CoreBlockParams()), [0, 1, 2], 3)


# -- run_sci ------------------------------------------------------------------


def test_cipsi_stalls_on_patch(patch_instance):
    # below ~1e-15 the eigensolver's floating-point noise exceeds the
    # threshold and selection admits noise configurations, so the sweep
    # floor sits at 1e-14 (the acceptance range)
    h, cert = patch_instance
    for eps in np.geomspace(1e-14, 1e-4, 8):
        eig, trace, basis = run_sci(h, cert.initial_config, SciParams("cipsi", epsilon=eps))
        assert eig.value > 0.1
        assert trace.status == "stalled"
        support_found = sum(1 for c in cert.support if basis.address(c) >= 0)
        assert support_found < 8  # never exhausts the support


def test_run_sci_counts_flops(patch_instance):
    h, cert = patch_instance
    for p in (SciParams("cipsi", epsilon=1e-6, max_iters=4),
              SciParams("asci", d_cap=8, core_cap=4, max_iters=4)):
        _, trace, _ = run_sci(h, cert.initial_config, p)
        flops = [r.flops for r in trace.rows]
        assert trace.total_flops > 0
        assert flops[0] > 0 and all(b >= a for a, b in zip(flops, flops[1:]))
        assert trace.total_flops >= flops[-1]


def test_cipsi_infinite_threshold_stops_at_reference(patch_instance):
    h, cert = patch_instance
    eig, trace, basis = run_sci(h, cert.initial_config,
                                SciParams("cipsi", epsilon=np.inf, max_iters=5))
    x0 = cert.initial_config
    assert len(basis) == 1
    assert eig.value == pytest.approx(matrix_element(h, x0, x0).real, abs=1e-12)
    assert len(trace.rows) == 1


def test_asci_unbounded_reduces_to_full_ci():
    rng = np.random.default_rng(5)
    h = random_pauli_sum(rng, 6, 14)
    dense_e0 = np.linalg.eigvalsh(kron_dense(h))[0]
    p = SciParams("asci", d_cap=64, core_cap=63, max_iters=20)
    eig, trace, basis = run_sci(h, Configuration(0, 6), p)
    assert eig.value == pytest.approx(dense_e0, abs=1e-10)


def test_cipsi_hci_monotone_when_core_uncapped():
    rng = np.random.default_rng(6)
    h = random_pauli_sum(rng, 5, 12)
    for variant in ("cipsi", "hci"):
        p = SciParams(variant, epsilon=1e-3, max_iters=12)
        eig, trace, basis = run_sci(h, Configuration(0, 5), p)
        energies = [r.energy for r in trace.rows]
        assert all(b <= a + 1e-10 for a, b in zip(energies, energies[1:]))


def test_sci_energies_variational_against_dense():
    rng = np.random.default_rng(7)
    for seed in range(4):
        h = random_pauli_sum(np.random.default_rng(seed), 5, 10)
        e0 = np.linalg.eigvalsh(kron_dense(h))[0]
        for p in (
            SciParams("cipsi", epsilon=1e-4, max_iters=8),
            SciParams("hci", epsilon=1e-4, max_iters=8),
            SciParams("asci", d_cap=12, core_cap=6, max_iters=8),
        ):
            eig, trace, _ = run_sci(h, Configuration(0, 5), p)
            assert eig.value >= e0 - 1e-9
            assert all(r.energy >= e0 - 1e-9 for r in trace.rows)


def test_cipsi_max_dimension_saturates_as_epsilon_shrinks(patch_instance):
    h, cert = patch_instance
    dims = []
    for eps in np.geomspace(1e-14, 1e-5, 6):
        _, trace, basis = run_sci(h, cert.initial_config, SciParams("cipsi", epsilon=eps))
        dims.append(len(basis))
    assert len(set(dims[:3])) == 1  # shrinking the threshold stops helping


def test_stall_theorem_on_bare_core_block():
    # CIPSI from {e0} never selects configurations 3..7 for any eps > 0
    h = core_block_as_pauli_sum()
    for eps in np.geomspace(1e-12, 1e-3, 20):
        eig, trace, basis = run_sci(h, Configuration(0, 3), SciParams("cipsi", epsilon=eps))
        found = {int(b) for b in basis.bits}
        assert found & {3, 4, 5, 6, 7} == set()
        assert trace.status == "stalled"


# -- selection functions ------------------------------------------------------


def test_select_cipsi_rejects_zero_numerator():
    h = core_block_as_pauli_sum()
    # state supported on (e0, e1) along the exact 2x2 ground direction has
    # zero net element to |2>
    p = CoreBlockParams()
    amp = np.array([-p.c, p.b])
    amp /= np.linalg.norm(amp)
    psi = SparseVector([0, 1], amp, 3)
    cands = {Configuration(2, 3)}
    for eps in (1e-12, 1e-6, 1e-2):
        kept = select_cipsi(cands, psi, 0.1261663, h, eps)
        assert Configuration(2, 3) not in kept
        assert Configuration(0, 3) in kept and Configuration(1, 3) in kept


def test_select_cipsi_zero_threshold_keeps_all_connected():
    h = core_block_as_pauli_sum()
    psi = SparseVector([0], [1.0], 3)
    cands = connected_configurations(h, {Configuration(0, 3)})
    kept = select_cipsi(cands, psi, float(matrix_element(h, Configuration(0, 3), Configuration(0, 3)).real), h, 0.0)
    assert cands <= kept  # the documented full-CI limit


def test_select_cipsi_hand_computed_three_qubits():
    h = core_block_as_pauli_sum()
    dense = build_core_block(CoreBlockParams())
    psi = SparseVector([0], [1.0], 3)
    e0 = dense[0, 0]
    cands = connected_configurations(h, {Configuration(0, 3)})
    # by hand: |1> has score |1 / (a - (a+1/2))| = 2, |2> has |b / (a+2 - (a+1/2))| = |b|/1.5
    scores = {
        1: abs(dense[1, 0] / (dense[1, 1] - e0)),
        2: abs(dense[2, 0] / (dense[2, 2] - e0)),
    }
    eps = 0.53  # between the two hand-computed scores
    assert scores[2] < eps < scores[1]
    kept = select_cipsi(cands, psi, e0, h, eps)
    assert Configuration(1, 3) in kept
    assert Configuration(2, 3) not in kept


def test_select_hci_zero_amplitude_core_rejected():
    h = core_block_as_pauli_sum()
    psi = SparseVector([0, 1], [1.0, 0.0], 3)  # amplitude on |1> is zero -> pruned
    kept = select_hci({Configuration(2, 3)}, psi, h, 1e-10)
    # |2> couples to |0> (element b) and |1> (element c); with c_0 = 1 the
    # max is |b| so it IS kept; now zero out the only coupled amplitude
    assert Configuration(2, 3) in kept
    psi0 = SparseVector([1], [1.0], 3)  # only |1| in core
    kept2 = select_hci({Configuration(3, 3)}, psi0, h, 1e-10)
    # <3|H|1> = 0, so nothing drives |3>
    assert Configuration(3, 3) not in kept2


def test_select_hci_matches_brute_force():
    rng = np.random.default_rng(8)
    h = random_pauli_sum(rng, 3, 8)
    dense = kron_dense(h)
    amps = rng.standard_normal(4)
    amps /= np.linalg.norm(amps)
    core_bits = [0, 3, 5, 6]
    psi = SparseVector(core_bits, amps, 3)
    cands = {Configuration(b, 3) for b in (1, 2, 4, 7)}
    eps = 0.2
    kept = select_hci(cands, psi, h, eps)
    for cand in cands:
        brute = max(
            abs(dense[cand.bits, b] * a) for b, a in zip(core_bits, psi.amps)
        )
        assert (cand in kept) == (brute > eps)


@pytest.mark.parametrize("seed", range(4))
def test_hci_scores_match_matrix_elements(seed):
    rng = np.random.default_rng(300 + seed)
    n = 5
    h = grouped_pauli_sum(rng, n, 5, 4)
    core = np.sort(rng.choice(1 << n, size=6, replace=False)).astype(np.uint64)
    amps = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    cands = np.setdiff1d(np.arange(1 << n, dtype=np.uint64), core)
    flops = FlopCounter()
    got = _hci_scores(h, core, amps, cands, flops)
    want = [
        max(abs(matrix_element(h, Configuration(int(x), n), Configuration(int(b), n)) * a)
            for b, a in zip(core, amps))
        for x in cands
    ]
    assert np.abs(got - want).max() < 1e-13
    assert flops.count == core.size * len(h)


def test_select_asci_keeps_everything_with_large_cap():
    rng = np.random.default_rng(9)
    h = random_pauli_sum(rng, 4, 8)
    psi = SparseVector([0, 1], [0.8, 0.6], 4)
    cands = {Configuration(b, 4) for b in (2, 3, 4)}
    kept = select_asci(cands, psi, 0.0, h, d_cap=100)
    assert kept == cands | {Configuration(0, 4), Configuration(1, 4)}


def test_select_asci_magnitude_order():
    h = core_block_as_pauli_sum()
    psi = SparseVector([0], [0.9], 3)
    # candidate |1> gets a first-order estimate well below 0.9
    kept = select_asci({Configuration(1, 3)}, psi, 2.0, h, d_cap=1)
    assert kept == {Configuration(0, 3)}


def test_select_asci_matches_brute_force_ranking():
    rng = np.random.default_rng(10)
    h = random_pauli_sum(rng, 4, 10)
    dense = kron_dense(h)
    core_bits = [0, 5]
    amps = np.array([0.6, -0.8])
    psi = SparseVector(core_bits, amps, 4)
    e0 = -1.3
    cands = sorted(set(range(16)) - set(core_bits))
    cand_cfgs = {Configuration(b, 4) for b in cands}
    d = 5
    kept = select_asci(cand_cfgs, psi, e0, h, d_cap=d)
    scores = {}
    for b in core_bits:
        scores[b] = abs(dict(zip(core_bits, amps))[b])
    for b in cands:
        num = sum(dense[b, cb] * a for cb, a in zip(core_bits, amps))
        den = dense[b, b].real - e0
        scores[b] = abs(num / den) if abs(den) > 1e-12 else np.inf
    want = sorted(scores, key=lambda b: (-scores[b], b))[:d]
    assert {c.bits for c in kept} == set(want)


def test_select_trimci_degenerate_partition_is_global_keep_all():
    rng = np.random.default_rng(11)
    h = random_pauli_sum(rng, 4, 10)
    psi = SparseVector([0, 1, 2], [0.7, 0.5, 0.5091], 4).normalized()
    cands = connected_configurations(h, {Configuration(b, 4) for b in (0, 1, 2)})
    trim = TrimParams(n_subsets=1, keep_per_subset=1 << 4, seed=0)
    kept = select_trimci(cands, psi, -0.5, h, 0.0, trim)
    assert kept == cands | {Configuration(b, 4) for b in (0, 1, 2)}


def test_select_trimci_reproducible():
    rng = np.random.default_rng(12)
    h = random_pauli_sum(rng, 5, 12)
    psi = SparseVector([0, 1], [0.8, -0.6], 5)
    cands = connected_configurations(h, {Configuration(0, 5), Configuration(1, 5)})
    trim = TrimParams(n_subsets=3, keep_per_subset=2, seed=21)
    a = select_trimci(cands, psi, -1.0, h, 1e-8, trim)
    b = select_trimci(cands, psi, -1.0, h, 1e-8, trim)
    assert a == b


def test_select_trimci_against_independent_reimplementation():
    # step-by-step oracle with explicit dense subspace diagonalizations
    rng = np.random.default_rng(13)
    n = 6
    h = random_pauli_sum(rng, n, 12)
    dense = kron_dense(h)
    core_bits = [0, 3, 9, 17]
    amps = rng.standard_normal(len(core_bits))
    amps /= np.linalg.norm(amps)
    psi = SparseVector(core_bits, amps, n)
    e0 = -0.7
    eps = 1e-3
    cands = connected_configurations(h, {Configuration(b, n) for b in core_bits})
    trim = TrimParams(n_subsets=2, keep_per_subset=3, seed=5)
    got = select_trimci(cands, psi, e0, h, eps, trim)

    # oracle
    amp_map = dict(zip(core_bits, amps))
    filtered = []
    for c in sorted(cands, key=lambda c: c.bits):
        num = sum(dense[c.bits, b] * a for b, a in amp_map.items())
        den = dense[c.bits, c.bits].real - e0
        score = np.inf if abs(den) < 1e-12 else abs(num / den)
        if score > eps:
            filtered.append(c.bits)
    pool = np.unique(np.array(sorted(set(core_bits) | set(filtered)), dtype=np.uint64))
    perm = np.random.default_rng(5).permutation(pool.size)
    subsets = np.array_split(pool[perm], 2)
    want = set()
    for sub in subsets:
        sub_sorted = np.sort(sub)
        block = dense[np.ix_(sub_sorted, sub_sorted)]
        vals, vecs = np.linalg.eigh(block)
        v = vecs[:, 0]
        order = np.lexsort((sub_sorted, -np.abs(v)))[:3]
        want.update(int(sub_sorted[i]) for i in order)
    assert {c.bits for c in got} == want


def test_trimci_dynamic_epsilon_targets_count():
    rng = np.random.default_rng(14)
    h = random_pauli_sum(rng, 6, 20)
    core_bits = list(range(8))
    amps = rng.standard_normal(8)
    amps /= np.linalg.norm(amps)
    psi = SparseVector(core_bits, amps, 6)
    cands = connected_configurations(h, {Configuration(b, 6) for b in core_bits})
    trim = TrimParams(n_subsets=2, keep_per_subset=20, expansion_factor=3.0, seed=1)
    kept = select_trimci(cands, psi, -1.0, h, 0.0, trim)
    assert kept  # smoke: the bisection found a workable threshold


def test_params_validation():
    with pytest.raises(ValueError):
        SciParams("nope")
    with pytest.raises(ValueError):
        SciParams("cipsi", epsilon=-1.0)
    with pytest.raises(ValueError):
        SciParams("asci")  # missing d_cap
    with pytest.raises(ValueError):
        SciParams("asci", d_cap=10, core_cap=10)
    with pytest.raises(ValueError):
        SciParams("trimci")
    with pytest.raises(ValueError):
        TrimParams(n_subsets=0, keep_per_subset=1)


def test_budget_guard():
    from sparsegs.trace import BudgetExceeded

    rng = np.random.default_rng(15)
    h = random_pauli_sum(rng, 8, 30)
    with pytest.raises(BudgetExceeded):
        run_sci(h, Configuration(0, 8), SciParams("cipsi", epsilon=0.0, max_iters=10, dim_cap=16))


def test_explicit_initial_set():
    rng = np.random.default_rng(16)
    h = random_pauli_sum(rng, 4, 8)
    start = [Configuration(0, 4), Configuration(5, 4), Configuration(9, 4)]
    eig, trace, basis = run_sci(h, start, SciParams("cipsi", epsilon=np.inf, max_iters=3))
    assert sorted(int(b) for b in basis.bits) == [0, 5, 9]
    want = np.linalg.eigvalsh(
        kron_dense(h)[np.ix_([0, 5, 9], [0, 5, 9])]
    )[0]
    assert eig.value == pytest.approx(want, abs=1e-12)
