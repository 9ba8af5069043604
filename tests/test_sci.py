import tracemalloc

import numpy as np
import pytest
import scipy.linalg

import sparsegs.eigensolver as eigensolver
import sparsegs.paulis as paulis
import sparsegs.sci as sci
import sparsegs.subspace as subspace
from conftest import (flagship_ball, grouped_pauli_sum, kron_dense, layout_instance,
                      random_pauli_sum, support_covered, without_odd_y)
from oracles import matrix_element, net_element_numerators
from sparsegs.builder import CoreBlockParams, build_core_block
from sparsegs.paulis import (
    Configuration,
    PauliString,
    PauliSum,
    apply_sum_to_vector,
    decompose_dense_block,
    diagonal_element,
    index_in,
)
from sparsegs.sci import (
    SciParams,
    TrimParams,
    run_sci,
    select_asci,
    select_threshold,
    select_trimci,
)
from sparsegs.subspace import connected_bits
from sparsegs.trace import BudgetExceeded, SolverTrace


def core_block_as_pauli_sum():
    return decompose_dense_block(build_core_block(CoreBlockParams()), [0, 1, 2], 3)


def bits(*xs):
    return np.array(xs, dtype=np.uint64)


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
        # the stalled basis is the last row's and is not solved again
        assert eig.value == trace.rows[-1].energy
        assert trace.total_flops == trace.rows[-1].flops
        support_found = support_covered(basis, cert)
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


@pytest.mark.parametrize("p, final", [
    # grows past DENSE_CAP to 1,441, where the certified state (E = 0) appears
    (SciParams("cipsi", epsilon=1e-9, max_iters=8), 0.0),
    (SciParams("asci", d_cap=600, core_cap=150, max_iters=8), 0.126),  # 397 to 484 on ARPACK
], ids=["cipsi", "asci"])
def test_each_solve_reuses_the_previous_projection(p, final, monkeypatch):
    # each projection of the run updates the one before it, and a run whose
    # solver never reuses (every solve one-shot) selects the same bases and
    # reports the same rows, bit for bit
    h, cert = layout_instance("path16-coupled")

    def run():
        projected = []
        real = eigensolver.project_fast
        monkeypatch.setattr(eigensolver, "project_fast",
                            lambda h, b, prev=None: projected.append((b, prev)) or real(h, b, prev))
        eig, trace, _ = run_sci(h, cert.initial_config, p)
        monkeypatch.undo()
        return eig, trace, projected

    class OneShot(eigensolver.BasisSolver):
        def solve(self, bits):
            return eigensolver.BasisSolver(self.h, self.trace).solve(bits)

    eig, trace, warm = run()
    monkeypatch.setattr(sci, "BasisSolver", OneShot)
    cold_eig, cold_trace, cold = run()
    assert max(b.size for b, _ in warm) > eigensolver.DENSE_CAP
    assert [prev is None for _, prev in warm] == [True] + [False] * (len(warm) - 1)
    assert all(np.array_equal(prev[0], b) for (b, _), (_, prev) in zip(warm, warm[1:]))
    assert all(prev is None for _, prev in cold)
    assert len(warm) == len(cold)
    assert all(np.array_equal(w, c) for (w, _), (c, _) in zip(warm, cold))
    rows = lambda t: [(r.iteration, r.subspace_dim, r.energy, r.flops) for r in t.rows]
    assert rows(trace) == rows(cold_trace)
    assert eig.value == cold_eig.value == pytest.approx(final, abs=1e-3)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ARPACK's k=1 solve can return an excited state as converged "
                          "(ROADMAP item 8); the fix removes this marker")
@pytest.mark.parametrize("p", [
    SciParams("cipsi", epsilon=1e-9, max_iters=8),  # misses at dimension 854
    SciParams("cipsi", epsilon=1e-10, max_iters=8),  # at 1,013
    SciParams("hci", epsilon=1e-7, max_iters=8),  # at 615
], ids=["cipsi-1e-9", "cipsi-1e-10", "hci-1e-7"])
def test_every_solve_is_the_lowest_eigenpair(p, monkeypatch):
    # every eigensolve of the run agrees with dense eigh of its projection
    h, cert = layout_instance("path16-coupled")
    solves = []
    real = eigensolver.lowest_eigenpair

    def checked(m):
        eig = real(m)
        want = scipy.linalg.eigh(m.toarray(), eigvals_only=True, subset_by_index=[0, 0])[0]
        solves.append((m.shape[0], eig.value, want))
        return eig

    monkeypatch.setattr(eigensolver, "lowest_eigenpair", checked)
    run_sci(h, cert.initial_config, p)
    assert max(dim for dim, _, _ in solves) > eigensolver.DENSE_CAP
    assert [dim for dim, got, want in solves if abs(got - want) > 1e-8] == []


@pytest.mark.parametrize("p, heat_bath", [
    (SciParams("cipsi", epsilon=1e-6, max_iters=5), False),
    (SciParams("hci", epsilon=1e-6, max_iters=5), True),
    (SciParams("asci", d_cap=300, core_cap=100, max_iters=5), False),
    (SciParams("trimci", epsilon=1e-6, max_iters=4,
               trim=TrimParams(2, 40, first_phase="cipsi")), False),
    (SciParams("trimci", epsilon=1e-6, max_iters=4,
               trim=TrimParams(2, 40, first_phase="hci")), True),
], ids=["cipsi", "hci", "asci", "trimci-cipsi", "trimci-hci"])
def test_each_iteration_walks_the_core_images_once(p, heat_bath, monkeypatch):
    # one walk of the nonzero (group, member) pairs per iteration, over the
    # core; the candidates, the CIPSI numerators and the HCI maxima all come
    # from it, so neither expansion kernel, the action nor a second walk is
    # called
    h, cert = layout_instance("path16-coupled")
    walked, rules = [], set()
    real, real_scores = sci._nonzero_images, sci._scores
    monkeypatch.setattr(sci, "_nonzero_images",
                        lambda h, b, *a: walked.append(b.size) or real(h, b, *a))
    monkeypatch.setattr(sci, "_scores", lambda rule, *a: rules.add(rule) or real_scores(rule, *a))

    def second_walk(*args):
        raise AssertionError("SCI walked the core's images again")

    for mod in (paulis, subspace, sci, eigensolver):
        for name in ("connected_bits", "apply_sum_to_vector", "image_index", "fold_images"):
            monkeypatch.setattr(mod, name, second_walk, raising=False)
    _, trace, _ = run_sci(h, cert.initial_config, p)
    assert len(trace.rows) > 1
    cores = [min(r.subspace_dim, p.core_cap or r.subspace_dim) for r in trace.rows]
    assert walked == cores
    assert (rules == {"hci"}) if heat_bath else ("hci" not in rules)


@pytest.mark.parametrize("eps", [1e-6, 1e-7])
@pytest.mark.parametrize("layout, iters", [("path16", 30), ("path16-coupled", 30),
                                           ("flagship", 6)])
def test_hci_screening_keeps_every_basis(layout, iters, eps, monkeypatch):
    # HCI skips the pairs with W_g |c_i| <= eps; every iteration's basis
    # (HCI's core is the whole basis), its flops and the final basis equal
    # a run's that walks every nonzero pair, and the screen does skip pairs
    h, cert = layout_instance(layout)
    real_scores, real_walk = sci._scores, sci._nonzero_images

    def run(screened):
        bases, pairs = [], []

        def scores(rule, h, core, amps, e0, trace, screen=None):
            bases.append(core)
            return real_scores(rule, h, core, amps, e0, trace, screen if screened else None)

        def walk(*args):
            for group in real_walk(*args):
                pairs.append(group[0].size)
                yield group

        monkeypatch.setattr(sci, "_scores", scores)
        monkeypatch.setattr(sci, "_nonzero_images", walk)
        eig, trace, basis = run_sci(h, cert.initial_config,
                                    SciParams("hci", epsilon=eps, max_iters=iters))
        rows = [(r.subspace_dim, r.flops) for r in trace.rows]
        return eig.value, rows, bases + [basis], sum(pairs)

    e_screened, rows_screened, screened, walked = run(True)
    e_all, rows_all, every, walked_all = run(False)
    assert rows_screened == rows_all
    assert len(screened) == len(every)
    assert all(np.array_equal(a, b) for a, b in zip(screened, every))
    assert e_screened == e_all
    assert walked < walked_all


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
        found = {int(b) for b in basis}
        assert found & {3, 4, 5, 6, 7} == set()
        assert trace.status == "stalled"


# -- scoring and selection ------------------------------------------------------


def scored(rule, h, core, amps, e0=None):
    """(candidates, scores) of a core by the CIPSI-form or HCI-form rule."""
    return sci._scores(rule, h, core, np.asarray(amps), e0, SolverTrace("t"))


@pytest.mark.parametrize("diagonal", [True, False], ids=["with-x0", "no-x0"])
@pytest.mark.parametrize("seed", range(4))
def test_one_pass_scores_match_oracles(seed, diagonal):
    # exact cancellations and complex amplitudes; core member 2 is left at
    # exactly zero, and without the x = 0 group no image is a core member
    # by its own group.  Scaled by 0.7, a net element's product rounds
    # apart from the sum of its terms' products, which the action folds;
    # without odd-Y terms and with real amplitudes, the sums are real
    rng = np.random.default_rng(300 + seed)
    n = 5
    h = PauliSum([(c, s) for c, s in grouped_pauli_sum(rng, n, 5, 4).terms if s.x_mask], n)
    if diagonal:
        h = h + PauliSum([(float(rng.choice([-1.0, -0.5, 0.5, 1.0])), PauliString(0, int(z), n))
                          for z in rng.choice(1 << n, size=4, replace=False)], n)
    assert (h.x_groups[0][0] == 0) == diagonal
    core = np.sort(rng.choice(1 << n, size=6, replace=False)).astype(np.uint64)
    amps = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    amps[2] = 0
    e0 = -0.3
    scaled = h.scaled(0.7)
    for h, amps in ((h, amps), (scaled, amps), (without_odd_y(scaled), amps.real)):
        want_cands = connected_bits(h, core)
        assert want_cands.size
        num = np.abs(net_element_numerators(h, core, amps, want_cands))
        hb, ha = apply_sum_to_vector(h, core, amps)
        at = index_in(hb, want_cands)
        action = np.where(at >= 0, np.abs(ha[at]), 0.0)
        den = np.abs(diagonal_element(h, want_cands) - e0)
        config = lambda b: Configuration(int(b), n)
        heat = [max(abs(matrix_element(h, config(x), config(b)) * a) for b, a in zip(core, amps))
                for x in want_cands]
        for rule, want, flops in (("cipsi", num / den, (2 * core.size + want_cands.size) * len(h)),
                                  ("hci", heat, 2 * core.size * len(h))):
            trace = SolverTrace("t")
            cands, scores = sci._scores(rule, h, core, amps, e0, trace)
            assert np.array_equal(cands, want_cands)
            if rule == "cipsi":
                assert np.array_equal(scores, want)  # net elements summed by group, bit for bit
                assert np.abs(scores - action / den).max() <= 1e-13 * np.abs(scores).max()
            else:
                assert np.abs(scores - want).max() < 1e-13
            assert trace.flops == flops
    # a core closed under H has no candidates, and scoring is uncounted
    closed = np.arange(1 << n, dtype=np.uint64)
    for rule in ("cipsi", "hci"):
        trace = SolverTrace("t")
        cands, scores = sci._scores(rule, h, closed, np.ones(closed.size), e0, trace)
        assert cands.size == scores.size == 0 and cands.dtype == np.uint64
        assert trace.flops == closed.size * len(h)


@pytest.mark.parametrize("rule", ["cipsi", "hci"])
def test_scoring_holds_under_two_arrays_of_all_images(rule):
    # a seeded 1,000-member core from the flagship's depth-4 ball: about one
    # (group, member) pair in seven has a nonzero net element, so the walk
    # and its index stay below two (groups x members) arrays of 8 bytes,
    # where indexing every image took more than five
    h, _ = layout_instance("flagship")
    rng = np.random.default_rng(11)
    core = np.sort(rng.choice(flagship_ball(4), size=1000, replace=False))
    amps = rng.standard_normal(core.size)
    amps /= np.linalg.norm(amps)
    scored(rule, h, core, amps, 0.3)  # warm: first-call allocations are not the step's
    tracemalloc.start()
    cands, scores = scored(rule, h, core, amps, 0.3)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert cands.size > core.size
    assert peak < 2 * len(h.x_groups[0]) * core.size * 8


def test_select_cipsi_rejects_zero_numerator():
    h = core_block_as_pauli_sum()
    # state supported on (e0, e1) along the exact 2x2 ground direction has
    # zero net element to |2>
    p = CoreBlockParams()
    amp = np.array([-p.c, p.b])
    amp /= np.linalg.norm(amp)
    cands, scores = scored("cipsi", h, bits(0, 1), amp, 0.1261663)
    assert 2 in cands
    for eps in (1e-12, 1e-6, 1e-2):
        kept = select_threshold(cands, scores, bits(0, 1), eps)
        assert 2 not in kept
        assert 0 in kept and 1 in kept


def test_select_cipsi_zero_threshold_keeps_all_connected():
    h = core_block_as_pauli_sum()
    e00 = float(matrix_element(h, Configuration(0, 3), Configuration(0, 3)).real)
    cands, scores = scored("cipsi", h, bits(0), np.ones(1), e00)
    assert np.array_equal(cands, connected_bits(h, bits(0)))
    kept = select_threshold(cands, scores, bits(0), 0.0)
    assert np.isin(cands, kept).all()  # the documented full-CI limit


def test_select_cipsi_hand_computed_three_qubits():
    h = core_block_as_pauli_sum()
    dense = build_core_block(CoreBlockParams())
    e0 = dense[0, 0]
    cands, scores = scored("cipsi", h, bits(0), np.ones(1), e0)
    # by hand: |1> has score |1 / (a - (a+1/2))| = 2, |2> has |b / (a+2 - (a+1/2))| = |b|/1.5
    want = {
        1: abs(dense[1, 0] / (dense[1, 1] - e0)),
        2: abs(dense[2, 0] / (dense[2, 2] - e0)),
    }
    assert dict(zip(cands.tolist(), scores)) == pytest.approx(want, abs=1e-12)
    eps = 0.53  # between the two hand-computed scores
    assert want[2] < eps < want[1]
    kept = select_threshold(cands, scores, bits(0), eps)
    assert 1 in kept
    assert 2 not in kept


def test_select_hci_zero_amplitude_core_rejected():
    h = core_block_as_pauli_sum()
    # the member |1> stays in the core at amplitude exactly zero: |2>
    # couples to |0> (element b) and |1> (element c); with c_0 = 1 the max
    # is |b| so it IS kept
    cands, scores = scored("hci", h, bits(0, 1), np.array([1.0, 0.0]))
    assert 2 in select_threshold(cands, scores, bits(0, 1), 1e-10)
    # <3|H|1> = 0, so nothing drives |3> from a core of |1> alone
    cands, scores = scored("hci", h, bits(1), np.ones(1))
    assert 3 not in select_threshold(cands, scores, bits(1), 1e-10)
    # what only a zero-amplitude member drives scores exactly zero and is
    # rejected even at threshold zero
    h = random_pauli_sum(np.random.default_rng(0), 4, 8)
    cands, scores = scored("hci", h, bits(0, 5), np.array([1.0, 0.0]))
    kept = select_threshold(cands, scores, bits(0, 5), 0.0)
    driven = np.array([matrix_element(h, Configuration(x, 4), Configuration(0, 4)) != 0
                       for x in cands.tolist()])
    assert not driven.all()
    assert np.array_equal(kept, np.union1d(bits(0, 5), cands[driven]))


def test_select_hci_matches_brute_force():
    rng = np.random.default_rng(8)
    h = random_pauli_sum(rng, 3, 8)
    dense = kron_dense(h)
    amps = rng.standard_normal(4)
    amps /= np.linalg.norm(amps)
    core_bits = [0, 3, 5, 6]
    eps = 0.2
    cands, scores = scored("hci", h, bits(*core_bits), amps)
    kept = select_threshold(cands, scores, bits(*core_bits), eps)
    for cand in (1, 2, 4, 7):
        brute = max(
            abs(dense[cand, b] * a) for b, a in zip(core_bits, amps)
        )
        assert (cand in kept) == (brute > eps)


def test_select_asci_keeps_everything_with_large_cap():
    rng = np.random.default_rng(9)
    h = random_pauli_sum(rng, 4, 8)
    amps = np.array([0.8, 0.6])
    cands, scores = scored("cipsi", h, bits(0, 1), amps, 0.0)
    assert cands.size >= 3
    kept = select_asci(cands, scores, bits(0, 1), amps, 100)
    assert np.array_equal(kept, np.union1d(bits(0, 1), cands))


def test_select_asci_magnitude_order():
    h = core_block_as_pauli_sum()
    # candidate |1> gets a first-order estimate well below 0.9
    cands, scores = scored("cipsi", h, bits(0), np.array([0.9]), 2.0)
    assert 1 in cands and scores.max() < 0.9
    kept = select_asci(cands, scores, bits(0), np.array([0.9]), 1)
    assert np.array_equal(kept, bits(0))


def test_select_asci_matches_brute_force_ranking():
    rng = np.random.default_rng(10)
    h = random_pauli_sum(rng, 4, 10)
    dense = kron_dense(h)
    core_bits = [0, 5]
    amps = np.array([0.6, -0.8])
    e0 = -1.3
    d = 5
    cands, cand_scores = scored("cipsi", h, bits(*core_bits), amps, e0)
    kept = select_asci(cands, cand_scores, bits(*core_bits), amps, d)
    scores = {}
    for b in core_bits:
        scores[b] = abs(dict(zip(core_bits, amps))[b])
    for b in sorted(set(range(16)) - set(core_bits)):
        num = sum(dense[b, cb] * a for cb, a in zip(core_bits, amps))
        den = dense[b, b].real - e0
        scores[b] = abs(num / den) if abs(den) > 1e-12 else np.inf
    want = sorted(scores, key=lambda b: (-scores[b], b))[:d]
    assert min(scores[b] for b in want) > 1e-12  # no ranking among zero scores
    assert set(kept.tolist()) == set(want)


def test_select_trimci_degenerate_partition_is_global_keep_all():
    rng = np.random.default_rng(11)
    h = random_pauli_sum(rng, 4, 10)
    amps = np.array([0.7, 0.5, 0.5091])
    amps /= np.linalg.norm(amps)
    cands, scores = scored("cipsi", h, bits(0, 1, 2), amps, -0.5)
    trim = TrimParams(n_subsets=1, keep_per_subset=1 << 4, seed=0)
    kept = select_trimci(cands, scores, bits(0, 1, 2), h, 0.0, trim, SolverTrace("t"))
    assert set(kept.tolist()) == set(cands.tolist()) | {0, 1, 2}


def test_select_trimci_reproducible():
    rng = np.random.default_rng(12)
    h = random_pauli_sum(rng, 5, 12)
    amps = np.array([0.8, -0.6])
    cands, scores = scored("cipsi", h, bits(0, 1), amps, -1.0)
    trim = TrimParams(n_subsets=3, keep_per_subset=2, seed=21)
    a = select_trimci(cands, scores, bits(0, 1), h, 1e-8, trim, SolverTrace("t"))
    b = select_trimci(cands, scores, bits(0, 1), h, 1e-8, trim, SolverTrace("t"))
    assert np.array_equal(a, b)


def test_select_trimci_against_independent_reimplementation():
    # step-by-step oracle with explicit dense subspace diagonalizations
    rng = np.random.default_rng(13)
    n = 6
    h = random_pauli_sum(rng, n, 12)
    dense = kron_dense(h)
    core_bits = [0, 3, 9, 17]
    amps = rng.standard_normal(len(core_bits))
    amps /= np.linalg.norm(amps)
    e0 = -0.7
    eps = 1e-3
    cands, scores = scored("cipsi", h, bits(*core_bits), amps, e0)
    trim = TrimParams(n_subsets=2, keep_per_subset=3, seed=5)
    got = select_trimci(cands, scores, bits(*core_bits), h, eps, trim, SolverTrace("t"))

    # oracle
    amp_map = dict(zip(core_bits, amps))
    filtered = []
    for c in connected_bits(h, bits(*core_bits)).tolist():
        num = sum(dense[c, b] * a for b, a in amp_map.items())
        den = dense[c, c].real - e0
        score = np.inf if abs(den) < 1e-12 else abs(num / den)
        if score > eps:
            filtered.append(c)
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
    assert set(got.tolist()) == want


def test_trimci_dynamic_epsilon_targets_count():
    rng = np.random.default_rng(14)
    h = random_pauli_sum(rng, 6, 20)
    core_bits = list(range(8))
    amps = rng.standard_normal(8)
    amps /= np.linalg.norm(amps)
    cands, scores = scored("cipsi", h, bits(*core_bits), amps, -1.0)
    trim = TrimParams(n_subsets=2, keep_per_subset=20, expansion_factor=3.0, seed=1)
    kept = select_trimci(cands, scores, bits(*core_bits), h, 0.0, trim, SolverTrace("t"))
    assert kept.size  # smoke: the bisection found a workable threshold


def test_trimci_target_counts_zero_amplitude_core_members():
    # F * |core| counts every core member, also one the eigenvector left
    # at exactly zero; one subset keeping everything exposes the count
    rng = np.random.default_rng(15)
    h = random_pauli_sum(rng, 6, 20)
    core = bits(0, 1, 2, 3)
    amps = np.array([0.6, 0.0, -0.5, 0.4])
    cands, scores = scored("cipsi", h, core, amps, -1.0)
    assert cands.size > 8
    trim = TrimParams(n_subsets=1, keep_per_subset=1 << 6, expansion_factor=3.0, seed=2)
    with pytest.warns(UserWarning, match="keeping all members"):
        kept = select_trimci(cands, scores, core, h, 0.0, trim, SolverTrace("t"))
    assert kept.size == 3.0 * core.size


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
    rng = np.random.default_rng(15)
    h = random_pauli_sum(rng, 8, 30)
    with pytest.raises(BudgetExceeded):
        run_sci(h, Configuration(0, 8), SciParams("cipsi", epsilon=0.0, max_iters=10, dim_cap=16))


def test_trimci_subset_solves_obey_dim_cap():
    # the basis never holds more than keep_per_subset = 2 configurations,
    # but the one subset, the whole first pool, crosses the cap of 3
    h = random_pauli_sum(np.random.default_rng(12), 5, 12)
    trim = TrimParams(n_subsets=1, keep_per_subset=2, seed=0)
    p = SciParams("trimci", trim=trim, max_iters=3, dim_cap=3)
    with pytest.raises(BudgetExceeded, match=r"^basis of \d+ exceeds cap 3$"):
        run_sci(h, Configuration(0, 5), p)
