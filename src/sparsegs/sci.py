"""Diagonalization-based sparse iterative solvers.

One generic loop drives four selection rules (CIPSI, HCI, ASCI, TrimCI).
Each iteration diagonalizes the current configuration basis, trims it to
the core by amplitude, expands one Hamiltonian step outward, and asks the
variant's selection function which candidates survive.  CIPSI and HCI
grow without bound and terminate when the basis stops changing; ASCI and
TrimCI hold the diagonalization dimension fixed.

The public selection functions speak configuration sets; the loop itself
runs on packed uint64 arrays so large pools avoid per-configuration
object churn.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass

import numpy as np

from .eigensolver import EigResult, lowest_eigenpair
from .paulis import Configuration, PauliSum, SparseVector, apply_sum_to_vector, diagonal_element
from .subspace import ConfigurationBasis, connected_bits, project_fast
from .trace import (
    DEFAULT_DIM_CAP,
    STATUS_MAX_ITERS,
    STATUS_STALLED,
    BudgetExceeded,
    SolverTrace,
)

DENOMINATOR_GUARD = 1e-12
VARIANTS = ("cipsi", "hci", "asci", "trimci")


@dataclass(frozen=True)
class TrimParams:
    """TrimCI knobs: F targets |core| + |filtered| = F * |core| via a
    dynamic threshold search; n_subsets and keep_per_subset fix the next
    basis size at n_subsets * keep_per_subset."""

    n_subsets: int
    keep_per_subset: int
    expansion_factor: float | None = None  # F; None means use the fixed epsilon
    seed: int = 0
    first_phase: str = "cipsi"  # or "hci"

    def __post_init__(self):
        if self.n_subsets < 1 or self.keep_per_subset < 1:
            raise ValueError("subset counts must be positive")
        if self.expansion_factor is not None and self.expansion_factor <= 1:
            raise ValueError("expansion factor must exceed 1")
        if self.first_phase not in ("cipsi", "hci"):
            raise ValueError("first_phase must be cipsi or hci")


@dataclass(frozen=True)
class SciParams:
    variant: str
    epsilon: float = 0.0
    d_cap: int | None = None
    core_cap: int | None = None
    max_iters: int = 30
    trim: TrimParams | None = None
    dim_cap: int = DEFAULT_DIM_CAP
    eig_seed: int = 0

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.epsilon < 0:
            raise ValueError("epsilon must be nonnegative")
        for cap in (self.d_cap, self.core_cap):
            if cap is not None and cap < 1:
                raise ValueError("caps must be >= 1 when finite")
        if self.variant == "asci":
            if self.d_cap is None:
                raise ValueError("ASCI requires d_cap")
            if self.core_cap is not None and self.core_cap >= self.d_cap:
                raise ValueError("ASCI requires core_cap < d_cap")
        if self.variant == "trimci" and self.trim is None:
            raise ValueError("TrimCI requires trim parameters")


def _sort_by_amplitude(bits: np.ndarray, amps: np.ndarray) -> np.ndarray:
    """Descending |amplitude|, ties broken by ascending bit value."""
    return np.lexsort((bits, -np.abs(amps)))


def _perturbative_scores(
    h: PauliSum, psi: SparseVector, e0: float, cand_bits: np.ndarray
) -> np.ndarray:
    """|<x|H|psi> / (<x|H|x> - e0)| for each candidate, with the small-
    denominator guard mapping near-zero gaps to +inf (always select)."""
    hpsi = apply_sum_to_vector(h, psi)
    pos = np.searchsorted(hpsi.bits, cand_bits)
    pos_c = np.minimum(pos, max(hpsi.bits.size - 1, 0))
    hit = (hpsi.bits.size > 0) & (hpsi.bits[pos_c] == cand_bits)
    num = np.where(hit, np.abs(hpsi.amps[pos_c]), 0.0)
    den = np.abs(np.asarray(diagonal_element(h, cand_bits)) - e0)
    out = np.empty(cand_bits.size)
    guarded = den < DENOMINATOR_GUARD
    out[guarded] = np.inf
    out[~guarded] = num[~guarded] / den[~guarded]
    return out


def _hci_scores(
    h: PauliSum, core_bits: np.ndarray, core_amps: np.ndarray, cand_bits: np.ndarray
) -> np.ndarray:
    """max_i |<x|H|x_i> c_i| per candidate (cand_bits must be sorted);
    cancellation applies within a single matrix element but not across
    core members."""
    from .subspace import _net_images

    best = np.zeros(cand_bits.size)
    src, img, net = _net_images(h, core_bits)
    pos = np.searchsorted(cand_bits, img)
    pos_c = np.minimum(pos, max(cand_bits.size - 1, 0))
    hit = (cand_bits.size > 0) & (cand_bits[pos_c] == img)
    vals = np.abs(net[hit] * core_amps[src[hit]])
    np.maximum.at(best, pos_c[hit], vals)
    return best


# -- array-level selection kernels --------------------------------------------


def _core_amplitudes(core_bits: np.ndarray, core_state: SparseVector) -> np.ndarray:
    """|c_i| per core member; members the eigenvector left at exactly zero
    still belong to the core, they just score zero."""
    pos = np.searchsorted(core_state.bits, core_bits)
    pos_c = np.minimum(pos, max(core_state.bits.size - 1, 0))
    hit = (core_state.bits.size > 0) & (core_state.bits[pos_c] == core_bits)
    return np.where(hit, np.abs(core_state.amps[pos_c]), 0.0)


def _cipsi_bits(cand_bits, core_bits, core_state, e0, h, epsilon):
    if cand_bits.size:
        scores = _perturbative_scores(h, core_state, e0, cand_bits)
        passed = cand_bits[scores > epsilon]
    else:
        passed = cand_bits
    return np.union1d(core_bits, passed)


def _hci_bits(cand_bits, core_bits, core_state, h, epsilon):
    if cand_bits.size:
        scores = _hci_scores(h, core_state.bits, core_state.amps, cand_bits)
        passed = cand_bits[scores > epsilon]
    else:
        passed = cand_bits
    return np.union1d(core_bits, passed)


def _asci_bits(cand_bits, core_bits, core_state, e0, h, d_cap):
    cand_scores = (
        _perturbative_scores(h, core_state, e0, cand_bits)
        if cand_bits.size
        else np.zeros(0)
    )
    all_bits = np.concatenate([core_bits, cand_bits])
    all_scores = np.concatenate([_core_amplitudes(core_bits, core_state), cand_scores])
    order = _sort_by_amplitude(all_bits, all_scores)[:d_cap]
    return np.sort(all_bits[order])


def _trimci_bits(cand_bits, core_bits, core_state, e0, h, epsilon, trim, eig_seed):
    n = h.n_qubits
    if trim.first_phase == "cipsi":
        scores = (
            _perturbative_scores(h, core_state, e0, cand_bits)
            if cand_bits.size
            else np.zeros(0)
        )
    else:
        scores = (
            _hci_scores(h, core_state.bits, core_state.amps, cand_bits)
            if cand_bits.size
            else np.zeros(0)
        )

    if trim.expansion_factor is None:
        filtered = cand_bits[scores > epsilon]
    else:
        target = (trim.expansion_factor - 1.0) * max(len(core_state), 1)
        finite = scores[np.isfinite(scores) & (scores > 0)]
        lo, hi = 1e-20, float(finite.max()) * 2 if finite.size else 1.0
        eps_dyn = epsilon
        for _ in range(40):
            mid = np.sqrt(lo * hi)
            got = int((scores > mid).sum())
            if abs(got - target) <= 0.05 * target:
                eps_dyn = mid
                break
            if got > target:
                lo = mid
            else:
                hi = mid
            eps_dyn = mid
        filtered = cand_bits[scores > eps_dyn]

    pool = np.union1d(core_bits, filtered)
    rng = np.random.default_rng(trim.seed)
    perm = rng.permutation(pool.size)
    subsets = np.array_split(pool[perm], trim.n_subsets)

    kept = []
    for sub in subsets:
        if sub.size == 0:
            continue
        if sub.size < trim.keep_per_subset:
            warnings.warn(
                f"TrimCI subset of {sub.size} smaller than keep_per_subset="
                f"{trim.keep_per_subset}; keeping all members"
            )
            kept.append(sub)
            continue
        basis = ConfigurationBasis(sub, n)
        eig = _diagonalize(h, basis, eig_seed)
        order = _sort_by_amplitude(basis.bits, eig.vector)[: trim.keep_per_subset]
        kept.append(basis.bits[order])
    if not kept:
        return np.zeros(0, dtype=np.uint64)
    return np.unique(np.concatenate(kept))


# -- public selection functions ------------------------------------------------


def _to_bits(candidates) -> np.ndarray:
    return np.array(sorted(c.bits for c in candidates), dtype=np.uint64)


def _to_configs(bits: np.ndarray, n: int) -> set[Configuration]:
    return {Configuration(int(b), n) for b in bits}


def select_cipsi(candidates, prev_state: SparseVector, prev_energy: float,
                 h: PauliSum, epsilon: float) -> set[Configuration]:
    """First-order perturbation-theory thresholding; the previous state's
    support is always retained."""
    return _to_configs(
        _cipsi_bits(_to_bits(candidates), prev_state.bits, prev_state,
                    prev_energy, h, epsilon),
        h.n_qubits,
    )


def select_hci(candidates, prev_state: SparseVector, h: PauliSum,
               epsilon: float) -> set[Configuration]:
    """Heat-bath criterion: largest single matrix element times amplitude."""
    return _to_configs(
        _hci_bits(_to_bits(candidates), prev_state.bits, prev_state, h, epsilon),
        h.n_qubits,
    )


def select_asci(candidates, core_state: SparseVector, prev_energy: float,
                h: PauliSum, d_cap: int) -> set[Configuration]:
    """Rank core amplitudes and candidate perturbative estimates on equal
    footing; keep the top d_cap."""
    return _to_configs(
        _asci_bits(_to_bits(candidates), core_state.bits, core_state,
                   prev_energy, h, d_cap),
        h.n_qubits,
    )


def select_trimci(candidates, core_state: SparseVector, prev_energy: float,
                  h: PauliSum, epsilon: float, trim: TrimParams,
                  eig_seed: int = 0) -> set[Configuration]:
    """Two-phase TrimCI selection.

    Phase 1 filters candidates with the CIPSI-form rule (or HCI-form),
    either at the fixed threshold or at a dynamically bisected one
    targeting |core| + |filtered| = F |core| within 5%.  Phase 2 randomly
    partitions core + filtered into n_subsets equal subsets, diagonalizes
    each, and keeps the keep_per_subset largest amplitudes from each.
    """
    return _to_configs(
        _trimci_bits(
            _to_bits(candidates), core_state.bits, core_state, prev_energy, h,
            epsilon, trim, eig_seed
        ),
        h.n_qubits,
    )


def _diagonalize(h: PauliSum, basis: ConfigurationBasis, seed: int) -> EigResult:
    return lowest_eigenpair(project_fast(h, basis), seed=seed)


def run_sci(
    h: PauliSum,
    x0: Configuration | list[Configuration],
    p: SciParams,
) -> tuple[EigResult, SolverTrace, ConfigurationBasis]:
    """The generic diagonalization-based iterative loop.

    Terminates early when an iteration adds and removes nothing; the
    reported eigenpair comes from diagonalizing in the final basis.
    """
    if isinstance(x0, Configuration):
        initial = [x0]
    else:
        initial = list(x0)
    if any(c.n_qubits != h.n_qubits for c in initial):
        raise ValueError("qubit-count mismatch")

    n = h.n_qubits
    current = np.unique(np.array([c.bits for c in initial], dtype=np.uint64))
    trace = SolverTrace(solver=p.variant)
    trace.status = STATUS_MAX_ITERS
    eig = None

    for mu in range(p.max_iters):
        t0 = time.perf_counter()
        if current.size > p.dim_cap:
            raise BudgetExceeded(f"basis of {current.size} exceeds cap {p.dim_cap}")
        basis = ConfigurationBasis(current, n)
        eig = _diagonalize(h, basis, p.eig_seed)
        amps = eig.vector

        order = _sort_by_amplitude(basis.bits, amps)
        core_size = len(basis) if p.core_cap is None else min(p.core_cap, len(basis))
        core_idx = order[:core_size]
        core_bits = np.sort(basis.bits[core_idx])
        core_state = SparseVector(basis.bits[core_idx], amps[core_idx], n)

        cands = connected_bits(h, core_bits)

        if p.variant == "cipsi":
            nxt = _cipsi_bits(cands, core_bits, core_state, eig.value, h, p.epsilon)
        elif p.variant == "hci":
            nxt = _hci_bits(cands, core_bits, core_state, h, p.epsilon)
        elif p.variant == "asci":
            nxt = _asci_bits(cands, core_bits, core_state, eig.value, h, p.d_cap)
        else:
            nxt = _trimci_bits(
                cands, core_bits, core_state, eig.value, h, p.epsilon, p.trim,
                p.eig_seed
            )

        new_count = int(nxt.size - np.isin(nxt, current).sum())
        trace.add(
            iteration=mu,
            subspace_dim=len(basis),
            energy=eig.value,
            wall_ms=(time.perf_counter() - t0) * 1e3,
            new_configs=new_count,
        )
        if np.array_equal(nxt, current):
            trace.status = STATUS_STALLED
            break
        current = nxt

    basis = ConfigurationBasis(current, n)
    if len(basis) > p.dim_cap:
        raise BudgetExceeded(f"basis of {len(basis)} exceeds cap {p.dim_cap}")
    eig = _diagonalize(h, basis, p.eig_seed)
    trace.final_energy = eig.value
    trace.final_dim = len(basis)
    return eig, trace, basis
