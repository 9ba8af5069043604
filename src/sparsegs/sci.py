"""Diagonalization-based sparse iterative solvers.

One generic loop drives four selection rules (CIPSI, HCI, ASCI, TrimCI).
Each iteration diagonalizes the current configuration basis, trims it to
the core by amplitude, expands one Hamiltonian step outward, and asks the
variant's selection function which candidates survive.  CIPSI and HCI
grow without bound and terminate when the basis stops changing; ASCI and
TrimCI hold the diagonalization dimension fixed.

Configurations are packed uint64 bits throughout: the selection functions
take and return sorted, duplicate-free arrays, so large pools avoid
per-configuration object churn.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass

import numpy as np

from .eigensolver import EigResult, basis_eigenpair
from .paulis import (Configuration, PauliSum, apply_sum_to_vector, diagonal_element,
                     group_images, index_in, unique_bits)
from .subspace import connected_bits
from .trace import DEFAULT_DIM_CAP, STATUS_STALLED, SolverTrace

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
    h: PauliSum, core_bits: np.ndarray, core_amps: np.ndarray, e0: float,
    cand_bits: np.ndarray, trace: SolverTrace,
) -> np.ndarray:
    """|<x|H|psi> / (<x|H|x> - e0)| for each candidate, with the small-
    denominator guard mapping near-zero gaps to +inf (always select)."""
    hb, ha = apply_sum_to_vector(h, core_bits, core_amps)
    trace.count((core_bits.size + cand_bits.size) * len(h))
    idx = index_in(hb, cand_bits)
    num = np.where(idx >= 0, np.abs(ha[idx]), 0.0)
    den = np.abs(np.asarray(diagonal_element(h, cand_bits)) - e0)
    out = np.empty(cand_bits.size)
    guarded = den < DENOMINATOR_GUARD
    out[guarded] = np.inf
    out[~guarded] = num[~guarded] / den[~guarded]
    return out


def _hci_scores(
    h: PauliSum, core_bits: np.ndarray, core_amps: np.ndarray, cand_bits: np.ndarray,
    trace: SolverTrace,
) -> np.ndarray:
    """max_i |<x|H|x_i> c_i| per candidate (cand_bits must be sorted);
    cancellation applies within a single matrix element but not across
    core members."""
    best = np.zeros(cand_bits.size)
    trace.count(core_bits.size * len(h))
    for lo, img, d in group_images(h, core_bits):
        pos = index_in(cand_bits, img)
        hit = pos >= 0
        vals = np.abs(d * core_amps[None, lo : lo + img.shape[1]])
        np.maximum.at(best, pos[hit], vals[hit])
    return best


def _scores(rule: str, h: PauliSum, core_bits: np.ndarray, core_amps: np.ndarray,
            e0: float | None, cand_bits: np.ndarray, trace: SolverTrace) -> np.ndarray:
    """Candidate scores by the CIPSI-form (perturbative) or HCI-form
    (heat-bath) rule; empty, and uncounted, when there are no candidates."""
    if cand_bits.size == 0:
        return np.zeros(0)
    if rule == "hci":
        return _hci_scores(h, core_bits, core_amps, cand_bits, trace)
    return _perturbative_scores(h, core_bits, core_amps, e0, cand_bits, trace)


# -- selection rules -----------------------------------------------------------
#
# Each rule takes the sorted candidates, the sorted core and the core's
# eigenvector amplitudes aligned with it, and returns the next basis as a
# sorted, duplicate-free array.  A member the eigenvector left at exactly
# zero still belongs to the core; it just scores zero.


def select_cipsi(cand_bits: np.ndarray, core_bits: np.ndarray, core_amps: np.ndarray,
                 e0: float, h: PauliSum, epsilon: float, trace: SolverTrace) -> np.ndarray:
    """First-order perturbation-theory thresholding; the core is always
    retained."""
    scores = _scores("cipsi", h, core_bits, core_amps, e0, cand_bits, trace)
    return unique_bits(np.concatenate((core_bits, cand_bits[scores > epsilon])))


def select_hci(cand_bits: np.ndarray, core_bits: np.ndarray, core_amps: np.ndarray,
               h: PauliSum, epsilon: float, trace: SolverTrace) -> np.ndarray:
    """Heat-bath criterion: largest single matrix element times amplitude;
    the core is always retained."""
    scores = _scores("hci", h, core_bits, core_amps, None, cand_bits, trace)
    return unique_bits(np.concatenate((core_bits, cand_bits[scores > epsilon])))


def select_asci(cand_bits: np.ndarray, core_bits: np.ndarray, core_amps: np.ndarray,
                e0: float, h: PauliSum, d_cap: int, trace: SolverTrace) -> np.ndarray:
    """Rank core amplitudes and candidate perturbative estimates on equal
    footing; keep the top d_cap."""
    cand_scores = _scores("cipsi", h, core_bits, core_amps, e0, cand_bits, trace)
    all_bits = np.concatenate([core_bits, cand_bits])
    all_scores = np.concatenate([np.abs(core_amps), cand_scores])
    order = _sort_by_amplitude(all_bits, all_scores)[:d_cap]
    return np.sort(all_bits[order])


def select_trimci(cand_bits: np.ndarray, core_bits: np.ndarray, core_amps: np.ndarray,
                  e0: float, h: PauliSum, epsilon: float, trim: TrimParams,
                  trace: SolverTrace) -> np.ndarray:
    """Two-phase TrimCI selection.

    Phase 1 filters candidates with the CIPSI-form rule (or HCI-form),
    either at the fixed threshold or at a dynamically bisected one
    targeting |core| + |filtered| = F |core| within 5%.  Phase 2 randomly
    partitions core + filtered into n_subsets equal subsets, diagonalizes
    each, and keeps the keep_per_subset largest amplitudes from each.
    """
    scores = _scores(trim.first_phase, h, core_bits, core_amps, e0, cand_bits, trace)

    if trim.expansion_factor is None:
        filtered = cand_bits[scores > epsilon]
    else:
        target = (trim.expansion_factor - 1.0) * max(core_bits.size, 1)
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

    pool = unique_bits(np.concatenate((core_bits, filtered)))
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
        sub = np.sort(sub)
        eig = basis_eigenpair(h, sub, trace)
        kept.append(sub[_sort_by_amplitude(sub, eig.vector)[: trim.keep_per_subset]])
    if not kept:
        return np.zeros(0, dtype=np.uint64)
    return unique_bits(np.concatenate(kept))


def run_sci(
    h: PauliSum,
    x0: Configuration | list[Configuration],
    p: SciParams,
) -> tuple[EigResult, SolverTrace, np.ndarray]:
    """The generic diagonalization-based iterative loop.

    Terminates early when an iteration adds and removes nothing; the
    reported eigenpair comes from diagonalizing in the final basis, which
    is returned as a sorted array.  Each solve reuses the one before it
    (see `basis_eigenpair`).  Flops follow SolverTrace's convention.
    """
    if isinstance(x0, Configuration):
        initial = [x0]
    else:
        initial = list(x0)
    if any(c.n_qubits != h.n_qubits for c in initial):
        raise ValueError("qubit-count mismatch")

    current = unique_bits(np.array([c.bits for c in initial], dtype=np.uint64))
    trace = SolverTrace(p.variant, p.dim_cap)
    eig = None

    for mu in range(p.max_iters):
        t0 = time.perf_counter()
        eig = basis_eigenpair(h, current, trace, eig, keep=True)
        amps = eig.vector

        order = _sort_by_amplitude(current, amps)
        core_idx = np.sort(order if p.core_cap is None else order[: p.core_cap])
        core_bits, core_amps = current[core_idx], amps[core_idx]  # in bit order

        cands = connected_bits(h, core_bits)
        trace.count(core_bits.size * len(h))

        if p.variant == "cipsi":
            nxt = select_cipsi(cands, core_bits, core_amps, eig.value, h, p.epsilon, trace)
        elif p.variant == "hci":
            nxt = select_hci(cands, core_bits, core_amps, h, p.epsilon, trace)
        elif p.variant == "asci":
            nxt = select_asci(cands, core_bits, core_amps, eig.value, h, p.d_cap, trace)
        else:
            nxt = select_trimci(
                cands, core_bits, core_amps, eig.value, h, p.epsilon, p.trim, trace
            )

        trace.add(mu, current.size, eig.value, t0)
        if np.array_equal(nxt, current):
            trace.status = STATUS_STALLED  # eig is already the final basis's
            eig.bits = eig.rows = None  # and no later solve reuses it
            break
        current = nxt
    else:
        eig = basis_eigenpair(h, current, trace, eig)
    trace.finish(eig.value, current.size, eig.converged)
    return eig, trace, current
