"""Diagonalization-based sparse iterative solvers.

One generic loop drives four selection rules (CIPSI, HCI, ASCI, TrimCI).
Each iteration diagonalizes the current configuration basis, trims it to
the core by amplitude, and walks the core's (x-mask group, member) pairs
once, as expansion does, keeping those whose net element D_g(x_i) is
nonzero (about one in seven on the flagship).  One index of those pairs'
images gives the candidates (the connected configurations outside the
core), their CIPSI numerators <x|H|psi>, one bincount of the pairs'
D_g(x_i) c_i, and their HCI maxima max_i |D_g(x_i) c_i|, as in heat-bath
CI, whose cut W_g |c_i| <= eps also skips the pairs HCI can never select.
The variant's selection function then takes the scored candidates: CIPSI
and HCI share one threshold rule, grow without bound and terminate when
the basis stops changing; ASCI and TrimCI hold the diagonalization
dimension fixed.

Configurations are packed uint64 bits throughout: the selection functions
take and return sorted, duplicate-free arrays, so large pools avoid
per-configuration object churn.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass

import numpy as np

from .eigensolver import BasisSolver, EigResult
from .paulis import (Configuration, PauliSum, diagonal_element, group_bounds, index_in,
                     unique_bits, unique_inverse)
from .subspace import _nonzero_images
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


def _scores(rule: str, h: PauliSum, core_bits: np.ndarray, core_amps: np.ndarray,
            e0: float, trace: SolverTrace,
            screen: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(candidates, scores) from one walk of the core's images.

    The walk (subspace._nonzero_images) gives the (group, member) pairs
    whose net element D_g(x_i) has magnitude at least ZERO_TOL, and only
    their images are indexed.  The candidates are those images outside
    the core, as connected_bits finds them.  Rule "hci" scores them by
    the heat-bath form, max_i |D_g(x_i) c_i| over the pairs, where terms
    cancel within a matrix element but not across core members; any other
    rule by the CIPSI (perturbative) form, |<x|H|psi> / (<x|H|x> - e0)|,
    whose numerator sums the pairs' D_g(x_i) c_i in ascending group order,
    with near-zero gaps mapped to +inf (always select).

    `screen`, HCI's threshold, skips the pairs with fl(W_g |c_i|) <=
    screen (paulis.group_bounds) when H and the amplitudes are real: their
    products are at most that, so no candidate scoring above the threshold
    loses a pair and the threshold rule's selection is unchanged.  Flops
    count the core's terms once for the walk and once more for the scores,
    plus the candidates' for the CIPSI denominators; scoring is uncounted
    when the core has no candidates, as the unscreened walk finds them."""
    trace.count(core_bits.size * len(h))
    within = skipped = None
    if screen is not None and h.dtype == np.float64 and not np.iscomplexobj(core_amps):
        bound, mag = group_bounds(h), np.abs(core_amps)
        within = lambda g: np.flatnonzero(bound[g] * mag > screen)
        skipped = lambda g: np.flatnonzero(bound[g] * mag <= screen)
    walk = [*zip(*[(s, img, e[kept])  # [sources, images, elements]
                   for s, img, e, kept in _nonzero_images(h, core_bits, within)])]
    if not walk:
        return np.zeros(0, dtype=np.uint64), np.zeros(0)
    images, inv = unique_inverse(np.concatenate(walk.pop(1)))
    src, d = (np.concatenate(part) for part in walk)
    del walk
    cand = np.flatnonzero(index_in(core_bits, images) < 0)
    cand_bits = images[cand]
    prods = d * core_amps[src]
    if rule == "hci":
        # counted as without the screen: when some nonzero pair's image, walked
        # or skipped, leaves the core; the skipped pairs are walked only when
        # none of the walked ones does, up to the first group with one
        if cand.size or (skipped and any((index_in(core_bits, img) < 0).any() for _, img, _, _
                                         in _nonzero_images(h, core_bits, skipped))):
            trace.count(core_bits.size * len(h))
        best = np.zeros(images.size)
        np.maximum.at(best, inv, np.abs(prods))
        return cand_bits, best[cand]
    if cand.size == 0:
        return cand_bits, np.zeros(0)
    trace.count((core_bits.size + cand.size) * len(h))
    if np.iscomplexobj(prods):  # bincount sums reals: the parts one at a time
        num = np.bincount(inv, prods.real, images.size)[cand]
        num = num + 1j * np.bincount(inv, prods.imag, images.size)[cand]
    else:
        num = np.bincount(inv, prods, images.size)[cand]
    num = np.abs(num)
    den = np.abs(np.asarray(diagonal_element(h, cand_bits)) - e0)
    out = np.full(cand.size, np.inf)
    gap = den >= DENOMINATOR_GUARD
    out[gap] = num[gap] / den[gap]
    return cand_bits, out


# -- selection rules -----------------------------------------------------------
#
# Each rule takes the sorted candidates with their scores from _scores, and
# the sorted core, and returns the next basis as a sorted, duplicate-free
# array.  A member the eigenvector left at exactly zero still belongs to
# the core; it just drives nothing.


def select_threshold(cand_bits: np.ndarray, scores: np.ndarray, core_bits: np.ndarray,
                     epsilon: float) -> np.ndarray:
    """CIPSI and HCI: the core and every candidate scoring above epsilon."""
    return unique_bits(np.concatenate((core_bits, cand_bits[scores > epsilon])))


def select_asci(cand_bits: np.ndarray, scores: np.ndarray, core_bits: np.ndarray,
                core_amps: np.ndarray, d_cap: int) -> np.ndarray:
    """Rank core amplitudes and candidate perturbative estimates on equal
    footing; keep the top d_cap."""
    all_bits = np.concatenate([core_bits, cand_bits])
    all_scores = np.concatenate([np.abs(core_amps), scores])
    order = _sort_by_amplitude(all_bits, all_scores)[:d_cap]
    return np.sort(all_bits[order])


def select_trimci(cand_bits: np.ndarray, scores: np.ndarray, core_bits: np.ndarray,
                  h: PauliSum, epsilon: float, trim: TrimParams,
                  trace: SolverTrace) -> np.ndarray:
    """Two-phase TrimCI selection.

    Phase 1 is the threshold rule on the CIPSI-form (or HCI-form) scores,
    either at the fixed threshold or at a dynamically bisected one
    targeting |core| + |filtered| = F |core| within 5%.  Phase 2 randomly
    partitions core + filtered into n_subsets equal subsets, diagonalizes
    each, and keeps the keep_per_subset largest amplitudes from each.
    """
    eps = epsilon
    if trim.expansion_factor is not None:
        target = (trim.expansion_factor - 1.0) * max(core_bits.size, 1)
        finite = scores[np.isfinite(scores) & (scores > 0)]
        lo, hi = 1e-20, float(finite.max()) * 2 if finite.size else 1.0
        for _ in range(40):
            eps = np.sqrt(lo * hi)
            got = int((scores > eps).sum())
            if abs(got - target) <= 0.05 * target:
                break
            if got > target:
                lo = eps
            else:
                hi = eps

    pool = select_threshold(cand_bits, scores, core_bits, eps)
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
        eig = BasisSolver(h, trace).solve(sub)
        kept.append(sub[_sort_by_amplitude(sub, eig.vector)[: trim.keep_per_subset]])
    if not kept:
        return np.zeros(0, dtype=np.uint64)
    return unique_bits(np.concatenate(kept))


def run_sci(
    h: PauliSum,
    x0: Configuration,
    p: SciParams,
) -> tuple[EigResult, SolverTrace, np.ndarray]:
    """The generic diagonalization-based iterative loop.

    Terminates early when an iteration adds and removes nothing; the
    reported eigenpair comes from diagonalizing in the final basis, which
    is returned as a sorted array.  One `BasisSolver` makes every solve
    of the loop, so a stalled run's final basis is not solved again.
    Flops follow SolverTrace's convention.
    """
    if x0.n_qubits != h.n_qubits:
        raise ValueError("qubit-count mismatch")
    current = np.array([x0.bits], dtype=np.uint64)
    trace = SolverTrace(p.variant, p.dim_cap)
    solver = BasisSolver(h, trace)

    for mu in range(p.max_iters):
        t0 = time.perf_counter()
        eig = solver.solve(current)
        amps = eig.vector

        order = _sort_by_amplitude(current, amps)
        core_idx = np.sort(order if p.core_cap is None else order[: p.core_cap])
        core_bits, core_amps = current[core_idx], amps[core_idx]  # in bit order

        rule = p.trim.first_phase if p.variant == "trimci" else p.variant
        cands, scores = _scores(rule, h, core_bits, core_amps, eig.value, trace,
                                p.epsilon if p.variant == "hci" else None)
        if p.variant == "asci":
            nxt = select_asci(cands, scores, core_bits, core_amps, p.d_cap)
        elif p.variant == "trimci":
            nxt = select_trimci(cands, scores, core_bits, h, p.epsilon, p.trim, trace)
        else:
            nxt = select_threshold(cands, scores, core_bits, p.epsilon)

        trace.add(mu, current.size, eig.value, t0)
        if np.array_equal(nxt, current):
            trace.status = STATUS_STALLED
            break
        current = nxt
    eig = solver.solve(current)
    trace.finish(eig.value, current.size, eig.converged)
    return eig, trace, current
