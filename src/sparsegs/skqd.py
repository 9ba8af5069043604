"""Classical emulation of sample-based Krylov diagonalization (Yu et al.,
"Quantum-centric algorithm for sample-based Krylov diagonalization").

Exact Krylov states e^{-iHk dt}|x0> live in the reachable subspace R(x0),
the closure of x0 under H's nonzero matrix elements, which H maps into
itself.  They are computed there, on a |R|-vector, by Al-Mohy & Higham's
`expm_multiply` (SIAM J. Sci. Comput. 33, 2011) applied to H projected onto
R.  Trotterized variants, kept to study approximation effects, evolve the
full 2^n statevector, because a single Pauli term can leave R.  Shots are
drawn per state from the Born distribution with a splittable seeded
generator, and the pooled configurations are filtered, projected, and
diagonalized classically.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .builder import GroundStateCertificate
from .eigensolver import EigResult, lowest_eigenpair
from .paulis import (Configuration, PauliSum, diagonal_element, group_elements, pauli_signs,
                     unique_bits)
from .subspace import ConfigurationBasis, connectivity_filter, project_fast, reachable_bits
from .trace import DEFAULT_DIM_CAP, STATUS_MAX_ITERS, BudgetExceeded, SolverTrace

STATEVECTOR_QUBIT_BUDGET = 24  # Trotter evolution's full statevector
_EXPLICIT_MATRIX_QUBITS = 18  # pauli_sum_to_sparse's width limit


@dataclass(frozen=True)
class SkqdParams:
    krylov_dim: int  # d
    shots_per_state: int | tuple  # M, or a per-state schedule
    dt: float | None = None  # None: default_dt(h)
    dt_multiplier: float = 25.0
    evolution: str = "exact"  # exact | trotter1 | trotter2
    trotter_steps_per_dt: int = 4
    rng_seed: int = 0
    bitflip_probability: float = 0.0  # optional noise channel on samples
    dim_cap: int = DEFAULT_DIM_CAP
    eig_seed: int = 0

    def __post_init__(self):
        if self.krylov_dim < 1:
            raise ValueError("krylov_dim must be >= 1")
        if self.evolution not in ("exact", "trotter1", "trotter2"):
            raise ValueError(f"unknown evolution {self.evolution!r}")
        if not 0.0 <= self.bitflip_probability < 1.0:
            raise ValueError("bitflip probability must lie in [0, 1)")

    def schedule(self) -> list[int]:
        if isinstance(self.shots_per_state, int):
            if self.shots_per_state < 1:
                raise ValueError("shots_per_state must be >= 1")
            return [self.shots_per_state] * self.krylov_dim
        sched = [int(m) for m in self.shots_per_state]
        if len(sched) != self.krylov_dim or any(m < 1 for m in sched):
            raise ValueError("shot schedule must list one positive count per state")
        return sched


@dataclass
class ShotRecord:
    """Per-Krylov-state histograms of sampled configurations."""

    histograms: list[dict[int, int]] = field(default_factory=list)
    state_seeds: list[int] = field(default_factory=list)
    n_qubits: int = 0

    def to_json_dict(self) -> dict:
        return {
            "n_qubits": self.n_qubits,
            "state_seeds": self.state_seeds,
            "histograms": [
                {f"0x{b:x}": c for b, c in sorted(h.items())} for h in self.histograms
            ],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "ShotRecord":
        return cls(
            histograms=[
                {int(k, 16): v for k, v in h.items()} for h in d["histograms"]
            ],
            state_seeds=list(d["state_seeds"]),
            n_qubits=d["n_qubits"],
        )


def default_dt(h: PauliSum, multiplier: float = 25.0) -> float:
    """multiplier * pi over the Pauli-coefficient 1-norm (an upper bound on
    the spectral norm, which is out of reach classically at scale)."""
    if multiplier <= 0:
        raise ValueError("multiplier must be positive")
    one_norm = h.coeff_one_norm()
    if one_norm == 0.0:
        raise ValueError("empty Hamiltonian has no timescale")
    return multiplier * np.pi / one_norm


def pauli_sum_to_sparse(h: PauliSum) -> sp.csr_matrix:
    """Explicit 2^n sparse matrix; use only at moderate widths."""
    if h.n_qubits > _EXPLICIT_MATRIX_QUBITS:
        raise ValueError(f"explicit sparse matrix capped at {_EXPLICIT_MATRIX_QUBITS} qubits")
    dim = 1 << h.n_qubits
    cols = np.arange(dim, dtype=np.uint64)
    gx, _ = h.x_groups
    rows = np.concatenate([(cols ^ x).astype(np.int64) for x in gx])
    vals = np.concatenate([group_elements(h, cols, slice(g, g + 1))[0] for g in range(gx.size)])
    return sp.csr_matrix((vals, (rows, np.tile(cols.astype(np.int64), gx.size))),
                         shape=(dim, dim))


def evolve_exact(h: PauliSum, v: np.ndarray, t: float) -> np.ndarray:
    """e^{-iHt} |v> on the full 2^n statevector through the explicit sparse
    matrix: the oracle for run_skqd's reachable-subspace evolution."""
    if v.size != (1 << h.n_qubits):
        raise ValueError("statevector size mismatch")
    if t == 0.0:
        return v.copy()
    return spla.expm_multiply(-1j * t * pauli_sum_to_sparse(h), v.astype(complex))


def _apply_term_exponential(v, xm, zm, phase, theta):
    """exp(-i theta P) v = cos(theta) v - i sin(theta) P v."""
    idx = np.arange(v.size, dtype=np.uint64)
    signs = pauli_signs(idx, np.array([zm]))[0]
    pv = np.empty_like(v)
    pv[(idx ^ xm).astype(np.int64)] = phase * signs * v
    return np.cos(theta) * v - 1j * np.sin(theta) * pv


def evolve_trotter(
    h: PauliSum, v: np.ndarray, t: float, order: int = 2, steps: int = 1
) -> np.ndarray:
    """Trotterized e^{-iHt} with the canonical term ordering.

    Order 1 applies one forward sweep of term exponentials per step; order
    2 applies a forward then a reversed sweep at half angles (the
    forward-then-reversed-adjoint composition), giving one extra order in
    the step size.
    """
    if h.n_qubits > STATEVECTOR_QUBIT_BUDGET:
        raise ValueError(f"statevector budget is {STATEVECTOR_QUBIT_BUDGET} qubits")
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    xm, zm, coeff, phase = h.mask_arrays
    if np.abs(coeff.imag).max(initial=0.0) > 1e-12:
        raise ValueError("Trotter evolution needs real coefficients")
    out = v.astype(complex)
    tau = t / steps
    order_fwd = range(len(coeff))
    for _ in range(steps):
        if order == 1:
            for k in order_fwd:
                out = _apply_term_exponential(out, xm[k], zm[k], phase[k], coeff[k].real * tau)
        else:
            for k in order_fwd:
                out = _apply_term_exponential(out, xm[k], zm[k], phase[k], coeff[k].real * tau / 2)
            for k in reversed(order_fwd):
                out = _apply_term_exponential(out, xm[k], zm[k], phase[k], coeff[k].real * tau / 2)
    return out


def _sample_indices(v: np.ndarray, shots: int, rng) -> np.ndarray:
    """Born-rule draws of indices into v.  A draw above the rounded cdf[-1]
    goes to the last index with nonzero probability, not past the end."""
    probs = np.abs(v) ** 2
    probs /= probs.sum()
    cdf = np.cumsum(probs)
    draws = rng.random(shots)
    return np.minimum(np.searchsorted(cdf, draws), np.flatnonzero(probs)[-1])


def _propagator(h: PauliSum, x0: Configuration, p: SkqdParams, dt: float):
    """(states, step): the sorted configurations that index the evolved
    vector, and one time step dt on such a vector.  Exact evolution runs in
    the reachable subspace of x0; Trotter evolution on the full register."""
    n = h.n_qubits
    if p.evolution == "exact":
        states = reachable_bits(h, np.array([x0.bits], dtype=np.uint64), p.dim_cap)
        a = -1j * dt * project_fast(h, ConfigurationBasis(states, n)).rows
        return states, lambda v: spla.expm_multiply(a, v)  # SciPy sums a's diagonal for traceA
    if n > STATEVECTOR_QUBIT_BUDGET:
        raise ValueError(f"statevector budget is {STATEVECTOR_QUBIT_BUDGET} qubits")
    order = 1 if p.evolution == "trotter1" else 2
    return (np.arange(1 << n, dtype=np.uint64),
            lambda v: evolve_trotter(h, v, dt, order=order, steps=p.trotter_steps_per_dt))


def run_skqd(
    h: PauliSum, x0: Configuration, p: SkqdParams
) -> tuple[EigResult, SolverTrace, ShotRecord]:
    """Emulated SKQD: evolve, sample, pool, filter, project, diagonalize.

    The trace reports the energy after each Krylov state's samples join
    the cumulative pool; the returned eigenpair is the final entry.
    """
    if x0.n_qubits != h.n_qubits:
        raise ValueError("qubit-count mismatch")
    n = h.n_qubits
    sched = p.schedule()
    dt = p.dt if p.dt is not None else default_dt(h, p.dt_multiplier)

    states, step = _propagator(h, x0, p, dt)
    seed_seq = np.random.SeedSequence(p.rng_seed)
    children = seed_seq.spawn(p.krylov_dim)
    record = ShotRecord(n_qubits=n)
    trace = SolverTrace(solver="skqd")
    trace.status = STATUS_MAX_ITERS

    phi = (states == np.uint64(x0.bits)).astype(complex)
    pool = np.array([x0.bits], dtype=np.uint64)
    eig = None

    for k in range(p.krylov_dim):
        t0 = time.perf_counter()
        if k > 0:
            phi = step(phi)
        rng = np.random.default_rng(children[k])
        samples = states[_sample_indices(phi, sched[k], rng)]
        if p.bitflip_probability > 0.0:
            flips = rng.random((samples.size, n)) < p.bitflip_probability
            masks = (flips * (1 << np.arange(n, dtype=np.uint64))).sum(axis=1)
            samples = samples ^ masks.astype(np.uint64)
        uniq, counts = np.unique(samples, return_counts=True)
        record.histograms.append({int(b): int(c) for b, c in zip(uniq, counts)})
        record.state_seeds.append(int(children[k].entropy))
        pool = unique_bits(np.concatenate((pool, uniq)))
        if pool.size > p.dim_cap:
            raise BudgetExceeded(f"pool of {pool.size} exceeds cap {p.dim_cap}")

        kept = connectivity_filter(h, pool)
        if not kept.size:
            warnings.warn("connectivity filter removed the whole pool; "
                          "falling back to the initial configuration's diagonal energy")
            e0 = float(diagonal_element(h, np.uint64(x0.bits)))
            eig = EigResult(e0, np.ones(1, dtype=complex), 0, 0.0, True, False)
            dim_k = 1
        else:
            basis = ConfigurationBasis(kept, n)
            eig = lowest_eigenpair(project_fast(h, basis), seed=p.eig_seed)
            dim_k = len(basis)
        trace.add(
            iteration=k,
            subspace_dim=dim_k,
            energy=eig.value,
            wall_ms=(time.perf_counter() - t0) * 1e3,
            new_configs=int(uniq.size),
        )

    trace.final_energy = eig.value
    trace.final_dim = trace.rows[-1].subspace_dim
    return eig, trace, record


def support_coverage(shots: ShotRecord, cert: GroundStateCertificate) -> np.ndarray:
    """Cumulative count of certificate-support configurations observed at
    least once, per Krylov index."""
    if shots.n_qubits != cert.n_qubits:
        raise ValueError("qubit-count mismatch")
    support = {c.bits for c in cert.support}
    seen: set[int] = set()
    out = np.zeros(len(shots.histograms), dtype=int)
    for k, hist in enumerate(shots.histograms):
        seen.update(b for b in hist if b in support)
        out[k] = len(seen)
    return out
