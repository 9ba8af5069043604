"""Sparse iterative solvers that avoid per-iteration diagonalization:
diagonal ranking, truncated Arnoldi, and the truncated power method with
its convergence-theory constants."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .eigensolver import BasisSolver, EigResult
from .paulis import (Configuration, PauliSum, _merge_bases, add_scaled, apply_sum_to_vector,
                     diagonal_element, index_in, sparse_vdot, truncate_top)
from .subspace import connected_bits
from .trace import DEFAULT_DIM_CAP, STATUS_CONVERGED, STATUS_STALLED, SolverTrace

BREAKDOWN_TOL = 1e-12  # truncated Arnoldi stops when the new vector's norm is this small


# -- diagonal ranking --------------------------------------------------------


@dataclass(frozen=True)
class DiagRankParams:
    working_cap: int  # D
    reservoir_cap: int | None = None  # R; None means 10 * working_cap
    iters: int = 100  # T
    per_iteration_energies: bool = False  # diagnostic diagonalizations
    dim_cap: int = DEFAULT_DIM_CAP

    def __post_init__(self):
        if self.reservoir_cap is None:
            object.__setattr__(self, "reservoir_cap", 10 * self.working_cap)
        if not 1 <= self.working_cap <= self.reservoir_cap:
            raise ValueError("need reservoir_cap >= working_cap >= 1")
        if self.iters < 1:
            raise ValueError("iters must be >= 1")


def _rank_by_energy(bits: np.ndarray, energies: np.ndarray) -> np.ndarray:
    """Ascending energy; ties broken by ascending bit value."""
    return np.lexsort((bits, energies))


def run_diag_ranking(
    h: PauliSum, x0: Configuration, p: DiagRankParams
) -> tuple[EigResult, SolverTrace]:
    """Rank configurations purely by diagonal energy.

    A working set drives the expansion, a larger reservoir remembers every
    configuration seen with its energy, and both are trimmed to their caps
    each iteration; the working set is kept sorted.  Only the final working
    set is diagonalized (the per-iteration energies are an optional
    diagnostic).
    """
    if x0.n_qubits != h.n_qubits:
        raise ValueError("qubit-count mismatch")
    trace = SolverTrace("diag-ranking", p.dim_cap)
    solver = BasisSolver(h, trace)
    energy = float("nan")  # unless per-iteration energies are computed

    res_bits = np.array([x0.bits], dtype=np.uint64)
    res_energy = np.array([diagonal_element(h, np.uint64(x0.bits))], dtype=float)
    work_bits = res_bits.copy()

    for mu in range(p.iters):
        t0 = time.perf_counter()
        reachable = connected_bits(h, work_bits)
        trace.count(work_bits.size * len(h))
        new_bits = reachable[index_in(np.sort(res_bits), reachable) < 0]
        if new_bits.size:
            new_energy = np.asarray(diagonal_element(h, new_bits), dtype=float)
            trace.count(new_bits.size * len(h))
            res_bits = np.concatenate([res_bits, new_bits])
            res_energy = np.concatenate([res_energy, new_energy])
        order = _rank_by_energy(res_bits, res_energy)
        next_work = np.sort(res_bits[order[: p.working_cap]])
        res_keep = order[: p.reservoir_cap]
        res_bits, res_energy = res_bits[res_keep], res_energy[res_keep]

        same_work = np.array_equal(next_work, work_bits)
        work_bits = next_work
        if p.per_iteration_energies:
            energy = solver.solve(work_bits).value
        trace.add(mu, work_bits.size, energy, t0)
        if new_bits.size == 0 and same_work:
            trace.status = STATUS_STALLED
            break

    eig = solver.solve(work_bits)
    trace.finish(eig.value, work_bits.size, eig.converged)
    return eig, trace


# -- truncated Arnoldi -------------------------------------------------------


@dataclass(frozen=True)
class TruncArnoldiParams:
    new_config_cap: int  # M
    iters: int = 200  # T
    per_iteration_energies: bool = False
    dim_cap: int = DEFAULT_DIM_CAP

    def __post_init__(self):
        if self.new_config_cap < 1:
            raise ValueError("new_config_cap must be >= 1")
        if self.iters < 1:
            raise ValueError("iters must be >= 1")


def run_truncated_arnoldi(
    h: PauliSum, x0: Configuration, p: TruncArnoldiParams
) -> tuple[EigResult, SolverTrace, np.ndarray]:
    """Matrix-free Arnoldi with per-iteration truncation.

    Orthogonalization against every stored vector happens before the
    truncation to the heaviest new_config_cap amplitudes (modified
    Gram-Schmidt plus one reorthogonalization pass; Krylov bases are
    exponentially ill-conditioned, so the order matters).  The final
    energy comes from projecting onto the union of iterate supports and
    diagonalizing there; the union is returned as a sorted array.
    """
    if x0.n_qubits != h.n_qubits:
        raise ValueError("qubit-count mismatch")
    trace = SolverTrace("tarnoldi", p.dim_cap)
    solver = BasisSolver(h, trace)
    energy = float("nan")  # unless per-iteration energies are computed

    union = np.array([x0.bits], dtype=np.uint64)
    vecs = [(union, np.ones(1, dtype=complex))]

    for it in range(p.iters):
        t0 = time.perf_counter()
        ub, ua = apply_sum_to_vector(h, *vecs[-1])
        trace.count(vecs[-1][0].size * len(h))
        for _ in range(2):  # MGS + one reorthogonalization pass
            for vb, va in vecs:
                ov = sparse_vdot(vb, va, ub, ua)
                trace.count(min(vb.size, ub.size) * 2)
                if ov != 0:
                    ub, ua = add_scaled(ub, ua, vb, va, -ov)
        ub, ua = truncate_top(ub, ua, p.new_config_cap)
        nrm = float(np.linalg.norm(ua))
        if nrm <= BREAKDOWN_TOL:
            trace.status = STATUS_CONVERGED  # invariant subspace reached
            trace.add(it, union.size, float("nan"), t0)
            break
        vecs.append((ub, ua * (1.0 / nrm)))
        grown = _merge_bases(union, ub)[0]
        trace.check_dim(grown.size, "support union")
        union = grown
        if p.per_iteration_energies:
            energy = solver.solve(union).value
        trace.add(it, union.size, energy, t0)

    eig = solver.solve(union)
    trace.finish(eig.value, union.size, eig.converged)
    return eig, trace, union


# -- truncated power method --------------------------------------------------


@dataclass(frozen=True)
class TpmParams:
    sparsity_cutoff: int  # k
    iters: int = 100  # L
    mode: str = "diagonalize_support"  # or "expectation"
    dim_cap: int = DEFAULT_DIM_CAP

    def __post_init__(self):
        if self.sparsity_cutoff < 1:
            raise ValueError("sparsity cutoff must be >= 1")
        if self.iters < 1:
            raise ValueError("iters must be >= 1")
        if self.mode not in ("expectation", "diagonalize_support"):
            raise ValueError(f"unknown mode {self.mode!r}")


def run_tpm(
    h: PauliSum, x0: Configuration, p: TpmParams
) -> tuple[float, SolverTrace, np.ndarray]:
    """Truncated power iteration on A = shift*I - H.

    The shift maps the lowest eigenvalue of H to the largest of A and must
    make A positive definite; it is fixed at the Pauli-coefficient 1-norm
    plus 1, since the 1-norm bounds the spectral norm of H.  The
    expectation estimate shift - <phi|A|phi> equals the Rayleigh quotient
    of H and stays above the true ground energy; diagonalize_support mode
    instead projects H onto the support of the iterate and diagonalizes,
    which can only do better, with one `BasisSolver` for every iterate (an
    unchanged support is not solved again).  The iterate's support is
    returned as a sorted array.  H is applied once per iterate: the H phi
    of the expectation also gives the next A phi, and diagonalize_support
    mode applies H only for that next A phi.
    """
    shift = h.coeff_one_norm() + 1.0
    trace = SolverTrace("tpm", p.dim_cap)
    trace.check_dim(p.sparsity_cutoff, "sparsity cutoff")
    if x0.n_qubits != h.n_qubits:
        raise ValueError("qubit-count mismatch")
    bits, amps = np.array([x0.bits], dtype=np.uint64), np.ones(1, dtype=complex)
    hb, ha = _apply_h(h, bits, amps, trace)
    solver, eig = BasisSolver(h, trace), None

    for t in range(1, p.iters + 1):
        t0 = time.perf_counter()
        bits, amps = add_scaled(bits, amps * shift, hb, ha, -1.0)  # A phi
        bits, amps = truncate_top(bits, amps, p.sparsity_cutoff)
        amps = amps / np.linalg.norm(amps)
        if p.mode == "expectation":
            hb, ha = _apply_h(h, bits, amps, trace)
            energy = float(sparse_vdot(bits, amps, hb, ha).real)
            trace.count(min(bits.size, hb.size))
        else:
            eig = solver.solve(bits)
            energy = eig.value
            if t < p.iters:
                hb, ha = _apply_h(h, bits, amps, trace)
        trace.add(t, bits.size, energy, t0)

    # p.iters >= 1, so a row reported the energy and, in diagonalize_support mode, set eig
    trace.finish(energy, bits.size, None if eig is None else eig.converged)
    return energy, trace, bits


def _apply_h(h: PauliSum, bits: np.ndarray, amps: np.ndarray, trace: SolverTrace):
    """H phi as (bits, amps) for phi = (bits, amps), counted."""
    trace.count(bits.size * len(h))
    return apply_sum_to_vector(h, bits, amps)


# -- convergence-theory constants --------------------------------------------


@dataclass
class TpmTheoryConstants:
    gamma: float
    delta: float
    chi: float
    epsilon: float
    lambda1: float
    k_star: float
    l_star: float
    rho: float
    eta: float
    xi_star: float
    xi_star_bound: float
    xi_sequence: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def xi_deviation_bound(self, t: np.ndarray) -> np.ndarray:
        """e^{-t gamma / 2} / sqrt(delta), the guaranteed contraction."""
        return np.exp(-np.asarray(t, dtype=float) * self.gamma / 2) / math.sqrt(self.delta)


def xi_recursion(gamma: float, rho: float, xi0: float, t_max: int) -> np.ndarray:
    """xi_{t} = ((1-gamma) xi + rho) / (1 - rho (1-gamma) xi), from xi0."""
    out = np.empty(t_max + 1)
    out[0] = xi0
    x = xi0
    for t in range(1, t_max + 1):
        x = ((1 - gamma) * x + rho) / (1 - rho * (1 - gamma) * x)
        out[t] = x
    return out


def tpm_theory(
    gamma: float,
    delta: float,
    chi: float,
    epsilon: float,
    lambda1: float,
    k: float | None = None,
    xi_terms: int = 0,
) -> TpmTheoryConstants:
    """Evaluate the provable-convergence constants.

    k_star = (chi / gamma^2) * max(64 / delta, 9 lambda1 / epsilon) and
    l_star = (1 / gamma) * log(k_star gamma^2 / (delta chi)).  rho and the
    xi recursion are computed at k = k_star unless an explicit cutoff k is
    supplied.  These are constants only; nobody runs k_star ~ 1e23.
    """
    for name, val in (("gamma", gamma), ("delta", delta)):
        if not 0 < val <= 1:
            raise ValueError(f"{name} must lie in (0, 1]")
    if chi < 1:
        raise ValueError("chi must be >= 1")
    if epsilon <= 0 or lambda1 <= 0:
        raise ValueError("epsilon and lambda1 must be positive")

    k_star = (chi / gamma**2) * max(64.0 / delta, 9.0 * lambda1 / epsilon)
    l_star = (1.0 / gamma) * math.log(k_star * gamma**2 / (delta * chi))
    k_eff = float(k) if k is not None else k_star
    rho = math.sqrt(chi / k_eff)
    eta = gamma / (8 * rho) if rho > 0 else math.inf

    disc = gamma**2 - 4 * (1 - gamma) * rho**2
    xi_star = (
        (gamma - math.sqrt(disc)) / (2 * rho * (1 - gamma))
        if disc >= 0 and rho > 0 and gamma < 1
        else 0.0
    )
    xi0 = math.sqrt(max(1 - delta, 0.0) / delta)
    seq = xi_recursion(gamma, rho, xi0, xi_terms) if xi_terms > 0 else np.array([xi0])
    return TpmTheoryConstants(
        gamma=gamma,
        delta=delta,
        chi=chi,
        epsilon=epsilon,
        lambda1=lambda1,
        k_star=k_star,
        l_star=l_star,
        rho=rho,
        eta=eta,
        xi_star=xi_star,
        xi_star_bound=2 * rho / gamma,
        xi_sequence=seq,
    )
