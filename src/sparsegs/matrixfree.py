"""Sparse iterative solvers that avoid per-iteration diagonalization:
diagonal ranking, truncated Arnoldi, and the truncated power method with
its convergence-theory constants."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .eigensolver import EigResult, lowest_eigenpair
from .paulis import Configuration, PauliSum, SparseVector, apply_sum_to_vector, diagonal_element
from .subspace import ConfigurationBasis, connected_bits, project_fast
from .trace import (
    DEFAULT_DIM_CAP,
    STATUS_CONVERGED,
    STATUS_MAX_ITERS,
    STATUS_STALLED,
    BudgetExceeded,
    FlopCounter,
    SolverTrace,
)


# -- diagonal ranking --------------------------------------------------------


@dataclass(frozen=True)
class DiagRankParams:
    working_cap: int  # D
    reservoir_cap: int  # R
    iters: int  # T
    per_iteration_energies: bool = False  # diagnostic diagonalizations
    dim_cap: int = DEFAULT_DIM_CAP
    eig_seed: int = 0

    def __post_init__(self):
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
    each iteration.  Only the final working set is diagonalized (the
    per-iteration energies are an optional diagnostic).
    """
    if x0.n_qubits != h.n_qubits:
        raise ValueError("qubit-count mismatch")
    n = h.n_qubits
    flops = FlopCounter()
    trace = SolverTrace(solver="diag-ranking")
    trace.status = STATUS_MAX_ITERS

    res_bits = np.array([x0.bits], dtype=np.uint64)
    res_energy = np.array([diagonal_element(h, np.uint64(x0.bits))], dtype=float)
    work_bits = res_bits.copy()

    for mu in range(p.iters):
        t0 = time.perf_counter()
        reachable = connected_bits(h, np.sort(work_bits))
        flops.add(work_bits.size * len(h))
        new_bits = reachable[~np.isin(reachable, res_bits)]
        if new_bits.size:
            new_energy = np.asarray(diagonal_element(h, new_bits), dtype=float)
            flops.add(new_bits.size * len(h))
            res_bits = np.concatenate([res_bits, new_bits])
            res_energy = np.concatenate([res_energy, new_energy])
        order = _rank_by_energy(res_bits, res_energy)
        next_work = res_bits[order[: p.working_cap]]
        res_keep = order[: p.reservoir_cap]
        res_bits, res_energy = res_bits[res_keep], res_energy[res_keep]

        energy = float("nan")
        if p.per_iteration_energies:
            energy = _final_energy(h, next_work, n, p.eig_seed, flops).value
        trace.add(
            iteration=mu,
            subspace_dim=int(next_work.size),
            energy=energy,
            wall_ms=(time.perf_counter() - t0) * 1e3,
            new_configs=int(new_bits.size),
            flops=flops.count,
        )
        unchanged = new_bits.size == 0 and np.array_equal(next_work, work_bits)
        work_bits = next_work
        if unchanged:
            trace.status = STATUS_STALLED
            break

    if work_bits.size > p.dim_cap:
        raise BudgetExceeded(f"working set {work_bits.size} exceeds cap {p.dim_cap}")
    eig = _final_energy(h, work_bits, n, p.eig_seed, flops)
    trace.final_energy = eig.value
    trace.final_dim = int(work_bits.size)
    trace.total_flops = flops.count
    return eig, trace


def _final_energy(h, bits, n, seed, flops: FlopCounter) -> EigResult:
    basis = ConfigurationBasis([int(b) for b in bits], n)
    proj = project_fast(h, basis)
    eig = lowest_eigenpair(proj, seed=seed)
    flops.add((1 + eig.iterations) * proj.rows.nnz)
    return eig


# -- truncated Arnoldi -------------------------------------------------------


@dataclass(frozen=True)
class TruncArnoldiParams:
    new_config_cap: int  # M
    iters: int = 200  # T
    per_iteration_energies: bool = False
    dim_cap: int = DEFAULT_DIM_CAP
    eig_seed: int = 0
    breakdown_tol: float = 1e-12

    def __post_init__(self):
        if self.new_config_cap < 1:
            raise ValueError("new_config_cap must be >= 1")
        if self.iters < 1:
            raise ValueError("iters must be >= 1")


def run_truncated_arnoldi(
    h: PauliSum, x0: Configuration, p: TruncArnoldiParams
) -> tuple[EigResult, SolverTrace, ConfigurationBasis]:
    """Matrix-free Arnoldi with per-iteration truncation.

    Orthogonalization against every stored vector happens before the
    truncation to the heaviest new_config_cap amplitudes (modified
    Gram-Schmidt plus one reorthogonalization pass; Krylov bases are
    exponentially ill-conditioned, so the order matters).  The final
    energy comes from projecting onto the union of iterate supports and
    diagonalizing there.
    """
    if x0.n_qubits != h.n_qubits:
        raise ValueError("qubit-count mismatch")
    n = h.n_qubits
    flops = FlopCounter()
    trace = SolverTrace(solver="tarnoldi")
    trace.status = STATUS_MAX_ITERS

    vecs = [SparseVector.basis_state(x0)]
    union = np.array([x0.bits], dtype=np.uint64)

    for it in range(p.iters):
        t0 = time.perf_counter()
        u = apply_sum_to_vector(h, vecs[-1])
        flops.add(len(vecs[-1]) * len(h))
        for _ in range(2):  # MGS + one reorthogonalization pass
            for v in vecs:
                ov = v.dot(u)
                flops.add(min(len(v), len(u)) * 2)
                if ov != 0:
                    u = u.add(v, factor=-ov)
        u = u.truncate_top(p.new_config_cap)
        nrm = u.norm()
        if nrm <= p.breakdown_tol:
            trace.status = STATUS_CONVERGED  # invariant subspace reached
            trace.add(
                iteration=it,
                subspace_dim=int(union.size),
                energy=float("nan"),
                wall_ms=(time.perf_counter() - t0) * 1e3,
                new_configs=0,
                flops=flops.count,
            )
            break
        v_next = u.scaled(1.0 / nrm)
        vecs.append(v_next)
        before = union.size
        union = np.union1d(union, v_next.bits)
        if union.size > p.dim_cap:
            raise BudgetExceeded(f"support union {union.size} exceeds cap {p.dim_cap}")
        energy = float("nan")
        if p.per_iteration_energies:
            energy = _final_energy(h, union, n, p.eig_seed, flops).value
        trace.add(
            iteration=it,
            subspace_dim=int(union.size),
            energy=energy,
            wall_ms=(time.perf_counter() - t0) * 1e3,
            new_configs=int(union.size - before),
            flops=flops.count,
        )

    basis = ConfigurationBasis([int(b) for b in union], n)
    eig = _final_energy(h, union, n, p.eig_seed, flops)
    trace.final_energy = eig.value
    trace.final_dim = len(basis)
    trace.total_flops = flops.count
    return eig, trace, basis


# -- truncated power method --------------------------------------------------


@dataclass(frozen=True)
class TpmParams:
    sparsity_cutoff: int  # k
    iters: int  # L
    shift: float | None = None  # None: coefficient 1-norm + 1
    mode: str = "expectation"  # or "diagonalize_support"
    dim_cap: int = DEFAULT_DIM_CAP
    eig_seed: int = 0

    def __post_init__(self):
        if self.sparsity_cutoff < 1:
            raise ValueError("sparsity cutoff must be >= 1")
        if self.iters < 1:
            raise ValueError("iters must be >= 1")
        if self.mode not in ("expectation", "diagonalize_support"):
            raise ValueError(f"unknown mode {self.mode!r}")


def run_tpm(
    h: PauliSum, start: Configuration | SparseVector, p: TpmParams
) -> tuple[float, SolverTrace, ConfigurationBasis]:
    """Truncated power iteration on A = shift*I - H.

    The shift maps the lowest eigenvalue of H to the largest of A and must
    make A positive definite; anything above the Pauli-coefficient 1-norm
    is a certified choice.  The expectation estimate shift - <phi|A|phi>
    equals the Rayleigh quotient of H and stays above the true ground
    energy; diagonalize_support mode instead projects H onto the support
    of the iterate and diagonalizes, which can only do better.
    """
    one_norm = h.coeff_one_norm()
    shift = p.shift if p.shift is not None else one_norm + 1.0
    if shift <= one_norm:
        raise ValueError(
            f"shift {shift} is not certified positive definite "
            f"(needs > coefficient 1-norm {one_norm})"
        )
    if p.sparsity_cutoff > p.dim_cap:
        raise BudgetExceeded("sparsity cutoff exceeds the dimension cap")
    if isinstance(start, Configuration):
        phi = SparseVector.basis_state(start)
    else:
        phi = start.normalized()
    if phi.n_qubits != h.n_qubits:
        raise ValueError("qubit-count mismatch")

    n = h.n_qubits
    flops = FlopCounter()
    trace = SolverTrace(solver="tpm")
    trace.status = STATUS_MAX_ITERS
    energy = _rayleigh(h, phi, flops)

    for t in range(1, p.iters + 1):
        t0 = time.perf_counter()
        hphi = apply_sum_to_vector(h, phi)
        flops.add(len(phi) * len(h))
        theta = phi.scaled(shift).add(hphi, factor=-1.0)  # A phi
        omega = theta.truncate_top(p.sparsity_cutoff)
        phi = omega.normalized()
        energy = _rayleigh(h, phi, flops)
        row_energy = energy
        if p.mode == "diagonalize_support":
            eig = _final_energy(h, phi.bits, n, p.eig_seed, flops)
            row_energy = eig.value
        trace.add(
            iteration=t,
            subspace_dim=len(phi),
            energy=row_energy,
            wall_ms=(time.perf_counter() - t0) * 1e3,
            new_configs=len(phi),
            flops=flops.count,
        )

    support = ConfigurationBasis([int(b) for b in phi.bits], n)
    if p.mode == "diagonalize_support":
        eig = _final_energy(h, phi.bits, n, p.eig_seed, flops)
        final = eig.value
    else:
        final = energy
    trace.final_energy = final
    trace.final_dim = len(support)
    trace.total_flops = flops.count
    return final, trace, support


def _rayleigh(h: PauliSum, phi: SparseVector, flops: FlopCounter) -> float:
    hphi = apply_sum_to_vector(h, phi)
    flops.add(len(phi) * len(h) + min(len(phi), len(hphi)))
    return float(phi.dot(hphi).real)


# -- convergence-theory constants --------------------------------------------


@dataclass
class TpmTheoryConstants:
    gamma: float
    delta: float
    chi: float
    chi_a: float | None
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


def tangent(v: np.ndarray, psi: np.ndarray) -> float:
    """T(v) = ||(I - psi psi^dag) v|| / |<psi|v>|."""
    ov = complex(np.vdot(psi, v))
    if ov == 0:
        return math.inf
    perp = v - ov * psi
    return float(np.linalg.norm(perp) / abs(ov))


def tpm_theory(
    gamma: float,
    delta: float,
    chi: float,
    epsilon: float,
    lambda1: float,
    chi_a: float | None = None,
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
        chi_a=chi_a,
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
