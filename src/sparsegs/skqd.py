"""Classical emulation of sample-based Krylov diagonalization (Yu et al.,
"Quantum-centric algorithm for sample-based Krylov diagonalization").

Exact Krylov states e^{-iHk dt}|x0> live in the reachable subspace R(x0),
the closure of x0 under H's nonzero matrix elements, which H maps into
itself.  They are computed there, on a |R|-vector, by the Chebyshev
propagator of Tal-Ezer & Kosloff (J. Chem. Phys. 81, 3967 (1984)) for H_R,
H projected onto R and held as its upper triangle (a `ProjectedMatrix`).
H_R is Hermitian, so its spectrum lies in the interval [c - r, c + r]
spanned by its Gershgorin discs; with a = r dt, the series
of e^{-iH_R k dt} in the Chebyshev polynomials of (H_R - c)/r has
coefficients 2 (-i)^j J_j(ka) and is cut at the first K(ka) terms whose
tail 2 sum_{j >= K} |J_j(ka)| is at most 2^-53.  All d - 1 evolved states
are combinations of the same vectors T_j((H_R - c)/r)|x0>, so one
recurrence in H_R's own dtype (real on every real instance) gives them all
for K((d - 1) a) - 1 = (d - 1) a + O(a^{1/3}) sparse products.  The
tests' independent oracle, SciPy's `expm_multiply` on the full 2^n
statevector, lives with the tests.  Shots are drawn per state from the
Born distribution with a splittable seeded generator, and the pooled
configurations are filtered, projected, and diagonalized classically.  A
pool the filter empties falls back to x0's diagonal energy, with a warning
only when it held two or more configurations: the first pool, x0 alone,
is always emptied.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .builder import GroundStateCertificate
from .eigensolver import BasisSolver, EigResult
from .paulis import Configuration, PauliSum, diagonal_element, unique_bits
from .subspace import ProjectedMatrix, connectivity_filter, project_fast, reachable_bits
from .trace import DEFAULT_DIM_CAP, SolverTrace

_FLIP_BLOCK = 1 << 18  # (shot, qubit) bit-flip draws held at a time: 2 MB of float64


@dataclass(frozen=True)
class SkqdParams:
    krylov_dim: int  # d
    shots_per_state: int  # M
    dt_multiplier: float = 25.0  # dt = default_dt(h, dt_multiplier)
    rng_seed: int = 0
    bitflip_probability: float = 0.0  # optional noise channel on samples
    dim_cap: int = DEFAULT_DIM_CAP

    def __post_init__(self):
        if self.krylov_dim < 1:
            raise ValueError("krylov_dim must be >= 1")
        m = self.shots_per_state
        if isinstance(m, bool) or not isinstance(m, int) or m < 1:
            raise ValueError(f"shots_per_state must be an int >= 1, not {m!r}")
        if not 0.0 <= self.bitflip_probability < 1.0:
            raise ValueError("bitflip probability must lie in [0, 1)")


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


def default_dt(h: PauliSum, multiplier: float = 25.0) -> float:
    """multiplier * pi over the Pauli-coefficient 1-norm (an upper bound on
    the spectral norm, which is out of reach classically at scale)."""
    if multiplier <= 0:
        raise ValueError("multiplier must be positive")
    one_norm = h.coeff_one_norm()
    if one_norm == 0.0:
        raise ValueError("empty Hamiltonian has no timescale")
    return multiplier * np.pi / one_norm


def _chebyshev_order(a: float) -> int:
    """Smallest K with 2 sum_{k >= K} |J_k(a)| <= 2^-53, for a >= 0: the
    first K terms of the Chebyshev series of e^{-ia x} leave a tail of at
    most 2^-53 on [-1, 1].  The sum runs to e a + 64, past which
    |J_k(a)| <= (a/2)^k / k! (DLMF 10.14.4) adds less than 2^-63."""
    from scipy.special import jv  # on first use: every command pays the package import

    k = np.arange(int(np.e * a) + 64)
    tail = 2 * np.cumsum(np.abs(jv(k, a))[::-1])[::-1]
    return int(np.argmax(tail <= 2.0**-53))


class ChebyshevPropagator:
    """The Krylov states e^{-iH k dt} v, k = 0, 1, ..., for a Hermitian
    sparse matrix H held as a ProjectedMatrix, by the Chebyshev expansion
    of Tal-Ezer & Kosloff (J. Chem. Phys. 81, 3967 (1984)).

    Every eigenvalue of H lies in its Gershgorin interval [c - r, c + r],
    so H~ = (H - c)/r has its spectrum in [-1, 1], and with a = r dt,
    e^{-iH k dt} = e^{-ick dt} (J_0(ka) + 2 sum_{j >= 1} (-i)^j J_j(ka) T_j(H~)).
    Every state is a combination of the same vectors T_j(H~) v, so one
    recurrence T_{j+1} = 2 H~ T_j - T_{j-1} serves them all: state k takes
    its first K(ka) terms (`_chebyshev_order`), and d states cost
    K((d - 1) a) - 1 sparse products, each counted at the whole matrix's
    nonzeros.  The recurrence runs in the dtype of H
    and v, so a real H evolves a real v in real arithmetic; the complex
    factors (-i)^j and e^{-ick dt} are applied to two real partial sums, one
    over even j and one over odd j.  H is used as given, neither copied nor
    changed.  When r dt = 0 every state is v times the phase e^{-ick dt}.
    """

    def __init__(self, h: ProjectedMatrix, dt: float):
        radius = h.abs_row_sums()
        diag = h.diagonal()
        radius -= np.abs(diag)
        lo, hi = float((diag.real - radius).min()), float((diag.real + radius).max())
        self.center, self.radius = (hi + lo) / 2, (hi - lo) / 2
        self.dt = dt
        self._h = h

    def krylov_states(self, phi0: np.ndarray, d: int):
        """Yield (e^{-iH k dt} phi0, flops) for k = 0, ..., d - 1, where
        flops counts the sparse products run since the state before, by
        SolverTrace's convention.  State k is yielded as soon as the
        recurrence has passed its K(ka) terms."""
        from scipy.special import jv  # on first use, as in _chebyshev_order

        a = self.radius * self.dt
        orders = [_chebyshev_order(k * a) for k in range(d)]
        # (-i)^j = (-1)^{floor(j/2)} for even j and -i (-1)^{floor(j/2)} for odd j
        signs = np.array([1.0, 1.0, -1.0, -1.0])
        dtype = np.result_type(self._h.dtype, phi0.dtype)
        pending = []  # (k, the weights of state k's terms, its even-j and odd-j sums)
        for k in range(1, d):
            w = 2 * jv(np.arange(orders[k]), k * a) * signs[np.arange(orders[k]) % 4]
            w[0] /= 2  # the j = 0 term has no factor 2
            pending.append((k, w, np.zeros((2, phi0.size), dtype)))
        h, c, r = self._h, self.center, self.radius
        prev, cur = None, phi0
        yield phi0, 0.0
        for j in range(orders[-1]):
            if j == 1:
                prev, cur = cur, (h @ cur - c * cur) / r
            elif j > 1:
                nxt = h @ cur
                nxt -= c * cur
                nxt *= 2 / r
                nxt -= prev
                prev, cur = cur, nxt
            for _, w, sums in pending:
                if j < w.size:
                    sums[j % 2] += w[j] * cur
            while pending and pending[0][1].size <= j + 1:
                k, _, (even, odd) = pending.pop(0)
                yield (np.exp(-1j * c * k * self.dt) * (even - 1j * odd),
                       float((orders[k] - orders[k - 1]) * h.nnz))


def _sample_indices(v: np.ndarray, shots: int, rng) -> np.ndarray:
    """Born-rule draws of indices into v.  A draw above the rounded cdf[-1]
    goes to the last index with nonzero probability, not past the end."""
    probs = np.abs(v) ** 2
    probs /= probs.sum()
    cdf = np.cumsum(probs)
    draws = rng.random(shots)
    return np.minimum(np.searchsorted(cdf, draws), np.flatnonzero(probs)[-1])


def _flip_masks(shots: int, n: int, probability: float, rng) -> np.ndarray:
    """One uint64 mask per shot whose bit q is set when qubit q flips, each
    flip an independent draw below `probability`.  The draws come in
    blocks of about _FLIP_BLOCK (shot, qubit) pairs, row by row, so the
    generator's stream, and every mask, is that of one shots x n draw."""
    bit = np.uint64(1) << np.arange(n, dtype=np.uint64)
    rows = max(1, _FLIP_BLOCK // n)
    masks = np.empty(shots, dtype=np.uint64)
    for lo in range(0, shots, rows):
        flips = rng.random((min(rows, shots - lo), n)) < probability
        masks[lo : lo + flips.shape[0]] = (flips * bit).sum(axis=1)
    return masks


def _propagator(h: PauliSum, x0: Configuration, p: SkqdParams, dt: float):
    """(states, propagator): the reachable subspace of x0, sorted, which
    indexes the evolved vector, and the Chebyshev propagator of time step
    dt on it, whose `krylov_states` yields the Krylov states with their
    costs."""
    if not h.is_hermitian():
        raise ValueError("exact evolution needs a Hermitian H (real coefficients)")
    states = reachable_bits(h, np.array([x0.bits], dtype=np.uint64), p.dim_cap)
    return states, ChebyshevPropagator(project_fast(h, states), dt)


def run_skqd(
    h: PauliSum, x0: Configuration, p: SkqdParams
) -> tuple[EigResult, SolverTrace, ShotRecord]:
    """Emulated SKQD: evolve, sample, pool, filter, project, diagonalize.

    The trace reports the energy after each Krylov state's samples join
    the cumulative pool; the returned eigenpair is the final entry.  Flops
    follow SolverTrace's convention: each time step's `flops`, and each
    projection's nonzeros once plus once per eigensolver application.  One
    `BasisSolver` makes every solve, so a kept pool equal to the one
    before is not solved again.
    """
    if x0.n_qubits != h.n_qubits:
        raise ValueError("qubit-count mismatch")
    n = h.n_qubits
    dt = default_dt(h, p.dt_multiplier)

    states, prop = _propagator(h, x0, p, dt)
    seed_seq = np.random.SeedSequence(p.rng_seed)
    children = seed_seq.spawn(p.krylov_dim)
    record = ShotRecord(n_qubits=n)
    trace = SolverTrace("skqd", p.dim_cap)
    solver = BasisSolver(h, trace)

    phi0 = (states == np.uint64(x0.bits)).astype(float)
    pool = np.array([x0.bits], dtype=np.uint64)

    t0 = time.perf_counter()  # a row's time includes the evolution to its state
    for k, (phi, flops) in enumerate(prop.krylov_states(phi0, p.krylov_dim)):
        trace.count(flops)
        rng = np.random.default_rng(children[k])
        samples = states[_sample_indices(phi, p.shots_per_state, rng)]
        if p.bitflip_probability > 0.0:
            samples ^= _flip_masks(samples.size, n, p.bitflip_probability, rng)
        uniq, counts = np.unique(samples, return_counts=True)
        record.histograms.append({int(b): int(c) for b, c in zip(uniq, counts)})
        record.state_seeds.append(int(children[k].entropy))
        pool = unique_bits(np.concatenate((pool, uniq)))
        trace.check_dim(pool.size, "pool")

        kept = connectivity_filter(h, pool)
        if not kept.size:
            if pool.size > 1:  # a lone configuration, as the first pool {x0}, is always dropped
                warnings.warn("connectivity filter removed the whole pool; "
                              "falling back to the initial configuration's diagonal energy")
            e0 = float(diagonal_element(h, np.uint64(x0.bits)))
            eig = EigResult(e0, np.ones(1, dtype=complex), 0, 0.0, True, False)
            dim_k = 1
        else:
            eig = solver.solve(kept)
            dim_k = kept.size
        trace.add(k, dim_k, eig.value, t0)
        t0 = time.perf_counter()

    trace.finish(eig.value, dim_k, eig.converged)
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
