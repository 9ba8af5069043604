"""Lowest-eigenpair solvers and `BasisSolver`, the one project-and-solve
step every solver calls, which decides what a run's solves reuse.

`lowest_eigenpair` sends a block of dimension at most `DENSE_CAP` to dense
LAPACK (`dense_lowest`, which doubles as the oracle) and anything larger to
SciPy's ARPACK (`lanczos_lowest`), the implicitly restarted Lanczos method
of Lehoucq, Sorensen & Yang, *ARPACK Users' Guide* (SIAM, 1998).  Both
run in the matrix's dtype: a real H projects to a real symmetric matrix,
which goes to real `eigh` and to ARPACK's real symmetric driver `dsaupd`;
a complex one to complex `eigh` and `znaupd`.  The cutoff is where `eigsh`
overtook complex `eigh` on flagship projections.  A projection is a
`subspace.ProjectedMatrix`, its upper triangle: ARPACK applies it through
its `@`, and the dense path reads its `toarray()`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .subspace import project_fast
from .trace import SolverTrace

DENSE_CAP = 256
DEGENERACY_REL_TOL = 1e-10
RITZ_PAIRS = 20  # eigsh's default Lanczos basis size for k=1
RITZ_RANK_TOL = 1e-10


@dataclass
class EigResult:
    value: float
    vector: np.ndarray
    iterations: int
    residual: float
    converged: bool = True
    degenerate: bool = False


def dense_lowest(m) -> EigResult:
    """Exact lowest eigenpair by full Hermitian diagonalization of m, a
    dense array or anything with `toarray()` (a ProjectedMatrix, a SciPy
    sparse matrix).

    Applies no iterative operator, so `iterations` is 0; `degenerate` flags
    a gap to the second eigenvalue below DEGENERACY_REL_TOL of the spectral
    scale.
    """
    if hasattr(m, "toarray"):  # a ProjectedMatrix or a SciPy sparse matrix
        m = m.toarray()
    m = np.asarray(m)
    if m.shape[0] > DENSE_CAP:
        raise ValueError(f"dense path capped at {DENSE_CAP}, got dim {m.shape[0]}")
    vals, vecs = np.linalg.eigh(m)
    v = vecs[:, 0]
    resid = float(np.linalg.norm(m @ v - vals[0] * v))
    scale = max(1.0, float(np.abs(vals).max()))
    degen = m.shape[0] > 1 and (vals[1] - vals[0]) < DEGENERACY_REL_TOL * scale
    return EigResult(float(vals[0]), v, 0, resid, True, degen)


def lanczos_lowest(
    m,
    tol: float = 1e-10,
    max_iter: int = 300,
    seed: int = 0,
) -> EigResult:
    """Lowest eigenpair by ARPACK (`eigsh`, k=1, smallest algebraic).

    The start vector is drawn from the seeded generator, so identical
    inputs and seed give identical iterates.  `tol` is ARPACK's relative
    tolerance on the Ritz residual and `max_iter` caps its restarts.
    `iterations` counts operator applications.  When the pair has not
    converged, Rayleigh-Ritz over the last RITZ_PAIRS vectors the operator
    was applied to (ARPACK's basis size) gives the returned pair, flagged;
    its value is the Rayleigh quotient of the returned vector, so it is
    still an upper bound on the lowest eigenvalue.  `degenerate` is never
    set: a single-vector Krylov space holds only one copy of a degenerate
    eigenvalue.
    """
    import scipy.sparse.linalg as spla  # on first use: dense-only runs never load it

    dim = m.shape[0]
    if dim == 0:
        raise ValueError("empty matrix")
    if dim < 3:  # ARPACK needs k < dim - 1 for complex operands, k < dim for real
        return dense_lowest(m)

    applied = 0
    pairs = deque(maxlen=RITZ_PAIRS)  # the last (x, Mx) pairs

    def matvec(x):
        nonlocal applied
        x = np.ravel(x)
        y = m @ x
        applied += 1
        pairs.append((x.copy(), y))
        return y

    op = spla.LinearOperator((dim, dim), matvec=matvec, dtype=m.dtype)
    rng = np.random.default_rng(seed)
    v0 = rng.standard_normal(dim).astype(m.dtype)
    try:
        vals, vecs = spla.eigsh(op, k=1, which="SA", v0=v0, tol=tol, maxiter=max_iter)
        value, vec, converged = float(vals[0]), vecs[:, 0], True
        vec = vec / np.linalg.norm(vec)
        mv = m @ vec
    except spla.ArpackNoConvergence:
        vec, mv = _rayleigh_ritz(*map(np.column_stack, zip(*pairs)))
        value, converged = float(np.vdot(vec, mv).real), False
    resid = float(np.linalg.norm(mv - value * vec))
    return EigResult(value, vec, applied, resid, converged, False)


def _rayleigh_ritz(x: np.ndarray, mx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lowest Ritz vector v of span(x) and Mv, given the columns of x and Mx.

    An SVD orthonormalizes x; directions with singular values below
    RITZ_RANK_TOL of the largest are dropped as numerically dependent.
    """
    u, sv, wh = np.linalg.svd(x, full_matrices=False)
    keep = sv > RITZ_RANK_TOL * sv[0]
    q, mq = u[:, keep], mx @ (wh[keep].conj().T / sv[keep])
    _, c = np.linalg.eigh(q.conj().T @ mq)  # reads one triangle: the Hermitian part
    return q @ c[:, 0], mq @ c[:, 0]


def lowest_eigenpair(m) -> EigResult:
    """Dense LAPACK at or below DENSE_CAP, ARPACK beyond; m is a
    ProjectedMatrix, or any matrix with `shape`, `dtype`, `@` and
    `toarray()`."""
    if m.shape[0] <= DENSE_CAP:
        return dense_lowest(m)
    return lanczos_lowest(m)


class BasisSolver:
    """The project-and-solve step of one run: H projected onto a basis and
    its lowest eigenpair, the vector indexed like the basis.  A run makes
    one and calls `solve` for every basis it diagonalizes; the solver
    keeps the last basis, its projection and its eigenpair, and decides
    what a solve reuses.

    A basis equal to the last one returns the last eigenpair and counts no
    flops.  Any other is checked against the run's `dim_cap`, projected by
    updating the last projection's upper rows (the same matrix, bit for
    bit, as a fresh one), and solved; the old projection is released before
    the eigensolve, and the whole projection's nonzeros, once plus once per
    operator application, count as the run's flops.  The last vector does
    not start ARPACK: on the certified instances it can miss the new ground
    state entirely, and ARPACK then converges to an excited state."""

    def __init__(self, h, trace: SolverTrace):
        self.h, self.trace = h, trace
        self._last = None  # (bits, projection's upper rows, eigenpair) of the last solve

    def solve(self, bits: np.ndarray) -> EigResult:
        if self._last is not None and np.array_equal(bits, self._last[0]):
            return self._last[2]
        self.trace.check_dim(bits.size, "basis")
        last, self._last = self._last, None
        proj = project_fast(self.h, bits, None if last is None else last[:2])
        del last  # the eigensolve holds no projection but the new one
        eig = lowest_eigenpair(proj)
        self.trace.count((1 + eig.iterations) * proj.nnz)
        self._last = bits, proj.rows, eig
        return eig
