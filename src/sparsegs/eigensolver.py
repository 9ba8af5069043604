"""Lowest-eigenpair solvers and the one dispatch every solver calls.

`lowest_eigenpair` sends a block of dimension at most `DENSE_CAP` to dense
LAPACK (`dense_lowest`, which doubles as the oracle) and anything larger to
SciPy's ARPACK (`lanczos_lowest`), the implicitly restarted Lanczos method
of Lehoucq, Sorensen & Yang, *ARPACK Users' Guide* (SIAM, 1998).  The
cutoff is where `eigsh` overtakes complex `eigh` on flagship projections
(ROADMAP open item 3 has the timings).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .subspace import ProjectedMatrix

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


def _matrix(m):
    """The array or sparse matrix behind m."""
    return m.rows if isinstance(m, ProjectedMatrix) else m


def dense_lowest(m) -> EigResult:
    """Exact lowest eigenpair by full Hermitian diagonalization.

    Applies no iterative operator, so `iterations` is 0; `degenerate` flags
    a gap to the second eigenvalue below DEGENERACY_REL_TOL of the spectral
    scale.
    """
    m = _matrix(m)
    if sp.issparse(m):
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
    m = _matrix(m)
    dim = m.shape[0]
    if dim == 0:
        raise ValueError("empty matrix")
    if dim < 3:  # ARPACK needs k < dim - 1 for complex operands
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


def lowest_eigenpair(m, tol: float = 1e-10, seed: int = 0) -> EigResult:
    """Dense LAPACK at or below DENSE_CAP, ARPACK beyond."""
    dim = _matrix(m).shape[0]
    if dim <= DENSE_CAP:
        return dense_lowest(m)
    return lanczos_lowest(m, tol=tol, seed=seed)
