"""Per-iteration solver records and CSV emission shared by all solvers."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path


class BudgetExceeded(RuntimeError):
    """Raised when a run would cross the subspace-dimension hard cap."""


DEFAULT_DIM_CAP = 10**7

STATUS_CONVERGED = "converged"
STATUS_STALLED = "stalled"
STATUS_MAX_ITERS = "max_iters"
STATUS_UNCONVERGED = "unconverged"  # the final eigenpair missed its tolerance


@dataclass
class TraceRow:
    iteration: int
    subspace_dim: int
    energy: float
    wall_ms: float
    new_configs: int
    flops: float = 0.0


@dataclass
class SolverTrace:
    solver: str
    rows: list[TraceRow] = field(default_factory=list)
    status: str = STATUS_MAX_ITERS
    final_energy: float = float("nan")
    final_dim: int = 0
    total_flops: float = 0.0

    def add(self, **kw) -> None:
        self.rows.append(TraceRow(**kw))

    def write_csv(self, path: Path | str) -> None:
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["variant", "iter", "subspace_dim", "energy", "wall_ms", "status", "flops"])
            for r in self.rows:
                w.writerow([self.solver, r.iteration, r.subspace_dim, repr(r.energy),
                            f"{r.wall_ms:.3f}", self.status, repr(r.flops)])


class FlopCounter:
    """Multiply-add accounting used by the matrix-free solvers.

    The convention (documented, not canonical): one flop per sparse
    accumulation when applying the Hamiltonian, per term in a dot
    product, and per stored entry of the final projection, once for
    building it and once per operator application of its eigensolve.
    """

    def __init__(self):
        self.count = 0.0

    def add(self, n: float) -> None:
        self.count += float(n)
