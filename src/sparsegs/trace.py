"""The one per-run record every solver keeps: its trace rows, its flop
count, its dimension budget and its final fields, and their CSV form."""

from __future__ import annotations

import csv
import time
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
    flops: float = 0.0


@dataclass
class SolverTrace:
    """One solver run: rows, running flop count, `dim_cap` budget, outcome.

    Flops are multiply-add accounting (the convention is documented, not
    canonical): one flop per sparse accumulation when applying the
    Hamiltonian, per term in a dot product, and per stored entry of a
    projection, once for building it and once per operator application of
    its eigensolve.  `flops` is kept a Python float so `trace.csv` writes
    its repr as a plain number.
    """

    solver: str
    dim_cap: int = DEFAULT_DIM_CAP
    rows: list[TraceRow] = field(default_factory=list)
    status: str = STATUS_MAX_ITERS
    flops: float = 0.0
    final_energy: float = float("nan")
    final_dim: int = 0
    total_flops: float = 0.0
    converged: bool | None = None  # the final eigenpair's flag; None without one

    def count(self, n: float) -> None:
        self.flops += float(n)

    def check_dim(self, n: int, what: str) -> None:
        """Raise BudgetExceeded when `n` configurations would cross `dim_cap`."""
        if n > self.dim_cap:
            raise BudgetExceeded(f"{what} of {n} exceeds cap {self.dim_cap}")

    def add(self, iteration: int, subspace_dim: int, energy: float, t0: float) -> None:
        """Append a row timed from `perf_counter` reading `t0`, stamped
        with the flops so far."""
        self.rows.append(TraceRow(iteration, subspace_dim, energy,
                                  (time.perf_counter() - t0) * 1e3, self.flops))

    def finish(self, energy: float, dim: int, converged: bool | None = None) -> None:
        """Record the final fields; an unconverged final eigenpair sets `unconverged`."""
        self.final_energy = energy
        self.final_dim = dim
        self.total_flops = self.flops
        self.converged = None if converged is None else bool(converged)
        if self.converged is False:
            self.status = STATUS_UNCONVERGED

    def write_csv(self, path: Path | str) -> None:
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["variant", "iter", "subspace_dim", "energy", "wall_ms", "status", "flops"])
            for r in self.rows:
                w.writerow([self.solver, r.iteration, r.subspace_dim, repr(r.energy),
                            f"{r.wall_ms:.3f}", self.status, repr(r.flops)])
