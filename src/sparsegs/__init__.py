"""Synthetic sparse-ground-state Hamiltonians and the solver zoo that
benchmarks against them."""

__version__ = "0.1.0"

from .builder import (
    ConstructionParams,
    GroundStateCertificate,
    assemble_global,
    load_bundle,
    save_bundle,
    verify_certificate,
)
from .eigensolver import EigResult
from .lattice import PatchEmbedding, build_heavy_hex, build_path, embed_patches
from .matrixfree import (
    DiagRankParams,
    TpmParams,
    TruncArnoldiParams,
    run_diag_ranking,
    run_tpm,
    run_truncated_arnoldi,
)
from .paulis import Configuration, PauliString, PauliSum
from .sci import SciParams, TrimParams, run_sci
from .skqd import ShotRecord, SkqdParams, run_skqd, support_coverage
from .trace import BudgetExceeded, SolverTrace
