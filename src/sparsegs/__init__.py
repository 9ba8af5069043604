"""Synthetic sparse-ground-state Hamiltonians and the solver zoo that
benchmarks against them."""

__version__ = "0.1.0"

from .builder import (
    ConstructionParams,
    CoreBlockParams,
    GroundStateCertificate,
    assemble_global,
    build_core_block,
    build_main_patch,
    build_warmup_patch,
    level_crossing_sweep,
    load_bundle,
    partial_ground_states,
    save_bundle,
    verify_certificate,
)
from .eigensolver import EigResult, dense_lowest, lanczos_lowest, lowest_eigenpair
from .lattice import (
    LayoutGraph,
    PatchEmbedding,
    build_heavy_hex,
    build_path,
    classify_edges,
    embed_patches,
)
from .matrixfree import (
    DiagRankParams,
    TpmParams,
    TpmTheoryConstants,
    TruncArnoldiParams,
    run_diag_ranking,
    run_tpm,
    run_truncated_arnoldi,
    tpm_theory,
)
from .paulis import (
    Configuration,
    PauliString,
    PauliSum,
    apply_sum_to_vector,
    conjugate_by_x_layer,
    decompose_dense_block,
)
from .sci import SciParams, TrimParams, run_sci, select_asci, select_threshold, select_trimci
from .skqd import ShotRecord, SkqdParams, default_dt, run_skqd, support_coverage
from .subspace import ProjectedMatrix, connectivity_filter, project_fast
from .trace import BudgetExceeded, SolverTrace
