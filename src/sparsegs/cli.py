"""Benchmark command line: generate instances, run solvers, sweep grids.

Exit codes: 0 success, 2 budget exceeded, 3 invalid input.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import resource
import sys
import time
from dataclasses import fields
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .builder import (
    ConstructionParams,
    assemble_global,
    load_bundle,
    save_bundle,
    verify_certificate,
)
from .lattice import (
    EmbeddingError,
    PatchEmbedding,
    build_heavy_hex,
    build_path,
    count_loose_steps,
    embed_patches,
)
from .matrixfree import (
    DiagRankParams,
    TpmParams,
    TruncArnoldiParams,
    run_diag_ranking,
    run_tpm,
    run_truncated_arnoldi,
)
from .sci import SciParams, TrimParams, run_sci
from .skqd import ShotRecord, SkqdParams, run_skqd, support_coverage
from .trace import DEFAULT_DIM_CAP, BudgetExceeded

EXIT_OK = 0
EXIT_BUDGET = 2
EXIT_INVALID = 3

DEFAULT_GENERATE_SEED = 9  # default routing: few distance-2 steps, coupled padding


def _generate(args) -> int:
    mode = args.mode
    path_len = 16 if mode == "main" else 4
    if args.layout == "heavy-hex":
        g = build_heavy_hex(args.rows, args.cols)
        emb = embed_patches(g, args.patches, path_len, seed=args.seed)
        couple = True
    else:  # path16 or path16-coupled: --layout's choices admit nothing else
        if mode != "main" or args.patches != 1:
            print("path16 layouts are single-patch main-mode reductions", file=sys.stderr)
            return EXIT_INVALID
        g = build_path(16)
        emb = PatchEmbedding((tuple(range(16)),), ())
        couple = args.layout == "path16-coupled"

    mask = int(args.obfuscation_mask, 16) if args.obfuscation_mask else None
    params = ConstructionParams(
        m1=args.m1,
        m2=args.m2,
        j1=args.j1,
        mode=mode,
        obfuscation_seed=args.seed,
        obfuscation_mask=mask,
    )
    h, cert = assemble_global(g, emb, params, couple=couple)
    meta = {
        "layout": args.layout,
        "rows": args.rows,
        "cols": args.cols,
        "mode": mode,
        "n_patches": len(emb.paths),
        "path_len": path_len,
        "coupled": couple,
        "params": {"m1": args.m1, "m2": args.m2, "j1": args.j1},
        "seed": args.seed,
        "embedding": emb.to_json_dict(),
        "layout_graph": g.to_json_dict(),
        "loose_steps": count_loose_steps(g, emb),
        "version": __version__,
    }
    digest = save_bundle(args.out, h, cert, meta)
    print(f"wrote {args.out}")
    print(f"  qubits:        {h.n_qubits}")
    print(f"  pauli terms:   {len(h)}")
    print(f"  support size:  {len(cert.support)}")
    print(f"  gamma0^2:      {cert.initial_overlap_sq():.6e}")
    print(f"  instance hash: {digest}")
    return EXIT_OK


def _info(args) -> int:
    h, cert, meta = load_bundle(args.bundle)
    print(json.dumps({
        "n_qubits": h.n_qubits,
        "pauli_terms": len(h),
        "coeff_one_norm": h.coeff_one_norm(),
        "support_size": len(cert.support),
        "gamma0_sq": cert.initial_overlap_sq(),
        "energy": cert.energy,
        "instance_hash": meta.get("instance_hash"),
        "mode": meta.get("mode"),
        "layout": meta.get("layout"),
    }, indent=1))
    return EXIT_OK


def _verify(args) -> int:
    h, cert, _ = load_bundle(args.bundle)
    rep = verify_certificate(h, cert)
    print(f"residual:  {rep.residual:.3e}")
    print(f"tolerance: {rep.tolerance:.3e}  (1e-7 x coefficient 1-norm)")
    print("PASS" if rep.passed else "FAIL")
    return EXIT_OK if rep.passed else EXIT_INVALID


def _trimci_params(**kw) -> SciParams:
    """TrimCI's SciParams, with the TrimParams fields among `kw` in its `trim`."""
    trim = {f.name: kw.pop(f.name) for f in fields(TrimParams) if f.name in kw}
    return SciParams("trimci", trim=TrimParams(**trim), **kw)


_SCI_FLAGS = [("--eps", float, True, "epsilon"), ("--core-cap", int, False, "core_cap"),
              ("--iters", int, False, "max_iters")]

# The solvers of `solve` and `sweep`: the name of each one's `run_*`
# function, looked up in this module when the run starts (so a wrapper
# bound over the module attribute is the one called), the constructor of
# its parameters, and its flags as (flag, type, required, Params field).
# A bool flag is a switch whose absence leaves the option unset.  The
# Params classes own every default.
_SOLVERS = {
    "cipsi": ("run_sci", partial(SciParams, "cipsi"), _SCI_FLAGS),
    "hci": ("run_sci", partial(SciParams, "hci"), _SCI_FLAGS),
    "asci": ("run_sci", partial(SciParams, "asci"), [
        ("--d-cap", int, True, "d_cap"), ("--core-cap", int, True, "core_cap"),
        ("--iters", int, False, "max_iters")]),
    "trimci": ("run_sci", _trimci_params, [
        ("--eps", float, False, "epsilon"), ("--f", float, False, "expansion_factor"),
        ("--n-subsets", int, True, "n_subsets"),
        ("--keep-per-subset", int, True, "keep_per_subset"),
        ("--core-cap", int, False, "core_cap"), ("--iters", int, False, "max_iters"),
        ("--seed", int, False, "seed"), ("--first-phase", str, False, "first_phase")]),
    "diag-ranking": ("run_diag_ranking", DiagRankParams, [
        ("--d", int, True, "working_cap"), ("--r", int, False, "reservoir_cap"),
        ("--iters", int, False, "iters"),
        ("--per-iteration-energies", bool, False, "per_iteration_energies")]),
    "tarnoldi": ("run_truncated_arnoldi", TruncArnoldiParams, [
        ("--m", int, True, "new_config_cap"), ("--iters", int, False, "iters"),
        ("--per-iteration-energies", bool, False, "per_iteration_energies")]),
    "tpm": ("run_tpm", TpmParams, [
        ("--k", int, True, "sparsity_cutoff"), ("--iters", int, False, "iters"),
        ("--mode", str, False, "mode")]),
    "skqd": ("run_skqd", SkqdParams, [
        ("--d", int, True, "krylov_dim"), ("--shots", int, True, "shots_per_state"),
        ("--dt-multiplier", float, False, "dt_multiplier"), ("--seed", int, False, "rng_seed"),
        ("--bitflip", float, False, "bitflip_probability")]),
}


def _params(solver: str, opts: dict, dim_cap: int):
    """The solver's Params from the options given, keyed by flag name with
    underscores.  An option that is not one of the solver's flags is an
    error, except `seed`, which a sweep gives every run."""
    _, make, flags = _SOLVERS[solver]
    known = {row[0][2:].replace("-", "_"): row for row in flags}
    unknown = sorted(set(opts) - set(known) - {"seed"})
    if unknown:
        raise ValueError(f"{solver} takes no option {', '.join(unknown)}")
    kw = {}
    for key, (_, typ, required, name) in known.items():
        if key in opts:
            if typ is bool and not isinstance(opts[key], bool):  # "false" would read as true
                raise ValueError(f"{solver} option {key} must be true or false")
            kw[name] = opts[key]
        elif required:
            raise ValueError(f"{solver} needs option {key}")
    return make(**kw, dim_cap=dim_cap)


def _summary(solver: str, opts: dict, meta: dict, **run) -> dict:
    """The one result record of `solve` and `sweep`: `run` holds the fields
    a run produced, or a failed run's `status` and `error`, and the fields
    it lacks stay None.  `energy_error` is the final energy minus the
    certified one.  `peak_rss_mb` is the process's peak resident set when
    the record is made: the run's own peak under `solve`, and the worker's
    peak so far under `sweep`.  The instance hash, version and seed make
    the record reproducible."""
    return {
        "solver": solver, "params": opts, "final_energy": None, "energy_error": None,
        "final_dim": None, "status": None, "converged": None, "flops": None, "wall_s": None,
        **run,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,  # KiB on Linux
        "instance_hash": meta.get("instance_hash"), "version": __version__,
        "seed": opts.get("seed", 0),
    }


def _run(h, cert, meta: dict, solver: str, opts: dict, dim_cap: int):
    """Run one solver; returns (summary, trace, shot_record), the last two
    None when the run exceeded its budget and the shot record None except
    for SKQD.  Every run field but SKQD's coverage comes from the trace."""
    t0 = time.perf_counter()
    try:
        params = _params(solver, opts, dim_cap)
        out = globals()[_SOLVERS[solver][0]](h, cert.initial_config, params)
    except BudgetExceeded as e:
        return _summary(solver, opts, meta, status="budget_exceeded", error=str(e)), None, None
    trace, shots = out[1], (out[-1] if isinstance(out[-1], ShotRecord) else None)
    run = {"final_energy": trace.final_energy, "energy_error": trace.final_energy - cert.energy,
           "final_dim": trace.final_dim, "status": trace.status, "converged": trace.converged,
           "flops": trace.flops}
    if shots is not None:
        run["support_coverage"] = int(support_coverage(shots, cert)[-1])
        run["support_size"] = len(cert.support)
    run["wall_s"] = time.perf_counter() - t0
    return _summary(solver, opts, meta, **run), trace, shots


def _solve(args) -> int:
    h, cert, meta = load_bundle(args.bundle)
    opts = {
        k.replace("-", "_"): v
        for k, v in vars(args).items()
        if k not in ("command", "bundle", "out", "solver", "dim_cap", "func") and v is not None
    }
    outdir = Path(args.out) if args.out else Path(args.bundle) / f"run-{args.solver}"
    outdir.mkdir(parents=True, exist_ok=True)
    summary, trace, shots = _run(h, cert, meta, args.solver, opts, args.dim_cap)
    (outdir / "summary.json").write_text(json.dumps(summary, indent=1, default=float))
    if trace is not None:
        trace.write_csv(outdir / "trace.csv")
    if shots is not None:
        (outdir / "shots.json").write_text(json.dumps(shots.to_json_dict(), indent=1))
    print(json.dumps(summary, indent=1, default=float))
    return EXIT_OK if trace is not None else EXIT_BUDGET


def _expand_grid(entry: dict):
    solver = entry["solver"]
    grid = entry.get("grid", {})
    fixed = {k.replace("-", "_"): v for k, v in entry.get("params", {}).items()}
    keys = sorted(grid)
    if not keys:
        yield solver, dict(fixed)
        return
    for combo in itertools.product(*(grid[k] for k in keys)):
        opts = dict(fixed)
        opts.update({k.replace("-", "_"): v for k, v in zip(keys, combo)})
        yield solver, opts


def _run_one(job):
    bundle, solver, opts, dim_cap = job
    h, cert, meta = load_bundle(bundle)
    try:
        return _run(h, cert, meta, solver, opts, dim_cap)[0]
    except Exception as e:  # a failed grid point must not kill the sweep
        return _summary(solver, opts, meta, status="error", error=f"{type(e).__name__}: {e}")


def _sweep(args) -> int:
    spec = json.loads(Path(args.spec).read_text())
    bundle = spec["bundle"]
    budget = dict(spec.get("budget", {}))
    dim_cap = int(budget.pop("dim_cap", DEFAULT_DIM_CAP))
    if budget:
        raise ValueError(f"a sweep's budget takes dim_cap only, not {', '.join(sorted(budget))}")
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    base_seed = int(spec.get("seed", 0))

    jobs = []
    for entry in spec.get("runs", []):
        for solver, opts in _expand_grid(entry):
            opts.setdefault("seed", base_seed)
            jobs.append((bundle, solver, opts, dim_cap))

    workers = args.workers
    if workers > 1 and jobs:
        from concurrent.futures import ProcessPoolExecutor  # only a parallel sweep needs it

        with ProcessPoolExecutor(max_workers=workers) as pool:
            summaries = list(pool.map(_run_one, jobs))
    else:
        summaries = [_run_one(j) for j in jobs]

    cols = ["solver", "params", "final_energy", "energy_error", "final_dim", "flops", "status",
            "converged", "wall_s", "peak_rss_mb", "seed", "instance_hash", "version"]
    with open(outdir / "results.csv", "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(cols)
        for s in summaries:
            w.writerow([json.dumps(s[c], sort_keys=True) if c == "params" else s[c]
                        for c in cols])

    for solver in sorted({s["solver"] for s in summaries}):
        rows = [
            (s["final_dim"], s["final_energy"])
            for s in summaries
            if s["solver"] == solver and s.get("final_energy") is not None
        ]
        rows.sort()
        frontier = []
        best = float("inf")
        for dim, e in rows:
            if e < best:
                best = e
                frontier.append((dim, best))
        with open(outdir / f"frontier_{solver}.csv", "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["subspace_dim", "best_energy"])
            w.writerows(frontier)

    print(f"{len(summaries)} runs -> {outdir}/results.csv")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Errors raise ValueError (invalid input), not argparse's exit 2; subparsers inherit it."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="sparsegs", description="sparse ground-state solver benchmark")
    sub = ap.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="construct an instance bundle")
    gen.add_argument("--out", required=True)
    gen.add_argument("--mode", choices=["main", "warmup"], default="main")
    gen.add_argument("--layout", default="heavy-hex",
                     choices=["heavy-hex", "path16", "path16-coupled"])
    gen.add_argument("--rows", type=int, default=3)
    gen.add_argument("--cols", type=int, default=2)
    gen.add_argument("--patches", type=int, default=3)
    gen.add_argument("--m1", type=float, default=0.1)
    gen.add_argument("--m2", type=float, default=0.01)
    gen.add_argument("--j1", type=float, default=1.0)
    gen.add_argument("--seed", type=int, default=DEFAULT_GENERATE_SEED)
    gen.add_argument("--obfuscation-mask", default=None,
                     help="explicit hex mask (0: none); overrides the seeded draw")
    gen.set_defaults(func=_generate)

    info = sub.add_parser("info", help="bundle statistics")
    info.add_argument("--bundle", required=True)
    info.set_defaults(func=_info)

    ver = sub.add_parser("verify", help="check the ground-state certificate")
    ver.add_argument("--bundle", required=True)
    ver.set_defaults(func=_verify)

    sol = sub.add_parser("solve", help="run one solver on a bundle")
    sol.add_argument("--bundle", required=True)
    sol.add_argument("--out", default=None)
    sol.add_argument("--dim-cap", type=int, default=DEFAULT_DIM_CAP)
    ssub = sol.add_subparsers(dest="solver", required=True)
    for solver, (_, _, flags) in _SOLVERS.items():
        sp = ssub.add_parser(solver)
        for flag, typ, required, _ in flags:
            if typ is bool:  # not type=bool, which reads "False" as True
                sp.add_argument(flag, action="store_true", default=None)
            else:
                sp.add_argument(flag, type=typ, required=required)
        sp.set_defaults(func=_solve)

    sw = sub.add_parser("sweep", help="run a hyperparameter grid from a JSON spec")
    sw.add_argument("--spec", required=True)
    sw.add_argument("--out", required=True)
    sw.add_argument("--workers", type=int, default=1)
    sw.set_defaults(func=_sweep)
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except BudgetExceeded as e:
        print(f"budget exceeded: {e}", file=sys.stderr)
        return EXIT_BUDGET
    except (EmbeddingError, ValueError, FileNotFoundError, KeyError, json.JSONDecodeError) as e:
        print(f"invalid input: {e}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
