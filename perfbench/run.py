"""The repository benchmark: one workload per process, run through the
user's path, `sparsegs.cli.main(["solve", ...])`.

    python3 perfbench/run.py --workload flagship-sci --seed 9 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all        # every workload, one table

A run sets the workload up several times (each set-up is a fresh
interpreter that imports the package, generates the bundles and verifies
them), then runs passes over the workload's jobs back to back, one client
in a closed loop, until `--seconds` have elapsed.  Every job goes through
the correctness gate.  The last stdout line is one JSON object:
`correct`, `attempted` (jobs run), `failed` (jobs that missed the gate)
and `metrics`: the end-to-end metrics with `--trace 0`, the per-layer
metrics with `--trace 1`.  Names and units come from BENCHMARK.json.
See README.md for the workloads, the metrics and the predictions.
"""

import os

# Fixed before NumPy loads, so every process of a run uses the same count.
# One thread, for steadiness on a small shared machine: with two OpenBLAS
# threads SKQD passes were faster on average but spread far wider (14.0-18.2
# s against 18.1-19.0 s, at larger job sizes on 2 cores), since the second
# thread competes with other tenants.  One is never more than nproc.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import DEFAULT_SEED, WORKLOAD_NAMES, workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"

SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 120
JOB_BUDGET_S = 60.0  # a job slower than this fails the gate
ENERGY_TOL = 1e-9  # absolute; BLAS thread count moves near-zero energies by ~1e-14


def _env_record() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
    }


def _set_up(workload, seed: int, out: Path) -> tuple[list[float], dict]:
    """SETUP_REPEATS fresh-interpreter set-ups into `out`; returns their
    times and {bundle: verified}.  Regeneration must be byte-identical, so
    a bundle whose instance hash changes between set-ups counts as failed."""
    times, verified, hashes = [], {}, {}
    for _ in range(SETUP_REPEATS):
        cp = subprocess.run(
            [sys.executable, str(HERE / "setup_bundles.py"), "--workload", workload.name,
             "--seed", str(seed), "--out", str(out)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=SETUP_TIMEOUT_S,
        )
        if cp.returncode != 0:
            raise RuntimeError(f"set-up exited with {cp.returncode}")
        rep = json.loads(cp.stdout.strip().splitlines()[-1])
        times.append(rep["seconds"])
        for name, ok in rep["verified"].items():
            same = hashes.setdefault(name, rep["hashes"][name]) == rep["hashes"][name]
            verified[name] = verified.get(name, True) and ok and same
    return times, verified


def _run_pass(cli, workload, bundles: Path, out: Path, rec=None) -> tuple[float, dict]:
    """One pass over the workload's jobs; returns (wall seconds, {label: outcome})."""
    outcomes = {}
    t_pass = time.perf_counter()
    for job in workload.jobs:
        if rec is not None:
            rec.job = job.label
        argv = ["solve", "--bundle", str(bundles / job.bundle), "--out",
                str(out / job.label), *job.solve_args]
        buf = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                rc = cli.main(argv)
            summary, error = (json.loads(buf.getvalue()) if rc == 0 else None), None
        except Exception as e:  # a job that raises is a failed job, not a failed run
            rc, summary, error = None, None, f"{type(e).__name__}: {e}"
        outcomes[job.label] = {"rc": rc, "seconds": time.perf_counter() - t0,
                               "summary": summary, "error": error}
    return time.perf_counter() - t_pass, outcomes


def _gate(o: dict, cert_energy: float, verified: bool, ref, first) -> list[str]:
    """Reasons this job failed; empty when it passed."""
    if o["error"] is not None:
        return [o["error"]]
    if o["rc"] != 0:
        return [f"exit code {o['rc']}"]
    e, dim = o["summary"]["final_energy"], o["summary"]["final_dim"]
    if not isinstance(e, float) or not math.isfinite(e):
        return [f"energy {e!r} is not a finite number"]
    why = []
    if not verified:
        why.append("bundle failed verify")
    if e < cert_energy - ENERGY_TOL:
        why.append(f"energy {e!r} below certified {cert_energy!r}")
    for name, want in (("reference", ref), ("first pass", first)):
        if want is not None and (abs(e - want["energy"]) > ENERGY_TOL or dim != want["dim"]):
            why.append(f"energy/dim {e!r}/{dim} differ from {name} "
                       f"{want['energy']!r}/{want['dim']}")
    if o["seconds"] > JOB_BUDGET_S:
        why.append(f"took {o['seconds']:.1f} s, budget {JOB_BUDGET_S} s")
    return why


def _layer_metrics(rec, flops_by_pass: dict, walls: dict, import_s: float) -> dict:
    """Per-layer metrics: the median over traced passes of each pass's
    layer stats and solver flops, the traced set-up's stats under `setup.`,
    and the tracing overhead."""
    import spans

    per_pass = [{**spans.layer_stats(rec.spans, f"pass{j}"), **flops}
                for j, flops in flops_by_pass.items()]
    keys = set().union(*per_pass)
    out = {k: statistics.median(p.get(k, 0.0) for p in per_pass) for k in keys}
    out.update({f"setup.{k}": v for k, v in spans.layer_stats(rec.spans, "setup").items()})
    out["setup.import.s"] = import_s
    out["trace.untraced_wall_s"] = statistics.median(walls[False])
    out["trace.traced_wall_s"] = statistics.median(walls[True])
    out["trace.overhead_s"] = out["trace.traced_wall_s"] - out["trace.untraced_wall_s"]
    return out


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = workloads(seed)[name]
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    bundles, out = work / "bundles", work / "runs"

    setup_times, verified = _set_up(workload, seed, bundles)
    cert_energy = {
        b.name: json.loads((bundles / b.name / "certificate.json").read_text())["energy"]
        for b in workload.bundles
    }
    ref_file = json.loads((HERE / "reference.json").read_text())
    refs = ref_file["jobs"][name] if seed == ref_file["seed"] else {}

    t_import = time.perf_counter()
    import sparsegs.cli as cli

    import_s = time.perf_counter() - t_import
    rec = None
    if traced:
        import spans
        from setup_bundles import generate_and_verify

        rec = spans.Recorder()
        rec.install()
        generate_and_verify(cli.main, workload.bundles, seed, work / "traced-setup")
        rec.uninstall()

    walls: dict[bool, list[float]] = {False: [], True: []}
    attempted = failed = 0
    first: dict = {}
    flops_by_pass: dict[int, dict] = {}  # traced pass -> {<solver>.flops: trace.total_flops}
    deadline = time.perf_counter() + seconds
    # Pass 0 warms the process up and is gated but not timed: it runs slower
    # than later passes, and a sweep worker pays that once, not per job.
    # Traced runs then alternate untraced and traced passes.
    i = 0
    while True:
        trace_this = traced and i > 0 and i % 2 == 0
        if trace_this:
            rec.phase = f"pass{i}"
            flops_by_pass[i] = {}
            rec.install()
        wall, outcomes = _run_pass(cli, workload, bundles, out, rec if trace_this else None)
        if trace_this:
            rec.uninstall()
        if i > 0:
            walls[trace_this].append(wall)
        for job in workload.jobs:
            o = outcomes[job.label]
            why = _gate(o, cert_energy[job.bundle], verified[job.bundle],
                        refs.get(job.label), first.get(job.label))
            attempted += 1
            if why:
                failed += 1
                print(f"FAILED {name}/{job.label} pass {i}: {'; '.join(why)}", file=sys.stderr)
            if i == 0:
                s = o["summary"] or {}
                if not why:
                    first[job.label] = {"energy": s["final_energy"], "dim": s["final_dim"]}
                print(f"job {job.label}: energy {s.get('final_energy')!r} "
                      f"dim {s.get('final_dim')} status {s.get('status')} "
                      f"{o['seconds']:.3f} s")
            if trace_this and o["summary"] is not None:
                key, flops = f"{job.solve_args[0]}.flops", flops_by_pass[i]
                flops[key] = flops.get(key, 0.0) + float(o["summary"].get("flops") or 0.0)
        i += 1
        if (time.perf_counter() >= deadline and walls[False]
                and (walls[True] or not traced)):
            break

    measured = {
        "wall_s": statistics.median(walls[False]),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if traced:
        measured = _layer_metrics(rec, flops_by_pass, walls, import_s)
        rec.write(work / "spans.jsonl")
    wanted = bench["per_layer"] if traced else bench["end_to_end"]
    metrics = {m["name"]: {"value": measured.get(m["name"], 0.0), "unit": m["unit"]}
               for m in wanted}

    print(f"env: {json.dumps(_env_record())}")
    print(f"passes: 1 warm-up, untraced {len(walls[False])}, traced {len(walls[True])}; "
          f"wall_s per untraced pass {[round(w, 3) for w in walls[False]]}, "
          f"per traced pass {[round(w, 3) for w in walls[True]]}; "
          f"setup_s per set-up {[round(t, 3) for t in setup_times]}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def run_all(seed: int, seconds: float, trace: int) -> dict:
    """Each workload in its own process; prints one line per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cp = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        if cp.returncode != 0:
            raise RuntimeError(f"workload {name} exited with {cp.returncode}")
        res = json.loads(cp.stdout.strip().splitlines()[-1])
        shown = "  ".join(f"{k} {v['value']:.4g} {v['unit']}"
                          for k, v in res["metrics"].items())
        print(f"{name:16s} {shown}  failed {res['failed']}/{res['attempted']} jobs")
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    return combined


def main() -> int:
    ap = argparse.ArgumentParser(description="sparsegs end-to-end and per-layer benchmark")
    ap.add_argument("--workload", required=True, choices=[*WORKLOAD_NAMES, "all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "sparsegs" / "__init__.py").is_file():
        print(f"no sparsegs sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, args.trace)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
