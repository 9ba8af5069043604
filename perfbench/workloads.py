"""The benchmark's workloads: which instance bundles each one generates and
which `sparsegs solve` jobs it runs on them, back to back, in one pass.

Everything here is a function of the workload seed alone, so the same seed
gives the same inputs.  The seed goes to `generate --seed` and to SKQD's
`--seed`; the program sees only the generated bundles.  See README.md for
why each workload was chosen and what it is predicted to stress.
"""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_SEED = 9  # reproduces the README instances (the flagship is seed 9)


@dataclass(frozen=True)
class Bundle:
    name: str
    generate_args: tuple[str, ...]  # `sparsegs generate` flags besides --out/--seed


@dataclass(frozen=True)
class Job:
    label: str  # unique within the workload; keys the reference results
    bundle: str
    solve_args: tuple[str, ...]  # solver name and its flags


@dataclass(frozen=True)
class Workload:
    name: str
    bundles: tuple[Bundle, ...]
    jobs: tuple[Job, ...]


FLAGSHIP = Bundle("flagship", ())  # 49 qubits: heavy-hex 3x2, 3 patches
PATH16 = Bundle("path16", ("--layout", "path16", "--patches", "1"))
PATH16_COUPLED = Bundle("path16-coupled", ("--layout", "path16-coupled", "--patches", "1"))


def workloads(seed: int) -> dict[str, Workload]:
    skqd = ("skqd", "--d", "3", "--shots", "50000", "--seed", str(seed))
    return {
        w.name: w
        for w in (
            Workload(
                "flagship-sci",
                (FLAGSHIP,),
                (
                    Job("cipsi", "flagship", ("cipsi", "--eps", "1e-9", "--iters", "4")),
                    Job("asci", "flagship", ("asci", "--d-cap", "4000", "--core-cap", "1000",
                                             "--iters", "10")),
                ),
            ),
            Workload(
                "flagship-krylov",
                (FLAGSHIP,),
                (
                    Job("tarnoldi", "flagship", ("tarnoldi", "--m", "2000", "--iters", "12")),
                    Job("diag-ranking", "flagship", ("diag-ranking", "--d", "8000",
                                                     "--r", "80000", "--iters", "6")),
                    Job("tpm", "flagship", ("tpm", "--k", "2000", "--iters", "8",
                                            "--mode", "expectation")),
                ),
            ),
            Workload(
                "patch-skqd",
                (PATH16, PATH16_COUPLED),
                (
                    Job("skqd-path16", "path16", skqd),
                    Job("skqd-path16-coupled", "path16-coupled", skqd),
                ),
            ),
        )
    }


WORKLOAD_NAMES = tuple(workloads(DEFAULT_SEED))
