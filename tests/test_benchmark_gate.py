"""The benchmark's correctness gate, run in the test suite: every job of
every workload in perfbench/workloads.py, at the reference seed, through
`cli.main`, must match perfbench/reference.json.  The perfbench files are
only read."""

import contextlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

from sparsegs.cli import EXIT_OK, main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
REFERENCE = json.loads((PERFBENCH / "reference.json").read_text())
ENERGY_TOL = 1e-9  # the gate's tolerance, perfbench/run.py's ENERGY_TOL


def _perfbench_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # its dataclasses look their module up
    spec.loader.exec_module(mod)
    return mod.workloads(REFERENCE["seed"])


WORKLOADS = _perfbench_workloads()


def _cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(argv)
    return rc, out.getvalue()


@pytest.fixture(scope="module")
def bundles(tmp_path_factory):
    """Each bundle the workloads name, generated at the reference seed and
    verified, by name."""
    root = tmp_path_factory.mktemp("perfbench-bundles")
    made = {}
    for w in WORKLOADS.values():
        for b in w.bundles:
            if b.name not in made:
                path = root / b.name
                gen = ["generate", "--out", str(path), "--seed", str(REFERENCE["seed"])]
                assert _cli([*gen, *b.generate_args])[0] == EXIT_OK
                assert _cli(["verify", "--bundle", str(path)])[0] == EXIT_OK
                made[b.name] = path
    return made


def test_benchmark_bundles_keep_their_instance_hashes(bundles):
    # regeneration at the reference seed must give the same bytes; these
    # hashes were read with NumPy 2.4.6 on OpenBLAS
    want = {"flagship": "b3c3b5f7fde83ba7", "path16": "9beb83e215a93cfc",
            "path16-coupled": "b5b12b7651f7375e"}
    got = {name: json.loads((path / "metadata.json").read_text())["instance_hash"]
           for name, path in bundles.items()}
    assert got == want


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_benchmark_jobs_match_reference(name, bundles, tmp_path):
    refs = REFERENCE["jobs"][name]
    jobs = WORKLOADS[name].jobs
    assert sorted(j.label for j in jobs) == sorted(refs)
    for job in jobs:
        rc, out = _cli(["solve", "--bundle", str(bundles[job.bundle]),
                        "--out", str(tmp_path / job.label), *job.solve_args])
        assert rc == EXIT_OK, job.label
        summary = json.loads(out)
        cert = json.loads((bundles[job.bundle] / "certificate.json").read_text())
        assert summary["final_energy"] >= cert["energy"] - ENERGY_TOL, job.label
        want = refs[job.label]
        assert abs(summary["final_energy"] - want["energy"]) <= ENERGY_TOL, job.label
        assert summary["final_dim"] == want["dim"], job.label
