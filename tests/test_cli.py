import csv
import dataclasses
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sparsegs
import sparsegs.cli
import sparsegs.eigensolver
from sparsegs.builder import GroundStateCertificate, load_bundle, save_bundle
from sparsegs.cli import EXIT_BUDGET, EXIT_INVALID, EXIT_OK, _run_one, main
from sparsegs.paulis import Configuration, PauliString, PauliSum, index_in, unique_bits
from sparsegs.subspace import reachable_bits
from sparsegs.trace import DEFAULT_DIM_CAP


@pytest.fixture(scope="module")
def patch_bundle(tmp_path_factory):
    out = tmp_path_factory.mktemp("bundles") / "patch"
    rc = main(["generate", "--out", str(out), "--layout", "path16", "--patches", "1"])
    assert rc == EXIT_OK
    return out


def test_generate_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["generate", "--out", str(a), "--layout", "path16", "--patches", "1"]) == EXIT_OK
    assert main(["generate", "--out", str(b), "--layout", "path16", "--patches", "1"]) == EXIT_OK
    for name in ("hamiltonian.json", "certificate.json", "metadata.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_generate_path16_coupled(tmp_path):
    out = tmp_path / "pc"
    rc = main(["generate", "--out", str(out), "--layout", "path16-coupled",
               "--patches", "1"])
    assert rc == EXIT_OK
    # the coupled variant carries the edge interaction terms on top of the
    # 97 bare-patch terms, and its certificate still verifies
    stats = json.loads((out / "hamiltonian.json").read_text())
    assert len(stats["terms"]) > 97
    assert main(["verify", "--bundle", str(out)]) == EXIT_OK


def test_generate_warmup_small(tmp_path):
    out = tmp_path / "w"
    rc = main(["generate", "--out", str(out), "--mode", "warmup", "--rows", "1",
               "--cols", "1", "--patches", "2", "--m1", "1.0"])
    assert rc == EXIT_OK
    meta = json.loads((out / "metadata.json").read_text())
    assert meta["mode"] == "warmup"


def test_info_and_verify(patch_bundle, capsys):
    assert main(["info", "--bundle", str(patch_bundle)]) == EXIT_OK
    stats = json.loads(capsys.readouterr().out)
    assert stats["n_qubits"] == 16 and stats["support_size"] == 8
    assert main(["verify", "--bundle", str(patch_bundle)]) == EXIT_OK


def test_solve_cipsi_stalls(patch_bundle, tmp_path, capsys):
    out = tmp_path / "run"
    rc = main(["solve", "--bundle", str(patch_bundle), "--out", str(out),
               "cipsi", "--eps", "1e-6"])
    assert rc == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "stalled"
    assert summary["final_energy"] > 0.1
    assert summary["instance_hash"]


TRACE_HEADER = ["variant", "iter", "subspace_dim", "energy", "wall_ms", "status", "flops"]

# one small solve per CLI solver, with the `run_*` function it calls
SOLVES = [
    ("run_sci", ("cipsi", "--eps", "1e-6")),
    ("run_sci", ("hci", "--eps", "1e-6")),
    ("run_sci", ("asci", "--d-cap", "8", "--core-cap", "4", "--iters", "3")),
    ("run_sci", ("trimci", "--eps", "1e-8", "--n-subsets", "2", "--keep-per-subset", "3",
                 "--iters", "3")),
    ("run_diag_ranking", ("diag-ranking", "--d", "8", "--iters", "4")),
    ("run_truncated_arnoldi", ("tarnoldi", "--m", "16", "--iters", "4")),
    ("run_tpm", ("tpm", "--k", "8", "--iters", "4")),
    ("run_skqd", ("skqd", "--d", "2", "--shots", "200")),
]


@pytest.mark.parametrize("args", [a for _, a in SOLVES], ids=lambda a: a[0])
def test_solve_writes_trace_csv(patch_bundle, tmp_path, args):
    out = tmp_path / "run"
    assert main(["solve", "--bundle", str(patch_bundle), "--out", str(out), *args]) == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    header, *rows = csv.reader((out / "trace.csv").read_text().splitlines())
    assert header == TRACE_HEADER
    assert rows and all(len(r) == len(header) for r in rows)
    assert {(r[0], r[5]) for r in rows} == {(args[0], summary["status"])}
    flops = [float(r[6]) for r in rows]  # a plain number, not np.float64(...)
    assert flops == sorted(flops) and flops[-1] <= summary["flops"]


@pytest.mark.parametrize("runner, args", SOLVES, ids=[a[0] for _, a in SOLVES])
def test_solve_calls_the_runner_bound_in_cli(patch_bundle, tmp_path, monkeypatch, runner, args):
    # a solve calls the `run_*` binding of `sparsegs.cli` when it runs, so a
    # wrapper bound over it there (as a tracer binds one) sees every run
    calls = []
    real = getattr(sparsegs.cli, runner)
    monkeypatch.setattr(sparsegs.cli, runner, lambda *a: calls.append(a[2]) or real(*a))
    out = tmp_path / "run"
    assert main(["solve", "--bundle", str(patch_bundle), "--out", str(out), *args]) == EXIT_OK
    assert len(calls) == 1


def test_solve_tarnoldi_reaches_zero(patch_bundle, tmp_path):
    out = tmp_path / "run"
    rc = main(["solve", "--bundle", str(patch_bundle), "--out", str(out),
               "tarnoldi", "--m", "64"])
    assert rc == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert abs(summary["final_energy"]) < 1e-7


def test_solve_skqd_coverage(patch_bundle, tmp_path):
    out = tmp_path / "run"
    rc = main(["solve", "--bundle", str(patch_bundle), "--out", str(out),
               "skqd", "--d", "6", "--shots", "2000"])
    assert rc == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["support_coverage"] == 8


# sha256 of shots.json from `solve skqd --d 3 --shots 2000 --seed 9` on the
# seed-9 path16 bundle: a run without --bitflip draws no noise
NOISELESS_SHOTS_SHA256 = "6f6f461447390a13eb5d0f7c462d5fcf36aa4da5e29d26eb553d24b6cdc1a5dd"


def test_solve_skqd_bitflip_samples_outside_the_reachable_subspace(patch_bundle, tmp_path):
    h, cert, _ = load_bundle(patch_bundle)
    x0 = np.array([cert.initial_config.bits], dtype=np.uint64)
    reachable = reachable_bits(h, x0, DEFAULT_DIM_CAP)

    def solve(name, *flags):
        out = tmp_path / name
        rc = main(["solve", "--bundle", str(patch_bundle), "--out", str(out),
                   "skqd", "--d", "3", "--shots", "2000", "--seed", "9", *flags])
        return rc, out

    rc, out = solve("exact")
    assert rc == EXIT_OK
    assert hashlib.sha256((out / "shots.json").read_bytes()).hexdigest() == NOISELESS_SHOTS_SHA256
    assert "bitflip" not in json.loads((out / "summary.json").read_text())["params"]

    rc, out = solve("noisy", "--bitflip", "0.01")
    assert rc == EXIT_OK
    assert json.loads((out / "summary.json").read_text())["params"]["bitflip"] == 0.01
    hists = json.loads((out / "shots.json").read_text())["histograms"]
    sampled = unique_bits(np.array([int(b, 16) for hist in hists for b in hist], dtype=np.uint64))
    assert (index_in(reachable, sampled) < 0).any()

    assert solve("certain", "--bitflip", "1.0")[0] == EXIT_INVALID
    assert solve("no-shots", "--shots", "0")[0] == EXIT_INVALID


@pytest.mark.parametrize("args", [("tarnoldi", "--m", "16"), ("diag-ranking", "--d", "8")],
                         ids=lambda a: a[0])
def test_solve_per_iteration_energies(patch_bundle, tmp_path, args):
    # the switch fills trace.csv's energies; without it they stay NaN and
    # the params record gains no key
    def solve(name, *flags):
        out = tmp_path / name
        assert main(["solve", "--bundle", str(patch_bundle), "--out", str(out),
                     *args, "--iters", "4", *flags]) == EXIT_OK
        _, *rows = csv.reader((out / "trace.csv").read_text().splitlines())
        return [float(r[3]) for r in rows], json.loads((out / "summary.json").read_text())

    key = args[1][2:]
    energies, summary = solve("on", "--per-iteration-energies")
    assert energies and np.isfinite(energies).all()
    assert summary["params"] == {key: int(args[2]), "iters": 4, "per_iteration_energies": True}
    assert energies[-1] == summary["final_energy"]
    energies, summary = solve("off")
    assert energies and np.isnan(energies).all()
    assert summary["params"] == {key: int(args[2]), "iters": 4}


def test_sweep_per_iteration_energies_switch(patch_bundle, tmp_path, monkeypatch):
    # `false` in a sweep row runs without per-iteration energies: the final
    # union is the run's one eigensolve
    solved = []
    real = sparsegs.eigensolver.lowest_eigenpair
    monkeypatch.setattr(sparsegs.eigensolver, "lowest_eigenpair",
                        lambda m: solved.append(m.shape) or real(m))
    counts = []
    for flag in (False, True):
        spec = tmp_path / f"spec-{flag}.json"
        spec.write_text(json.dumps({"bundle": str(patch_bundle), "runs": [
            {"solver": "tarnoldi", "params": {"m": 16, "iters": 4,
                                              "per_iteration_energies": flag}}]}))
        solved.clear()
        out = tmp_path / f"sweep-{flag}"
        assert main(["sweep", "--spec", str(spec), "--out", str(out)]) == EXIT_OK
        rows = list(csv.DictReader((out / "results.csv").read_text().splitlines()))
        assert rows[0]["status"] == "max_iters"
        assert json.loads(rows[0]["params"])["per_iteration_energies"] is flag
        counts.append(len(solved))
    assert counts[0] == 1 < counts[1]
    # a string is not a switch: "false" would read as true
    summary = _run_one((str(patch_bundle), "tarnoldi",
                        {"m": 16, "per_iteration_energies": "false"}, DEFAULT_DIM_CAP))
    assert summary["error"] == ("ValueError: tarnoldi option per_iteration_energies "
                                "must be true or false")


def test_sweep_rejects_a_list_of_shots(patch_bundle, tmp_path):
    # one count per state is no option: the row fails, the sweep goes on
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"bundle": str(patch_bundle), "runs": [
        {"solver": "skqd", "params": {"d": 3, "shots": [100, 200, 300]}},
        {"solver": "skqd", "params": {"d": 3, "shots": 100}}]}))
    assert main(["sweep", "--spec", str(spec), "--out", str(tmp_path / "sweep")]) == EXIT_OK
    rows = list(csv.DictReader((tmp_path / "sweep" / "results.csv").read_text().splitlines()))
    assert [r["status"] for r in rows] == ["error", "max_iters"]
    summary = _run_one((str(patch_bundle), "skqd", {"d": 3, "shots": [100, 200, 300]},
                        DEFAULT_DIM_CAP))
    assert summary["error"].startswith("ValueError: shots_per_state must be an int >= 1")


def test_solve_budget_exceeded_exit_code(patch_bundle, tmp_path):
    out = tmp_path / "run"
    rc = main(["solve", "--bundle", str(patch_bundle), "--out", str(out),
               "--dim-cap", "4", "tarnoldi", "--m", "64"])
    assert rc == EXIT_BUDGET
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "budget_exceeded"


def test_invalid_input_exit_code(tmp_path):
    assert main(["info", "--bundle", str(tmp_path / "nope")]) == EXIT_INVALID
    assert main(["generate", "--out", str(tmp_path / "x"), "--layout", "path16",
                 "--patches", "2"]) == EXIT_INVALID


def test_malformed_command_line_is_invalid_input(patch_bundle, tmp_path, capsys):
    # argparse would exit 2, the budget code
    solve = ["solve", "--bundle", str(patch_bundle), "--out", str(tmp_path / "run")]
    for argv in (solve + ["cipsi"], solve + ["cipsi", "--eps", "abc"],
                 solve + ["skqd", "--d", "2", "--shots", "10", "--evolution", "exact"]):
        assert main(argv) == EXIT_INVALID, argv
        assert capsys.readouterr().err.startswith("invalid input: sparsegs")
    with pytest.raises(SystemExit) as done:
        main(["solve", "--help"])
    assert done.value.code == EXIT_OK
    assert main(solve + ["--dim-cap", "4", "tarnoldi", "--m", "64"]) == EXIT_BUDGET


def test_bundle_hash_checked_on_load(patch_bundle, tmp_path):
    tampered, unhashed = tmp_path / "tampered", tmp_path / "unhashed"
    shutil.copytree(patch_bundle, tampered)
    shutil.copytree(patch_bundle, unhashed)
    ham = json.loads((tampered / "hamiltonian.json").read_text())
    ham["terms"][0]["coeff"][0] += 1e-3  # one coefficient
    (tampered / "hamiltonian.json").write_text(json.dumps(ham, indent=1, sort_keys=True))
    meta = json.loads((unhashed / "metadata.json").read_text())
    del meta["instance_hash"]
    (unhashed / "metadata.json").write_text(json.dumps(meta))
    for bundle in (tampered, unhashed):
        _assert_rejected(bundle, tmp_path)


def test_certificate_hash_checked_on_load(patch_bundle, tmp_path):
    edited, unhashed = tmp_path / "edited", tmp_path / "unhashed"
    shutil.copytree(patch_bundle, edited)
    shutil.copytree(patch_bundle, unhashed)
    text = (edited / "certificate.json").read_text()
    amp = repr(json.loads(text)["amplitudes"][0])
    assert text.count(amp) == 1 and amp[-1].isdigit()
    text = text.replace(amp, amp[:-1] + str((int(amp[-1]) + 1) % 10))  # its last digit
    (edited / "certificate.json").write_text(text)
    # the edit passes the certificate's own checks: only the hash sees it
    GroundStateCertificate.from_json_dict(json.loads(text))
    meta = json.loads((unhashed / "metadata.json").read_text())
    del meta["certificate_hash"]
    (unhashed / "metadata.json").write_text(json.dumps(meta))
    for bundle in (edited, unhashed):
        _assert_rejected(bundle, tmp_path)


def _assert_rejected(bundle, tmp_path):
    """Every command that reads `bundle` exits with EXIT_INVALID."""
    spec = tmp_path / f"{bundle.name}.json"
    spec.write_text(json.dumps({"bundle": str(bundle),
                                "runs": [{"solver": "cipsi", "grid": {"eps": [1e-4]}}]}))
    for argv in (
        ["info", "--bundle", str(bundle)],
        ["verify", "--bundle", str(bundle)],
        ["solve", "--bundle", str(bundle), "--out", str(tmp_path / "run"),
         "cipsi", "--eps", "1e-4"],
        ["sweep", "--spec", str(spec), "--out", str(tmp_path / "sweep")],
    ):
        assert main(argv) == EXIT_INVALID, argv


@pytest.mark.parametrize("solver_args", [
    ["cipsi", "--eps", "1e-4"], ["hci", "--eps", "1e-4"],
    ["asci", "--d-cap", "4", "--core-cap", "2"],
    ["trimci", "--n-subsets", "1", "--keep-per-subset", "2"],
    ["diag-ranking", "--d", "2"], ["tarnoldi", "--m", "2"], ["tpm", "--k", "2"],
    ["skqd", "--d", "2", "--shots", "10"],
], ids=lambda a: a[0])
def test_non_hermitian_bundle_rejected_on_load(solver_args, tmp_path, capsys):
    # a bundle saved with one complex coefficient has a valid hash; every
    # eigen path assumes a Hermitian H, so no solver may run on it
    h = PauliSum([(1.0, PauliString.from_label("ZIII")), (0.5, PauliString.from_label("XXII")),
                  (0.3 + 0.2j, PauliString.from_label("IZII"))], 4)
    x0 = Configuration(0, 4)
    save_bundle(tmp_path / "b", h, GroundStateCertificate(0.0, [x0], [1.0], x0, 1, 4), {})
    rc = main(["solve", "--bundle", str(tmp_path / "b"), "--out", str(tmp_path / "run"),
               *solver_args])
    assert rc == EXIT_INVALID
    assert "non-Hermitian" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_sweep_grid_and_frontier(patch_bundle, tmp_path):
    spec = {
        "bundle": str(patch_bundle),
        "seed": 0,
        "runs": [
            {"solver": "cipsi", "grid": {"eps": [1e-4, 1e-8]}},
            {"solver": "diag-ranking", "grid": {"d": [8, 16]}},
        ],
    }
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(spec))
    out = tmp_path / "sweep"
    assert main(["sweep", "--spec", str(spec_file), "--out", str(out)]) == EXIT_OK
    rows = list(csv.DictReader((out / "results.csv").read_text().splitlines()))
    assert len(rows) == 4
    assert all(r["instance_hash"] for r in rows)
    # frontier: monotone non-increasing energy over growing dimension,
    # and it is the lower envelope of the raw table
    front = list(csv.DictReader((out / "frontier_diag-ranking.csv").read_text().splitlines()))
    energies = [float(r["best_energy"]) for r in front]
    dims = [int(r["subspace_dim"]) for r in front]
    assert dims == sorted(dims)
    assert all(b <= a for a, b in zip(energies, energies[1:]))
    raw = [
        (int(r["final_dim"]), float(r["final_energy"]))
        for r in rows
        if r["solver"] == "diag-ranking"
    ]
    for dim, e in zip(dims, energies):
        assert e <= min(re for rd, re in raw if rd <= dim) + 1e-15


def test_sweep_rows_share_columns(patch_bundle, tmp_path):
    # a success, a budget_exceeded and an error row carry the same columns,
    # and each is keyed by seed, instance hash and version
    spec = {
        "bundle": str(patch_bundle),
        "seed": 4,
        "budget": {"dim_cap": 4},
        "runs": [
            {"solver": "tpm", "params": {"k": 2, "iters": 2, "mode": "expectation"}},
            {"solver": "tarnoldi", "params": {"m": 64}},
            {"solver": "cipsi", "params": {}},  # no eps
        ],
    }
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(spec))
    out = tmp_path / "sweep"
    assert main(["sweep", "--spec", str(spec_file), "--out", str(out)]) == EXIT_OK
    header, *rows = csv.reader((out / "results.csv").read_text().splitlines())
    assert header == ["solver", "params", "final_energy", "energy_error", "final_dim", "flops",
                      "status", "converged", "wall_s", "peak_rss_mb", "seed", "instance_hash",
                      "version"]
    assert [r[6] for r in rows] == ["max_iters", "budget_exceeded", "error"]
    assert all(len(r) == len(header) for r in rows)
    assert len({tuple(r[10:]) for r in rows}) == 1
    seed, instance_hash, version = rows[0][10:]
    assert seed == "4" and instance_hash and version == sparsegs.__version__
    for r in rows[1:]:
        assert r[2:6] == ["", "", "", ""] and r[7:9] == ["", ""]
    # the worker's peak so far, which only grows from row to row here
    peaks = [float(r[9]) for r in rows]
    assert 0 < peaks[0] <= peaks[1] <= peaks[2]


def test_energy_error_is_the_energy_above_the_certificate(patch_bundle, tmp_path):
    # H + 0.75 I certified at 0.75: a run's energy_error, in summary.json and
    # in results.csv, is its final energy minus 0.75, and agrees with the
    # unshifted run's energy above its certified 0
    h, cert, _ = load_bundle(patch_bundle)
    shift = PauliSum([(0.75, PauliString(0, 0, h.n_qubits))], h.n_qubits)
    shifted = tmp_path / "shifted"
    save_bundle(shifted, h + shift, dataclasses.replace(cert, energy=cert.energy + 0.75), {})
    summaries = []
    for bundle in (patch_bundle, shifted):
        out = tmp_path / bundle.name
        assert main(["solve", "--bundle", str(bundle), "--out", str(out),
                     "cipsi", "--eps", "1e-6"]) == EXIT_OK
        summaries.append(json.loads((out / "summary.json").read_text()))
    plain, moved = summaries
    assert plain["energy_error"] == plain["final_energy"] > 0.1  # stalled above 0
    assert moved["energy_error"] == moved["final_energy"] - 0.75
    assert abs(moved["energy_error"] - plain["energy_error"]) < 1e-9
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps({"bundle": str(shifted),
                                     "runs": [{"solver": "cipsi", "params": {"eps": 1e-6}}]}))
    assert main(["sweep", "--spec", str(spec_file), "--out", str(tmp_path / "sweep")]) == EXIT_OK
    [row] = csv.DictReader((tmp_path / "sweep" / "results.csv").read_text().splitlines())
    assert float(row["energy_error"]) == moved["energy_error"]
    assert row["converged"] == str(moved["converged"]) == "True"


def test_sweep_key_the_solver_does_not_take_is_an_error(patch_bundle, tmp_path):
    # `eps` and `iter` are no ASCI flags; `seed` is given to every sweep job
    params = {"d_cap": 8, "core_cap": 4, "eps": 0.5, "iter": 2}
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps({"bundle": str(patch_bundle),
                                     "runs": [{"solver": "asci", "params": params},
                                              {"solver": "asci", "params": {"d_cap": 8,
                                                                            "core_cap": 4}}]}))
    out = tmp_path / "sweep"
    assert main(["sweep", "--spec", str(spec_file), "--out", str(out)]) == EXIT_OK
    rows = list(csv.DictReader((out / "results.csv").read_text().splitlines()))
    assert [r["status"] for r in rows] == ["error", "stalled"]
    assert json.loads(rows[0]["params"]) == {**params, "seed": 0}
    summary = _run_one((str(patch_bundle), "asci", params, DEFAULT_DIM_CAP))
    assert summary["status"] == "error"
    assert summary["error"] == "ValueError: asci takes no option eps, iter"
    summary = _run_one((str(patch_bundle), "skqd", {"d": 2, "shots": 10, "evolution": "exact"},
                        DEFAULT_DIM_CAP))
    assert summary["error"] == "ValueError: skqd takes no option evolution"


def test_sweep_params_and_grid_keys_take_hyphens_alike(patch_bundle, tmp_path):
    # `d-cap` is the solve flag's spelling; under `params` it is the same
    # option as under `grid`, so both rows run and agree
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps({"bundle": str(patch_bundle), "runs": [
        {"solver": "asci", "params": {"d-cap": 8, "core-cap": 4}},
        {"solver": "asci", "grid": {"d-cap": [8]}, "params": {"core-cap": 4}},
    ]}))
    out = tmp_path / "sweep"
    assert main(["sweep", "--spec", str(spec_file), "--out", str(out)]) == EXIT_OK
    rows = list(csv.DictReader((out / "results.csv").read_text().splitlines()))
    assert [r["status"] for r in rows] == ["stalled", "stalled"]
    assert json.loads(rows[0]["params"]) == {"d_cap": 8, "core_cap": 4, "seed": 0}
    for r in rows:
        del r["wall_s"]
    assert rows[0] == rows[1]


def test_sweep_empty_grid(tmp_path, patch_bundle):
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps({"bundle": str(patch_bundle), "runs": []}))
    out = tmp_path / "sweep"
    assert main(["sweep", "--spec", str(spec_file), "--out", str(out)]) == EXIT_OK
    rows = (out / "results.csv").read_text().splitlines()
    assert len(rows) == 1  # header only


def test_sweep_budget_takes_dim_cap_only(tmp_path, patch_bundle, capsys):
    # a wall-time budget would stop nothing, only relabel finished runs
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps({"bundle": str(patch_bundle), "budget": {"max_wall_s": 1},
                                     "runs": [{"solver": "tpm", "params": {"k": 2}}]}))
    out = tmp_path / "sweep"
    assert main(["sweep", "--spec", str(spec_file), "--out", str(out)]) == EXIT_INVALID
    assert "budget takes dim_cap only, not max_wall_s" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_reproducible_energy(tmp_path, patch_bundle):
    spec = {"bundle": str(patch_bundle),
            "runs": [{"solver": "skqd", "grid": {"d": [3]}, "params": {"shots": 500}}]}
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(spec))
    outs = []
    for name in ("s1", "s2"):
        out = tmp_path / name
        assert main(["sweep", "--spec", str(spec_file), "--out", str(out)]) == EXIT_OK
        rows = list(csv.DictReader((out / "results.csv").read_text().splitlines()))
        outs.append(float(rows[0]["final_energy"]))
    assert outs[0] == outs[1]


def test_unconverged_final_eigenpair_is_surfaced(patch_bundle, tmp_path, monkeypatch):
    def solve(*args):
        out = tmp_path / args[0]
        assert main(["solve", "--bundle", str(patch_bundle), "--out", str(out), *args]) == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        _, *rows = csv.reader((out / "trace.csv").read_text().splitlines())
        assert {r[5] for r in rows} == {summary["status"]}  # trace.csv agrees
        return summary

    solves = [("cipsi", "--eps", "1e-6"), ("tpm", "--k", "8", "--iters", "4")]
    for args in solves:
        summary = solve(*args)
        assert summary["converged"] is True
        assert summary["status"] != "unconverged"

    real = sparsegs.eigensolver.lowest_eigenpair
    monkeypatch.setattr(sparsegs.eigensolver, "lowest_eigenpair",
                        lambda m, **kw: dataclasses.replace(real(m, **kw), converged=False))
    for args in solves:
        summary = solve(*args)
        assert summary["converged"] is False
        assert summary["status"] == "unconverged"

    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"bundle": str(patch_bundle),
                                "runs": [{"solver": "cipsi", "grid": {"eps": [1e-6]}}]}))
    assert main(["sweep", "--spec", str(spec), "--out", str(tmp_path / "sweep")]) == EXIT_OK
    rows = list(csv.DictReader((tmp_path / "sweep" / "results.csv").read_text().splitlines()))
    assert [r["status"] for r in rows] == ["unconverged"]


def test_generate_verify_info_leave_scipy_unloaded(tmp_path):
    # every command pays the package import; SciPy would add about 0.2 s to
    # commands that never call it
    src = str(Path(sparsegs.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    script = (
        "import contextlib, io, sys\n"
        "from sparsegs.cli import main\n"
        "b = sys.argv[1]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    rcs = [main(['generate', '--out', b]), main(['verify', '--bundle', b]),\n"
        "           main(['info', '--bundle', b])]\n"
        "print(rcs, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    out = subprocess.run([sys.executable, "-c", script, str(tmp_path / "flagship")],
                         capture_output=True, text=True, env=env, check=True, timeout=120)
    assert out.stdout.strip() == f"{[EXIT_OK] * 3} []"


def test_summary_records_the_runs_own_peak_rss(patch_bundle, tmp_path):
    # a fresh `solve` process reports its peak resident set in MB, which
    # is at most the largest peak of any child process this test waited for
    import resource

    src = str(Path(sparsegs.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = tmp_path / "run"
    subprocess.run([sys.executable, "-m", "sparsegs.cli", "solve", "--bundle", str(patch_bundle),
                    "--out", str(out), "skqd", "--d", "2", "--shots", "50"],
                   capture_output=True, env=env, check=True, timeout=120)
    peak = json.loads((out / "summary.json").read_text())["peak_rss_mb"]
    assert 10 < peak <= resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
