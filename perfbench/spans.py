"""Per-layer tracing from outside the package.

`Recorder.install()` swaps every binding of the traced functions across the
loaded `sparsegs.*` modules for a timing wrapper.  The package imports
functions by name (`from .subspace import project_fast`), so each consumer
module holds its own binding and each one is replaced, not just the
defining module's.  SKQD calls SciPy's `expm_multiply` through the module
alias `spla`; that alias is swapped for a proxy whose `expm_multiply` is
wrapped, so SciPy itself is left alone.  `uninstall()` restores everything.

Spans stay in memory as (name, phase, job, parent, start, end, counts) and
are written out once, by `write()`, when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types
from collections import defaultdict
from pathlib import Path

import scipy.sparse.linalg as spla


def _entries(c, args, out):
    c["entries"] = len(args[1])


def _projection(c, args, out):
    c["dim"] = out.dim
    c["nnz"] = out.rows.nnz


def _sources(c, args, out):
    c["sources"] = len(args[1])


def _filter(c, args, out):
    c["pool"] = len(args[1])
    c["kept"] = len(out)


def _lanczos(c, args, out):
    c["iterations"] = out.iterations
    c["unconverged"] = int(not out.converged)


def _dense(c, args, out):
    c["dim_max"] = out.vector.size


# (module, function) -> work counter, or None for calls and time only.
TRACED = {
    ("paulis", "apply_sum_to_vector"): _entries,
    ("paulis", "diagonal_element"): None,
    ("subspace", "project_fast"): _projection,
    ("subspace", "connected_bits"): _sources,
    ("subspace", "connectivity_filter"): _filter,
    ("eigensolver", "dense_lowest"): _dense,
    ("eigensolver", "lanczos_lowest"): _lanczos,
    ("sci", "run_sci"): None,
    ("matrixfree", "run_diag_ranking"): None,
    ("matrixfree", "run_truncated_arnoldi"): None,
    ("matrixfree", "run_tpm"): None,
    ("skqd", "run_skqd"): None,
    ("cli", "main"): None,
    ("builder", "assemble_global"): None,
    ("builder", "save_bundle"): None,
    ("builder", "load_bundle"): None,
    ("builder", "verify_certificate"): None,
    ("lattice", "build_heavy_hex"): None,
    ("lattice", "build_path"): None,
    ("lattice", "embed_patches"): None,
}
EXPM_SPAN = "skqd.expm_multiply"

# Spans whose self time (duration minus their wrapped children) is reported.
SELF_TIMED = (
    "sci.run_sci",
    "matrixfree.run_diag_ranking",
    "matrixfree.run_truncated_arnoldi",
    "matrixfree.run_tpm",
    "skqd.run_skqd",
    "cli.main",
)


class _LinalgProxy(types.ModuleType):
    """Stands in for `scipy.sparse.linalg` inside one consumer module."""

    def __init__(self, wrapped_expm):
        super().__init__(spla.__name__)
        self.expm_multiply = wrapped_expm

    def __getattr__(self, name):
        return getattr(spla, name)


class Recorder:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._swapped: list[tuple[object, str, object]] = []
        self.phase = "setup"
        self.job = None

    def _wrap(self, name, fn, count):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kw):
            span = [name, self.phase, self.job, stack[-1] if stack else -1,
                    time.perf_counter(), 0.0, {}]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kw)
            finally:
                span[5] = time.perf_counter()
                stack.pop()
            if count is not None:
                count(span[6], args, out)
            return out

        return traced

    def install(self) -> None:
        replace = {}  # id(original) -> (original, stand-in)
        for (mod, fn_name), count in TRACED.items():
            original = getattr(sys.modules[f"sparsegs.{mod}"], fn_name)
            replace[id(original)] = (original, self._wrap(f"{mod}.{fn_name}", original, count))
        proxy = _LinalgProxy(self._wrap(EXPM_SPAN, spla.expm_multiply, None))
        replace[id(spla)] = (spla, proxy)
        mods = [m for k, m in sys.modules.items()
                if (k == "sparsegs" or k.startswith("sparsegs.")) and m is not None]
        for m in mods:
            for attr, value in list(vars(m).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    self._swapped.append((m, attr, value))
                    setattr(m, attr, hit[1])

    def uninstall(self) -> None:
        for m, attr, value in reversed(self._swapped):
            setattr(m, attr, value)
        self._swapped.clear()

    def write(self, path: Path) -> None:
        keys = ("name", "phase", "job", "parent", "start", "end", "counts")
        with open(path, "w") as f:
            for i, s in enumerate(self.spans):
                f.write(json.dumps({"id": i, **dict(zip(keys, s))}) + "\n")


def layer_stats(spans: list[list], phase: str) -> dict[str, float]:
    """Per-layer metrics of one phase: `<name>.calls`, `.s`, `.self_s` for
    SELF_TIMED spans, and the summed work counts (`*_max` counts take the
    maximum; connectivity_filter's kept/pool become `kept_ratio`)."""
    out: dict[str, float] = defaultdict(float)
    child_s: dict[int, float] = defaultdict(float)
    for s in spans:
        if s[1] == phase and s[3] >= 0:
            child_s[s[3]] += s[5] - s[4]
    for i, s in enumerate(spans):
        name, ph, _, _, t0, t1, counts = s
        if ph != phase:
            continue
        out[f"{name}.calls"] += 1
        out[f"{name}.s"] += t1 - t0
        if name in SELF_TIMED:
            out[f"{name}.self_s"] += t1 - t0 - child_s[i]
        for k, v in counts.items():
            key = f"{name}.{k}"
            out[key] = max(out[key], v) if k.endswith("_max") else out[key] + v
    pool = out.pop("subspace.connectivity_filter.pool", 0.0)
    kept = out.pop("subspace.connectivity_filter.kept", 0.0)
    out["subspace.connectivity_filter.kept_ratio"] = kept / pool if pool else 0.0
    return dict(out)
