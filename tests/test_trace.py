import math
import time

import numpy as np
import pytest

from sparsegs.trace import (STATUS_MAX_ITERS, STATUS_STALLED, STATUS_UNCONVERGED,
                            BudgetExceeded, SolverTrace)


def test_check_dim_allows_the_cap_and_names_what_crossed_it():
    trace = SolverTrace("t", dim_cap=10)
    trace.check_dim(10, "basis")
    with pytest.raises(BudgetExceeded, match=r"^pool of 11 exceeds cap 10$"):
        trace.check_dim(11, "pool")


def test_add_stamps_the_running_flops_as_a_python_float(tmp_path):
    trace = SolverTrace("t")
    trace.count(np.int64(5856))
    t0 = time.perf_counter()
    trace.add(0, 3, -1.5, t0)
    trace.count(np.float64(4.0))
    trace.add(1, 4, -2.0, t0)
    assert [type(r.flops) for r in trace.rows] == [float, float]
    assert [r.flops for r in trace.rows] == [5856.0, 5860.0]
    assert all(r.wall_ms >= 0 for r in trace.rows)
    trace.write_csv(tmp_path / "trace.csv")
    lines = (tmp_path / "trace.csv").read_text().splitlines()
    assert lines[1].startswith("t,0,3,-1.5,") and lines[1].endswith(",max_iters,5856.0")


def test_finish_sets_the_three_final_fields():
    trace = SolverTrace("t")
    assert trace.status == STATUS_MAX_ITERS and math.isnan(trace.final_energy)
    trace.count(7)
    trace.finish(-0.25, 12)
    assert (trace.final_energy, trace.final_dim, trace.flops) == (-0.25, 12, 7.0)
    assert type(trace.flops) is float


def test_finish_records_the_final_eigenpairs_flag(tmp_path):
    trace = SolverTrace("t")
    trace.finish(0.5, 3)
    assert trace.converged is None and trace.status == STATUS_MAX_ITERS
    trace.status = STATUS_STALLED
    trace.finish(0.5, 3, np.bool_(True))
    assert trace.converged is True and trace.status == STATUS_STALLED
    trace.add(0, 3, 0.5, time.perf_counter())
    trace.finish(0.5, 3, False)
    assert trace.converged is False and trace.status == STATUS_UNCONVERGED
    trace.write_csv(tmp_path / "trace.csv")
    assert (tmp_path / "trace.csv").read_text().splitlines()[1].split(",")[5] == "unconverged"
