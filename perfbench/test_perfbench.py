"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import json
import shutil
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from tracer import aggregate  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _counts(workload, result):
    """Every count a traced invocation yields (time-valued entries dropped)."""
    metrics = run.trace_metrics(workload, result["trace"])
    return {k: v for k, v in metrics.items()
            if not k.endswith(("_s", "us_per_rk4_step"))}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_two_traced_runs_give_identical_counts(name):
    workload = WORKLOADS[name]
    bench = run.Bench(workload)
    try:
        first = bench.invoke(seed=7, index=0, config_index=0, traced=True)
        second = bench.invoke(seed=7, index=1, config_index=0, traced=True)
    finally:
        bench.close()
    assert first["error"] is None and second["error"] is None
    counts = _counts(workload, first)
    assert counts == _counts(workload, second)
    assert counts["schrodinger.rk4_steps"] == (
        counts["schrodinger.solve_pair.calls"] * (workload.n - 1))
    assert counts["schrodinger.pairs_distinct"] <= (
        counts["schrodinger.solve_pair.calls"] + counts["schrodinger.analytic_pair.calls"])


def test_gate_rejects_a_report_that_drops_a_check(tmp_path):
    workload = WORKLOADS["linear-report"]
    bench = run.Bench(workload)
    try:
        result = bench.invoke(seed=1, index=0, config_index=0, traced=False)
    finally:
        bench.close()
    assert result["error"] is None
    report = result["report"]
    out = tmp_path / "out"
    out.mkdir()
    code = 2 if report["summary"]["failed"] else 0
    (out / "report.json").write_text(json.dumps(report))
    assert run.gate(workload, code, "", out) == (report, None)

    dropped = dict(report, checks=dict(report["checks"]))
    del dropped["checks"]["legendre"]
    (out / "report.json").write_text(json.dumps(dropped))
    assert "checks missing" in run.gate(workload, code, "", out)[1]

    (out / "fields.csv").write_text("x\n")
    assert "wrote" in run.gate(workload, code, "", out)[1]
    shutil.rmtree(out)
    assert run.gate(workload, 1, "", out)[1] == "exit code 1"


def test_self_time_subtracts_direct_children():
    trace = {"spans": [["cli.main", 0.0, 10.0, -1],
                       ["cli.run", 1.0, 9.0, 0],
                       ["fields.derivative", 2.0, 3.0, 1],
                       ["fields.derivative", 4.0, 6.0, 1]]}
    stats = aggregate(trace)
    assert stats["cli.main"]["self_s"] == pytest.approx(2.0)
    assert stats["cli.run"]["self_s"] == pytest.approx(5.0)
    assert stats["fields.derivative"] == pytest.approx(
        {"calls": 2, "total_s": 3.0, "self_s": 3.0})


def test_configs_follow_the_seed_and_fix_the_work():
    for workload in WORKLOADS.values():
        a, b = workload.config(3, 5), workload.config(3, 5)
        assert a == b
        other = workload.config(4, 5)
        assert other["microstate"] != a["microstate"]
        for key in ("potential", "energy", "grid", "constants"):
            assert other[key] == a[key]
        assert other["hierarchy"]["order"] == a["hierarchy"]["order"]
