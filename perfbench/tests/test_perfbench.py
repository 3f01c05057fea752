"""The benchmark's own tests, at toy size (64x8, a few ops per batch).

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import compare
import run
import spans
import workloads
from stripflow import propagators, solver

BENCH = Path(__file__).resolve().parent.parent
TOY = workloads.SIZES["toy"]


def toy_batch(name, tmp_path, seed=3):
    setup, batch = workloads.WORKLOADS[name]
    return batch(setup(seed, TOY, tmp_path))


# --- workloads and their checks ---------------------------------------------

@pytest.mark.parametrize("name,ops", [("nonlinear-pinned", TOY["steps"]),
                                      ("linear-lattice", TOY["uniform"] + TOY["log"]),
                                      ("cli-suite", len(workloads.CLI_EXPERIMENTS))])
def test_workload_batch_passes_its_checks(name, ops, tmp_path):
    res = toy_batch(name, tmp_path)
    assert all(res.checks.values()), res.checks
    assert res.attempted == ops and res.failed == 0
    assert len(res.latencies) == ops
    assert list(tmp_path.iterdir()) == []  # temporary outputs removed


def test_nonlinear_checks_see_a_wrong_final_state(tmp_path, monkeypatch):
    exact = propagators.propagate_linear_pair

    def off_by_percent(omega0, theta0, t):
        s = exact(omega0, theta0, t)
        s.theta.coeff *= 1.01
        return s

    monkeypatch.setattr(propagators, "propagate_linear_pair", off_by_percent)
    res = toy_batch("nonlinear-pinned", tmp_path)
    assert res.checks["tracks_linear"] is False
    assert res.failed == res.attempted == TOY["steps"]


def test_nonlinear_step_that_raises_counts_the_rest_failed(tmp_path, monkeypatch):
    real_step = solver.step
    calls = []

    def failing_step(state, cfg):
        calls.append(1)
        if len(calls) == 3:
            raise FloatingPointError("injected")
        return real_step(state, cfg)

    ctx = workloads.setup_nonlinear(3, TOY, tmp_path)
    monkeypatch.setattr(solver, "step", failing_step)
    res = workloads.batch_nonlinear(ctx)
    assert res.failed == TOY["steps"] - 2


def test_linear_non_finite_op_is_counted(tmp_path, monkeypatch):
    ctx = workloads.setup_linear(3, TOY, tmp_path)
    exact = propagators.propagate_linear_pair
    bad_t = ctx.uniform_times[5]

    def poisoned(omega0, theta0, t):
        s = exact(omega0, theta0, t)
        if t == bad_t:
            s.omega.coeff[0, 0] = np.nan
        return s

    monkeypatch.setattr(propagators, "propagate_linear_pair", poisoned)
    res = workloads.batch_linear(ctx)
    assert res.failed == 1


def test_cli_failed_check_counts_one_op(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "NU_STAR_DELTA_MAX", 0.0)
    res = toy_batch("cli-suite", tmp_path)
    assert res.failed == 1 and res.attempted == 6


def test_cli_seed_reaches_every_experiment_but_oracle_suite(tmp_path):
    ctx = workloads.setup_cli(1324930728, TOY, tmp_path)
    for experiment in workloads.CLI_EXPERIMENTS:
        argv = workloads.cli_argv(ctx, experiment, tmp_path / experiment)
        assert ("--seed" in argv) == (experiment != "oracle-suite"), argv


def test_inputs_depend_only_on_seed(tmp_path):
    a = workloads.setup_linear(7, TOY, tmp_path)
    b = workloads.setup_linear(7, TOY, tmp_path)
    c = workloads.setup_linear(8, TOY, tmp_path)
    assert a.inputs == b.inputs != c.inputs
    assert np.array_equal(a.theta0.coeff, b.theta0.coeff)


# --- spans and self time -----------------------------------------------------

def test_self_time_on_a_synthetic_span_tree():
    rows = [
        ["root", 0.0, 10.0, -1, 1],
        ["a", 1.0, 4.0, 0, 1],
        ["b", 3.0, 6.0, 0, 1],      # overlaps a: the root loses [1, 6] once
        ["a.child", 2.0, 3.0, 1, 1],
        ["late", 9.0, 12.0, 0, 1],  # clipped to the root's end
        ["other", 0.0, 2.0, -1, 2],
    ]
    assert spans.self_times(rows) == pytest.approx([4.0, 2.0, 3.0, 1.0, 3.0, 2.0])
    summary = spans.summarize(rows)
    assert summary[1]["a"] == {"calls": 1, "self_s": 2.0, "total_s": 3.0}
    assert summary[2] == {"other": {"calls": 1, "self_s": 2.0, "total_s": 2.0}}


def test_tracer_wraps_every_import_site_and_restores(tmp_path):
    import stripflow.solver
    import stripflow.transforms

    original = stripflow.transforms.to_physical
    ctx = workloads.setup_nonlinear(3, TOY, tmp_path)
    tracer = spans.Tracer()
    state0, _ = solver.make_initial_data(ctx.profile, ctx.grid)
    # looked up at call time, as the workloads do, so the wrapper is seen
    _, stats = tracer.run(lambda: solver.step(state0, ctx.stepper))
    assert stripflow.solver.to_physical is original
    assert stripflow.transforms.to_physical is original

    layers = spans.summarize(tracer.spans)[stats["trace"]]
    assert layers["solver.step"]["calls"] == 1
    assert layers["solver.nonlinear_term"]["calls"] == 2
    # admissible_dt synthesizes u1, u2; each nonlinear_term also synthesizes
    # d/dx and d/dy of omega and theta
    assert layers["transforms.to_physical"]["calls"] == 2 + 2 * 6
    assert stats["cache"]["propagators.pair_step_matrix"] == (1, 1)
    assert stats["counters"]["transforms.bytes_computed"] > 0
    names = {row[0]: i for i, row in enumerate(tracer.spans)}
    step_span = names["solver.step"]
    assert tracer.spans[step_span][3] == names["batch"]


def test_benchmark_json_lists_exactly_the_measured_layers():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    listed = [m["name"] for m in spec["per_layer"]]
    expected = {f"{m}.{f}.{k}" for m, fs in spans.TARGETS.items() for f in fs
                for k in ("calls", "self_s")}
    expected |= {f"{m}.{f}.hit_ratio" for m, f in spans.CACHED}
    expected |= {c for c, _ in spans.BYTE_COUNTERS.values()}
    expected |= {"process.minor_faults", "trace.overhead_frac"}
    assert len(listed) == len(set(listed)) and set(listed) == expected


# --- end-to-end runs through run.py --------------------------------------------

def run_toy(tmp_path, *args, cwd=BENCH.parent):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--seed", "2",
           "--seconds", "1", "--size", "toy", "--results-dir", str(tmp_path), *args]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=cwd)


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_run_prints_every_metric_as_last_line(tmp_path, trace, section):
    proc = run_toy(tmp_path, "--workload", "nonlinear-pinned", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert list(result["metrics"]) == [m["name"] for m in spec[section]]
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    records = [p for p in tmp_path.glob("*.json") if not p.name.endswith("-spans.json")]
    env = json.loads(records[0].read_text())["env"]
    assert env["threads"] == {v: "1" for v in run.THREAD_VARS}


def test_run_fails_without_sources(tmp_path):
    bare = tmp_path / "bare"
    bare.mkdir()
    shutil.copy(BENCH.parent / "BENCHMARK.json", bare)
    shutil.copytree(BENCH, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_toy(tmp_path / "out", "--workload", "cli-suite", cwd=bare)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_end_to_end_aggregation():
    main = {"peak_rss_mib": 100.0, "plain": [
        {"wall_s": w, "attempted": 4, "failed": 0, "latencies_s": [w / 4] * 4}
        for w in (1.0, 2.0, 3.0)]}
    m = run.end_to_end([0.5, 0.7, 0.6], main)
    assert m["setup_s"] == 0.6 and m["wall_s"] == 2.0 and m["ops_per_s"] == 2.0
    assert m["op_p50_ms"] == 500.0 and m["ok_frac"] == 1.0


def test_mixed_ops_count_each_kind_once():
    batches = [{"kinds": ["fast", "slow"], "latencies_s": [0.1 + d, 3.0 + d]}
               for d in (0.0, 0.01, 0.5)]
    assert run.op_latencies(batches) == [0.11, 3.01]
    assert run.op_latencies([{"kinds": None, "latencies_s": [1.0, 2.0]}]) == [1.0, 2.0]


# --- compare verdict rule ------------------------------------------------------

def test_verdict_improved_needs_nine_tenths_of_pairs_and_a_gap():
    parent = [10.0 + 0.01 * i for i in range(10)]
    faster = [8.0 + 0.01 * i for i in range(10)]
    assert compare.verdict(parent, faster, "lower", 0.1) == ("improved", 10)
    # eight wins of ten is not enough, even with a large gap in the medians
    mixed = faster[:8] + [20.0, 20.0]
    assert compare.verdict(parent, mixed, "lower", 0.1)[0] != "improved"


def test_verdict_worse_no_worse_and_unresolved():
    parent = [10.0, 10.1, 10.2, 9.9, 10.0, 10.1, 9.8, 10.0, 10.1, 10.0]
    slightly = [v * 1.05 for v in parent]
    assert compare.verdict(parent, slightly, "lower", 0.1)[0] == "no worse"
    much = [v * 1.3 for v in parent]
    assert compare.verdict(parent, much, "lower", 0.1)[0] == "worse"
    assert compare.verdict(parent, much, "higher", 0.1)[0] == "improved"
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert compare.verdict(parent, noisy, "lower", 0.1)[0] == "unresolved"
    # a spread wider than the bound still resolves when every change run
    # reads better than every parent run
    wide = [10.0 + i for i in range(10)]
    below = [9.0 + 0.1 * i for i in range(10)]
    assert compare.verdict(wide, below, "lower", 0.1)[0] == "no worse"


def test_compare_lists_moved_layers(tmp_path):
    spec = {"end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1}],
            "per_layer": [{"name": "a.calls", "unit": "count", "better": "lower"},
                          {"name": "b.self_s", "unit": "s", "better": "lower"}]}

    def recs(wall, a, b):
        return {("w", 0): [{"seed": s, "metrics": {"wall_s": {"value": wall}}}
                           for s in range(3)],
                ("w", 1): [{"seed": s, "metrics": {"a.calls": {"value": a},
                                                   "b.self_s": {"value": b}}}
                           for s in range(3)]}

    lines = compare.compare(recs(1.0, 10, 1.0), recs(1.02, 10, 1.5), spec)
    text = "\n".join(lines)
    assert "no worse" in text
    assert "b.self_s" in text and "a.calls" not in text
