"""stripflow benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload nonlinear-pinned --seed 1 --seconds 35 --trace 0

Workloads: nonlinear-pinned, linear-lattice, cli-suite, or ``all``.  Each
run starts fresh worker processes with one thread each
(OMP/OPENBLAS/MKL_NUM_THREADS=1): SETUPS - 1 that only set up, then one
that sets up and runs batches of the workload's fixed work for
``--seconds``.  ``--trace 0`` reports the end-to-end metrics of
BENCHMARK.json; ``--trace 1`` alternates plain and traced batches and
reports the per-layer metrics.  Summary lines come first; the last line
of standard output is one JSON object with keys correct, attempted, failed
and metrics.  A full record of each run, environment included, is written
under ``--results-dir`` for compare.py.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("nonlinear-pinned", "linear-lattice", "cli-suite")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
#: set-ups per run; setup_s is their median
SETUPS = 5
#: one workload's worker processes are stopped after this many seconds
RUN_LIMIT_S = 170.0
#: hand-measured per-call times (ms) at 1024x32 listed in ROADMAP.md
HAND_BASELINE_MS = {"solver.step": 49.5, "solver.nonlinear_term": 19.9,
                    "transforms.to_physical": 2.45, "transforms.to_spectral": 3.10,
                    "solver.admissible_dt": 5.8}


def spawn(workload, seed, work_dir, result, deadline, *extra):
    """Run one worker process to completion; returns its JSON record."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               **{v: "1" for v in THREAD_VARS})
    spawned_at = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--spawned-at", repr(spawned_at),
           "--work-dir", str(work_dir), "--result", str(result), *extra]
    subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL, check=True,
                   timeout=max(deadline - spawned_at, 1.0))
    return json.loads(Path(result).read_text())


def p90(values):
    """90th percentile (statistics.quantiles, exclusive method)."""
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


def op_latencies(batches):
    """The per-op latency sample of a run.

    Every op, when the ops of a batch do the same work.  When a batch mixes
    different ops (the six cli-suite experiments), each kind's median call:
    pooled, the run's median would fall between two experiments and follow
    the slowest call of one and the fastest of the other.
    """
    if batches[0].get("kinds") is None:
        return [x for b in batches for x in b["latencies_s"]]
    by_kind = defaultdict(list)
    for b in batches:
        for kind, x in zip(b["kinds"], b["latencies_s"]):
            by_kind[kind].append(x)
    return [statistics.median(v) for v in by_kind.values()]


def end_to_end(setups, main):
    batches = main["plain"]
    latencies = op_latencies(batches)
    attempted = sum(b["attempted"] for b in batches)
    failed = sum(b["failed"] for b in batches)
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(b["wall_s"] for b in batches),
        "ops_per_s": statistics.median((b["attempted"] - b["failed"]) / b["wall_s"]
                                       for b in batches),
        "op_p50_ms": 1e3 * statistics.median(latencies) if latencies else 0.0,
        "op_p90_ms": 1e3 * p90(latencies) if latencies else 0.0,
        "peak_rss_mib": main["peak_rss_mib"],
        "ok_frac": 1.0 - failed / attempted,
    }


def traced_layers(main):
    """Span summary of each traced batch, in batch order."""
    return [main["layers"][str(b["stats"]["trace"])] for b in main["traced"]]


def per_layer(main, names):
    """Per-layer metrics: calls and self_s are medians per traced batch."""
    import spans

    traced = main["traced"]
    layers = traced_layers(main)
    out = {}
    for mod, fns in spans.TARGETS.items():
        for fn in fns:
            key = f"{mod}.{fn}"
            recs = [layer.get(key, {"calls": 0, "self_s": 0.0}) for layer in layers]
            out[f"{key}.calls"] = statistics.median(r["calls"] for r in recs)
            out[f"{key}.self_s"] = statistics.median(r["self_s"] for r in recs)
    for mod, fn in spans.CACHED:
        key = f"{mod}.{fn}"
        hits = sum(b["stats"]["cache"][key][0] for b in traced)
        calls = sum(b["stats"]["cache"][key][1] for b in traced)
        out[f"{key}.hit_ratio"] = hits / calls if calls else 0.0
    for counter in {c for c, _ in spans.BYTE_COUNTERS.values()}:
        out[counter] = statistics.median(b["stats"]["counters"].get(counter, 0)
                                         for b in traced)
    out["process.minor_faults"] = statistics.median(b["minor_faults"]
                                                    for b in main["plain"])
    plain = statistics.median(b["wall_s"] for b in main["plain"])
    out["trace.overhead_frac"] = (statistics.median(b["wall_s"] for b in traced)
                                  / plain - 1.0)
    missing = set(names) - set(out)
    if missing:
        raise RuntimeError(f"per-layer metrics not measured: {sorted(missing)}")
    return {name: float(out[name]) for name in names}


def per_call_lines(main):
    """Inclusive ms per call of the hand-baselined functions, and step's share."""
    layers = traced_layers(main)
    lines = []
    for key, hand in HAND_BASELINE_MS.items():
        per_call = [1e3 * L[key]["total_s"] / L[key]["calls"] for L in layers if key in L]
        if per_call:
            lines.append(f"  {key:<28} {statistics.median(per_call):9.3f} ms/call traced"
                         f"   (hand baseline {hand} ms)")
    shares = [L["solver.nonlinear_term"]["total_s"] / L["solver.step"]["total_s"]
              for L in layers if "solver.step" in L]
    if shares:
        share = statistics.median(shares)
        lines.append(f"  solver.nonlinear_term share of solver.step: {100 * share:.1f} %")
    return lines


def run_workload(workload, seed, seconds, trace, size, results_dir, deadline, spec):
    results_dir.mkdir(parents=True, exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(dir=results_dir, prefix="work-"))
    stem = f"{workload}-trace{trace}-seed{seed}-{os.getpid()}"
    try:
        setups = [spawn(workload, seed, work_dir, work_dir / f"setup{i}.json",
                        deadline, "--setup-only", "--size", size)["setup_s"]
                  for i in range(SETUPS - 1)]
        extra = ["--seconds", str(seconds), "--size", size]
        if trace:
            extra += ["--trace", "--spans", str(results_dir / f"{stem}-spans.json")]
        main = spawn(workload, seed, work_dir, work_dir / "main.json", deadline, *extra)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    setups.append(main["setup_s"])

    batches = main["plain"] + main["traced"]
    attempted = sum(b["attempted"] for b in batches)
    failed = sum(b["failed"] for b in batches)
    correct = failed == 0 and all(all(b["checks"].values()) for b in batches)
    if trace:
        names = [m["name"] for m in spec["per_layer"]]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = per_layer(main, names)
    else:
        names = [m["name"] for m in spec["end_to_end"]]
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values = end_to_end(setups, main)
    record = {
        "workload": workload, "seed": seed, "trace": trace, "seconds": seconds,
        "size": size, "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in names},
        "samples": {"setups": len(setups), "plain_batches": len(main["plain"]),
                    "traced_batches": len(main["traced"]),
                    "ops": sum(len(b["latencies_s"]) for b in main["plain"])},
        "setup_s_each": setups,
        "batch_wall_s": [b["wall_s"] for b in main["plain"]],
        "checks": [b["checks"] for b in batches],
        "inputs": main["inputs"], "env": main["env"],
    }
    (results_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    env = main["env"]
    print(f"{workload}  seed {seed}  trace {trace}  inputs {main['inputs']}")
    print(f"  env: nproc {env['nproc']} (usable {env['cpus_usable']}), python "
          f"{env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, fft "
          f"{env['fft_backend']}, threads {env['threads']}")
    s = record["samples"]
    print(f"  samples: {s['setups']} set-ups, {s['plain_batches']} plain batches, "
          f"{s['traced_batches']} traced batches, {s['ops']} timed ops")
    for n in names:
        print(f"  {n:<46} {values[n]:>14.6g} {units[n]}")
    print(f"  failed_frac {failed / attempted:.6g} ({failed} of {attempted} ops)")
    if trace:
        for line in per_call_lines(main):
            print(line)
    return record


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "toy"), default="full")
    ap.add_argument("--results-dir", type=Path, default=ROOT / ".perfbench-runs")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "stripflow" / "__init__.py").is_file():
        print(f"stripflow sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    try:
        for workload in chosen:
            records.append(run_workload(workload, args.seed, args.seconds, args.trace,
                                        args.size, args.results_dir,
                                        time.monotonic() + RUN_LIMIT_S, spec))
    except (subprocess.SubprocessError, OSError, RuntimeError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1

    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{n}": m for r in records
                   for n, m in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
