"""One workload process: set up, run batches for a time budget, write a JSON record.

Started by run.py as a fresh process so that set-up time counts imports and
peak RSS is this workload's own.  Usage:

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
        --spawned-at MONOTONIC --work-dir DIR --result FILE
        [--setup-only] [--trace] [--spans FILE] [--size full|toy]

``--spawned-at`` is the parent's time.monotonic() just before the spawn;
CLOCK_MONOTONIC is system-wide, so set-up time runs from process start.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def environment():
    import numpy
    import scipy
    import scipy.fft

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "fft_backend": {
            "numpy.fft": "pocketfft" if hasattr(numpy.fft, "_pocketfft") else "unknown",
            "scipy.fft": f"pocketfft, workers={scipy.fft.get_workers()}",
        },
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def _minor_faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _record(result, wall, faults, stats=None):
    rec = {"wall_s": wall, "minor_faults": faults, "attempted": result.attempted,
           "failed": result.failed, "checks": result.checks,
           "latencies_s": result.latencies, "kinds": result.kinds}
    if stats is not None:
        rec["stats"] = stats
    return rec


def run_batches(batch, ctx, seconds, tracer=None):
    """Run batches until the next would overrun ``seconds``.

    Without a tracer at least one batch runs.  With one, plain and traced
    batches alternate, plain first, and at least one of each runs.
    Returns (plain, traced): lists of batch records.
    """
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        f0, t0 = _minor_faults(), time.perf_counter()
        if tracer is not None and len(traced) < len(plain):
            result, stats = tracer.run(batch, ctx)
            wall = time.perf_counter() - t0
            traced.append(_record(result, wall, _minor_faults() - f0, stats))
        else:
            result = batch(ctx)
            wall = time.perf_counter() - t0
            plain.append(_record(result, wall, _minor_faults() - f0))
        done = len(plain) + len(traced)
        elapsed = time.perf_counter() - start
        if tracer is not None and not traced:
            continue
        if elapsed + elapsed / done > seconds:
            return plain, traced


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--work-dir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--size", default="full")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import spans
    import workloads

    setup, batch = workloads.WORKLOADS[args.workload]
    ctx = setup(args.seed, workloads.SIZES[args.size], args.work_dir)
    record = {"setup_s": time.monotonic() - args.spawned_at, "inputs": ctx.inputs}
    if not args.setup_only:
        tracer = spans.Tracer() if args.trace else None
        plain, traced = run_batches(batch, ctx, args.seconds, tracer)
        record["plain"], record["traced"] = plain, traced
        if tracer is not None:
            record["layers"] = spans.summarize(tracer.spans)
            if args.spans:
                tracer.dump(args.spans)
        record["env"] = environment()
    record["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(args.result).write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
