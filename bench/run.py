"""Benchmark of the linklabel package: end to end and per module.

Run from the repository root:

    python3 bench/run.py --workload cv-sweep --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload serve-stream --seed 1 --seconds 10 --trace 1
    python3 bench/run.py --smoke

Each run is one process that imports the package from the working tree's
``src/``, makes its inputs from ``--seed``, measures whole rounds of its
workload for at least ``--seconds`` seconds, checks the outputs, and prints
as its last line one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` the per-module (layer) ones, and the spans are written to
``bench/work/``. Every workload reports every metric of its kind, with the
names and units of ``BENCHMARK.json``. ``--smoke`` runs every workload,
traced and untraced, at toy size and exits non-zero if any check fails or a
result line lacks a metric of ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from time import perf_counter

# One thread per BLAS call, so that runs do not compete for the two cores.
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "work")


def parse_args(argv):
    p = argparse.ArgumentParser(description="linklabel benchmark")
    p.add_argument("--workload", choices=("cv-sweep", "cluster-2k", "serve-stream"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0,
                   help="measure whole rounds until this much time has passed")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: report per-module metrics from a traced run")
    p.add_argument("--threads", type=int, default=1,
                   help="cv-sweep's --threads flag (reference runs only)")
    p.add_argument("--smoke", action="store_true",
                   help="run every workload at toy size, traced and untraced")
    args = p.parse_args(argv)
    if not args.smoke and args.workload is None:
        p.error("--workload is required")
    if args.trace and args.threads != 1:
        p.error("--trace 1 records spans of one thread only")
    return args


def run_once(workloads, tracing, name, seed, seconds, trace, size, threads=1) -> dict:
    tracer = tracing.install(tracing.Tracer()) if trace else None
    run = workloads.Run(seed=seed, seconds=seconds, work=WORK, size=size,
                        tracer=tracer, threads=threads)
    t0 = perf_counter()
    try:
        workloads.RUNNERS[name](run)
    finally:
        if tracer is not None:
            tracer.uninstall()
    wall = perf_counter() - t0
    metrics = run.end_to_end() if tracer is None else tracer.layer_metrics()
    if tracer is not None:
        tracer.write(os.path.join(WORK, f"trace-{name}-seed{seed}.jsonl"))
    for problem in run.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"# {name} seed {seed} trace {trace}: wall {wall:.3f} s, "
          f"{run.attempted} operations, {run.failed} failed")
    return {"correct": not run.problems, "attempted": run.attempted,
            "failed": run.failed, "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not os.path.isfile(os.path.join(SRC, "linklabel", "__init__.py")):
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(WORK, exist_ok=True)
    import tracing
    import workloads

    if args.smoke:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            manifest = json.load(fh)
        want = {trace: {m["name"]: m["unit"] for m in manifest[kind]}
                for trace, kind in ((0, "end_to_end"), (1, "per_layer"))}
        ok = True
        for name in workloads.WORKLOADS:
            for trace in (0, 1):
                res = run_once(workloads, tracing, name, args.seed, 0.0, trace,
                               workloads.SMOKE[name])
                got = {k: m["unit"] for k, m in res["metrics"].items()}
                if got != want[trace]:
                    print(f"{name} trace {trace}: metrics {got} differ from "
                          f"BENCHMARK.json's {want[trace]}", file=sys.stderr)
                    ok = False
                ok &= res["correct"] and res["failed"] == 0
                print(json.dumps(res))
        print("smoke: ok" if ok else "smoke: FAILED")
        return 0 if ok else 1

    res = run_once(workloads, tracing, args.workload, args.seed, args.seconds, args.trace,
                   workloads.FULL[args.workload], args.threads)
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
