"""Benchmark of the crnn package: training and audio inference, end to end
and per module.

    python3 benchmarks/run.py --workload order_train --seed 1 --seconds 20 --trace 0

Run from the repository root.  The workloads (see ``workloads.py`` for why
each exists) are ``order_train``, ``emotion_train`` and ``agegender_audio``.
Each run is one process with single-threaded BLAS and one caller in a closed
loop: until ``--seconds`` have passed it builds its inputs from ``--seed``
(timed, for ``setup_s``) and runs the workload's timed unit on them, and it
checks every unit's outputs.

With ``--trace 0`` the last line of standard output carries the end-to-end
metrics: ``setup_s`` and ``examples_per_s``.  The rate samples behind
``examples_per_s`` are training examples per wall second of one epoch of
``train()`` (validation pass included) on the training workloads, and clips
per wall second of one whole extract/eval/infer round on
``agegender_audio``.  Both figures sit on the slow side of their samples
(see ``RATE_PERCENTILE``).  With ``--trace 1`` the run then repeats one
unit with spans around every call into the traced ``crnn`` functions, and
the last line carries the per-layer metrics (``tracer.py``).  The line
before it is a fuller report: every metric the workload defines with its
sample count, the check counts, and an ``env`` block.  Reports and span
files go to ``benchmarks/out/``.
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import json
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True

from loader import import_crnn
from tracer import Tracer, per_layer_metric_specs
from workloads import WORKLOADS, Checks, percentile_metric

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
# Every timed unit runs after a set-up of its own, so that the set-up times,
# like the rates, cover the whole run rather than one moment of it.
MIN_UNITS = 3
# examples_per_s is the 5th percentile of the run's rate samples (the rate
# at the 95th percentile of per-sample wall time) and setup_s the 90th
# percentile of its set-up times (fewer samples: one per unit).  On a shared
# 2-vCPU host the CPU switched between two speeds about 1.7x apart, in
# phases of several seconds (a fixed numpy loop run between epochs tracked
# the epoch rates, r = 0.85), and the share of each speed varied from run to
# run, so medians jumped between the two; a figure on the slow side stays on
# the slow speed while that covers a twentieth (a tenth) of the run.  Over
# ten 36 s runs per workload (order_train, emotion_train, agegender_audio)
# the spread (IQR/median) of the 5th-percentile rate was 0.038, 0.084 and
# 0.088 where that of the median rate was 0.191, 0.166 and 0.149, and of the
# set-up figure 0.071, 0.108 and 0.065 where that of the median set-up time
# was 0.183, 0.250 and 0.261.  The report line keeps the medians of the rates.
RATE_PERCENTILE = 5
SETUP_PERCENTILE = 90


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def env_block(seed: int, patched: bool) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(ROOT),
        "seed": seed,
        "model_import_patched": patched,
    }


def self_time_table(workload: str, stats: dict) -> str:
    rows = sorted(stats.items(), key=lambda kv: -kv[1]["self_s"])
    lines = [f"self time, {workload}:",
             f"  {'function':32s} {'calls':>8s} {'total_s':>10s} {'self_s':>10s}"]
    lines += [f"  {name:32s} {row['calls']:8d} {row['total_s']:10.4f} {row['self_s']:10.4f}"
              for name, row in rows if row["calls"]]
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "crnn").is_dir():
        print(f"error: no crnn sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    crnn, patched = import_crnn(ROOT / "src")
    OUT.mkdir(exist_ok=True)

    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    workdir = OUT / f"work-{run_id}"
    workload = WORKLOADS[args.workload](crnn, args.seed)
    checks = Checks()
    try:
        setup_s, units = [], []
        deadline = time.perf_counter() + args.seconds
        while len(units) < MIN_UNITS or time.perf_counter() < deadline:
            shutil.rmtree(workdir, ignore_errors=True)
            start = time.perf_counter()
            workload.setup(workdir)
            setup_s.append(time.perf_counter() - start)
            units.append(workload.run_unit())
            workload.verify(units[-1], checks)
            units[-1].outputs.clear()   # trained parameters and features
        summary = {"examples_per_s": percentile_metric(
            [r for u in units for r in u.rates], RATE_PERCENTILE, "1/s")}
        summary.update(workload.summarize(units))
        summary["setup_s"] = percentile_metric(setup_s, SETUP_PERCENTILE, "s")

        if args.trace:
            tracer = Tracer(run_id)
            with tracer.installed(crnn):
                traced = workload.run_unit()
            workload.verify(traced, checks)
            overhead = traced.wall_s / statistics.median(u.wall_s for u in units)
            values = tracer.metrics(overhead)
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit, _ in per_layer_metric_specs()}
            tracer.write_spans(OUT / f"{run_id}.spans.tsv.gz")
            print(self_time_table(args.workload, tracer.stats()))
            print(f"trace.overhead_ratio {overhead:.3f}  "
                  f"spans {len(tracer.names)} -> {OUT / (run_id + '.spans.tsv.gz')}")
        else:
            metrics = {"setup_s": {"value": summary["setup_s"]["value"], "unit": "s"},
                       "examples_per_s": {"value": summary["examples_per_s"]["value"],
                                          "unit": "1/s"}}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    summary["failed_ops_ratio"] = {"value": checks.failed / max(checks.attempted, 1),
                                   "unit": "ratio", "failed": checks.failed,
                                   "attempted": checks.attempted}
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "units": len(units), "env": env_block(args.seed, patched),
              "metrics": summary, "failures": checks.failures}
    (OUT / f"{run_id}.json").write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps(report))
    print(json.dumps({"correct": checks.failed == 0, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
