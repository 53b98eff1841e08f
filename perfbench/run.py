"""End-to-end benchmark of the State Skip flow (see perfbench/README.md).

One run, from the root of a checkout::

    python3 perfbench/run.py --workload embed-stream --seed 1 --seconds 25 --trace 0

prints a ``{"meta": ...}`` line and, as its last line, the result object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1`` (which also
writes a Chrome trace and a span rollup under ``perfbench/out/``).

``--repeat N`` runs the workload N times per trace mode, each in a fresh
process with seeds ``seed .. seed+N-1``, and prints the median and
interquartile range of every metric plus the tracing overhead.
``--write-digest`` recomputes ``digest.json`` over every op any seed can
draw; run it only when a change is meant to alter simulated results.
"""

from __future__ import annotations

import os

# BLAS threads are pinned before numpy is first imported: with its default
# thread pool OpenBLAS burns more CPU than the work needs on a 2-CPU host
# and the run-to-run spread widens.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
DIGEST_PATH = BENCH_DIR / "digest.json"
SPEC_PATH = ROOT / "BENCHMARK.json"


def load_spec() -> dict:
    with open(SPEC_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def host_calibration() -> dict:
    """Repo-independent timings (median of five), to make host drift visible."""
    import numpy

    matrix = numpy.random.default_rng(0).random((192, 192))

    def python_loop() -> None:
        total = 0
        for i in range(200_000):
            total += i * i % 7

    def matmul() -> None:
        for _ in range(10):
            matrix @ matrix

    timings = {}
    for name, work in (("python_loop_s", python_loop), ("numpy_matmul_s", matmul)):
        samples = []
        for _ in range(5):
            start = time.perf_counter()
            work()
            samples.append(time.perf_counter() - start)
        timings[name] = statistics.median(samples)
    return timings


def blas_meta() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = None
    return {"library": blas, **{var: os.environ[var] for var in BLAS_THREAD_VARS}}


def single_run(args) -> int:
    from measure import (
        end_to_end,
        layer_rollup,
        per_layer,
        run_workload,
        tail_percentile,
    )
    from repro.telemetry import (
        NullRecorder,
        Recorder,
        environment_meta,
        write_chrome_trace,
    )
    from workloads import WORKLOADS

    spec = load_spec()
    section = "per_layer" if args.trace else "end_to_end"
    units = {entry["name"]: entry["unit"] for entry in spec[section]}
    workload = WORKLOADS[args.workload]
    digest = json.loads(DIGEST_PATH.read_text(encoding="utf-8"))
    ops = workload.op_list(args.seed, args.seconds)
    run_id = f"{workload.name}-seed{args.seed}"
    rec = Recorder(run_id=run_id) if args.trace else NullRecorder()
    calibration = host_calibration()
    result = run_workload(workload, ops, rec, digest)
    e2e = end_to_end(result)
    if args.trace:
        metrics = per_layer(rec.spans, rec.metrics.counters, result.attempted)
    else:
        metrics = e2e
    if set(metrics) != set(units):
        raise SystemExit(
            f"metric names {sorted(set(metrics) ^ set(units))} disagree with "
            f"{SPEC_PATH.name}"
        )
    meta = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed, one client, one thread of work",
        "ops": result.attempted,
        "ops_completed": len(result.op_times),
        "timed_s": result.timed_s,
        "ops_per_s": e2e["ops_per_s"],
        "op_tail_percentile": tail_percentile(len(result.op_times)),
        "setup_runs_s": result.setup_times,
        "blas": blas_meta(),
        "host_calibration": calibration,
        "environment": environment_meta(),
        "errors": result.errors[:5],
    }
    if args.trace:
        write_chrome_trace(OUT_DIR / f"{run_id}.trace.json", rec, meta)
        rollup = {
            "meta": meta,
            "span_rollup": layer_rollup(rec.spans),
            "counters": rec.metrics.counters,
            "metrics": metrics,
        }
        (OUT_DIR / f"{run_id}.rollup.json").write_text(
            json.dumps(rollup, indent=2, sort_keys=True), encoding="utf-8"
        )
    print(json.dumps({"meta": meta}))
    print(
        json.dumps(
            {
                "correct": result.failed == 0,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": units[name]}
                    for name in units
                },
            }
        )
    )
    return 0


def quartiles(values):
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def repeat_runs(args) -> int:
    """Steadiness evidence: N fresh-process runs per trace mode."""
    from workloads import WORKLOADS

    names = [args.workload] if args.workload else list(WORKLOADS)
    summary = {}
    for name in names:
        runs = {0: [], 1: []}
        for index in range(args.repeat):
            seed = args.seed + index
            # Alternate which mode runs first so drift hits both alike.
            for trace in ((0, 1) if index % 2 == 0 else (1, 0)):
                command = [
                    sys.executable, str(Path(__file__).resolve()),
                    "--workload", name, "--seed", str(seed),
                    "--seconds", str(args.seconds), "--trace", str(trace),
                ]
                done = subprocess.run(
                    command, capture_output=True, text=True, check=True, timeout=600
                )
                lines = done.stdout.strip().splitlines()
                runs[trace].append(
                    (json.loads(lines[-2])["meta"], json.loads(lines[-1]))
                )
        report = {}
        for trace, label in ((0, "end_to_end"), (1, "per_layer")):
            table = {}
            for metric in runs[trace][0][1]["metrics"]:
                values = [r["metrics"][metric]["value"] for _, r in runs[trace]]
                q1, median, q3 = quartiles(values)
                table[metric] = {
                    "median": median,
                    "q1": q1,
                    "q3": q3,
                    "iqr_share": (q3 - q1) / median if median else 0.0,
                }
            report[label] = table
        ratios = [
            traced["ops_per_s"] / untraced["ops_per_s"]
            for (traced, _), (untraced, _) in zip(runs[1], runs[0])
        ]
        q1, median, q3 = quartiles(ratios)
        report["tracing_overhead"] = {
            "traced_over_untraced_ops_per_s": {"median": median, "q1": q1, "q3": q3},
        }
        report["failed"] = sum(r["failed"] for mode in runs.values() for _, r in mode)
        report["attempted"] = sum(
            r["attempted"] for mode in runs.values() for _, r in mode
        )
        report["runs"] = [
            {
                "seed": meta["seed"],
                "trace": trace,
                "ops_per_s": meta["ops_per_s"],
                "host_calibration": meta["host_calibration"],
                "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            }
            for trace, mode in runs.items()
            for meta, result in mode
        ]
        summary[name] = report
        print(f"== {name}: {args.repeat} runs per mode, seeds {args.seed}.."
              f"{args.seed + args.repeat - 1}")
        for label in ("end_to_end", "per_layer"):
            for metric, row in report[label].items():
                print(f"  {metric:32s} median {row['median']:<12.6g} "
                      f"IQR/median {row['iqr_share']:.4f}")
        print(f"  traced/untraced ops_per_s      median {median:.4f} "
              f"(q1 {q1:.4f}, q3 {q3:.4f})")
        print(f"  failed {report['failed']} of {report['attempted']} ops")
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / "steadiness.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True), encoding="utf-8"
    )
    return 0


def write_digest(args) -> int:
    """Recompute the deterministic outputs of every op any seed can draw."""
    from repro.telemetry import NullRecorder
    from workloads import WORKLOADS

    names = [args.workload] if args.workload else list(WORKLOADS)
    digest = (
        json.loads(DIGEST_PATH.read_text(encoding="utf-8"))
        if DIGEST_PATH.exists()
        else {}
    )
    for name in names:
        workload = WORKLOADS[name]
        pool = workload.pool()
        state = workload.setup(pool)
        for op in pool:
            digest[op.key] = workload.run(state, op, NullRecorder())
        print(f"{name}: {len(pool)} ops", file=sys.stderr)
    DIGEST_PATH.write_text(
        json.dumps(digest, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="steadiness mode: runs per trace mode")
    parser.add_argument("--write-digest", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        parser.exit(2, f"error: no src/repro under {ROOT}; run from a checkout\n")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH_DIR))
    if args.write_digest:
        return write_digest(args)
    if args.repeat:
        return repeat_runs(args)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    return single_run(args)


if __name__ == "__main__":
    sys.exit(main())
