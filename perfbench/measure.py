"""Closed-loop driver, correctness checks and metric reduction of one run.

One process, one thread of work: each op starts when the previous one has
ended.  Between ops the driver runs ``gc.collect()`` outside the timed
region.  Set-up (input generation plus one warm-up op) runs
:data:`SETUP_REPEATS` times and ``setup_s`` is the median of those runs.
"""

from __future__ import annotations

import gc
import math
import resource
import statistics
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.telemetry import NullRecorder, span_rollup
from workloads import Op, Workload

SETUP_REPEATS = 3
#: The tail percentile keeps at least this many samples beyond it.
TAIL_SAMPLES = 10

#: Outputs checked against the digest, and the end-to-end metrics that
#: average them over the successful ops.
DETERMINISTIC = (
    "tdv_bits",
    "tsl_vectors",
    "hardware_ge",
    "impr_gap_pct",
    "fault_coverage_pct",
)

#: Per-layer spans: name -> the public call it wraps (see README.md).
LAYER_SPANS = (
    "context.substrate",
    "encoding.precompute",
    "encoding.solve",
    "encoding.expand",
    "encoding.verify",
    "skip.reduce",
    "decompressor.hardware",
    "decompressor.replay",
    "circuits.podem",
    "circuits.faultgrade",
)


@dataclass
class RunResult:
    attempted: int = 0
    failed: int = 0
    op_times: List[float] = field(default_factory=list)
    timed_s: float = 0.0
    setup_times: List[float] = field(default_factory=list)
    outputs: List[Dict[str, float]] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)


def tail_percentile(num_samples: int) -> Optional[int]:
    """Highest whole percentile (50-99) with ten samples beyond its value.

    The value of percentile ``p`` is the nearest-rank sample
    ``sorted[ceil(p * n / 100) - 1]``; the samples beyond it are the
    ``n - ceil(p * n / 100)`` larger ones.  ``None`` when even the median
    has fewer than ten samples beyond it.
    """
    for percentile in range(99, 49, -1):
        if num_samples - math.ceil(percentile * num_samples / 100) >= TAIL_SAMPLES:
            return percentile
    return None


def nearest_rank(values: Sequence[float], percentile: int) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(percentile * len(ordered) / 100) - 1)]


def check_outputs(outputs: Dict[str, float], expected: Optional[Dict[str, float]]
                  ) -> None:
    """Raise unless ``outputs`` equal the committed digest entry exactly."""
    if expected is None:
        raise ValueError("no digest entry for this op")
    for name in DETERMINISTIC:
        if outputs[name] != expected[name]:
            raise ValueError(
                f"{name} = {outputs[name]!r}, digest says {expected[name]!r}"
            )


def run_workload(workload: Workload, ops: Sequence[Op], rec,
                 digest: Dict[str, Dict[str, float]]) -> RunResult:
    """Set up, warm up and run ``ops`` in a closed loop; count failures."""
    result = RunResult(attempted=len(ops))
    for _ in range(SETUP_REPEATS):
        state = None  # free the previous set-up before timing the next
        gc.collect()
        start = time.perf_counter()
        state = workload.setup(ops)
        workload.run(state, workload.warmup_op(ops), NullRecorder())
        result.setup_times.append(time.perf_counter() - start)
    for op in ops:
        gc.collect()
        start = time.perf_counter()
        try:
            with rec.span("op", op=op.key):
                outputs = workload.run(state, op, rec)
        except Exception:  # an op that raises is a failed op, not a crash
            elapsed = time.perf_counter() - start
            result.failed += 1
            result.errors.append(f"{op.key}: {traceback.format_exc(limit=3)}")
        else:
            elapsed = time.perf_counter() - start
            try:
                check_outputs(outputs, digest.get(op.key))
            except ValueError as error:
                result.failed += 1
                result.errors.append(f"{op.key}: {error}")
            else:
                result.op_times.append(elapsed)
                result.outputs.append(outputs)
        result.timed_s += elapsed
    return result


def end_to_end(result: RunResult) -> Dict[str, float]:
    """The end-to-end metrics of one untraced run."""
    times = result.op_times
    percentile = tail_percentile(len(times))
    metrics = {
        "setup_s": statistics.median(result.setup_times),
        "ops_per_s": len(times) / result.timed_s if result.timed_s else 0.0,
        "op_p50_s": statistics.median(times) if times else 0.0,
        "op_tail_s": nearest_rank(times, percentile) if percentile else 0.0,
        "peak_rss_mb": peak_rss_mb(),
    }
    for name in DETERMINISTIC:
        values = [outputs[name] for outputs in result.outputs]
        metrics[name] = statistics.fmean(values) if values else 0.0
    return metrics


def peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def self_times(spans: Sequence[Dict[str, Any]]) -> Dict[str, float]:
    """Self time per span id: duration minus the direct children's."""
    own = {span["span_id"]: span["duration_s"] for span in spans}
    for span in spans:
        parent = span.get("parent_id")
        if parent in own:
            own[parent] -= span["duration_s"]
    return own


def layer_rollup(spans: Sequence[Dict[str, Any]]) -> Dict[str, Dict[str, float]]:
    """``span_rollup`` (count, total and max wall) plus each name's self time."""
    rollup = span_rollup(spans)
    for entry in rollup.values():
        entry["self_s"] = 0.0
    own = self_times(spans)
    for span in spans:
        rollup[span["name"]]["self_s"] += own[span["span_id"]]
    return rollup


def per_layer(spans: Sequence[Dict[str, Any]], counters: Dict[str, float],
              attempted: int) -> Dict[str, float]:
    """Per-layer metrics of one traced run: time per op, share, counts."""
    own = self_times(spans)
    op_spans = [span for span in spans if span["name"] == "op"]
    op_total = sum(span["duration_s"] for span in op_spans) or 1.0
    ops = max(1, attempted)
    layer_time = {name: 0.0 for name in LAYER_SPANS}
    for span in spans:
        if span["name"] in layer_time:
            layer_time[span["name"]] += own[span["span_id"]]
    metrics: Dict[str, float] = {}
    for name, seconds in layer_time.items():
        metrics[f"{name}_s"] = seconds / ops
        metrics[f"{name}_share"] = 100.0 * seconds / op_total
    # Wide-row solves: per wide op, and as a share of the wide ops' time.
    wide_ops = {
        span["parent_id"]
        for span in spans
        if span["name"] == "encoding.solve" and span["attrs"].get("wide")
    }
    wide_solve = sum(
        own[span["span_id"]]
        for span in spans
        if span["name"] == "encoding.solve" and span["parent_id"] in wide_ops
    )
    wide_total = sum(
        span["duration_s"] for span in op_spans if span["span_id"] in wide_ops
    )
    metrics["encoding.solve_wide_s"] = wide_solve / len(wide_ops) if wide_ops else 0.0
    metrics["encoding.solve_wide_share"] = (
        100.0 * wide_solve / wide_total if wide_total else 0.0
    )
    metrics["op.other_share"] = 100.0 * sum(
        own[span["span_id"]] for span in op_spans
    ) / op_total

    def ratio(numerator: str, denominator: str) -> float:
        total = counters.get(denominator, 0)
        return counters.get(numerator, 0) / total if total else 0.0

    for name in (
        "context.hits",
        "context.misses",
        "gf2.trials",
        "gf2.commits",
        "gf2.pivots",
        "encoding.seeds",
        "encoding.phase_retries",
        "decompressor.vectors_applied",
        "decompressor.skip_clocks",
        "circuits.cubes",
        "circuits.graded_patterns",
    ):
        metrics[name] = counters.get(name, 0)
    metrics["gf2.commit_ratio"] = ratio("gf2.commits", "gf2.trials")
    metrics["skip.useful_ratio"] = ratio("skip.useful_segments", "skip.segments")
    metrics["circuits.abort_ratio"] = ratio("circuits.aborted", "circuits.targeted")
    return metrics

