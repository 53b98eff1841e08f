"""Checks of the benchmark's own logic (no timed runs).

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
"""

import json
import math
import re
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
for path in (ROOT / "src", BENCH_DIR):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import measure  # noqa: E402
from measure import (  # noqa: E402
    RunResult,
    end_to_end,
    nearest_rank,
    per_layer,
    tail_percentile,
)
from repro.telemetry import NullRecorder  # noqa: E402
from workloads import WORKLOADS, Op, OpClass, Workload  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
DIGEST = json.loads((BENCH_DIR / "digest.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_op_list(name):
    workload = WORKLOADS[name]
    first = workload.op_list(7, 20)
    assert first == workload.op_list(7, 20)
    assert first != workload.op_list(8, 20)
    assert len(first) >= workload.min_ops
    assert {op.key for op in first} <= {op.key for op in workload.pool()}


def test_digest_covers_every_drawable_op():
    pool = {op.key for workload in WORKLOADS.values() for op in workload.pool()}
    assert pool == set(DIGEST)


def test_metric_names_are_valid_and_match_the_code():
    entries = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [entry["name"] for entry in entries]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(entry["unit"]) for entry in entries)
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    bounds = {e["name"]: e["bound"] for e in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25

    result = RunResult(attempted=1, op_times=[1.0], timed_s=1.0, setup_times=[1.0])
    result.outputs = [dict.fromkeys(measure.DETERMINISTIC, 1.0)]
    assert set(end_to_end(result)) == set(bounds)
    layer_names = {entry["name"] for entry in SPEC["per_layer"]}
    assert set(per_layer([], {}, 1)) == layer_names


def test_tail_percentile_keeps_ten_samples_beyond():
    for count in range(1, 400):
        percentile = tail_percentile(count)
        if count < 20:
            assert percentile is None
            continue
        beyond = count - math.ceil(percentile * count / 100)
        assert beyond >= measure.TAIL_SAMPLES
        if percentile < 99:
            next_rank = math.ceil((percentile + 1) * count / 100)
            assert count - next_rank < measure.TAIL_SAMPLES


def test_tail_value_is_the_nearest_rank_sample():
    values = list(range(1, 45))  # 44 samples: p77 -> rank 34, 10 beyond
    assert tail_percentile(len(values)) == 77
    assert nearest_rank(values, 77) == 34


class _Flaky(Workload):
    """Raises on variant 1, returns a wrong output on variant 2."""

    name = "flaky"
    classes = (OpClass("c", pool=4, per_round=4),)

    def setup(self, ops):
        return None

    def run(self, state, op, rec):
        if op.variant == 1:
            raise RuntimeError("boom")
        outputs = dict.fromkeys(measure.DETERMINISTIC, 1.0)
        if op.variant == 2:
            outputs["tdv_bits"] = 2.0
        return outputs


def test_failures_are_counted_against_attempted():
    workload = _Flaky()
    ops = [Op("flaky", "c", v) for v in (0, 1, 2, 3, 0)]
    digest = {
        f"flaky/c/{v}": dict.fromkeys(measure.DETERMINISTIC, 1.0) for v in (0, 1, 2)
    }
    result = measure.run_workload(workload, ops, NullRecorder(), digest)
    # Variant 1 raises, variant 2 mismatches, variant 3 has no digest entry.
    assert (result.attempted, result.failed) == (5, 3)
    assert len(result.op_times) == 2
    assert len(result.setup_times) == measure.SETUP_REPEATS
    assert result.timed_s >= sum(result.op_times)
    assert end_to_end(result)["ops_per_s"] == pytest.approx(2 / result.timed_s)
