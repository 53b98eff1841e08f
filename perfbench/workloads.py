"""The three workloads of the State Skip benchmark and the ops they run.

Every workload turns ``(seed, seconds)`` into a fixed list of :class:`Op`
values, builds the inputs of that list in :meth:`Workload.setup` and runs
one op at a time in :meth:`Workload.run`.  An op draws its inputs from a
finite pool (``Op.variant`` indexes it), so the deterministic outputs of
every op that any seed can draw are committed in ``digest.json``.

Each call into a layer of the program goes through ``rec.span(<layer>)``,
where ``rec`` is either a live :class:`repro.telemetry.Recorder` (traced
run) or a :class:`repro.telemetry.NullRecorder` (untraced run).  The spans
wrap public calls only; nothing inside ``src/`` is instrumented here.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, List, Sequence, Tuple

from repro import pipeline
from repro.circuits.atpg import PodemAtpg
from repro.circuits.fault_sim import FaultSimulator
from repro.circuits.faults import collapse_faults
from repro.circuits.generator import random_netlist
from repro.config import CompressionConfig
from repro.context import CompressionContext, SubstrateKey
from repro.encoding.window import verify_encoding
from repro.gf2.solve import solver_stats_snapshot
from repro.testdata.literature import TABLE2
from repro.testdata.profiles import ISCAS89_PROFILES
from repro.testdata.synthetic import generate_test_set

#: The (S, k) grid of the paper's Table 2 experiment.
SK_GRID: Tuple[Tuple[int, int], ...] = tuple(
    (segment_size, speedup) for segment_size in (2, 5, 10) for speedup in (8, 16, 24)
)


@dataclass(frozen=True)
class Op:
    """One unit of closed-loop work: a class (circuit) and a pool variant."""

    workload: str
    cls: str
    variant: int

    @property
    def key(self) -> str:
        """Digest key of this op's deterministic outputs."""
        return f"{self.workload}/{self.cls}/{self.variant}"


@dataclass(frozen=True)
class OpClass:
    """One class of ops: its pool size, its share of a round and its size."""

    name: str
    pool: int
    per_round: int
    scale: float = 1.0


def _count_context(rec, ctx: CompressionContext, before: Dict[str, float]) -> int:
    """Record the context's hit/miss deltas; returns the substrate misses."""
    after = ctx.stats.counters
    delta = {name: after[name] - before.get(name, 0) for name in after}
    rec.counter("context.hits", sum(v for n, v in delta.items() if n.endswith("_hits")))
    rec.counter(
        "context.misses", sum(v for n, v in delta.items() if n.endswith("_misses"))
    )
    return delta.get("substrate_misses", 0)


def _count_solver(rec, before: Dict[str, int]) -> None:
    after = solver_stats_snapshot()
    for name in ("trials", "commits", "pivots"):
        rec.counter(f"gf2.{name}", after[f"solver_{name}"] - before[f"solver_{name}"])


def replay_point(rec, encoded: pipeline.StagedEncoding, config: CompressionConfig):
    """Reduce, cost and replay one (S, k) point of an encoding."""
    with rec.span("skip.reduce"):
        reduction = pipeline.reduce(encoded, config)
    with rec.span("decompressor.hardware"):
        hardware = pipeline.hardware(encoded, reduction)
    # ``pipeline.simulate`` raises when any cube is left unapplied, so a
    # returned outcome delivered every cube of the test set.
    with rec.span("decompressor.replay"):
        outcome = pipeline.simulate(encoded, reduction)
    rec.counter("skip.useful_segments", reduction.num_useful_segments)
    rec.counter(
        "skip.segments", reduction.num_seeds * reduction.num_segments_per_window
    )
    rec.counter("decompressor.vectors_applied", outcome.vectors_applied)
    rec.counter("decompressor.skip_clocks", outcome.skip_clocks)
    return reduction, hardware, outcome


def verify(rec, encoded: pipeline.StagedEncoding) -> None:
    """Expand the seed windows and check every embedding against them."""
    seeds = [record.seed for record in encoded.encoding.seeds]
    # The integer windows derive from the packed (BLAS) expansion, which
    # this call builds on a cache miss.
    with rec.span("encoding.expand"):
        windows = encoded.context.expanded_windows(encoded.substrate, seeds)
    with rec.span("encoding.verify"):
        violations = verify_encoding(
            encoded.encoding, encoded.test_set, encoded.substrate.equations, windows
        )
    if violations:
        raise RuntimeError(
            f"{len(violations)} embeddings fail verification; first {violations[0]}"
        )


def cold_flow(rec, test_set, config: CompressionConfig):
    """The whole flow on a fresh context, one public call per layer."""
    ctx = CompressionContext()
    solver_before = solver_stats_snapshot()
    key = SubstrateKey(
        num_cells=test_set.num_cells,
        num_scan_chains=config.num_scan_chains,
        lfsr_size=config.lfsr_size,
        window_length=config.window_length,
        phase_taps=config.phase_taps,
        phase_seed=config.phase_seed,
    )
    with rec.span("context.substrate"):
        substrate = ctx.substrate(key)
    with rec.span("encoding.precompute"):
        substrate.equations.precompute_cube_words(test_set.cubes)
    # Precompute filled the cube-word cache of the attempt-0 substrate, so
    # this span is the seed search (solver trials and commits) itself.
    with rec.span("encoding.solve", wide=config.lfsr_size > 64):
        encoded = pipeline.encode(test_set, config, context=ctx, verify=False)
    verify(rec, encoded)
    reduction, hardware, outcome = replay_point(rec, encoded, config)
    _count_solver(rec, solver_before)
    misses = _count_context(rec, ctx, {})
    rec.counter("encoding.seeds", encoded.encoding.num_seeds)
    rec.counter("encoding.phase_retries", max(0, misses - 1))
    return encoded, reduction, hardware, outcome


def flow_outputs(encoded, reduction, hardware, reference_impr: float,
                 coverage_pct: float) -> Dict[str, float]:
    """The deterministic outputs of one op (compared against the digest)."""
    return {
        "tdv_bits": encoded.encoding.test_data_volume,
        "tsl_vectors": reduction.test_sequence_length,
        "hardware_ge": hardware.total,
        "impr_gap_pct": abs(reduction.improvement_percent - reference_impr),
        "fault_coverage_pct": coverage_pct,
    }


class Workload:
    """A named op mix; subclasses build inputs and run one op."""

    name = ""
    why = ""
    classes: Sequence[OpClass] = ()
    #: Nominal wall time of one round of ``per_round`` ops of every class on
    #: a 2-CPU host; sizes the op list to roughly ``seconds``.
    round_s = 1.0
    #: The op list never has fewer ops than this, so the tail percentile
    #: keeps ten samples beyond it.
    min_ops = 21

    def op_list(self, seed: int, seconds: float) -> List[Op]:
        """The fixed, shuffled op list of one run (a function of its args)."""
        rng = random.Random(f"{self.name}:{seed}")
        rounds = max(1, round(seconds / self.round_s))
        per_round = sum(c.per_round for c in self.classes)
        rounds = max(rounds, -(-self.min_ops // per_round))
        ops = []
        for op_class in self.classes:
            ops.extend(
                Op(self.name, op_class.name, variant)
                for variant in self.draw(rng, op_class, op_class.per_round * rounds)
            )
        rng.shuffle(ops)
        return ops

    def draw(self, rng: random.Random, op_class: OpClass, count: int) -> List[int]:
        """Pool variants for ``count`` ops: distinct while the pool lasts."""
        variants = rng.sample(range(op_class.pool), min(count, op_class.pool))
        return variants + rng.choices(range(op_class.pool), k=count - len(variants))

    def pool(self) -> List[Op]:
        """Every op any seed can draw (what ``digest.json`` covers)."""
        return [
            Op(self.name, c.name, v) for c in self.classes for v in range(c.pool)
        ]

    def warmup_op(self, ops: Sequence[Op]) -> Op:
        """The op run once per set-up, outside the timed ops."""
        return ops[0]

    def setup(self, ops: Sequence[Op]) -> Any:
        raise NotImplementedError

    def run(self, state: Any, op: Op, rec) -> Dict[str, float]:
        raise NotImplementedError

    def op_class(self, name: str) -> OpClass:
        return next(c for c in self.classes if c.name == name)


class EmbedStream(Workload):
    """Each op compresses one fresh test set on a fresh context."""

    name = "embed-stream"
    why = (
        "a fresh test set and context per op: the cold path a user takes for "
        "every new core, where encoding and GF(2) solving dominate"
    )
    # Scales put the four one-word classes at similar op times (about 0.2 s
    # on a 2-CPU host), so the median falls inside one broad cluster rather
    # than between two.  s38417 (LFSR 85, two-word GF(2) rows) is the slow
    # class; its ops sit among the ten samples beyond the tail percentile.
    classes = (
        OpClass("s13207", pool=16, per_round=3, scale=0.15),
        OpClass("s9234", pool=16, per_round=3, scale=0.08),
        OpClass("s15850", pool=16, per_round=3, scale=0.07),
        OpClass("s38584", pool=16, per_round=3, scale=0.03),
        OpClass("s38417", pool=6, per_round=1, scale=0.01),
    )
    round_s = 5.0

    def warmup_op(self, ops):
        return next(op for op in ops if op.cls == self.classes[0].name)

    def setup(self, ops):
        return {
            op: generate_test_set(
                ISCAS89_PROFILES[op.cls],
                seed=op.variant,
                scale=self.op_class(op.cls).scale,
            )
            for op in ops
        }

    def run(self, state, op, rec):
        test_set = state[op]
        profile = ISCAS89_PROFILES[op.cls]
        config = CompressionConfig(window_length=200, lfsr_size=profile.lfsr_size)
        encoded, reduction, hardware, _ = cold_flow(rec, test_set, config)
        return flow_outputs(
            encoded, reduction, hardware, TABLE2[op.cls][200]["impr"], 100.0
        )


class SkSweep(Workload):
    """Each op runs one circuit's Table 2 (S, k) grid on a warm context."""

    name = "sk-sweep"
    why = (
        "the paper's Table 2 grid on encodings cached in set-up: every context "
        "lookup hits, so reduction and decompressor replay dominate"
    )
    classes = (
        OpClass("s13207", pool=5, per_round=1, scale=0.06),
        OpClass("s9234", pool=5, per_round=1, scale=0.06),
        OpClass("s15850", pool=5, per_round=1, scale=0.05),
        OpClass("s38584", pool=5, per_round=1, scale=0.03),
    )
    #: Distinct test sets per circuit in one run (each encoded in set-up).
    variants_per_run = 4
    round_s = 0.58

    def draw(self, rng, op_class, count):
        chosen = rng.sample(range(op_class.pool), self.variants_per_run)
        return [chosen[i % len(chosen)] for i in range(count)]

    def setup(self, ops):
        ctx = CompressionContext(max_substrates=32, max_encodings=32, max_windows=32)
        state = {"context": ctx, "encoded": {}}
        for cls, variant in sorted({(op.cls, op.variant) for op in ops}):
            profile = ISCAS89_PROFILES[cls]
            test_set = generate_test_set(
                profile, seed=variant, scale=self.op_class(cls).scale
            )
            config = CompressionConfig(window_length=200, lfsr_size=profile.lfsr_size)
            state["encoded"][(cls, variant)] = (test_set, config)
            pipeline.encode(test_set, config, context=ctx)
        return state

    def run(self, state, op, rec):
        ctx = state["context"]
        test_set, config = state["encoded"][(op.cls, op.variant)]
        before = ctx.stats.counters
        with rec.span("encoding.solve", wide=config.lfsr_size > 64):
            encoded = pipeline.encode(test_set, config, context=ctx)
        with rec.span("context.substrate"):
            ctx.substrate(encoded.substrate.key)
        verify(rec, encoded)
        best = None
        for segment_size, speedup in SK_GRID:
            point = config.with_updates(segment_size=segment_size, speedup=speedup)
            reduction, hardware, _ = replay_point(rec, encoded, point)
            rank = (reduction.test_sequence_length, hardware.total)
            if best is None or rank < best[0]:
                best = (rank, reduction, hardware)
        _count_context(rec, ctx, before)
        _, reduction, hardware = best
        return flow_outputs(
            encoded, reduction, hardware, TABLE2[op.cls][200]["impr"], 100.0
        )


class AtpgFlow(Workload):
    """Each op runs netlist -> PODEM -> flow at L=40 -> fault grade."""

    name = "atpg-flow"
    why = (
        "netlist to PODEM to embedding to fault grade of the applied vectors: "
        "the one workload where the circuits layer does the work"
    )
    classes = (OpClass("rnd", pool=64, per_round=1),)
    num_inputs = 40
    num_gates = 360
    round_s = 0.5
    #: Random netlists have no Table 2 row; the reference is the paper's
    #: mean improvement at its nearest published window (L=50).
    reference_impr = sum(row[50]["impr"] for row in TABLE2.values()) / len(TABLE2)

    def setup(self, ops):
        # The op builds its own netlist from the seed; there is nothing to
        # precompute beyond the op list itself.
        return None

    def run(self, state, op, rec):
        netlist = random_netlist(
            f"rnd{op.variant}",
            num_inputs=self.num_inputs,
            num_gates=self.num_gates,
            seed=op.variant,
        )
        with rec.span("circuits.podem"):
            atpg = PodemAtpg(netlist).run(fill_seed=op.variant)
        test_set = atpg.test_set
        config = CompressionConfig(
            window_length=40,
            segment_size=5,
            speedup=10,
            num_scan_chains=8,
            lfsr_size=test_set.max_specified() + 8,
        )
        encoded, reduction, hardware, outcome = cold_flow(rec, test_set, config)
        with rec.span("circuits.faultgrade"):
            simulator = FaultSimulator(netlist, collapse_faults(netlist))
            simulator.simulate_vectors(outcome.useful_vectors)
        rec.counter("circuits.cubes", len(atpg.test_set.cubes))
        rec.counter("circuits.aborted", len(atpg.aborted))
        rec.counter(
            "circuits.targeted",
            len(atpg.test_set.cubes) + len(atpg.redundant) + len(atpg.aborted),
        )
        rec.counter("circuits.graded_patterns", len(outcome.useful_vectors))
        return flow_outputs(
            encoded, reduction, hardware, self.reference_impr,
            simulator.coverage_percent,
        )


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload for workload in (EmbedStream(), SkSweep(), AtpgFlow())
}
