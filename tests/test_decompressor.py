"""Tests for the decompression architecture: counters, Mode Select, the
clock-level simulation and the gate-equivalent cost model."""

import pytest

from repro.decompressor.architecture import (
    DecompressionController,
    Decompressor,
    simulate_decompression,
)
from repro.decompressor.counters import Counter, CounterBank, counter_width
from repro.decompressor.hardware import (
    GateCostModel,
    decompressor_cost,
    lfsr_cost,
    soc_decompressor_cost,
    state_skip_cost,
)
from repro.decompressor.mode_select import ModeSelectUnit
from repro.encoding.encoder import ReseedingEncoder
from repro.lfsr.state_skip import StateSkipCircuit
from repro.skip.reduction import reduce_sequence
from repro.testdata.profiles import custom_profile
from repro.testdata.synthetic import generate_test_set


@pytest.fixture(scope="module")
def flow():
    """A complete small flow: test set -> encoding -> reduction."""
    profile = custom_profile(
        "decomp_unit",
        scan_cells=60,
        num_cubes=35,
        max_specified=9,
        mean_specified=4.0,
        scan_chains=6,
        lfsr_size=14,
    )
    test_set = generate_test_set(profile, seed=5)
    encoder = ReseedingEncoder(
        num_cells=60, num_scan_chains=6, lfsr_size=14, window_length=30
    )
    encoding = encoder.encode(test_set)
    reduction = reduce_sequence(
        encoding, test_set, encoder.equations, segment_size=5, speedup=6
    )
    return encoder, test_set, encoding, reduction


class TestCounters:
    def test_counter_width(self):
        assert counter_width(0) == 1
        assert counter_width(1) == 1
        assert counter_width(7) == 3
        assert counter_width(8) == 4
        with pytest.raises(ValueError):
            counter_width(-1)

    def test_counter_basics(self):
        counter = Counter("test", 3)
        assert counter.width == 2
        assert counter.is_zero()
        assert not counter.increment()
        assert counter.value == 1
        counter.load(3)
        assert counter.at_max()
        assert counter.increment()  # wraps
        assert counter.is_zero()

    def test_counter_decrement(self):
        counter = Counter("down", 4)
        counter.load(2)
        assert not counter.decrement()
        assert counter.decrement()
        with pytest.raises(ValueError):
            counter.decrement()

    def test_counter_load_validation(self):
        counter = Counter("x", 4)
        with pytest.raises(ValueError):
            counter.load(5)

    def test_counter_bank_dimensions(self):
        bank = CounterBank.dimension(
            chain_length=22,
            segment_size=10,
            segments_per_window=20,
            max_useful_segments=3,
            max_group_size=40,
        )
        widths = bank.widths()
        assert widths["bit"] == counter_width(21)
        assert widths["vector"] == counter_width(9)
        assert widths["segment"] == counter_width(19)
        assert bank.total_flip_flops() == sum(widths.values())
        assert len(bank.counters()) == 6


class TestModeSelect:
    def test_mode_lookup(self):
        unit = ModeSelectUnit([[0, 3], [0], [0, 1, 5]], segments_per_window=8)
        assert unit.mode(0, 0) == 1
        assert unit.mode(0, 3) == 1
        assert unit.mode(0, 2) == 0
        assert unit.mode(1, 1) == 0
        assert unit.segments_to_generate(0) == 4
        assert unit.segments_to_generate(1) == 1
        assert unit.segments_to_generate(2) == 6

    def test_groups(self):
        unit = ModeSelectUnit([[0, 3], [0], [0, 1, 5]], segments_per_window=8)
        groups = unit.groups()
        assert groups == {1: [1], 2: [0], 3: [2]}

    def test_validation(self):
        with pytest.raises(ValueError):
            ModeSelectUnit([[0]], segments_per_window=0)
        with pytest.raises(ValueError):
            ModeSelectUnit([[9]], segments_per_window=4)
        unit = ModeSelectUnit([[0]], segments_per_window=4)
        with pytest.raises(IndexError):
            unit.mode(1, 0)
        with pytest.raises(IndexError):
            unit.mode(0, 9)

    def test_cost_tracks_extra_useful_segments(self):
        cheap = ModeSelectUnit([[0]] * 10, segments_per_window=20)
        costly = ModeSelectUnit([[0, 5, 9]] * 10, segments_per_window=20)
        assert cheap.cost().product_terms == 0
        assert costly.cost().product_terms == 20
        assert costly.cost().gate_equivalents > cheap.cost().gate_equivalents


class TestReplayCaches:
    def _replay(self, flow):
        encoder, test_set, encoding, reduction = flow
        return simulate_decompression(
            encoding,
            reduction,
            encoder.lfsr.transition,
            encoder.phase_shifter,
            encoder.architecture,
            engine="events",
        )

    def test_caches_are_bounded_lrus(self, flow):
        """Every cross-call matrix cache of the replay is a bounded LRU."""
        from repro.decompressor import architecture as arch_mod
        from repro.lru import LRUCache

        self._replay(flow)
        caches = (
            (arch_mod._JUMP_CACHE, arch_mod._JUMP_CACHE_SIZE),
            (arch_mod._CAPTURE_CACHE, arch_mod._CAPTURE_CACHE_SIZE),
        )
        for cache, bound in caches:
            assert isinstance(cache, LRUCache)
            assert cache.bound == bound
            assert 0 < len(cache) <= bound

    def test_matrices_reused_across_calls(self, flow):
        """A second replay over one substrate builds no matrix."""
        from repro.decompressor import architecture as arch_mod

        first = self._replay(flow)
        misses = (arch_mod._JUMP_CACHE.misses, arch_mod._CAPTURE_CACHE.misses)
        assert self._replay(flow) == first
        assert (
            arch_mod._JUMP_CACHE.misses,
            arch_mod._CAPTURE_CACHE.misses,
        ) == misses

    def test_replay_runs_through_the_skip_circuit(self, flow):
        """Useless segments jump through ``K``: a broken circuit shows."""
        encoder, test_set, encoding, reduction = flow
        decompressor = Decompressor(
            encoder.lfsr.transition,
            encoder.phase_shifter,
            encoder.architecture,
            reduction.config.speedup,
        )
        # A skip circuit one state short of A^k.
        decompressor.lfsr.skip_circuit._matrix = encoder.lfsr.transition.power(
            reduction.config.speedup - 1
        )
        outcome = DecompressionController(decompressor, batched=True).run(
            encoding, reduction
        )
        assert outcome.useful_vectors != self._replay(flow).useful_vectors


class TestSimulation:
    def test_simulation_matches_reduction_accounting(self, flow):
        encoder, test_set, encoding, reduction = flow
        outcome = simulate_decompression(
            encoding,
            reduction,
            encoder.lfsr.transition,
            encoder.phase_shifter,
            encoder.architecture,
        )
        assert outcome.seeds_applied == encoding.num_seeds
        assert outcome.vectors_applied == reduction.test_sequence_length
        assert outcome.skip_clocks > 0

    def test_simulation_covers_every_cube(self, flow):
        """End-to-end correctness: the hardware really applies every cube."""
        encoder, test_set, encoding, reduction = flow
        outcome = simulate_decompression(
            encoding,
            reduction,
            encoder.lfsr.transition,
            encoder.phase_shifter,
            encoder.architecture,
        )
        assert outcome.uncovered_cubes(test_set) == []
        assert outcome.covers(test_set)

    def test_simulation_agrees_with_equation_expansion(self, flow):
        """The shift-register datapath and the algebraic expansion agree."""
        encoder, test_set, encoding, reduction = flow
        decompressor = Decompressor(
            encoder.lfsr.transition,
            encoder.phase_shifter,
            encoder.architecture,
            reduction.config.speedup,
        )
        seed = encoding.seeds[0].seed
        decompressor.load_seed(seed)
        chain_length = encoder.architecture.chain_length
        window = encoder.equations.expand_seed(seed)
        for _ in range(chain_length):
            decompressor.shift_clock()
        assert decompressor.captured_vector() == window[0]
        for _ in range(chain_length):
            decompressor.shift_clock()
        assert decompressor.captured_vector() == window[1]

    def test_simulation_requires_exact_alignment(self, flow):
        encoder, test_set, encoding, _ = flow
        ideal = reduce_sequence(
            encoding, test_set, encoder.equations, 5, 6, alignment="ideal"
        )
        with pytest.raises(ValueError):
            simulate_decompression(
                encoding,
                ideal,
                encoder.lfsr.transition,
                encoder.phase_shifter,
                encoder.architecture,
            )

    def test_speedup_mismatch_rejected(self, flow):
        encoder, test_set, encoding, reduction = flow
        decompressor = Decompressor(
            encoder.lfsr.transition,
            encoder.phase_shifter,
            encoder.architecture,
            speedup=reduction.config.speedup + 1,
        )
        with pytest.raises(ValueError):
            DecompressionController(decompressor).run(encoding, reduction)


class TestHardwareModel:
    def test_lfsr_cost_components(self):
        model = GateCostModel()
        encoder = ReseedingEncoder(60, 6, 14, window_length=4)
        cost = lfsr_cost(encoder.lfsr.transition, model)
        assert cost >= 14 * model.dff

    def test_state_skip_cost_grows_with_k(self):
        model = GateCostModel()
        encoder = ReseedingEncoder(60, 6, 24, window_length=4)
        small = state_skip_cost(StateSkipCircuit(encoder.lfsr.transition, 2), model)
        large = state_skip_cost(StateSkipCircuit(encoder.lfsr.transition, 16), model)
        assert large > small

    def test_full_breakdown(self, flow):
        encoder, test_set, encoding, reduction = flow
        report = decompressor_cost(
            transition=encoder.lfsr.transition,
            speedup=reduction.config.speedup,
            phase_shifter=encoder.phase_shifter,
            chain_length=encoder.architecture.chain_length,
            segment_size=reduction.config.segment_size,
            segments_per_window=reduction.num_segments_per_window,
            useful_segments_per_seed=[
                s.useful_segments for s in reduction.schedules
            ],
        )
        breakdown = report.breakdown()
        assert breakdown["total"] == pytest.approx(report.total)
        assert report.total == pytest.approx(report.shared + report.mode_select)
        assert all(value >= 0 for value in breakdown.values())
        assert report.lfsr > 0 and report.state_skip > 0

    def test_soc_sharing(self, flow):
        encoder, test_set, encoding, reduction = flow
        report = decompressor_cost(
            transition=encoder.lfsr.transition,
            speedup=reduction.config.speedup,
            phase_shifter=encoder.phase_shifter,
            chain_length=encoder.architecture.chain_length,
            segment_size=reduction.config.segment_size,
            segments_per_window=reduction.num_segments_per_window,
            useful_segments_per_seed=[
                s.useful_segments for s in reduction.schedules
            ],
        )
        soc = soc_decompressor_cost({"core_a": report, "core_b": report})
        # Sharing: total is much less than two full decompressors.
        assert soc.total < 2 * report.total
        assert soc.total == pytest.approx(report.shared + 2 * report.mode_select)
        lo, hi = soc.mode_select_range()
        assert lo == hi == pytest.approx(report.mode_select)
        with pytest.raises(ValueError):
            soc_decompressor_cost({})
