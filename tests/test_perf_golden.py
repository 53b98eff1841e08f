"""Golden-equivalence tests for the vectorized hot kernels.

The perf PR rewrote the encoding solvability scan (batched numpy trials +
residual caching) and the fault simulator (wide words + fanout-cone
evaluation) while keeping the *reference* implementations in-tree
(``batch_trials=False`` / ``engine="packed"``).  These tests pin the
contract that made that rewrite safe: on identical inputs the optimized
paths produce bit-identical results, not merely statistically similar ones.
"""

import random

import pytest

from repro.circuits.atpg import generate_test_set_for_netlist
from repro.circuits.fault_sim import FaultSimulator
from repro.circuits.generator import random_netlist
from repro.circuits.library import carry_ripple_adder, parity_tree
from repro.encoding.encoder import ReseedingEncoder
from repro.gf2.solve import (
    _BATCH_MIN_ROWS,
    _INCONSISTENT_TRIAL,
    SOLVER_STATS,
    Equation,
    IncrementalSolver,
    _pack_ints_to_words,
)
from repro.testdata.profiles import get_profile
from repro.testdata.synthetic import generate_test_set


# ----------------------------------------------------------------------
# Encoder: batched scan vs reference scan
# ----------------------------------------------------------------------
def _encode_both(test_set, num_chains, lfsr_size, window_length):
    results = []
    for batch_trials in (True, False):
        encoder = ReseedingEncoder(
            num_cells=test_set.num_cells,
            num_scan_chains=num_chains,
            lfsr_size=lfsr_size,
            window_length=window_length,
            batch_trials=batch_trials,
        )
        results.append(encoder.encode(test_set))
    return results


def test_encoder_bit_identical_on_builtin_circuit():
    """ATPG cubes of a built-in circuit: same seeds, same embeddings."""
    netlist = carry_ripple_adder(8)
    atpg = generate_test_set_for_netlist(netlist, fill_seed=3)
    test_set = atpg.test_set
    optimized, reference = _encode_both(
        test_set,
        num_chains=4,
        lfsr_size=test_set.max_specified() + 8,
        window_length=24,
    )
    assert optimized.to_dict() == reference.to_dict()
    assert [record.seed.value for record in optimized.seeds] == [
        record.seed.value for record in reference.seeds
    ]


def test_encoder_bit_identical_on_profile_test_set():
    """Calibrated synthetic cubes: same seeds, same embeddings."""
    profile = get_profile("s9234")
    test_set = generate_test_set(profile, seed=1, scale=0.03)
    optimized, reference = _encode_both(
        test_set,
        num_chains=profile.scan_chains,
        lfsr_size=profile.lfsr_size,
        window_length=40,
    )
    assert optimized.to_dict() == reference.to_dict()


# ----------------------------------------------------------------------
# Fault simulator: wide words + cones vs dense 64-bit reference
# ----------------------------------------------------------------------
def _vectors(netlist, count, seed=11):
    rng = random.Random(seed)
    return [rng.getrandbits(netlist.num_inputs) for _ in range(count)]


def test_faultsim_identical_detection_words_without_dropping():
    """word_width 64 dense vs 256 cones: identical per-fault words."""
    netlist = random_netlist("golden", num_inputs=24, num_gates=120, seed=5)
    vectors = _vectors(netlist, 200)
    reference = FaultSimulator(netlist, word_width=64, engine="packed")
    optimized = FaultSimulator(netlist, word_width=256, engine="events")
    ref_result = reference.simulate_vectors(list(vectors), drop=False)
    opt_result = optimized.simulate_vectors(list(vectors), drop=False)
    # Without dropping, every fault sees every pattern, so the full
    # detection words must agree bit for bit across block widths.
    assert ref_result.detected == opt_result.detected


def test_faultsim_identical_detected_set_with_dropping():
    """With fault dropping the detected-fault sets still coincide."""
    netlist = parity_tree(12)
    vectors = _vectors(netlist, 96, seed=2)
    reference = FaultSimulator(netlist, word_width=64, engine="packed")
    optimized = FaultSimulator(netlist, word_width=256, engine="events")
    reference.simulate_vectors(list(vectors), drop=True)
    optimized.simulate_vectors(list(vectors), drop=True)
    assert set(reference.detected_faults) == set(optimized.detected_faults)
    assert reference.coverage_percent == optimized.coverage_percent


def test_faultsim_input_and_gate_faults_match_on_builtin():
    """Cone evaluation handles input faults and gate faults alike."""
    netlist = carry_ripple_adder(4)
    vectors = _vectors(netlist, 64, seed=9)
    reference = FaultSimulator(netlist, word_width=64, engine="packed")
    optimized = FaultSimulator(netlist, word_width=64, engine="events")
    ref_result = reference.simulate_vectors(list(vectors), drop=False)
    opt_result = optimized.simulate_vectors(list(vectors), drop=False)
    assert ref_result.detected == opt_result.detected


# ----------------------------------------------------------------------
# Solver: batched position trials vs sequential trials
# ----------------------------------------------------------------------
def _try_positions(solver, batches):
    """Pack equal-length augmented-row batches and trial them in one call."""
    rows_each = len(batches[0])
    flat = [row for rows in batches for row in rows]
    words = _pack_ints_to_words(flat, (solver.num_variables + 64) // 64)
    return solver.try_positions_packed(words, rows_each)


def _assert_matches_sequential(solver, batches):
    sequential = [solver.try_augmented(rows) for rows in batches]
    batched = _try_positions(solver, batches)
    assert len(batched) == len(sequential)
    for seq, bat in zip(sequential, batched):
        assert seq.outcome == bat.outcome
        if seq.consistent:
            assert seq.new_pivots == bat.new_pivots
            # Committing either trial must leave identical solver state.
            left, right = solver.copy(), solver.copy()
            left.commit(seq)
            right.commit(bat)
            assert left.pivot_columns() == right.pivot_columns()
            assert left.solution().value == right.solution().value
    return batched


def _random_solver(rng, n, rank=None):
    solver = IncrementalSolver(n)
    solver.add_equations(
        Equation(rng.getrandbits(n), rng.getrandbits(1))
        for _ in range(rng.randint(0, n) if rank is None else rank)
    )
    return solver


def _random_batches(rng, n, rows_each, count):
    return [
        [
            rng.getrandbits(n) | ((1 << n) if rng.getrandbits(1) else 0)
            for _ in range(rows_each)
        ]
        for _ in range(count)
    ]


def test_try_positions_matches_sequential_trials():
    rng = random.Random(77)
    for _ in range(40):
        n = rng.randint(2, 130)
        solver = _random_solver(rng, n)
        rows_each = rng.randint(1, 10)
        batches = _random_batches(rng, n, rows_each, rng.randint(1, 20))
        _assert_matches_sequential(solver, batches)


@pytest.mark.parametrize("n", [63, 64, 65, 127, 128])
def test_try_positions_word_boundaries(n):
    """The RHS bit on the last bit of a word, or opening a new word."""
    rng = random.Random(n)
    for _ in range(12):
        solver = _random_solver(rng, n)
        rows_each = rng.randint(1, 12)
        count = _BATCH_MIN_ROWS // rows_each + rng.randint(1, 8)
        # Sparse rows keep a mix of consistent and inconsistent candidates.
        batches = [
            [
                (rng.getrandbits(n) & rng.getrandbits(n) & rng.getrandbits(n))
                | ((1 << n) if rng.getrandbits(1) else 0)
                for _ in range(rows_each)
            ]
            for _ in range(count)
        ]
        _assert_matches_sequential(solver, batches)
    # Rows confined to the upper half of the columns: with no pivots there,
    # their residuals live in the second word whenever n > 64.
    upper = ((1 << n) - 1) ^ ((1 << (n // 2)) - 1)
    for solver in (IncrementalSolver(n), _random_solver(rng, n, rank=n // 4)):
        batches = [
            [
                (rng.getrandbits(n) & rng.getrandbits(n) & upper)
                | ((1 << n) if rng.getrandbits(1) else 0)
                for _ in range(6)
            ]
            for _ in range(_BATCH_MIN_ROWS)
        ]
        _assert_matches_sequential(solver, batches)


def test_try_positions_batched_path_is_taken_and_counted():
    """Batches of at least ``_BATCH_MIN_ROWS`` rows add one trial each."""
    rng = random.Random(5)
    for n in (20, 70):
        solver = _random_solver(rng, n, rank=n // 2)
        for rows_each in (1, 3, 8):
            count = -(-_BATCH_MIN_ROWS // rows_each) + rng.randint(0, 5)
            assert count * rows_each >= _BATCH_MIN_ROWS
            batches = _random_batches(rng, n, rows_each, count)
            trials_before = SOLVER_STATS.trials
            batches_before = SOLVER_STATS.batches
            _try_positions(solver, batches)
            assert SOLVER_STATS.trials - trials_before == count
            assert SOLVER_STATS.batches - batches_before == 1
            _assert_matches_sequential(solver, batches)


def test_try_positions_all_inconsistent_batch():
    n = 40
    solver = IncrementalSolver(n)
    solver.add_equations([Equation(0b1011, 1), Equation(1 << 30, 0)])
    # Every candidate repeats a committed equation with the other RHS.
    conflict = 0b1011  # RHS 0 against the committed RHS 1
    batches = [[1 << 30 | (1 << n), 1 << 5] for _ in range(_BATCH_MIN_ROWS)]
    batches += [[1 << 7, conflict] for _ in range(_BATCH_MIN_ROWS)]
    batched = _assert_matches_sequential(solver, batches)
    assert not any(trial.consistent for trial in batched)


def test_try_positions_empty_basis():
    rng = random.Random(11)
    for n in (9, 64, 100):
        solver = IncrementalSolver(n)
        batches = _random_batches(rng, n, 4, _BATCH_MIN_ROWS)
        # Two copies of a row with opposite RHS can never be consistent.
        batches.append([1 << 3, (1 << 3) | (1 << n), 0, 0])
        batched = _assert_matches_sequential(solver, batches)
        assert not batched[-1].consistent


def test_try_positions_single_row_candidates():
    rng = random.Random(3)
    for n in (12, 65):
        solver = _random_solver(rng, n, rank=n // 3)
        batches = _random_batches(rng, n, 1, 2 * _BATCH_MIN_ROWS)
        # Degenerate rows: "0 = 1" and "0 = 0".
        batches += [[1 << n], [0]]
        batched = _assert_matches_sequential(solver, batches)
        assert not batched[-2].consistent
        assert batched[-1].consistent and batched[-1].new_pivots == 0


def test_commit_rejects_shared_inconsistent_result():
    n = 10
    solver = IncrementalSolver(n)
    solver.add_equations([Equation(0b11, 1)])
    batched = _try_positions(solver, [[0b11]] * _BATCH_MIN_ROWS)
    assert all(trial is _INCONSISTENT_TRIAL for trial in batched)
    assert solver.try_augmented([0b11]) is _INCONSISTENT_TRIAL
    epoch, pivots = solver.epoch, solver.pivot_columns()
    with pytest.raises(ValueError, match="inconsistent"):
        solver.commit(_INCONSISTENT_TRIAL)
    assert (solver.epoch, solver.pivot_columns()) == (epoch, pivots)
    assert _INCONSISTENT_TRIAL.reduced_rows == ()
    assert _INCONSISTENT_TRIAL.new_pivots == 0


def test_solver_epoch_and_pivot_mask_track_commits():
    solver = IncrementalSolver(8)
    assert solver.epoch == 0
    assert solver.pivot_mask == 0
    trial = solver.try_equations([Equation(0b1010, 1)])
    solver.commit(trial)
    assert solver.epoch == 1
    assert solver.pivot_mask == 1 << 3
    # A redundant batch commits nothing and must not advance the epoch.
    redundant = solver.try_equations([Equation(0b1010, 1)])
    assert redundant.consistent and redundant.new_pivots == 0
    solver.commit(redundant)
    assert solver.epoch == 1
