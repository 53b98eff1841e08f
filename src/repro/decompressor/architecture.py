"""Clock-level simulation of the decompression architecture (Fig. 3).

The simulation replays a :class:`~repro.skip.reduction.ReductionResult`
exactly the way the hardware would:

* seeds are applied group by group (Group counter), in ascending order of
  useful-segment count;
* for every seed, segments are generated one after another until the seed's
  last useful segment, as dictated by the Useful Segment counter;
* the Mode Select unit decides per segment whether the State Skip LFSR runs
  in Normal mode (useful segment: ``S * r`` clocks, one test vector every
  ``r`` clocks) or in State Skip mode (useless segment: ``floor(S*r/k)`` skip
  clocks plus ``S*r mod k`` normal clocks, so the register lands exactly on
  the next segment boundary);
* every clock, the phase shifter outputs are shifted into the scan chains.

The outcome reports the applied-vector count (which must equal the reduction's
TSL accounting) and the set of fully-shifted useful vectors, which must cover
every cube of the original test set -- the end-to-end correctness check of
the whole flow.

Two datapath models replay the schedule:

* the **segment-level** model (default) records the schedule during the
  controller's walk and then replays it with all seeds in lockstep by
  segment index.  The register jumps a whole segment per step through a
  cached GF(2) jump matrix: ``A^(v*r)`` across a useful segment of ``v``
  vectors, ``A^rem K^skip`` across a useless one, where ``K`` is the State
  Skip circuit's own matrix -- so the skip circuit is exercised, not
  assumed.  No register state inside a useless segment is ever built.  The
  start states of all useful segments of one length step through their
  vectors by ``A^r`` in one product per vector, and every captured vector
  of the run comes from a single (chunked) GEMM of those load states with
  the per-cell linear forms ``P[c mod C] A^(r-1-depth(c))``, packed by
  ``packbits`` -- this is what makes ``simulate`` usable inside large
  campaigns;
* ``engine="reference"`` (or the deprecated ``batched=False``) selects the
  original clock-by-clock reference (:meth:`Decompressor.shift_clock` per
  cycle), kept as the golden reference -- both produce identical
  :class:`SimulationOutcome`\\ s, vector for vector.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.decompressor.counters import CounterBank
from repro.decompressor.mode_select import ModeSelectUnit
from repro.encoding.results import EncodingResult
from repro.gf2.bitvec import BitVector
from repro.gf2.matrix import GF2Matrix
from repro.lfsr.lfsr import LFSR, LFSRMode
from repro.lfsr.phase_shifter import PhaseShifter
from repro.lfsr.state_skip import StateSkipLFSR
from repro.lru import LRUCache
from repro.scan.architecture import ScanArchitecture
from repro.skip.reduction import ReductionResult
from repro.testdata.test_set import TestSet


@dataclass
class SimulationOutcome:
    """What the decompressor produced when replaying a reduction schedule."""

    seeds_applied: int
    vectors_applied: int
    useful_vectors: List[int]
    lfsr_clocks: int
    skip_clocks: int
    group_sizes: Dict[int, int] = field(default_factory=dict)

    def uncovered_cubes(self, test_set: TestSet) -> List[int]:
        """Cubes not covered by any fully generated useful vector."""
        return test_set.uncovered_cubes(self.useful_vectors)

    def covers(self, test_set: TestSet) -> bool:
        """True when every cube of the test set was applied to the CUT."""
        return not self.uncovered_cubes(test_set)


class Decompressor:
    """The State Skip LFSR + phase shifter + scan-chain datapath."""

    def __init__(
        self,
        transition: GF2Matrix,
        phase_shifter: PhaseShifter,
        architecture: ScanArchitecture,
        speedup: int,
    ):
        if phase_shifter.lfsr_size != transition.ncols:
            raise ValueError("phase shifter width does not match the LFSR size")
        if phase_shifter.num_outputs < architecture.num_chains:
            raise ValueError("phase shifter drives fewer outputs than scan chains")
        self._lfsr = StateSkipLFSR(LFSR(transition), speedup)
        self._phase_shifter = phase_shifter
        self._architecture = architecture
        # Scan-chain shift registers: chains[j][d] = value at depth d.
        self._chains: List[List[int]] = [
            [0] * architecture.chain_length for _ in range(architecture.num_chains)
        ]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def lfsr(self) -> StateSkipLFSR:
        return self._lfsr

    @property
    def architecture(self) -> ScanArchitecture:
        return self._architecture

    @property
    def phase_shifter(self) -> PhaseShifter:
        return self._phase_shifter

    # ------------------------------------------------------------------
    # Datapath operation
    # ------------------------------------------------------------------
    def load_seed(self, seed: BitVector) -> None:
        self._lfsr.load(seed)

    def shift_clock(self) -> None:
        """One shift clock: phase-shifter outputs enter the chains, LFSR steps.

        The LFSR mode (Normal or State Skip) decides how far the register
        advances; the scan chains shift by one position either way.
        """
        outputs = self._phase_shifter.apply(self._lfsr.state)
        for chain_index, chain in enumerate(self._chains):
            chain.insert(0, outputs[chain_index])
            chain.pop()
        self._lfsr.step()

    def captured_vector(self) -> int:
        """The test vector currently sitting in the scan chains (packed)."""
        value = 0
        arch = self._architecture
        for cell in range(arch.num_cells):
            chain = cell % arch.num_chains
            depth = cell // arch.num_chains
            if self._chains[chain][depth]:
                value |= 1 << cell
        return value

    def set_mode(self, mode: LFSRMode) -> None:
        self._lfsr.set_mode(mode)


def _gf2_bits(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """GF(2) product of two float32 0/1 matrices as uint8 0/1.

    The float32 BLAS product counts ones exactly (every count is at most
    the inner dimension, far below 2**24); the parity of the count is
    the GF(2) entry.  (An integer cast and ``& 1`` vectorize; ``np.fmod``
    on floats does not, and ``packbits`` is ~10x faster on bytes than on
    int32.)
    """
    counts = (left @ right).astype(np.int32)
    counts &= 1
    return counts.astype(np.uint8)


def _gf2_product(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """GF(2) product of two float32 0/1 matrices, as float32 0/1."""
    return _gf2_bits(left, right).astype(np.float32)


def _gf2_power(matrix: np.ndarray, exponent: int) -> np.ndarray:
    """``matrix ** exponent`` over GF(2) by square-and-multiply."""
    result = np.eye(matrix.shape[0], dtype=np.float32)
    base = matrix
    while exponent:
        if exponent & 1:
            result = _gf2_product(result, base)
        exponent >>= 1
        if exponent:
            base = _gf2_product(base, base)
    return result


def _as_float(matrix: GF2Matrix) -> np.ndarray:
    """Dense float32 0/1 copy of a GF(2) matrix (a BLAS operand)."""
    from repro.encoding.equations import _matrix_to_numpy

    return _matrix_to_numpy(matrix).astype(np.float32)


#: Cross-call caches of the replay matrices, keyed by matrix content (the
#: transition and skip-circuit matrices, the phase shifter and the scan
#: geometry), so an (S, k) sweep over one substrate builds each matrix
#: once.  Jumps are ``n x n``; the capture rows of one substrate are
#: ``num_cells x n`` and shared by every ``(S, k)``.  Bounded LRUs.
_JUMP_CACHE_SIZE = 256
_JUMP_CACHE: LRUCache = LRUCache(_JUMP_CACHE_SIZE)
_CAPTURE_CACHE_SIZE = 8
_CAPTURE_CACHE: LRUCache = LRUCache(_CAPTURE_CACHE_SIZE)

#: Largest ``vectors x cells`` block one capture GEMM produces.
_CAPTURE_BLOCK_ELEMENTS = 1 << 20


class _SegmentDatapath:
    """Segment-level numpy model of the State Skip datapath.

    The controller records the schedule seed by seed and segment by
    segment; :meth:`replay` then runs it with every seed in lockstep by
    segment index.  Between segments the register advances by one GF(2)
    jump matrix per plan signature: ``A^(v*r)`` after a useful segment of
    ``v`` vectors, ``A^rem K^skip`` after a useless one, where ``K`` is
    the State Skip circuit's own matrix (never ``A^(S*r)``, so the replay
    still checks the skip circuit).  The start states of all useful
    segments of one length then step through their ``v`` vectors by
    ``A^r`` together.  Every captured vector is a linear function of the
    register state when its ``r``-clock load begins: cell ``c`` is the
    phase-shifter output that entered chain ``c mod C`` on load clock
    ``r - 1 - depth(c)``, i.e. ``P[c mod C] A^(r-1-depth(c))`` (the
    *capture rows*).  One GEMM of all vector start states, in
    application order, with the capture rows gives every vector, which
    ``packbits`` packs.  Bit-exact with per-clock operation of
    :class:`Decompressor`; the scan-chain contents need no model because
    every captured vector is shifted in by its own ``r`` clocks.
    """

    def __init__(self, decompressor: Decompressor):
        arch = decompressor.architecture
        self._transition = decompressor.lfsr.transition
        self._skip = decompressor.lfsr.skip_circuit.matrix
        self._phase = decompressor.phase_shifter.matrix
        self._num_cells = arch.num_cells
        self._num_chains = arch.num_chains
        self._chain_length = arch.chain_length
        self._seeds: List[BitVector] = []
        # Per segment index: {(normal clocks, skip clocks): seed positions}.
        self._steps: List[Dict[Tuple[int, int], List[int]]] = []
        # Per segment index: {vectors: [(seed position, output offset)]}.
        self._captures: List[Dict[int, List[Tuple[int, int]]]] = []
        self._segment = 0
        self._num_vectors = 0

    def load_seed(self, seed: BitVector) -> None:
        self._seeds.append(seed)
        self._segment = 0

    def _slot(
        self,
    ) -> Tuple[Dict[Tuple[int, int], List[int]], Dict[int, List[Tuple[int, int]]]]:
        """The (steps, captures) records of the current segment index."""
        if self._segment == len(self._steps):
            self._steps.append({})
            self._captures.append({})
        return self._steps[self._segment], self._captures[self._segment]

    def useful(self, vectors: int) -> None:
        """A Normal-mode segment capturing ``vectors`` test vectors."""
        steps, captures = self._slot()
        position = len(self._seeds) - 1
        captures.setdefault(vectors, []).append((position, self._num_vectors))
        steps.setdefault((vectors * self._chain_length, 0), []).append(position)
        self._num_vectors += vectors
        self._segment += 1

    def useless(self, skip_clocks: int, normal_clocks: int) -> None:
        """A State Skip segment: skip clocks, then the normal remainder."""
        steps, _ = self._slot()
        steps.setdefault((normal_clocks, skip_clocks), []).append(
            len(self._seeds) - 1
        )
        self._segment += 1

    # ------------------------------------------------------------------
    # Replay
    # ------------------------------------------------------------------
    def _jump(self, normal_clocks: int, skip_clocks: int) -> np.ndarray:
        """Right multiplier ``(A^normal K^skip)^T`` of a row of states."""
        key = (
            self._transition,
            self._skip if skip_clocks else None,
            normal_clocks,
            skip_clocks,
        )
        jump = _JUMP_CACHE.get(key)
        if jump is None:
            forward = _gf2_power(_as_float(self._transition), normal_clocks)
            if skip_clocks:
                forward = _gf2_product(
                    forward, _gf2_power(_as_float(self._skip), skip_clocks)
                )
            jump = np.ascontiguousarray(forward.T)
            _JUMP_CACHE.put(key, jump)
        return jump

    def _capture_rows(self) -> np.ndarray:
        """Row ``c`` dotted with a load's start state is cell ``c``."""
        key = (self._transition, self._phase, self._num_cells, self._num_chains)
        rows = _CAPTURE_CACHE.get(key)
        if rows is None:
            r, chains = self._chain_length, self._num_chains
            # forms[t * chains + j]: chain j's input on clock t, P[j] A^t.
            forms = _as_float(self._phase)[:chains]
            power = _as_float(self._transition)
            while forms.shape[0] < r * chains:
                forms = np.concatenate([forms, _gf2_product(forms, power)])
                power = _gf2_product(power, power)
            cells = np.arange(self._num_cells)
            clocks = r - 1 - cells // chains
            rows = forms[clocks * chains + cells % chains]
            _CAPTURE_CACHE.put(key, rows)
        return rows

    def _captured_vectors(self, loads: np.ndarray) -> List[int]:
        """The packed vectors whose loads start from the given states."""
        rows = self._capture_rows()
        nbytes = (self._num_cells + 7) // 8
        block = max(1, _CAPTURE_BLOCK_ELEMENTS // self._num_cells)
        out: List[int] = []
        for first in range(0, loads.shape[0], block):
            bits = _gf2_bits(loads[first : first + block], rows.T)
            packed = np.packbits(bits, axis=1, bitorder="little").tobytes()
            out.extend(
                int.from_bytes(packed[i : i + nbytes], "little")
                for i in range(0, len(packed), nbytes)
            )
        return out

    def replay(self) -> List[int]:
        """Run the recorded schedule; the captured vectors in order."""
        n = self._transition.ncols
        nbytes = (n + 7) // 8
        buffer = b"".join(seed.value.to_bytes(nbytes, "little") for seed in self._seeds)
        states = np.unpackbits(
            np.frombuffer(buffer, dtype=np.uint8).reshape(len(self._seeds), nbytes),
            axis=1,
            bitorder="little",
        )[:, :n].astype(np.float32)
        starts: Dict[int, List[np.ndarray]] = {}
        offsets: Dict[int, List[int]] = {}
        jumps: Dict[Tuple[int, int], np.ndarray] = {}
        for steps, captures in zip(self._steps, self._captures):
            for vectors, entries in captures.items():
                positions = [position for position, _ in entries]
                starts.setdefault(vectors, []).append(states[positions])
                offsets.setdefault(vectors, []).extend(
                    offset for _, offset in entries
                )
            for signature, positions in steps.items():
                jump = jumps.get(signature)
                if jump is None:
                    jump = jumps[signature] = self._jump(*signature)
                index = np.array(positions)
                states[index] = _gf2_product(states[index], jump)
        # Load start states of every captured vector, in application order.
        loads = np.empty((self._num_vectors, n), dtype=np.float32)
        load_step = self._jump(self._chain_length, 0)
        for vectors, blocks in starts.items():
            current = np.concatenate(blocks)
            first = np.array(offsets[vectors])
            for vector in range(vectors):
                if vector:
                    current = _gf2_product(current, load_step)
                loads[first + vector] = current
        return self._captured_vectors(loads)


class DecompressionController:
    """The counter-based controller that sequences seeds and segments.

    ``batched=True`` records the schedule for the segment-level numpy
    datapath (:class:`_SegmentDatapath`), which replays it after the
    walk; the default replays it clock by clock through the
    :class:`Decompressor` -- the two produce identical outcomes.
    """

    def __init__(self, decompressor: Decompressor, batched: bool = False):
        self._decompressor = decompressor
        self._batched = batched

    def run(
        self,
        encoding: EncodingResult,
        reduction: ReductionResult,
        collect_vectors: bool = True,
    ) -> SimulationOutcome:
        """Replay a reduction schedule through the datapath.

        The reduction must have been produced with the ``"exact"`` alignment
        model -- the hardware has no way of re-synchronising after the
        fractional jumps assumed by the ``"ideal"`` first-order model.
        """
        if reduction.config.alignment != "exact":
            raise ValueError(
                "the decompressor simulation requires the 'exact' alignment model"
            )
        if reduction.config.speedup != self._decompressor.lfsr.k:
            raise ValueError(
                "reduction speedup does not match the State Skip circuit"
            )
        arch = self._decompressor.architecture
        chain_length = arch.chain_length
        segment_size = reduction.config.segment_size

        mode_select = ModeSelectUnit(
            [schedule.useful_segments for schedule in reduction.schedules],
            reduction.num_segments_per_window,
        )
        groups = reduction.seed_groups()
        max_group_size = max((len(s) for s in groups.values()), default=1)
        max_useful = max((count for count in groups), default=1)
        counters = CounterBank.dimension(
            chain_length=chain_length,
            segment_size=segment_size,
            segments_per_window=reduction.num_segments_per_window,
            max_useful_segments=max_useful,
            max_group_size=max_group_size,
        )

        useful_vectors: List[int] = []
        vectors_applied = 0
        lfsr_clocks = 0
        skip_clocks = 0
        seeds_applied = 0
        schedules = {s.seed_index: s for s in reduction.schedules}
        datapath = _SegmentDatapath(self._decompressor) if self._batched else None

        for group_count, seed_indices in groups.items():
            counters.group.load(min(group_count, counters.group.max_value))
            counters.seed.reset()
            for seed_index in seed_indices:
                record = encoding.seeds[seed_index]
                schedule = schedules[seed_index]
                if datapath is not None:
                    datapath.load_seed(record.seed)
                else:
                    self._decompressor.load_seed(record.seed)
                counters.useful_segment.load(
                    min(group_count, counters.useful_segment.max_value)
                )
                counters.segment.reset()
                seeds_applied += 1
                for plan in schedule.segments:
                    useful = mode_select.mode(seed_index, plan.segment_index)
                    if useful:
                        if datapath is not None:
                            datapath.useful(plan.vectors_applied)
                            lfsr_clocks += plan.vectors_applied * chain_length
                            vectors_applied += plan.vectors_applied
                        else:
                            self._decompressor.set_mode(LFSRMode.NORMAL)
                            for _ in range(plan.vectors_applied):
                                for _ in range(chain_length):
                                    self._decompressor.shift_clock()
                                    lfsr_clocks += 1
                                vectors_applied += 1
                                if collect_vectors:
                                    useful_vectors.append(
                                        self._decompressor.captured_vector()
                                    )
                    else:
                        remainder = plan.lfsr_clocks - plan.skip_clocks
                        if datapath is not None:
                            datapath.useless(plan.skip_clocks, remainder)
                            lfsr_clocks += plan.lfsr_clocks
                            skip_clocks += plan.skip_clocks
                        else:
                            self._decompressor.set_mode(LFSRMode.STATE_SKIP)
                            for _ in range(plan.skip_clocks):
                                self._decompressor.shift_clock()
                                lfsr_clocks += 1
                                skip_clocks += 1
                            self._decompressor.set_mode(LFSRMode.NORMAL)
                            for _ in range(remainder):
                                self._decompressor.shift_clock()
                                lfsr_clocks += 1
                        vectors_applied += plan.vectors_applied
                counters.seed.increment()
            counters.group.increment()

        if datapath is not None and collect_vectors:
            useful_vectors = datapath.replay()
        return SimulationOutcome(
            seeds_applied=seeds_applied,
            vectors_applied=vectors_applied,
            useful_vectors=useful_vectors,
            lfsr_clocks=lfsr_clocks,
            skip_clocks=skip_clocks,
            group_sizes={count: len(seeds) for count, seeds in groups.items()},
        )


def simulate_decompression(
    encoding: EncodingResult,
    reduction: ReductionResult,
    transition: GF2Matrix,
    phase_shifter: PhaseShifter,
    architecture: ScanArchitecture,
    batched: Optional[bool] = None,
    engine: Optional[str] = None,
) -> SimulationOutcome:
    """Convenience wrapper: build the datapath and replay a schedule.

    The datapath model follows the selected engine backend:
    ``engine="reference"`` replays clock by clock, every other backend uses
    the segment-level numpy datapath; the outcomes are identical (the
    golden-equivalence tests enforce this).  ``batched=`` is the deprecated
    boolean spelling of the same choice.
    """
    from repro.circuits.backends import get_backend, resolve_engine

    resolved = resolve_engine(engine, batched=batched)
    decompressor = Decompressor(
        transition, phase_shifter, architecture, reduction.config.speedup
    )
    controller = DecompressionController(
        decompressor, batched=get_backend(resolved).batched_decompressor
    )
    return controller.run(encoding, reduction)
