"""Cycle programs and the simulation core shared by the cipher mappings.

A cycle program is the full micro-op sequence of one processing cycle: the
cipher logic followed by every register's shift transfers under that cycle's
plan row.  It is stored as runs of consecutive same-kind gates, each run one
gate kind's kernel (see ``gates``) and the operand tuples it loops over.
The sequence does not depend on the key, IV or lane data, so one
``ProgramCache`` per cipher × mode, built when its first sim is created,
holds every program, and all sims of that cipher × mode share it.  After
the plans' transitional prefix every cycle of a phase runs the same program,
so ``CipherSim`` runs those cycles as one segment and keeps one run count
per program instead of accounting each cycle.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence

from .costs import PhaseCost
from .engine import CellId, OperandError, TraceFn, execute
from .gates import GATE_METRICS, GateKind, GateSpec
from .shifting import Element, Mode, plan_to_fixed_point


# eq=False: programs are compared and hashed by identity, never by their runs
@dataclass(frozen=True, eq=False)
class CycleProgram:
    runs: tuple[tuple[GateSpec, tuple[tuple[CellId, ...], ...]], ...]  # (gate, operand tuples)
    census: tuple  # ((GateKind, tag), count) pairs
    steps: int

    def run(self, cells: list[int], full: int) -> None:
        """Apply every pulse of the cycle in place, run by run."""
        for spec, operands in self.runs:
            spec.kernel(cells, full, operands)

    @property
    def ops(self) -> tuple[tuple[CellId, CellId], ...]:
        """The cycle's (p, q) op tuples in pulse order, for ``engine.execute``."""
        return tuple(op for spec, operands in self.runs for x in operands for op in spec.ops(x))


class ProgramBuilder:
    """Accumulates gates and shift transfers into one compiled cycle."""

    def __init__(self):
        self._runs: list[tuple[GateSpec, list]] = []
        self._census: Counter = Counter()

    def _instance(self, kind: GateKind, operands: tuple) -> None:
        spec = GATE_METRICS[kind]
        if self._runs and self._runs[-1][0] is spec:
            self._runs[-1][1].append(operands)
        else:
            self._runs.append((spec, [operands]))

    def gate(self, kind: GateKind, inputs, works, tag: str | None = None) -> CellId:
        """Append one gate instance on ``inputs`` then ``works``, which must
        be distinct cells; returns its output cell."""
        spec = GATE_METRICS[kind]
        operands = (*inputs, *works)
        if len(inputs) != spec.arity:
            raise OperandError(f"{kind.value} takes {spec.arity} inputs, got {len(inputs)}")
        if len(works) != spec.works:
            raise OperandError(f"{kind.value} needs {spec.works} work cells, got {len(works)}")
        if len(set(operands)) != len(operands):
            raise OperandError(f"{kind.value} operand/work cells must be distinct: {operands}")
        if kind is GateKind.BUFFER:
            # a buffer's pulses are two inverters, a -> w -> q, so a
            # register's whole shift stage is one inverter run
            a, w, q = operands
            self._instance(GateKind.INVERTER, (a, w))
            self._instance(GateKind.INVERTER, (w, q))
        else:
            self._instance(kind, operands)
        self._census[(kind, tag)] += 1
        return operands[spec.out]

    def transfer(self, src: CellId, dst: CellId, element: Element, scratch: CellId, tag: str) -> None:
        if element is Element.BUFFER:
            self.gate(GateKind.BUFFER, (src,), (scratch, dst), tag)
        else:
            self.gate(GateKind.INVERTER, (src,), (dst,), tag)

    def shift_register(self, cells, source: CellId, elements, scratch: CellId, tag: str) -> None:
        """Emit a whole register's transfers, oldest position first.

        ``cells`` lists the register's physical cell ids in flow order
        (position 1 first); ``elements`` is the plan row for this cycle.
        """
        n = len(cells)
        for m in range(n, 1, -1):
            self.transfer(cells[m - 2], cells[m - 1], elements[m - 1], scratch, tag)
        self.transfer(source, cells[0], elements[0], scratch, tag)

    def compiled(self) -> CycleProgram:
        runs = tuple((spec, tuple(operands)) for spec, operands in self._runs)
        steps = sum(len(spec.pulses) * len(operands) for spec, operands in runs)
        return CycleProgram(runs, tuple(self._census.items()), steps)


class ProgramCache:
    """The cycle programs of one cipher × mode, built by its first sim.

    Programs are built for every cycle up to the shift plans' parity fixed
    point, one per distinct (phase, plan rows); later cycles repeat the last
    one.  Every program's operand tuples are interned, so the programs share
    one tuple per distinct operand tuple.  Neither plans nor build tables
    are kept.
    """

    def __init__(self, sim: CipherSim, mode: Mode):
        plans = [plan_to_fixed_point(layout, mode) for layout in sim.LAYOUTS.values()]
        #: first cycle from which every register repeats its steady row
        self.steady_from = 1 + max(len(plan.prefix) for plan in plans)
        self.init_cycles = sim.INIT_CYCLES
        interned: dict[tuple, tuple] = {}
        by_rows: dict = {}

        def program(keystream: bool, cycle: int) -> CycleProgram:
            rows = tuple(plan.elements(cycle) for plan in plans)
            prog = by_rows.get((keystream, rows))
            if prog is None:
                built = sim._build_cycle(keystream, rows)
                runs = tuple(
                    (spec, tuple(interned.setdefault(x, x) for x in operands)) for spec, operands in built.runs
                )
                prog = by_rows[keystream, rows] = CycleProgram(runs, built.census, built.steps)
            return prog

        last_init = min(self.init_cycles, self.steady_from)
        last_keystream = max(self.init_cycles + 1, self.steady_from)
        self._init = [program(False, t) for t in range(1, last_init + 1)]
        self._keystream = [program(True, t) for t in range(self.init_cycles + 1, last_keystream + 1)]

    def program(self, cycle: int) -> CycleProgram:
        """The program of ``cycle`` (1-based)."""
        if cycle <= self.init_cycles:
            return self._init[min(cycle, len(self._init)) - 1]
        return self._keystream[min(cycle - self.init_cycles, len(self._keystream)) - 1]


#: (sim class, mode) -> its shared cache, created by the first sim
_CACHES: dict[tuple[type, Mode], ProgramCache] = {}


class Phase:
    """How many times each cycle program ran in one phase.

    Step and gate totals are each program's run count times its census,
    summed when read, so they stay exact integers.
    """

    def __init__(self):
        self.runs: dict[CycleProgram, int] = {}

    def add(self, prog: CycleProgram, n: int) -> None:
        self.runs[prog] = self.runs.get(prog, 0) + n

    @property
    def cycles(self) -> int:
        return sum(self.runs.values())

    @property
    def steps(self) -> int:
        return sum(prog.steps * n for prog, n in self.runs.items())

    @property
    def stats(self) -> PhaseCost:
        counts: dict = {}
        for prog, n in self.runs.items():
            for key, c in prog.census:
                counts[key] = counts.get(key, 0) + c * n
        return PhaseCost(self.cycles, self.steps, counts)


class CipherSim:
    """One cipher instance on the array; lanes advance in lockstep.

    A cipher supplies ``CIPHER``, ``INIT_CYCLES``, ``MEMRISTORS``,
    ``LAYOUTS`` (its registers in plan-row order), the output cell ``OUT``,
    ``load_key_iv(key, iv, width)`` and ``_build_cycle(keystream, rows)``.
    """

    CIPHER: str
    INIT_CYCLES: int
    MEMRISTORS: dict
    LAYOUTS: dict
    OUT: int

    def __init__(
        self,
        key: Sequence[int],
        iv: Sequence[int],
        mode: Mode = Mode.PROPOSED,
        width: int = 1,
        trace: TraceFn | None = None,
    ):
        self.mode = mode
        self.width = width
        self.full = (1 << width) - 1
        self.cells = self.load_key_iv(key, iv, width)
        self.cycle = 0  # completed cycles, 1-based during execution
        self.trace = trace
        cls = type(self)
        programs = _CACHES.get((cls, mode))
        if programs is None:
            programs = _CACHES[cls, mode] = ProgramCache(self, mode)
        self._programs = programs
        self.init = Phase()
        self.keystream_phase = Phase()

    @property
    def phase(self) -> str:
        return "init" if self.cycle < self.INIT_CYCLES else "keystream"

    def _cycle_program(self, cycle: int) -> CycleProgram:
        return self._programs.program(cycle)

    def _segment(self, n: int, out: list[int]) -> CycleProgram:
        """Run the next ``n`` cycles, which must share one program; in the
        keystream phase append each cycle's output-cell mask to ``out``.

        Without a trace each cycle runs the program's gate kernels; with
        one, ``engine.execute`` interprets the expanded ops so that every
        pulse reaches the trace with its step index.
        """
        first = self.cycle + 1
        prog = self._cycle_program(first)
        keystream = first > self.INIT_CYCLES
        cells, full, trace, out_cell = self.cells, self.full, self.trace, self.OUT
        if trace is not None:
            ops = prog.ops
            base = self.init.steps + self.keystream_phase.steps
        for i in range(n):
            if trace is None:
                prog.run(cells, full)
            else:
                execute(cells, full, ops, trace, base + i * prog.steps)
            if keystream:
                out.append(cells[out_cell])
        (self.keystream_phase if keystream else self.init).add(prog, n)
        self.cycle += n
        return prog

    def _advance(self, until: int) -> list[int]:
        """Run through cycle ``until``; returns the keystream-phase outputs.

        Each transitional cycle runs alone; from ``steady_from`` on, the
        rest of a phase runs as one segment of its steady program.
        """
        out: list[int] = []
        while self.cycle < until:
            n = 1
            if self.cycle + 1 >= self._programs.steady_from:
                end = until if self.cycle >= self.INIT_CYCLES else min(until, self.INIT_CYCLES)
                n = end - self.cycle
            self._segment(n, out)
        return out

    def step_cycle(self) -> tuple[PhaseCost, Optional[int]]:
        """Run one full cycle; returns its cost and, in the keystream
        phase, the output-cell mask."""
        out: list[int] = []
        prog = self._segment(1, out)
        return PhaseCost(1, prog.steps, dict(prog.census)), (out[0] if out else None)

    def run_init(self) -> None:
        self._advance(self.INIT_CYCLES)

    def keystream(self, n: int) -> list[int]:
        """n keystream masks (bits when width == 1) after initialization."""
        if n < 0:
            raise ValueError("n must be >= 0")
        self.run_init()
        return self._advance(self.cycle + n)
