"""Cycle programs and the simulation core shared by the cipher mappings.

A cycle program is the full micro-op sequence of one processing cycle: the
cipher logic followed by every register's shift transfers under that cycle's
plan row.  The sequence does not depend on the key, IV or lane data, so one
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

from .engine import CellId, ExecStats, OpTuple, TraceFn, execute
from .gates import GateKind, expand, make_macro
from .shifting import Element, Mode, plan_to_fixed_point


# eq=False: programs are compared and hashed by identity, never by their ops
@dataclass(frozen=True, eq=False)
class CycleProgram:
    ops: tuple[OpTuple, ...]
    census: tuple  # ((GateKind, tag), count) pairs
    steps: int


class ProgramBuilder:
    """Accumulates gates and shift transfers into one compiled cycle."""

    def __init__(self):
        self._ops: list[OpTuple] = []
        self._census: Counter = Counter()

    def gate(self, kind: GateKind, inputs, works, tag: str | None = None) -> CellId:
        macro = make_macro(kind, inputs, works)
        self._ops.extend(op.as_tuple() for op in expand(macro))
        self._census[(kind, tag)] += 1
        return macro.output

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
        return CycleProgram(tuple(self._ops), tuple(self._census.items()), len(self._ops))


class ProgramCache:
    """The cycle programs of one cipher × mode, built by its first sim.

    Programs are built for every cycle up to the shift plans' parity fixed
    point, one per distinct (phase, plan rows); later cycles repeat the last
    one.  Every program's ops are interned, so the programs share one tuple
    per distinct op.  Neither plans nor build tables are kept.
    """

    def __init__(self, sim: CipherSim, mode: Mode):
        plans = [plan_to_fixed_point(layout, mode) for layout in sim.LAYOUTS.values()]
        #: first cycle from which every register repeats its steady row
        self.steady_from = 1 + max(len(plan.prefix) for plan in plans)
        self.init_cycles = sim.INIT_CYCLES
        interned: dict[OpTuple, OpTuple] = {}
        by_rows: dict = {}

        def program(keystream: bool, cycle: int) -> CycleProgram:
            rows = tuple(plan.elements(cycle) for plan in plans)
            prog = by_rows.get((keystream, rows))
            if prog is None:
                built = sim._build_cycle(keystream, rows)
                ops = tuple(interned.setdefault(op, op) for op in built.ops)
                prog = by_rows[keystream, rows] = CycleProgram(ops, built.census, built.steps)
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
    def stats(self) -> ExecStats:
        counts: dict = {}
        for prog, n in self.runs.items():
            for key, c in prog.census:
                counts[key] = counts.get(key, 0) + c * n
        return ExecStats(self.steps, counts)


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
        """Run the next ``n`` cycles, which must share one program, one
        ``execute`` call per cycle; in the keystream phase append each
        cycle's output-cell mask to ``out``."""
        first = self.cycle + 1
        prog = self._cycle_program(first)
        keystream = first > self.INIT_CYCLES
        cells, full, ops, trace, out_cell = self.cells, self.full, prog.ops, self.trace, self.OUT
        base = self.init.steps + self.keystream_phase.steps
        for i in range(n):
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

    def step_cycle(self) -> tuple[ExecStats, Optional[int]]:
        """Run one full cycle; returns its stats and, in the keystream
        phase, the output-cell mask."""
        out: list[int] = []
        prog = self._segment(1, out)
        return ExecStats(prog.steps, dict(prog.census)), (out[0] if out else None)

    def run_init(self) -> None:
        self._advance(self.INIT_CYCLES)

    def keystream(self, n: int) -> list[int]:
        """n keystream masks (bits when width == 1) after initialization."""
        if n < 0:
            raise ValueError("n must be >= 0")
        self.run_init()
        return self._advance(self.cycle + n)
