"""Cycle programs and the simulation core shared by the cipher mappings.

A cycle program is the full micro-op sequence of one processing cycle: its
phase's cipher logic followed by every register's shift transfers under that
cycle's plan row.  The logic is the same in every cycle of a phase and in
both modes, so each sim class compiles it once per phase and all programs of
a phase share it.  It is stored as runs of consecutive same-kind gates, each
run one gate kind's kernel (see ``gates``) and the operand tuples it loops
over.  Each register's shift stage is one ``ShiftStage``, which runs as a
single slice move over the register's contiguous cells; its ``ops`` expand
the stage's buffer and inverter pulses, so ``CycleProgram.ops`` and
``engine.execute`` remain the pulse-level reference and the trace path.  The
sequence does not depend on the key, IV or lane data, so one
``ProgramCache`` per cipher × mode, built by ``programs_for`` on first use,
holds every program, and all sims of that cipher × mode share it.  After the
plans' transitional prefix every cycle of a phase runs the same program, so
``CipherSim`` runs those cycles as one segment and keeps one run count per
program instead of accounting each cycle.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .engine import CellId, LayoutError, OperandError, TraceFn, execute
from .gates import GATE_METRICS, GateKind, GateSpec
from .reference import InputError
from .shifting import Mode, RegisterLayout, plan


_INVERTER, _BUFFER = GATE_METRICS[GateKind.INVERTER], GATE_METRICS[GateKind.BUFFER]


class AccountingError(ValueError):
    """A census fails validation, or a cost comparison is not defined."""


@dataclass
class PhaseCost:
    """Cycles, executed steps and gate census of a run of cycles."""

    cycles: int
    steps: int
    census: dict  # (GateKind, tag) -> count

    @property
    def energy_e4(self) -> int:
        return sum(GATE_METRICS[kind].energy_e4 * n for (kind, _tag), n in self.census.items())

    @property
    def energy_nj(self) -> float:
        return self.energy_e4 / 1e4

    @property
    def energy_uj(self) -> float:
        return self.energy_e4 / 1e7

    def validate(self) -> None:
        derived = sum(GATE_METRICS[kind].steps * n for (kind, _t), n in self.census.items())
        if derived != self.steps:
            raise AccountingError(f"census steps {derived} != executed steps {self.steps}")


@dataclass(frozen=True)
class ShiftStage:
    """One register's whole shift stage, run as one slice move.

    ``cells`` are the register's cell ids in flow order (position 1 first);
    ``flips[m - 1]`` is 1 where the transfer into position m is an inverter
    and 0 where it is a buffer.  The stage's pulses (``ops``) run the
    transfers oldest position first, each buffer through ``scratch``; its
    net effect is the parallel move ``cell[m] <- cell[m - 1] XOR flip[m]``
    with ``source`` injected at position 1 and ``scratch`` left holding NOT
    the source of the last buffer emitted; ``run`` applies that effect.
    """

    cells: tuple[CellId, ...]
    source: CellId
    scratch: CellId
    flips: bytes
    _move: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        cells, n = self.cells, len(self.cells)
        if not n or len(self.flips) != n or any(f not in (0, 1) for f in self.flips):
            raise LayoutError(f"shift stage: {len(self.flips)} flips for {n} cells")
        if len({*cells, self.source, self.scratch}) != n + 2:
            raise OperandError("shift stage: register, source and scratch cells must be distinct")
        step = cells[1] - cells[0] if n > 1 else 1
        if step not in (1, -1) or any(cell != cells[0] + i * step for i, cell in enumerate(cells)):
            raise LayoutError("shift stage: register cells must be one contiguous range")
        lo = min(cells)
        # the n - 1 internal transfers as one move in physical order
        dst, src = (slice(lo + 1, lo + n), slice(lo, lo + n - 1)) if step == 1 else (
            slice(lo, lo + n - 1), slice(lo + 1, lo + n))
        moves = self.flips[1:] if step == 1 else self.flips[:0:-1]
        # the last buffer emitted is the one into the lowest buffered position
        first = self.flips.find(0) + 1
        last_buffer_src = None if not first else self.source if first == 1 else cells[first - 2]
        move = (dst, src, n - 1, moves, int.from_bytes(moves, "big"),
                self.source, self.flips[0], cells[0], last_buffer_src, self.scratch)
        object.__setattr__(self, "_move", move)

    @property
    def census(self) -> list[tuple[GateKind, int]]:
        """(kind, count) of its buffers and inverters, in order of first use."""
        order = dict.fromkeys(self.flips[::-1])
        kinds = (GateKind.BUFFER, GateKind.INVERTER)
        return [(kinds[f], self.flips.count(f)) for f in order]

    @property
    def steps(self) -> int:
        return sum(GATE_METRICS[kind].steps * n for kind, n in self.census)

    @property
    def ops(self) -> list[tuple[CellId, CellId]]:
        """The stage's (p, q) pulses: transfers from position N down to 1."""
        cells, scratch = self.cells, self.scratch
        ops = []
        for m in range(len(cells), 0, -1):
            src = cells[m - 2] if m > 1 else self.source
            if self.flips[m - 1]:
                ops += _INVERTER.ops((src, cells[m - 1]))
            else:
                ops += _BUFFER.ops((src, scratch, cells[m - 1]))
        return ops

    def run(self, c: list[int], full: int) -> None:
        """Apply the stage's net effect in place."""
        dst, src, n, moves, mask, source, inject_flip, head, last_buffer_src, scratch = self._move
        injected = c[source] ^ full if inject_flip else c[source]
        if last_buffer_src is not None:
            c[scratch] = c[last_buffer_src] ^ full
        if not mask:
            c[dst] = c[src]
        elif full == 1:
            c[dst] = (int.from_bytes(bytearray(c[src]), "big") ^ mask).to_bytes(n, "big")
        else:
            c[dst] = [x ^ full if f else x for x, f in zip(c[src], moves)]
        c[head] = injected


# eq=False: programs are compared and hashed by identity, never by their runs
@dataclass(frozen=True, eq=False)
class CycleProgram:
    runs: tuple[tuple[GateSpec, tuple[tuple[CellId, ...], ...]], ...]  # (gate, operand tuples)
    census: tuple  # ((GateKind, tag), count) pairs
    steps: int
    stages: tuple[ShiftStage, ...] = ()  # the shift stages, run after the logic

    def run(self, cells: list[int], full: int) -> None:
        """Apply the cycle in place: the logic run by run, then each shift
        stage as one move."""
        for spec, operands in self.runs:
            spec.kernel(cells, full, operands)
        for stage in self.stages:
            stage.run(cells, full)

    @property
    def ops(self) -> tuple[tuple[CellId, CellId], ...]:
        """The cycle's (p, q) op tuples in pulse order, for ``engine.execute``."""
        logic = (op for spec, operands in self.runs for x in operands for op in spec.ops(x))
        return (*logic, *(op for stage in self.stages for op in stage.ops))


class ProgramBuilder:
    """Accumulates one phase's logic gates into a stage-less cycle program;
    ``reads`` holds the cells its gates read before any gate writes them.
    Builders given one ``interned`` dict share each distinct operand tuple."""

    def __init__(self, interned: dict | None = None):
        self._runs: list[tuple[GateSpec, list]] = []
        self._interned = {} if interned is None else interned
        self._census: Counter = Counter()
        self.reads: set[CellId] = set()
        self._written: set[CellId] = set()

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
        operands = self._interned.setdefault(operands, operands)
        if self._runs and self._runs[-1][0] is spec:
            self._runs[-1][1].append(operands)
        else:
            self._runs.append((spec, [operands]))
        self._census[(kind, tag)] += 1
        self.reads.update(cell for cell in inputs if cell not in self._written)
        self._written.update(operands[q] for _p, q in spec.pulses)
        return operands[spec.out]

    def compiled(self) -> CycleProgram:
        runs = tuple((spec, tuple(operands)) for spec, operands in self._runs)
        steps = sum(len(spec.pulses) * len(operands) for spec, operands in runs)
        return CycleProgram(runs, tuple(self._census.items()), steps)


class ProgramCache:
    """The cycle programs of one sim class × mode.

    Programs are built for every cycle up to the shift plans' parity fixed
    point, one per distinct (phase, plan rows); later cycles repeat the last
    one.  Each program is its phase's compiled logic, whose runs it shares
    by reference, plus that cycle's shift stages.  The stages are interned,
    so the programs share one object per distinct stage.  Neither plans nor
    build tables are kept.
    """

    def __init__(self, cls: type[CipherSim], mode: Mode):
        plans = [plan(layout, mode) for layout in cls.LAYOUTS.values()]
        #: first cycle from which every register repeats its steady row
        self.steady_from = 1 + max(len(p.prefix) for p in plans)
        self.init_cycles = cls.INIT_CYCLES
        interned: dict[ShiftStage, ShiftStage] = {}
        by_rows: dict = {}

        def program(keystream: bool, cycle: int) -> CycleProgram:
            rows = tuple(p.elements(cycle) for p in plans)
            prog = by_rows.get((keystream, rows))
            if prog is None:
                built = cls._build_cycle(keystream, rows)
                stages = tuple(interned.setdefault(stage, stage) for stage in built.stages)
                prog = by_rows[keystream, rows] = CycleProgram(built.runs, built.census, built.steps, stages)
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


_cached = functools.cache(ProgramCache)  # keyed on (class, Mode)


def programs_for(cls: type[CipherSim], mode: Mode) -> ProgramCache:
    """The one program cache of ``cls`` × ``mode`` (a ``Mode`` or its value;
    anything else raises ``ValueError``), built on first use."""
    return _cached(cls, Mode(mode))


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

    A cipher supplies ``CIPHER``, ``INIT_CYCLES``, ``MEMRISTORS``, the output
    cell ``OUT`` (the row's last cell), ``KEY`` and ``IV`` (the cells their
    bits load into, in bit order), ``ONES`` (the cells set in every lane at
    load), ``REGISTERS`` (name -> contiguous cells in flow order, in plan-row
    order) and the static ``_logic(pb, keystream)``, which appends one
    phase's logic gates and returns each register's injection source by name
    and the scratch cell.  It runs once per phase, at class creation, into
    ``_LOGIC``; ``LAYOUTS`` is derived from it: a register's taps are its
    cells that either phase reads before writing them.
    """

    CIPHER: str
    INIT_CYCLES: int
    MEMRISTORS: dict
    KEY: tuple[CellId, ...]
    IV: tuple[CellId, ...]
    ONES: tuple[CellId, ...]
    REGISTERS: dict
    LAYOUTS: dict
    _LOGIC: tuple  # per phase: (compiled logic, register sources, scratch cell)
    OUT: int

    def __init_subclass__(cls):
        reads: set[CellId] = set()
        interned: dict[tuple, tuple] = {}
        logic = []
        for keystream in (False, True):
            sources, scratch = cls._logic(pb := ProgramBuilder(interned), keystream)
            reads |= pb.reads
            logic.append((pb.compiled(), sources, scratch))
        cls._LOGIC = tuple(logic)
        cls.LAYOUTS = {}
        for name, cells in cls.REGISTERS.items():
            taps = frozenset(m for m, cell in enumerate(cells, 1) if cell in reads)
            cls.LAYOUTS[name] = RegisterLayout(name, len(cells), taps)

    @classmethod
    def _build_cycle(cls, keystream: bool, rows) -> CycleProgram:
        """One cycle's program: the phase's compiled logic, then each
        register's shift stage under its plan row (``rows`` in ``REGISTERS``
        order), tagged with the register's name in the census."""
        logic, sources, scratch = cls._LOGIC[keystream]
        census = Counter(dict(logic.census))
        stages = []
        for (name, cells), row in zip(cls.REGISTERS.items(), rows, strict=True):
            stages.append(stage := ShiftStage(cells, sources[name], scratch, row))
            for kind, n in stage.census:
                census[(kind, name)] += n
        steps = logic.steps + sum(stage.steps for stage in stages)
        return CycleProgram(logic.runs, tuple(census.items()), steps, tuple(stages))

    @classmethod
    def load_key_iv(cls, key: Sequence[int], iv: Sequence[int], width: int = 1) -> list[int]:
        """The initial row of ``OUT + 1`` cells: key and iv bits in ``KEY``
        and ``IV``, ``ONES`` set, every other cell 0.

        Entries are width-bit masks so that many key/IV pairs load at once.
        """
        if width < 1:
            raise ValueError(f"width must be >= 1, got {width}")
        for name, bits, cells in (("key", key, cls.KEY), ("iv", iv, cls.IV)):
            if len(bits) != len(cells):
                raise InputError(f"{name} must be {len(cells)} bits, got {len(bits)}")
        full = (1 << width) - 1
        if any(not 0 <= x <= full for x in (*key, *iv)):
            raise InputError(f"key and iv entries must be {width}-bit masks in [0, {full}]")
        row = [0] * (cls.OUT + 1)
        for cell, x in zip((*cls.KEY, *cls.IV), (*key, *iv)):
            row[cell] = x
        for cell in cls.ONES:
            row[cell] = full
        return row

    def __init__(
        self,
        key: Sequence[int],
        iv: Sequence[int],
        mode: Mode = Mode.PROPOSED,
        width: int = 1,
        trace: TraceFn | None = None,
    ):
        self.mode = Mode(mode)
        self.cells = self.load_key_iv(key, iv, width)
        self.width = width
        self.full = (1 << width) - 1
        self.cycle = 0  # completed cycles, 1-based during execution
        self.trace = trace
        self._programs = programs_for(type(self), self.mode)
        self.init = Phase()
        self.keystream_phase = Phase()

    def _segment(self, n: int, out: list[int]) -> CycleProgram:
        """Run the next ``n`` cycles, which must share one program; in the
        keystream phase append each cycle's output-cell mask to ``out``.

        Without a trace each cycle runs the program's gate kernels; with
        one, ``engine.execute`` interprets the expanded ops so that every
        pulse reaches the trace with its step index.
        """
        first = self.cycle + 1
        prog = self._programs.program(first)
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
