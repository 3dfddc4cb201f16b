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
the cost of any run of cycles is a few programs' censuses times their run
counts (``ProgramCache.cost``), and a sim's accounts follow from its cycle
count alone.  After t cycles every register cell holds its logical value XOR
the plans' parity P_t, and every cell that a cycle's logic or shift sources
use has parity 0.  So with P XORed out, every cycle of a phase, in either
mode, is the phase's conventional program: each shift stage is a plain move.
A row more than one lane wide runs that way, with P XORed in once and out
once per run of cycles.  Accounts still count the physical programs.
"""

from __future__ import annotations

import functools
from collections import Counter
from itertools import count, islice
from typing import NamedTuple, Optional, Sequence

from .engine import CellId, LayoutError, OperandError, TraceFn, execute
from .gates import GATE_METRICS, GateKind, GateSpec
from .reference import InputError
from .shifting import Mode, RegisterLayout, plan


_INVERTER, _BUFFER = GATE_METRICS[GateKind.INVERTER], GATE_METRICS[GateKind.BUFFER]


class AccountingError(ValueError):
    """A census fails validation, or a cost comparison is not defined."""


class PhaseCost(NamedTuple):
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


class ShiftStage:
    """One register's whole shift stage, run as one slice move.

    ``cells`` are the register's cell ids in flow order (position 1 first);
    ``flips[m - 1]`` is 1 where the transfer into position m is an inverter
    and 0 where it is a buffer.  The stage's pulses (``ops``) run the
    transfers oldest position first, each buffer through ``scratch``; its
    net effect is the parallel move ``cell[m] <- cell[m - 1] XOR flip[m]``
    with ``source`` injected at position 1 and ``scratch`` left holding NOT
    the source of the last buffer emitted; ``run`` applies that effect.
    Stages compare and hash by those four fields, so equal stages intern.
    """

    __slots__ = ("cells", "source", "scratch", "flips", "_move")

    def __init__(self, cells: tuple[CellId, ...], source: CellId, scratch: CellId, flips: bytes):
        self.cells, self.source, self.scratch, self.flips = cells, source, scratch, flips
        n = len(cells)
        if not n or len(flips) != n or any(f not in (0, 1) for f in flips):
            raise LayoutError(f"shift stage: {len(flips)} flips for {n} cells")
        if len({*cells, source, scratch}) != n + 2:
            raise OperandError("shift stage: register, source and scratch cells must be distinct")
        step = cells[1] - cells[0] if n > 1 else 1
        if step not in (1, -1) or any(cell != cells[0] + i * step for i, cell in enumerate(cells)):
            raise LayoutError("shift stage: register cells must be one contiguous range")
        lo = min(cells)
        # the n - 1 internal transfers as one move in physical order
        dst, src = (slice(lo + 1, lo + n), slice(lo, lo + n - 1)) if step == 1 else (
            slice(lo, lo + n - 1), slice(lo + 1, lo + n))
        moves = flips[1:] if step == 1 else flips[:0:-1]
        # the last buffer emitted is the one into the lowest buffered position
        first = flips.find(0) + 1
        last_buffer_src = None if not first else source if first == 1 else cells[first - 2]
        self._move = (dst, src, n - 1, moves, int.from_bytes(moves, "big"),
                      source, flips[0], cells[0], last_buffer_src, scratch)

    def _key(self) -> tuple:
        return self.cells, self.source, self.scratch, self.flips

    def __eq__(self, other):
        return self._key() == other._key() if type(other) is ShiftStage else NotImplemented

    def __hash__(self):
        return hash(self._key())

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
            # in place: a list of new ints would double the register's memory
            c[dst] = c[src]
            for cell, f in enumerate(moves, dst.start):
                if f:
                    c[cell] ^= full
        c[head] = injected


class CycleProgram:
    """One cycle's logic runs, census and steps, then its shift stages.
    Programs are compared and hashed by identity, never by their runs."""

    __slots__ = ("runs", "census", "steps", "stages")

    def __init__(self, runs: tuple, census: tuple, steps: int, stages: tuple[ShiftStage, ...] = ()):
        self.runs = runs  # ((GateSpec, operand tuples), ...)
        self.census = census  # ((GateKind, tag), count) pairs
        self.steps = steps
        self.stages = stages  # the shift stages, run after the logic

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
    so the programs share one object per distinct stage.  The cache also
    keeps the plans' parity P_t (``parity``) and each phase's ``logical``
    program: the conventional mode's program, one object for both modes.
    A layout that cannot run in logical coordinates fails when the cache is
    built.  Neither plans nor build tables are kept.
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
        # P_t for t < steady_from, one mask per cycle: each register's
        # parity laid along its cells, bit-reversed where they descend
        self._parity = [0] * self.steady_from
        for p, cells in zip(plans, cls.REGISTERS.values()):
            n, lo, down = len(cells), min(cells), cells[0] > cells[-1]
            for t, pi in enumerate(islice(p.parities(), self.steady_from)):
                self._parity[t] |= (int(f"{pi:0{n}b}"[::-1], 2) if down else pi) << lo
        conventional = self if mode is Mode.CONVENTIONAL else programs_for(cls, Mode.CONVENTIONAL)
        #: each phase's program in logical coordinates
        self.logical = (conventional.program(1), conventional.program(self.init_cycles + 1))
        self._check(cls)

    def _check(self, cls: type[CipherSim]) -> None:
        """Raise ``LayoutError`` where running in logical coordinates would
        differ from the physical programs: if a cycle's logic operands or
        stage sources include a cell of parity 1, or if any parity is 1 and
        a cycle may read the scratch cell before writing it, since
        ``CipherSim._run`` leaves the scratch to its physical last cycle."""
        for keystream, (logic, sources, scratch) in enumerate(cls._LOGIC):
            used = {cell for _spec, operands in logic.runs for x in operands for cell in x}
            used = sum(1 << cell for cell in used | set(sources.values()))
            progs, first = (self._keystream, self.init_cycles + 1) if keystream else (self._init, 1)
            for t in range(first, first + len(progs)):
                if odd := self.parity(t - 1) & used:
                    cells = [cell for cell in range(odd.bit_length()) if odd >> cell & 1]
                    raise LayoutError(f"cycle {t} touches register cells of parity 1: {cells[:8]}")
            # the scratch is written first if the logic's first pulse on it
            # is a FALSE or, with none, if every cycle has a buffer
            pulse = next((p for spec, xs in logic.runs for x in xs if scratch in x
                          for p, q in spec.ops(x) if scratch in (p, q)), None)
            written = pulse < 0 if pulse is not None else all(
                any(0 in stage.flips for stage in prog.stages) for prog in progs)
            if any(self._parity) and not written:
                raise LayoutError(f"a cycle may read scratch cell {scratch} before writing it")

    def program(self, cycle: int) -> CycleProgram:
        """The program of ``cycle`` (1-based)."""
        _check_index(cycle, 1)
        if cycle <= self.init_cycles:
            return self._init[min(cycle, len(self._init)) - 1]
        return self._keystream[min(cycle - self.init_cycles, len(self._keystream)) - 1]

    def parity(self, t: int) -> int:
        """P_t, the parity after ``t`` cycles: bit c is set where register
        cell c holds its logical value complemented.  P_0 is 0."""
        _check_index(t, 0)
        return self._parity[min(t, len(self._parity) - 1)]

    def toggle(self, cells: list[int], full: int, t: int) -> None:
        """XOR P_t into ``cells``: from physical to logical coordinates
        after ``t`` cycles, and back."""
        mask = self.parity(t)
        while mask:
            low = mask & -mask
            cells[low.bit_length() - 1] ^= full
            mask ^= low

    def segments(self, first: int, last: int):
        """``(program, run count)`` pairs for cycles ``first..last``, in
        order: each cycle before ``steady_from`` alone, then the rest of each
        phase as one run of its steady program."""
        _check_index(first, 1)
        split = min(max(first, self.steady_from), last + 1)
        for t in range(first, split):
            yield self.program(t), 1
        for lo, hi in ((split, min(last, self.init_cycles)), (max(split, self.init_cycles + 1), last)):
            if lo <= hi:
                yield self.program(lo), hi + 1 - lo

    def cost(self, first: int, last: int) -> PhaseCost:
        """Cycles, steps and gate census of cycles ``first..last`` (none if
        ``last < first``): each program's census times its run count, so
        the totals are exact integers."""
        runs: dict[CycleProgram, int] = {}
        for prog, n in self.segments(first, last):
            runs[prog] = runs.get(prog, 0) + n
        census: dict = {}
        for prog, n in runs.items():
            for key, c in prog.census:
                census[key] = census.get(key, 0) + c * n
        return PhaseCost(sum(runs.values()), sum(prog.steps * n for prog, n in runs.items()), census)


def _check_index(t: int, low: int) -> None:
    """Raise ``ValueError`` for a cycle before 1 or a parity before P_0."""
    if t < low:
        raise ValueError(f"index {t} < {low}: cycles count from 1, parities from P_0")


_cached = functools.cache(ProgramCache)  # keyed on (class, Mode)


def programs_for(cls: type[CipherSim], mode: Mode) -> ProgramCache:
    """The one program cache of ``cls`` × ``mode`` (a ``Mode`` or its value;
    anything else raises ``ValueError``), built on first use."""
    return _cached(cls, Mode(mode))


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

    @property
    def init(self) -> PhaseCost:
        """The cost of the init-phase cycles run so far."""
        return self._programs.cost(1, min(self.cycle, self.INIT_CYCLES))

    @property
    def keystream_phase(self) -> PhaseCost:
        """The cost of the keystream-phase cycles run so far."""
        return self._programs.cost(self.INIT_CYCLES + 1, self.cycle)

    def _run(self, n: int, out: list[int]) -> None:
        """Run the next ``n`` cycles, all in one phase; in the keystream
        phase append each cycle's output-cell mask to ``out``.

        A row more than one lane wide, without a trace, XORs in P_{first-1},
        runs the phase's logical program ``n - 1`` times, XORs out
        P_{last-1} and runs the last cycle's physical program, which also
        writes the scratch cell.  Otherwise each cycle runs its physical
        program, through ``engine.execute`` with a trace so that every pulse
        reaches it with its step index, counted from the steps of the cycles
        before ``first``.
        """
        first, last = self.cycle + 1, self.cycle + n
        keystream = first > self.INIT_CYCLES
        cache, cells, full, trace, out_cell = self._programs, self.cells, self.full, self.trace, self.OUT

        def repeat(run, k: int) -> None:
            for _ in range(k):
                run(cells, full)
                if keystream:
                    out.append(cells[out_cell])

        if trace is not None:
            step = cache.cost(1, first - 1).steps
            for prog, k in cache.segments(first, last):
                ops, steps = prog.ops, count(step, prog.steps)
                repeat(lambda c, f: execute(c, f, ops, trace, next(steps)), k)
                step += k * prog.steps
        # Width 1 stays physical.  The logical path speeds it up too, but the
        # benchmark's sessions peak_rss_mb grows with the number of jobs a
        # run completes, so that gain would read as a memory regression until
        # the benchmark reports growth per job (ROADMAP.md item 1).
        elif full != 1 and n > 1:
            cache.toggle(cells, full, first - 1)
            repeat(cache.logical[keystream].run, n - 1)
            cache.toggle(cells, full, last - 1)
            repeat(cache.program(last).run, 1)
        else:
            for prog, k in cache.segments(first, last):
                repeat(prog.run, k)
        self.cycle = last

    def _advance(self, until: int) -> list[int]:
        """Run through cycle ``until``, one ``_run`` per phase; returns the
        keystream-phase outputs."""
        out: list[int] = []
        while self.cycle < until:
            end = until if self.cycle >= self.INIT_CYCLES else min(until, self.INIT_CYCLES)
            self._run(end - self.cycle, out)
        return out

    def step_cycle(self) -> tuple[PhaseCost, Optional[int]]:
        """Run one full cycle; returns its cost and, in the keystream
        phase, the output-cell mask."""
        out: list[int] = []
        self._run(1, out)
        return self._programs.cost(self.cycle, self.cycle), (out[0] if out else None)

    def run_init(self) -> None:
        self._advance(self.INIT_CYCLES)

    def keystream(self, n: int) -> list[int]:
        """n keystream masks (bits when width == 1) after initialization."""
        if n < 0:
            raise ValueError("n must be >= 0")
        self.run_init()
        return self._advance(self.cycle + n)
