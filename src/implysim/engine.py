"""Micro-op execution engine for a serial row of binary memristor cells.

Cells are a digital abstraction of memristor resistance states (1 = R_ON,
0 = R_OFF).  The engine executes exactly two primitive pulses:

* ``FALSE(q)``      -- unconditionally reset cell ``q`` to 0
* ``IMPLY(p, q)``   -- ``q := (NOT p) OR q``, ``p`` unchanged

Every applied pulse is one computational step.  States may be *vectorised*:
each cell holds a ``width``-bit integer mask so that many independent
simulations advance in lockstep under the same op sequence (the op sequence
of the ciphers is data-independent, which makes this exact).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

CellId = int

#: compact op encoding used by ``execute``: (p, q) with p == FALSE_P
#: meaning FALSE(q).
FALSE_P = -1
OpTuple = tuple


class LayoutError(ValueError):
    """A cell id does not exist in the addressed array."""


class OperandError(ValueError):
    """Operands of a micro-op or macro violate a template constraint."""


class OpKind(enum.Enum):
    FALSE = "FALSE"
    IMPLY = "IMPLY"


@dataclass(frozen=True)
class MicroOp:
    """One primitive pulse: FALSE(q) or IMPLY(p, q)."""

    kind: OpKind
    q: CellId
    p: Optional[CellId] = None

    def __post_init__(self):
        if self.kind is OpKind.IMPLY:
            if self.p is None:
                raise OperandError("IMPLY requires a source cell p")
            if self.p == self.q:
                raise OperandError(f"IMPLY with p == q == {self.q}")
        elif self.p is not None:
            raise OperandError("FALSE takes no source cell")

    def as_tuple(self) -> OpTuple:
        return (FALSE_P if self.kind is OpKind.FALSE else self.p, self.q)


def false_op(q: CellId) -> MicroOp:
    return MicroOp(OpKind.FALSE, q)


def imply_op(p: CellId, q: CellId) -> MicroOp:
    return MicroOp(OpKind.IMPLY, q, p)


@dataclass
class ArrayState:
    """Fixed-length row of cells; each cell is a width-bit mask."""

    cells: list[int]
    width: int = 1

    @classmethod
    def zeros(cls, length: int, width: int = 1) -> "ArrayState":
        if length <= 0:
            raise LayoutError("array length must be positive")
        return cls([0] * length, width)

    @classmethod
    def from_bits(cls, bits: Sequence[int]) -> "ArrayState":
        if any(b not in (0, 1) for b in bits):
            raise ValueError("cells must be 0 or 1")
        return cls(list(bits), 1)

    @property
    def length(self) -> int:
        return len(self.cells)

    @property
    def full_mask(self) -> int:
        return (1 << self.width) - 1

    def copy(self) -> "ArrayState":
        return ArrayState(list(self.cells), self.width)

    def bit(self, i: CellId, lane: int = 0) -> int:
        return (self.cells[i] >> lane) & 1

    def bits(self, lane: int = 0) -> list[int]:
        return [(c >> lane) & 1 for c in self.cells]

    def check_cell(self, i: CellId) -> None:
        if not (0 <= i < len(self.cells)):
            raise LayoutError(f"cell {i} out of range 0..{len(self.cells) - 1}")


@dataclass
class ExecStats:
    """Step and gate-instance accounting for a run."""

    steps: int = 0
    #: (GateKind, tag) -> instance count; filled from the cycle programs.
    per_gate_counts: dict = field(default_factory=dict)


TraceFn = Callable[[int, str, Optional[int], int, int], None]


def execute(
    cells: list[int],
    full: int,
    ops: Sequence[OpTuple],
    trace: TraceFn | None = None,
    step_base: int = 0,
) -> int:
    """Apply compact ops in place; returns the number of steps executed,
    which is ``len(ops)``: every op is one pulse.

    This is the reference interpreter: cipher runs without a trace use the
    gate kernels generated in ``gates``, which the tests compare against it.
    """
    if trace is None:
        for p, q in ops:
            cells[q] = 0 if p < 0 else ((cells[p] ^ full) | cells[q])
        return len(ops)
    for n, (p, q) in enumerate(ops):
        if p < 0:
            cells[q] = 0
            trace(step_base + n, "FALSE", None, q, cells[q])
        else:
            cells[q] = (cells[p] ^ full) | cells[q]
            trace(step_base + n, "IMPLY", p, q, cells[q])
    return len(ops)


def _validate_op(state: ArrayState, op: MicroOp) -> None:
    state.check_cell(op.q)
    if op.kind is OpKind.IMPLY:
        state.check_cell(op.p)  # type: ignore[arg-type]


def exec_false(state: ArrayState, q: CellId) -> ArrayState:
    """Return a new state with cell q reset to 0 (one step)."""
    state.check_cell(q)
    out = state.copy()
    out.cells[q] = 0
    return out


def exec_imply(state: ArrayState, p: CellId, q: CellId) -> ArrayState:
    """Return a new state with q := p IMPLY q (one step)."""
    if p == q:
        raise OperandError(f"IMPLY with p == q == {q}")
    state.check_cell(p)
    state.check_cell(q)
    out = state.copy()
    out.cells[q] = (out.cells[p] ^ out.full_mask) | out.cells[q]
    return out


def run_program(
    state: ArrayState,
    ops: Sequence[MicroOp],
    trace: TraceFn | None = None,
) -> tuple[ArrayState, ExecStats]:
    """Apply ops in order on a copy of ``state``.

    The first invalid op raises before anything is applied, so the caller's
    state is never partially updated.
    """
    for op in ops:
        _validate_op(state, op)
    out = state.copy()
    stats = ExecStats()
    stats.steps = execute(out.cells, out.full_mask, [op.as_tuple() for op in ops], trace)
    return out, stats


class CsvTrace:
    """Writes one `step_index,kind,p,q,resulting_bit` line per micro-op."""

    def __init__(self, fileobj):
        self._f = fileobj
        self._f.write("step_index,kind,p,q,resulting_bit\n")

    def __call__(self, step: int, kind: str, p: Optional[int], q: int, value: int) -> None:
        self._f.write(f"{step},{kind},{'' if p is None else p},{q},{value & 1}\n")
