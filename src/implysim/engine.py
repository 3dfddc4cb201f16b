"""Pulse interpreter for a serial row of binary memristor cells.

Cells are a digital abstraction of memristor resistance states (1 = R_ON,
0 = R_OFF).  The row takes exactly two primitive pulses, each written as a
``(p, q)`` tuple of cell ids:

* ``FALSE(q)``      -- ``(FALSE_P, q)``: unconditionally reset cell ``q`` to 0
* ``IMPLY(p, q)``   -- ``(p, q)``: ``q := (NOT p) OR q``, ``p`` unchanged

Every applied pulse is one computational step.  A row is a plain list of
ints, and each cell may be a ``width``-bit mask so that many independent
simulations advance in lockstep under the same pulse sequence (the pulse
sequence of the ciphers is data-independent, which makes this exact).
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

CellId = int

#: the ``p`` of a FALSE pulse: (FALSE_P, q) resets cell q
FALSE_P = -1


class LayoutError(ValueError):
    """A register layout or plan does not fit the addressed cells."""


class OperandError(ValueError):
    """The operands of a gate instance violate its kind's constraints."""


TraceFn = Callable[[int, str, Optional[int], int, int], None]


def execute(
    cells: list[int],
    full: int,
    ops: Sequence[tuple[CellId, CellId]],
    trace: TraceFn | None = None,
    step_base: int = 0,
) -> int:
    """Apply ``(p, q)`` pulses in place; ``full`` is the all-lanes mask.
    Returns the number of steps executed, which is ``len(ops)``: every
    pulse is one step.

    This is the reference interpreter: cipher runs without a trace use the
    gate kernels generated in ``gates``, which the tests compare against it.
    """
    for step, (p, q) in enumerate(ops, step_base):
        cells[q] = 0 if p < 0 else (cells[p] ^ full) | cells[q]
        if trace is not None:
            trace(step, "FALSE" if p < 0 else "IMPLY", None if p < 0 else p, q, cells[q])
    return len(ops)


class CsvTrace:
    """Writes one `step_index,kind,p,q,resulting_bit` line per pulse.

    The bit is lane 0's (``value & 1``): a sim more than one lane wide
    records lane 0 only."""

    def __init__(self, fileobj):
        self._f = fileobj
        self._f.write("step_index,kind,p,q,resulting_bit\n")

    def __call__(self, step: int, kind: str, p: Optional[int], q: int, value: int) -> None:
        self._f.write(f"{step},{kind},{'' if p is None else p},{q},{value & 1}\n")
