"""IMPLY macro library: Boolean gates as fixed FALSE/IMPLY pulse sequences.

Each gate kind is one literal row: its pulses as ``(p, q)`` tuples over
operand positions (inputs first, then work cells; ``p == FALSE_P`` is a
FALSE pulse), the position of its output, and the inputs it overwrites.
Step and touched-cell counts follow from the pulses; with the per-instance
energies they reproduce the evaluated serial-IMPLY gate set (inverter 2
steps / 0.1291 nJ, buffer 4 / 0.269, 2:3:4-input AND 5:6:11 steps,
destructive XOR2 9 steps, non-destructive XOR2 11, XOR3 20).

Destructive gates overwrite one declared input; everything else is
preserved, which the exhaustive ``truth_check`` verifies per kind by
running the pulses through ``engine.execute``.

Each kind also gets a kernel, generated from its pulses when this module
is imported: a loop over operand tuples whose body is the pulse sequence
written out one statement per pulse.  A cycle program runs its gates as
runs of same-kind instances through these kernels; ``engine.execute``
remains the reference interpreter and the trace path.
"""

from __future__ import annotations

import enum
import itertools
from typing import Callable

from .engine import FALSE_P, LayoutError, OperandError, execute


class GateKind(enum.Enum):
    INVERTER = "INVERTER"
    BUFFER = "BUFFER"
    AND2 = "AND2"
    AND3 = "AND3"
    AND4 = "AND4"
    XOR2_DESTRUCTIVE = "XOR2_DESTRUCTIVE"
    XOR2_NONDESTRUCTIVE = "XOR2_NONDESTRUCTIVE"
    XOR3 = "XOR3"


def _kernel(name: str, n_cells: int, pulses: tuple) -> Callable:
    """Generate ``kernel(c, f, operands)``: for each operand tuple, in order,
    one cell update per pulse, in pulse order."""
    x = [f"x{i}" for i in range(n_cells)]
    body = "".join(
        f"        c[{x[q]}] = 0\n" if p == FALSE_P else f"        c[{x[q]}] = (c[{x[p]}] ^ f) | c[{x[q]}]\n"
        for p, q in pulses
    )
    source = f"def {name}(c, f, operands):\n    for {', '.join(x)}, in operands:\n{body}"
    namespace: dict = {}
    exec(compile(source, f"<{name}>", "exec"), namespace)
    return namespace[name]


class GateSpec:
    """One gate kind: operand counts, Boolean function, pulses, output and
    destroyed positions, evaluated energy, and its kernel.  Specs are
    compared by identity."""

    __slots__ = ("kind", "arity", "works", "func", "pulses", "out", "destroyed", "energy_nj", "kernel")

    def __init__(self, kind: GateKind, arity: int, works: int, func: Callable[..., int],
                 pulses: tuple[tuple[int, int], ...], out: int, destroyed: tuple[int, ...], energy_nj: float):
        self.kind, self.arity, self.works, self.func = kind, arity, works, func
        #: (p, q) pulses over operand positions, inputs first, then work cells
        self.pulses = pulses
        self.out = out  # operand position of the result
        self.destroyed = destroyed  # input positions the pulses overwrite
        self.energy_nj = energy_nj
        n_cells = arity + works
        for p, q in pulses:
            if not (0 <= q < n_cells and (p == FALSE_P or 0 <= p < n_cells)):
                raise LayoutError(f"{kind.value}: pulse {(p, q)} outside its {n_cells} operands")
            if p == q:
                raise OperandError(f"{kind.value}: IMPLY needs distinct cells, got {(p, q)}")
        #: ``kernel(cells, full, operands)`` runs the pulses once per operand
        #: tuple (inputs then works), in order, updating ``cells`` in place
        self.kernel = _kernel(f"{kind.value.lower()}_kernel", n_cells, pulses)

    @property
    def steps(self) -> int:
        return len(self.pulses)

    @property
    def memristors(self) -> int:
        """Distinct cells the pulses touch."""
        return len({cell for pulse in self.pulses for cell in pulse} - {FALSE_P})

    @property
    def energy_e4(self) -> int:
        """Energy in integer 1e-4 nJ units (exact accounting)."""
        return round(self.energy_nj * 10000)

    def ops(self, operands: tuple) -> list:
        """The (p, q) op tuples of one instance on ``operands``."""
        return [(FALSE_P if p == FALSE_P else operands[p], operands[q]) for p, q in self.pulses]


# Notation in comments: ' marks a rewritten cell, as in the step listings.
_F = FALSE_P

#: one row per kind: kind, arity, work cells, function, pulses, output
#: position, destroyed input positions, energy nJ of the evaluated gate set.
GATE_METRICS: dict[GateKind, GateSpec] = {spec.kind: spec for spec in (
    # a, q
    GateSpec(GateKind.INVERTER, 1, 1, lambda a: 1 - a, ((_F, 1), (0, 1)), 1, (), 0.1291),  # q = NOT a
    # a, w, q
    GateSpec(GateKind.BUFFER, 1, 2, lambda a: a, ((_F, 1), (0, 1), (_F, 2), (1, 2)), 2, (), 0.269),  # q = a
    # p, q, u, v: (p -> (q -> 0)) -> 0
    GateSpec(
        GateKind.AND2, 2, 2, lambda a, b: a & b, ((_F, 2), (_F, 3), (1, 2), (0, 2), (2, 3)), 3, (), 0.3833
    ),
    # a, b, c, u, v
    GateSpec(
        GateKind.AND3, 3, 2, lambda a, b, c: a & b & c,
        (
            (_F, 3),
            (_F, 4),
            (0, 3),  # u' = NOT a
            (1, 3),  # u'' = b -> NOT a
            (2, 3),  # u''' = c -> (b -> NOT a)
            (3, 4),  # v' = AND(a, b, c)
        ),
        4, (), 0.5025,
    ),
    # a, b, c, d, u, v
    GateSpec(
        GateKind.AND4, 4, 2, lambda a, b, c, d: a & b & c & d,
        (
            (_F, 4),
            (_F, 5),
            (0, 4),
            (1, 4),
            (2, 4),
            (4, 5),  # v' = AND(a, b, c)
            (_F, 4),
            (3, 4),  # u' = NOT d
            (5, 4),  # u'' = AND(a,b,c) -> NOT d
            (_F, 5),
            (4, 5),  # v' = AND(a, b, c, d)
        ),
        5, (), 0.9131,
    ),
    # a, b, s1, s2
    GateSpec(
        GateKind.XOR2_DESTRUCTIVE, 2, 2, lambda a, b: a ^ b,
        (
            (_F, 2),
            (_F, 3),
            (0, 2),  # s1' = NOT a
            (1, 3),  # s2' = NOT b
            (2, 3),  # s2'' = NOT a -> NOT b
            (_F, 2),
            (3, 2),  # s1' = NOT(NOT a -> NOT b)
            (0, 1),  # b' = a -> b          (input b overwritten)
            (1, 2),  # s1'' = XOR(a, b)
        ),
        2, (1,), 0.7426,
    ),
    # a, b, s1, s2, s3
    GateSpec(
        GateKind.XOR2_NONDESTRUCTIVE, 2, 3, lambda a, b: a ^ b,
        (
            (_F, 2),
            (_F, 3),
            (_F, 4),
            (0, 2),  # s1' = NOT a
            (1, 3),  # s2' = NOT b
            (3, 4),  # s3' = b
            (2, 3),  # s2'' = NOT a -> NOT b
            (0, 4),  # s3'' = a -> b
            (_F, 2),
            (3, 2),  # s1' = NOT(NOT a -> NOT b)
            (4, 2),  # s1'' = XOR(a, b)
        ),
        2, (), 0.9146,
    ),
    # a, b, c, s1, s2, s3: the non-destructive XOR2 of a and b into s1,
    # then a destructive XOR2 folding in c; the destroyed cell is s1
    GateSpec(
        GateKind.XOR3, 3, 3, lambda a, b, c: a ^ b ^ c,
        (
            (_F, 3),
            (_F, 4),
            (_F, 5),
            (0, 3),  # s1' = NOT a
            (1, 4),  # s2' = NOT b
            (4, 5),  # s3' = b
            (3, 4),  # s2'' = NOT a -> NOT b
            (0, 5),  # s3'' = a -> b
            (_F, 3),
            (4, 3),  # s1' = NOT(NOT a -> NOT b)
            (5, 3),  # s1'' = XOR(a, b)
            (_F, 4),
            (_F, 5),
            (2, 4),
            (3, 5),
            (4, 5),
            (_F, 4),
            (5, 4),
            (2, 3),
            (3, 4),  # s2 = XOR(a, b, c)
        ),
        4, (), 1.711,
    ),
)}


def truth_check(kind: GateKind) -> bool:
    """Exhaustively run the pulses through ``engine.execute`` against the
    gate's Boolean function, from every input and work-cell state.

    Also checks that every input not declared destroyed is preserved.
    """
    spec = GATE_METRICS[kind]
    for values in itertools.product((0, 1), repeat=spec.arity + spec.works):
        cells = list(values)
        execute(cells, 1, spec.pulses)
        inputs = values[: spec.arity]
        if cells[spec.out] != spec.func(*inputs):
            return False
        if any(cells[i] != v for i, v in enumerate(inputs) if i not in spec.destroyed):
            return False
    return True
