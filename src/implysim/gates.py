"""IMPLY macro library: Boolean gates as fixed FALSE/IMPLY sequences.

Each gate kind expands to an exact micro-op template over named operand and
work cells.  Step counts, touched-cell counts, and per-instance energies for
the eight kinds used by the ciphers follow the evaluated serial-IMPLY gate
set (inverter 2 steps / 0.1291 nJ, buffer 4 / 0.269, 2:3:4-input AND
5:6:11 steps, destructive XOR2 9 steps, non-destructive XOR2 11, XOR3 20).

Destructive templates overwrite one declared input; everything else is
preserved, which the exhaustive ``truth_check`` verifies per kind.

Each kind also gets a kernel, generated from its template when this module
is imported: a loop over operand tuples whose body is the template written
out one statement per pulse.  A cycle program runs its gates as runs of
same-kind instances through these kernels; ``engine.execute`` remains the
reference interpreter and the trace path.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from .engine import FALSE_P, ArrayState, CellId, MicroOp, OperandError, false_op, imply_op, run_program


class GateKind(enum.Enum):
    INVERTER = "INVERTER"
    BUFFER = "BUFFER"
    AND2 = "AND2"
    AND3 = "AND3"
    AND4 = "AND4"
    XOR2_DESTRUCTIVE = "XOR2_DESTRUCTIVE"
    XOR2_NONDESTRUCTIVE = "XOR2_NONDESTRUCTIVE"
    XOR3 = "XOR3"
    OR2 = "OR2"
    NOR2 = "NOR2"
    NAND2 = "NAND2"


@dataclass(frozen=True)
class MacroProgram:
    """A gate instance bound to concrete cells."""

    kind: GateKind
    inputs: tuple[CellId, ...]
    works: tuple[CellId, ...]
    output: CellId
    destructive_cells: tuple[CellId, ...]


def make_macro(kind: GateKind, inputs: Sequence[CellId], works: Sequence[CellId]) -> MacroProgram:
    spec = GATE_METRICS[kind]
    inputs = tuple(inputs)
    works = tuple(works)
    if len(inputs) != spec.arity:
        raise OperandError(f"{kind.value} takes {spec.arity} inputs, got {len(inputs)}")
    if len(works) != spec.works:
        raise OperandError(f"{kind.value} needs {spec.works} work cells, got {len(works)}")
    cells = inputs + works
    if len(set(cells)) != len(cells):
        raise OperandError(f"{kind.value} operand/work cells must be distinct: {cells}")
    output, destroyed = spec.meta(inputs, works)
    return MacroProgram(kind, inputs, works, output, destroyed)


def expand(macro: MacroProgram) -> list[MicroOp]:
    """Expand to the exact micro-op sequence; length equals the declared steps."""
    return GATE_METRICS[macro.kind].template(macro.inputs, macro.works)


def gate_metrics(kind: GateKind) -> GateSpec:
    return GATE_METRICS[kind]


# --- templates ------------------------------------------------------------
# Notation in comments: ' marks a rewritten cell, as in the step listings.


def _t_inverter(inp, wk):
    (a,), (q,) = inp, wk
    return [false_op(q), imply_op(a, q)]  # q = NOT a


def _t_buffer(inp, wk):
    (a,), (w, q) = inp, wk
    return [false_op(w), imply_op(a, w), false_op(q), imply_op(w, q)]  # q = a


def _t_and2(inp, wk):
    (p, q), (u, v) = inp, wk
    # (p -> (q -> 0)) -> 0
    return [false_op(u), false_op(v), imply_op(q, u), imply_op(p, u), imply_op(u, v)]


def _t_and3(inp, wk):
    (a, b, c), (u, v) = inp, wk
    return [
        false_op(u),
        false_op(v),
        imply_op(a, u),   # u' = NOT a
        imply_op(b, u),   # u'' = b -> NOT a
        imply_op(c, u),   # u''' = c -> (b -> NOT a)
        imply_op(u, v),   # v' = AND(a, b, c)
    ]


def _t_and4(inp, wk):
    (a, b, c, d), (u, v) = inp, wk
    return [
        false_op(u),
        false_op(v),
        imply_op(a, u),
        imply_op(b, u),
        imply_op(c, u),
        imply_op(u, v),   # v' = AND(a, b, c)
        false_op(u),
        imply_op(d, u),   # u' = NOT d
        imply_op(v, u),   # u'' = AND(a,b,c) -> NOT d
        false_op(v),
        imply_op(u, v),   # v' = AND(a, b, c, d)
    ]


def _t_xor2_destructive(inp, wk):
    (a, b), (s1, s2) = inp, wk
    return [
        false_op(s1),
        false_op(s2),
        imply_op(a, s1),   # s1' = NOT a
        imply_op(b, s2),   # s2' = NOT b
        imply_op(s1, s2),  # s2'' = NOT a -> NOT b
        false_op(s1),
        imply_op(s2, s1),  # s1' = NOT(NOT a -> NOT b)
        imply_op(a, b),    # b' = a -> b          (input b overwritten)
        imply_op(b, s1),   # s1'' = XOR(a, b)
    ]


def _t_xor2_nondestructive(inp, wk):
    (a, b), (s1, s2, s3) = inp, wk
    return [
        false_op(s1),
        false_op(s2),
        false_op(s3),
        imply_op(a, s1),   # s1' = NOT a
        imply_op(b, s2),   # s2' = NOT b
        imply_op(s2, s3),  # s3' = b
        imply_op(s1, s2),  # s2'' = NOT a -> NOT b
        imply_op(a, s3),   # s3'' = a -> b
        false_op(s1),
        imply_op(s2, s1),  # s1' = NOT(NOT a -> NOT b)
        imply_op(s3, s1),  # s1'' = XOR(a, b)
    ]


def _t_xor3(inp, wk):
    (a, b, c), (s1, s2, s3) = inp, wk
    # non-destructive XOR of the first two inputs, then a destructive XOR
    # folding in the third; the destroyed cell is the intermediate s1.
    ops = _t_xor2_nondestructive((a, b), (s1, s2, s3))
    ops += [
        false_op(s2),
        false_op(s3),
        imply_op(c, s2),
        imply_op(s1, s3),
        imply_op(s2, s3),
        false_op(s2),
        imply_op(s3, s2),
        imply_op(c, s1),
        imply_op(s1, s2),  # s2 = XOR(a, b, c)
    ]
    return ops


def _t_or2(inp, wk):
    (p, q), (w,) = inp, wk
    # (p -> 0) -> q, result replaces q
    return [false_op(w), imply_op(p, w), imply_op(w, q)]


def _t_nor2(inp, wk):
    (p, q), (w,) = inp, wk
    return [false_op(w), imply_op(p, w), imply_op(w, q), false_op(w), imply_op(q, w)]


def _t_nand2(inp, wk):
    (p, q), (w,) = inp, wk
    return [false_op(w), imply_op(q, w), imply_op(p, w)]


def _kernel(name: str, n_cells: int, pulses: tuple) -> Callable:
    """Generate ``kernel(c, f, operands)``: for each operand tuple, in order,
    one cell update per pulse of the template, in template order."""
    x = [f"x{i}" for i in range(n_cells)]
    body = "".join(
        f"        c[{x[q]}] = 0\n" if p == FALSE_P else f"        c[{x[q]}] = (c[{x[p]}] ^ f) | c[{x[q]}]\n"
        for p, q in pulses
    )
    source = f"def {name}(c, f, operands):\n    for {', '.join(x)}, in operands:\n{body}"
    namespace: dict = {}
    exec(compile(source, f"<{name}>", "exec"), namespace)
    return namespace[name]


@dataclass(frozen=True)
class GateSpec:
    """One gate kind: operand counts, Boolean function, micro-op template,
    output and destroyed cells, evaluated costs, and its kernel."""

    arity: int
    works: int
    func: Callable[..., int]
    template: Callable[[tuple, tuple], list[MicroOp]]
    meta: Callable[[tuple, tuple], tuple]  # (inputs, works) -> (output, destroyed)
    steps: int
    memristors: int
    energy_nj: Optional[float]  # None for kinds outside the evaluated set
    #: the template as (p, q) op tuples over operand positions, inputs first
    pulses: tuple = field(init=False, repr=False)
    #: ``kernel(cells, full, operands)`` runs the template once per operand
    #: tuple (inputs then works), in order, updating ``cells`` in place
    kernel: Callable = field(init=False, repr=False)

    def __post_init__(self):
        n = self.arity + self.works
        ops = self.template(tuple(range(self.arity)), tuple(range(self.arity, n)))
        pulses = tuple(op.as_tuple() for op in ops)
        object.__setattr__(self, "pulses", pulses)
        object.__setattr__(self, "kernel", _kernel(self.template.__name__[3:] + "_kernel", n, pulses))

    @property
    def energy_e4(self) -> int:
        """Energy in integer 1e-4 nJ units (exact accounting)."""
        if self.energy_nj is None:
            raise ValueError("no energy model for this gate kind")
        return round(self.energy_nj * 10000)

    def ops(self, operands: tuple) -> list:
        """The (p, q) op tuples of one instance on ``operands``."""
        return [(FALSE_P if p == FALSE_P else operands[p], operands[q]) for p, q in self.pulses]


#: one row per kind: arity, work cells, function, template, (output,
#: destroyed), then (steps, memristors, energy nJ) of the evaluated gate set.
#: The three plain-identity gates (OR/NOR/NAND) are implementable but have
#: no energy model because the ciphers never instantiate them.
GATE_METRICS: dict[GateKind, GateSpec] = {
    GateKind.INVERTER: GateSpec(1, 1, lambda a: 1 - a, _t_inverter, lambda i, w: (w[0], ()), 2, 2, 0.1291),
    GateKind.BUFFER: GateSpec(1, 2, lambda a: a, _t_buffer, lambda i, w: (w[1], ()), 4, 3, 0.269),
    GateKind.AND2: GateSpec(2, 2, lambda a, b: a & b, _t_and2, lambda i, w: (w[1], ()), 5, 4, 0.3833),
    GateKind.AND3: GateSpec(3, 2, lambda a, b, c: a & b & c, _t_and3, lambda i, w: (w[1], ()), 6, 5, 0.5025),
    GateKind.AND4: GateSpec(
        4, 2, lambda a, b, c, d: a & b & c & d, _t_and4, lambda i, w: (w[1], ()), 11, 6, 0.9131
    ),
    GateKind.XOR2_DESTRUCTIVE: GateSpec(
        2, 2, lambda a, b: a ^ b, _t_xor2_destructive, lambda i, w: (w[0], (i[1],)), 9, 4, 0.7426
    ),
    GateKind.XOR2_NONDESTRUCTIVE: GateSpec(
        2, 3, lambda a, b: a ^ b, _t_xor2_nondestructive, lambda i, w: (w[0], ()), 11, 5, 0.9146
    ),
    GateKind.XOR3: GateSpec(3, 3, lambda a, b, c: a ^ b ^ c, _t_xor3, lambda i, w: (w[1], ()), 20, 6, 1.711),
    GateKind.OR2: GateSpec(2, 1, lambda a, b: a | b, _t_or2, lambda i, w: (i[1], (i[1],)), 3, 3, None),
    GateKind.NOR2: GateSpec(2, 1, lambda a, b: 1 - (a | b), _t_nor2, lambda i, w: (w[0], (i[1],)), 5, 3, None),
    GateKind.NAND2: GateSpec(2, 1, lambda a, b: 1 - (a & b), _t_nand2, lambda i, w: (w[0], ()), 3, 3, None),
}



def touched_cells(macro: MacroProgram) -> set[CellId]:
    cells: set[CellId] = set()
    for op in expand(macro):
        cells.add(op.q)
        if op.p is not None:
            cells.add(op.p)
    return cells


def truth_check(kind: GateKind) -> bool:
    """Exhaustively verify the expansion against the gate's Boolean function.

    Also checks that every input cell not declared destructive is preserved.
    """
    spec = GATE_METRICS[kind]
    arity = spec.arity
    n_cells = arity + spec.works
    inputs = tuple(range(arity))
    works = tuple(range(arity, n_cells))
    macro = make_macro(kind, inputs, works)
    ops = expand(macro)
    for values in itertools.product((0, 1), repeat=arity):
        state = ArrayState.zeros(n_cells)
        for cell, v in zip(inputs, values):
            state.cells[cell] = v
        out, _ = run_program(state, ops)
        if out.bit(macro.output) != spec.func(*values):
            return False
        for cell, v in zip(inputs, values):
            if cell not in macro.destructive_cells and out.bit(cell) != v:
                return False
    return True
