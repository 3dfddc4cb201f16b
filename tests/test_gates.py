import itertools
import random

import pytest

from implysim.engine import ArrayState, OperandError, execute, run_program
from implysim.gates import (
    GATE_METRICS,
    GateKind,
    expand,
    gate_metrics,
    make_macro,
    touched_cells,
    truth_check,
)

# the evaluated gate set: (steps, memristors, energy nJ)
EVALUATED = {
    GateKind.INVERTER: (2, 2, 0.1291),
    GateKind.BUFFER: (4, 3, 0.269),
    GateKind.AND2: (5, 4, 0.3833),
    GateKind.AND3: (6, 5, 0.5025),
    GateKind.AND4: (11, 6, 0.9131),
    GateKind.XOR2_DESTRUCTIVE: (9, 4, 0.7426),
    GateKind.XOR2_NONDESTRUCTIVE: (11, 5, 0.9146),
    GateKind.XOR3: (20, 6, 1.711),
}

ARITY = {
    GateKind.INVERTER: 1,
    GateKind.BUFFER: 1,
    GateKind.AND2: 2,
    GateKind.AND3: 3,
    GateKind.AND4: 4,
    GateKind.XOR2_DESTRUCTIVE: 2,
    GateKind.XOR2_NONDESTRUCTIVE: 2,
    GateKind.XOR3: 3,
    GateKind.OR2: 2,
    GateKind.NOR2: 2,
    GateKind.NAND2: 2,
}

WORKS = {
    GateKind.INVERTER: 1,
    GateKind.BUFFER: 2,
    GateKind.AND2: 2,
    GateKind.AND3: 2,
    GateKind.AND4: 2,
    GateKind.XOR2_DESTRUCTIVE: 2,
    GateKind.XOR2_NONDESTRUCTIVE: 3,
    GateKind.XOR3: 3,
    GateKind.OR2: 1,
    GateKind.NOR2: 1,
    GateKind.NAND2: 1,
}


def _macro(kind):
    a = ARITY[kind]
    return make_macro(kind, tuple(range(a)), tuple(range(a, a + WORKS[kind])))


@pytest.mark.parametrize("kind,expected", sorted(EVALUATED.items(), key=lambda kv: kv[0].value))
def test_metrics_match_evaluated_table(kind, expected):
    m = gate_metrics(kind)
    assert (m.steps, m.memristors, m.energy_nj) == expected


@pytest.mark.parametrize("kind", list(GateKind), ids=lambda k: k.value)
def test_expansion_length_equals_declared_steps(kind):
    assert len(expand(_macro(kind))) == gate_metrics(kind).steps


@pytest.mark.parametrize("kind", list(GateKind), ids=lambda k: k.value)
def test_touched_cells_equal_declared_memristors(kind):
    assert len(touched_cells(_macro(kind))) == gate_metrics(kind).memristors


@pytest.mark.parametrize("kind", list(GateKind), ids=lambda k: k.value)
def test_truth_check_exhaustive(kind):
    assert truth_check(kind)


def test_and3_on_all_ones_yields_one():
    macro = _macro(GateKind.AND3)
    state = ArrayState.from_bits([1, 1, 1, 0, 0])
    out, stats = run_program(state, expand(macro))
    assert out.bit(macro.output) == 1
    assert stats.steps == 6


def test_xor2_nondestructive_preserves_both_inputs():
    macro = _macro(GateKind.XOR2_NONDESTRUCTIVE)
    state = ArrayState.from_bits([1, 1, 0, 0, 0])
    out, _ = run_program(state, expand(macro))
    assert out.bit(macro.output) == 0
    assert out.bit(0) == 1 and out.bit(1) == 1


def test_xor2_destructive_destroys_exactly_second_input():
    macro = _macro(GateKind.XOR2_DESTRUCTIVE)
    assert macro.destructive_cells == (1,)
    for a, b in itertools.product((0, 1), repeat=2):
        state = ArrayState.from_bits([a, b, 0, 0])
        out, _ = run_program(state, expand(macro))
        assert out.bit(0) == a
        assert out.bit(1) == (1 - a) | b  # b' = a -> b


def test_xor3_is_nondestructive_then_destructive_composition():
    # 11-step non-destructive stage then 9-step fold, 20 steps total
    macro = _macro(GateKind.XOR3)
    ops = expand(macro)
    assert len(ops) == 20
    for values in itertools.product((0, 1), repeat=3):
        state = ArrayState.from_bits(list(values) + [0, 0, 0])
        out, _ = run_program(state, ops)
        assert out.bit(macro.output) == values[0] ^ values[1] ^ values[2]
        assert [out.bit(i) for i in range(3)] == list(values)


def test_or2_matches_imply_identity():
    # (p -> 0) -> q over all four inputs
    macro = _macro(GateKind.OR2)
    for p, q in itertools.product((0, 1), repeat=2):
        state = ArrayState.from_bits([p, q, 0])
        out, _ = run_program(state, expand(macro))
        assert out.bit(macro.output) == p | q


def test_buffer_copies_and_inverter_negates():
    buf = make_macro(GateKind.BUFFER, (0,), (1, 2))
    inv = make_macro(GateKind.INVERTER, (0,), (1,))
    for v in (0, 1):
        out, _ = run_program(ArrayState.from_bits([v, 1, 1]), expand(buf))
        assert out.bit(buf.output) == v
        out, _ = run_program(ArrayState.from_bits([v, 1]), expand(inv))
        assert out.bit(inv.output) == 1 - v


def test_aliased_cells_rejected():
    with pytest.raises(OperandError):
        make_macro(GateKind.AND2, (0, 1), (1, 2))
    with pytest.raises(OperandError):
        make_macro(GateKind.XOR2_DESTRUCTIVE, (0, 0), (1, 2))
    with pytest.raises(OperandError):
        make_macro(GateKind.AND2, (0, 1), (2,))


def test_every_kind_has_exactly_one_metrics_row():
    assert set(GATE_METRICS) == set(GateKind)


def test_buffer_template_is_two_inverters():
    # the program builder runs a buffer as these two inverter halves
    buf = make_macro(GateKind.BUFFER, (0,), (1, 2))
    first = make_macro(GateKind.INVERTER, (0,), (1,))
    second = make_macro(GateKind.INVERTER, (1,), (2,))
    assert expand(buf) == expand(first) + expand(second)


@pytest.mark.parametrize("width", [1, 64])
@pytest.mark.parametrize("kind", list(GateKind), ids=lambda k: k.value)
def test_kernel_matches_interpreter(kind, width):
    rng = random.Random(f"{kind.value}-{width}")
    spec = GATE_METRICS[kind]
    n_cells = 12
    # instances may share cells with one another, never within one
    operands = [tuple(rng.sample(range(n_cells), spec.arity + spec.works)) for _ in range(20)]
    cells = [rng.getrandbits(width) for _ in range(n_cells)]
    expected = list(cells)
    ops = [op.as_tuple() for x in operands for op in expand(make_macro(kind, x[: spec.arity], x[spec.arity :]))]
    execute(expected, (1 << width) - 1, ops)
    spec.kernel(cells, (1 << width) - 1, operands)
    assert cells == expected
