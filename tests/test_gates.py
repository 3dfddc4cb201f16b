import itertools
import random

import pytest

from implysim.engine import FALSE_P, OperandError, execute
from implysim.gates import GATE_METRICS, GateKind, truth_check
from implysim.programs import ProgramBuilder

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


def _run(kind, values):
    """The gate's pulses on cells holding ``values``, inputs then works."""
    cells = list(values)
    steps = execute(cells, 1, GATE_METRICS[kind].pulses)
    return cells, steps


@pytest.mark.parametrize("kind,expected", sorted(EVALUATED.items(), key=lambda kv: kv[0].value))
def test_metrics_match_evaluated_table(kind, expected):
    m = GATE_METRICS[kind]
    assert (m.steps, m.memristors, m.energy_nj) == expected


@pytest.mark.parametrize("kind", list(GateKind), ids=lambda k: k.value)
def test_expansion_length_equals_declared_steps(kind):
    spec = GATE_METRICS[kind]
    operands = tuple(range(10, 10 + spec.arity + spec.works))
    assert len(spec.pulses) == len(spec.ops(operands)) == EVALUATED[kind][0]


@pytest.mark.parametrize("kind", list(GateKind), ids=lambda k: k.value)
def test_pulses_touch_declared_memristors(kind):
    spec = GATE_METRICS[kind]
    touched = {q for _p, q in spec.pulses} | {p for p, _q in spec.pulses if p != FALSE_P}
    assert len(touched) == EVALUATED[kind][1]
    assert touched == set(range(spec.arity + spec.works))


@pytest.mark.parametrize("kind", list(GateKind), ids=lambda k: k.value)
def test_truth_check_exhaustive(kind):
    assert truth_check(kind)


def test_and3_on_all_ones_yields_one():
    cells, steps = _run(GateKind.AND3, [1, 1, 1, 0, 0])
    assert cells[GATE_METRICS[GateKind.AND3].out] == 1
    assert steps == 6


def test_xor2_nondestructive_preserves_both_inputs():
    cells, _ = _run(GateKind.XOR2_NONDESTRUCTIVE, [1, 1, 0, 0, 0])
    assert cells[GATE_METRICS[GateKind.XOR2_NONDESTRUCTIVE].out] == 0
    assert cells[0] == 1 and cells[1] == 1


def test_xor2_destructive_destroys_exactly_second_input():
    spec = GATE_METRICS[GateKind.XOR2_DESTRUCTIVE]
    assert spec.destroyed == (1,)
    for a, b in itertools.product((0, 1), repeat=2):
        cells, _ = _run(GateKind.XOR2_DESTRUCTIVE, [a, b, 0, 0])
        assert cells[0] == a
        assert cells[1] == (1 - a) | b  # b' = a -> b


def test_xor3_is_nondestructive_then_destructive_composition():
    # 11-step non-destructive stage into s1, then the 9-step destructive
    # fold of c into s1 with s2, s3 as work cells: 20 steps total
    spec = GATE_METRICS[GateKind.XOR3]
    a, b, c, s1, s2, s3 = range(6)
    assert spec.pulses == tuple(
        GATE_METRICS[GateKind.XOR2_NONDESTRUCTIVE].ops((a, b, s1, s2, s3))
        + GATE_METRICS[GateKind.XOR2_DESTRUCTIVE].ops((c, s1, s2, s3))
    )
    assert len(spec.pulses) == 20
    for values in itertools.product((0, 1), repeat=3):
        cells, _ = _run(GateKind.XOR3, list(values) + [0, 0, 0])
        assert cells[spec.out] == values[0] ^ values[1] ^ values[2]
        assert cells[:3] == list(values)


def test_buffer_copies_and_inverter_negates():
    for v in (0, 1):
        cells, _ = _run(GateKind.BUFFER, [v, 1, 1])
        assert cells[GATE_METRICS[GateKind.BUFFER].out] == v
        cells, _ = _run(GateKind.INVERTER, [v, 1])
        assert cells[GATE_METRICS[GateKind.INVERTER].out] == 1 - v


def test_or2_matches_imply_identity():
    # (p -> 0) -> q, written as pulses on p, q and a work cell w
    for p, q in itertools.product((0, 1), repeat=2):
        cells = [p, q, 1]
        execute(cells, 1, [(FALSE_P, 2), (0, 2), (2, 1)])
        assert cells[:2] == [p, p | q]


def test_aliased_cells_rejected():
    pb = ProgramBuilder()
    with pytest.raises(OperandError):
        pb.gate(GateKind.AND2, (0, 1), (1, 2))
    with pytest.raises(OperandError):
        pb.gate(GateKind.XOR2_DESTRUCTIVE, (0, 0), (1, 2))
    with pytest.raises(OperandError):
        pb.gate(GateKind.AND2, (0, 1), (2,))
    with pytest.raises(OperandError):
        pb.gate(GateKind.AND3, (0, 1), (2, 3))


def test_every_kind_has_exactly_one_metrics_row():
    assert set(GATE_METRICS) == set(GateKind)


def test_buffer_template_is_two_inverters():
    # a shift stage's buffer pulses are these two inverter halves
    inv = GATE_METRICS[GateKind.INVERTER]
    assert GATE_METRICS[GateKind.BUFFER].ops((0, 1, 2)) == inv.ops((0, 1)) + inv.ops((1, 2))


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
    ops = [op for x in operands for op in spec.ops(x)]
    execute(expected, (1 << width) - 1, ops)
    spec.kernel(cells, (1 << width) - 1, operands)
    assert cells == expected
