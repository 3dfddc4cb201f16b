import io

import pytest
from hypothesis import given, strategies as st

from implysim.engine import FALSE_P, CsvTrace, LayoutError, OperandError, execute
from implysim.gates import GATE_METRICS, GateKind, GateSpec
from implysim.programs import ProgramBuilder


def test_imply_truth_table_exhaustive():
    # q := p IMPLY q, false only for (1, 0)
    expected = {(0, 0): 1, (0, 1): 1, (1, 0): 0, (1, 1): 1}
    for (p, q), want in expected.items():
        cells = [p, q]
        execute(cells, 1, [(0, 1)])
        assert cells[1] == want
        assert cells[0] == p  # p unchanged


def test_false_resets_and_is_idempotent():
    cells = [1]
    execute(cells, 1, [(FALSE_P, 0)])
    assert cells == [0]
    execute(cells, 1, [(FALSE_P, 0)])
    assert cells == [0]


def test_false_composition_clears_array(rng):
    cells = [rng.randint(0, 1) for _ in range(8)]
    steps = execute(cells, 1, [(FALSE_P, i) for i in range(8)])
    assert cells == [0] * 8
    assert steps == 8


def test_empty_program_is_identity(rng):
    bits = [rng.randint(0, 1) for _ in range(5)]
    cells = list(bits)
    steps = execute(cells, 1, [])
    assert cells == bits
    assert steps == 0


def test_errors():
    inv = GATE_METRICS[GateKind.INVERTER]

    def row(pulses):
        return GateSpec(GateKind.INVERTER, 1, 1, inv.func, pulses, 1, (), inv.energy_nj)

    # a gate row's IMPLY pulse on one cell, or a pulse outside its operands
    with pytest.raises(OperandError):
        row(((FALSE_P, 1), (1, 1)))
    with pytest.raises(LayoutError):
        row(((FALSE_P, 2), (0, 1)))
    with pytest.raises(LayoutError):
        row(((FALSE_P, 1), (5, 1)))
    # a gate instance on aliased cells
    with pytest.raises(OperandError):
        ProgramBuilder().gate(GateKind.INVERTER, (3,), (3,))


def test_invalid_op_leaves_input_untouched():
    pb = ProgramBuilder()
    pb.gate(GateKind.AND2, (0, 1), (2, 3), "t")
    before = pb.compiled()
    with pytest.raises(OperandError):
        pb.gate(GateKind.XOR2_DESTRUCTIVE, (4, 4), (5, 6), "t")
    with pytest.raises(OperandError):
        pb.gate(GateKind.AND2, (4, 5), (6,), "t")
    # a rejected gate adds no pulse, run or census entry to the cycle
    after = pb.compiled()
    assert (after.runs, after.census, after.steps) == (before.runs, before.census, before.steps)


def test_not_via_false_then_imply():
    # NOT p realized as p -> 0 into a cleared cell
    cells = [1, 1]
    steps = execute(cells, 1, [(FALSE_P, 1), (0, 1)])
    assert cells[1] == 0
    assert steps == 2


def test_destructive_xor_sequence_hand_traced():
    # 9-op destructive XOR on (a=1, b=0): cells a,b,s1,s2
    a, b, s1, s2 = 0, 1, 2, 3
    ops = [
        (FALSE_P, s1),
        (FALSE_P, s2),
        (a, s1),
        (b, s2),
        (s1, s2),
        (FALSE_P, s1),
        (s2, s1),
        (a, b),
        (b, s1),
    ]
    cells = [1, 0, 0, 0]
    steps = execute(cells, 1, ops)
    assert cells[s1] == 1  # 1 XOR 0
    assert steps == 9


@st.composite
def state_and_ops(draw):
    n = draw(st.integers(min_value=2, max_value=12))
    bits = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    n_ops = draw(st.integers(min_value=0, max_value=30))
    ops = []
    for _ in range(n_ops):
        q = draw(st.integers(0, n - 1))
        if draw(st.booleans()):
            ops.append((FALSE_P, q))
        else:
            p = draw(st.integers(0, n - 1).filter(lambda x: x != q))
            ops.append((p, q))
    return bits, ops


@given(state_and_ops())
def test_frame_property_each_op_touches_only_its_target(case):
    bits, ops = case
    cells = list(bits)
    for op in ops:
        before = list(cells)
        execute(cells, 1, [op])
        for i in range(len(cells)):
            if i != op[1]:
                assert cells[i] == before[i]


@given(state_and_ops())
def test_execute_deterministic_and_counts_steps(case):
    bits, ops = case
    out1, out2 = list(bits), list(bits)
    steps1 = execute(out1, 1, ops)
    steps2 = execute(out2, 1, ops)
    assert out1 == out2
    assert steps1 == steps2 == len(ops)


def test_vectorized_lanes_match_scalar(rng):
    # 16 lanes in one row vs 16 scalar runs under the same op sequence
    width = 16
    n = 6
    lanes = [[rng.randint(0, 1) for _ in range(n)] for _ in range(width)]
    ops = [(FALSE_P, 3), (0, 3), (1, 2), (FALSE_P, 5), (2, 5)]
    packed = [sum(lanes[w][i] << w for w in range(width)) for i in range(n)]
    execute(packed, (1 << width) - 1, ops)
    for w in range(width):
        scalar = list(lanes[w])
        execute(scalar, 1, ops)
        assert [(packed[i] >> w) & 1 for i in range(n)] == scalar


def test_csv_trace_lines():
    buf = io.StringIO()
    execute([1, 0], 1, [(FALSE_P, 1), (0, 1)], trace=CsvTrace(buf))
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "step_index,kind,p,q,resulting_bit"
    assert lines[1] == "0,FALSE,,1,0"
    assert lines[2] == "1,IMPLY,0,1,0"
