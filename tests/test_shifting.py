import io
import math

import pytest
from hypothesis import given, settings, strategies as st

from implysim.engine import execute
from implysim.grain_cim import GrainSim
from implysim.programs import ShiftStage
from implysim.shifting import (
    Element,
    Mode,
    RegisterLayout,
    apply_cycle,
    count_elements,
    plan as plan_for,
    verify_polarity,
    write_csv,
)
from implysim.trivium_cim import TriviumSim

# ---------------------------------------------------------------------------
# 8-cell worked examples (cells labeled 0..7 there = positions 1..8 here).
# Each row: (input during the cycle, cells after the previous cycle's shift).

TOY_D5 = {  # taps at cells 5,6 -> positions 6,7; 5 cells between input and first tap
    "layout": RegisterLayout("toy5", 8, frozenset({6, 7})),
    "rows": [
        (1, [1, 0, 1, 1, 1, 0, 1, 0]),
        (0, [0, 0, 1, 0, 0, 1, 0, 0]),
        (1, [1, 1, 1, 0, 1, 1, 1, 1]),
        (0, [0, 0, 0, 0, 1, 1, 1, 0]),
        (0, [1, 1, 1, 1, 1, 0, 1, 0]),
        (1, [1, 0, 0, 0, 0, 1, 0, 0]),
        (1, [0, 0, 1, 1, 1, 1, 1, 1]),
        (0, [0, 1, 1, 0, 0, 0, 1, 0]),
        (1, [1, 1, 0, 0, 1, 1, 0, 0]),
        (0, [0, 0, 0, 1, 1, 0, 1, 1]),
        (1, [1, 1, 1, 1, 0, 0, 0, 0]),
        (1, [0, 0, 0, 0, 0, 1, 0, 1]),
        (None, [0, 1, 1, 1, 1, 1, 1, 1]),
    ],
}

TOY_D6 = {  # taps at cells 6,7 -> positions 7,8; 6 cells between input and first tap
    "layout": RegisterLayout("toy6", 8, frozenset({7, 8})),
    "rows": [
        (1, [1, 0, 1, 1, 1, 0, 1, 0]),
        (0, [0, 0, 1, 0, 0, 0, 0, 1]),
        (1, [1, 1, 1, 0, 1, 1, 1, 0]),
        (0, [0, 0, 0, 0, 1, 0, 1, 1]),
        (0, [1, 1, 1, 1, 1, 0, 1, 1]),
        (1, [1, 0, 0, 0, 0, 0, 0, 1]),
        (1, [0, 0, 1, 1, 1, 1, 1, 0]),
        (0, [0, 1, 1, 0, 0, 0, 1, 1]),
        (1, [1, 1, 0, 0, 1, 1, 0, 1]),
        (0, [0, 0, 0, 1, 1, 0, 1, 0]),
        (1, [1, 1, 1, 1, 0, 0, 0, 1]),
        (1, [0, 0, 0, 0, 0, 1, 0, 0]),
        (None, [0, 1, 1, 1, 1, 1, 1, 0]),
    ],
}


@pytest.mark.parametrize("toy", [TOY_D5, TOY_D6], ids=["distance5", "distance6"])
def test_toy_register_stored_bits_match_worked_example(toy):
    layout = toy["layout"]
    rows = toy["rows"]
    plan = plan_for(layout, Mode.PROPOSED)
    stored = list(rows[0][1])
    for t in range(1, len(rows)):
        stored = apply_cycle(stored, rows[t - 1][0], plan.elements(t))
        assert stored == rows[t][1], f"cycle {t}"


def _window_totals(length, taps, cycles):
    """Element totals derived straight from the distance rule (test oracle).

    Transfers into in-group taps are always buffers; a group-head at
    distance d alternates buffer/inverter for d cycles then settles on a
    buffer iff d is even; everything else is a fixed inverter.
    """
    heads = {}
    in_group = 0
    for t in sorted(taps):
        if t - 1 in taps:
            in_group += 1
        else:
            below = [x for x in taps if x < t]
            src = max(below) if below else 0
            heads[t] = t - src - 1
    buffers = in_group * cycles
    for d in heads.values():
        window = min(cycles, d)
        buffers += math.ceil(window / 2)
        if d % 2 == 0:
            buffers += max(0, cycles - d)
    total = length * cycles
    return buffers, total - buffers


TRIVIUM_EXPECT = {
    # steady-start cycle, steady per-cycle census, cumulative init totals
    "A": (67, (3, 90), (3499, 103637)),
    "B": (69, (4, 80), (4572, 92196)),
    "C": (67, (3, 108), (3490, 124382)),
}


@pytest.mark.parametrize("name", ["A", "B", "C"])
def test_trivium_plan_census(name):
    layout = TriviumSim.LAYOUTS[name]
    plan = plan_for(layout, Mode.PROPOSED)
    steady_from, steady, totals = TRIVIUM_EXPECT[name]
    assert plan.census(1152) == steady
    assert plan.census(steady_from) == steady
    assert count_elements(plan, 1, 1152) == totals
    assert count_elements(plan, 1, 1152) == _window_totals(layout.length, layout.taps, 1152)
    assert verify_polarity(plan, layout, 1152)


def test_trivium_register_a_transition_ranges():
    # transitional ranges: cycles 1-2 -> 7 buffers/179 inverters,
    # 3-22 -> 80/1780, 23-66 -> 154/3938, 67 on -> 3/90 per cycle
    plan = plan_for(TriviumSim.LAYOUTS["A"], Mode.PROPOSED)
    assert count_elements(plan, 1, 2) == (7, 179)
    assert count_elements(plan, 3, 22) == (80, 1780)
    assert count_elements(plan, 23, 66) == (154, 3938)
    assert plan.census(67) == (3, 90)


def test_trivium_all_register_steady_totals():
    # one cycle of all three registers: 10 buffers + 278 inverters = 288
    # transfers, 596 shift steps
    totals = [plan_for(TriviumSim.LAYOUTS[n], Mode.PROPOSED).census(1200) for n in "ABC"]
    buffers = sum(b for b, _ in totals)
    inverters = sum(i for _, i in totals)
    assert (buffers, inverters) == (10, 278)
    assert buffers * 4 + inverters * 2 == 596


GRAIN_EXPECT = {
    "LFSR": ((6, 122), (1573, 31195)),
    # the published pre-init totals for the NFSR (5118 buffers) are the plan
    # with tap b96 left out; holding b96 at true polarity carries +32 buffers /
    # -32 inverters (see the window-formula oracle)
    "NFSR": ((20, 108), (5150, 27618)),
}


@pytest.mark.parametrize("name", ["LFSR", "NFSR"])
def test_grain_plan_census(name):
    layout = GrainSim.LAYOUTS[name]
    plan = plan_for(layout, Mode.PROPOSED)
    steady, totals = GRAIN_EXPECT[name]
    assert plan.census(256) == steady
    assert plan.census(35) == steady
    assert count_elements(plan, 1, 256) == totals
    assert count_elements(plan, 1, 256) == _window_totals(layout.length, layout.taps, 256)
    assert verify_polarity(plan, layout, 256)


def test_conventional_plans_are_all_buffers():
    for layout in (*TriviumSim.LAYOUTS.values(), *GrainSim.LAYOUTS.values()):
        plan = plan_for(layout, Mode.CONVENTIONAL)
        for t in (1, 5, 10):
            assert plan.census(t) == (layout.length, 0)
        assert verify_polarity(plan, layout, 10)


def test_trivium_conventional_per_cycle_is_288_buffers():
    buffers = sum(
        plan_for(TriviumSim.LAYOUTS[n], Mode.CONVENTIONAL).census(1)[0] for n in "ABC"
    )
    assert buffers == 288
    assert buffers * 4 == 1152


def test_mutating_tap_pair_transfer_breaks_polarity():
    layout = TriviumSim.LAYOUTS["A"]
    plan = plan_for(layout, Mode.PROPOSED)
    assert verify_polarity(plan, layout, 200)
    # transfer into position 92 comes from tap 91; forcing an inverter
    # complements a consumed cell
    bad = plan.with_element(100, 92, Element.INVERTER)
    assert not verify_polarity(bad, layout, 200)


def test_mutating_free_transfer_also_caught():
    layout = GrainSim.LAYOUTS["LFSR"]
    plan = plan_for(layout, Mode.PROPOSED)
    bad = plan.with_element(50, 2, Element.BUFFER)  # parity wave reaches a tap later
    assert not verify_polarity(bad, layout, 100)


@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
def test_with_element_rejects_cycle_zero(mode):
    # the proposed plan has a transitional prefix, the conventional one none
    plan = plan_for(TriviumSim.LAYOUTS["A"], mode)
    assert bool(plan.prefix) == (mode is Mode.PROPOSED)
    with pytest.raises(ValueError, match="1-based"):
        plan.with_element(0, 1, Element.INVERTER)


def test_plan_csv_dump():
    layout = RegisterLayout("toy", 3, frozenset({3}))
    plan = plan_for(layout, Mode.PROPOSED)
    buf = io.StringIO()
    write_csv(plan, buf, 1)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "cycle,transfer_from,transfer_to,element"
    assert lines[1] == "1,input,1,inverter"
    assert len(lines) == 4


@st.composite
def layouts(draw):
    n = draw(st.integers(min_value=3, max_value=20))
    taps = draw(st.sets(st.integers(1, n), max_size=n))
    return RegisterLayout("fuzz", n, frozenset(taps))


@settings(max_examples=60, deadline=None)
@given(layouts(), st.randoms(use_true_random=False))
def test_proposed_plan_preserves_logical_values_under_macro_execution(layout, rnd):
    """Run the plan through actual buffer/inverter micro-ops and compare
    against a plain software shift register: taps must match exactly, and
    every other cell must match through its parity."""
    n = layout.length
    cycles = 2 * n + 4
    plan = plan_for(layout, Mode.PROPOSED)
    assert verify_polarity(plan, layout, cycles)

    init = [rnd.randint(0, 1) for _ in range(n)]
    inputs = [rnd.randint(0, 1) for _ in range(cycles)]
    cells = tuple(range(n))
    src, scratch = n, n + 1
    state = init + [0, 0]

    logical = list(init)
    parity = [0] * (n + 1)
    for t in range(1, cycles + 1):
        elems = plan.elements(t)
        state[src] = inputs[t - 1]
        execute(state, 1, ShiftStage(cells, src, scratch, bytes(elems)).ops)
        logical = [inputs[t - 1]] + logical[:-1]
        new_parity = [0] * (n + 1)
        for m in range(1, n + 1):
            new_parity[m] = parity[m - 1] ^ int(elems[m - 1])
        parity = new_parity
        for pos in range(1, n + 1):
            expected = logical[pos - 1] ^ parity[pos]
            assert state[pos - 1] == expected
            if pos in layout.taps:
                assert parity[pos] == 0


@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
@pytest.mark.parametrize(
    "layout", [*TriviumSim.LAYOUTS.values(), *GrainSim.LAYOUTS.values()], ids=lambda l: l.name
)
def test_plan_to_fixed_point_within_register_length(layout, mode):
    plan = plan_for(layout, mode)
    assert len(plan.prefix) <= layout.length
    # the steady row keeps every tap at true polarity far past the fixed point
    assert verify_polarity(plan, layout, 4 * layout.length)


def _nested_loop_plan(layout, mode):
    """The planner's former per-position list walk (test reference): the
    transitional rows and the steady row, each a tuple of ``Element``."""
    n, taps = layout.length, layout.taps
    free = Element.INVERTER if mode is Mode.PROPOSED else Element.BUFFER
    pi = [0] * (n + 1)  # pi[0]: injected values are always true polarity
    prefix = []
    for _ in range(n + 1):
        elems = []
        new_pi = [0] * (n + 1)
        for m in range(1, n + 1):
            src = pi[m - 1]
            e = (Element.INVERTER if src else Element.BUFFER) if m in taps else free
            new_pi[m] = src ^ int(e)
            elems.append(e)
        if new_pi == pi:
            return prefix, tuple(elems)
        prefix.append(tuple(elems))
        pi = new_pi
    raise AssertionError("no parity fixed point")


def _assert_rows_match_the_nested_loop_walk(layout, mode):
    plan = plan_for(layout, mode)
    prefix, steady = _nested_loop_plan(layout, mode)
    assert plan.prefix == tuple(bytes(row) for row in prefix)
    assert plan.steady == bytes(steady)


CIPHER_LAYOUTS = [*TriviumSim.LAYOUTS.values(), *GrainSim.LAYOUTS.values()]


@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
@pytest.mark.parametrize("layout", CIPHER_LAYOUTS, ids=lambda l: l.name)
def test_plan_rows_match_the_nested_loop_walk(layout, mode):
    _assert_rows_match_the_nested_loop_walk(layout, mode)


@settings(max_examples=100, deadline=None)
@given(layouts(), st.sampled_from(list(Mode)))
def test_plan_rows_match_the_nested_loop_walk_on_random_layouts(layout, mode):
    _assert_rows_match_the_nested_loop_walk(layout, mode)


#: distinct rows per proposed plan; a conventional plan has one (all buffers)
DISTINCT_PROPOSED_ROWS = {"A": 4, "B": 4, "C": 4, "LFSR": 10, "NFSR": 8}


@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
@pytest.mark.parametrize("layout", CIPHER_LAYOUTS, ids=lambda l: l.name)
def test_plan_shares_one_bytes_object_per_distinct_row(layout, mode):
    plan = plan_for(layout, mode)
    rows = (*plan.prefix, plan.steady)
    assert all(type(row) is bytes for row in rows)
    expected = DISTINCT_PROPOSED_ROWS[layout.name] if mode is Mode.PROPOSED else 1
    assert len({id(row) for row in rows}) == len(set(rows)) == expected
