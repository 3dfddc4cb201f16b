"""Bivium-B's figures as the generic core derives them from its netlist
(``tests/ciphers.py``): taps, plans and costs of a cipher with no code in
``src/``.  Its oracle, runner, differential and proof tests run with every
other cipher's, over ``ciphers.ORACLES``."""

import pytest

from ciphers import BIVIUM_INIT_CYCLES, BiviumSim
from implysim.gates import GateKind
from implysim.programs import programs_for
from implysim.shifting import Mode, plan, verify_polarity


def test_taps_derived_from_the_logic():
    taps = {name: set(layout.taps) for name, layout in BiviumSim.LAYOUTS.items()}
    assert taps == {"A": {66, 69, 91, 92, 93}, "B": {69, 78, 82, 83, 84}}
    assert [layout.length for layout in BiviumSim.LAYOUTS.values()] == [93, 84]


# 73 logic steps per keystream cycle (two 23-step register blocks, 9 for the
# output, 18 for the two inputs) plus the shifts: 177 buffers conventional,
# (3, 90) and (4, 80) buffers and inverters proposed: 73 + 177 * 4 = 781
# and 73 + (3 * 4 + 90 * 2) + (4 * 4 + 80 * 2) = 441
@pytest.mark.parametrize("mode,steady_from,init_steps,steps_per_bit,steady_census", [
    (Mode.CONVENTIONAL, 1, 546_576, 781, {"A": (93, 0), "B": (84, 0)}),
    (Mode.PROPOSED, 69, 305_870, 441, {"A": (3, 90), "B": (4, 80)}),
], ids=["conventional", "proposed"])
def test_costs_are_pinned(mode, steady_from, init_steps, steps_per_bit, steady_census):
    programs = programs_for(BiviumSim, mode)
    assert programs.steady_from == steady_from
    assert programs.cost(1, BIVIUM_INIT_CYCLES).steps == init_steps
    first = BIVIUM_INIT_CYCLES + 1
    assert programs.cost(first, first + 9).steps == 10 * steps_per_bit
    census = dict(programs.program(first).census)
    assert census[(GateKind.XOR2_DESTRUCTIVE, None)] == 7 and census[(GateKind.AND2, None)] == 2
    for name, layout in BiviumSim.LAYOUTS.items():
        register_plan = plan(layout, mode)
        assert register_plan.census(first) == steady_census[name]
        assert verify_polarity(register_plan, layout, 2 * layout.length)
