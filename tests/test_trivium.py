import pytest

from conftest import random_bits
from implysim import costs
from implysim.gates import GateKind
from implysim.reference import InputError
from implysim.shifting import Mode
from implysim.trivium_cim import (
    INIT_CYCLES,
    MEMRISTORS_ALLOCATED,
    MEMRISTORS_REPORTED,
    TriviumSim,
    a,
    b,
    c,
)


def test_load_key_iv_placement():
    key = [1] * 80
    iv = [0] * 80
    cells = TriviumSim.load_key_iv(key, iv)
    assert all(cells[a(i)] == 1 for i in range(1, 81))
    assert all(cells[a(i)] == 0 for i in range(81, 94))
    iv2 = [0] * 80
    iv2[0] = 1
    cells = TriviumSim.load_key_iv([0] * 80, iv2)
    assert cells[b(1)] == 1
    assert sum(cells[b(i)] for i in range(1, 85)) == 1
    assert [cells[c(i)] for i in (109, 110, 111)] == [1, 1, 1]


def test_direct_load_checks_entries_width_and_row_length():
    # a direct call must not mask a non-bit entry down to a valid one
    with pytest.raises(InputError, match="key and iv entries"):
        TriviumSim.load_key_iv([2] * 80, [0] * 80)
    with pytest.raises(ValueError, match="width must be >= 1"):
        TriviumSim.load_key_iv([0] * 80, [0] * 80, width=0)
    assert len(TriviumSim.load_key_iv([0] * 80, [0] * 80)) == MEMRISTORS_ALLOCATED
    # lanes: each entry is a mask; the constants are set in every lane
    cells = TriviumSim.load_key_iv([3] * 80, [1] * 80, width=2)
    assert [cells[a(1)], cells[a(80)], cells[a(81)]] == [3, 3, 0]
    assert [cells[b(1)], cells[b(80)], cells[b(81)]] == [1, 1, 0]
    assert [cells[c(i)] for i in (108, 109, 110, 111)] == [0, 3, 3, 3]


def test_taps_derived_from_the_logic():
    # the register positions the cycle logic reads, in both phases
    taps = {name: set(layout.taps) for name, layout in TriviumSim.LAYOUTS.items()}
    assert taps == {
        "A": {66, 69, 91, 92, 93},
        "B": {69, 78, 82, 83, 84},
        "C": {66, 87, 109, 110, 111},
    }
    assert [layout.length for layout in TriviumSim.LAYOUTS.values()] == [93, 84, 111]


def test_memristor_budget():
    assert MEMRISTORS_ALLOCATED == 294  # 288 register + 5 work + 1 output
    assert MEMRISTORS_REPORTED == 293


def test_init_phase_step_total_and_census(rng):
    sim = TriviumSim(random_bits(rng, 80), random_bits(rng, 80), Mode.PROPOSED)
    sim.run_init()
    assert sim.init.steps == 797266
    counts = {}
    for (kind, tag), n in sim.init.census.items():
        counts[(kind, tag)] = n
    # logic census: 9 destructive XOR2 and 3 AND2 per cycle
    assert counts[(GateKind.XOR2_DESTRUCTIVE, None)] == 9 * INIT_CYCLES
    assert counts[(GateKind.AND2, None)] == 3 * INIT_CYCLES
    # per-register shift censuses
    assert counts[(GateKind.BUFFER, "A")] == 3499
    assert counts[(GateKind.INVERTER, "A")] == 103637
    assert counts[(GateKind.BUFFER, "B")] == 4572
    assert counts[(GateKind.INVERTER, "B")] == 92196
    assert counts[(GateKind.BUFFER, "C")] == 3490
    assert counts[(GateKind.INVERTER, "C")] == 124382


def test_steady_init_cycle_cost_derived_from_element_costs(rng):
    # steady-state shift census per cycle is (3,90)/(4,80)/(3,108); one init
    # cycle is then 96 logic steps plus the element costs
    expected = 96 + sum(bf * 4 + inv * 2 for bf, inv in ((3, 90), (4, 80), (3, 108)))
    assert expected == 692
    sim = TriviumSim(random_bits(rng, 80), random_bits(rng, 80), Mode.PROPOSED)
    for _ in range(100):
        delta, z = sim.step_cycle()
        assert z is None
    assert delta.steps == expected


def test_keystream_cycle_costs(rng):
    key, iv = random_bits(rng, 80), random_bits(rng, 80)
    sim = TriviumSim(key, iv, Mode.PROPOSED)
    sim.run_init()
    delta, z = sim.step_cycle()
    assert delta.steps == 710
    assert z in (0, 1)
    logic = {k: n for (k, t), n in delta.census.items() if t is None}
    assert logic == {GateKind.XOR2_DESTRUCTIVE: 11, GateKind.AND2: 3}
    # marginal energy: 47.8983 nJ exactly
    report = costs.aggregate(sim)
    assert report.keystream.energy_e4 == 478983

    conv = TriviumSim(key, iv, Mode.CONVENTIONAL)
    conv.run_init()
    delta, _ = conv.step_cycle()
    assert delta.steps == 114 + 288 * 4  # 1266: logic plus buffered shifts


def test_logic_stage_preserves_all_register_cells_but_expiring_ones(rng):
    sim = TriviumSim(random_bits(rng, 80), random_bits(rng, 80), Mode.PROPOSED)
    sim.keystream(3)  # reach keystream phase, steady plans
    prog = sim._programs.program(sim.cycle + 1)
    before = list(sim.cells)
    cells = list(sim.cells)
    from implysim.engine import execute

    execute(cells, 1, prog.ops[: 114])  # logic stage only
    expiring = {a(93), b(84), c(111)}
    for i in range(288):  # register cells
        if i not in expiring:
            assert cells[i] == before[i], f"cell {i} changed during logic"
