import pytest

from conftest import lanes_to_masks, masks_to_lane, random_bits
from implysim import costs
from implysim.gates import GateKind
from implysim.grain_cim import (
    MEMRISTORS_KEYSTREAM,
    MEMRISTORS_PREINIT,
    PREINIT_CYCLES,
    GrainSim,
    b,
    s,
)
from implysim.reference import InputError, grain128a_ref
from implysim.shifting import Mode

# Independently derived pre-init shift-step total: 396 logic steps per cycle
# plus the window-formula element totals (LFSR 1573 buffers / 31195 inverters,
# NFSR 5150 / 27618).  The published total (245830) counts the NFSR plan
# that leaves tap b96 out, which gives a wrong keystream; holding b96 at true
# polarity takes 32 more buffers.
PREINIT_STEPS_CORRECT = (
    396 * 256 + (1573 * 4 + 31195 * 2) + (5150 * 4 + 27618 * 2)
)


def test_load_key_iv_placement():
    cells = GrainSim.load_key_iv([0] * 128, [0] * 96)
    hot = [i for i, v in enumerate(cells) if v]
    assert hot == [s(i) for i in range(96, 127)]  # only the LFSR fill ones
    key = [0] * 128
    key[0] = 1
    assert GrainSim.load_key_iv(key, [0] * 96)[b(0)] == 1
    cells = GrainSim.load_key_iv([0] * 128, [1] * 96)
    assert all(cells[s(i)] == 1 for i in range(96))
    assert cells[s(127)] == 0


def test_load_rejects_wrong_lengths():
    with pytest.raises(InputError):
        GrainSim.load_key_iv([0] * 127, [0] * 96)
    with pytest.raises(InputError):
        GrainSim.load_key_iv([0] * 128, [0] * 97)


def test_direct_load_checks_entries_width_and_row_length():
    # a direct call must not mask a non-bit entry down to a valid one
    with pytest.raises(InputError, match="key and iv entries"):
        GrainSim.load_key_iv([3] * 128, [0] * 96)
    with pytest.raises(ValueError, match="width must be >= 1"):
        GrainSim.load_key_iv([0] * 128, [0] * 96, width=0)
    assert len(GrainSim.load_key_iv([0] * 128, [0] * 96)) == MEMRISTORS_KEYSTREAM
    # lanes: each entry is a mask; the constants are set in every lane
    cells = GrainSim.load_key_iv([3] * 128, [1] * 96, width=2)
    assert [cells[b(0)], cells[b(127)]] == [3, 3]
    assert [cells[s(0)], cells[s(95)], cells[s(96)], cells[s(126)], cells[s(127)]] == [1, 1, 3, 3, 0]


def test_memristor_budget():
    assert MEMRISTORS_PREINIT == 262  # 2x128 register + 6 work
    assert MEMRISTORS_KEYSTREAM == 263  # plus the output cell


def test_preinit_phase_totals(rng):
    assert PREINIT_STEPS_CORRECT == 245894  # +64 vs the published 245830
    sim = GrainSim(random_bits(rng, 128), random_bits(rng, 96), Mode.PROPOSED)
    sim.run_init()
    assert sim.init.stats.steps == PREINIT_STEPS_CORRECT
    counts = dict(sim.init.stats.census)
    assert counts[(GateKind.XOR2_DESTRUCTIVE, None)] == 31 * PREINIT_CYCLES
    assert counts[(GateKind.XOR2_NONDESTRUCTIVE, None)] == 3 * PREINIT_CYCLES
    assert counts[(GateKind.AND2, None)] == 11 * PREINIT_CYCLES
    assert counts[(GateKind.AND3, None)] == 3 * PREINIT_CYCLES
    assert counts[(GateKind.AND4, None)] == 1 * PREINIT_CYCLES
    assert counts[(GateKind.BUFFER, "LFSR")] == 1573
    assert counts[(GateKind.INVERTER, "LFSR")] == 31195
    assert counts[(GateKind.BUFFER, "NFSR")] == 5150
    assert counts[(GateKind.INVERTER, "NFSR")] == 27618


def test_preinit_cycle_logic_budget(rng):
    # 31 XOR2d + 3 XOR2nd + 11 AND2 + 3 AND3 + 1 AND4 = 396 logic steps,
    # plus steady shifts (6,122)/(20,108) -> 564 steps
    sim = GrainSim(random_bits(rng, 128), random_bits(rng, 96), Mode.PROPOSED)
    for _ in range(50):
        delta, z = sim.step_cycle()
        assert z is None
    assert delta.steps == 396 + (6 * 4 + 122 * 2) + (20 * 4 + 108 * 2)


def test_keystream_cycle_costs(rng):
    key, iv = random_bits(rng, 128), random_bits(rng, 96)
    sim = GrainSim(key, iv, Mode.PROPOSED)
    sim.run_init()
    delta, z = sim.step_cycle()
    assert delta.steps == 942
    assert z in (0, 1)
    logic = {k: n for (k, t), n in delta.census.items() if t is None}
    assert logic == {
        GateKind.XOR2_DESTRUCTIVE: 29,
        GateKind.XOR2_NONDESTRUCTIVE: 3,
        GateKind.AND2: 11,
        GateKind.AND3: 3,
        GateKind.AND4: 1,
    }
    report = costs.aggregate(sim)
    # exact marginal energy: sum of the per-kind energies, 67.6031 nJ
    assert report.keystream.energy_e4 == 676031

    conv = GrainSim(key, iv, Mode.CONVENTIONAL)
    conv.run_init()
    delta, _ = conv.step_cycle()
    assert delta.steps == 378 + 256 * 4  # 1402


def test_keystream_matches_reference_all_modes(rng):
    lanes = 8
    keys = [random_bits(rng, 128) for _ in range(lanes)]
    ivs = [random_bits(rng, 96) for _ in range(lanes)]
    n = 192
    refs = [grain128a_ref(keys[w], ivs[w], n) for w in range(lanes)]
    for mode in (Mode.PROPOSED, Mode.CONVENTIONAL):
        sim = GrainSim(lanes_to_masks(keys), lanes_to_masks(ivs), mode, width=lanes)
        masks = sim.keystream(n)
        for w in range(lanes):
            assert masks_to_lane(masks, w) == refs[w], (mode, w)


def test_mode_invariance_of_bits(rng):
    key, iv = random_bits(rng, 128), random_bits(rng, 96)
    assert GrainSim(key, iv, Mode.PROPOSED).keystream(64) == GrainSim(
        key, iv, Mode.CONVENTIONAL
    ).keystream(64)


def test_logic_stage_preserves_every_register_cell(rng):
    # all main memristors stay intact until the shifts: destructive XOR
    # operands are always scratch accumulators
    sim = GrainSim(random_bits(rng, 128), random_bits(rng, 96), Mode.PROPOSED)
    sim.keystream(3)
    prog = sim._programs.program(sim.cycle + 1)
    before = list(sim.cells)
    cells = list(sim.cells)
    from implysim.engine import execute

    execute(cells, 1, prog.ops[:378])  # logic stage only
    assert cells[:256] == before[:256]


def test_n_zero_returns_empty_after_full_preinit(rng):
    sim = GrainSim(random_bits(rng, 128), random_bits(rng, 96), Mode.PROPOSED)
    assert sim.keystream(0) == []
    assert sim.cycle == PREINIT_CYCLES
