"""The shared program cache and the cycle runner.

``keystream`` runs each phase's cycles as one run, in logical coordinates
when the row is wider than one lane; ``step_cycle`` runs one cycle at a
time.  Either way a sim's accounts are ``ProgramCache.cost`` over its cycle
count.
Both must leave the same array state and the same cost report, and sims of
one cipher × mode share programs without sharing any key-dependent state.
"""

import hashlib
import random
from itertools import chain
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from ciphers import ORACLES
from conftest import lanes_to_masks, masks_to_lane, random_bits
from implysim import costs, programs
from implysim.engine import CsvTrace, LayoutError, OperandError, execute
from implysim.gates import GateKind
from implysim.grain_cim import GrainSim
from implysim.costs import ClosedForm
from implysim.programs import (
    CipherSim, CycleProgram, PhaseCost, ProgramBuilder, ProgramCache, ShiftStage, programs_for,
)
from implysim.reference import InputError
from implysim.shifting import Element, Mode, RegisterLayout, plan
from implysim.trivium_cim import TriviumSim

EACH_CIPHER = pytest.mark.parametrize("cls", list(ORACLES), ids=lambda cls: cls.CIPHER)
N_BITS = 40


def _lane_keys(rng, cls, width):
    keys = [random_bits(rng, len(cls.KEY)) for _ in range(width)]
    ivs = [random_bits(rng, len(cls.IV)) for _ in range(width)]
    return keys, ivs


def _zero_sim(cls, *args, **kwargs):
    """A sim of ``cls`` on the all-zero key and IV."""
    return cls([0] * len(cls.KEY), [0] * len(cls.IV), *args, **kwargs)


def _snapshot(sim):
    return list(sim.cells), costs.aggregate(sim).to_dict()


@pytest.mark.parametrize("width", [1, 64])
@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
@EACH_CIPHER
def test_segment_runner_matches_cycle_at_a_time(cls, mode, width):
    keys, ivs = _lane_keys(random.Random(f"{cls.CIPHER}-{mode.value}-{width}"), cls, width)
    key, iv = lanes_to_masks(keys), lanes_to_masks(ivs)
    segments = cls(key, iv, mode, width)
    stepped = cls(key, iv, mode, width)
    mixed = cls(key, iv, mode, width)

    segments.keystream(0)
    for _ in range(cls.INIT_CYCLES):
        _, z = stepped.step_cycle()
        assert z is None
    for _ in range(3):
        mixed.step_cycle()
    # the mixed sim leaves the per-cycle path inside the plans' prefix
    # whenever the mode has one
    assert mode is Mode.CONVENTIONAL or mixed.cycle < mixed._programs.steady_from
    mixed.keystream(0)
    at_init = _snapshot(segments)
    assert at_init[1]["init"]["cycles"] == cls.INIT_CYCLES
    assert _snapshot(stepped) == at_init
    assert _snapshot(mixed) == at_init

    streams = [segments.keystream(N_BITS), [stepped.step_cycle()[1] for _ in range(N_BITS)],
               mixed.keystream(N_BITS)]
    at_end = _snapshot(segments)
    assert at_end[1]["keystream"]["cycles"] == N_BITS
    assert _snapshot(stepped) == at_end
    assert _snapshot(mixed) == at_end
    for lane in range(width):
        expected = ORACLES[cls](keys[lane], ivs[lane], N_BITS)
        for masks in streams:
            assert masks_to_lane(masks, lane) == expected, lane


@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
@EACH_CIPHER
def test_interleaved_sims_share_programs_but_no_state(cls, mode):
    rng = random.Random(f"shared-{cls.CIPHER}-{mode.value}")
    pairs = [(random_bits(rng, len(cls.KEY)), random_bits(rng, len(cls.IV))) for _ in range(2)]
    sims = [cls(key, iv, mode) for key, iv in pairs]
    streams = [[], []]
    # one cycle each in turn, across the init/keystream boundary
    while sims[1].cycle < cls.INIT_CYCLES + 8:
        for sim, stream in zip(sims, streams):
            _, z = sim.step_cycle()
            if z is not None:
                stream.append(z)
    # then alternating segments
    for n in (1, 5, 2):
        for sim, stream in zip(sims, streams):
            stream.extend(sim.keystream(n))
    for (key, iv), stream in zip(pairs, streams):
        assert stream == ORACLES[cls](key, iv, len(stream))

    first, second = sims
    assert first._programs is second._programs
    cycles = range(1, first.cycle + 1)
    programs = [first._programs.program(t) for t in cycles]
    assert all(prog is second._programs.program(t) for t, prog in zip(cycles, programs))
    # interned operands: one tuple object per distinct operand tuple across
    # all programs of the cache
    operands = [x for prog in set(programs) for _spec, run in prog.runs for x in run]
    assert len({id(x) for x in operands}) == len(set(operands))
    stages = [stage for prog in set(programs) for stage in prog.stages]
    assert len({id(x) for x in stages}) == len(set(stages))


def test_value_types_compare_as_interning_needs():
    # ProgramCache interns stages by value and keys costs by program, so a
    # stage compares by its fields and a program by identity; the id count
    # above would pass trivially if stages compared by identity
    flips = bytes([1, 0, 1])
    stage = ShiftStage((0, 1, 2), 10, 11, flips)
    twin = ShiftStage((0, 1, 2), 10, 11, bytes(bytearray(flips)))
    assert twin is not stage and twin == stage and hash(twin) == hash(stage) and len({stage, twin}) == 1
    assert ShiftStage((0, 1, 2), 10, 11, bytes([1, 1, 1])) != stage
    args = ((), (((GateKind.AND2, None), 1),), 5, (stage,))
    first, second = CycleProgram(*args), CycleProgram(*args)
    assert first != second and len({first, second}) == 2 and first == first

    layout = RegisterLayout("toy", 5, frozenset({2, 5}))
    assert RegisterLayout("toy", 5, frozenset({5, 2})) == layout
    assert RegisterLayout("toy", 5, frozenset({2})) != layout
    assert plan(layout, Mode.PROPOSED) is not plan(layout, Mode.PROPOSED)
    assert plan(layout, Mode.PROPOSED) == plan(layout, Mode.PROPOSED) != plan(layout, Mode.CONVENTIONAL)
    assert ClosedForm(710, 797266, 4780, 5347310) == ClosedForm(710, 797266, 4780, 5347310)
    assert ClosedForm(710, 797266, 4780, 5347310) != ClosedForm(710, 797266, 4780, 0)
    census = {(GateKind.AND2, None): 2}
    assert PhaseCost(1, 10, dict(census)) == PhaseCost(1, 10, census) != PhaseCost(2, 10, census)


def test_trace_sees_every_pulse_in_program_order():
    rng = random.Random(7)
    sim = GrainSim(random_bits(rng, 128), random_bits(rng, 96), Mode.PROPOSED)
    cycles = range(1, GrainSim.INIT_CYCLES + 3)
    expected = chain.from_iterable(sim._programs.program(t).ops for t in cycles)
    seen = 0

    def trace(step, kind, p, q, value):
        nonlocal seen
        assert step == seen
        ep, eq = next(expected)
        assert (kind, p, q) == (("FALSE", None, eq) if ep < 0 else ("IMPLY", ep, eq))
        seen += 1

    sim.trace = trace
    sim.keystream(2)
    assert seen == costs.aggregate(sim).total_steps
    assert next(expected, None) is None


@pytest.mark.parametrize("width", [1, 64, 1024])
@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
@EACH_CIPHER
def test_program_runs_match_interpreted_ops(cls, mode, width):
    rng = random.Random(f"runs-{cls.CIPHER}-{mode.value}-{width}")
    sim = cls(random_bits(rng, len(cls.KEY)), random_bits(rng, len(cls.IV)), mode, width)
    cache = sim._programs
    programs = set(cache._init) | set(cache._keystream)
    full = (1 << width) - 1
    for prog in programs:
        cells = [rng.getrandbits(width) for _ in sim.cells]
        expected = list(cells)
        # three cycles in a row, so each starts from the previous one's state
        for _ in range(3):
            assert execute(expected, full, prog.ops) == prog.steps
            prog.run(cells, full)
            assert cells == expected


@pytest.mark.parametrize("width", [1, 64, 1024])
@pytest.mark.parametrize("starts", ["prefix", "boundary"])
@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
@EACH_CIPHER
def test_runs_match_physical_programs_from_any_row(cls, mode, starts, width):
    # wider than one lane, a run of cycles goes through the phase's logical
    # program; from a random full row (work, scratch and output cells
    # included), starting at every cycle of the plans' prefix and just past
    # it, or around the init/keystream boundary, it must leave the row, the
    # outputs and the accounts of n runs of each cycle's physical program
    rng = random.Random(f"run-{cls.CIPHER}-{mode.value}-{starts}-{width}")
    cache = programs_for(cls, mode)
    full = (1 << width) - 1
    init = cls.INIT_CYCLES
    for start in range(cache.steady_from + 2) if starts == "prefix" else range(init - 3, init + 2):
        keystream = start >= init
        for n in sorted({n if keystream else min(n, init - start) for n in (1, 2, 3, 17, 70)}):
            sim = _zero_sim(cls, mode, width)
            sim.cycle = start
            sim.cells = [rng.getrandbits(width) for _ in sim.cells]
            expected, expected_out, steps, census = list(sim.cells), [], 0, {}
            for t in range(start + 1, start + n + 1):
                prog = cache.program(t)
                prog.run(expected, full)
                steps += prog.steps
                for key, c in prog.census:
                    census[key] = census.get(key, 0) + c
                if keystream:
                    expected_out.append(expected[cls.OUT])
            out = []
            sim._run(n, out)
            assert sim.cells == expected, (start, n)
            assert out == expected_out, (start, n)
            assert cache.cost(start + 1, start + n) == PhaseCost(n, steps, census), (start, n)
            assert sim.cycle == start + n


@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
@EACH_CIPHER
def test_cache_lookups_reject_cycles_before_1(cls, mode):
    # a cycle 0 or below does not exist, and must not answer as a real one
    cache = programs_for(cls, mode)
    for t in (0, -5):
        for lookup in (cache.program, lambda t: list(cache.segments(t, 2)), lambda t: cache.cost(t, 2)):
            with pytest.raises(ValueError, match="cycles count from 1"):
                lookup(t)
    with pytest.raises(ValueError, match="parities from P_0"):
        cache.parity(-1)
    assert cache.parity(0) == 0
    assert cache.cost(1, 0) == PhaseCost(0, 0, {})
    # a range across the init/keystream boundary costs what its two parts do
    init = cache.init_cycles
    whole, parts = cache.cost(1, init + 3), (cache.cost(1, init), cache.cost(init + 1, init + 3))
    assert (whole.cycles, whole.steps) == (init + 3, sum(p.steps for p in parts))
    assert whole.energy_e4 == sum(p.energy_e4 for p in parts)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(list(ORACLES)), st.sampled_from(list(Mode)), st.integers(1, 8),
       st.integers(0, 40), st.integers(0, 40), st.randoms(use_true_random=False))
def test_keystream_calls_match_the_oracle_and_the_simulated_form(cls, mode, width, a, b, rng):
    keys, ivs = _lane_keys(rng, cls, width)
    sim = cls(lanes_to_masks(keys), lanes_to_masks(ivs), mode, width)
    masks = sim.keystream(a) + sim.keystream(b)
    for lane in range(width):
        assert masks_to_lane(masks, lane) == ORACLES[cls](keys[lane], ivs[lane], a + b), lane
    report = costs.aggregate(sim)
    # the simulated form is derived for a name in costs.SIMS; a test-only
    # class is named there only for this call
    with mock.patch.dict(costs.SIMS, {cls.CIPHER: cls}):
        form = costs.simulated_form(cls.CIPHER, mode, a + b)
    assert (report.total_steps, report.total_energy_uj) == form


def _four_cell_sim(logic):
    """A sim class with one 4-cell register (position 1 first, its one tap
    position 4), eight init cycles and the given ``_logic``."""

    class Sim(CipherSim):
        INIT_CYCLES = 8
        REGISTERS = {"R": (0, 1, 2, 3)}
        OUT = 7
        _logic = staticmethod(logic)

    return Sim


def test_cache_build_rejects_logic_on_a_register_cell_of_parity_one():
    def logic(pb, keystream):
        source = pb.gate(GateKind.INVERTER, (3,), (4,))
        # position 3 is no tap, so a proposed plan leaves it complemented
        pb.gate(GateKind.INVERTER, (3,), (2,))
        return {"R": source}, 5

    Overwriter = _four_cell_sim(logic)
    assert Overwriter.LAYOUTS["R"].taps == {4}
    conventional = ProgramCache(Overwriter, Mode.CONVENTIONAL)
    assert all(conventional.parity(t) == 0 for t in range(Overwriter.INIT_CYCLES + 2))
    with pytest.raises(LayoutError, match=r"parity 1: \[2\]"):
        ProgramCache(Overwriter, Mode.PROPOSED)


@pytest.mark.parametrize("case", ["logic-reads-it", "cycle-without-a-buffer"])
def test_cache_build_rejects_a_scratch_cell_read_before_it_is_written(case):
    # a logical run leaves the scratch cell to its physical last cycle, so
    # that cycle must write it before anything reads what the logical cycles
    # left there: here the logic reads it first, or the logic leaves it alone
    # and the proposed plan's cycle 2 has no buffer, since position 1's
    # parity is 1 after cycle 1 and position 2, the one tap, then takes an
    # inverter like every other position
    def logic(pb, keystream):
        if case == "logic-reads-it":
            pb.gate(GateKind.INVERTER, (5,), (6,))
        return {"R": pb.gate(GateKind.INVERTER, (3 if case == "logic-reads-it" else 1,), (4,))}, 5

    Sim = _four_cell_sim(logic)
    assert Sim.LAYOUTS["R"].taps == ({4} if case == "logic-reads-it" else {2})
    ProgramCache(Sim, Mode.CONVENTIONAL)  # every parity is 0
    with pytest.raises(LayoutError, match="may read scratch cell 5 before writing it"):
        ProgramCache(Sim, Mode.PROPOSED)


def _row(kind, n, rng):
    """A plan row of ``n`` flips (1 = inverter, 0 = buffer) of one kind."""
    if kind == "random":
        return bytes(rng.getrandbits(1) for _ in range(n))
    if kind == "all-buffer":
        return bytes(n)
    if kind == "no-buffer":
        return bytes([1] * n)
    if kind == "buffer-only-at-1":
        return bytes([0] + [1] * (n - 1))
    return bytes([1] * (n - 1) + [0])  # buffer only at the oldest position


@pytest.mark.parametrize("width", [1, 64, 1024])
@pytest.mark.parametrize("kind", ["random", "all-buffer", "no-buffer", "buffer-only-at-1", "buffer-only-at-n"])
@pytest.mark.parametrize("descending", [False, True], ids=["ascending", "descending"])
def test_shift_stage_matches_interpreted_ops(descending, kind, width):
    rng = random.Random(f"stage-{descending}-{kind}-{width}")
    full = (1 << width) - 1
    for n in (1, 2, 3, 17, 40):
        for _ in range(4 if kind == "random" else 1):
            # the register sits between untouched neighbours; the source and
            # scratch cells lie on either side of it
            base = 3
            cells = tuple(range(base, base + n))
            stage = ShiftStage(cells[::-1] if descending else cells, 1, base + n + 1, _row(kind, n, rng))
            row = [rng.getrandbits(width) for _ in range(base + n + 3)]
            expected = list(row)
            ops = stage.ops
            for _cycle in range(3):
                assert execute(expected, full, ops) == len(ops) == stage.steps
                stage.run(row, full)
                assert row == expected
                row[stage.source] = expected[stage.source] = rng.getrandbits(width)


def _buffers(n):
    return bytes((Element.BUFFER,) * n)


@pytest.mark.parametrize("cells", [(0, 1, 3), (0, 2, 4), (5, 4, 2), (2, 3, 1), (3, 2, 4)])
def test_non_contiguous_register_is_rejected(cells):
    with pytest.raises(LayoutError):
        ShiftStage(cells, 10, 11, _buffers(len(cells)))


def test_shift_stage_rejects_bad_operands():
    with pytest.raises(OperandError):  # the source inside the register
        ShiftStage((0, 1, 2), 1, 11, _buffers(3))
    with pytest.raises(OperandError):  # the scratch is the source
        ShiftStage((0, 1, 2), 10, 10, _buffers(3))
    with pytest.raises(LayoutError):  # a row that does not fit the register
        ShiftStage((0, 1, 2), 10, 11, _buffers(2))
    ShiftStage((0, 1, 2), 10, 11, _buffers(3))


@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
@EACH_CIPHER
def test_cache_build_reuses_each_phases_compiled_logic(cls, mode, monkeypatch):
    # a cache build adds shift stages to the logic compiled at class
    # creation: it appends no gate, runs no _logic, and every program of a
    # phase holds that phase's one runs tuple
    calls = []
    gate = ProgramBuilder.gate
    monkeypatch.setattr(ProgramBuilder, "gate", lambda *a, **k: calls.append("gate") or gate(*a, **k))
    monkeypatch.setattr(cls, "_logic", staticmethod(lambda *a: calls.append("_logic")))
    cache = ProgramCache(cls, mode)
    assert calls == []
    for keystream, progs in ((False, cache._init), (True, cache._keystream)):
        logic = cls._LOGIC[keystream][0]
        assert logic.stages == ()
        assert all(prog.runs is logic.runs for prog in progs)
        assert all(len(prog.stages) == len(cls.REGISTERS) for prog in progs)



@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
@EACH_CIPHER
def test_cache_stages_take_the_plan_rows_without_a_copy(cls, mode, monkeypatch):
    # every stage's flips is the very row object its register's plan holds
    # for that cycle
    plans = []
    monkeypatch.setattr(programs, "plan", lambda *a: plans.append(plan(*a)) or plans[-1])
    cache = ProgramCache(cls, mode)
    assert [p.register for p in plans] == list(cls.REGISTERS)
    for t in range(1, cls.INIT_CYCLES + cache.steady_from + 1):
        stages = cache.program(t).stages
        assert all(stage.flips is p.elements(t) for stage, p in zip(stages, plans, strict=True)), t


@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
@EACH_CIPHER
def test_one_program_cache_per_class_and_mode(cls, mode):
    # a mode spelled by its value finds the same cache, and so do the sims;
    # junk modes are rejected in tests/test_costs.py
    cache = programs_for(cls, mode)
    assert programs_for(cls, mode.value) is cache
    assert _zero_sim(cls, mode.value)._programs is cache

def test_logic_runs_once_per_phase_at_class_creation():
    calls = []

    class Probe(TriviumSim):
        @staticmethod
        def _logic(pb, keystream):
            calls.append(keystream)
            return TriviumSim._logic(pb, keystream)

    assert calls == [False, True]
    # the two phases' logic shares one object per distinct operand tuple
    operands = [x for logic, _sources, _scratch in Probe._LOGIC for _spec, xs in logic.runs for x in xs]
    assert len({id(x) for x in operands}) == len(set(operands))


@pytest.mark.parametrize("width,bad", [(1, 2), (1, 3), (1, -1), (4, 16)])
@EACH_CIPHER
def test_sims_reject_key_iv_entries_outside_the_lane_mask(cls, width, bad):
    # the oracles raise InputError for a non-bit; a sim must not mask the
    # entry down to a valid one and run
    key_len, iv_len = len(cls.KEY), len(cls.IV)
    with pytest.raises(InputError, match="key and iv entries"):
        cls([bad] + [0] * (key_len - 1), [0] * iv_len, width=width)
    with pytest.raises(InputError, match="key and iv entries"):
        cls([0] * key_len, [0] * (iv_len - 1) + [bad], width=width)
    cls([(1 << width) - 1] * key_len, [0] * iv_len, width=width)  # the full mask is valid


@pytest.mark.parametrize("width", [0, -1])
@EACH_CIPHER
def test_sims_reject_a_width_below_one(cls, width):
    with pytest.raises(ValueError, match="width must be >= 1"):
        _zero_sim(cls, width=width)


@EACH_CIPHER
def test_keystream_matches_reference_all_modes(cls, rng):
    lanes = 8
    keys, ivs = _lane_keys(rng, cls, lanes)
    n = 192
    refs = [ORACLES[cls](keys[w], ivs[w], n) for w in range(lanes)]
    for mode in (Mode.PROPOSED, Mode.CONVENTIONAL):
        sim = cls(lanes_to_masks(keys), lanes_to_masks(ivs), mode, width=lanes)
        masks = sim.keystream(n)
        for w in range(lanes):
            assert masks_to_lane(masks, w) == refs[w], (mode, w)


@EACH_CIPHER
def test_mode_invariance_of_bits(cls, rng):
    (key,), (iv,) = _lane_keys(rng, cls, 1)
    assert cls(key, iv, Mode.PROPOSED).keystream(64) == cls(key, iv, Mode.CONVENTIONAL).keystream(64)


@EACH_CIPHER
def test_n_zero_returns_empty_after_full_init(cls, rng):
    (key,), (iv,) = _lane_keys(rng, cls, 1)
    sim = cls(key, iv, Mode.PROPOSED)
    assert sim.keystream(0) == []
    assert sim.cycle == cls.INIT_CYCLES


@EACH_CIPHER
def test_load_rejects_wrong_lengths(cls):
    key, iv = [0] * len(cls.KEY), [0] * len(cls.IV)
    for bad_key, bad_iv in ((key[1:], iv), (key, iv[1:]), (key, iv + [0])):
        with pytest.raises(InputError):
            cls.load_key_iv(bad_key, bad_iv)
    with pytest.raises(ValueError):
        cls(key, iv).keystream(-1)


def test_builder_reads_are_the_cells_read_before_any_write():
    pb = ProgramBuilder()
    # XOR2_DESTRUCTIVE on (0, 1) overwrites input 1 and works 2, 3
    pb.gate(GateKind.XOR2_DESTRUCTIVE, (0, 1), (2, 3))
    pb.gate(GateKind.AND2, (1, 4), (5, 6))  # 1 was written above: not a read
    pb.gate(GateKind.INVERTER, (2,), (7,))
    assert pb.reads == {0, 1, 4}


class _HashWriter:
    """A text sink that keeps only a line count and a sha256."""

    def __init__(self):
        self.sha = hashlib.sha256()
        self.lines = 0

    def write(self, text):
        self.sha.update(text.encode())
        self.lines += text.count("\n")


@pytest.mark.parametrize("mode,lines,digest", [
    (Mode.PROPOSED, 247_779, "b851109c3b3eea1bdf9c5c95734dda63716da71c1444d0d95e3d67003967ffa4"),
    (Mode.CONVENTIONAL, 366_325, "a5abbdb68cd0e21e8273f4677675d8b05c1a48c61e5c57263351c08add8f05c6"),
], ids=["proposed", "conventional"])
def test_csv_trace_is_pinned(mode, lines, digest):
    # two Grain-128a keystream bits, traced pulse by pulse
    sink = _HashWriter()
    key, iv = GrainSim.key_iv_bits("000102030405060708090a0b0c0d0e0f", "000102030405060708090a0b")
    GrainSim(key, iv, mode, trace=CsvTrace(sink)).keystream(2)
    assert (sink.lines, sink.sha.hexdigest()) == (lines, digest)
