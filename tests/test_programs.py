"""The shared program cache and the segment runner.

``keystream`` runs the steady cycles of a phase as one segment of a cached
program and accounts per program; ``step_cycle`` runs one cycle at a time.
Both must leave the same array state and the same cost report, and sims of
one cipher × mode share programs without sharing any key-dependent state.
"""

import hashlib
import random
from itertools import chain

import pytest

from conftest import lanes_to_masks, masks_to_lane, random_bits
from implysim import costs, programs
from implysim.engine import CsvTrace, LayoutError, OperandError, execute
from implysim.gates import GateKind
from implysim.grain_cim import GrainSim
from implysim.programs import ProgramBuilder, ProgramCache, ShiftStage, programs_for
from implysim.reference import InputError, grain128a_ref, grain_key_bits, trivium_ref
from implysim.shifting import Element, Mode, plan
from implysim.trivium_cim import TriviumSim

CIPHERS = {
    "trivium": (TriviumSim, 80, 80, trivium_ref),
    "grain128a": (GrainSim, 128, 96, grain128a_ref),
}
N_BITS = 40


def _lane_keys(rng, cipher, width):
    _cls, key_len, iv_len, _ref = CIPHERS[cipher]
    keys = [random_bits(rng, key_len) for _ in range(width)]
    ivs = [random_bits(rng, iv_len) for _ in range(width)]
    return keys, ivs


def _snapshot(sim):
    return list(sim.cells), costs.aggregate(sim).to_dict()


@pytest.mark.parametrize("width", [1, 64])
@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
@pytest.mark.parametrize("cipher", list(CIPHERS))
def test_segment_runner_matches_cycle_at_a_time(cipher, mode, width):
    cls, _key_len, _iv_len, ref = CIPHERS[cipher]
    keys, ivs = _lane_keys(random.Random(f"{cipher}-{mode.value}-{width}"), cipher, width)
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
        expected = ref(keys[lane], ivs[lane], N_BITS)
        for masks in streams:
            assert masks_to_lane(masks, lane) == expected, lane


@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
@pytest.mark.parametrize("cipher", list(CIPHERS))
def test_interleaved_sims_share_programs_but_no_state(cipher, mode):
    cls, key_len, iv_len, ref = CIPHERS[cipher]
    rng = random.Random(f"shared-{cipher}-{mode.value}")
    pairs = [(random_bits(rng, key_len), random_bits(rng, iv_len)) for _ in range(2)]
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
        assert stream == ref(key, iv, len(stream))

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
@pytest.mark.parametrize("cipher", list(CIPHERS))
def test_program_runs_match_interpreted_ops(cipher, mode, width):
    cls, key_len, iv_len, _ref = CIPHERS[cipher]
    rng = random.Random(f"runs-{cipher}-{mode.value}-{width}")
    sim = cls(random_bits(rng, key_len), random_bits(rng, iv_len), mode, width)
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
@pytest.mark.parametrize("cipher", list(CIPHERS))
def test_cache_build_reuses_each_phases_compiled_logic(cipher, mode, monkeypatch):
    # a cache build adds shift stages to the logic compiled at class
    # creation: it appends no gate, runs no _logic, and every program of a
    # phase holds that phase's one runs tuple
    cls = CIPHERS[cipher][0]
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
@pytest.mark.parametrize("cipher", list(CIPHERS))
def test_cache_stages_take_the_plan_rows_without_a_copy(cipher, mode, monkeypatch):
    # every stage's flips is the very row object its register's plan holds
    # for that cycle
    cls = CIPHERS[cipher][0]
    plans = []
    monkeypatch.setattr(programs, "plan", lambda *a: plans.append(plan(*a)) or plans[-1])
    cache = ProgramCache(cls, mode)
    assert [p.register for p in plans] == list(cls.REGISTERS)
    for t in range(1, cls.INIT_CYCLES + cache.steady_from + 1):
        stages = cache.program(t).stages
        assert all(stage.flips is p.elements(t) for stage, p in zip(stages, plans, strict=True)), t


@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
@pytest.mark.parametrize("cipher", list(CIPHERS))
def test_one_program_cache_per_class_and_mode(cipher, mode):
    # a mode spelled by its value finds the same cache, and so do the sims;
    # junk modes are rejected in tests/test_costs.py
    cls, key_len, iv_len, _ref = CIPHERS[cipher]
    cache = programs_for(cls, mode)
    assert programs_for(cls, mode.value) is cache
    assert cls([0] * key_len, [0] * iv_len, mode.value)._programs is cache

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
@pytest.mark.parametrize("cipher", list(CIPHERS))
def test_sims_reject_key_iv_entries_outside_the_lane_mask(cipher, width, bad):
    # the oracles raise InputError for a non-bit; a sim must not mask the
    # entry down to a valid one and run
    cls, key_len, iv_len, _ref = CIPHERS[cipher]
    with pytest.raises(InputError, match="key and iv entries"):
        cls([bad] + [0] * (key_len - 1), [0] * iv_len, width=width)
    with pytest.raises(InputError, match="key and iv entries"):
        cls([0] * key_len, [0] * (iv_len - 1) + [bad], width=width)
    cls([(1 << width) - 1] * key_len, [0] * iv_len, width=width)  # the full mask is valid


@pytest.mark.parametrize("width", [0, -1])
@pytest.mark.parametrize("cipher", list(CIPHERS))
def test_sims_reject_a_width_below_one(cipher, width):
    cls, key_len, iv_len, _ref = CIPHERS[cipher]
    with pytest.raises(ValueError, match="width must be >= 1"):
        cls([0] * key_len, [0] * iv_len, width=width)


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
    key = grain_key_bits("000102030405060708090a0b0c0d0e0f", 16, "key")
    iv = grain_key_bits("000102030405060708090a0b", 12, "iv")
    GrainSim(key, iv, mode, trace=CsvTrace(sink)).keystream(2)
    assert (sink.lines, sink.sha.hexdigest()) == (lines, digest)
