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
from implysim import costs
from implysim.engine import CsvTrace, execute
from implysim.grain_cim import GrainSim
from implysim.reference import grain128a_ref, grain_key_bits, trivium_ref
from implysim.shifting import Mode
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
    programs = [first._cycle_program(t) for t in cycles]
    assert all(prog is second._cycle_program(t) for t, prog in zip(cycles, programs))
    # interned operands: one tuple object per distinct operand tuple across
    # all programs of the cache
    operands = [x for prog in set(programs) for _spec, run in prog.runs for x in run]
    assert len({id(x) for x in operands}) == len(set(operands))


def test_trace_sees_every_pulse_in_program_order():
    rng = random.Random(7)
    sim = GrainSim(random_bits(rng, 128), random_bits(rng, 96), Mode.PROPOSED)
    cycles = range(1, GrainSim.INIT_CYCLES + 3)
    expected = chain.from_iterable(sim._cycle_program(t).ops for t in cycles)
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


@pytest.mark.parametrize("width", [1, 64])
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
        assert execute(expected, full, prog.ops) == prog.steps
        prog.run(cells, full)
        assert cells == expected


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
