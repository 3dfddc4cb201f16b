"""Symbolic proof that every cycle program computes one cipher round.

A cycle program does not depend on the key, the IV or the lane data, so one
run of it over symbolic bits covers every input.  Each distinct (program,
plan parity, phase) runs once through its own kernels, ``prog.run(cells,
ONE)``, over polynomials in algebraic normal form.  Register cell i starts
as its logical value ``var(i)`` XOR ``P_t[i]``, the plan's static parity
before cycle t; work and output cells start as fresh variables, so a result
that leans on leftover work state fails.  After the cycle every register
cell must hold the oracle round (``reference``, or ``ciphers.bivium_round``)
XOR ``P_{t+1}``, in the
keystream phase the output cell must hold the keystream bit, and the scratch
cell must hold NOT the value of the last buffer emitted.  The walk runs
until the program and the parity repeat, which covers every later cycle.

A row more than one lane wide runs in logical coordinates, where every cycle
of a phase is the phase's conventional program, proven above with every
parity 0.  So each cache's ``logical`` programs must be those very objects,
and its parities ``P_t`` must be the ones this walk reaches.
"""

import functools
import random

import pytest

from ciphers import ORACLES, BiviumSim, bivium_logic, bivium_ref, bivium_round
from conftest import random_bits
from implysim import grain_cim, trivium_cim
from implysim.grain_cim import GrainSim
from implysim.programs import programs_for
from implysim.reference import grain_round, trivium_round
from implysim.shifting import Mode
from implysim.trivium_cim import TriviumSim


class Anf:
    """A GF(2) polynomial: a frozenset of monomials, each a bitmask of
    variable ids (0 is the constant monomial).  ``a | b`` is
    ``a ^ b ^ (a & b)``, so the IMPLY kernels' ``(c[p] ^ f) | c[q]`` runs on
    it unchanged; the ints 0 and 1 that FALSE pulses and parities bring in
    are coerced.  An ``Anf`` never equals an int."""

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        self.terms = frozenset(terms)

    @staticmethod
    def _of(x):
        if isinstance(x, Anf):
            return x
        if x in (0, 1):
            return ONE if x else ZERO
        return NotImplemented

    def __xor__(self, other):
        other = Anf._of(other)
        return other if other is NotImplemented else Anf(self.terms ^ other.terms)

    def __and__(self, other):
        other = Anf._of(other)
        if other is NotImplemented:
            return other
        out: set = set()
        for x in self.terms:
            for y in other.terms:
                out ^= {x | y}
        return Anf(out)

    def __or__(self, other):
        other = Anf._of(other)
        return other if other is NotImplemented else self ^ other ^ (self & other)

    __rxor__, __rand__, __ror__ = __xor__, __and__, __or__

    def __eq__(self, other):
        return isinstance(other, Anf) and self.terms == other.terms

    def __repr__(self):
        def monomial(m):
            return "*".join(f"v{i}" for i in range(m.bit_length()) if m >> i & 1) or "1"

        return " ^ ".join(sorted(map(monomial, self.terms))) or "0"


ZERO, ONE = Anf(), Anf({0})


def var(i: int) -> Anf:
    return Anf({1 << i})


def test_anf_algebra():
    a, b = var(1), var(2)
    assert ONE != 1 and ZERO != 0
    assert a ^ a == ZERO and a ^ 0 == a and 1 ^ a == a ^ ONE
    assert (a & b) == Anf({0b110}) and a & a == a and a & 0 == ZERO
    assert a | b == a ^ b ^ (a & b) and (a ^ ONE) | a == ONE
    # the IMPLY kernel body: q := NOT p OR q
    assert (a ^ ONE) | b == ONE ^ a ^ (a & b)


def _trivium_round(keystream: bool):
    # the cells of s1..s288 in the oracle's order; both phases run the same
    # round, and the keystream phase also emits z
    cells = [
        *map(trivium_cim.a, range(1, 94)),
        *map(trivium_cim.b, range(1, 85)),
        *map(trivium_cim.c, range(1, 112)),
    ]
    state, z = trivium_round([var(cell) for cell in cells])
    return dict(zip(cells, state)), z


def _grain_round(keystream: bool):
    nfsr, lfsr = [grain_cim.b(i) for i in range(128)], [grain_cim.s(i) for i in range(128)]
    b, s, y = grain_round([var(c) for c in nfsr], [var(c) for c in lfsr], preinit=not keystream)
    return {**dict(zip(nfsr, b)), **dict(zip(lfsr, s))}, y


def _bivium_round(keystream: bool):
    cells = [cell for cells in BiviumSim.REGISTERS.values() for cell in cells]  # s1..s177
    state, z = bivium_round([var(cell) for cell in cells])
    return dict(zip(cells, state)), z


#: sim class -> its round over symbolic cells, for every class in ``ORACLES``
ROUNDS = {TriviumSim: _trivium_round, GrainSim: _grain_round, BiviumSim: _bivium_round}


def _next_parity(parity: list[int], prog) -> list[int]:
    """``P_{t+1}`` from each stage's flips: position 1 takes its injection's
    flip, position m its predecessor's parity XOR its own flip."""
    new = list(parity)
    for stage in prog.stages:
        cells, flips = stage.cells, stage.flips
        new[cells[0]] = flips[0]
        for m in range(1, len(cells)):
            new[cells[m]] = parity[cells[m - 1]] ^ flips[m]
    return new


def _prove(cls, mode, round_of):
    """Run every distinct cycle program of ``cls`` × ``mode`` over symbolic
    cells against ``round_of(keystream)``, the expected register cells and
    output; an AssertionError names the first cycle that differs."""
    programs = programs_for(cls, mode)
    n_cells = cls.OUT + 1  # the output is the row's last cell
    register_cells = {cell for cells in cls.REGISTERS.values() for cell in cells}
    rounds = {keystream: round_of(keystream) for keystream in (False, True)}
    assert all(set(expected) == register_cells for expected, _out in rounds.values())
    parity = [0] * n_cells  # the load writes every cell at true polarity
    proven: set = set()
    for t in range(1, cls.INIT_CYCLES + programs.steady_from + 1):
        prog = programs.program(t)
        keystream = t > cls.INIT_CYCLES
        after = _next_parity(parity, prog)
        if (prog, tuple(parity), keystream) not in proven:
            proven.add((prog, tuple(parity), keystream))
            cells = [var(c) ^ parity[c] if c in register_cells else var(n_cells + c) for c in range(n_cells)]
            prog.run(cells, ONE)
            expected, out = rounds[keystream]
            wrong = [c for c, value in expected.items() if cells[c] != value ^ after[c]]
            assert not wrong, f"cycle {t}: register cells {wrong[:8]} differ from the cipher round"
            assert not keystream or cells[cls.OUT] == out, f"cycle {t}: the output cell is not the keystream bit"
            # the scratch keeps NOT the value of the last buffer emitted: the
            # last buffered stage's lowest buffered position, after the shift
            stage = [stage for stage in prog.stages if 0 in stage.flips][-1]
            carried = stage.cells[stage.flips.find(0)]
            assert cells[stage.scratch] == expected[carried] ^ after[carried] ^ ONE, f"cycle {t}: the scratch cell"
        parity, before = after, parity
    # the last program and parity repeat from here on, so its proof covers
    # every later cycle
    assert programs.program(t + 1) is prog and parity == before


@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
@pytest.mark.parametrize("cls", list(ORACLES), ids=lambda c: c.CIPHER)
def test_every_cycle_program_computes_the_cipher_round(cls, mode):
    _prove(cls, mode, ROUNDS[cls])


# Bivium-B netlists with one fault each: AND2 of A reads A90 for A91, or the
# keystream phase never writes the output cell
BIVIUM_MUTANTS = {"and2-reads-a90": {"and_a": (90, 92)}, "no-output-xor": {"output": False}}


@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
@pytest.mark.parametrize("fault", list(BIVIUM_MUTANTS))
def test_bivium_mutants_fail_the_oracle_and_the_proof(fault, mode):
    class Mutant(BiviumSim):
        _logic = staticmethod(functools.partial(bivium_logic, **BIVIUM_MUTANTS[fault]))

    rng = random.Random(fault)
    key, iv = random_bits(rng, len(BiviumSim.KEY)), random_bits(rng, len(BiviumSim.IV))
    assert Mutant(key, iv, mode).keystream(64) != bivium_ref(key, iv, 64)
    with pytest.raises(AssertionError, match=r"^cycle \d+: "):
        _prove(Mutant, mode, _bivium_round)


@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
@pytest.mark.parametrize("cls", list(ORACLES), ids=lambda c: c.CIPHER)
def test_logical_programs_are_the_conventional_ones_and_parity_follows_the_stages(cls, mode):
    programs, conventional = programs_for(cls, mode), programs_for(cls, Mode.CONVENTIONAL)
    # the conventional programs are proven above; both modes share them
    assert programs.logical[0] is conventional.program(1)
    assert programs.logical[1] is conventional.program(cls.INIT_CYCLES + 1)
    parity = [0] * (cls.OUT + 1)
    for t in range(programs.steady_from + 2):
        assert programs.parity(t) == sum(bit << c for c, bit in enumerate(parity)), f"P_{t}"
        parity = _next_parity(parity, programs.program(t + 1))
    assert mode is Mode.PROPOSED or programs.parity(programs.steady_from) == 0
