"""Every sim class the tests run, with its keystream oracle.

``ORACLES`` maps each sim class to its oracle, ``(key bits, iv bits, n) ->
n keystream bits``.  A test that covers every cipher parametrizes over it
and takes the key and IV lengths from ``len(cls.KEY)`` and ``len(cls.IV)``,
so a new cipher needs its class and one row here.

``BiviumSim`` is Bivium-B (Raddum, "Cryptanalytic results on Trivium",
eSTREAM report 2006/039): Trivium reduced to its registers A and B, with
z = tA ^ tB.  It is not a feature and lives only here: it runs the generic
``CipherSim`` core on a netlist that core was not written for, with nothing
of it in ``src/``, ``costs.SIMS`` or the CLI.
"""

from implysim.gates import GateKind
from implysim.grain_cim import GrainSim
from implysim.programs import CipherSim, ProgramBuilder
from implysim.reference import grain128a_ref, trivium_ref
from implysim.trivium_cim import TriviumSim

# --- Bivium-B -------------------------------------------------------------------

BIVIUM_INIT_CYCLES = 708  # 4 x 177 cells, as Trivium runs 4 x 288


def bivium_round(s: list) -> tuple[list, int]:
    """One cycle on the state s1..s177 (list indices 0..176; registers
    A = s1..s93, B = s94..s177): the next state and the output bit z of the
    state given.  Uses only ``^`` and ``&``, so it also runs on symbolic
    bits."""
    t1 = s[65] ^ s[92]
    t2 = s[161] ^ s[176]
    z = t1 ^ t2
    t1 ^= (s[90] & s[91]) ^ s[170]
    t2 ^= (s[174] & s[175]) ^ s[68]
    return [t2] + s[:92] + [t1] + s[93:176], z


def bivium_ref(key: list, iv: list, n: int) -> list:
    """n keystream bits after the warm-up: key in s1..s80, IV in s94..s173,
    every other bit 0."""
    s = list(key) + [0] * 13 + list(iv) + [0] * 4
    out = []
    for i in range(BIVIUM_INIT_CYCLES + n):
        s, z = bivium_round(s)
        if i >= BIVIUM_INIT_CYCLES:
            out.append(z)
    return out


A0, B0 = 0, 93  # first cells of registers A and B
S = tuple(range(177, 182))  # work cells s0..s4
OUT = 182


def a(pos: int) -> int:
    return A0 + pos - 1


def b(pos: int) -> int:
    return B0 + pos - 1


def bivium_logic(pb: ProgramBuilder, keystream: bool, and_a=(91, 92), output=True):
    """Trivium's A and B blocks (``trivium_cim``), the output z = tA ^ tB
    and the inputs nA = pB ^ A69, nB = pA ^ B78.  ``and_a`` (the positions
    of A's AND2) and ``output`` (whether the keystream phase writes z) exist
    for the mutants."""
    s0, s1, s2, s3, s4 = S
    x = GateKind.XOR2_DESTRUCTIVE
    # tA = A66^A93 kept in s0, pA = tA^(A91&A92) into the expiring A93
    pb.gate(x, (a(66), a(93)), (s0, s1))
    pb.gate(GateKind.AND2, tuple(map(a, and_a)), (s1, s2))
    pb.gate(x, (s0, s2), (a(93), s1))
    # tB kept in s1, pB into B84
    pb.gate(x, (b(69), b(84)), (s1, s2))
    pb.gate(GateKind.AND2, (b(82), b(83)), (s2, s3))
    pb.gate(x, (s1, s3), (b(84), s2))
    if keystream and output:
        pb.gate(x, (s0, s1), (OUT, s2))
    pb.gate(x, (a(69), b(84)), (s0, s3))
    pb.gate(x, (b(78), a(93)), (s1, s3))
    return {"A": s0, "B": s1}, s4


class BiviumSim(CipherSim):
    """One Bivium-B instance on the array (183 cells: 177 register, 5 work,
    1 output)."""

    CIPHER = "bivium"
    INIT_CYCLES = BIVIUM_INIT_CYCLES
    MEMRISTORS = {"allocated": OUT + 1}
    REGISTERS = {"A": tuple(range(A0, B0)), "B": tuple(range(B0, S[0]))}
    OUT = OUT
    KEY = tuple(map(a, range(1, 81)))
    IV = tuple(map(b, range(1, 81)))
    ONES = ()
    _logic = staticmethod(bivium_logic)


#: sim class -> keystream oracle, for every cipher the tests cover
ORACLES = {TriviumSim: trivium_ref, GrainSim: grain128a_ref, BiviumSim: bivium_ref}
