"""Trivium mapped onto a serial IMPLY row.

Cell map (294 cells): A1..A93 at 0..92, B1..B84 at 93..176, C1..C111 at
177..287, work cells s0..s4 at 288..292, output at 293.  Register positions
are 1-based to match the cipher's tap numbering.

Per cycle the logic is: for each register, the pair-tap XOR and the
adjacent-cell AND are folded into a partial feedback (2 destructive XOR2 +
1 AND2, 23 steps per register); the three register inputs then each take one
more destructive XOR2 (27 steps); in the keystream phase the output bit
costs two further destructive XOR2 (18 steps).  That is 96 logic steps per
initialization cycle and 114 per keystream cycle, with destructive XOR
operands always bound so that the overwritten cell is either expiring
(A93/B84/C111) or scratch.  ``TriviumSim`` declares the key, IV and
constant cells, the registers and this logic; ``CipherSim`` loads the key
and IV, appends the shifts under the selected plan and derives each
register's taps from the cells the logic reads.
"""

from __future__ import annotations

from .gates import GateKind
from .programs import CipherSim, ProgramBuilder
from .reference import trivium_key_bits

INIT_CYCLES = 1152

# allocated cells: 288 register + 5 work + 1 output; the published figure
# of 293 leaves the output cell out of the total
MEMRISTORS_ALLOCATED = 294
MEMRISTORS_REPORTED = 293

A0, B0, C0 = 0, 93, 177  # first cells of registers A, B and C
S = tuple(range(288, 293))  # work cells s0..s4
OUT = 293


def a(pos: int) -> int:
    return A0 + pos - 1


def b(pos: int) -> int:
    return B0 + pos - 1


def c(pos: int) -> int:
    return C0 + pos - 1


class TriviumSim(CipherSim):
    """One Trivium instance on the array; lanes advance in lockstep."""

    CIPHER = "trivium"
    INIT_CYCLES = INIT_CYCLES
    MEMRISTORS = {"allocated": MEMRISTORS_ALLOCATED, "reported": MEMRISTORS_REPORTED}
    # position 1, the injected cell, first
    REGISTERS = {"A": tuple(range(A0, B0)), "B": tuple(range(B0, C0)), "C": tuple(range(C0, S[0]))}
    OUT = OUT
    # key in A's 80 LSBs, IV in B's, C109..C111 set
    KEY = tuple(map(a, range(1, 81)))
    IV = tuple(map(b, range(1, 81)))
    ONES = (c(109), c(110), c(111))

    @staticmethod
    def key_iv_bits(key_hex: str, iv_hex: str):
        """The key and IV bits of 20 hex chars each (eSTREAM convention, see ``reference``)."""
        return trivium_key_bits(key_hex, "key"), trivium_key_bits(iv_hex, "iv")

    @staticmethod
    def _logic(pb: ProgramBuilder, keystream: bool):
        s0, s1, s2, s3, s4 = S
        x = GateKind.XOR2_DESTRUCTIVE
        # register A block: tA = A66^A93 kept in s0, partial pA = tA^(A91&A92)
        # lands in the expiring cell A93
        pb.gate(x, (a(66), a(93)), (s0, s1))
        pb.gate(GateKind.AND2, (a(91), a(92)), (s1, s2))
        pb.gate(x, (s0, s2), (a(93), s1))
        # register B block
        pb.gate(x, (b(69), b(84)), (s1, s2))
        pb.gate(GateKind.AND2, (b(82), b(83)), (s2, s3))
        pb.gate(x, (s1, s3), (b(84), s2))
        # register C block
        pb.gate(x, (c(66), c(111)), (s2, s3))
        pb.gate(GateKind.AND2, (c(109), c(110)), (s3, s4))
        pb.gate(x, (s2, s4), (c(111), s3))
        if keystream:
            # z = tA ^ tB ^ tC, finishing in the output cell; must run before
            # the input XORs reuse s0..s2
            pb.gate(x, (s0, s1), (s3, s4))
            pb.gate(x, (s2, s3), (OUT, s4))
        # register inputs: nA = pC ^ A69 etc., each into the work cell the
        # shift stage injects from
        pb.gate(x, (a(69), c(111)), (s0, s3))
        pb.gate(x, (b(78), a(93)), (s1, s3))
        pb.gate(x, (c(87), b(84)), (s2, s3))
        return {"A": s0, "B": s1, "C": s2}, s4
