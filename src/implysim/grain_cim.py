"""Grain-128a (keystream mode) mapped onto a serial IMPLY row.

Cell map (263 cells): NFSR b0..b127 at 0..127, LFSR s0..s127 at 128..255,
work cells w0..w5 at 256..261, output at 262.  The output cell is only
touched in the keystream phase, so the pre-initialization stage uses 262
memristors and keystream generation 263.

Cycle structure (keystream): h(x) in 62 steps (4 AND2 + 1 AND3 + 4
destructive XOR2), the output function's NFSR sum in 56 steps (1
non-destructive + 5 destructive XOR2), the final output pair of XOR2 in 18,
the LFSR feedback in 47 (1 non-destructive + 4 destructive XOR2), and the
NFSR feedback in 195 (1 non-destructive + 14 destructive XOR2, 7 AND2,
2 AND3, 1 AND4), followed by the shifts.  Destructive XOR2 always binds the
overwritten operand to a scratch accumulator, so every register cell holds
its value until the end-of-cycle shift.  In the pre-init phase the output
bit is folded into both register feedbacks with two extra destructive XOR2.

Values flow from index 127 toward index 0 in both registers, so the shift
planner sees position 1 as cell 127 and position 128 as cell 0.  ``GrainSim``
declares the key, IV and constant cells, the registers and this logic;
``CipherSim`` loads the key and IV, appends the shifts and derives the taps
from the cells the logic reads, and ``LFSR_TAP_IDX`` and ``NFSR_TAP_IDX``
restate them as register indices.
"""

from __future__ import annotations

from .gates import GateKind
from .programs import CipherSim, ProgramBuilder

PREINIT_CYCLES = 256

MEMRISTORS_PREINIT = 262
MEMRISTORS_KEYSTREAM = 263

NB, NS = 128, 128
B0, S0 = 0, 128
W = tuple(range(256, 262))
OUT = 262

def b(i: int) -> int:
    return B0 + i


def s(i: int) -> int:
    return S0 + i


# NFSR feedback: linear terms then the product terms, register indices
_NFSR_LINEAR = (26, 56, 91, 96)
_NFSR_PRODUCTS = (
    (GateKind.AND2, (3, 67)),
    (GateKind.AND2, (11, 13)),
    (GateKind.AND2, (17, 18)),
    (GateKind.AND2, (27, 59)),
    (GateKind.AND2, (40, 48)),
    (GateKind.AND2, (61, 65)),
    (GateKind.AND2, (68, 84)),
    (GateKind.AND3, (22, 24, 25)),
    (GateKind.AND3, (70, 78, 82)),
    (GateKind.AND4, (88, 92, 93, 95)),
)
_LFSR_TERMS = (0, 7, 38, 70, 81, 96)
_Y_NFSR_TERMS = (2, 15, 36, 45, 64, 73, 89)


class _Pool:
    """Work-cell allocator for one cycle build; peak demand is exactly six."""

    def __init__(self, cells):
        self.free = list(cells)

    def alloc(self) -> int:
        if not self.free:
            raise RuntimeError("work cells exhausted")
        return self.free.pop(0)

    def release(self, *cells: int) -> None:
        for cell in cells:
            self.free.append(cell)


def _xor_fold(pb, pool, term, acc):
    """acc' = term XOR acc, destroying only the old accumulator."""
    wx, wy = pool.alloc(), pool.alloc()
    out = pb.gate(GateKind.XOR2_DESTRUCTIVE, (term, acc), (wx, wy))
    pool.release(acc, wy)
    return out


def _xor_chain(pb, pool, terms):
    """XOR of register cells: non-destructive first pair, then folds."""
    w1, w2, w3 = pool.alloc(), pool.alloc(), pool.alloc()
    acc = pb.gate(GateKind.XOR2_NONDESTRUCTIVE, terms[:2], (w1, w2, w3))
    pool.release(w2, w3)
    for t in terms[2:]:
        acc = _xor_fold(pb, pool, t, acc)
    return acc


def _product_into(pb, pool, kind, cells, acc):
    u, v = pool.alloc(), pool.alloc()
    prod = pb.gate(kind, cells, (u, v))
    pool.release(u)
    wx, wy = pool.alloc(), pool.alloc()
    out = pb.gate(GateKind.XOR2_DESTRUCTIVE, (prod, acc), (wx, wy))
    pool.release(acc, v, wy)
    return out


class GrainSim(CipherSim):
    """One Grain-128a instance on the array; lanes advance in lockstep."""

    CIPHER = "grain128a"
    INIT_CYCLES = PREINIT_CYCLES
    MEMRISTORS = {"preinit": MEMRISTORS_PREINIT, "keystream": MEMRISTORS_KEYSTREAM}
    # flow order: position 1, the injected cell, is index 127
    REGISTERS = {
        "LFSR": tuple(s(127 - j) for j in range(NS)),
        "NFSR": tuple(b(127 - j) for j in range(NB)),
    }
    OUT = OUT
    # key -> b0..b127, iv -> s0..s95, s96..s126 set, s127 left 0
    KEY = tuple(map(b, range(128)))
    IV = tuple(map(s, range(96)))
    ONES = tuple(map(s, range(96, 127)))

    @staticmethod
    def _logic(pb: ProgramBuilder, keystream: bool):
        pool = _Pool(W)
        # h(x): four pairwise products plus one triple, XOR-chained
        u, v = pool.alloc(), pool.alloc()
        h = pb.gate(GateKind.AND2, (b(12), s(8)), (u, v))
        pool.release(u)
        for kind, cells in (
            (GateKind.AND2, (s(13), s(20))),
            (GateKind.AND2, (b(95), s(42))),
            (GateKind.AND2, (s(60), s(79))),
            (GateKind.AND3, (b(12), b(95), s(94))),
        ):
            h = _product_into(pb, pool, kind, cells, h)
        # output function's NFSR sum
        bsum = _xor_chain(pb, pool, [b(i) for i in _Y_NFSR_TERMS])
        # y = h XOR s93 XOR bsum, landing in the output cell when emitted
        y1 = _xor_fold(pb, pool, s(93), h)
        if keystream:
            wy = pool.alloc()
            y = pb.gate(GateKind.XOR2_DESTRUCTIVE, (y1, bsum), (OUT, wy))
            pool.release(y1, bsum, wy)
        else:
            wx, wy = pool.alloc(), pool.alloc()
            y = pb.gate(GateKind.XOR2_DESTRUCTIVE, (y1, bsum), (wx, wy))
            pool.release(y1, bsum, wy)
        # LFSR feedback
        fl = _xor_chain(pb, pool, [s(i) for i in _LFSR_TERMS])
        # NFSR feedback: linear part then the ten products
        fn = _xor_chain(pb, pool, [s(0), b(0)] + [b(i) for i in _NFSR_LINEAR])
        for kind, idx in _NFSR_PRODUCTS:
            fn = _product_into(pb, pool, kind, tuple(b(i) for i in idx), fn)
        if not keystream:
            # output feedback into both register inputs
            wx, wy = pool.alloc(), pool.alloc()
            fl2 = pb.gate(GateKind.XOR2_DESTRUCTIVE, (y, fl), (wx, wy))
            pool.release(fl, wy)
            wx, wy = pool.alloc(), pool.alloc()
            fn2 = pb.gate(GateKind.XOR2_DESTRUCTIVE, (fn, y), (wx, wy))
            pool.release(fn, y, wy)
            fl, fn = fl2, fn2
        return {"LFSR": fl, "NFSR": fn}, pool.alloc()  # a free work cell as the scratch


# the register indices the logic reads, derived from the flow-order taps
LFSR_TAP_IDX = frozenset(NS - pos for pos in GrainSim.LAYOUTS["LFSR"].taps)
NFSR_TAP_IDX = frozenset(NB - pos for pos in GrainSim.LAYOUTS["NFSR"].taps)
