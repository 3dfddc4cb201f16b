"""Per-cycle shift planning for serial-IMPLY shift registers.

A register of N cells performs N transfers per cycle: the injection into
position 1 plus every internal move m -> m+1 (positions are 1-based in flow
order, so a bit enters at 1 and ages toward N).  Each transfer is realised
either as a buffer (two cascaded inverters, 4 steps, polarity preserving) or
as a single inverter (2 steps, polarity flipping).

Replacing buffers with inverters is sound as long as every *tap* -- a cell
consumed by the cipher logic -- holds its true (uncomplemented) value at the
start of every cycle.  ``plan`` tracks one parity bit per cell, all of them
in one int (bit m-1 for position m): a cell's stored bit equals its logical
value XOR parity.  Transfers into tap cells are forced to whatever element
zeroes the tap's parity; every other transfer is free and uses the mode's
free element, the cheaper inverter when proposed and a buffer when
conventional.  This greedy rule realises the published distance-parity
scheme: a tap at distance d behind its feeding tap (or the register input)
alternates buffer/inverter for d cycles and then settles on an inverter
when d is odd and a buffer when d is even, and adjacent tap pairs are
buffered in every cycle.  So every plan is a finite transitional prefix
followed by one steady row, and ``plan`` always runs to that fixed point;
horizons belong to the functions that read a plan; ``ShiftPlan.parities``
replays the parity walk over any plan's rows.  A row is ``bytes``, byte
m-1 = 1 where transfer m is an inverter (the form of ``ShiftStage.flips``),
and each distinct row is one object shared by every cycle that uses it.
"""

from __future__ import annotations

import enum
from itertools import chain, islice, repeat
from typing import Iterator, NamedTuple, TextIO

from .engine import LayoutError

_BITS = bytes.maketrans(b"\0\1", b"01")  # a plan row as the digits of a binary int


class SchedulingError(RuntimeError):
    """No polarity-consistent element assignment exists."""


class Element(enum.IntEnum):
    BUFFER = 0
    INVERTER = 1


class Mode(enum.Enum):
    CONVENTIONAL = "conventional"
    PROPOSED = "proposed"


class _Layout(NamedTuple):
    name: str
    length: int
    taps: frozenset[int]


class RegisterLayout(_Layout):
    """Geometry of one shift register, in flow order.

    ``taps`` are the 1-based positions read by the logic in every cycle.
    Position 1 receives the injected value; position N holds the oldest bit.
    """

    __slots__ = ()

    def __new__(cls, name: str, length: int, taps: frozenset[int]):
        if length <= 0:
            raise LayoutError(f"register {name}: length must be positive")
        bad = [t for t in taps if not (1 <= t <= length)]
        if bad:
            raise LayoutError(f"register {name}: taps out of range: {bad}")
        return super().__new__(cls, name, length, taps)

    @property
    def tap_pairs(self) -> list[tuple[int, int]]:
        """Adjacent tap positions (k, k+1); the k -> k+1 transfer is buffer-only."""
        return [(t, t + 1) for t in sorted(self.taps) if (t + 1) in self.taps]


class ShiftPlan(NamedTuple):
    """Per-cycle element choice for each of a register's N transfers.

    Transfer m (1-based) writes into position m; transfer 1 is the injection.
    A row is ``bytes``, byte m-1 an ``Element`` value.  ``prefix`` holds the
    transitional cycles; ``steady`` repeats afterwards.
    """

    register: str
    length: int
    prefix: tuple[bytes, ...]
    steady: bytes

    def elements(self, cycle: int) -> bytes:
        if cycle < 1:
            raise ValueError("cycles are 1-based")
        return self.prefix[cycle - 1] if cycle <= len(self.prefix) else self.steady

    def census(self, cycle: int) -> tuple[int, int]:
        """(buffers, inverters) used in one cycle."""
        elems = self.elements(cycle)
        inv = sum(elems)
        return len(elems) - inv, inv

    def with_element(self, cycle: int, transfer: int, element: Element) -> "ShiftPlan":
        """Copy of the plan with one transfer overridden (test hook)."""
        if cycle < 1:
            raise ValueError("cycles are 1-based")
        if not (1 <= transfer <= self.length):
            raise ValueError(f"transfer {transfer} out of range")
        if element not in (Element.BUFFER, Element.INVERTER):
            raise ValueError(f"element {element!r} is neither a buffer nor an inverter")
        rows = [self.elements(t) for t in range(1, max(cycle, len(self.prefix)) + 1)]
        row = bytearray(rows[cycle - 1])
        row[transfer - 1] = element
        rows[cycle - 1] = bytes(row)
        return ShiftPlan(self.register, self.length, tuple(rows), self.steady)

    def parities(self) -> Iterator[int]:
        """P_0, P_1, ...: the parity of every position after each cycle, one
        int per cycle with bit m-1 for position m; endless.  It replays
        ``plan``'s recurrence over the plan's own rows, so it holds for any
        plan, one built by ``with_element`` too."""
        full = (1 << self.length) - 1
        pi = 0  # injected values are true polarity
        for row in chain(self.prefix, repeat(self.steady)):
            yield pi
            pi = (pi << 1) & full ^ int(row[::-1].translate(_BITS), 2)


def plan(layout: RegisterLayout, mode: Mode) -> ShiftPlan:
    """The mode's plan: taps held at true polarity, every other transfer the
    mode's free element (an inverter when proposed, a buffer when conventional).

    Position m's parity depends only on position m-1's, and the injected
    value's parity is always 0, so position m's parity is constant after m
    cycles: ``length + 1`` cycles always reach the fixed point.  ``mode``
    may be a ``Mode`` or its value; anything else raises ``ValueError``.
    """
    mode = Mode(mode)
    n = layout.length
    full = (1 << n) - 1
    taps = sum(1 << (m - 1) for m in layout.taps)
    free = full & ~taps if mode is Mode.PROPOSED else 0
    rows: dict[int, bytes] = {}  # one bytes object per distinct row
    prefix: list[bytes] = []
    pi = 0  # parity of every position; injected values are true polarity
    for _ in range(n + 1):
        src = (pi << 1) & full  # the parity each transfer reads
        row = src & taps | free  # a tap's transfer cancels its source parity
        if row not in rows:
            rows[row] = bytes((row >> m) & 1 for m in range(n))
        if src ^ row == pi:
            # parity state is a fixed point: this cycle repeats forever
            return ShiftPlan(layout.name, n, tuple(prefix), rows[row])
        prefix.append(rows[row])
        pi = src ^ row
    raise SchedulingError(f"register {layout.name}: no parity fixed point in {n + 1} cycles")


def verify_polarity(plan: ShiftPlan, layout: RegisterLayout, cycles: int) -> bool:
    """True iff every tap has parity 0 at the start of each of cycles 1..cycles."""
    if layout.length != plan.length:
        raise LayoutError("plan/layout length mismatch")
    # taps are consumed at the start of cycle t, before its shift: P_{t-1}
    taps = sum(1 << (m - 1) for m in layout.taps)
    return not any(pi & taps for pi in islice(plan.parities(), cycles))


def count_elements(plan: ShiftPlan, first: int, last: int) -> tuple[int, int]:
    """(buffers, inverters) summed over cycles ``first..last`` inclusive."""
    buffers = inverters = 0
    t = first
    # walk the transitional cycles, then close the steady tail in one shot
    while t <= last and t <= len(plan.prefix):
        b, i = plan.census(t)
        buffers += b
        inverters += i
        t += 1
    if t <= last:
        b, i = plan.census(t)
        buffers += b * (last - t + 1)
        inverters += i * (last - t + 1)
    return buffers, inverters


def write_csv(plan: ShiftPlan, fileobj: TextIO, cycles: int) -> None:
    """Dump rows `cycle,transfer_from,transfer_to,element` for cycles 1..cycles."""
    fileobj.write("cycle,transfer_from,transfer_to,element\n")
    for t in range(1, cycles + 1):
        for m, e in enumerate(plan.elements(t), start=1):
            src = "input" if m == 1 else str(m - 1)
            fileobj.write(f"{t},{src},{m},{'inverter' if e else 'buffer'}\n")
