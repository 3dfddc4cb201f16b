"""Plain bit-level Trivium and Grain-128a keystream oracles.

These are the correctness references for the in-memory simulations: direct
transcriptions of the ciphers' update equations over Python bit lists,
optimised for reviewability.

Hex conventions (shared with the CLI so oracle and simulator agree):

* Trivium (80-bit key/IV as 20 hex chars): the eSTREAM test-vector
  convention -- bytes taken in *reverse* order, most-significant bit of each
  byte first, so K1 is the MSB of the last byte.  Keystream bits pack
  LSB-first into bytes (z1 is bit 0 of byte 0).  Verified against the
  published vector for key 80000000000000000000 / zero IV.
* Grain-128a (128-bit key / 96-bit IV): the Grain reference convention --
  bytes in order, least-significant bit first, so k0 is bit 0 of byte 0.
  Keystream bits pack LSB-first as well.
"""

from __future__ import annotations

from typing import Sequence

Bits = list[int]
_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")


class InputError(ValueError):
    """Key/IV/message material has the wrong length or alphabet."""


def _check_bits(bits: Sequence[int], n: int, what: str) -> Bits:
    if len(bits) != n:
        raise InputError(f"{what} must be {n} bits, got {len(bits)}")
    if any(b not in (0, 1) for b in bits):
        raise InputError(f"{what} must contain only 0/1")
    return list(bits)


# --- bit/hex helpers --------------------------------------------------------


def hex_to_bytes(s: str, nbytes: int, what: str) -> bytes:
    s = s.strip()
    if len(s) != 2 * nbytes:
        raise InputError(f"{what} must be {2 * nbytes} hex chars, got {len(s)}")
    # bytes.fromhex would skip inner whitespace and return too few bytes
    if not set(s) <= _HEX_DIGITS:
        raise InputError(f"{what} is not valid hex: use only 0-9, a-f and A-F")
    return bytes.fromhex(s)


def trivium_key_bits(hex20: str, what: str = "key") -> Bits:
    """K1..K80 from 20 hex chars (eSTREAM convention, see module docstring)."""
    raw = hex_to_bytes(hex20, 10, what)
    return [(byte >> (7 - j)) & 1 for byte in raw[::-1] for j in range(8)]


def grain_key_bits(hexstr: str, nbytes: int, what: str = "key") -> Bits:
    """k0..k(8n-1) from hex (Grain reference convention)."""
    raw = hex_to_bytes(hexstr, nbytes, what)
    return [(byte >> j) & 1 for byte in raw for j in range(8)]


def bits_to_bytes_lsb_first(bits: Sequence[int]) -> bytes:
    """Pack bits into bytes, first bit into bit 0 of byte 0 (zero-padded)."""
    out = bytearray((len(bits) + 7) // 8)
    for i, b in enumerate(bits):
        if b:
            out[i >> 3] |= 1 << (i & 7)
    return bytes(out)


def bytes_to_bits_msb_first(data: bytes) -> bytes:
    """Unpack message bytes MSB-first (the payload's embedding order), one 0/1 byte per bit."""
    return bytes((byte >> (7 - j)) & 1 for byte in data for j in range(8))


def bits_to_bytes_msb_first(bits: Sequence[int]) -> bytes:
    if len(bits) % 8:
        raise InputError("bit count must be a multiple of 8")
    out = bytearray(len(bits) // 8)
    for i, b in enumerate(bits):
        if b:
            out[i >> 3] |= 1 << (7 - (i & 7))
    return bytes(out)


# --- Trivium ----------------------------------------------------------------

TRIVIUM_WARMUP = 1152


def trivium_round(s: Bits) -> tuple[Bits, int]:
    """One cycle on the state s1..s288 (list indices 0..287; registers
    A = s1..s93, B = s94..s177, C = s178..s288): the next state and the
    output bit z of the state given.  Uses only ``^`` and ``&``, so it also
    runs on symbolic bits."""
    t1 = s[65] ^ s[92]
    t2 = s[161] ^ s[176]
    t3 = s[242] ^ s[287]
    z = t1 ^ t2 ^ t3
    t1 ^= (s[90] & s[91]) ^ s[170]
    t2 ^= (s[174] & s[175]) ^ s[263]
    t3 ^= (s[285] & s[286]) ^ s[68]
    return [t3] + s[:92] + [t1] + s[93:176] + [t2] + s[177:287], z


def trivium_ref(key: Sequence[int], iv: Sequence[int], n: int) -> Bits:
    """n keystream bits after the 1152 warm-up cycles."""
    key = _check_bits(key, 80, "key")
    iv = _check_bits(iv, 80, "iv")
    if n < 0:
        raise ValueError("n must be >= 0")
    s = [0] * 288
    s[0:80] = key
    s[93:173] = iv
    s[285] = s[286] = s[287] = 1
    out = []
    for i in range(TRIVIUM_WARMUP + n):
        s, z = trivium_round(s)
        if i >= TRIVIUM_WARMUP:
            out.append(z)
    return out


# --- Grain-128a (keystream mode) ---------------------------------------------

GRAIN_PREINIT = 256


def _grain_y(b: Bits, s: Bits) -> int:
    h = (
        (b[12] & s[8])
        ^ (s[13] & s[20])
        ^ (b[95] & s[42])
        ^ (s[60] & s[79])
        ^ (b[12] & b[95] & s[94])
    )
    return h ^ s[93] ^ b[2] ^ b[15] ^ b[36] ^ b[45] ^ b[64] ^ b[73] ^ b[89]


def _grain_lfsr_fb(s: Bits) -> int:
    return s[0] ^ s[7] ^ s[38] ^ s[70] ^ s[81] ^ s[96]


def _grain_nfsr_fb(b: Bits, s: Bits) -> int:
    return (
        s[0]
        ^ b[0]
        ^ b[26]
        ^ b[56]
        ^ b[91]
        ^ b[96]
        ^ (b[3] & b[67])
        ^ (b[11] & b[13])
        ^ (b[17] & b[18])
        ^ (b[27] & b[59])
        ^ (b[40] & b[48])
        ^ (b[61] & b[65])
        ^ (b[68] & b[84])
        ^ (b[22] & b[24] & b[25])
        ^ (b[70] & b[78] & b[82])
        ^ (b[88] & b[92] & b[93] & b[95])
    )


def grain_round(b: Bits, s: Bits, preinit: bool = False) -> tuple[Bits, Bits, int]:
    """One cycle: the next NFSR and LFSR states and the output y of the
    states given, which pre-init folds into both feedbacks.  Uses only
    ``^`` and ``&``, so it also runs on symbolic bits."""
    y = _grain_y(b, s)
    fl, fn = _grain_lfsr_fb(s), _grain_nfsr_fb(b, s)
    if preinit:
        fl, fn = fl ^ y, fn ^ y
    return b[1:] + [fn], s[1:] + [fl], y


def grain128a_ref(key: Sequence[int], iv: Sequence[int], n: int) -> Bits:
    """n keystream bits after the 256 pre-init cycles with output feedback."""
    key = _check_bits(key, 128, "key")
    iv = _check_bits(iv, 96, "iv")
    if n < 0:
        raise ValueError("n must be >= 0")
    b = list(key)
    s = list(iv) + [1] * 31 + [0]
    for _ in range(GRAIN_PREINIT):
        b, s, _y = grain_round(b, s, preinit=True)
    out = []
    for _ in range(n):
        b, s, y = grain_round(b, s)
        out.append(y)
    return out


# --- stream XOR ---------------------------------------------------------------


def xorcrypt(message: Sequence[int], keystream: Sequence[int]) -> Bits:
    """Bitwise XOR; involutive, so it both encrypts and decrypts."""
    if len(message) != len(keystream):
        raise InputError(
            f"message ({len(message)} bits) and keystream ({len(keystream)} bits) differ"
        )
    return [m ^ k for m, k in zip(message, keystream)]
