"""LSB steganography over 8-bit grayscale images, with PSNR and histograms.

Images hold their pixels as ``bytes``, one byte per pixel in row-major
order.  Interchange format is binary PGM (P5, maxval 255).  Payload bits,
held as ``bytes`` of one 0/1 byte per bit, are embedded one per pixel LSB in
row-major order from the top-left pixel, preceded by a 32-bit big-endian
header holding the payload bit count so extraction is self-delimiting.
"""

from __future__ import annotations

import itertools
import math
from pathlib import Path
from typing import NamedTuple, TextIO, Union

from .reference import bits_to_bytes_msb_first, bytes_to_bits_msb_first

HEADER_BITS = 32
_LSB = bytes(value & 1 for value in range(256))  # translate table: pixel -> its LSB


class CapacityError(ValueError):
    """Payload (plus header) exceeds the image's pixel count."""


class FormatError(ValueError):
    """Not a binary PGM we can handle (P5, maxval 255)."""


class CorruptPayloadError(ValueError):
    """Extraction header declares more bits than the image can hold."""


class _Image(NamedTuple):
    width: int
    height: int
    pixels: bytes


class GrayImage(_Image):
    """8-bit grayscale image; ``pixels`` holds one byte per pixel, row-major."""

    __slots__ = ()

    def __new__(cls, width: int, height: int, pixels: bytes):
        if width < 0 or height < 0 or len(pixels) != width * height:
            raise FormatError(f"{len(pixels)} pixels do not fill a {width}x{height} image")
        return super().__new__(cls, width, height, pixels)

    @property
    def pixel_count(self) -> int:
        return len(self.pixels)


def read_pgm(path: Union[str, Path]) -> GrayImage:
    """Bit-exact binary PGM (P5) reader; comments and maxval 255 only."""
    data = Path(path).read_bytes()
    if not (data.startswith(b"P5") and data[2:3].isspace()):
        raise FormatError("not a P5 (binary) PGM file")
    pos = 2
    fields = []
    while len(fields) < 3:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise FormatError("truncated PGM header")
        fields.append(data[start:pos])
    pos += 1  # single whitespace after maxval
    if not all(f.isdigit() for f in fields):  # ASCII digits only: no sign
        raise FormatError(f"bad PGM header fields: {fields}")
    width, height, maxval = (int(f) for f in fields)
    if maxval != 255:
        raise FormatError(f"only maxval 255 supported, got {maxval}")
    return GrayImage(width, height, data[pos : pos + width * height])  # raises if short


def write_pgm(image: GrayImage, path: Union[str, Path]) -> None:
    header = f"P5\n{image.width} {image.height}\n255\n".encode()
    Path(path).write_bytes(header + image.pixels)


class StegoPayload(NamedTuple):
    bits: bytes  # one 0/1 byte per payload bit, in embedding order

    @classmethod
    def from_bytes(cls, data: bytes) -> "StegoPayload":
        # message bytes are embedded MSB-first
        return cls(bytes_to_bits_msb_first(data))

    def to_bytes(self) -> bytes:
        if len(self.bits) % 8:
            raise CorruptPayloadError("payload bit count is not a whole number of bytes")
        return bits_to_bytes_msb_first(self.bits)  # packs into one bytearray, no list of ints


def capacity_bits(image: GrayImage) -> int:
    """Payload bits the image can carry after the length header."""
    return max(image.pixel_count - HEADER_BITS, 0)


def check_capacity(image: GrayImage, n_bits: int) -> None:
    """Raise ``CapacityError`` unless ``n_bits`` payload bits fit the image."""
    if image.pixel_count < HEADER_BITS:
        raise CapacityError(
            f"cover of {image.pixel_count} pixels cannot hold the {HEADER_BITS}-bit length header"
        )
    if HEADER_BITS + n_bits > image.pixel_count:
        raise CapacityError(f"payload of {n_bits} bits exceeds capacity {capacity_bits(image)}")


def embed_lsb(image: GrayImage, payload: StegoPayload) -> GrayImage:
    bits = payload.bits
    if max(bits, default=0) > 1:
        raise ValueError("payload must be 0/1 bits")
    check_capacity(image, len(bits))
    out = bytearray(image.pixels)
    lsbs = itertools.chain(StegoPayload.from_bytes(len(bits).to_bytes(HEADER_BITS // 8, "big")).bits, bits)
    out[: HEADER_BITS + len(bits)] = bytes((pixel & 0xFE) | bit for pixel, bit in zip(out, lsbs))
    return GrayImage(image.width, image.height, bytes(out))


def extract_lsb(image: GrayImage) -> StegoPayload:
    pixels = image.pixels
    if len(pixels) < HEADER_BITS:
        raise CorruptPayloadError("image too small to hold a header")
    count = int.from_bytes(StegoPayload(pixels[:HEADER_BITS].translate(_LSB)).to_bytes(), "big")
    if HEADER_BITS + count > len(pixels):
        raise CorruptPayloadError(
            f"header declares {count} bits but image holds at most {capacity_bits(image)}"
        )
    return StegoPayload(pixels[HEADER_BITS : HEADER_BITS + count].translate(_LSB))


def psnr(a: GrayImage, b: GrayImage) -> float:
    """10*log10(255^2 / MSE); infinity for identical images."""
    if (a.width, a.height) != (b.width, b.height):
        raise ValueError(f"dimension mismatch: {a.width}x{a.height} vs {b.width}x{b.height}")
    sse = sum((x - y) * (x - y) for x, y in zip(a.pixels, b.pixels))
    if sse == 0:
        return float("inf")
    return 10.0 * math.log10(255**2 * len(a.pixels) / sse)


def histogram(image: GrayImage) -> list[int]:
    return [image.pixels.count(value) for value in range(256)]


def write_histogram_csv(image: GrayImage, fileobj: TextIO) -> None:
    fileobj.write("bin,count\n")
    for i, count in enumerate(histogram(image)):
        fileobj.write(f"{i},{count}\n")
