"""LSB steganography over 8-bit grayscale images, with PSNR and histograms.

Interchange format is binary PGM (P5, maxval 255).  Payload bits are
embedded one per pixel LSB in row-major order from the top-left pixel,
preceded by a 32-bit big-endian header holding the payload bit count so
extraction is self-delimiting.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TextIO, Union

import numpy as np

from .reference import bits_to_bytes_msb_first, bytes_to_bits_msb_first

HEADER_BITS = 32


class CapacityError(ValueError):
    """Payload (plus header) exceeds the image's pixel count."""


class FormatError(ValueError):
    """Not a binary PGM we can handle (P5, maxval 255)."""


class CorruptPayloadError(ValueError):
    """Extraction header declares more bits than the image can hold."""


@dataclass
class GrayImage:
    """8-bit grayscale image; pixels stored row-major."""

    pixels: np.ndarray  # uint8, shape (height, width)

    def __post_init__(self):
        if self.pixels.ndim != 2 or self.pixels.dtype != np.uint8:
            raise FormatError("pixels must be a 2-D uint8 array")

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def pixel_count(self) -> int:
        return self.pixels.size

    def copy(self) -> "GrayImage":
        return GrayImage(self.pixels.copy())


def read_pgm(path: Union[str, Path]) -> GrayImage:
    """Bit-exact binary PGM (P5) reader; comments and maxval 255 only."""
    data = Path(path).read_bytes()
    if not data.startswith(b"P5"):
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
    raster = data[pos : pos + width * height]
    if len(raster) != width * height:
        raise FormatError("PGM raster shorter than width*height")
    return GrayImage(np.frombuffer(raster, dtype=np.uint8).reshape(height, width).copy())


def write_pgm(image: GrayImage, path: Union[str, Path]) -> None:
    header = f"P5\n{image.width} {image.height}\n255\n".encode()
    Path(path).write_bytes(header + image.pixels.tobytes())


@dataclass
class StegoPayload:
    bits: list[int]

    @classmethod
    def from_bytes(cls, data: bytes) -> "StegoPayload":
        # message bytes are embedded MSB-first
        return cls(bytes_to_bits_msb_first(data))

    def to_bytes(self) -> bytes:
        if len(self.bits) % 8:
            raise CorruptPayloadError("payload bit count is not a whole number of bytes")
        return bits_to_bytes_msb_first(self.bits)


def capacity_bits(image: GrayImage) -> int:
    """Payload bits the image can carry after the length header."""
    return max(image.pixel_count - HEADER_BITS, 0)


def check_capacity(image: GrayImage, n_bits: int) -> None:
    """Raise ``CapacityError`` unless ``n_bits`` payload bits fit the image."""
    if HEADER_BITS + n_bits > image.pixel_count:
        raise CapacityError(f"payload of {n_bits} bits exceeds capacity {capacity_bits(image)}")


def embed_lsb(image: GrayImage, payload: StegoPayload) -> GrayImage:
    bits = payload.bits
    if any(bit not in (0, 1) for bit in bits):
        raise ValueError("payload must be 0/1 bits")
    check_capacity(image, len(bits))
    header = [(len(bits) >> (31 - i)) & 1 for i in range(HEADER_BITS)]
    stream = np.array(header + list(bits), dtype=np.uint8)
    out = image.pixels.copy()
    flat = out.reshape(-1)
    flat[: stream.size] = (flat[: stream.size] & 0xFE) | stream
    return GrayImage(out)


def extract_lsb(image: GrayImage) -> StegoPayload:
    flat = image.pixels.reshape(-1)
    if flat.size < HEADER_BITS:
        raise CorruptPayloadError("image too small to hold a header")
    header = flat[:HEADER_BITS] & 1
    count = 0
    for bit in header:
        count = (count << 1) | int(bit)
    if HEADER_BITS + count > flat.size:
        raise CorruptPayloadError(
            f"header declares {count} bits but image holds at most {capacity_bits(image)}"
        )
    bits = flat[HEADER_BITS : HEADER_BITS + count] & 1
    return StegoPayload([int(bit) for bit in bits])


def psnr(a: GrayImage, b: GrayImage) -> float:
    """10*log10(255^2 / MSE); infinity for identical images."""
    if a.pixels.shape != b.pixels.shape:
        raise ValueError(f"dimension mismatch: {a.pixels.shape} vs {b.pixels.shape}")
    diff = a.pixels.astype(np.float64) - b.pixels.astype(np.float64)
    mse = float(np.mean(diff * diff))
    if mse == 0.0:
        return float("inf")
    return 10.0 * float(np.log10(255.0**2 / mse))


def histogram(image: GrayImage) -> list[int]:
    return np.bincount(image.pixels.reshape(-1), minlength=256).tolist()


def write_histogram_csv(image: GrayImage, fileobj: TextIO) -> None:
    fileobj.write("bin,count\n")
    for i, count in enumerate(histogram(image)):
        fileobj.write(f"{i},{count}\n")
