import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from implysim.stego import (
    HEADER_BITS,
    CapacityError,
    CorruptPayloadError,
    FormatError,
    GrayImage,
    StegoPayload,
    capacity_bits,
    embed_lsb,
    extract_lsb,
    histogram,
    psnr,
    read_pgm,
    write_histogram_csv,
    write_pgm,
)


def fixture_image(seed=0, width=256, height=256):
    return GrayImage(width, height, random.Random(seed).randbytes(width * height))


def test_pgm_round_trip_bit_exact(tmp_path):
    img = fixture_image(1)
    path = tmp_path / "img.pgm"
    write_pgm(img, path)
    back = read_pgm(path)
    assert back == img


def test_pgm_header_with_comments(tmp_path):
    raw = b"P5\n# a comment\n4 2\n# another\n255\n" + bytes(range(8))
    path = tmp_path / "c.pgm"
    path.write_bytes(raw)
    img = read_pgm(path)
    assert img.width == 4 and img.height == 2
    assert img.pixels == bytes(range(8))


def test_pgm_rejects_bad_files(tmp_path):
    p = tmp_path / "x.pgm"
    p.write_bytes(b"P2\n2 2\n255\n0 0 0 0")
    with pytest.raises(FormatError):
        read_pgm(p)
    p.write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
    with pytest.raises(FormatError):
        read_pgm(p)
    p.write_bytes(b"P5\n4 4\n255\n" + bytes(3))
    with pytest.raises(FormatError):
        read_pgm(p)
    # the magic must be followed by whitespace, not read as a prefix
    p.write_bytes(b"P51 1\n255\n\x07")
    with pytest.raises(FormatError):
        read_pgm(p)


@pytest.mark.parametrize("width, height, n", [(2, 2, 3), (2, 2, 5), (-2, -2, 4), (-1, 0, 0)])
def test_gray_image_rejects_mismatched_pixels(width, height, n):
    with pytest.raises(FormatError):
        GrayImage(width, height, bytes(n))


@pytest.mark.parametrize("dims", [b"-2 -2", b"+8 +8", b"8 +8"])
def test_pgm_rejects_signed_dimensions(tmp_path, dims):
    p = tmp_path / "x.pgm"
    p.write_bytes(b"P5\n" + dims + b"\n255\n" + bytes(64))
    with pytest.raises(FormatError):
        read_pgm(p)


def test_embed_extract_round_trip_random_payload(rng):
    img = fixture_image(2)
    bits = [rng.randint(0, 1) for _ in range(1024)]
    stego = embed_lsb(img, StegoPayload(bits))
    assert extract_lsb(stego).bits == bits
    # cover untouched
    assert img.pixels == fixture_image(2).pixels


def test_embed_changes_only_lsbs_and_at_most_header_plus_payload(rng):
    img = fixture_image(3)
    bits = [rng.randint(0, 1) for _ in range(1024)]
    stego = embed_lsb(img, StegoPayload(bits))
    diff = [s - c for s, c in zip(stego.pixels, img.pixels)]
    assert max(abs(d) for d in diff) <= 1
    changed = [i for i, d in enumerate(diff) if d]
    assert len(changed) <= HEADER_BITS + 1024
    assert not changed or max(changed) < HEADER_BITS + 1024


def test_embed_empty_and_full_capacity(rng):
    img = fixture_image(4)
    assert extract_lsb(embed_lsb(img, StegoPayload([]))).bits == []
    cap = capacity_bits(img)
    bits = [rng.randint(0, 1) for _ in range(cap)]
    assert extract_lsb(embed_lsb(img, StegoPayload(bits))).bits == bits
    with pytest.raises(CapacityError):
        embed_lsb(img, StegoPayload(bits + [0]))


def test_payload_matching_existing_lsbs_leaves_image_identical():
    img = fixture_image(5)
    bits = [v & 1 for v in img.pixels[HEADER_BITS : HEADER_BITS + 64]]
    header = [(64 >> (31 - i)) & 1 for i in range(32)]
    head = bytes((v & 0xFE) | h for v, h in zip(img.pixels, header))
    base = GrayImage(img.width, img.height, head + img.pixels[32:])
    stego = embed_lsb(base, StegoPayload(bits))
    assert stego.pixels == base.pixels
    assert psnr(base, stego) == float("inf")


def test_corrupt_header_rejected():
    # header claims 2^20 bits
    count = 1 << 20
    header = bytes((count >> (31 - i)) & 1 for i in range(32))
    img = GrayImage(16, 16, header + bytes(16 * 16 - 32))
    with pytest.raises(CorruptPayloadError):
        extract_lsb(img)
    with pytest.raises(CorruptPayloadError):
        extract_lsb(GrayImage(4, 4, bytes(16)))


def test_psnr_reference_points():
    img = GrayImage(256, 256, bytes([128]) * (256 * 256))
    assert psnr(img, img) == float("inf")
    other = GrayImage(256, 256, bytes([129]) + img.pixels[1:])  # single pixel off by one
    value = psnr(img, other)
    assert abs(value - 96.30) < 0.01
    black = GrayImage(8, 8, bytes(64))
    white = GrayImage(8, 8, bytes([255]) * 64)
    assert psnr(black, white) == 0.0
    with pytest.raises(ValueError):
        psnr(black, img)


def test_psnr_lower_bound_for_any_embedding(rng):
    # an LSB flip changes a pixel by exactly 1, so MSE <= 1 and
    # PSNR >= 10*log10(255^2) = 48.13 dB
    img = fixture_image(6)
    cap = capacity_bits(img)
    bits = [rng.randint(0, 1) for _ in range(cap)]
    value = psnr(img, embed_lsb(img, StegoPayload(bits)))
    assert value >= 10 * math.log10(255**2) - 1e-9


def test_histogram_properties(rng):
    img = fixture_image(7)
    h = histogram(img)
    assert len(h) == 256
    assert sum(h) == img.pixel_count
    uniform = GrayImage(32, 32, bytes([77]) * 1024)
    hu = histogram(uniform)
    assert hu[77] == 1024 and sum(hu) == 1024

    bits = [rng.randint(0, 1) for _ in range(2048)]
    stego = embed_lsb(img, StegoPayload(bits))
    hs = histogram(stego)
    flips = sum(s != c for s, c in zip(stego.pixels, img.pixels))
    assert sum(abs(x - y) for x, y in zip(h, hs)) <= 2 * flips


def test_histogram_csv(tmp_path):
    img = GrayImage(2, 2, bytes(4))
    out = tmp_path / "h.csv"
    with open(out, "w") as f:
        write_histogram_csv(img, f)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "bin,count"
    assert lines[1] == "0,4"
    assert len(lines) == 257


def test_payload_bytes_round_trip():
    data = bytes(range(64))
    payload = StegoPayload.from_bytes(data)
    assert payload.to_bytes() == data
    with pytest.raises(CorruptPayloadError):
        StegoPayload([1, 0, 1]).to_bytes()


@settings(max_examples=25, deadline=None)
@given(st.binary(min_size=0, max_size=256))
def test_embed_extract_inverse_property(data):
    img = fixture_image(8, width=64, height=64)
    payload = StegoPayload.from_bytes(data)
    recovered = extract_lsb(embed_lsb(img, payload))
    assert recovered.to_bytes() == data
