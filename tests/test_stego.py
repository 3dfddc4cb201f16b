import math

import numpy as np
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


def fixture_image(seed=0, shape=(256, 256)):
    rng = np.random.default_rng(seed)
    return GrayImage(rng.integers(0, 256, size=shape, dtype=np.uint8))


def test_pgm_round_trip_bit_exact(tmp_path):
    img = fixture_image(1)
    path = tmp_path / "img.pgm"
    write_pgm(img, path)
    back = read_pgm(path)
    assert np.array_equal(back.pixels, img.pixels)


def test_pgm_header_with_comments(tmp_path):
    raw = b"P5\n# a comment\n4 2\n# another\n255\n" + bytes(range(8))
    path = tmp_path / "c.pgm"
    path.write_bytes(raw)
    img = read_pgm(path)
    assert img.width == 4 and img.height == 2
    assert img.pixels.tobytes() == bytes(range(8))


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
    assert img.pixels[0, 0] == fixture_image(2).pixels[0, 0]


def test_embed_changes_only_lsbs_and_at_most_header_plus_payload(rng):
    img = fixture_image(3)
    bits = [rng.randint(0, 1) for _ in range(1024)]
    stego = embed_lsb(img, StegoPayload(bits))
    diff = stego.pixels.astype(int) - img.pixels.astype(int)
    assert int(np.abs(diff).max()) <= 1
    assert int((diff != 0).sum()) <= HEADER_BITS + 1024
    changed = np.flatnonzero(diff.reshape(-1))
    assert changed.size == 0 or changed.max() < HEADER_BITS + 1024


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
    flat = img.pixels.reshape(-1)
    bits = [int(v & 1) for v in flat[HEADER_BITS : HEADER_BITS + 64]]
    header = [(64 >> (31 - i)) & 1 for i in range(32)]
    base = img.copy()
    base.pixels.reshape(-1)[:32] = (flat[:32] & 0xFE) | np.array(header, dtype=np.uint8)
    stego = embed_lsb(base, StegoPayload(bits))
    assert np.array_equal(stego.pixels, base.pixels)
    assert psnr(base, stego) == float("inf")


def test_corrupt_header_rejected():
    img = GrayImage(np.zeros((16, 16), dtype=np.uint8))
    # header claims 2^20 bits
    flat = img.pixels.reshape(-1)
    count = 1 << 20
    for i in range(32):
        flat[i] |= (count >> (31 - i)) & 1
    with pytest.raises(CorruptPayloadError):
        extract_lsb(img)
    with pytest.raises(CorruptPayloadError):
        extract_lsb(GrayImage(np.zeros((4, 4), dtype=np.uint8)))


def test_psnr_reference_points():
    img = GrayImage(np.full((256, 256), 128, dtype=np.uint8))
    assert psnr(img, img) == float("inf")
    other = img.copy()
    other.pixels[0, 0] = 129  # single pixel off by one
    value = psnr(img, other)
    assert abs(value - 96.30) < 0.01
    black = GrayImage(np.zeros((8, 8), dtype=np.uint8))
    white = GrayImage(np.full((8, 8), 255, dtype=np.uint8))
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
    uniform = GrayImage(np.full((32, 32), 77, dtype=np.uint8))
    hu = histogram(uniform)
    assert hu[77] == 1024 and sum(hu) == 1024

    bits = [rng.randint(0, 1) for _ in range(2048)]
    stego = embed_lsb(img, StegoPayload(bits))
    hs = histogram(stego)
    flips = int((stego.pixels != img.pixels).sum())
    assert sum(abs(x - y) for x, y in zip(h, hs)) <= 2 * flips


def test_histogram_csv(tmp_path):
    img = GrayImage(np.zeros((2, 2), dtype=np.uint8))
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
    img = fixture_image(8, shape=(64, 64))
    payload = StegoPayload.from_bytes(data)
    recovered = extract_lsb(embed_lsb(img, payload))
    assert recovered.to_bytes() == data
