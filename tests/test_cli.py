import contextlib
import hashlib
import io
import json
import os
import random
import re
import runpy
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ciphers import ORACLES
from implysim import costs, stego
from implysim.cli import CRYPT_CHUNK, build_parser, main
from implysim.programs import CipherSim
from implysim.reference import bits_to_bytes_msb_first, bytes_to_bits_msb_first, xorcrypt
from implysim.shifting import Mode

KEY_T = "80000000000000000000"
IV_T = "00000000000000000000"
PUBLISHED_FIRST_BYTES = "38eb86ff730d7a9caf8df13a4420540d"

KEY_G = "00000000000000000000000000000000"
IV_G = "000000000000000000000000"


def test_keystream_hex_matches_published_vector(capsys):
    rc = main(["keystream", "--cipher", "trivium", "--key", KEY_T, "--iv", IV_T, "-n", "128"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == PUBLISHED_FIRST_BYTES


def test_keystream_bits_format_and_out_file(tmp_path, capsys):
    out = tmp_path / "ks.txt"
    rc = main(
        ["keystream", "--cipher", "grain128a", "--key", KEY_G, "--iv", IV_G,
         "-n", "16", "--format", "bits", "--out", str(out)]
    )
    assert rc == 0
    bits = out.read_text().strip()
    assert len(bits) == 16 and set(bits) <= {"0", "1"}
    # 0304 hex, LSB-first packing -> bits 1100000000100000
    assert bits == "1100000000100000"


def test_keystream_report_json_matches_closed_form(capsys, tmp_path):
    out = tmp_path / "ks.hex"
    rc = main(
        ["keystream", "--cipher", "trivium", "--key", KEY_T, "--iv", IV_T,
         "-n", "64", "--out", str(out), "--report", "json"]
    )
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    steps_cf, _ = costs.closed_form("trivium", Mode.PROPOSED, 64)
    assert report["total_steps"] == steps_cf
    assert report["mode"] == "proposed"


# sha256 (first 16 hex digits) of `implysim keystream -n 300 --report json`
# stdout, the keystream hex and then the report, for every cipher x mode,
# with the key and IV it was taken for
KEYSTREAM_REPORT_SHA256 = {
    ("trivium", "proposed"): (KEY_T, IV_T, "ce5f7ac9340aebe6"),
    ("trivium", "conventional"): (KEY_T, IV_T, "4c00352db51333bf"),
    ("grain128a", "proposed"): (KEY_G, IV_G, "b7692ba31cd09d89"),
    ("grain128a", "conventional"): (KEY_G, IV_G, "bd223aaa4cd61bea"),
}


@pytest.mark.parametrize("cipher,mode", list(KEYSTREAM_REPORT_SHA256))
def test_keystream_json_report_is_pinned(capsys, cipher, mode):
    key, iv, pinned = KEYSTREAM_REPORT_SHA256[cipher, mode]
    rc = main(["keystream", "--cipher", cipher, "--mode", mode, "--key", key, "--iv", iv,
               "-n", "300", "--report", "json"])
    assert rc == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()[:16]
    assert digest == pinned


def test_one_parser_serves_every_call_without_carrying_state(capsys):
    # the parser is built once per process; a later call must not see an
    # earlier call's options
    assert build_parser() is build_parser()
    argv = ["keystream", "--cipher", "trivium", "--key", KEY_T, "--iv", IV_T, "-n", "128"]
    assert main([*argv, "--mode", "conventional", "--report", "json", "--format", "bits"]) == 0
    capsys.readouterr()
    assert main(argv) == 0
    assert capsys.readouterr().out == PUBLISHED_FIRST_BYTES + "\n"


def test_keystream_conventional_mode(capsys):
    rc = main(
        ["keystream", "--cipher", "trivium", "--key", KEY_T, "--iv", IV_T,
         "-n", "128", "--mode", "conventional"]
    )
    assert rc == 0
    assert capsys.readouterr().out.strip() == PUBLISHED_FIRST_BYTES


def test_keystream_trace_file(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    rc = main(
        ["keystream", "--cipher", "grain128a", "--key", KEY_G, "--iv", IV_G,
         "-n", "1", "--trace", str(trace), "--out", str(tmp_path / "o")]
    )
    assert rc == 0
    with open(trace) as f:
        header = f.readline().strip()
        assert header == "step_index,kind,p,q,resulting_bit"
        count = sum(1 for _ in f)
    assert count == 245894 + 942  # every executed micro-op traced


def test_bad_hex_and_length_errors(capsys):
    assert main(["keystream", "--cipher", "trivium", "--key", "zz", "--iv", IV_T, "-n", "1"]) == 1
    assert "error" in capsys.readouterr().err
    assert main(["keystream", "--cipher", "grain128a", "--key", KEY_T, "--iv", IV_G, "-n", "1"]) == 1


@pytest.mark.parametrize(
    "cipher,key,iv",
    [
        ("trivium", "80 00 00000000000000", IV_T),
        ("trivium", "8000\t\t00000000000000", IV_T),
        ("grain128a", KEY_G, "00000000 00000000 000000"),
    ],
    ids=["trivium-key-space", "trivium-key-tab", "grain-iv-space"],
)
def test_whitespace_inside_hex_is_not_valid_hex(capsys, cipher, key, iv):
    assert main(["keystream", "--cipher", cipher, "--key", key, "--iv", iv, "-n", "1"]) == 1
    assert "is not valid hex" in capsys.readouterr().err


@pytest.mark.parametrize("cls", list(costs.SIMS.values()), ids=lambda cls: cls.CIPHER)
def test_each_class_parses_hex_of_its_own_key_and_iv_lengths(capsys, cls):
    # a class's key_iv_bits fills its KEY and IV cells, and names their hex
    # lengths when one is a char short
    n_key, n_iv = len(cls.KEY) // 4, len(cls.IV) // 4
    key, iv = "f" * n_key, "0" * n_iv
    key_bits, iv_bits = cls.key_iv_bits(key, iv)
    assert (len(key_bits), len(iv_bits)) == (len(cls.KEY), len(cls.IV))
    assert set(key_bits) == {1} and set(iv_bits) == {0}
    for what, n, hex_args in (("key", n_key, ["--key", key[1:], "--iv", iv]),
                              ("iv", n_iv, ["--key", key, "--iv", iv[1:]])):
        assert main(["keystream", "--cipher", cls.CIPHER, *hex_args, "-n", "1"]) == 1
        assert capsys.readouterr() == ("", f"error: {what} must be {n} hex chars, got {n - 1}\n")


def test_help_names_every_class_hex_lengths(capsys):
    # the --key/--iv help is derived from costs.SIMS, so a class added there
    # is named in --help too
    with pytest.raises(SystemExit) as exc:
        main(["keystream", "--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())  # argparse wraps long help lines
    for name, cls in costs.SIMS.items():
        assert f"{name}: {len(cls.KEY) // 4} chars" in text.split("hex key (")[1].split(")")[0]
        assert f"{name}: {len(cls.IV) // 4} chars" in text.split("hex IV (")[1].split(")")[0]


def test_missing_iv_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["keystream", "--cipher", "grain128a", "--key", KEY_G, "-n", "1"])
    assert exc.value.code == 2


def test_crypt_involution(tmp_path, rng):
    data = bytes(rng.getrandbits(8) for _ in range(1024))
    plain = tmp_path / "plain.bin"
    enc = tmp_path / "enc.bin"
    dec = tmp_path / "dec.bin"
    plain.write_bytes(data)
    args = ["crypt", "--cipher", "trivium", "--key", "0123456789abcdef0123", "--iv", IV_T]
    assert main(args + ["--in", str(plain), "--out", str(enc)]) == 0
    assert enc.read_bytes() != data
    assert main(args + ["--in", str(enc), "--out", str(dec)]) == 0
    assert dec.read_bytes() == data


def test_crypt_empty_file(tmp_path):
    src = tmp_path / "empty"
    dst = tmp_path / "out"
    src.write_bytes(b"")
    rc = main(["crypt", "--cipher", "grain128a", "--key", KEY_G, "--iv", IV_G,
               "--in", str(src), "--out", str(dst)])
    assert rc == 0
    assert dst.read_bytes() == b""


def test_crypt_wrong_key_does_not_decrypt(tmp_path, rng):
    data = bytes(rng.getrandbits(8) for _ in range(64))
    plain = tmp_path / "p"
    enc = tmp_path / "e"
    dec = tmp_path / "d"
    plain.write_bytes(data)
    base = ["crypt", "--cipher", "trivium", "--iv", IV_T]
    main(base + ["--key", "00112233445566778899", "--in", str(plain), "--out", str(enc)])
    main(base + ["--key", "99887766554433221100", "--in", str(enc), "--out", str(dec)])
    assert dec.read_bytes() != data


@pytest.mark.parametrize("cipher,size", [
    *(("trivium", size) for size in (0, 1, CRYPT_CHUNK - 1, CRYPT_CHUNK, CRYPT_CHUNK + 1, 1972)),
    ("grain128a", 0), ("grain128a", CRYPT_CHUNK + 1),
])
def test_crypt_in_chunks_matches_the_oracle_and_a_one_shot_report(tmp_path, cipher, size):
    # crypt runs the keystream one chunk at a time; the ciphertext must be
    # the oracle keystream's XOR and the report that of one keystream call
    cls = costs.SIMS[cipher]
    key, iv = "0123456789abcdef0123456789abcdef"[:len(cls.KEY) // 4], "0" * (len(cls.IV) // 4)
    data = random.Random(size).randbytes(size)
    src, dst, report = tmp_path / "in.bin", tmp_path / "out.bin", tmp_path / "report.json"
    src.write_bytes(data)
    assert main(["crypt", "--cipher", cipher, "--key", key, "--iv", iv, "--in", str(src), "--out", str(dst),
                 "--report", "json", "--report-out", str(report)]) == 0
    key_bits, iv_bits = cls.key_iv_bits(key, iv)
    message = bytes_to_bits_msb_first(data)
    keystream = ORACLES[cls](key_bits, iv_bits, len(message))
    assert dst.read_bytes() == bits_to_bytes_msb_first(xorcrypt(message, keystream))
    sim = cls(key_bits, iv_bits)
    sim.keystream(len(message))
    assert report.read_text() == costs.aggregate(sim).to_json() + "\n"


def test_crypt_memory_does_not_grow_with_the_message(tmp_path):
    def peak(size):
        src = tmp_path / f"{size}.bin"
        src.write_bytes(bytes(size))
        argv = ["crypt", "--cipher", "trivium", "--mode", "conventional", "--key", KEY_T, "--iv", IV_T,
                "--in", str(src), "--out", str(tmp_path / "out.bin")]
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1] - base

    tracemalloc.start()
    try:
        peak(1)  # builds the program caches and the parser
        growth = peak(4096) - peak(1024)
    finally:
        tracemalloc.stop()
    # the whole-message bit lists took ~208 B per message byte (~624 KiB here)
    assert growth < 64 * 1024, growth


def _write_cover(path, seed=0, width=256, height=256):
    img = stego.GrayImage(width, height, random.Random(seed).randbytes(width * height))
    stego.write_pgm(img, path)
    return img


def test_stego_embed_extract_round_trip(tmp_path, capsys, rng):
    cover = tmp_path / "cover.pgm"
    _write_cover(cover)
    msg = tmp_path / "msg.bin"
    data = bytes(rng.getrandbits(8) for _ in range(512))
    msg.write_bytes(data)
    stego_path = tmp_path / "stego.pgm"
    recovered = tmp_path / "rec.bin"
    common = ["--cipher", "grain128a", "--key", KEY_G, "--iv", IV_G]
    rc = main(["stego", "embed", *common, "--cover", str(cover), "--in", str(msg),
               "--stego", str(stego_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("PSNR: ") and out.strip().endswith("dB")
    assert float(out.split()[1]) >= 48.13
    rc = main(["stego", "extract", *common, "--stego", str(stego_path), "--out", str(recovered)])
    assert rc == 0
    assert recovered.read_bytes() == data


@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
def test_stego_reports_cost_of_the_payload(tmp_path, capsys, mode):
    cover, msg, _ = _stego_inputs(tmp_path)
    stego_path, recovered = tmp_path / "s.pgm", tmp_path / "rec.bin"
    common = ["--cipher", "grain128a", "--mode", mode.value, "--key", KEY_G, "--iv", IV_G]
    payload_bits = 8 * len(msg.read_bytes())
    expected_steps, _ = costs.simulated_form("grain128a", mode, payload_bits)
    rc = main(["stego", "embed", *common, "--cover", str(cover), "--in", str(msg), "--stego", str(stego_path),
               "--report", "json", "--report-out", str(tmp_path / "embed.json")])
    assert rc == 0
    assert capsys.readouterr().out.startswith("PSNR: ")
    assert json.loads((tmp_path / "embed.json").read_text())["total_steps"] == expected_steps
    rc = main(["stego", "extract", *common, "--stego", str(stego_path), "--out", str(recovered),
               "--report", "json"])
    assert rc == 0
    assert recovered.read_bytes() == msg.read_bytes()
    assert json.loads(capsys.readouterr().out)["total_steps"] == expected_steps


@pytest.mark.parametrize("command", ["keystream", "crypt", "stego"])
def test_report_out_requires_report(tmp_path, capsys, command):
    cover, msg, _ = _stego_inputs(tmp_path)
    common = ["--cipher", "trivium", "--key", KEY_T, "--iv", IV_T, "--report-out", str(tmp_path / "r.json")]
    argv = {
        "keystream": ["keystream", *common, "-n", "8"],
        "crypt": ["crypt", *common, "--in", str(msg), "--out", str(tmp_path / "out.bin")],
        "stego": ["stego", "embed", *common, "--cover", str(cover), "--in", str(msg),
                  "--stego", str(tmp_path / "s.pgm")],
    }[command]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "--report-out requires --report" in capsys.readouterr().err
    # nothing ran: only the inputs are there
    assert sorted(path.name for path in tmp_path.iterdir()) == ["cover.pgm", "msg.bin", "stego.pgm"]


def test_stego_rejects_non_pgm(tmp_path, capsys):
    bad = tmp_path / "bad.pgm"
    bad.write_bytes(b"\x89PNG....")
    msg = tmp_path / "m.bin"
    msg.write_bytes(b"x")
    rc = main(["stego", "embed", "--cipher", "trivium", "--key", KEY_T, "--iv", IV_T,
               "--cover", str(bad), "--in", str(msg), "--stego", str(tmp_path / "s.pgm")])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_stego_extract_rejects_signed_pgm_dimensions(tmp_path, capsys):
    # (-2)*(-2) pixels pass a length check on width*height alone
    neg = tmp_path / "neg.pgm"
    neg.write_bytes(b"P5\n-2 -2\n255\n" + bytes(64))
    rc = main(["stego", "extract", "--cipher", "trivium", "--key", KEY_T, "--iv", IV_T,
               "--stego", str(neg), "--out", str(tmp_path / "rec.bin")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: bad PGM header fields")
    assert not (tmp_path / "rec.bin").exists()


def test_stego_extract_rejects_magic_without_whitespace(tmp_path, capsys):
    # "P51" is not "P5" followed by a header field; read as a prefix, the file
    # would be a 1x1 image and fail later, for being too small
    bad = tmp_path / "p51.pgm"
    bad.write_bytes(b"P51 1\n255\n\x07")
    rc = main(["stego", "extract", "--cipher", "trivium", "--key", KEY_T, "--iv", IV_T,
               "--stego", str(bad), "--out", str(tmp_path / "rec.bin")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: not a P5 (binary) PGM file")
    assert not (tmp_path / "rec.bin").exists()


# sha256 of the stego PGM and the PSNR line for a fixed 32x32 cover, message,
# key and IV: a change to the embedded bits or to PSNR rounding shows here
PINNED_STEGO = {
    "trivium": (KEY_T, IV_T, "PSNR: 57.552 dB",
                "60e524175b0363cd473381e72b360601a583cd256f108b70c0e419ecdd3f1fa4"),
    "grain128a": ("0123456789abcdef0123456789abcdef", "0123456789abcdef01234567", "PSNR: 57.128 dB",
                  "a3ac84209ee9e05c07964ab8b9cf98058d475236111088e02a368acb6a743f73"),
}


@pytest.mark.parametrize("cipher", sorted(PINNED_STEGO))
def test_stego_output_is_pinned(tmp_path, capsys, cipher):
    key, iv, psnr_line, digest = PINNED_STEGO[cipher]
    cover = tmp_path / "cover.pgm"
    _write_cover(cover, seed=8, width=32, height=32)
    msg = tmp_path / "msg.bin"
    msg.write_bytes(b"same cover bytes, same PSNR")
    stego_path = tmp_path / "stego.pgm"
    recovered = tmp_path / "rec.bin"
    common = ["--cipher", cipher, "--key", key, "--iv", iv]
    assert main(["stego", "embed", *common, "--cover", str(cover), "--in", str(msg),
                 "--stego", str(stego_path)]) == 0
    assert capsys.readouterr().out.strip() == psnr_line
    assert hashlib.sha256(stego_path.read_bytes()).hexdigest() == digest
    assert main(["stego", "extract", *common, "--stego", str(stego_path), "--out", str(recovered)]) == 0
    assert recovered.read_bytes() == msg.read_bytes()


def test_cli_import_loads_only_stdlib():
    # the package has no runtime dependencies: a fresh import of the CLI
    # pulls in nothing outside the standard library and implysim itself
    code = (
        "import sys; before = set(sys.modules); import implysim.cli; "
        "print(sorted({m.split('.')[0] for m in set(sys.modules) - before}"
        " - set(sys.stdlib_module_names) - {'implysim'}))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_import_path_stays_light():
    # the benchmark's set-up child imports these three; no run needs
    # dataclasses (with inspect, ast, dis and tokenize) or string
    code = (
        "import sys; before = set(sys.modules); import implysim, implysim.stego, implysim.cli; "
        "print(sorted({'dataclasses', 'string'} & (set(sys.modules) - before)))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_stego_capacity_error(tmp_path, capsys):
    cover = tmp_path / "tiny.pgm"
    _write_cover(cover, width=8, height=8)
    msg = tmp_path / "m.bin"
    msg.write_bytes(bytes(64))
    rc = main(["stego", "embed", "--cipher", "trivium", "--key", KEY_T, "--iv", IV_T,
               "--cover", str(cover), "--in", str(msg), "--stego", str(tmp_path / "s.pgm")])
    assert rc == 1


@pytest.mark.parametrize("size", ["0 0", "4 4"])
def test_stego_cover_below_header_size_names_the_header(tmp_path, capsys, size):
    width, height = map(int, size.split())
    cover = tmp_path / "small.pgm"
    cover.write_bytes(f"P5\n{size}\n255\n".encode() + bytes(width * height))
    msg = tmp_path / "m.bin"
    msg.write_bytes(b"")
    rc = main(["stego", "embed", "--cipher", "trivium", "--key", KEY_T, "--iv", IV_T,
               "--cover", str(cover), "--in", str(msg), "--stego", str(tmp_path / "s.pgm")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == f"error: cover of {width * height} pixels cannot hold the 32-bit length header\n"
    assert not (tmp_path / "s.pgm").exists()


def test_plan_trivium_a_steady_counts(capsys, tmp_path):
    out = tmp_path / "plan.csv"
    rc = main(["plan", "--register", "A", "--cycles", "70", "--out", str(out)])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[69] == "70,3,90"
    assert lines[0] == "1,5,88"
    csv_lines = out.read_text().strip().splitlines()
    assert csv_lines[0] == "cycle,transfer_from,transfer_to,element"
    assert len(csv_lines) == 1 + 70 * 93


def test_plan_grain_nfsr_steady_and_conventional(capsys):
    rc = main(["plan", "--register", "NFSR", "--cycles", "40"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[39] == "40,20,108"
    rc = main(["plan", "--register", "LFSR", "--cycles", "40"])
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[39] == "40,6,122"
    rc = main(["plan", "--register", "B", "--mode", "conventional", "--cycles", "2"])
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "1,84,0" and lines[-1] == "total,168,0"


# sha256 (first 16 hex digits) of `implysim plan` stdout and of its --out CSV,
# for every register x mode at --cycles 0, 1, 70 (just past the longest
# transitional prefix, Trivium B's 68 cycles) and 300
PLAN_OUTPUT_SHA256 = {
    ("A", "proposed", 0): ("3639aeba2103edf8", "e11ad9833672ed05"),
    ("A", "proposed", 1): ("323b4b02d4a8b542", "0956a591311527ec"),
    ("A", "proposed", 70): ("ed8a7abfaab92621", "1bc2051f5430075f"),
    ("A", "proposed", 300): ("e97285d07a37418a", "9405d9f4fc12cbfe"),
    ("A", "conventional", 0): ("3639aeba2103edf8", "e11ad9833672ed05"),
    ("A", "conventional", 1): ("7c79a4351dbdc172", "8565ed153fd433c6"),
    ("A", "conventional", 70): ("d67cc444a27d8359", "897dc327ec24c603"),
    ("A", "conventional", 300): ("58d09de338c144b2", "08582e67d0d1bb7b"),
    ("B", "proposed", 0): ("3639aeba2103edf8", "e11ad9833672ed05"),
    ("B", "proposed", 1): ("4e6586797d152975", "c877196e1155e6bd"),
    ("B", "proposed", 70): ("36813ac7622a5ea1", "f996d03c3f1998c2"),
    ("B", "proposed", 300): ("58e2ae5d2eb3718c", "c14cea0d4be2c901"),
    ("B", "conventional", 0): ("3639aeba2103edf8", "e11ad9833672ed05"),
    ("B", "conventional", 1): ("25e71fb2d7aad999", "46a6aa46633998ff"),
    ("B", "conventional", 70): ("985836a2849e5900", "ab7fd82433e0d3c6"),
    ("B", "conventional", 300): ("1f1e76bfd8008e70", "2afbacca8342934d"),
    ("C", "proposed", 0): ("3639aeba2103edf8", "e11ad9833672ed05"),
    ("C", "proposed", 1): ("6e5622d0a0aaf3bf", "ed3e9b010a2bbdbb"),
    ("C", "proposed", 70): ("aa25a0766ea780d2", "1eabe22cc488b9c3"),
    ("C", "proposed", 300): ("afe99b7ed2600fe0", "3492a9acaed1504b"),
    ("C", "conventional", 0): ("3639aeba2103edf8", "e11ad9833672ed05"),
    ("C", "conventional", 1): ("26eb13fb61156990", "969762759753f800"),
    ("C", "conventional", 70): ("cd16d6af5e5c18e5", "d362e5b3c9a390aa"),
    ("C", "conventional", 300): ("929fdb27804339eb", "fc5975d881eaf799"),
    ("LFSR", "proposed", 0): ("3639aeba2103edf8", "e11ad9833672ed05"),
    ("LFSR", "proposed", 1): ("41e7b121a7c601ac", "2f73d2703a83ba7b"),
    ("LFSR", "proposed", 70): ("fdf5c60aced9291d", "c366a8ae692ed950"),
    ("LFSR", "proposed", 300): ("355c6affddcd0628", "aa316a0e8ecf8a99"),
    ("LFSR", "conventional", 0): ("3639aeba2103edf8", "e11ad9833672ed05"),
    ("LFSR", "conventional", 1): ("cfc5aaf87484b12a", "9ca00046a3ae7de9"),
    ("LFSR", "conventional", 70): ("c2932f51ba4cf57a", "a4f1053edd67cb92"),
    ("LFSR", "conventional", 300): ("bcd1d110a2de985d", "1424a0d9dbb594ae"),
    ("NFSR", "proposed", 0): ("3639aeba2103edf8", "e11ad9833672ed05"),
    ("NFSR", "proposed", 1): ("9bb60e0c5ec2654c", "18f23bfd4d6dfb8f"),
    ("NFSR", "proposed", 70): ("5411d704b8b58ae5", "fa75ce7610a5159c"),
    ("NFSR", "proposed", 300): ("9658cb5dd6b3623c", "cd2531365a25b36c"),
    ("NFSR", "conventional", 0): ("3639aeba2103edf8", "e11ad9833672ed05"),
    ("NFSR", "conventional", 1): ("cfc5aaf87484b12a", "9ca00046a3ae7de9"),
    ("NFSR", "conventional", 70): ("c2932f51ba4cf57a", "a4f1053edd67cb92"),
    ("NFSR", "conventional", 300): ("bcd1d110a2de985d", "1424a0d9dbb594ae"),
}


@pytest.mark.parametrize("register,mode,cycles", list(PLAN_OUTPUT_SHA256))
def test_plan_output_is_pinned(capsys, tmp_path, register, mode, cycles):
    out = tmp_path / "plan.csv"
    rc = main(["plan", "--register", register, "--mode", mode, "--cycles", str(cycles), "--out", str(out)])
    assert rc == 0
    outputs = (capsys.readouterr().out.encode(), out.read_bytes())
    digests = tuple(hashlib.sha256(data).hexdigest()[:16] for data in outputs)
    assert digests == PLAN_OUTPUT_SHA256[register, mode, cycles]


# sha256 (first 16 hex digits) of `scripts/reproduce_tables.py` stdout at its
# defaults: the gate table, the shift-plan census, every cipher x mode cost
# report and comparison, the closed forms and the improvement ratios
REPRODUCE_TABLES_SHA256 = "80e05209bade3715"


def test_reproduce_tables_output_is_pinned(capsys):
    script = Path(__file__).resolve().parent.parent / "scripts" / "reproduce_tables.py"
    assert runpy.run_path(str(script))["main"]([]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()[:16] == REPRODUCE_TABLES_SHA256


def test_plan_out_in_missing_directory_fails_before_printing(tmp_path, capsys):
    out = tmp_path / "missing" / "plan.csv"
    rc = main(["plan", "--register", "A", "--cycles", "70", "--out", str(out)])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_plan_register_cipher_mismatch(capsys):
    rc = main(["plan", "--cipher", "trivium", "--register", "NFSR", "--cycles", "1"])
    assert rc == 2


def test_negative_keystream_length_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["keystream", "--cipher", "trivium", "--key", KEY_T, "--iv", IV_T, "-n", "-1"])
    assert exc.value.code == 2
    assert "error: argument -n: must be >= 0" in capsys.readouterr().err


def test_negative_plan_cycles_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["plan", "--register", "A", "--cycles", "-3"])
    assert exc.value.code == 2
    assert "error: argument --cycles: must be >= 0" in capsys.readouterr().err


def test_crypt_input_directory_is_os_error(tmp_path, capsys):
    rc = main(["crypt", "--cipher", "trivium", "--key", KEY_T, "--iv", IV_T,
               "--in", str(tmp_path), "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Is a directory" in err


def test_bad_key_leaves_no_trace_file(tmp_path, capsys):
    trace = tmp_path / "t.csv"
    rc = main(["keystream", "--cipher", "trivium", "--key", "zz", "--iv", IV_T, "-n", "1",
               "--trace", str(trace)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not trace.exists()


def _stego_inputs(tmp_path, payload_bits=16):
    """A cover, a message, and a stego image carrying a ``payload_bits`` payload."""
    cover = tmp_path / "cover.pgm"
    img = _write_cover(cover, width=16, height=16)
    msg = tmp_path / "msg.bin"
    msg.write_bytes(b"hi")
    stego_path = tmp_path / "stego.pgm"
    stego.write_pgm(stego.embed_lsb(img, stego.StegoPayload(b"\x01\x00" * (payload_bits // 2))), stego_path)
    return cover, msg, stego_path


@pytest.mark.parametrize(
    "command", ["keystream", "crypt", "embed", "extract", "embed-report-out", "extract-report-out"]
)
def test_output_in_missing_directory_fails_before_keystream(tmp_path, capsys, monkeypatch, command):
    calls = []
    monkeypatch.setattr(CipherSim, "keystream", lambda sim, n: calls.append(n) or [0] * n)
    cover, msg, stego_path = _stego_inputs(tmp_path)
    missing = tmp_path / "missing" / "out"
    common = ["--cipher", "trivium", "--key", KEY_T, "--iv", IV_T]
    report = ["--report", "json", "--report-out", str(missing)]
    argv = {
        "keystream": ["keystream", *common, "-n", "8", "--out", str(missing)],
        "crypt": ["crypt", *common, "--in", str(msg), "--out", str(missing)],
        "embed": ["stego", "embed", *common, "--cover", str(cover), "--in", str(msg), "--stego", str(missing)],
        "extract": ["stego", "extract", *common, "--stego", str(stego_path), "--out", str(missing)],
        "embed-report-out": ["stego", "embed", *common, "--cover", str(cover), "--in", str(msg),
                             "--stego", str(tmp_path / "new.pgm"), *report],
        "extract-report-out": ["stego", "extract", *common, "--stego", str(stego_path),
                               "--out", str(tmp_path / "rec.bin"), *report],
    }[command]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert calls == []
    assert not missing.parent.exists()


@pytest.mark.parametrize("option", ["keystream --out", "crypt --out", "extract --out", "--report-out",
                                    "--trace", "--stego"])
def test_empty_output_path_fails_before_any_cycle(tmp_path, capsys, monkeypatch, option):
    # "" is a path like any other: it names the working directory, which is
    # no file to write, so the run fails in the output check
    cycles = []
    monkeypatch.setattr(CipherSim, "_run", lambda sim, n, out: cycles.append(n))
    cover, msg, stego_path = _stego_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    common = ["--cipher", "trivium", "--key", KEY_T, "--iv", IV_T]
    argv = {
        "keystream --out": ["keystream", *common, "-n", "8", "--out", ""],
        "crypt --out": ["crypt", *common, "--in", str(msg), "--out", ""],
        "extract --out": ["stego", "extract", *common, "--stego", str(stego_path), "--out", ""],
        "--report-out": ["keystream", *common, "-n", "8", "--report", "json", "--report-out", ""],
        "--trace": ["keystream", *common, "-n", "8", "--trace", ""],
        "--stego": ["stego", "embed", *common, "--cover", str(cover), "--in", str(msg), "--stego", ""],
    }[option]
    before = sorted(path.name for path in tmp_path.iterdir())
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(r"error: .*Is a directory: ''\n", captured.err), captured.err
    assert cycles == []
    assert sorted(path.name for path in tmp_path.iterdir()) == before


def test_embed_over_capacity_fails_before_keystream(tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(CipherSim, "keystream", lambda sim, n: calls.append(n) or [0] * n)
    cover, _msg, _stego = _stego_inputs(tmp_path)
    msg = tmp_path / "long.bin"
    msg.write_bytes(bytes(64))  # 512 bits > the 16x16 cover's 224-bit capacity
    out = tmp_path / "s.pgm"
    rc = main(["stego", "embed", "--cipher", "trivium", "--key", KEY_T, "--iv", IV_T,
               "--cover", str(cover), "--in", str(msg), "--stego", str(out)])
    assert rc == 1
    assert "capacity" in capsys.readouterr().err
    assert calls == []
    assert not out.exists()


@pytest.mark.parametrize("case", ["embed-over-capacity", "extract-partial-byte", "crypt-in-place-interrupted"])
def test_failed_run_leaves_existing_output_unchanged(tmp_path, capsys, monkeypatch, case):
    cover, msg, _stego = _stego_inputs(tmp_path)
    existing = tmp_path / "existing"
    existing.write_bytes(b"keep me")
    common = ["--cipher", "trivium", "--key", KEY_T, "--iv", IV_T]
    if case == "embed-over-capacity":
        msg.write_bytes(bytes(64))
        assert main(["stego", "embed", *common, "--cover", str(cover), "--in", str(msg),
                     "--stego", str(existing)]) == 1
    elif case == "extract-partial-byte":
        calls = []
        monkeypatch.setattr(CipherSim, "keystream", lambda sim, n: calls.append(n) or [0] * n)
        _c, _m, odd = _stego_inputs(tmp_path, payload_bits=10)  # not a whole number of bytes
        assert main(["stego", "extract", *common, "--stego", str(odd), "--out", str(existing)]) == 1
        assert capsys.readouterr().err == "error: payload bit count is not a whole number of bytes\n"
        assert calls == []  # the payload is checked before any keystream cycle runs
    else:
        def interrupted(sim, n):
            raise KeyboardInterrupt

        monkeypatch.setattr(CipherSim, "keystream", interrupted)
        with pytest.raises(KeyboardInterrupt):
            main(["crypt", *common, "--in", str(existing), "--out", str(existing)])
    assert existing.read_bytes() == b"keep me"


@pytest.mark.parametrize("spelling", ["same", "dot"])
@pytest.mark.parametrize("command", ["keystream-trace-out", "keystream-out-report-out", "extract-out-report-out"])
def test_two_outputs_naming_one_file_fail_before_keystream(tmp_path, capsys, monkeypatch, command, spelling):
    calls = []
    monkeypatch.setattr(CipherSim, "keystream", lambda sim, n: calls.append(n) or [0] * n)
    _cover, _msg, stego_path = _stego_inputs(tmp_path)
    existing = tmp_path / "existing"
    existing.write_bytes(b"keep me")
    # pathlib drops "." components, so spell the second name as a string
    first, second = str(existing), str(existing) if spelling == "same" else f"{tmp_path}/./existing"
    common = ["--cipher", "trivium", "--key", KEY_T, "--iv", IV_T]
    report = ["--report", "json", "--report-out", second]
    argv = {
        "keystream-trace-out": ["keystream", *common, "-n", "8", "--trace", first, "--out", second],
        "keystream-out-report-out": ["keystream", *common, "-n", "8", "--out", first, *report],
        "extract-out-report-out": ["stego", "extract", *common, "--stego", str(stego_path), "--out", first, *report],
    }[command]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "same file" in err
    assert calls == []
    assert existing.read_bytes() == b"keep me"


def test_crypt_may_read_and_write_one_file(tmp_path):
    # the input is not an output: encrypting in place, then again, restores it
    path = tmp_path / "msg.bin"
    path.write_bytes(b"in place")
    argv = ["crypt", "--cipher", "trivium", "--key", KEY_T, "--iv", IV_T, "--in", str(path), "--out", str(path)]
    assert main(argv) == 0
    assert path.read_bytes() != b"in place"
    assert main(argv) == 0
    assert path.read_bytes() == b"in place"


# --- bad input, generated ------------------------------------------------------

# "@" stands for a fresh directory that holds in.bin, cover.pgm and stego.pgm;
# outputs share the pool so that two of them often name one file
_PATHS = st.sampled_from(["@/in.bin", "@/cover.pgm", "@/stego.pgm", "@/out.bin", "@/report.txt",
                          "@/missing/out.bin", "@", ""])
_HEX_LENGTHS = {cipher: (len(cls.KEY) // 4, len(cls.IV) // 4) for cipher, cls in costs.SIMS.items()}


def _mostly(good, bad):
    """``good`` nine times in ten, else ``bad``."""
    return st.integers(0, 9).flatmap(lambda i: good if i else bad)


_COUNTS = _mostly(st.integers(0, 40).map(str), st.text("0123456789-x. ", max_size=4))


@st.composite
def _argv(draw):
    """argv for one of the five commands.  Each value is mostly a good one;
    an option the command needs is left out one time in twenty."""
    command = draw(st.sampled_from(["keystream", "crypt", "stego embed", "stego extract", "plan"]))
    cipher = draw(st.sampled_from(list(_HEX_LENGTHS)))
    argv = command.split()

    def option(flag, values, in_20):
        if draw(st.integers(0, 19)) < in_20:
            argv.extend([flag, draw(values)])

    option("--cipher", _mostly(st.just(cipher), st.just("aes")), 10 if command == "plan" else 19)
    option("--mode", _mostly(st.sampled_from(["proposed", "conventional"]), st.just("fast")), 10)
    if command == "plan":
        option("--register", st.sampled_from(["A", "B", "C", "LFSR", "NFSR", "D"]), 19)
        option("--cycles", _COUNTS, 10)
        option("--out", _PATHS, 10)
        return argv
    for flag, n in zip(("--key", "--iv"), _HEX_LENGTHS[cipher]):
        # wrong lengths, spaces and non-hex letters
        option(flag, _mostly(st.text("0123456789abcdefABCDEF", min_size=n, max_size=n),
                             st.text("0123456789abcdefgz -", max_size=34)), 19)
    option("--report", _mostly(st.sampled_from(["json", "table"]), st.just("xml")), 10)
    option("--report-out", _PATHS, 6)
    inputs = {"--in": "@/in.bin", "--cover": "@/cover.pgm", "--stego": "@/stego.pgm"}
    if command == "keystream":
        option("-n", _COUNTS, 19)
        option("--format", st.sampled_from(["hex", "bits"]), 10)
        option("--out", _PATHS, 10)
        # a trace of a whole init phase is large, so only paths that fail
        option("--trace", st.sampled_from(["@", "@/missing/trace.csv"]), 4)
        return argv
    if command == "crypt":
        flags = {"--in": 19}
    elif command == "stego embed":
        flags = {"--cover": 19, "--in": 19, "--stego": 19}
    else:
        flags = {"--stego": 19}
    for flag, in_20 in flags.items():
        option(flag, _mostly(st.just(inputs[flag]), _PATHS), in_20)
    option("--out", _PATHS, 10 if command == "stego embed" else 19)
    return argv


#: empty, truncated and garbage PGMs: any bytes, or a P5 header and a body
#: that may be short
_PGMS = st.one_of(
    st.binary(max_size=64),
    st.builds(lambda sep, w, h, maxval, body: b"P5%s%d %d\n%d\n" % (sep, w, h, maxval) + body,
              st.sampled_from([b"\n", b" ", b""]), st.integers(0, 12), st.integers(0, 12),
              _mostly(st.just(255), st.sampled_from([1, 65535])), st.binary(max_size=150)),
)


@settings(max_examples=150, deadline=None)
@given(_argv(), st.binary(max_size=64), _PGMS, _PGMS)
def test_bad_input_ends_in_an_error_line_and_never_raises(argv, message, cover, image):
    # a tempfile directory per example: Hypothesis rejects function-scoped
    # fixtures such as tmp_path
    with tempfile.TemporaryDirectory() as d:
        for name, data in (("in.bin", message), ("cover.pgm", cover), ("stego.pgm", image)):
            Path(d, name).write_bytes(data)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                rc = main([arg.replace("@", d) for arg in argv])
            except SystemExit as e:
                # argparse's usage errors
                assert e.code == 2 and re.search(r"^implysim.*: error: ", err.getvalue(), re.M), argv
                return
    assert rc == 0 or re.search(r"^error: ", err.getvalue(), re.M), (argv, rc, err.getvalue())
