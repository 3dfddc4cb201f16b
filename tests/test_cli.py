import json

import numpy as np
import pytest

from implysim import costs, stego
from implysim.cli import main
from implysim.programs import CipherSim
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


def _write_cover(path, seed=0, shape=(256, 256)):
    rng = np.random.default_rng(seed)
    img = stego.GrayImage(rng.integers(0, 256, size=shape, dtype=np.uint8))
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


def test_stego_capacity_error(tmp_path, capsys):
    cover = tmp_path / "tiny.pgm"
    _write_cover(cover, shape=(8, 8))
    msg = tmp_path / "m.bin"
    msg.write_bytes(bytes(64))
    rc = main(["stego", "embed", "--cipher", "trivium", "--key", KEY_T, "--iv", IV_T,
               "--cover", str(cover), "--in", str(msg), "--stego", str(tmp_path / "s.pgm")])
    assert rc == 1


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
    img = _write_cover(cover, shape=(16, 16))
    msg = tmp_path / "msg.bin"
    msg.write_bytes(b"hi")
    stego_path = tmp_path / "stego.pgm"
    stego.write_pgm(stego.embed_lsb(img, stego.StegoPayload([1, 0] * (payload_bits // 2))), stego_path)
    return cover, msg, stego_path


@pytest.mark.parametrize("command", ["keystream", "crypt", "embed", "extract"])
def test_output_in_missing_directory_fails_before_keystream(tmp_path, capsys, monkeypatch, command):
    calls = []
    monkeypatch.setattr(CipherSim, "keystream", lambda sim, n: calls.append(n) or [0] * n)
    cover, msg, stego_path = _stego_inputs(tmp_path)
    missing = tmp_path / "missing" / "out"
    common = ["--cipher", "trivium", "--key", KEY_T, "--iv", IV_T]
    argv = {
        "keystream": ["keystream", *common, "-n", "8", "--out", str(missing)],
        "crypt": ["crypt", *common, "--in", str(msg), "--out", str(missing)],
        "embed": ["stego", "embed", *common, "--cover", str(cover), "--in", str(msg), "--stego", str(missing)],
        "extract": ["stego", "extract", *common, "--stego", str(stego_path), "--out", str(missing)],
    }[command]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert calls == []
    assert not missing.parent.exists()


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
        _c, _m, odd = _stego_inputs(tmp_path, payload_bits=10)  # not a whole number of bytes
        assert main(["stego", "extract", *common, "--stego", str(odd), "--out", str(existing)]) == 1
        assert "whole number of bytes" in capsys.readouterr().err
    else:
        def interrupted(sim, n):
            raise KeyboardInterrupt

        monkeypatch.setattr(CipherSim, "keystream", interrupted)
        with pytest.raises(KeyboardInterrupt):
            main(["crypt", *common, "--in", str(existing), "--out", str(existing)])
    assert existing.read_bytes() == b"keep me"
