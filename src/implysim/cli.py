"""Command-line front end: keystream generation, stream encryption,
steganography, cost reports, and shift-plan dumps.

Key/IV hex conventions are per cipher (see ``reference``); keystream bytes
always pack LSB-first.  Message bytes embed MSB-first per byte.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import functools
import os
import sys
from pathlib import Path

from . import costs, grain_cim, shifting, stego, trivium_cim
from .engine import CsvTrace
from .reference import (
    InputError,
    bits_to_bytes_lsb_first,
    bits_to_bytes_msb_first,
    bytes_to_bits_msb_first,
    grain_key_bits,
    trivium_key_bits,
)
from .shifting import Mode, count_elements, write_csv


def _count(text: str) -> int:
    """argparse type for a non-negative count."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _mode(args) -> Mode:
    return Mode(args.mode)


def _key_iv_bits(cipher: str, key_hex: str, iv_hex: str):
    if cipher == "trivium":
        return trivium_key_bits(key_hex, "key"), trivium_key_bits(iv_hex, "iv")
    return grain_key_bits(key_hex, 16, "key"), grain_key_bits(iv_hex, 12, "iv")


def _make_sim(cipher: str, key_hex: str, iv_hex: str, mode: Mode):
    key, iv = _key_iv_bits(cipher, key_hex, iv_hex)
    return costs.SIMS[cipher](key, iv, mode)


def _check_output(*paths: str | None) -> None:
    """Fail before any work runs if an output path cannot be written.

    Nothing is opened here: outputs are written only once the work has
    succeeded, so a failed run leaves an existing file as it was.
    """
    for path in filter(None, paths):
        target = Path(path)
        if target.is_dir():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        if not target.parent.is_dir():
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), str(target.parent))
        if not os.access(target if target.exists() else target.parent, os.W_OK):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)


def _emit_report(sim, fmt: str, out_path: str | None) -> None:
    report = costs.aggregate(sim)
    text = report.to_json() if fmt == "json" else costs.report_table(report)
    if out_path:
        Path(out_path).write_text(text + "\n")
    else:
        print(text)


def cmd_keystream(args) -> int:
    sim = _make_sim(args.cipher, args.key, args.iv, _mode(args))
    _check_output(args.out, args.report_out)
    # the trace file is opened only once the key, IV and outputs have passed
    with open(args.trace, "w") if args.trace else contextlib.nullcontext() as trace_file:
        if trace_file:
            sim.trace = CsvTrace(trace_file)
        bits = sim.keystream(args.n)
    if args.format == "hex":
        text = bits_to_bytes_lsb_first(bits).hex()
    else:
        text = "".join(str(b) for b in bits)
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)
    if args.report:
        _emit_report(sim, args.report, args.report_out)
    return 0


def cmd_crypt(args) -> int:
    data = Path(args.infile).read_bytes()
    message = bytes_to_bits_msb_first(data)
    sim = _make_sim(args.cipher, args.key, args.iv, _mode(args))
    _check_output(args.out, args.report_out)
    ks = sim.keystream(len(message))
    out = bits_to_bytes_msb_first([m ^ k for m, k in zip(message, ks)])
    Path(args.out).write_bytes(out)
    if args.report:
        _emit_report(sim, args.report, args.report_out)
    return 0


def cmd_stego(args) -> int:
    if args.action == "embed":
        cover = stego.read_pgm(args.cover)
        data = Path(args.infile).read_bytes()
        message = bytes_to_bits_msb_first(data)
        stego.check_capacity(cover, len(message))
        sim = _make_sim(args.cipher, args.key, args.iv, _mode(args))
        _check_output(args.stego, args.report_out)
        ks = sim.keystream(len(message))
        payload = stego.StegoPayload([m ^ k for m, k in zip(message, ks)])
        image = stego.embed_lsb(cover, payload)
        stego.write_pgm(image, args.stego)
        print(f"PSNR: {stego.psnr(cover, image):.3f} dB")
    else:
        image = stego.read_pgm(args.stego)
        payload = stego.extract_lsb(image)
        sim = _make_sim(args.cipher, args.key, args.iv, _mode(args))
        _check_output(args.out, args.report_out)
        ks = sim.keystream(len(payload.bits))
        plain = stego.StegoPayload([c ^ k for c, k in zip(payload.bits, ks)])
        Path(args.out).write_bytes(plain.to_bytes())
    if args.report:
        _emit_report(sim, args.report, args.report_out)
    return 0


_REGISTERS = {
    "A": (trivium_cim.TriviumSim.LAYOUTS, "trivium"),
    "B": (trivium_cim.TriviumSim.LAYOUTS, "trivium"),
    "C": (trivium_cim.TriviumSim.LAYOUTS, "trivium"),
    "LFSR": (grain_cim.GrainSim.LAYOUTS, "grain128a"),
    "NFSR": (grain_cim.GrainSim.LAYOUTS, "grain128a"),
}


def cmd_plan(args) -> int:
    _check_output(args.out)
    layouts, cipher = _REGISTERS[args.register]
    if args.cipher and args.cipher != cipher:
        print(f"error: register {args.register} belongs to {cipher}", file=sys.stderr)
        return 2
    layout = layouts[args.register]
    plan = shifting.plan(layout, _mode(args))
    for t in range(1, args.cycles + 1):
        buffers, inverters = plan.census(t)
        print(f"{t},{buffers},{inverters}")
    buffers, inverters = count_elements(plan, 1, args.cycles)
    print(f"total,{buffers},{inverters}")
    if args.out:
        with open(args.out, "w") as f:
            write_csv(plan, f, args.cycles)
    return 0


# built once per process: a parser is a web of reference cycles, so one per
# call left garbage that only the collector's rare full passes free, and the
# heap of a process making many calls grew by ~1.3 KB per call for its first
# ~1,000 calls; parse_args does not modify the parser
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="implysim",
        description="Serial IMPLY in-memory stream ciphers: simulation, costs, steganography.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, n_flag=False):
        p.add_argument("--cipher", choices=list(costs.SIMS), required=True)
        p.add_argument("--mode", choices=[m.value for m in Mode], default=Mode.PROPOSED.value)
        p.add_argument("--key", required=True, help="hex key (trivium: 20 chars, grain128a: 32)")
        p.add_argument("--iv", required=True, help="hex IV (trivium: 20 chars, grain128a: 24)")
        if n_flag:
            p.add_argument("-n", type=_count, required=True, help="number of keystream bits")
        p.add_argument("--report", choices=["json", "table"], help="print a cost report")
        p.add_argument("--report-out", help="write the cost report here instead of stdout")

    p = sub.add_parser("keystream", help="generate keystream bits")
    common(p, n_flag=True)
    p.add_argument("--out", help="output file (default: stdout)")
    p.add_argument("--format", choices=["hex", "bits"], default="hex")
    p.add_argument("--trace", help="write a per-micro-op CSV trace to this path")
    p.set_defaults(fn=cmd_keystream)

    p = sub.add_parser("crypt", help="XOR a file with the keystream (en/decrypt)")
    common(p)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_crypt)

    p = sub.add_parser("stego", help="LSB-embed an encrypted message in a PGM image")
    p.add_argument("action", choices=["embed", "extract"])
    common(p)
    p.add_argument("--cover", help="cover PGM (embed)")
    p.add_argument("--in", dest="infile", help="message file (embed)")
    p.add_argument("--stego", required=True, help="stego PGM path")
    p.add_argument("--out", help="recovered message path (extract)")
    p.set_defaults(fn=cmd_stego)

    p = sub.add_parser("plan", help="dump a register's shift plan and element counts")
    p.add_argument("--cipher", choices=list(costs.SIMS))
    p.add_argument("--register", choices=list(_REGISTERS), required=True)
    p.add_argument("--mode", choices=[m.value for m in Mode], default=Mode.PROPOSED.value)
    p.add_argument("--cycles", type=_count, default=1)
    p.add_argument("--out", help="write per-transfer CSV here")
    p.set_defaults(fn=cmd_plan)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "stego":
        if args.action == "embed" and not (args.cover and args.infile):
            parser.error("stego embed requires --cover and --in")
        if args.action == "extract" and not args.out:
            parser.error("stego extract requires --out")
    if getattr(args, "report_out", None) and not args.report:
        parser.error("--report-out requires --report")
    try:
        return args.fn(args)
    except (InputError, stego.CapacityError, stego.FormatError, stego.CorruptPayloadError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
