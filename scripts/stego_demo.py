#!/usr/bin/env python3
"""End-to-end steganography demo.

Builds a synthetic 256x256 cover image, encrypts a random message with the
simulated keystream of the chosen cipher, hides it in the pixel LSBs,
recovers and decrypts it, and writes the cover/stego images plus their
histograms next to each other for comparison.
"""

import argparse
import random
import sys
from pathlib import Path

from implysim import stego
from implysim.grain_cim import GrainSim
from implysim.reference import xorcrypt
from implysim.shifting import Mode
from implysim.trivium_cim import TriviumSim


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cipher", choices=["trivium", "grain128a"], default="trivium")
    parser.add_argument("--mode", choices=[m.value for m in Mode], default="proposed")
    parser.add_argument("--bytes", type=int, default=1024, help="message length")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--outdir", default="stego_demo_out")
    args = parser.parse_args(argv)

    rng = random.Random(args.seed)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    cover = stego.GrayImage(256, 256, random.Random(args.seed).randbytes(256 * 256))

    message = bytes(rng.getrandbits(8) for _ in range(args.bytes))
    bits = [(byte >> (7 - j)) & 1 for byte in message for j in range(8)]

    if args.cipher == "trivium":
        sim = TriviumSim(
            [rng.randint(0, 1) for _ in range(80)],
            [rng.randint(0, 1) for _ in range(80)],
            Mode(args.mode),
        )
    else:
        sim = GrainSim(
            [rng.randint(0, 1) for _ in range(128)],
            [rng.randint(0, 1) for _ in range(96)],
            Mode(args.mode),
        )
    ks = sim.keystream(len(bits))
    stego_img = stego.embed_lsb(cover, stego.StegoPayload(xorcrypt(bits, ks)))

    recovered = xorcrypt(stego.extract_lsb(stego_img).bits, ks)
    assert recovered == bits, "round trip failed"

    stego.write_pgm(cover, outdir / "cover.pgm")
    stego.write_pgm(stego_img, outdir / "stego.pgm")
    for name, image in (("cover", cover), ("stego", stego_img)):
        with open(outdir / f"{name}_histogram.csv", "w") as f:
            stego.write_histogram_csv(image, f)

    print(f"message bytes: {args.bytes} ({len(bits)} bits)")
    print(f"PSNR: {stego.psnr(cover, stego_img):.3f} dB")
    print(f"round trip: exact")
    print(f"outputs in {outdir}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
