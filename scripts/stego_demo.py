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
from implysim.costs import SIMS
from implysim.reference import bytes_to_bits_msb_first, xorcrypt
from implysim.shifting import Mode


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cipher", choices=list(SIMS), default="trivium")
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
    bits = bytes_to_bits_msb_first(message)

    cls = SIMS[args.cipher]
    key = [rng.randint(0, 1) for _ in range(len(cls.KEY))]
    iv = [rng.randint(0, 1) for _ in range(len(cls.IV))]
    sim = cls(key, iv, Mode(args.mode))
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
