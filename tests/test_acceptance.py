"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``, or via
``scripts/run_acceptance.py`` for the plain summary).

C4 is split: the closed-form half (c4a) is exact, while the simulated
pre-initialization step total (c4b) checks the published figure of 245,830
plus a correction the test derives itself.  The published NFSR shift census
is what the planner gives when b96, a linear term of the NFSR feedback g, is
not held at true polarity; that plan gives a wrong keystream, so the correct
plan spends 32 more buffers (64 more steps) than the published one.
"""

import math
import random

from conftest import lanes_to_masks, masks_to_lane, random_bits
from implysim import costs, stego
from implysim.engine import FALSE_P, execute
from implysim.gates import GATE_METRICS, GateKind, truth_check
from implysim.grain_cim import GrainSim, LFSR_TAP_IDX, NFSR_TAP_IDX
from implysim.reference import (
    bits_to_bytes_lsb_first,
    grain128a_ref,
    grain_key_bits,
    trivium_key_bits,
    trivium_ref,
    xorcrypt,
)
from implysim.shifting import (
    Element,
    Mode,
    RegisterLayout,
    count_elements,
    plan as plan_for,
    verify_polarity,
)
from implysim.trivium_cim import TriviumSim

GRAIN_LAYOUTS, TRIVIUM_LAYOUTS = GrainSim.LAYOUTS, TriviumSim.LAYOUTS


def _line(tag: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {tag}: {status}" + (f" - {detail}" if detail else ""))


# --- C1: IMPLY semantics ----------------------------------------------------


def test_c1_imply_truth_table():
    table = {(0, 0): 1, (0, 1): 1, (1, 0): 0, (1, 1): 1}
    results = {}
    for (p, q), want in table.items():
        cells = [p, q]
        execute(cells, 1, [(0, 1)])
        results[(p, q)] = (cells[1], cells[0])
    ok = all(results[k] == (v, k[0]) for k, v in table.items())
    _line("C1 imply-semantics", ok, "4/4 rows exact")
    assert ok


# --- C2: gate metrics + exhaustive truth ------------------------------------

_TABLE16 = {
    GateKind.INVERTER: (2, 2, 0.1291),
    GateKind.BUFFER: (4, 3, 0.269),
    GateKind.AND2: (5, 4, 0.3833),
    GateKind.AND3: (6, 5, 0.5025),
    GateKind.AND4: (11, 6, 0.9131),
    GateKind.XOR2_DESTRUCTIVE: (9, 4, 0.7426),
    GateKind.XOR2_NONDESTRUCTIVE: (11, 5, 0.9146),
    GateKind.XOR3: (20, 6, 1.711),
}

_GATE_SHAPES = {
    GateKind.INVERTER: (1, 1),
    GateKind.BUFFER: (1, 2),
    GateKind.AND2: (2, 2),
    GateKind.AND3: (3, 2),
    GateKind.AND4: (4, 2),
    GateKind.XOR2_DESTRUCTIVE: (2, 2),
    GateKind.XOR2_NONDESTRUCTIVE: (2, 3),
    GateKind.XOR3: (3, 3),
}


def test_c2_gate_table_and_truth():
    ok = True
    for kind, (steps, cells, energy) in _TABLE16.items():
        m = GATE_METRICS[kind]
        arity, works = _GATE_SHAPES[kind]
        operands = tuple(range(arity + works))
        touched = {q for _p, q in m.pulses} | {p for p, _q in m.pulses if p != FALSE_P}
        ok &= (m.arity, m.works) == (arity, works)
        ok &= (m.steps, m.memristors, m.energy_nj) == (steps, cells, energy)
        ok &= len(m.ops(operands)) == steps
        ok &= len(touched) == cells
        ok &= truth_check(kind)
    _line("C2 gate-metrics", ok, "8 kinds exact; exhaustive truth checks pass")
    assert ok


# --- C3: Trivium cost reproduction -------------------------------------------


def test_c3_trivium_cost_reproduction(rng):
    sim = TriviumSim(random_bits(rng, 80), random_bits(rng, 80), Mode.PROPOSED)
    sim.run_init()
    init_steps = sim.init.steps
    delta, _ = sim.step_cycle()
    report = costs.aggregate(sim)
    marginal_nj = report.keystream.energy_e4 / 1e4
    cf_steps, cf_energy = costs.closed_form("trivium", Mode.PROPOSED, 10000)
    ok = (
        init_steps == 797266
        and delta.steps == 710
        and abs(marginal_nj - 47.8983) < 1e-9
        and cf_steps == 7897266
        and abs(cf_energy - 531.4731) <= 1e-4
    )
    _line(
        "C3 trivium-costs",
        ok,
        f"init={init_steps} steps, marginal=710 steps/{marginal_nj:.4f} nJ, "
        f"closed-form n=10000: {cf_steps} steps / {cf_energy:.4f} uJ",
    )
    assert ok


# --- C4: Grain-128a cost reproduction ----------------------------------------


def test_c4a_grain_cost_closed_forms_and_marginal(rng):
    sim = GrainSim(random_bits(rng, 128), random_bits(rng, 96), Mode.PROPOSED)
    sim.run_init()
    delta, _ = sim.step_cycle()
    report = costs.aggregate(sim)
    marginal_nj = report.keystream.energy_e4 / 1e4
    form = costs.get_closed_form("grain128a", Mode.PROPOSED)
    cf_steps, cf_energy = costs.closed_form("grain128a", Mode.PROPOSED, 10000)
    ok = (
        (form.steps_slope, form.steps_intercept) == (942, 245830)
        and delta.steps == 942
        and 60.0 <= marginal_nj <= 70.0  # 66.6 nJ-scale per bit
        and cf_steps == 9665830
        and abs(cf_energy - 683.6811) <= 1e-4
    )
    _line(
        "C4a grain-costs (closed forms + marginal)",
        ok,
        f"marginal=942 steps/{marginal_nj:.4f} nJ, "
        f"closed-form n=10000: {cf_steps} steps / {cf_energy:.4f} uJ",
    )
    assert ok


# Grain-128a's tap sets written out from the cipher's definition (Agren, Hell,
# Johansson, Meier, IJWMC 2011), as register indices.  g is the NFSR feedback,
# f the LFSR feedback, h the filter and y = h + s93 + sum of b_j, j in _Y_B.
_G_LINEAR = (0, 26, 56, 91, 96)
_G_PRODUCTS = (
    (3, 67), (11, 13), (17, 18), (27, 59), (40, 48), (61, 65), (68, 84),
    (22, 24, 25), (70, 78, 82), (88, 92, 93, 95),
)
_F_S = (0, 7, 38, 70, 81, 96)
_H_B, _H_S = (12, 95), (8, 13, 20, 42, 60, 79, 94)
_Y_B, _Y_S = (2, 15, 36, 45, 64, 73, 89), (93,)
_NFSR_TAPS = frozenset(_G_LINEAR + _H_B + _Y_B).union(*_G_PRODUCTS)
_LFSR_TAPS = frozenset(_F_S + _H_S + _Y_S)


def _flow_positions(tap_idx, length=128):
    """Register index i sits at flow position length - i (injection at 1)."""
    return frozenset(length - i for i in tap_idx)


def _buffer_floor(tap_idx, cycles=256, length=128):
    """Fewest buffers any tap-polarity-correct plan uses in cycles 1..cycles.

    Each bit moves along its own (cycle, position) diagonal, one position per
    cycle, so no transfer serves two bits.  A bit starts at true polarity:
    injected (position 0 in its cycle) or loaded (cycle 1, key and IV at true
    polarity).  It must again be at true polarity at every tap it reaches by
    the start of cycle ``cycles + 1``, the first keystream cycle, which reads
    the taps.  An odd number of transfers between two such checkpoints cannot
    all be inverters, so each odd segment needs at least one buffer.
    """
    taps = sorted(_flow_positions(tap_idx, length))
    origins = [(c, 0) for c in range(1, cycles + 1)] + [(1, p) for p in range(1, length + 1)]
    floor = 0
    for c0, p0 in origins:
        prev = p0
        for p in taps:
            if p > p0 and c0 + (p - p0) <= cycles + 1:
                floor += (p - prev) % 2
                prev = p
    return floor


def test_c4b_grain_simulated_preinit_total(rng):
    """Simulated pre-init total vs the published 245,830, with b96 restored.

    The published rows add up to 245,830, but their NFSR census (5118
    buffers / 27650 inverters) is exactly what the planner gives when b96, a
    linear term of g, is left out of the tap set.  b96 is 32 transfers from
    the injection, an even distance, so it needs no buffer in steady state;
    in the transient that plan leaves it complemented, and the keystream is
    wrong.  The test derives the per-bit buffer floor with and without b96
    and corrects the published total by 4 - 2 steps per inverter that must
    become a buffer.
    """
    published_total = 245830
    published = {"LFSR": (1573, 31195), "NFSR": (5118, 27650)}
    rows = 396 * 256 + sum(4 * bufs + 2 * invs for bufs, invs in published.values())

    nfsr_floor = _buffer_floor(_NFSR_TAPS)
    lfsr_floor = _buffer_floor(_LFSR_TAPS)
    no_b96 = _NFSR_TAPS - {96}
    no_b96_layout = RegisterLayout("NFSR", 128, _flow_positions(no_b96))
    no_b96_plan = plan_for(no_b96_layout, Mode.PROPOSED)
    expected = published_total + (4 - 2) * (nfsr_floor - published["NFSR"][0])

    sim = GrainSim(random_bits(rng, 128), random_bits(rng, 96), Mode.PROPOSED)
    sim.run_init()
    steps = sim.init.steps
    census = sim.init.census
    sim_buffers = {reg: census[(GateKind.BUFFER, reg)] for reg in ("LFSR", "NFSR")}

    checks = {
        "published rows sum to the published total": rows == published_total,
        "tap sets match the cipher definition": (
            (_NFSR_TAPS, _LFSR_TAPS) == (NFSR_TAP_IDX, LFSR_TAP_IDX)
        ),
        "floors are NFSR 5150 / LFSR 1573": (nfsr_floor, lfsr_floor) == (5150, 1573),
        # the cause: without b96 the floor and the planner both give the
        # published census, and that plan leaves a consumed cell complemented
        "floor without b96 is the published 5118": _buffer_floor(no_b96) == published["NFSR"][0],
        "plan without b96 has the published census": (
            count_elements(no_b96_plan, 1, 256) == published["NFSR"]
        ),
        "plan without b96 breaks tap polarity": (
            not verify_polarity(no_b96_plan, GRAIN_LAYOUTS["NFSR"], 257)
        ),
        "simulated total is published + b96 correction": steps == expected,
        "simulated buffers equal the floors": (
            sim_buffers == {"LFSR": lfsr_floor, "NFSR": nfsr_floor}
        ),
    }
    failed = [name for name, good in checks.items() if not good]
    _line(
        "C4b grain-costs (simulated pre-init)",
        not failed,
        f"simulated={steps}, published={published_total} + 2*({nfsr_floor}-5118) "
        f"for tap b96, which the published NFSR census leaves out",
    )
    assert not failed, f"{failed}: simulated {steps}, expected {expected}, buffers {sim_buffers}"


# --- C5: shift-plan census ----------------------------------------------------


def test_c5_shift_plan_census():
    checks = []
    expect_trivium = {
        "A": ((3, 90), (3499, 103637)),
        "B": ((4, 80), (4572, 92196)),
        "C": ((3, 108), (3490, 124382)),
    }
    for name, (steady, totals) in expect_trivium.items():
        plan = plan_for(TRIVIUM_LAYOUTS[name], Mode.PROPOSED)
        checks.append(plan.census(1152) == steady)
        checks.append(count_elements(plan, 1, 1152) == totals)
    expect_grain = {"LFSR": (6, 122), "NFSR": (20, 108)}
    for name, steady in expect_grain.items():
        plan = plan_for(GRAIN_LAYOUTS[name], Mode.PROPOSED)
        checks.append(plan.census(256) == steady)
    ok = all(checks)
    _line(
        "C5 shift-census",
        ok,
        "trivium steady (3,90)/(4,80)/(3,108) + cumulative totals; "
        "grain steady (6,122)/(20,108)",
    )
    assert ok


# --- C6: functional equivalence -----------------------------------------------

_TRIVIUM_VECTORS = [
    # (key hex, iv hex, first 16 keystream bytes).  The first nonzero-key row
    # is the externally published anchor that pins byte order and semantics;
    # the others were generated under the anchored convention.
    ("80000000000000000000", "00000000000000000000", "38eb86ff730d7a9caf8df13a4420540d"),
    ("00000000000000000000", "00000000000000000000", "fbe0bf265859051b517a2e4e239fc97f"),
    ("00000000000000000000", "80000000000000000000", "f8901736640549e3ba7d42ea2d07b9f4"),
    ("0053A6F94C9FF24598EB", "0D74DB42A91077DE45AC", "f4cd954a717f26a7d6930830c4e7cf08"),
]

_GRAIN_VECTORS = [
    # generated by the dual-checked oracle; no external publication of
    # keystream bytes was available to this build
    ("00000000000000000000000000000000", "000000000000000000000000",
     "0304fe446806a6d056a95447a661c8f6"),
    ("0123456789abcdef123456789abcdef0", "0123456789abcdef12345678",
     "715cfb6775cfe3df95273db2262fd87b"),
    ("ffffffffffffffffffffffffffffffff", "ffffffffffffffffffffffff",
     "276620ec716f390a1d4b3798424a64b6"),
]


def test_c6_functional_equivalence():
    rng = random.Random(0x5EED)
    lanes, n = 100, 512
    ok = True

    keys = [random_bits(rng, 80) for _ in range(lanes)]
    ivs = [random_bits(rng, 80) for _ in range(lanes)]
    refs = [trivium_ref(keys[w], ivs[w], n) for w in range(lanes)]
    for mode in (Mode.PROPOSED, Mode.CONVENTIONAL):
        sim = TriviumSim(lanes_to_masks(keys), lanes_to_masks(ivs), mode, width=lanes)
        masks = sim.keystream(n)
        ok &= all(masks_to_lane(masks, w) == refs[w] for w in range(lanes))

    gkeys = [random_bits(rng, 128) for _ in range(lanes)]
    givs = [random_bits(rng, 96) for _ in range(lanes)]
    grefs = [grain128a_ref(gkeys[w], givs[w], n) for w in range(lanes)]
    for mode in (Mode.PROPOSED, Mode.CONVENTIONAL):
        sim = GrainSim(lanes_to_masks(gkeys), lanes_to_masks(givs), mode, width=lanes)
        masks = sim.keystream(n)
        ok &= all(masks_to_lane(masks, w) == grefs[w] for w in range(lanes))

    for key_hex, iv_hex, first16 in _TRIVIUM_VECTORS:
        bits = trivium_ref(trivium_key_bits(key_hex), trivium_key_bits(iv_hex, "iv"), 128)
        ok &= bits_to_bytes_lsb_first(bits).hex() == first16
    for key_hex, iv_hex, first16 in _GRAIN_VECTORS:
        bits = grain128a_ref(grain_key_bits(key_hex, 16), grain_key_bits(iv_hex, 12), 128)
        ok &= bits_to_bytes_lsb_first(bits).hex() == first16

    _line(
        "C6 equivalence",
        ok,
        f"{lanes} random key/IV pairs x {n} bits, both ciphers, both modes; "
        f"oracle vectors checked (trivium anchor published; grain vectors "
        f"dual-implementation derived)",
    )
    assert ok


# --- C7: polarity invariant -----------------------------------------------------


def test_c7_polarity_invariant():
    ok = True
    mutations = 0
    for layouts in (TRIVIUM_LAYOUTS, GRAIN_LAYOUTS):
        for layout in layouts.values():
            horizon = 2 * layout.length + 8
            plan = plan_for(layout, Mode.PROPOSED)
            ok &= verify_polarity(plan, layout, horizon)
            for k, k1 in layout.tap_pairs:
                for cycle in (1, layout.length, horizon - 1):
                    bad = plan.with_element(cycle, k1, Element.INVERTER)
                    ok &= not verify_polarity(bad, layout, horizon)
                    mutations += 1
    _line(
        "C7 polarity",
        ok,
        f"5 proposed plans verified over 2x length; {mutations} single "
        f"tap-pair mutations all rejected",
    )
    assert ok


# --- C8: steganography round trip ------------------------------------------------


def _stego_round_trip(cipher_ref, key, iv, message: bytes, seed: int):
    cover = stego.GrayImage(256, 256, random.Random(seed).randbytes(256 * 256))
    msg_bits = [(byte >> (7 - j)) & 1 for byte in message for j in range(8)]
    ks = cipher_ref(key, iv, len(msg_bits))
    stego_img = stego.embed_lsb(cover, stego.StegoPayload(bytes(xorcrypt(msg_bits, ks))))
    value = stego.psnr(cover, stego_img)
    extracted = stego.extract_lsb(stego_img)
    recovered = xorcrypt(extracted.bits, ks)
    return recovered == msg_bits, value


def test_c8_steganography_round_trip():
    rng = random.Random(0xA5A5)
    cap_bytes = (256 * 256 - stego.HEADER_BITS) // 8  # 8188 bytes
    cases = [
        ("trivium", trivium_ref, random_bits(rng, 80), random_bits(rng, 80), cap_bytes // 100),
        ("grain128a", grain128a_ref, random_bits(rng, 128), random_bits(rng, 96), cap_bytes // 2),
        ("trivium", trivium_ref, random_bits(rng, 80), random_bits(rng, 80), cap_bytes),
    ]
    ok = True
    min_psnr = math.inf
    bound = 10 * math.log10(255**2)  # 48.13 dB
    for i, (name, ref, key, iv, nbytes) in enumerate(cases):
        message = bytes(rng.getrandbits(8) for _ in range(nbytes))
        good, value = _stego_round_trip(ref, key, iv, message, seed=i)
        ok &= good and value >= bound
        min_psnr = min(min_psnr, value)
    _line(
        "C8 steganography",
        ok,
        f"1%/50%/100% capacity round trips exact; min PSNR "
        f"{min_psnr:.3f} dB >= {bound:.2f} dB",
    )
    assert ok


# --- C9: improvement ratios --------------------------------------------------------


def test_c9_improvement_ratios():
    r = costs.improvement_ratios()
    trivium_pct = 100 * r["trivium"]["steps_reduction"]
    grain_pct = 100 * r["grain128a"]["steps_reduction"]
    ok = abs(trivium_pct - 38.4) <= 0.5 and abs(grain_pct - 42.8) <= 0.5
    _line(
        "C9 ratios",
        ok,
        f"step reductions {trivium_pct:.1f}% / {grain_pct:.1f}% "
        f"(energy: {100 * r['trivium']['energy_reduction']:.1f}% / "
        f"{100 * r['grain128a']['energy_reduction']:.1f}%)",
    )
    assert ok
