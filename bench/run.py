#!/usr/bin/env python3
"""implysim benchmark: closed-loop workloads through the package's public
entry points, with every output checked against the reference oracles and
the exact cost forms.

Run from the repository root:

    python3 bench/run.py --workload bulk --seed 1 --seconds 25 --trace 0

One worker (this process) runs one job at a time until the jobs' summed
host time reaches ``--seconds``, always finishing the current rotation of
the workload's job list.  Inputs (keys, IVs, messages, covers) come from
``--seed``.  Each job is checked after its timed part.  With ``--trace 0``
the last output line holds the end-to-end metrics; with ``--trace 1`` it
holds the per-layer metrics of a traced run.  Host times are restated at a
reference host speed (see ``HostSpeed`` and README.md).  The program is
imported from ``src/`` next to this directory and nowhere else.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

CIPHER_MODES = (
    ("trivium", "proposed"),
    ("trivium", "conventional"),
    ("grain128a", "proposed"),
    ("grain128a", "conventional"),
)
LABELS = tuple(f"{c}-{m}" for c, m in CIPHER_MODES)
LANE_WIDTH = 1024
SESSION_BYTES = 32
COVER_SIDE = 32
SETUP_REPEATS = 11

#: calibration passes (see ``HostSpeed``): 400 pulses each over a row of
#: 294 cells, p == -1 meaning FALSE(q), from a constant seed so every run
#: times the same loops.  Successive ticks walk through 40 different op
#: tuples.
_cal_rng = random.Random(0x1A5E)
CAL_CELLS = 294
CAL_PASSES = tuple(
    tuple((p, (p + _cal_rng.randrange(1, CAL_CELLS)) % CAL_CELLS)
          for p in (_cal_rng.randrange(-1, CAL_CELLS) for _ in range(400)))
    for _ in range(40)
)
CAL_PERIOD_S = 0.01
CAL_REFERENCE_S = 32e-6
PAGE_BYTES = os.sysconf("SC_PAGE_SIZE")


@dataclass(frozen=True)
class Job:
    kind: str  # "crypt", "stego" or "lanes"
    cipher: str
    mode: str
    bits: int  # message bits, or keystream bits per lane

    @property
    def label(self) -> str:
        return f"{self.cipher}-{self.mode}"


# bulk: file sizes make each job simulate about 12M pulses
# (steps = slope * bits + init, from costs.simulated_form), so the four jobs
# take similar host time and the latency percentiles come from one cluster
# rather than from whichever cipher-mode sits at the percentile's rank.
# sessions: every job is small, so init cycles and per-instance setup
# dominate.  lanes: about the same host time per job for either cipher.
WORKLOADS = {
    "bulk": [
        Job("crypt", "trivium", "proposed", 8 * 1972),
        Job("crypt", "trivium", "conventional", 8 * 1043),
        Job("crypt", "grain128a", "proposed", 8 * 1560),
        Job("crypt", "grain128a", "conventional", 8 * 1038),
    ],
    "sessions": [Job(kind, c, m, 8 * SESSION_BYTES) for kind in ("crypt", "stego") for c, m in CIPHER_MODES],
    "lanes": [
        Job("lanes", "trivium", "proposed", 1696),
        Job("lanes", "grain128a", "proposed", 1608),
    ],
}

END_TO_END = {
    "setup_s": "s",
    "bits_per_s": "bit/s",
    "lane_bits_per_s": "bit/s",
    "sessions_per_s": "1/s",
    "session_p50_s": "s",
    "session_tail_s": "s",
    "pulses_per_s": "1/s",
    "peak_rss_mb": "MB",
    "sim_steps_per_bit": "step/bit",
    "sim_nj_per_bit": "nJ/bit",
}

#: per cipher-mode layer metrics; the cipher module's own ones are prefixed
#: with that module's name and exist only for its cipher-modes
LAYER_METRICS = {
    "engine.execute_s": "s",
    "engine.pulses": "count",
    "engine.ns_per_pulse": "ns",
    "{cim}.step_self_s": "s",
    "{cim}.sim_self_s": "s",
    "{cim}.cycles": "count",
    "programs.build_s": "s",
    "programs.built": "count",
    "programs.reuse": "cycle/program",
    "shifting.plan_s": "s",
    "costs.aggregate_s": "s",
    "reference.pack_s": "s",
    "reference.parse_s": "s",
    "stego.pgm_io_s": "s",
    "stego.embed_s": "s",
    "stego.extract_s": "s",
    "stego.psnr_s": "s",
    "cli.self_s": "s",
    "costs.published_delta_init_steps": "step",
    "costs.published_delta_steps_per_bit": "step/bit",
    "costs.published_delta_init_uj": "uJ",
    "costs.published_delta_nj_per_bit": "nJ/bit",
}
RUN_LAYER_METRICS = {
    "host.scale": "ratio",
    "setup.import_stego_s": "s",
    "setup.import_rest_s": "s",
    "trace.overhead": "ratio",
    "trace.self_sum_share": "ratio",
}


def cim_name(cipher: str) -> str:
    return "trivium_cim" if cipher == "trivium" else "grain_cim"


def per_layer_names() -> dict[str, str]:
    """Every per-layer metric name with its unit, in output order."""
    out = dict(RUN_LAYER_METRICS)
    for (cipher, _mode), label in zip(CIPHER_MODES, LABELS):
        for name, unit in LAYER_METRICS.items():
            out[f"{name.format(cim=cim_name(cipher))}.{label}"] = unit
    return out


class CheckError(AssertionError):
    """A job's output differs from the oracle or from the exact cost form."""


def check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckError(what)


# --- the program under test ---------------------------------------------------


class Program:
    """The implysim modules, imported from this checkout's ``src``."""

    def __init__(self):
        package = SRC / "implysim"
        if not (package / "__init__.py").is_file():
            sys.exit(f"error: no implysim package at {package}")
        sys.path.insert(0, str(SRC))
        import implysim
        from implysim import cli, costs, grain_cim, reference, stego, trivium_cim
        from implysim.shifting import Mode

        if Path(implysim.__file__).resolve().parent != package:
            sys.exit(f"error: implysim imported from {implysim.__file__}, not {package}")
        self.cli, self.costs, self.reference, self.stego = cli, costs, reference, stego
        self.trivium_cim, self.grain_cim = trivium_cim, grain_cim
        self.Mode = Mode
        self.sims = {"trivium": implysim.TriviumSim, "grain128a": implysim.GrainSim}
        # every instance whose keystream a job runs, so that the costs of the
        # instances the CLI builds can be read after the job
        self.instances: list = []
        for cls in self.sims.values():
            self._record_instances(cls)

    def _record_instances(self, cls) -> None:
        keystream, instances = cls.keystream, self.instances

        def recorded(sim, n):
            instances.append(sim)
            return keystream(sim, n)

        cls.keystream = recorded

    def layer_hooks(self):
        """(owner, attribute, layer, counts) for every call the traced run wraps.

        The cipher modules bind ``execute`` and the planners by name, so
        those are wrapped in the cipher modules' namespaces; likewise the
        CLI's imported helpers from ``reference``.
        """
        cli, stego = self.cli, self.stego
        hooks = [
            (cli, "main", "cli", False),
            (cli, "trivium_key_bits", "reference.parse", False),
            (cli, "grain_key_bits", "reference.parse", False),
            (cli, "bytes_to_bits_msb_first", "reference.pack", False),
            (cli, "bits_to_bytes_msb_first", "reference.pack", False),
            (cli, "bits_to_bytes_lsb_first", "reference.pack", False),
            # stego's own MSB-first packer duplicates reference's
            (stego.StegoPayload, "to_bytes", "reference.pack", False),
            (stego, "read_pgm", "stego.pgm_io", False),
            (stego, "write_pgm", "stego.pgm_io", False),
            (stego, "embed_lsb", "stego.embed", False),
            (stego, "extract_lsb", "stego.extract", False),
            (stego, "psnr", "stego.psnr", False),
            (self.costs, "aggregate", "costs.aggregate", False),
        ]
        for module, cls in ((self.trivium_cim, self.sims["trivium"]), (self.grain_cim, self.sims["grain128a"])):
            cim = module.__name__.rsplit(".", 1)[1]
            hooks += [
                (module, "execute", "engine.execute", True),
                (module, "plan_proposed", "shifting.plan", False),
                (module, "plan_conventional", "shifting.plan", False),
                (cls, "__init__", f"{cim}.sim", False),
                (cls, "keystream", f"{cim}.sim", False),
                (cls, "step_cycle", f"{cim}.step", False),
                (cls, "_build_cycle", "programs.build", False),
            ]
        return hooks

    def key_iv_bits(self, cipher: str, key_hex: str, iv_hex: str):
        ref = self.reference
        if cipher == "trivium":
            return ref.trivium_key_bits(key_hex, "key"), ref.trivium_key_bits(iv_hex, "iv")
        return ref.grain_key_bits(key_hex, 16, "key"), ref.grain_key_bits(iv_hex, 12, "iv")

    def oracle(self, cipher: str, key_bits, iv_bits, n: int) -> list[int]:
        ref = self.reference
        fn = ref.trivium_ref if cipher == "trivium" else ref.grain128a_ref
        return fn(key_bits, iv_bits, n)

    def phases(self, sim) -> list[tuple[int, int, int]]:
        """(cycles, steps, energy in 1e-4 nJ) of an instance's init and
        keystream phases, from ``costs.aggregate``."""
        report = self.costs.aggregate(sim)
        return [(p.cycles, p.steps, p.energy_e4) for p in (report.init, report.keystream)]

    def check_costs(self, job: Job, init: tuple, keystream: tuple, n: int) -> tuple[int, int]:
        """Check (cycles, steps, energy in 1e-4 nJ) of both phases against
        ``costs.simulated_form``; returns the total steps and energy."""
        mode = self.Mode(job.mode)
        init_steps, init_uj = self.costs.simulated_form(job.cipher, mode, 0)
        total_steps, total_uj = self.costs.simulated_form(job.cipher, mode, n)
        sim = self.sims[job.cipher]
        check(init[0] == sim.INIT_CYCLES and keystream[0] == n, f"cycles {init[0]}+{keystream[0]}")
        check(init[1] == init_steps, f"init steps {init[1]} != {init_steps}")
        check(init[1] + keystream[1] == total_steps, f"steps {init[1] + keystream[1]} != {total_steps}")
        check(init[2] == round(init_uj * 1e7), f"init energy {init[2]} e-4 nJ")
        check(init[2] + keystream[2] == round(total_uj * 1e7), f"energy {init[2] + keystream[2]} e-4 nJ")
        return total_steps, init[2] + keystream[2]


# --- jobs: prepare (untimed), run (timed), verify (untimed) --------------------


def pack_msb_first(bits) -> bytes:
    """Independent of the packers under test."""
    return int("".join(map(str, bits)), 2).to_bytes(len(bits) // 8, "big")


def key_iv_hex(rng: random.Random, cipher: str) -> tuple[str, str]:
    key_bytes, iv_bytes = (10, 10) if cipher == "trivium" else (16, 12)
    return rng.randbytes(key_bytes).hex(), rng.randbytes(iv_bytes).hex()


def cli_args(job: Job, key: str, iv: str) -> list[str]:
    return ["--cipher", job.cipher, "--mode", job.mode, "--key", key, "--iv", iv]


def call_cli(prog: Program, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = prog.cli.main(argv)
    return rc, out.getvalue()


def prepare_crypt(prog, job, rng, work):
    key, iv = key_iv_hex(rng, job.cipher)
    msg = rng.randbytes(job.bits // 8)
    (work / "msg.bin").write_bytes(msg)
    argv = ["crypt", *cli_args(job, key, iv), "--in", str(work / "msg.bin"), "--out", str(work / "out.bin"),
            "--report", "json", "--report-out", str(work / "report.json")]
    return {"key": key, "iv": iv, "msg": msg, "argv": argv}


def run_crypt(prog, state):
    return call_cli(prog, state["argv"])


def verify_crypt(prog, job, state, result, work):
    rc, _ = result
    check(rc == 0, f"crypt exit code {rc}")
    ks = prog.oracle(job.cipher, *prog.key_iv_bits(job.cipher, state["key"], state["iv"]), job.bits)
    msg_bits = prog.reference.bytes_to_bits_msb_first(state["msg"])
    expected = pack_msb_first(prog.reference.xorcrypt(msg_bits, ks))
    check((work / "out.bin").read_bytes() == expected, "ciphertext differs from the oracle's")
    report = json.loads((work / "report.json").read_text())
    phases = [(p["cycles"], p["steps"], round(p["energy_uj"] * 1e7)) for p in (report["init"], report["keystream"])]
    steps, energy = prog.check_costs(job, *phases, job.bits)
    return job.bits, steps, energy


def prepare_stego(prog, job, rng, work):
    key, iv = key_iv_hex(rng, job.cipher)
    msg = rng.randbytes(job.bits // 8)
    cover = rng.randbytes(COVER_SIDE * COVER_SIDE)
    header = f"P5\n{COVER_SIDE} {COVER_SIDE}\n255\n".encode()
    (work / "msg.bin").write_bytes(msg)
    (work / "cover.pgm").write_bytes(header + cover)
    args = cli_args(job, key, iv)
    embed = ["stego", "embed", *args, "--cover", str(work / "cover.pgm"), "--in", str(work / "msg.bin"),
             "--stego", str(work / "stego.pgm")]
    extract = ["stego", "extract", *args, "--stego", str(work / "stego.pgm"), "--out", str(work / "rec.bin")]
    return {"key": key, "iv": iv, "msg": msg, "cover": cover, "header": header, "embed": embed, "extract": extract}


def run_stego(prog, state):
    rc_embed, printed = call_cli(prog, state["embed"])
    rc_extract, _ = call_cli(prog, state["extract"])
    return rc_embed, rc_extract, printed


def verify_stego(prog, job, state, result, work):
    rc_embed, rc_extract, printed = result
    check(rc_embed == 0 and rc_extract == 0, f"stego exit codes {rc_embed}, {rc_extract}")
    ks = prog.oracle(job.cipher, *prog.key_iv_bits(job.cipher, state["key"], state["iv"]), job.bits)
    cipher_bits = prog.reference.xorcrypt(prog.reference.bytes_to_bits_msb_first(state["msg"]), ks)
    lsbs = [(job.bits >> (31 - i)) & 1 for i in range(32)] + cipher_bits
    pixels = bytearray(state["cover"])
    for i, bit in enumerate(lsbs):
        pixels[i] = (pixels[i] & 0xFE) | bit
    check((work / "stego.pgm").read_bytes() == state["header"] + bytes(pixels), "stego image differs")
    check((work / "rec.bin").read_bytes() == state["msg"], "extracted message differs")
    changed = sum(a != b for a, b in zip(state["cover"], pixels))
    psnr = 10.0 * math.log10(255.0**2 * len(pixels) / changed) if changed else float("inf")
    check(printed == f"PSNR: {psnr:.3f} dB\n", f"printed {printed!r}, expected PSNR {psnr:.3f}")
    # embed and extract each build one instance and run it over the message
    check(len(prog.instances) == 2, f"{len(prog.instances)} instances ran a keystream, not 2")
    costs = [prog.check_costs(job, *prog.phases(sim), job.bits) for sim in prog.instances]
    return 2 * job.bits, sum(steps for steps, _ in costs), sum(energy for _, energy in costs)


def prepare_lanes(prog, job, rng, work):
    key_len, iv_len = (80, 80) if job.cipher == "trivium" else (128, 96)
    return {
        "key": [rng.getrandbits(LANE_WIDTH) for _ in range(key_len)],
        "iv": [rng.getrandbits(LANE_WIDTH) for _ in range(iv_len)],
        "sample": rng.sample(range(LANE_WIDTH), 2),
        "cls": prog.sims[job.cipher],
        "mode": prog.Mode(job.mode),
        "n": job.bits,
    }


def run_lanes(prog, state):
    sim = state["cls"](state["key"], state["iv"], state["mode"], width=LANE_WIDTH)
    ks = sim.keystream(state["n"])
    return ks, prog.costs.aggregate(sim)


def verify_lanes(prog, job, state, result, work):
    ks, report = result
    check(len(ks) == job.bits, f"{len(ks)} keystream masks")
    for lane in state["sample"]:
        key = [(k >> lane) & 1 for k in state["key"]]
        iv = [(v >> lane) & 1 for v in state["iv"]]
        got = [(z >> lane) & 1 for z in ks]
        check(got == prog.oracle(job.cipher, key, iv, job.bits), f"lane {lane} keystream differs")
    phases = [(p.cycles, p.steps, p.energy_e4) for p in (report.init, report.keystream)]
    steps, energy = prog.check_costs(job, *phases, job.bits)
    return job.bits, steps, energy


KINDS = {
    "crypt": (prepare_crypt, run_crypt, verify_crypt),
    "stego": (prepare_stego, run_stego, verify_stego),
    "lanes": (prepare_lanes, run_lanes, verify_lanes),
}


# --- measurement ----------------------------------------------------------------


@dataclass
class Done:
    job: Job
    seconds: float
    traced: bool
    bits: int  # keystream bits per lane
    steps: int  # simulated pulses per lane
    energy_e4: int  # simulated energy per lane, 1e-4 nJ
    scale: float = 1.0  # host speed scale over the job's rotation

    @property
    def scaled_seconds(self) -> float:
        return self.seconds * self.scale

    @property
    def width(self) -> int:
        return LANE_WIDTH if self.job.kind == "lanes" else 1


SETUP_CHILD = """\
import time
t0 = time.perf_counter()
import implysim
t1 = time.perf_counter()
import implysim.stego
t2 = time.perf_counter()
import implysim.cli
t3 = time.perf_counter()
print(t1 - t0, t2 - t1, t3 - t2, implysim.__file__)
"""


class Setup:
    """Fresh interpreters importing ``implysim.cli``: wall time, and its
    split into the ``stego`` import (numpy) and the rest, each restated at
    the reference speed measured while the interpreter ran.

    The samples are spread over the run, one each time the jobs' summed
    time passes another ``seconds / SETUP_REPEATS``; any still missing are
    taken at the end.  A first import, which may write bytecode caches, is
    dropped.  Sampling happens between rotations, so it has the host speed
    calibration to itself."""

    def __init__(self, seconds: float, host: HostSpeed):
        self.every = seconds / SETUP_REPEATS
        self.host = host
        self.samples: list[tuple[float, float, float]] = []
        self._sample()

    def _sample(self) -> tuple[float, float, float]:
        env = dict(os.environ, PYTHONPATH=str(SRC))
        out, wall = self.host.timed(subprocess.run, [sys.executable, "-c", SETUP_CHILD], cwd=ROOT, env=env,
                                    capture_output=True, text=True, check=True, timeout=120)
        scale = self.host.window_scale()
        package, stego, cli, path = out.stdout.split()
        if Path(path).resolve().parent != SRC / "implysim":
            sys.exit(f"error: set-up imported implysim from {path}")
        return wall * scale, float(stego) * scale, (float(package) + float(cli)) * scale

    def due(self, busy: float) -> None:
        while len(self.samples) < SETUP_REPEATS and busy >= len(self.samples) * self.every:
            self.samples.append(self._sample())

    def medians(self) -> tuple[float, float, float]:
        while len(self.samples) < SETUP_REPEATS:
            self.samples.append(self._sample())
        return tuple(statistics.median(column) for column in zip(*self.samples))


class HostSpeed:
    """The host's speed while jobs run, from a fixed calibration loop, and
    the worker's resident memory while they run.

    The host's speed drifts by up to about 1.5x within seconds and between
    runs, in CPU time as well as wall time and for any Python code alike,
    so runs of identical work differ by 15-20%.  While a job runs, a timer
    signal every ``CAL_PERIOD_S`` runs one pass of a fixed loop shaped like
    the engine's inner loop, to bring its ops into cache, then times a
    second pass of the same ops; the tick's whole time is taken out of the
    job's time.  Only the warm second pass is timed, so the program's
    working set, which may have evicted the ops since the last tick, does
    not move the measurement.  A scale of the reference pass time
    ``CAL_REFERENCE_S`` over the measured one restates a host time at the
    reference speed when multiplied by it (a rate when divided).  Job times
    use the scale measured over their own rotation, set-up samples the one
    measured while their interpreter ran.

    In calls timed with ``sample_rss``, each tick and the call's end also
    read the resident set size, keeping its highest value in ``rss_peak``;
    set-up samples, checks and the rest of the benchmark's own work are not
    sampled."""

    def __init__(self):
        self.seconds = 0.0
        self.timed_seconds = 0.0
        self.passes = 0
        self._window = (0.0, 0)
        self._cells = [i & 1 for i in range(CAL_CELLS)]
        self._statm = os.open("/proc/self/statm", os.O_RDONLY)
        self._sample_rss = False
        self.rss_peak = 0

    def resident_bytes(self) -> int:
        return int(os.pread(self._statm, 64, 0).split()[1]) * PAGE_BYTES

    def _tick(self, signum, frame) -> None:
        cells = self._cells
        ops = CAL_PASSES[self.passes % len(CAL_PASSES)]
        t0 = perf_counter()
        for p, q in ops:
            cells[q] = 0 if p < 0 else ((cells[p] ^ 1) | cells[q])
        t1 = perf_counter()
        for p, q in ops:
            cells[q] = 0 if p < 0 else ((cells[p] ^ 1) | cells[q])
        t2 = perf_counter()
        if self._sample_rss:
            self.rss_peak = max(self.rss_peak, self.resident_bytes())
        self.timed_seconds += t2 - t1
        self.passes += 1
        self.seconds += perf_counter() - t0

    def timed(self, fn, *args, sample_rss: bool = False, **kwargs):
        """(fn(*args, **kwargs), its wall time less the calibration ticks')."""
        previous = signal.signal(signal.SIGALRM, self._tick)
        spent = self.seconds
        self._sample_rss = sample_rss
        signal.setitimer(signal.ITIMER_REAL, CAL_PERIOD_S, CAL_PERIOD_S)
        try:
            t0 = perf_counter()
            result = fn(*args, **kwargs)
            wall = perf_counter() - t0
            if sample_rss:
                self.rss_peak = max(self.rss_peak, self.resident_bytes())
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self._sample_rss = False
        return result, wall - (self.seconds - spent)

    def window_scale(self) -> float:
        """The scale since the last call (the whole run's if no pass ran)."""
        seconds, passes = self.timed_seconds - self._window[0], self.passes - self._window[1]
        self._window = (self.timed_seconds, self.passes)
        return CAL_REFERENCE_S * passes / seconds if passes else self.scale

    @property
    def scale(self) -> float:
        return CAL_REFERENCE_S * self.passes / self.timed_seconds if self.passes else 1.0


def run_jobs(prog: Program, jobs: list[Job], seed: int, seconds: float, tracer: Tracer | None, work: Path,
             setup: Setup, host: HostSpeed):
    """Closed loop over whole rotations of ``jobs`` until the summed job time
    reaches ``seconds``.  With a tracer, even rotations are traced and odd
    ones are not, so the two halves see the same conditions."""
    rng = random.Random(seed)
    done: list[Done] = []
    attempted = failed = 0
    busy = 0.0
    rss_mark = host.resident_bytes()
    rotation = first_of_rotation = 0
    while busy < seconds:
        setup.due(busy)
        traced = tracer is not None and rotation % 2 == 0
        if traced:
            for owner, attr, layer, counts in prog.layer_hooks():
                tracer.wrap(owner, attr, layer, counts)
        try:
            for job in jobs:
                attempted += 1
                prepare, run, verify = KINDS[job.kind]
                state = prepare(prog, job, rng, work)
                prog.instances.clear()
                try:
                    if traced:
                        result, dt = host.timed(tracer.run_job, job.label, run, prog, state, sample_rss=True)
                    else:
                        result, dt = host.timed(run, prog, state, sample_rss=True)
                    busy += dt
                    bits, steps, energy = verify(prog, job, state, result, work)
                    done.append(Done(job, dt, traced, bits, steps, energy))
                except (Exception, SystemExit):
                    failed += 1
                    print(f"job {attempted} ({job.kind} {job.label}) failed:", file=sys.stderr)
                    traceback.print_exc()
        finally:
            if traced:
                tracer.unwrap()
        scale = host.window_scale()
        for d in done[first_of_rotation:]:
            d.scale = scale
        first_of_rotation = len(done)
        rotation += 1
    prog.instances.clear()
    return done, attempted, failed, host.rss_peak - rss_mark


def tail(latencies: list[float]) -> float:
    """The highest percentile with at least 10 samples beyond it; the
    maximum when there are 10 samples or fewer."""
    ordered = sorted(latencies)
    return ordered[-11] if len(ordered) > 10 else ordered[-1]


def end_to_end(done: list[Done], setup_s: float, rss_growth: int) -> dict[str, float]:
    """Host times are restated at the reference speed (see ``HostSpeed``).
    ``rss_growth`` is the highest resident set size sampled while jobs ran,
    less the one before the first job."""
    busy = sum(d.scaled_seconds for d in done)
    bits = sum(d.bits for d in done)
    latencies = [d.scaled_seconds for d in done]
    return {
        "setup_s": setup_s,
        "bits_per_s": bits / busy,
        "lane_bits_per_s": sum(d.bits * d.width for d in done) / busy,
        "sessions_per_s": len(done) / busy,
        "session_p50_s": statistics.median(latencies),
        "session_tail_s": tail(latencies),
        "pulses_per_s": sum(d.steps * d.width for d in done) / busy,
        "peak_rss_mb": rss_growth / 2**20,
        # ratios of exact integers, so every run and seed gives the same value
        "sim_steps_per_bit": float(Fraction(sum(d.steps for d in done), bits)),
        "sim_nj_per_bit": float(Fraction(sum(d.energy_e4 for d in done), 10_000 * bits)),
    }


def published_deltas(prog: Program) -> dict[str, dict[str, float]]:
    """``costs.compare`` of one width-1 instance per cipher-mode against the
    published closed forms, after init (n=0) and one keystream bit (n=1):
    the init delta and the per-bit delta."""
    out = {}
    for (cipher, mode), label in zip(CIPHER_MODES, LABELS):
        key, iv = prog.key_iv_bits(cipher, *key_iv_hex(random.Random(0), cipher))
        sim = prog.sims[cipher](key, iv, prog.Mode(mode))
        sim.keystream(0)
        at0 = prog.costs.compare(prog.costs.aggregate(sim), 0)
        sim.keystream(1)
        at1 = prog.costs.compare(prog.costs.aggregate(sim), 1)
        out[label] = {
            "costs.published_delta_init_steps": at0["steps"]["delta"],
            "costs.published_delta_steps_per_bit": at1["steps"]["delta"] - at0["steps"]["delta"],
            "costs.published_delta_init_uj": at0["energy_uj"]["delta"],
            "costs.published_delta_nj_per_bit": round((at1["energy_uj"]["delta"] - at0["energy_uj"]["delta"]) * 1e3, 4),
        }
    return out


def per_layer(tracer: Tracer, done: list[Done], setup: tuple, deltas: dict) -> dict[str, float]:
    """Layer times are per job, restated at the reference speed with the
    traced jobs' scale."""
    self_s, calls, values = tracer.layer_totals()
    traced = [d for d in done if d.traced]
    untraced = [d for d in done if not d.traced]
    scale = sum(d.scaled_seconds for d in traced) / sum(d.seconds for d in traced)

    def rate(ds):
        return sum(d.steps * d.width for d in ds) / sum(d.scaled_seconds for d in ds) if ds else 0.0

    traced_wall = sum(self_s.values())  # the job spans' durations
    layer_self = traced_wall - sum(s for (name, _), s in self_s.items() if name == "job")
    out = {
        "host.scale": scale,
        "setup.import_stego_s": setup[1],
        "setup.import_rest_s": setup[2],
        "trace.overhead": rate(untraced) / rate(traced) - 1 if untraced and traced else 0.0,
        "trace.self_sum_share": layer_self / traced_wall if traced_wall else 0.0,
    }
    for (cipher, _mode), label in zip(CIPHER_MODES, LABELS):
        jobs = sum(1 for d in traced if d.job.label == label)

        def per_job(table, name):
            return table.get((name, label), 0) / jobs if jobs else 0.0

        def per_job_s(name):
            return per_job(self_s, name) * scale

        cim = cim_name(cipher)
        execute_s, pulses = per_job_s("engine.execute"), per_job(values, "engine.execute")
        cycles, built = per_job(calls, f"{cim}.step"), per_job(calls, "programs.build")
        row = {
            "engine.execute_s": execute_s,
            "engine.pulses": pulses,
            "engine.ns_per_pulse": execute_s / pulses * 1e9 if pulses else 0.0,
            f"{cim}.step_self_s": per_job_s(f"{cim}.step"),
            f"{cim}.sim_self_s": per_job_s(f"{cim}.sim"),
            f"{cim}.cycles": cycles,
            "programs.build_s": per_job_s("programs.build"),
            "programs.built": built,
            "programs.reuse": cycles / built if built else 0.0,
            "shifting.plan_s": per_job_s("shifting.plan"),
            "costs.aggregate_s": per_job_s("costs.aggregate"),
            "reference.pack_s": per_job_s("reference.pack"),
            "reference.parse_s": per_job_s("reference.parse"),
            "stego.pgm_io_s": per_job_s("stego.pgm_io"),
            "stego.embed_s": per_job_s("stego.embed"),
            "stego.extract_s": per_job_s("stego.extract"),
            "stego.psnr_s": per_job_s("stego.psnr"),
            "cli.self_s": per_job_s("cli"),
            **deltas[label],
        }
        out.update({f"{name}.{label}": value for name, value in row.items()})
    return out


def print_sheet(workload: str, done: list[Done], deltas: dict) -> None:
    """Per cipher-mode hardware-sim sheet: simulated cost per delivered bit
    beside its delta from the published closed forms."""
    print(f"hardware-sim sheet, workload {workload} (simulated pulses and table energies;"
          " the model has no hardware validation)")
    for label in LABELS:
        ds = [d for d in done if d.job.label == label]
        if not ds:
            continue
        bits = sum(d.bits for d in ds)
        steps = sum(d.steps for d in ds) / bits
        nj = sum(d.energy_e4 for d in ds) / 1e4 / bits
        delta = deltas[label]
        print(f"  {label:<24} {steps:10.3f} step/bit {nj:10.4f} nJ/bit   published delta:"
              f" init {delta['costs.published_delta_init_steps']:+d} steps,"
              f" {delta['costs.published_delta_steps_per_bit']:+d} step/bit,"
              f" init {delta['costs.published_delta_init_uj']:+.4f} uJ,"
              f" {delta['costs.published_delta_nj_per_bit']:+.4f} nJ/bit")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=list(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    prog = Program()
    OUT_DIR.mkdir(exist_ok=True)
    work = OUT_DIR / f"work-{os.getpid()}"
    work.mkdir()
    host = HostSpeed()
    setup = Setup(args.seconds, host)
    tracer = Tracer() if args.trace else None
    try:
        done, attempted, failed, rss_growth = run_jobs(prog, WORKLOADS[args.workload], args.seed, args.seconds,
                                                       tracer, work, setup, host)
    finally:
        shutil.rmtree(work)
    setup_medians = setup.medians()
    if not done:
        print("error: no job succeeded", file=sys.stderr)
        return 1
    deltas = published_deltas(prog)
    print_sheet(args.workload, done, deltas)
    print(f"jobs: {attempted} attempted, {failed} failed, error_rate {failed / attempted:.4f};"
          f" {len(done)} latency samples")
    print(f"host speed scale over the run {host.scale:.4f}: host times below are restated at the"
          " reference speed (multiplied by the scale, rates divided)")
    if args.trace:
        metrics, units = per_layer(tracer, done, setup_medians, deltas), per_layer_names()
        spans = OUT_DIR / f"spans-{args.workload}.csv.gz"
        tracer.write(spans)
        print(f"{len(tracer.start)} spans written to {spans.relative_to(ROOT)}")
    else:
        metrics, units = end_to_end(done, setup_medians[0], rss_growth), END_TO_END
    for name, value in metrics.items():
        print(f"  {name:<56} {value:>16.6g} {units[name]}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
