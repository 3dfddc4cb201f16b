"""Self-checks of the benchmark itself.

    python3 -m pytest -q bench/test_selfcheck.py

The simulated counts depend only on the workload's job sizes, never on the
data or on how many jobs fit in a run, so they must repeat exactly across
runs and across seeds.  The host speed scale must not depend on the
workload.  Takes a few minutes: 18 short runs and about 20 s of jobs.
"""

from __future__ import annotations

import json
import random
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
EXACT_END_TO_END = ("sim_steps_per_bit", "sim_nj_per_bit")
EXACT_LAYER_PREFIXES = ("engine.pulses.", "programs.built.")


def bench(workload: str, seed: int, trace: int, cwd: Path = HERE.parent) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def metrics(workload: str, seed: int, trace: int) -> dict:
    out = bench(workload, seed, trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return {name: (m["value"], m["unit"]) for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_sim_counts_repeat_across_runs_and_seeds(workload):
    for trace, declared in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
        runs = [metrics(workload, seed, trace) for seed in (1, 1, 2)]
        for run in runs:
            assert {name: unit for name, (_, unit) in run.items()} == {m["name"]: m["unit"] for m in declared}
        exact = [n for n in runs[0] if n in EXACT_END_TO_END or n.startswith(EXACT_LAYER_PREFIXES)]
        assert exact
        for name in exact:
            assert runs[0][name] == runs[1][name] == runs[2][name], name
        if trace == 0:
            assert all(value > 0 for value, _ in runs[0].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    out = bench("sessions", 1, 0, cwd=tmp_path)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


def test_host_scale_does_not_depend_on_the_workload(tmp_path):
    """Whole rotations of each workload's jobs, interleaved so that they
    share the host's drift: each workload's median scale stays within the
    quartile spread of all rotations' scales around their median."""
    import run

    prog, host, rng = run.Program(), run.HostSpeed(), random.Random(1)
    scales: dict[str, list[float]] = {name: [] for name in run.WORKLOADS}
    for _ in range(4):
        for name, jobs in run.WORKLOADS.items():
            for job in jobs:
                prepare, run_job, _ = run.KINDS[job.kind]
                host.timed(run_job, prog, prepare(prog, job, rng, tmp_path))
            scales[name].append(host.window_scale())
    q1, median, q3 = statistics.quantiles([s for values in scales.values() for s in values], n=4)
    for name, values in scales.items():
        assert abs(statistics.median(values) - median) <= q3 - q1, scales
