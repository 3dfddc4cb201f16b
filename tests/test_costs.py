import json
import subprocess
import sys

import pytest

from conftest import random_bits
from implysim.costs import (
    AccountingError,
    PhaseCost,
    aggregate,
    closed_form,
    closed_form_table,
    compare,
    improvement_ratios,
    report_table,
    simulated_form,
)
from implysim.gates import GATE_METRICS, GateKind
from implysim.grain_cim import GrainSim
from implysim.programs import CycleProgram, programs_for
from implysim.shifting import Mode, plan
from implysim.trivium_cim import TriviumSim

# published closed-form evaluations (steps, energy uJ)
PUBLISHED_POINTS = [
    ("trivium", Mode.CONVENTIONAL, 10000, 12957696, 965.2711),
    ("trivium", Mode.CONVENTIONAL, 100000, 116637696, 8768.2711),
    ("trivium", Mode.PROPOSED, 0, 797266, 53.4731),
    ("trivium", Mode.PROPOSED, 10000, 7897266, 531.4731),
    ("trivium", Mode.PROPOSED, 100000, 71797266, 4833.4731),
    ("grain128a", Mode.CONVENTIONAL, 10000, 16823520, 1013.7135),
    ("grain128a", Mode.CONVENTIONAL, 100000, 164963520, 9903.9135),
    ("grain128a", Mode.PROPOSED, 0, 245830, 17.6811),
    ("grain128a", Mode.PROPOSED, 10000, 9665830, 683.6811),
    ("grain128a", Mode.PROPOSED, 100000, 94445830, 6677.6811),
]


# the simulator's closed forms, pinned by hand as a reference independent of
# the programs they are derived from: steps (slope, intercept) and energy in
# 1e-4 nJ (slope, intercept).  The conventional slopes carry the per-cycle
# logic the published ones omit; the Grain proposed intercept is 64 above the
# published one because the published NFSR census leaves tap b96 unprotected
# during pre-init (32 buffers short).
PINNED_SIMULATED_FORMS = {
    ("trivium", Mode.CONVENTIONAL): ((1266, 1437696), (867905, 982717056)),
    ("trivium", Mode.PROPOSED): ((710, 797266), (478983, 534736271)),
    ("grain128a", Mode.CONVENTIONAL): ((1402, 363520), (997801, 259239168)),
    ("grain128a", Mode.PROPOSED): ((942, 245894), (676031, 176959781)),
}


@pytest.mark.parametrize("cipher,mode,n,steps,energy", PUBLISHED_POINTS)
def test_closed_form_published_points(cipher, mode, n, steps, energy):
    got_steps, got_energy = closed_form(cipher, mode, n)
    assert got_steps == steps
    assert abs(got_energy - energy) < 1e-9


@pytest.mark.parametrize("form", [closed_form, simulated_form], ids=lambda f: f.__name__)
def test_closed_form_rejects_negative_n(form):
    with pytest.raises(ValueError, match="n must be >= 0"):
        form("trivium", Mode.PROPOSED, -1)
    with pytest.raises(AccountingError):
        form("rc4", Mode.PROPOSED, 0)


@pytest.mark.parametrize("cipher,cls,klen,ivlen", [
    ("trivium", TriviumSim, 80, 80),
    ("grain128a", GrainSim, 128, 96),
])
@pytest.mark.parametrize("mode", [Mode.PROPOSED, Mode.CONVENTIONAL])
def test_simulated_form_matches_simulation(rng, cipher, cls, klen, ivlen, mode):
    n = 7
    sim = cls(random_bits(rng, klen), random_bits(rng, ivlen), mode)
    sim.keystream(n)
    report = aggregate(sim)
    steps, energy_uj = simulated_form(cipher, mode, n)
    assert report.total_steps == steps
    assert abs(report.total_energy_uj - energy_uj) < 1e-9


@pytest.mark.parametrize("n", [0, 1, 10000])
@pytest.mark.parametrize("cipher,mode", list(PINNED_SIMULATED_FORMS), ids=lambda x: getattr(x, "value", x))
def test_simulated_form_matches_pinned_literals(cipher, mode, n):
    (slope, intercept), (e_slope, e_intercept) = PINNED_SIMULATED_FORMS[cipher, mode]
    assert simulated_form(cipher, mode, n) == (slope * n + intercept, (e_slope * n + e_intercept) / 1e7)


def test_importing_the_cli_builds_no_program():
    # the simulated forms are derived on first use, so importing the CLI in a
    # fresh interpreter creates no program cache and runs no _build_cycle;
    # building one sim afterwards shows that the probe sees both
    code = (
        "import sys; built = []; sys.setprofile(lambda frame, event, arg: event == 'call'"
        " and frame.f_code.co_name == '_build_cycle' and built.append(1)); "
        "import implysim.cli; from implysim.programs import _cached, programs_for; "
        "print(_cached.cache_info().currsize, len(built)); "
        "sim = implysim.cli.trivium_cim.TriviumSim([0] * 80, [0] * 80); sys.setprofile(None); "
        "print(_cached.cache_info().currsize, len(built) > 0,"
        " programs_for(type(sim), sim.mode) is sim._programs)"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.split("\n")[:2] == ["0 0", "1 True True"]


def test_compare_trivium_proposed_steps_exact(rng):
    sim = TriviumSim(random_bits(rng, 80), random_bits(rng, 80), Mode.PROPOSED)
    sim.keystream(25)
    result = compare(aggregate(sim), 25)
    assert result["steps_match"]
    assert result["steps"]["delta"] == 0


def test_trivium_proposed_simulated_total_at_n_10000(rng):
    # simulated total equals the published closed form over a long run
    sim = TriviumSim(random_bits(rng, 80), random_bits(rng, 80), Mode.PROPOSED)
    sim.keystream(10000)
    report = aggregate(sim)
    assert report.total_steps == 7897266
    assert compare(aggregate(sim), 10000)["steps_match"]


def test_compare_grain_proposed_constant_step_delta(rng):
    # the published pre-init total leaves tap b96's 32 transitional buffers
    # out, 64 steps; the delta is constant in n because the marginal cost
    # (942) agrees
    sim = GrainSim(random_bits(rng, 128), random_bits(rng, 96), Mode.PROPOSED)
    sim.keystream(10)
    result = compare(aggregate(sim), 10)
    assert result["steps"]["delta"] == 64
    assert not result["steps_match"]


def test_compare_conventional_slope_divergence(rng):
    # published conventional slopes count only the shift steps; the simulated
    # slope additionally carries the per-cycle logic (114 and 378-244)
    sim = TriviumSim(random_bits(rng, 80), random_bits(rng, 80), Mode.CONVENTIONAL)
    sim.keystream(5)
    assert compare(aggregate(sim), 5)["steps"]["delta"] == 114 * 5
    sim = GrainSim(random_bits(rng, 128), random_bits(rng, 96), Mode.CONVENTIONAL)
    sim.keystream(5)
    assert compare(aggregate(sim), 5)["steps"]["delta"] == -244 * 5


def test_compare_rejects_mismatched_n(rng):
    sim = TriviumSim(random_bits(rng, 80), random_bits(rng, 80), Mode.PROPOSED)
    sim.keystream(3)
    with pytest.raises(AccountingError):
        compare(aggregate(sim), 4)


def test_improvement_ratios():
    r = improvement_ratios()
    assert abs(r["trivium"]["steps_reduction"] - (1 - 710 / 1152)) < 1e-12
    assert abs(r["grain128a"]["steps_reduction"] - (1 - 942 / 1646)) < 1e-12
    assert abs(r["trivium"]["energy_reduction"] - (1 - 0.0478 / 0.0867)) < 1e-9
    assert abs(r["grain128a"]["energy_reduction"] - (1 - 0.0666 / 0.09878)) < 1e-9


def test_phase_cost_energy_for_eleven_destructive_xors():
    p = PhaseCost(cycles=1, steps=99, census={(GateKind.XOR2_DESTRUCTIVE, None): 11})
    p.validate()
    assert p.energy_e4 == 81686  # 8.1686 nJ
    assert abs(p.energy_nj - 8.1686) < 1e-12


def test_phase_cost_validation_and_unknown_energy():
    bad = PhaseCost(cycles=1, steps=5, census={(GateKind.AND2, None): 2})
    with pytest.raises(AccountingError):
        bad.validate()
    # every kind has an energy model, so no census has an unknown energy
    census = {(kind, None): 1 for kind in GateKind}
    every = PhaseCost(cycles=1, steps=sum(GATE_METRICS[k].steps for k in GateKind), census=census)
    every.validate()
    assert every.energy_e4 == sum(round(GATE_METRICS[k].energy_nj * 10000) for k in GateKind) > 0


@pytest.mark.parametrize("phase", ["init", "keystream_phase"])
def test_aggregate_rejects_census_that_disagrees_with_executed_steps(rng, phase):
    sim = TriviumSim(random_bits(rng, 80), random_bits(rng, 80), Mode.PROPOSED)
    sim.keystream(1)
    # a program whose census claims one AND2 but that executed no pulse
    getattr(sim, phase).add(CycleProgram((), (((GateKind.AND2, None), 1),), 0), 1)
    with pytest.raises(AccountingError):
        aggregate(sim)


def test_empty_stats_zero_report(rng):
    sim = TriviumSim(random_bits(rng, 80), random_bits(rng, 80), Mode.PROPOSED)
    report = aggregate(sim)
    assert report.total_steps == 0
    assert report.total_energy_e4 == 0


def test_report_serialization_round_trip(rng):
    sim = GrainSim(random_bits(rng, 128), random_bits(rng, 96), Mode.PROPOSED)
    sim.keystream(2)
    report = aggregate(sim)
    data = json.loads(report.to_json())
    assert data["cipher"] == "grain128a"
    assert data["total_steps"] == report.total_steps
    assert data["keystream"]["cycles"] == 2
    text = report_table(report)
    assert "keystream" in text and "BUFFER[LFSR]" in text


def test_closed_form_table_contains_published_columns():
    table = closed_form_table()
    for needle in ("710*n+797266", "12957696", "683.6811", "0.0478*n+53.4731"):
        assert needle in table


def _sim_report(mode):
    sim = TriviumSim([0] * 80, [1] * 80, mode)
    sim.keystream(2)
    return aggregate(sim).to_json()


#: every entry point that takes a mode, run on one input
_MODE_CALLS = {
    "plan": lambda mode: plan(TriviumSim.LAYOUTS["A"], mode),
    "sim": _sim_report,
    "simulated_form": lambda mode: simulated_form("trivium", mode, 0),
    "closed_form": lambda mode: closed_form("trivium", mode, 0),
    "programs_for": lambda mode: programs_for(TriviumSim, mode),  # a cache equals only itself
}


@pytest.mark.parametrize("mode", list(Mode), ids=lambda m: m.value)
@pytest.mark.parametrize("call", list(_MODE_CALLS))
def test_a_mode_given_by_its_value_runs_that_mode(call, mode):
    assert _MODE_CALLS[call](mode.value) == _MODE_CALLS[call](mode)


@pytest.mark.parametrize("bad", ["bogus", "PROPOSED", None, 1])
@pytest.mark.parametrize("call", list(_MODE_CALLS))
def test_a_mode_outside_the_enum_is_rejected(call, bad):
    with pytest.raises(ValueError):
        _MODE_CALLS[call](bad)
