#!/usr/bin/env python3
"""Reproduce the evaluation tables from simulation.

Runs both ciphers in both shift modes, prints the gate-level metrics, the
per-phase block censuses with energy, the published closed-form comparison,
and the asymptotic improvement ratios.  Everything printed here is measured
by executing micro-ops, except the closed-form table, which evaluates the
published coefficients.
"""

import argparse
import random
import sys

from implysim import costs, shifting
from implysim.gates import GATE_METRICS, GateKind
from implysim.shifting import Mode, count_elements


def gate_table():
    print("== basic gate metrics ==")
    print(f"{'gate':<22}{'memristors':>11}{'steps':>7}{'energy (nJ)':>13}")
    for kind in GateKind:
        m = GATE_METRICS[kind]
        print(f"{kind.value:<22}{m.memristors:>11}{m.steps:>7}{m.energy_nj:>13.4f}")
    print()


def census_tables(n: int, seed: int):
    rng = random.Random(seed)
    for label, cls in costs.SIMS.items():
        key = [rng.randint(0, 1) for _ in range(len(cls.KEY))]
        iv = [rng.randint(0, 1) for _ in range(len(cls.IV))]
        for mode in (Mode.PROPOSED, Mode.CONVENTIONAL):
            sim = cls(key, iv, mode)
            sim.keystream(n)
            report = costs.aggregate(sim)
            print(f"== {label} / {mode.value} / n={n} ==")
            print(costs.report_table(report))
            print(costs.compare(report, n))
            print()


def shift_tables():
    print("== proposed shift-plan census (buffers, inverters) ==")
    for cls in costs.SIMS.values():
        cycles = cls.INIT_CYCLES
        for name, layout in cls.LAYOUTS.items():
            plan = shifting.plan(layout, Mode.PROPOSED)
            steady = plan.census(cycles)
            total = count_elements(plan, 1, cycles)
            print(f"{name:<5} steady/cycle {steady}   total over {cycles} cycles {total}")
    print()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("-n", type=int, default=100, help="keystream bits to simulate")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    gate_table()
    shift_tables()
    census_tables(args.n, args.seed)
    print("== published closed forms ==")
    print(costs.closed_form_table())
    print()
    print("== asymptotic improvement ratios (proposed vs conventional) ==")
    for cipher, r in costs.improvement_ratios().items():
        print(
            f"{cipher:<10} steps -{100 * r['steps_reduction']:.1f}%   "
            f"energy -{100 * r['energy_reduction']:.1f}%"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
