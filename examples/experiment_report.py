"""Regenerate the paper's experimental tables/figures at a configurable scale.

Runs every experiment driver of :mod:`repro.bench.experiments` — the same code
the pytest-benchmark suite uses — and prints the resulting series.

Run with:  python examples/experiment_report.py [--scale N] [--queries N] [--quick]
"""

from __future__ import annotations

import argparse

from repro.bench import (
    constraints_experiment,
    coverage_experiment,
    efficiency_experiment,
    index_size_experiment,
    join_experiment,
    maintenance_experiment,
    mina_effect_experiment,
    scale_experiment,
    selection_experiment,
    unidiff_experiment,
)
from repro.workloads import WORKLOADS


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=int, default=250,
                        help="base workload scale (entities) for the |D|-dependent experiments")
    parser.add_argument("--queries", type=int, default=60,
                        help="number of random queries for the coverage experiment (Figure 6)")
    parser.add_argument("--quick", action="store_true",
                        help="run a reduced set of points (for smoke-testing the harness)")
    parser.add_argument("--workloads", nargs="*", default=sorted(WORKLOADS),
                        choices=sorted(WORKLOADS), help="which workloads to run")
    args = parser.parse_args()

    scale_factors = (0.125, 0.5, 1.0) if args.quick else (2**-5, 2**-4, 2**-3, 2**-2, 2**-1, 1.0)
    fractions = (0.5, 1.0) if args.quick else (0.25, 0.5, 0.75, 1.0)
    sweep_values = (4, 6, 9) if args.quick else (4, 5, 6, 7, 8, 9)
    join_values = (0, 2, 4) if args.quick else (0, 1, 2, 3, 4, 5)

    for name in args.workloads:
        workload = WORKLOADS[name]
        print("=" * 78)
        print(f"WORKLOAD {name}: {workload.description}")
        print("=" * 78)

        print(coverage_experiment(workload, n_queries=args.queries, fractions=fractions).render())
        print()
        print(scale_experiment(workload, base_scale=args.scale,
                               scale_factors=scale_factors, n_queries=3).render())
        print()
        print(selection_experiment(workload, values=sweep_values, scale=args.scale // 2,
                                   queries_per_value=2).render())
        print()
        print(join_experiment(workload, values=join_values, scale=args.scale // 2,
                              queries_per_value=2).render())
        print()
        print(unidiff_experiment(workload, values=join_values, scale=args.scale // 2,
                                 queries_per_value=2).render())
        print()
        print(constraints_experiment(workload, scale=args.scale // 2).render())
        print()
        print(mina_effect_experiment(workload, scale=args.scale // 2, n_queries=3).render())
        print()
        print(index_size_experiment(workload, scale=args.scale).render())
        print()
        print(efficiency_experiment(workload, n_queries=20).render())
        print()
        print(maintenance_experiment(workload, scales=(50, 100, 200, 400)).render())
        print()


if __name__ == "__main__":
    main()
