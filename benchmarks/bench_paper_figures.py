"""Every figure of the paper's evaluation, regenerated at ``full`` size and checked.

One pytest-benchmark case per ``FIGURES × WORKLOADS`` cell: the timed operation
is :func:`repro.bench.experiments.run_figure`, which also checks the table
against the paper's claims (a failed claim fails the case and prints the
table).  Parameters and assertions live in the registry, not here.  Run with
``-s`` to see the tables::

    python -m pytest benchmarks/bench_paper_figures.py --benchmark-disable -s
"""

import pytest

from repro.bench.experiments import FIGURES, run_figure
from repro.workloads import WORKLOADS


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("figure", FIGURES)
def test_paper_figure(benchmark, figure, workload):
    table = benchmark.pedantic(
        run_figure, args=(figure, WORKLOADS[workload], "full"), rounds=1, iterations=1
    )
    print()
    print(table.render())
