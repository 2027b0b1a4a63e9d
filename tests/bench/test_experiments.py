"""Every paper figure at ``quick`` size, checked against the paper's claims.

Parameters and assertions live in :data:`repro.bench.experiments.FIGURES`;
``benchmarks/bench_paper_figures.py`` runs the same registry at ``full`` size.
"""

import pytest

from repro.bench.experiments import FIGURES, run_figure, select_covered_queries
from repro.core.coverage import check_coverage
from repro.workloads import WORKLOADS


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("figure", FIGURES)
def test_paper_figure_supports_its_claims(figure, workload):
    assert run_figure(figure, WORKLOADS[workload], "quick").rows


class TestSelectCoveredQueries:
    def test_returns_covered_queries(self):
        workload = WORKLOADS["TFACC"]
        queries = select_covered_queries(workload, count=3, seed=5)
        assert len(queries) == 3
        for query in queries:
            assert check_coverage(query, workload.access_schema).is_covered
