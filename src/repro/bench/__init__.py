"""Experiment harness reproducing the tables and figures of Section 8.

The checked registry of paper figures is :data:`repro.bench.experiments.FIGURES`.
"""

from .metrics import ExperimentTable

__all__ = ["ExperimentTable"]
