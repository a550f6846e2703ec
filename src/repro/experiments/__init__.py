"""Experiment harnesses reproducing the paper's tables and figures.

Each ``fig*``/``table*`` module regenerates one of them (README's CLI
section and ``python -m repro.cli list`` name them all).  Scenarios are
:class:`~repro.experiments.scenario.ScenarioSpec` runs of
:class:`~repro.experiments.harness.ExperimentHarness`, and
:mod:`repro.experiments.sweep` holds the named presets and the grid runner.

The package re-exports the harness and scenario names but not the sweep:
importing the harness must not load the sweep's process-pool machinery
(``multiprocessing``, ``concurrent.futures``) or its preset modules.
"""

from repro.experiments.harness import (
    ExperimentHarness,
    ExperimentResult,
    TenantResult,
    TenantRuntime,
)
from repro.experiments.scenario import ScenarioSpec, TenantSpec, run_scenario

__all__ = [
    "ExperimentHarness",
    "ExperimentResult",
    "TenantResult",
    "TenantRuntime",
    "ScenarioSpec",
    "TenantSpec",
    "run_scenario",
]
