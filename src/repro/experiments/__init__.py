"""Experiment harnesses reproducing the paper's tables and figures.

Each module regenerates one table or figure from the evaluation; the
per-experiment index in ``DESIGN.md`` maps paper artefacts to modules and
benchmark targets.  Scenarios are described by
:class:`~repro.experiments.scenario.ScenarioSpec`; the named spec builders
live in :data:`~repro.experiments.sweep.PRESETS`, and grids of specs run —
serially or across worker processes, scored — through
:func:`~repro.experiments.sweep.expand_grid` and
:func:`~repro.experiments.sweep.run_sweep`.
"""

from repro.experiments.harness import (
    ExperimentHarness,
    ExperimentResult,
    TenantResult,
    TenantRuntime,
)
from repro.experiments.scenario import ScenarioSpec, TenantSpec, run_scenario
from repro.experiments.sweep import PRESETS, SweepOutcome, expand_grid, run_sweep

__all__ = [
    "ExperimentHarness",
    "ExperimentResult",
    "PRESETS",
    "SweepOutcome",
    "TenantResult",
    "TenantRuntime",
    "ScenarioSpec",
    "TenantSpec",
    "expand_grid",
    "run_scenario",
    "run_sweep",
]
