"""Metastable-failure scenarios: transient anomalies meeting retry storms.

A *metastable failure* (Bronson et al., HotOS'21) is a self-sustaining
overload: a transient trigger (here, an injected resource anomaly) pushes
a service past its capacity knee, clients respond with retries, the retry
amplification keeps the service saturated after the trigger clears, and
the system stays degraded until something sheds load.  This module turns
that failure shape into a scored scenario family on top of the admission
subsystem (:mod:`repro.admission`), the distributed dispatchers
(:mod:`repro.routing.dispatchers`), and the sweep runner's scoring
(:mod:`repro.experiments.sweep`):

* :func:`metastable` builds one cell — application, seed, load, admission
  policy, dispatcher topology, and the transient anomaly (start,
  duration, intensity) — as a scored
  :class:`~repro.experiments.scenario.ScenarioSpec`.  Its sweep outcome
  carries the resilience axes (SLO-violation seconds, time-to-mitigate,
  windowed localization precision/recall), the admission axis
  (shed/retry/hedge counts, request amplification), and the
  metastability signal: violation seconds after the trigger cleared;
* :func:`run_metastable_campaign` runs one of three campaigns and adds a
  verdict along its axis:

  - ``retry_storm`` — the same transient anomaly under ``none`` /
    ``naive_retries`` / ``survival_kit`` admission, showing naive
    retries amplifying the trigger and the survival kit damping it;
  - ``shed_vs_violate`` — a rate-limit sweep mapping the tradeoff
    between shedding requests and violating SLOs on the survivors;
  - ``staleness_grid`` — dispatcher count × view staleness, showing
    how stale partial views degrade tail latency under pressure.

The CLI front ends are ``repro.cli run metastable --set ...`` (one scored
cell), ``repro.cli run metastable_campaign --set campaign=...``, and
``repro.cli sweep metastable --grid admission=none,survival_kit``.
"""

from __future__ import annotations

import inspect
from typing import Dict, List, Optional, Sequence, Tuple

from repro.admission.config import ADMISSION_PRESETS
from repro.anomaly.anomalies import AnomalyScope, AnomalyType
from repro.anomaly.campaigns import single_anomaly_sweep
from repro.apps.catalog import build_application
from repro.experiments.scenario import ScenarioSpec

#: The campaign kinds ``run_metastable_campaign`` knows.
METASTABLE_CAMPAIGNS: Tuple[str, ...] = (
    "retry_storm",
    "shed_vs_violate",
    "staleness_grid",
)

#: Admission presets the retry-storm campaign compares, in severity order.
RETRY_STORM_PRESETS: Tuple[str, ...] = ("none", "naive_retries", "survival_kit")

#: Rate limits (rps) the shed-vs-violate sweep walks.
SHED_VS_VIOLATE_RATES: Tuple[float, ...] = (40.0, 60.0, 80.0, 100.0, 120.0)

#: (dispatchers, staleness_s) grid of the staleness campaign.
STALENESS_GRID: Tuple[Tuple[int, float], ...] = (
    (1, 0.0),
    (2, 0.05),
    (2, 0.5),
    (4, 0.05),
    (4, 0.5),
)

#: Quick-mode shrink of every campaign cell: shorter scenarios, the same
#: trigger shape.
QUICK: Dict[str, float] = {
    "duration_s": 15.0,
    "anomaly_start_s": 2.5,
    "anomaly_duration_s": 5.0,
}


def metastable(
    application: str = "social_network",
    controller: str = "none",
    seed: int = 0,
    load_rps: float = 70.0,
    duration_s: float = 30.0,
    admission: str = "none",
    rate_limit_rps: Optional[float] = None,
    dispatchers: int = 1,
    dispatch_variant: str = "jiq",
    dispatch_staleness_s: float = 0.25,
    anomaly_start_s: float = 5.0,
    anomaly_duration_s: float = 8.0,
    anomaly_intensity: float = 0.9,
    score_window_s: Optional[float] = 5.0,
    replicas_per_service: int = 2,
) -> ScenarioSpec:
    """One scored metastable-failure cell.

    The trigger is one service-wide CPU anomaly of ``anomaly_intensity``
    on the application's entry service over ``[anomaly_start_s,
    anomaly_start_s + anomaly_duration_s)``; everything after it measures
    whether the system *recovers* or stays metastable.  ``admission`` is
    an :data:`~repro.admission.config.ADMISSION_PRESETS` name;
    ``rate_limit_rps`` overrides its token-bucket rate (the
    shed-vs-violate sweep's moving part).  ``replicas_per_service > 1``
    gives dispatchers a replica set to disagree about.
    """
    from repro.experiments.routing import replicated_services

    if admission not in ADMISSION_PRESETS:
        known = ", ".join(sorted(ADMISSION_PRESETS))
        raise ValueError(f"unknown admission preset {admission!r}; known: {known}")
    if anomaly_duration_s <= 0.0:
        raise ValueError(f"anomaly_duration_s must be > 0, got {anomaly_duration_s}")
    # The preset *name* keeps "none" visible in rows and scenario ids; a
    # rate override derives a renamed config from the preset.
    admission_config = admission
    if rate_limit_rps is not None:
        base = ADMISSION_PRESETS[admission]
        admission_config = base.with_overrides(
            name=f"{base.name}@{rate_limit_rps:g}rps",
            rate_limit_rps=float(rate_limit_rps),
        )
    trigger = single_anomaly_sweep(
        AnomalyType.CPU_UTILIZATION,
        build_application(application).service_names()[0],
        intensities=(anomaly_intensity,),
        step_duration_s=anomaly_duration_s,
        gap_s=0.0,
        start_s=anomaly_start_s,
        scope=AnomalyScope.SERVICE_WIDE,
    )
    return ScenarioSpec(
        application=application,
        seed=seed,
        duration_s=duration_s,
        load_rps=load_rps,
        controller=controller,
        campaign=trigger,
        replicas=(
            replicated_services(application, replicas_per_service)
            if replicas_per_service > 1
            else None
        ),
        dispatchers=dispatchers,
        dispatch_variant=dispatch_variant,
        dispatch_staleness_s=dispatch_staleness_s,
        admission=admission_config,
        score_window_s=score_window_s,
    )


# ---------------------------------------------------------------------------
# Campaigns
# ---------------------------------------------------------------------------

def metastable_campaign_grid(campaign: str, quick: bool = False) -> Dict:
    """The :func:`~repro.experiments.sweep.expand_grid` grid of one campaign.

    ``quick`` walks fewer sweep points (CI's failure-smoke job).
    """
    if campaign not in METASTABLE_CAMPAIGNS:
        known = ", ".join(METASTABLE_CAMPAIGNS)
        raise ValueError(f"unknown metastable campaign {campaign!r}; known: {known}")
    if campaign == "retry_storm":
        return {"admission": RETRY_STORM_PRESETS}
    if campaign == "shed_vs_violate":
        rates = (50.0, 80.0, 110.0) if quick else SHED_VS_VIOLATE_RATES
        return {"admission": ("shed_only",), "rate_limit_rps": rates}
    cells = ((1, 0.0), (2, 0.5), (4, 0.5)) if quick else STALENESS_GRID
    return {("dispatchers", "dispatch_staleness_s"): cells}


#: Builder parameters that identify a campaign row.
_ROW_KEYS = (
    "application",
    "controller",
    "admission",
    "rate_limit_rps",
    "dispatchers",
    "dispatch_variant",
    "dispatch_staleness_s",
    "seed",
)


def run_metastable_campaign(
    campaign: str,
    seed: int = 0,
    quick: bool = False,
    workers: int = 1,
    progress=None,
    **overrides,
) -> Dict[str, object]:
    """Run one named campaign and assemble its scoreboard payload.

    Returns a JSON-serializable dict: the campaign name, the per-cell
    scored rows (in grid order), and a campaign-level verdict comparing
    the rows along the campaign's axis (admission policy, rate limit, or
    staleness).  ``quick`` shrinks every cell (:data:`QUICK`) and the
    grid; keyword arguments override :func:`metastable` parameters on
    every cell (the campaign's own axis always wins).
    """
    from repro.experiments.sweep import expand_grid, grid_cells, run_sweep

    grid = metastable_campaign_grid(campaign, quick=quick)
    fixed = {"seed": seed, **(QUICK if quick else {}), **overrides}
    specs = expand_grid(metastable, grid, **fixed)
    outcomes = run_sweep(specs, workers=workers, progress=progress)
    defaults = {
        name: parameter.default
        for name, parameter in inspect.signature(metastable).parameters.items()
    }
    rows = []
    for cell, outcome in zip(grid_cells(grid), outcomes):
        params = {**defaults, **fixed, **cell}
        row = {"case_id": outcome.scenario_id}
        row.update((key, params[key]) for key in _ROW_KEYS)
        row.update(
            precision=outcome.precision,
            recall=outcome.recall,
            windows_scored=len(outcome.windows),
            slo_violation_seconds=outcome.slo_violation_seconds,
            time_to_mitigate_s=outcome.time_to_mitigate_s,
            post_trigger_violation_s=outcome.post_trigger_violation_s,
            amplification=outcome.amplification,
            summary=dict(outcome.summary),
            admission_stats=outcome.admission_stats,
        )
        rows.append(row)
    return {
        "campaign": campaign,
        "seed": seed,
        "quick": quick,
        "cases": rows,
        "verdict": _campaign_verdict(campaign, rows),
    }


def _campaign_verdict(campaign: str, rows: Sequence[Dict]) -> Dict[str, object]:
    """Campaign-level comparison along the campaign's axis."""
    if campaign == "retry_storm":
        by_preset = {row["admission"]: row for row in rows}
        naive = by_preset.get("naive_retries")
        kit = by_preset.get("survival_kit")
        return {
            "axis": "admission",
            "violation_seconds": {
                name: row["slo_violation_seconds"] for name, row in by_preset.items()
            },
            "post_trigger_violation_s": {
                name: row["post_trigger_violation_s"] for name, row in by_preset.items()
            },
            "amplification": {name: row["amplification"] for name, row in by_preset.items()},
            "kit_damps_storm": (
                naive is not None
                and kit is not None
                and kit["post_trigger_violation_s"] <= naive["post_trigger_violation_s"]
            ),
        }
    if campaign == "shed_vs_violate":
        curve: List[Dict[str, object]] = []
        for row in rows:
            stats = row["admission_stats"] or {}
            submitted = float(stats.get("submitted") or 0.0)
            shed = float(stats.get("shed") or 0.0)
            curve.append(
                {
                    "rate_limit_rps": row["rate_limit_rps"],
                    "shed_fraction": shed / submitted if submitted else 0.0,
                    "violation_rate": row["summary"].get("violation_rate", 0.0),
                    "violation_seconds": row["slo_violation_seconds"],
                }
            )
        return {"axis": "rate_limit_rps", "tradeoff_curve": curve}
    cells = [
        {
            "dispatchers": row["dispatchers"],
            "staleness_s": row["dispatch_staleness_s"],
            "p99_ms": row["summary"].get("p99_ms", 0.0),
            "violation_seconds": row["slo_violation_seconds"],
        }
        for row in rows
    ]
    return {"axis": "dispatchers x staleness", "grid": cells}
