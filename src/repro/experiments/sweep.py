"""Scored scenario sweeps.

Low-latency cloud-service studies get their results from large
seed x load x policy grids (cf. the Distributed Join-the-Idle-Queue
evaluation in PAPERS.md).  This module makes that experiment shape cheap
with one spec type, one grid expander, and one runner:

* :data:`PRESETS` names every spec builder — ``scenario`` (one
  single-tenant cell), the interference and routing shapes, and the
  scored ``resilience`` and ``metastable`` cells;
* :func:`expand_grid` crosses any builder's keyword arguments into a list
  of :class:`~repro.experiments.scenario.ScenarioSpec`;
* :func:`run_sweep` runs any list of specs (single- or multi-tenant)
  either serially or fanned out over a process pool, returning one
  :class:`SweepOutcome` per spec **in the input order** regardless of
  which worker finished first.  Every outcome carries the
  SLO summary and the mitigation axes; a spec with ``score_window_s``
  additionally gets windowed localization scores
  (:class:`~repro.experiments.resilience.LocalizationScorer`).

Each spec carries its own master seed, and every stochastic subsystem
derives named substreams from it, so a scenario's result is a pure
function of its spec: the parallel sweep is bit-identical to the serial
one.  Workers are started with the ``spawn`` method so no parent-process
state (RNG, request-id counters) leaks into the runs.
"""

from __future__ import annotations

import inspect
import multiprocessing
from concurrent.futures import Future, ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence

from repro.admission.config import admission_name
from repro.experiments.harness import ExperimentHarness
from repro.experiments.interference import (
    aggressor_victim,
    identical_tenants,
    noisy_neighbor_ramp,
)
from repro.experiments.metastable import metastable
from repro.experiments.resilience import LocalizationScorer, WindowScore, resilience
from repro.experiments.routing import (
    routed_tenants,
    routing_anomaly_spec,
    routing_interference_spec,
)
from repro.experiments.scenario import ScenarioSpec, random_campaign_builder


@dataclass
class SweepOutcome:
    """Result of one scenario of a sweep: its spec plus headline numbers.

    ``summary`` is the run's headline SLO dict; multi-tenant scenarios
    also carry ``tenant_summaries`` (one per tenant, in tenant order).
    The mitigation axes are the campaign tenant's — the first tenant
    whose spec carries a campaign — or the whole run's when no tenant
    does.  ``windows``/``precision``/``recall`` stay empty/1.0 unless the
    spec sets ``score_window_s``.
    """

    spec: ScenarioSpec
    summary: Dict[str, float] = field(default_factory=dict)
    tenant_summaries: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: Total seconds the SLO was in violation.
    slo_violation_seconds: float = 0.0
    #: Mean violation-episode duration (the paper's mitigation time).
    time_to_mitigate_s: float = 0.0
    #: Violation seconds accrued after the campaign's last injection
    #: ended — the metastability signal (a recovering system drives this
    #: to ~0; a metastable one accrues it for the rest of the run).
    post_trigger_violation_s: float = 0.0
    #: Physical attempts per admitted logical request (1.0 = none).
    amplification: float = 1.0
    #: The admission gate's ``snapshot()`` (None with admission off).
    admission_stats: Optional[Dict[str, Any]] = None
    windows: List[WindowScore] = field(default_factory=list)
    #: Micro-averaged over all windows (flag- and culprit-weighted).
    precision: float = 1.0
    recall: float = 1.0

    @property
    def scenario_id(self) -> str:
        return self.spec.scenario_id

    def as_dict(self) -> Dict[str, Any]:
        """Flat JSON-friendly row (used by the CLI and reports)."""
        spec = self.spec
        row: Dict[str, Any] = {
            "scenario_id": spec.scenario_id,
            "application": spec.application,
            "controller": spec.controller,
            "seed": spec.seed,
            "load_rps": spec.load_rps,
            "duration_s": spec.duration_s,
            **self.summary,
        }
        if spec.routing:
            row["routing"] = spec.routing
        admission = admission_name(spec.admission)
        if admission is not None:
            row["admission"] = admission
        if spec.tenants:
            row["application"] = "+".join(t.application for t in spec.tenants)
            row["controller"] = "+".join(t.controller for t in spec.tenants)
            # Total constant offered load across tenants (pattern-driven
            # tenants contribute no constant rate and are excluded).
            row["load_rps"] = sum(t.load_rps for t in spec.tenants if t.pattern is None)
            row["tenant_count"] = len(spec.tenants)
            row["tenants"] = dict(self.tenant_summaries)
        row.update(
            slo_violation_seconds=self.slo_violation_seconds,
            time_to_mitigate_s=self.time_to_mitigate_s,
            post_trigger_violation_s=self.post_trigger_violation_s,
            amplification=self.amplification,
        )
        if self.admission_stats is not None:
            row["admission_stats"] = self.admission_stats
        if spec.score_window_s is not None:
            row.update(
                precision=self.precision,
                recall=self.recall,
                windows_scored=len(self.windows),
                windows=[window.as_dict() for window in self.windows],
            )
        return row


# ---------------------------------------------------------------------------
# Presets and grids
# ---------------------------------------------------------------------------

def scenario_cell(
    application: str = "social_network",
    controller: str = "none",
    seed: int = 0,
    load_rps: float = 50.0,
    duration_s: float = 60.0,
    anomaly_rate_per_s: float = 0.0,
    min_intensity: float = 0.5,
    placement: Optional[str] = None,
) -> ScenarioSpec:
    """One single-tenant scenario (the classic seed x load x controller cell).

    ``anomaly_rate_per_s > 0`` adds a seed-derived random anomaly campaign
    of at least ``min_intensity``.
    """
    from repro.baselines.base import resolve_controller_name

    resolve_controller_name(controller)  # fail fast on typos
    campaign_builder = None
    if anomaly_rate_per_s > 0:
        campaign_builder = partial(
            random_campaign_builder,
            duration_s=duration_s,
            rate_per_s=anomaly_rate_per_s,
            min_intensity=min_intensity,
        )
    return ScenarioSpec(
        application=application,
        seed=int(seed),
        duration_s=duration_s,
        load_rps=float(load_rps),
        controller=controller,
        campaign_builder=campaign_builder,
        placement=placement,
    )


#: Every named spec builder (``repro.cli run <preset>`` / ``sweep <preset>``).
PRESETS: Dict[str, Callable[..., ScenarioSpec]] = {
    "scenario": scenario_cell,
    "identical_tenants": identical_tenants,
    "aggressor_victim": aggressor_victim,
    "noisy_neighbor_ramp": noisy_neighbor_ramp,
    "routing_anomaly": routing_anomaly_spec,
    "routing_interference": routing_interference_spec,
    "routed_tenants": routed_tenants,
    "resilience": resilience,
    "metastable": metastable,
}


def check_kwargs(fn: Callable, keys: Iterable[str], name: str) -> None:
    """Raise ``ValueError`` listing ``fn``'s parameters if it rejects a key."""
    parameters = inspect.signature(fn).parameters.values()
    if any(p.kind is p.VAR_KEYWORD for p in parameters):
        return
    accepted = [
        p.name for p in parameters if p.kind in (p.POSITIONAL_OR_KEYWORD, p.KEYWORD_ONLY)
    ]
    unknown = sorted(set(keys) - set(accepted))
    if unknown:
        raise ValueError(
            f"{name} does not accept {', '.join(unknown)}; accepted: {', '.join(accepted)}"
        )


def grid_cells(grid: Mapping[Any, Sequence]) -> List[Dict[str, Any]]:
    """The cross product of ``grid`` as keyword dicts (first axis outermost).

    Each key names one builder argument; a tuple key zips several
    arguments into one axis whose values are tuples, for grids that are
    not full cross products (e.g. ``{("dispatchers",
    "dispatch_staleness_s"): [(1, 0.0), (4, 0.5)]}``).
    """
    cells: List[Dict[str, Any]] = [{}]
    for key, values in grid.items():
        names = (key,) if isinstance(key, str) else tuple(key)
        cells = [
            {**cell, **dict(zip(names, value if len(names) > 1 else (value,)))}
            for cell in cells
            for value in values
        ]
    return cells


def expand_grid(
    builder: Callable[..., ScenarioSpec], grid: Mapping[Any, Sequence], **fixed
) -> List[ScenarioSpec]:
    """Build one spec per :func:`grid_cells` cell of ``grid``.

    ``fixed`` keyword arguments go to every call; the grid axes win over
    them.  Unknown keys raise ``ValueError`` before any spec is built.
    """
    cells = grid_cells(grid)
    name = getattr(builder, "__name__", "builder")
    check_kwargs(builder, set(fixed).union(*cells), name)
    return [builder(**{**fixed, **cell}) for cell in cells]


# ---------------------------------------------------------------------------
# Running and scoring one spec
# ---------------------------------------------------------------------------

def score_spec(spec: ScenarioSpec):
    """Run one spec end to end and score it.

    Returns ``(outcome, result, harness)``; the live harness keeps the
    span stores reachable for a run record's trace export.  With
    ``spec.score_window_s`` a :class:`LocalizationScorer` is attached to
    the campaign tenant before the run starts.
    """
    harness = ExperimentHarness.from_spec(spec)
    target = next((t for t in harness.tenants if t.campaign is not None), None)
    scorer = None
    if spec.score_window_s is not None:
        scorer = LocalizationScorer(
            harness, target or harness.tenants[0], spec.score_window_s
        )
        scorer.attach(until_s=spec.duration_s)
    result = harness.run(
        duration_s=spec.duration_s,
        sample_period_s=spec.sample_period_s,
        warmup_s=spec.warmup_s,
    )
    scope = result
    admission = result.admission
    trigger_end = 0.0
    if target is not None:
        trigger_end = target.campaign.end_time()
        if target.tenant_id is not None:
            scope = result.tenant_results[target.tenant_id]
            admission = (admission or {}).get(target.tenant_id)
    post_trigger = 0.0
    for episode in scope.mitigation.episodes:
        end = episode.end_s if episode.end_s is not None else spec.duration_s
        post_trigger += max(0.0, end - max(episode.start_s, trigger_end))
    outcome = SweepOutcome(
        spec=spec,
        summary=result.summary(),
        tenant_summaries=result.per_tenant_summary(),
        slo_violation_seconds=float(sum(scope.mitigation.mitigation_times_s())),
        time_to_mitigate_s=scope.mitigation.mean_mitigation_time_s(),
        post_trigger_violation_s=post_trigger,
        amplification=float((admission or {}).get("amplification") or 1.0),
        admission_stats=dict(admission) if admission else None,
    )
    if scorer is not None:
        outcome.windows = scorer.windows
        outcome.precision, outcome.recall = scorer.micro_averages()
    return outcome, result, harness


def _run_one(spec: ScenarioSpec) -> SweepOutcome:
    """Worker entry point: run and score one spec."""
    return score_spec(spec)[0]


def run_parallel(
    items: Iterable,
    worker: Callable,
    workers: int = 1,
    progress: Optional[Callable[[int, int, Any], None]] = None,
) -> List:
    """Run ``worker(item)`` for every item, optionally across processes.

    The generic engine behind :func:`run_sweep`: results come back **in
    input order** regardless of which worker finished first, and
    ``progress(done_count, total, outcome)`` fires in the parent process
    as each item completes (in input order).  ``worker`` must be a
    picklable module-level callable; the pool's processes use the
    ``spawn`` start method so no parent-process state (RNG, request-id
    counters) leaks into the runs.  If an item raises, the exception is
    re-raised here and the items still queued are cancelled.
    """
    item_list = list(items)
    total = len(item_list)
    if workers <= 1 or total <= 1:
        return _collect_in_order(map(worker, item_list), total, progress)
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=min(workers, total), mp_context=context) as pool:
        futures = [pool.submit(worker, item) for item in item_list]
        try:
            return _collect_in_order(_results_in_input_order(futures), total, progress)
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise


def _results_in_input_order(futures: List[Future]) -> Iterator:
    """Yield the futures' results in input order.

    Completions are awaited in the order they land, so the first failure
    raises as soon as its item finishes, not when its turn comes.
    """
    next_index = 0
    for finished in as_completed(futures):
        finished.result()
        while next_index < len(futures) and futures[next_index].done():
            yield futures[next_index].result()
            next_index += 1


def _collect_in_order(
    outcomes: Iterable, total: int, progress: Optional[Callable[[int, int, Any], None]]
) -> List:
    """Drain ``outcomes`` into a list, calling ``progress`` after each one."""
    results: List = []
    for outcome in outcomes:
        results.append(outcome)
        if progress is not None:
            progress(len(results), total, outcome)
    return results


def run_sweep(
    specs: Iterable[ScenarioSpec],
    workers: int = 1,
    progress: Optional[Callable[[int, int, SweepOutcome], None]] = None,
) -> List[SweepOutcome]:
    """Run and score every spec, optionally across ``workers`` processes.

    Returns one :class:`SweepOutcome` per spec, in the order the specs were
    given.  ``progress(done_count, total, outcome)`` is invoked in the
    parent process as each scenario finishes (in input order).
    """
    return run_parallel(specs, _run_one, workers=workers, progress=progress)
