"""Per-run observability state and the on-disk run record.

:class:`Observability` is the single object the harness threads through
every instrumented component: one :class:`~repro.obs.journal.EventJournal`
(the flight recorder) plus one
:class:`~repro.obs.registry.MetricsRegistry` (the metric series).  It is
created once per harness when ``ScenarioSpec.observability`` is true and
stays ``None`` otherwise, so every instrumentation site is a single
``if obs is not None`` away from the uninstrumented fast path.

:func:`write_run_record` flushes a finished run to a directory — the
"run record" the ``repro.cli inspect`` subcommand reads back:

``journal.jsonl``
    The event journal, one JSON record per line.
``metrics.json``
    The registry snapshot (counters, gauges, histogram quantiles).
``metrics.prom``
    The same snapshot in Prometheus text exposition.
``summary.json``
    Headline result numbers plus per-tenant breakdown and journal stats.
``trace.json``
    Chrome trace-event JSON (only when the harness — and therefore its
    span stores — is passed in).
"""

from __future__ import annotations

import json
import os
from typing import Dict, Optional

from repro.obs.exporters import chrome_trace_json, prometheus_exposition
from repro.obs.journal import DEFAULT_CAPACITY, EventJournal, write_journal_jsonl
from repro.obs.registry import MetricsRegistry

__all__ = ["Observability", "write_run_record"]


class Observability:
    """One run's journal + registry bundle.

    Parameters
    ----------
    capacity:
        Event-journal ring capacity.
    """

    __slots__ = ("journal", "registry")

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        self.journal = EventJournal(capacity=capacity)
        self.registry = MetricsRegistry()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Observability(journal={len(self.journal)} records)"


def write_run_record(
    directory: str,
    result,
    harness=None,
) -> Dict[str, str]:
    """Flush a finished run's observability state to ``directory``.

    ``result`` is an :class:`~repro.experiments.harness.ExperimentResult`
    whose ``journal`` (exported record dicts) and ``metrics``
    (:class:`MetricsRegistry`) attributes were populated by a run with
    observability enabled.  Passing the ``harness`` as well
    adds the Chrome trace export, which needs the live span stores.

    Returns the mapping of artifact name to written path.
    """
    journal_records = getattr(result, "journal", None)
    registry: Optional[MetricsRegistry] = getattr(result, "metrics", None)
    if journal_records is None and registry is None:
        raise ValueError(
            "result carries no observability state; run with "
            "ScenarioSpec.observability=True (or --obs)"
        )
    os.makedirs(directory, exist_ok=True)
    paths: Dict[str, str] = {}

    journal_path = os.path.join(directory, "journal.jsonl")
    write_journal_jsonl(journal_records or [], journal_path)
    paths["journal"] = journal_path

    snapshot = registry.snapshot() if registry is not None else {
        "counters": [], "gauges": [], "histograms": []
    }
    metrics_path = os.path.join(directory, "metrics.json")
    with open(metrics_path, "w", encoding="utf-8") as handle:
        json.dump(snapshot, handle, indent=2, sort_keys=True)
        handle.write("\n")
    paths["metrics"] = metrics_path

    prom_path = os.path.join(directory, "metrics.prom")
    with open(prom_path, "w", encoding="utf-8") as handle:
        handle.write(prometheus_exposition(snapshot))
    paths["prometheus"] = prom_path

    summary = {
        "application": result.application,
        "controller": result.controller,
        "duration_s": result.duration_s,
        "summary": result.summary(),
        "per_tenant": result.per_tenant_summary(),
        "journal_records": len(journal_records or []),
    }
    summary_path = os.path.join(directory, "summary.json")
    with open(summary_path, "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=2, sort_keys=True, default=str)
        handle.write("\n")
    paths["summary"] = summary_path

    if harness is not None:
        trace_path = os.path.join(directory, "trace.json")
        with open(trace_path, "w", encoding="utf-8") as handle:
            handle.write(chrome_trace_json(harness, journal_records))
        paths["trace"] = trace_path

    return paths
