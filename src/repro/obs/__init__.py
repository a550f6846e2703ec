"""Unified run-record observability for the reproduction's own runs.

FIRM's premise is that cheap, fine-grained observability is what makes
SLO-violation localization possible; this package applies the same idea
to the simulator itself.  One per-run :class:`Observability` bundle —
created only when ``ScenarioSpec.observability`` is true, so every
pinned determinism family stays byte-identical with it off — collects:

* a **metrics registry** (:mod:`repro.obs.registry`): named counters,
  gauges, and log-histogram-backed histograms with interned label sets;
* a **structured event journal** (:mod:`repro.obs.journal`): a bounded
  ring-buffer flight recorder of typed records — controller scale
  decisions with before/after replica counts, routing policy picks,
  anomaly inject/clear with scope and node set, detector verdicts,
  SLO-violation window transitions —
  flushed to JSONL at run end;
* **exporters** (:mod:`repro.obs.exporters`): Chrome trace-event JSON
  (Perfetto-loadable; spans as slices, journal records as instants) and
  Prometheus text exposition of the registry snapshot;
* a **run inspector** (:mod:`repro.obs.inspector`, surfaced as
  ``repro.cli inspect``): the injection → detection → mitigation →
  recovery causal timeline per anomaly, with time-to-detect and
  time-to-mitigate, reconstructed from any archived run record.
"""

from repro.obs.exporters import (
    chrome_trace_events,
    chrome_trace_json,
    prometheus_exposition,
)
from repro.obs.inspector import (
    AnomalyEpisode,
    build_timeline,
    inspect_run_record,
    load_journal,
)
from repro.obs.journal import (
    EventJournal,
    read_journal_jsonl,
    write_journal_jsonl,
)
from repro.obs.registry import (
    Counter,
    Gauge,
    HistogramMetric,
    MetricsRegistry,
)
from repro.obs.run import Observability, write_run_record

__all__ = [
    "AnomalyEpisode",
    "Counter",
    "EventJournal",
    "Gauge",
    "HistogramMetric",
    "MetricsRegistry",
    "Observability",
    "build_timeline",
    "chrome_trace_events",
    "chrome_trace_json",
    "inspect_run_record",
    "load_journal",
    "prometheus_exposition",
    "read_journal_jsonl",
    "write_journal_jsonl",
    "write_run_record",
]
