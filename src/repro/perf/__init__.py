"""Performance measurement subsystem (``repro.perf``).

Macro-benchmarks that time the simulator itself — events/sec,
requests/sec, and peak RSS over representative end-to-end scenarios —
plus machine-readable reports, committed baselines, and a regression
``compare`` mode used by the CI ``perf-smoke`` job.

Usage::

    python -m repro.cli perf --quick                 # run, print perf.json
    python -m repro.cli perf --quick --compare       # gate vs committed baseline
    python -m repro.cli perf --quick --update-baseline
    python -m repro.cli perf --profile               # cProfile hot-spot report

See ``benchmarks/results/perf.json`` for the committed baseline and the
README's "Performance tracking" section for how to read and update it.
"""

from repro.perf.harness import (
    DEFAULT_BASELINE_PATH,
    REGRESSION_THRESHOLD,
    RSS_REGRESSION_THRESHOLD,
    BenchmarkResult,
    PerfReport,
    compare_reports,
    load_report,
    run_perf,
    save_report,
)
from repro.perf.scenarios import MACRO_BENCHMARKS, MacroBenchmark

__all__ = [
    "BenchmarkResult",
    "PerfReport",
    "MACRO_BENCHMARKS",
    "MacroBenchmark",
    "DEFAULT_BASELINE_PATH",
    "REGRESSION_THRESHOLD",
    "RSS_REGRESSION_THRESHOLD",
    "compare_reports",
    "load_report",
    "run_perf",
    "save_report",
]
