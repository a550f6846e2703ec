"""Command-line interface for running reproduction experiments.

Usage::

    python -m repro.cli list
    python -m repro.cli run table6
    python -m repro.cli run fig10 --set include_multi_rl=False --out fig10.json
    python -m repro.cli run interference --set preset=identical_tenants --set count=3
    python -m repro.cli run routing --set preset=anomaly --set "policies=['jiq', 'p2c']"
    python -m repro.cli run resilience --set campaign=random --set duration_s=30
    python -m repro.cli run metastable --set admission=naive_retries --obs-dir record/
    python -m repro.cli run metastable_campaign --set campaign=retry_storm --set quick=True
    python -m repro.cli run aggressor_victim --set duration_s=10 --obs-dir record/
    python -m repro.cli sweep scenario --grid controller=firm,aimd --grid seed=0,1 \
        --set application=hotel_reservation --workers 2
    python -m repro.cli sweep resilience --grid campaign=single_sweep,random \
        --grid controller=firm,aimd,none --workers 2
    python -m repro.cli controllers --list
    python -m repro.cli inspect record/

``run <name>`` calls an experiment function (:data:`EXPERIMENTS`) with the
``--set`` values as keyword arguments, or builds one spec from a preset
(:data:`repro.experiments.sweep.PRESETS`) and runs it scored.  ``sweep
<preset>`` crosses the ``--grid`` axes (comma-separated values, first axis
outermost) with the ``--set`` values fixed, and prints one scored row per
cell.  Values parse
as Python literals (``12``, ``0.5``, ``False``, ``(2, 0)``) and fall back
to plain strings.  A key the callable does not accept exits 2 with the
list of accepted keys.

The CLI is a thin wrapper over :mod:`repro.experiments`; every experiment
is also importable and runnable programmatically (see the examples/
directory and the benchmarks/ harnesses).
"""

from __future__ import annotations

import argparse
import ast
import dataclasses
import json
import sys
from collections import Counter
from functools import partial
from typing import Any, Callable, Dict, List

from repro.experiments.composed import run_composed
from repro.experiments.fig1_motivation import run_fig1
from repro.experiments.fig3_cp_distributions import run_fig3
from repro.experiments.fig4_variance_scaling import run_fig4
from repro.experiments.fig5_scale_tradeoff import run_fig5
from repro.experiments.fig9_localization import run_fig9b
from repro.experiments.fig10_end_to_end import run_fig10
from repro.experiments.fig11_rl_training import run_fig11b
from repro.experiments.interference import run_interference
from repro.experiments.metastable import run_metastable_campaign
from repro.experiments.routing import run_routing
from repro.experiments.summary import run_summary
from repro.experiments.sweep import (
    PRESETS,
    check_kwargs,
    expand_grid,
    grid_cells,
    run_sweep,
    score_spec,
)
from repro.experiments.table1_cp_changes import run_table1
from repro.experiments.table6_operation_latency import run_table6


def _to_jsonable(value: Any) -> Any:
    """Best-effort conversion of experiment results to JSON-friendly data."""
    if hasattr(value, "as_dict"):
        return _to_jsonable(value.as_dict())
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            field.name: _to_jsonable(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        return {str(key): _to_jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_to_jsonable(item) for item in value]
    if hasattr(value, "summary") and callable(value.summary):
        try:
            return _to_jsonable(value.summary())
        except TypeError:
            pass
    if isinstance(value, (int, float, str, bool)) or value is None:
        return value
    return str(value)


def _run_controllers(args: argparse.Namespace) -> int:
    """``repro.cli controllers --list``: print the controller registry."""
    from repro.baselines.base import describe_controllers

    for row in describe_controllers():
        aliases = f" (aliases: {', '.join(row['aliases'])})" if row["aliases"] else ""
        stages = f" [stages: {', '.join(row['stages'])}]" if row["stages"] else ""
        print(f"{row['name']}{aliases}: {row['summary']}{stages}")
    return 0


def _run_inspect(args: argparse.Namespace) -> int:
    """``repro.cli inspect <run-record>``: print the causal timeline."""
    from repro.obs.inspector import inspect_run_record

    print(inspect_run_record(args.run_record), end="")
    return 0


#: Experiment functions ``run <name>`` calls with the ``--set`` values.
#: The partial entries deliberately run a reduced shape.
EXPERIMENTS: Dict[str, Callable[..., Any]] = {
    "fig1": run_fig1,
    "fig3": run_fig3,
    "fig4": run_fig4,
    "fig5": run_fig5,
    "fig9": partial(run_fig9b, applications=("social_network",), windows=6),
    "fig10": run_fig10,
    "fig11": partial(run_fig11b, episodes=4),
    "composed": run_composed,
    "interference": run_interference,
    "metastable_campaign": run_metastable_campaign,
    "routing": run_routing,
    "table1": run_table1,
    "table6": run_table6,
    "summary": partial(run_summary, quick=True),
}


def build_parser() -> argparse.ArgumentParser:
    """Build the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list experiments and presets")

    set_help = "keyword argument for the experiment or preset (repeatable)"
    run_parser = subparsers.add_parser("run", help="run one experiment or scored preset")
    run_parser.add_argument(
        "name", choices=sorted({**EXPERIMENTS, **PRESETS}), help="experiment or preset"
    )
    run_parser.add_argument("--set", action="append", metavar="KEY=VALUE", help=set_help)
    run_parser.add_argument(
        "--workers", type=int, default=None,
        help="worker processes, for experiments that take a workers argument",
    )
    run_parser.add_argument(
        "--obs-dir", default=None,
        help="run a preset with observability on and write its run record "
        "(journal.jsonl, metrics.json/.prom, summary.json, trace.json) here",
    )
    run_parser.add_argument("--out", default=None, help="write the JSON result to this path")

    sweep_parser = subparsers.add_parser(
        "sweep", help="run a grid of scored preset specs, optionally in parallel"
    )
    sweep_parser.add_argument("preset", choices=sorted(PRESETS), help="spec builder")
    sweep_parser.add_argument(
        "--grid", action="append", metavar="KEY=V1,V2",
        help="grid axis: comma-separated values of one builder argument (repeatable)",
    )
    sweep_parser.add_argument("--set", action="append", metavar="KEY=VALUE", help=set_help)
    sweep_parser.add_argument(
        "--workers", type=int, default=1, help="worker processes (1 = serial)"
    )
    sweep_parser.add_argument("--out", default=None, help="write the JSON rows to this path")

    controllers_parser = subparsers.add_parser(
        "controllers",
        help="inspect the controller registry",
    )
    controllers_parser.add_argument(
        "--list", action="store_true",
        help="print every registered controller: name, aliases, summary, "
        "and stage subscriptions",
    )

    inspect_parser = subparsers.add_parser(
        "inspect",
        help="print the causal timeline and metric deltas of a run record",
    )
    inspect_parser.add_argument(
        "run_record",
        help="run-record directory (from run <preset> --obs-dir) or a "
        "journal.jsonl path",
    )
    return parser


def _literal(text: str) -> Any:
    """A Python literal when ``text`` parses as one, else the string itself."""
    try:
        return ast.literal_eval(text)
    except (ValueError, SyntaxError):
        return text


def _assignments(items: List[str], axis: bool = False) -> Dict[str, Any]:
    """Parse ``KEY=VALUE`` items (``axis``: comma-separated value lists)."""
    pairs: Dict[str, Any] = {}
    for item in items or ():
        key, sep, value = item.partition("=")
        if not sep or not key:
            raise ValueError(f"expected KEY=VALUE, got {item!r}")
        pairs[key] = [_literal(v) for v in value.split(",")] if axis else _literal(value)
    return pairs


def _run(args: argparse.Namespace) -> Any:
    """``repro.cli run <name>``: one experiment, or one scored preset spec."""
    kwargs = _assignments(args.set)
    if args.name in EXPERIMENTS:
        if args.obs_dir:
            raise ValueError("run records (--obs-dir) apply to presets only")
        if args.workers is not None:
            kwargs["workers"] = args.workers
        experiment = EXPERIMENTS[args.name]
        check_kwargs(experiment, kwargs, args.name)
        return experiment(**kwargs)
    if args.workers is not None:
        raise ValueError("--workers applies to experiments; sweep a preset to run it in parallel")
    builder = PRESETS[args.name]
    check_kwargs(builder, kwargs, args.name)
    spec = builder(**kwargs)
    if args.obs_dir:
        spec = spec.with_overrides(observability=True)
    outcome, result, harness = score_spec(spec)
    payload = outcome.as_dict()
    if args.obs_dir:
        from repro.obs.run import write_run_record

        counts = Counter(record["kind"] for record in result.journal or [])
        payload["observability"] = {
            "journal_records": sum(counts.values()),
            "by_kind": dict(sorted(counts.items())),
            "run_record": write_run_record(args.obs_dir, result, harness=harness),
        }
        print(f"wrote run record {args.obs_dir}", file=sys.stderr)
    return payload


def _sweep(args: argparse.Namespace) -> List[Dict[str, Any]]:
    """``repro.cli sweep <preset>``: one scored row per grid cell."""
    grid, fixed = _assignments(args.grid, axis=True), _assignments(args.set)
    check_kwargs(PRESETS[args.preset], {*grid, *fixed}, args.preset)
    specs = expand_grid(PRESETS[args.preset], grid, **fixed)

    def _progress(done: int, total: int, outcome) -> None:
        print(f"[{done}/{total}] {outcome.scenario_id}", file=sys.stderr)

    outcomes = run_sweep(specs, workers=args.workers, progress=_progress)
    return [{**cell, **outcome.as_dict()} for cell, outcome in zip(grid_cells(grid), outcomes)]


def main(argv=None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)

    if args.command == "list":
        for name in sorted(EXPERIMENTS):
            print(name)
        for name in sorted(PRESETS):
            print(f"{name} (preset)")
        return 0

    if args.command == "controllers":
        return _run_controllers(args)

    # Resolution errors (unknown names or keys, bad spec combinations,
    # missing run records) are user errors, not bugs: report them as one
    # clean line on stderr and exit 2, no traceback.
    try:
        if args.command == "inspect":
            return _run_inspect(args)
        payload = _sweep(args) if args.command == "sweep" else _run(args)
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    text = json.dumps(_to_jsonable(payload), indent=2, default=str)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via tests on main()
    sys.exit(main())
