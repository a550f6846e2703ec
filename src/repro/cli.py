"""Command-line interface for running reproduction experiments.

Usage::

    python -m repro.cli list
    python -m repro.cli run fig1 --out results/fig1.json
    python -m repro.cli run table6
    python -m repro.cli run interference --preset aggressor_victim
    python -m repro.cli run routing --preset interference --policies jiq,p2c
    python -m repro.cli run resilience --preset multi_anomaly
    python -m repro.cli run composed --duration 10
    python -m repro.cli controllers --list
    python -m repro.cli sweep --campaigns single_sweep,random \
        --controllers firm,aimd,none --workers 2
    python -m repro.cli compare --application social_network --duration 120
    python -m repro.cli sweep --application social_network \
        --seeds 0,1,2 --controllers firm,aimd --workers 2
    python -m repro.cli sweep --tenants 1,2,4 --application hotel_reservation \
        --controllers aimd --duration 30
    python -m repro.cli sweep --routing least_in_flight,p2c,jiq \
        --controllers none,aimd --tenants 1,2
    python -m repro.cli perf --quick --repeats 3 --compare

The CLI is a thin wrapper over :mod:`repro.experiments`; every experiment
is also importable and runnable programmatically (see the examples/
directory and the benchmarks/ harnesses).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import Any, Callable, Dict


def _to_jsonable(value: Any) -> Any:
    """Best-effort conversion of experiment results to JSON-friendly data."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            field.name: _to_jsonable(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        return {str(key): _to_jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_to_jsonable(item) for item in value]
    if hasattr(value, "as_dict"):
        return _to_jsonable(value.as_dict())
    if hasattr(value, "summary") and callable(value.summary):
        try:
            return _to_jsonable(value.summary())
        except TypeError:
            pass
    if isinstance(value, (int, float, str, bool)) or value is None:
        return value
    return str(value)


def _run_fig1(args: argparse.Namespace):
    from repro.experiments.fig1_motivation import run_fig1

    return run_fig1(duration_s=args.duration, load_rps=args.load)


def _run_fig3(args: argparse.Namespace):
    from repro.experiments.fig3_cp_distributions import run_fig3

    return run_fig3(duration_s=args.duration, load_rps=args.load)


def _run_table1(args: argparse.Namespace):
    from repro.experiments.table1_cp_changes import run_table1

    return run_table1(duration_s=min(args.duration, 60.0), load_rps=args.load)


def _run_fig4(args: argparse.Namespace):
    from repro.experiments.fig4_variance_scaling import run_fig4

    return run_fig4(duration_s=min(args.duration, 60.0), load_rps=args.load)


def _run_fig5(args: argparse.Namespace):
    from repro.experiments.fig5_scale_tradeoff import run_fig5

    return run_fig5(duration_s=min(args.duration, 45.0))


def _run_fig9(args: argparse.Namespace):
    from repro.experiments.fig9_localization import run_fig9b

    return run_fig9b(applications=("social_network",), windows=6, load_rps=args.load)


def _run_fig10(args: argparse.Namespace):
    from repro.experiments.fig10_end_to_end import run_fig10

    return run_fig10(
        application=args.application, duration_s=args.duration, load_rps=args.load
    )


def _run_fig11(args: argparse.Namespace):
    from repro.experiments.fig11_rl_training import run_fig11b

    return run_fig11b(episodes=4)


def _run_table6(args: argparse.Namespace):
    from repro.experiments.table6_operation_latency import run_table6, table6_rows

    return table6_rows(run_table6())


def _run_summary(args: argparse.Namespace):
    from repro.experiments.summary import run_summary

    return run_summary(quick=True)


def _run_interference(args: argparse.Namespace):
    """Run an interference preset; omitted flags keep the preset defaults."""
    from repro.experiments.interference import PRESETS, run_interference

    preset = getattr(args, "preset", None) or "aggressor_victim"
    kwargs: Dict[str, Any] = {"seed": getattr(args, "seed", 0)}
    if args.duration is not None:
        kwargs["duration_s"] = args.duration
    if preset == "identical_tenants":
        tenants = getattr(args, "tenants", None)
        kwargs["count"] = tenants if tenants is not None else 2
        if args.load is not None:
            kwargs["load_rps"] = args.load
        if args.application is not None:
            kwargs["application"] = args.application
    elif preset in PRESETS:
        if args.load is not None:
            kwargs["victim_load_rps"] = args.load
        if args.application is not None:
            kwargs["victim_application"] = args.application
    return run_interference(preset=preset, **kwargs).as_dict()


def _run_resilience(args: argparse.Namespace):
    """Run a resilience preset; omitted flags keep the preset defaults."""
    from repro.experiments.resilience import run_resilience

    preset = getattr(args, "preset", None) or "multi_anomaly"
    outcome = run_resilience(
        preset=preset,
        seed=getattr(args, "seed", 0),
        duration_s=args.duration,
        load_rps=args.load,
        application=args.application,
        controller=getattr(args, "controller", None),
        scope=getattr(args, "scope", None),
    )
    return outcome.as_dict()


def _run_routing_experiment(args: argparse.Namespace):
    """Compare routing policies; omitted flags keep the preset defaults."""
    from repro.experiments.routing import DEFAULT_POLICIES, run_routing

    preset = getattr(args, "preset", None) or "interference"
    policies = (
        _csv_list(args.policies)
        if getattr(args, "policies", None)
        else DEFAULT_POLICIES
    )
    kwargs: Dict[str, Any] = {"seed": getattr(args, "seed", 0)}
    if args.duration is not None:
        kwargs["duration_s"] = args.duration
    if preset == "anomaly":
        if args.load is not None:
            kwargs["load_rps"] = args.load
        if args.application is not None:
            kwargs["application"] = args.application
    else:
        if args.load is not None:
            kwargs["victim_load_rps"] = args.load
        if args.application is not None:
            kwargs["victim_application"] = args.application
    return run_routing(preset=preset, policies=policies, **kwargs).as_dict()


def _run_sharded_experiment(args: argparse.Namespace):
    """Run a multi-tenant interference preset on the sharded engine.

    ``--shards 1`` (the default) is the transparent bypass to the classic
    single-engine path, so the same command line can A/B the two engines
    on an identical spec.
    """
    from repro.experiments.interference import PRESETS
    from repro.experiments.scenario import run_scenario
    from repro.experiments.sharded import ShardedScenarioRunner, plan_shards

    preset = getattr(args, "preset", None) or "aggressor_victim"
    try:
        builder = PRESETS[preset]
    except KeyError:
        known = ", ".join(sorted(PRESETS))
        raise ValueError(f"unknown interference preset {preset!r}; known: {known}")
    kwargs: Dict[str, Any] = {"seed": getattr(args, "seed", 0)}
    if args.duration is not None:
        kwargs["duration_s"] = args.duration
    if preset == "identical_tenants":
        tenants = getattr(args, "tenants", None)
        kwargs["count"] = tenants if tenants is not None else 4
        if args.load is not None:
            kwargs["load_rps"] = args.load
        if args.application is not None:
            kwargs["application"] = args.application
    else:
        if args.load is not None:
            kwargs["victim_load_rps"] = args.load
        if args.application is not None:
            kwargs["victim_application"] = args.application
    spec = builder(**kwargs)
    obs_dir = getattr(args, "obs_dir", None)
    observability = bool(getattr(args, "obs", False) or obs_dir)
    if observability:
        spec = spec.with_overrides(observability=True)

    shards = max(1, int(getattr(args, "shards", 1) or 1))
    payload: Dict[str, Any] = {
        "scenario_id": spec.scenario_id,
        "shards": shards,
    }
    harness = None
    if shards == 1:
        if observability:
            # Build the harness explicitly so the span stores stay
            # reachable for the Chrome trace export.
            from repro.experiments.harness import ExperimentHarness

            harness = ExperimentHarness.from_spec(spec)
            result = harness.run(
                duration_s=spec.duration_s,
                sample_period_s=spec.sample_period_s,
                warmup_s=spec.warmup_s,
            )
        else:
            result = run_scenario(spec)
    else:
        mode = getattr(args, "shard_mode", None) or "process"
        runner = ShardedScenarioRunner(spec, shards, mode=mode)
        try:
            runner.prepare()
            result = runner.execute()
        finally:
            runner.close()
        payload["mode"] = mode
        payload["window_s"] = runner.plan.window_s
        payload["barriers"] = runner.sync_stats.barriers
        payload["skipped_windows"] = runner.sync_stats.skipped_windows
        payload["processed_events"] = runner.processed_events
    payload["summary"] = result.summary()
    payload["tenants"] = result.per_tenant_summary()
    if observability:
        journal = result.journal or []
        counts: Dict[str, int] = {}
        for record in journal:
            counts[record["kind"]] = counts.get(record["kind"], 0) + 1
        payload["observability"] = {
            "journal_records": len(journal),
            "by_kind": dict(sorted(counts.items())),
        }
        if obs_dir:
            from repro.obs.run import write_run_record

            paths = write_run_record(obs_dir, result, harness=harness)
            payload["observability"]["run_record"] = paths
            print(f"wrote run record {obs_dir}", file=sys.stderr)
    return payload


def _run_metastable(args: argparse.Namespace):
    """Run a metastable-failure campaign, or one case with a run record.

    The default mode runs a named campaign (``--preset retry_storm``,
    ``shed_vs_violate``, or ``staleness_grid``) and returns its
    scoreboard.  With ``--admission`` (or ``--obs``/``--obs-dir``) it
    runs one case instead — the shape CI uses to produce a run-record
    artifact whose journal carries the ``admission_decision`` /
    ``retry`` / ``breaker_transition`` records.
    """
    from repro.experiments.metastable import (
        MetastableCase,
        _run_metastable_case_with_result,
        run_metastable_campaign,
    )

    seed = getattr(args, "seed", 0)
    quick = bool(getattr(args, "quick", False))
    case_overrides: Dict[str, Any] = {}
    if args.duration is not None:
        case_overrides["duration_s"] = args.duration
    if args.load is not None:
        case_overrides["load_rps"] = args.load
    if args.application is not None:
        case_overrides["application"] = args.application
    if getattr(args, "dispatchers", None) is not None and args.dispatchers > 1:
        case_overrides["dispatchers"] = args.dispatchers

    admission = getattr(args, "admission", None)
    obs_dir = getattr(args, "obs_dir", None)
    observability = bool(getattr(args, "obs", False) or obs_dir)
    if admission or observability:
        case = MetastableCase(
            seed=seed, admission=admission or "survival_kit", **case_overrides
        )
        if quick:
            case = case.with_overrides(
                duration_s=min(case.duration_s, 15.0),
                anomaly_start_s=2.5,
                anomaly_duration_s=5.0,
            )
        outcome, result, harness = _run_metastable_case_with_result(
            case, observability=observability
        )
        payload = outcome.as_dict()
        if observability:
            journal = result.journal or []
            counts: Dict[str, int] = {}
            for record in journal:
                counts[record["kind"]] = counts.get(record["kind"], 0) + 1
            payload["observability"] = {
                "journal_records": len(journal),
                "by_kind": dict(sorted(counts.items())),
            }
            if obs_dir:
                from repro.obs.run import write_run_record

                paths = write_run_record(obs_dir, result, harness=harness)
                payload["observability"]["run_record"] = paths
                print(f"wrote run record {obs_dir}", file=sys.stderr)
        return payload

    campaign = getattr(args, "preset", None) or "retry_storm"

    def _progress(done: int, total: int, outcome) -> None:
        print(f"[{done}/{total}] {outcome.case_id}", file=sys.stderr)

    return run_metastable_campaign(
        campaign,
        seed=seed,
        quick=quick,
        workers=getattr(args, "workers", None) or 1,
        progress=_progress,
        **case_overrides,
    )


def _run_composed(args: argparse.Namespace):
    """Run the composed controller stack (staged framework end to end).

    ``--preset`` selects the victim's composition mode (``svm_gated_rl``,
    the default, or ``priority_chain``).
    """
    from repro.experiments.composed import run_composed

    mode = getattr(args, "preset", None) or "svm_gated_rl"
    kwargs: Dict[str, Any] = {
        "seed": getattr(args, "seed", 0),
        "mode": mode,
    }
    if args.duration is not None:
        kwargs["duration_s"] = args.duration
    return run_composed(**kwargs)


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


EXPERIMENTS: Dict[str, Callable[[argparse.Namespace], Any]] = {
    "fig1": _run_fig1,
    "fig3": _run_fig3,
    "fig4": _run_fig4,
    "fig5": _run_fig5,
    "fig9": _run_fig9,
    "fig10": _run_fig10,
    "fig11": _run_fig11,
    "composed": _run_composed,
    "interference": _run_interference,
    "metastable": _run_metastable,
    "resilience": _run_resilience,
    "routing": _run_routing_experiment,
    "sharded": _run_sharded_experiment,
    "table1": _run_table1,
    "table6": _run_table6,
    "summary": _run_summary,
}


def build_parser() -> argparse.ArgumentParser:
    """Build the CLI argument parser."""
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list available experiments")

    run_parser = subparsers.add_parser("run", help="run one experiment")
    run_parser.add_argument("experiment", choices=sorted(EXPERIMENTS), help="experiment id")
    # Defaults are applied in main() (90 s / 50 rps / social_network) so
    # the interference experiment can tell "flag omitted" apart from an
    # explicit value and fall back to its presets' own defaults.
    run_parser.add_argument("--duration", type=float, default=None, help="scenario duration (simulated s, default 90)")
    run_parser.add_argument("--load", type=float, default=None, help="offered load (req/s, default 50)")
    run_parser.add_argument("--application", default=None, help="benchmark application (default social_network)")
    run_parser.add_argument(
        "--seed", type=int, default=0,
        help="experiment seed (interference; classic experiments keep their published seeds)",
    )
    run_parser.add_argument(
        "--preset", default=None,
        help="interference preset (aggressor_victim, noisy_neighbor_ramp, "
        "identical_tenants), routing preset (anomaly, interference), "
        "resilience preset (single_sweep, multi_anomaly, random, "
        "multi_tenant), or metastable campaign (retry_storm, "
        "shed_vs_violate, staleness_grid)",
    )
    run_parser.add_argument(
        "--controller", default=None,
        help="resource controller for the resilience experiment "
        "(firm, firm_multi, kubernetes_hpa, aimd, none)",
    )
    run_parser.add_argument(
        "--scope", default=None,
        help="anomaly target scope for the resilience experiment "
        "(node, replica, service_wide, tenant)",
    )
    run_parser.add_argument(
        "--tenants", type=int, default=None,
        help="tenant count for the identical_tenants interference preset",
    )
    run_parser.add_argument(
        "--policies", default=None,
        help="comma-separated routing policies for the routing experiment "
        "(default: all registered policies)",
    )
    run_parser.add_argument(
        "--shards", type=int, default=1,
        help="event-shard count for the sharded experiment "
        "(1 = classic single-engine path)",
    )
    run_parser.add_argument(
        "--shard-mode", default=None, choices=("process", "inprocess"),
        help="shard execution mode for the sharded experiment "
        "(default process; inprocess runs shards serially in this process)",
    )
    run_parser.add_argument(
        "--admission", default=None,
        help="admission preset for the metastable experiment (none, "
        "naive_retries, shed_only, survival_kit); switches from the "
        "campaign scoreboard to a single scored case",
    )
    run_parser.add_argument(
        "--dispatchers", type=int, default=None,
        help="dispatcher count for the metastable experiment "
        "(>1 enables stale-view distributed dispatch)",
    )
    run_parser.add_argument(
        "--quick", action="store_true",
        help="short smoke durations for the metastable experiment",
    )
    run_parser.add_argument(
        "--workers", type=int, default=None,
        help="worker processes for metastable campaigns (default 1)",
    )
    run_parser.add_argument(
        "--obs", action="store_true",
        help="enable run-record observability for the sharded and "
        "metastable experiments (event journal + metrics registry; see "
        "also --obs-dir)",
    )
    run_parser.add_argument(
        "--obs-dir", default=None,
        help="write the run record (journal.jsonl, metrics.json/.prom, "
        "summary.json, trace.json) to this directory; implies --obs",
    )
    run_parser.add_argument("--out", default=None, help="write the JSON result to this path")

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
        help="run-record directory (from run sharded --obs-dir) or a "
        "journal.jsonl path",
    )

    compare_parser = subparsers.add_parser(
        "compare", help="compare FIRM against the baselines on one application"
    )
    compare_parser.add_argument("--application", default="social_network")
    compare_parser.add_argument("--duration", type=float, default=120.0)
    compare_parser.add_argument("--load", type=float, default=60.0)
    compare_parser.add_argument("--out", default=None)

    sweep_parser = subparsers.add_parser(
        "sweep",
        help="run a seed x load x controller grid of scenarios, optionally in parallel",
    )
    sweep_parser.add_argument(
        "--application", default="social_network",
        help="comma-separated benchmark application(s)",
    )
    sweep_parser.add_argument(
        "--controllers", default="firm,aimd,k8s",
        help="comma-separated controller registry names",
    )
    sweep_parser.add_argument(
        "--seeds", default="0", help="comma-separated experiment seeds"
    )
    sweep_parser.add_argument(
        "--loads", default="50", help="comma-separated offered loads (req/s)"
    )
    sweep_parser.add_argument("--duration", type=float, default=60.0, help="scenario duration (simulated s)")
    sweep_parser.add_argument(
        "--workers", type=int, default=1, help="worker processes (1 = serial)"
    )
    sweep_parser.add_argument(
        "--anomaly-rate", type=float, default=None,
        help="random anomaly arrivals per second (0 disables injection; "
        "omitted keeps each grid's own default — 0 for plain/tenant "
        "sweeps, 0.25 for routing sweeps, where anomalies create the "
        "replica-speed asymmetry that separates policies)",
    )
    sweep_parser.add_argument(
        "--tenants", default=None,
        help="comma-separated tenant counts; switches to a multi-tenant "
        "consolidation sweep (N identical co-located tenants per scenario "
        "on a small 1-node cluster, vs. the 15-node single-tenant default)",
    )
    sweep_parser.add_argument(
        "--placement", default=None,
        help="scheduler placement policy "
        "(spread, binpack, random, anti_affinity, tenant_anti_affinity)",
    )
    sweep_parser.add_argument(
        "--routing", default=None,
        help="comma-separated load-balancing policies; crosses the grid "
        "with routing regimes (least_in_flight, round_robin, random, "
        "power_of_two_choices, ewma_latency, join_the_idle_queue)",
    )
    sweep_parser.add_argument(
        "--campaigns", default=None,
        help="comma-separated anomaly campaign kinds (single_sweep, "
        "multi_anomaly, random); switches to the resilience grid — "
        "controllers x campaigns x applications x seeds, scored on "
        "localization precision/recall and mitigation",
    )
    sweep_parser.add_argument(
        "--scope", default=None,
        help="anomaly target scope for the resilience grid "
        "(node, replica, service_wide, tenant; default service_wide)",
    )
    sweep_parser.add_argument(
        "--admission", default=None,
        help="comma-separated admission presets (none, naive_retries, "
        "shed_only, survival_kit); switches to the metastable admission "
        "grid — presets x seeds, scored on SLO violation, localization, "
        "and request amplification",
    )
    sweep_parser.add_argument("--out", default=None, help="write the JSON result to this path")

    perf_parser = subparsers.add_parser(
        "perf",
        help="run the repro.perf macro-benchmarks (simulator throughput)",
    )
    perf_parser.add_argument(
        "--quick", action="store_true",
        help="short CI durations instead of the full benchmark durations",
    )
    perf_parser.add_argument(
        "--benchmarks", default=None,
        help="comma-separated benchmark subset (default: all macro benchmarks)",
    )
    perf_parser.add_argument(
        "--profile", action="store_true",
        help="run under cProfile and attach a hot-spot report "
        "(several-fold slower; never use profiled numbers as baselines)",
    )
    perf_parser.add_argument(
        "--compare", action="store_true",
        help="compare against the committed baseline and exit non-zero on "
        "a >threshold normalized events/sec regression",
    )
    perf_parser.add_argument(
        "--update-baseline", action="store_true",
        help="overwrite the committed baseline with this run's results",
    )
    perf_parser.add_argument(
        "--baseline", default=None,
        help="baseline path (default: benchmarks/results/perf.json)",
    )
    perf_parser.add_argument(
        "--threshold", type=float, default=None,
        help="regression threshold as a fraction (default 0.20 = 20%%)",
    )
    perf_parser.add_argument(
        "--repeats", type=int, default=1,
        help="median-of-N runs per benchmark (use >=3 for baselines and CI gates)",
    )
    perf_parser.add_argument(
        "--scaling", action="store_true",
        help="measure the shard-scaling curve (events/s per shard count) "
        "instead of the macro benchmarks, and write scaling.json",
    )
    perf_parser.add_argument(
        "--shard-counts", default=None,
        help="comma-separated shard counts for --scaling (default 1,2,4)",
    )
    perf_parser.add_argument(
        "--scaling-out", default=None,
        help="scaling artifact path (default: benchmarks/results/scaling.json)",
    )
    perf_parser.add_argument("--out", default=None, help="write the JSON report to this path")
    return parser


def _csv_list(text: str, convert=str) -> list:
    """Split a comma-separated CLI value, dropping empty items."""
    return [convert(item.strip()) for item in text.split(",") if item.strip()]


def _run_sweep(args: argparse.Namespace):
    from repro.baselines.base import resolve_controller_name
    from repro.cluster.scheduler import PlacementPolicy
    from repro.experiments.scenario import ScenarioSpec
    from repro.experiments.sweep import (
        routing_sweep_grid,
        run_sweep,
        sweep_grid,
        tenant_sweep_grid,
    )
    from repro.routing.base import resolve_policy_name

    # Fail fast on typos before any scenario of the grid runs.
    for controller in _csv_list(args.controllers):
        resolve_controller_name(controller)
    routing_policies = (
        [resolve_policy_name(p) for p in _csv_list(args.routing)]
        if getattr(args, "routing", None)
        else None
    )
    if args.placement is not None:
        PlacementPolicy(args.placement)

    if getattr(args, "admission", None):
        # Metastable admission grid: presets x seeds under the same
        # transient trigger, scored on SLO violation, localization, and
        # request amplification.
        from repro.experiments.metastable import (
            metastable_sweep_grid,
            run_metastable_sweep,
        )

        case_overrides = {}
        if args.duration is not None:
            case_overrides["duration_s"] = args.duration
        cases = []
        for application in _csv_list(args.application):
            for load in _csv_list(args.loads, float):
                cases.extend(
                    metastable_sweep_grid(
                        presets=_csv_list(args.admission),
                        seeds=_csv_list(args.seeds, int),
                        application=application,
                        load_rps=load,
                        **case_overrides,
                    )
                )

        def _admission_progress(done: int, total: int, outcome) -> None:
            print(f"[{done}/{total}] {outcome.case_id}", file=sys.stderr)

        outcomes = run_metastable_sweep(
            cases, workers=args.workers, progress=_admission_progress
        )
        return [outcome.as_dict() for outcome in outcomes]

    if getattr(args, "campaigns", None):
        # Resilience grid: controllers x campaigns x applications x seeds,
        # scored on localization precision/recall and mitigation metrics.
        from repro.experiments.resilience import (
            resilience_sweep_grid,
            run_resilience_sweep,
        )

        case_overrides: Dict[str, Any] = {}
        if args.duration is not None:
            case_overrides["duration_s"] = args.duration
        if getattr(args, "scope", None):
            case_overrides["scope"] = args.scope
        cases = []
        for load in _csv_list(args.loads, float):
            cases.extend(
                resilience_sweep_grid(
                    controllers=_csv_list(args.controllers),
                    campaigns=_csv_list(args.campaigns),
                    applications=_csv_list(args.application),
                    seeds=_csv_list(args.seeds, int),
                    load_rps=load,
                    **case_overrides,
                )
            )

        def _case_progress(done: int, total: int, outcome) -> None:
            print(f"[{done}/{total}] {outcome.case_id}", file=sys.stderr)

        outcomes = run_resilience_sweep(
            cases, workers=args.workers, progress=_case_progress
        )
        return [outcome.as_dict() for outcome in outcomes]

    if routing_policies is not None:
        # Routing sweep: policies x controllers x tenant counts (tenant
        # count 1 is the single-tenant consolidation shape).  An omitted
        # --anomaly-rate keeps the grid's own default (0.25), which
        # provides the replica-speed asymmetry policies separate under.
        grid_kwargs: Dict[str, Any] = {}
        if args.anomaly_rate is not None:
            grid_kwargs["anomaly_rate_per_s"] = args.anomaly_rate
        specs = []
        for application in _csv_list(args.application):
            for load in _csv_list(args.loads, float):
                specs.extend(
                    routing_sweep_grid(
                        policies=routing_policies,
                        controllers=_csv_list(args.controllers),
                        tenant_counts=_csv_list(args.tenants or "1", int),
                        application=application,
                        seeds=_csv_list(args.seeds, int),
                        load_rps=load,
                        duration_s=args.duration,
                        placement=args.placement,
                        **grid_kwargs,
                    )
                )
    elif getattr(args, "tenants", None):
        # Multi-tenant consolidation sweep: N identical co-located tenants.
        specs = []
        for application in _csv_list(args.application):
            for controller in _csv_list(args.controllers):
                for load in _csv_list(args.loads, float):
                    specs.extend(
                        tenant_sweep_grid(
                            tenant_counts=_csv_list(args.tenants, int),
                            application=application,
                            controller=controller,
                            seeds=_csv_list(args.seeds, int),
                            load_rps=load,
                            duration_s=args.duration,
                            placement=args.placement,
                            anomaly_rate_per_s=args.anomaly_rate or 0.0,
                        )
                    )
    else:
        specs = sweep_grid(
            applications=_csv_list(args.application),
            controllers=_csv_list(args.controllers),
            seeds=_csv_list(args.seeds, int),
            loads_rps=_csv_list(args.loads, float),
            duration_s=args.duration,
            anomaly_rate_per_s=args.anomaly_rate or 0.0,
            base=ScenarioSpec(placement=args.placement) if args.placement else None,
        )

    def _progress(done: int, total: int, outcome) -> None:
        print(f"[{done}/{total}] {outcome.scenario_id}", file=sys.stderr)

    outcomes = run_sweep(specs, workers=args.workers, progress=_progress)
    return [outcome.as_dict() for outcome in outcomes]


def _run_perf(args: argparse.Namespace) -> int:
    """``repro.cli perf``: run, report, and optionally gate on regressions."""
    from repro.perf import (
        DEFAULT_BASELINE_PATH,
        REGRESSION_THRESHOLD,
        compare_reports,
        load_report,
        run_perf,
        save_report,
    )

    if getattr(args, "scaling", False):
        from repro.perf.harness import DEFAULT_SCALING_PATH, run_shard_scaling, save_scaling

        counts = (
            _csv_list(args.shard_counts, int) if args.shard_counts else (1, 2, 4)
        )
        curve = run_shard_scaling(shard_counts=counts, quick=args.quick)
        for point in curve["points"]:
            print(
                f"[perf] shards={point['shards']}: {point['events_per_s']:,.0f} "
                f"events/s over {point['wall_s']:.2f}s wall",
                file=sys.stderr,
            )
        scaling_path = args.scaling_out if args.scaling_out else DEFAULT_SCALING_PATH
        save_scaling(curve, scaling_path)
        print(f"wrote scaling curve {scaling_path}", file=sys.stderr)
        text = json.dumps(curve, indent=2, default=str)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
            print(f"wrote {args.out}")
        else:
            print(text)
        return 0

    report = run_perf(
        quick=args.quick,
        benchmarks=_csv_list(args.benchmarks) if args.benchmarks else None,
        profile=args.profile,
        repeats=args.repeats,
    )
    for name, result in sorted(report.benchmarks.items()):
        print(
            f"[perf] {name}: {result.events_per_s:,.0f} events/s, "
            f"{result.requests_per_s:,.1f} req/s over {result.wall_s:.2f}s wall",
            file=sys.stderr,
        )
    print(f"[perf] peak RSS {report.peak_rss_mb:.1f} MiB", file=sys.stderr)
    payload = report.as_dict()

    baseline_path = args.baseline if args.baseline else DEFAULT_BASELINE_PATH
    threshold = args.threshold if args.threshold is not None else REGRESSION_THRESHOLD
    exit_code = 0
    if args.update_baseline:
        save_report(report, baseline_path)
        print(f"wrote baseline {baseline_path}", file=sys.stderr)
    elif args.compare:
        comparisons = compare_reports(report, load_report(baseline_path), threshold=threshold)
        payload["comparison"] = [vars(comparison) for comparison in comparisons]
        for comparison in comparisons:
            print(f"[perf] {comparison.describe()}", file=sys.stderr)
        if any(comparison.regressed for comparison in comparisons):
            print(
                "[perf] FAILED: throughput or peak RSS regressed past the "
                f"gate thresholds vs {baseline_path}",
                file=sys.stderr,
            )
            exit_code = 1

    text = json.dumps(payload, indent=2, default=str)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {args.out}")
    else:
        print(text)
    return exit_code


def main(argv=None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "perf":
        return _run_perf(args)

    if args.command == "list":
        for name in sorted(EXPERIMENTS):
            print(name)
        return 0

    if args.command == "controllers":
        return _run_controllers(args)

    # Scenario/preset resolution errors (unknown preset names, bad spec
    # combinations, missing run records) are user errors, not bugs: report
    # them as one clean line on stderr and exit non-zero, no traceback.
    try:
        if args.command == "inspect":
            return _run_inspect(args)

        if args.command == "compare":
            from repro.experiments.fig10_end_to_end import run_fig10

            result = run_fig10(
                application=args.application,
                duration_s=args.duration,
                load_rps=args.load,
                include_multi_rl=False,
            )
            payload = {name: res.summary() for name, res in result.results.items()}
        elif args.command == "sweep":
            payload = _run_sweep(args)
        else:
            if args.experiment not in (
                "composed",
                "interference",
                "metastable",
                "resilience",
                "routing",
                "sharded",
            ):
                # Classic experiments get the historical defaults; interference,
                # resilience, and routing resolve omitted flags against their
                # presets' own defaults.
                if args.duration is None:
                    args.duration = 90.0
                if args.load is None:
                    args.load = 50.0
                if args.application is None:
                    args.application = "social_network"
            runner = EXPERIMENTS[args.experiment]
            payload = _to_jsonable(runner(args))
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    text = json.dumps(_to_jsonable(payload), indent=2, default=str)
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via tests on main()
    sys.exit(main())
