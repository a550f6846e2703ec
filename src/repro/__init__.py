"""repro: a reproduction of FIRM (OSDI 2020) on a simulated cluster.

FIRM is an intelligent fine-grained resource management framework for
SLO-oriented microservices.  This package re-implements the framework and
every substrate it depends on in pure Python:

* :mod:`repro.sim` -- discrete-event simulation engine.
* :mod:`repro.cluster` -- simulated Kubernetes-like cluster with
  fine-grained resources, containers, and an orchestrator.
* :mod:`repro.apps` -- the four benchmark microservice applications.
* :mod:`repro.workload` -- open-loop workload generators.
* :mod:`repro.tracing` -- distributed tracing and telemetry.
* :mod:`repro.anomaly` -- performance anomaly injection.
* :mod:`repro.core` -- the FIRM framework itself (critical path extraction,
  SVM-based localization, DDPG resource estimation, deployment module).
* :mod:`repro.baselines` -- Kubernetes autoscaling and AIMD baselines.
* :mod:`repro.metrics` -- latency/SLO accounting.
* :mod:`repro.experiments` -- harnesses reproducing the paper's tables
  and figures.

Quickstart
----------
>>> from repro.experiments.harness import ExperimentHarness
>>> from repro.experiments.scenario import ScenarioSpec
>>> spec = ScenarioSpec(application="social_network", seed=1, load_rps=50.0, controller="firm")
>>> harness = ExperimentHarness.from_spec(spec)
>>> result = harness.run(duration_s=60.0)
>>> result.slo.violation_rate  # doctest: +SKIP
0.01
"""

from repro.core.firm import FIRMConfig, FIRMController

__version__ = "1.0.0"

__all__ = ["FIRMController", "FIRMConfig", "__version__"]
