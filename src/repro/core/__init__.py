"""FIRM core: the paper's primary contribution.

The multilevel ML pipeline of Fig. 6:

1. :mod:`repro.core.critical_path` -- Algorithm 1, weighted longest-path
   extraction over execution history graphs honouring sequential, parallel,
   and background workflows.
2. :mod:`repro.core.extractor` with
   :mod:`repro.tracing.instance_sketch` -- Algorithm 2: the
   :class:`~repro.core.extractor.Extractor` reads each critical-path
   instance's relative importance and congestion intensity from the
   tenant's windowed :class:`~repro.tracing.instance_sketch.InstanceSketches`
   and feeds them to an incremental SVM to localize the microservice
   instances responsible for SLO violations.
3. :mod:`repro.core.rl` -- the DDPG resource estimator producing
   fine-grained reprovisioning actions.
4. :mod:`repro.core.deployment` -- action validation and actuation through
   the orchestrator.
5. :mod:`repro.core.firm` -- the end-to-end controller tying them together.
"""

from repro.core.critical_path import CriticalPathExtractor, CriticalPath
from repro.core.svm import IncrementalSVM, RBFFeatureMap
from repro.core.deployment import DeploymentModule
from repro.core.extractor import Extractor
from repro.core.firm import FIRMController, FIRMConfig

__all__ = [
    "CriticalPathExtractor",
    "CriticalPath",
    "IncrementalSVM",
    "RBFFeatureMap",
    "DeploymentModule",
    "Extractor",
    "FIRMController",
    "FIRMConfig",
]
