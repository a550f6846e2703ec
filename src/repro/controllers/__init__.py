"""Controller sensing and composed policies.

* :mod:`repro.controllers.manager` — :class:`ControllerManager`, one per
  tenant: the sensing reads (SLO verdict, comfort, detection, admission
  signals, service utilization) every controller round starts with,
  pulled by name.
* :mod:`repro.controllers.composed` — the ``composed`` controller family:
  priority chains and SVM-gated RL with heuristic fallback and online
  DDPG fine-tuning.
"""

from repro.controllers.manager import ControllerManager

__all__ = ["ControllerManager"]
