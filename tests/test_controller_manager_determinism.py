"""Byte-identity contract of the staged controller-manager.

Each tenant's manager memoizes stage results per ``(stage, tenant,
instant, params)`` — that must change only how often the sensing work
runs, never any experiment output.  This suite pins the contract by
running every pinned determinism family (the families of
``test_determinism``), an HPA-forced variant, and the
composed-controller stack twice: once as built, and once with the stage
cache emptied before every pull so each pull recomputes.  It also asserts
the cache actually works (hits observed) so the identity isn't vacuous.
"""

from __future__ import annotations

import pytest

from test_determinism import _fingerprint, pinned_families

from repro.controllers.manager import StageCache
from repro.experiments.composed import composed_stack_spec
from repro.experiments.harness import ExperimentHarness
from repro.experiments.scenario import run_scenario


def _run_fingerprint(spec) -> str:
    return _fingerprint(run_scenario(spec))


def _uncached_fingerprint(spec, monkeypatch) -> str:
    """Fingerprint of ``spec`` with every stage pull recomputed."""
    with monkeypatch.context() as patch:
        patch.setattr(StageCache, "sync", lambda cache, now: cache.entries.clear())
        return _run_fingerprint(spec)


@pytest.mark.parametrize("family", sorted(pinned_families()))
def test_manager_mode_is_byte_identical(family, monkeypatch):
    spec = pinned_families()[family]
    assert _run_fingerprint(spec) == _uncached_fingerprint(spec, monkeypatch)


def test_manager_mode_is_byte_identical_for_hpa(monkeypatch):
    spec = pinned_families()["single_aimd"].with_overrides(controller="kubernetes_hpa")
    assert _run_fingerprint(spec) == _uncached_fingerprint(spec, monkeypatch)


def test_composed_stack_is_byte_identical_and_memoized(monkeypatch):
    spec = composed_stack_spec(duration_s=10.0, seed=1)
    uncached = _uncached_fingerprint(spec, monkeypatch)

    harness = ExperimentHarness.from_spec(spec)
    result = harness.run(
        duration_s=spec.duration_s,
        sample_period_s=spec.sample_period_s,
        warmup_s=spec.warmup_s,
    )
    assert _fingerprint(result) == uncached

    # The identity must not be vacuous: the gated composition re-pulls
    # detection inside its FIRM member, so the cache sees real hits.
    stats = {t.display_name: dict(t.manager.stats) for t in harness.tenants}
    assert sum(s["hits"] for s in stats.values()) > 0
    assert all(s["computed"] > 0 for s in stats.values())


def test_composed_stack_repeat_runs_identical():
    spec = composed_stack_spec(duration_s=4.0, seed=2)
    assert _run_fingerprint(spec) == _run_fingerprint(spec)
