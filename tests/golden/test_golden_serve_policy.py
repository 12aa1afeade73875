"""Golden scheduler-policy regression test.

``tests/golden/serve_policy.json`` pins, per case, the sha256 of the
sorted-keys ``ServeReport.to_dict()`` of one small seeded serving run.
The cases are chosen to walk the scheduler's policy paths that the
plain offline batch never reaches:

- ``max_active_2``: the concurrency cap holds fitting waiters back;
- ``aging``: ``aging_every=1, max_priority=2`` under a memory budget
  that admits only a few regions at a time, so passed-over waiters age
  up to the cap while younger ones overtake them;
- ``deadlines``: deadlines tight enough both to shed waiters and to
  cancel in-flight regions at a chunk boundary;
- ``sharded``: a 2-device pool where half the requests ask for
  ``shards=2``;
- ``failover``: the ``failover`` chaos profile on 2 devices, so a
  device is lost and its regions migrate;
- ``failover_deadlines``: the same with deadlines, so a migrated
  request whose deadline passed while it was in service is shed once
  it is back in the queue;
- ``breaker``: a fault plan on one of 2 devices that trips the
  circuit breaker repeatedly, so quarantines also expire and the
  device is probed back.

The scheduler is virtual-time deterministic, so every digest must match
**exactly**; any change to admission order, issue order, deadlines,
failover or quarantine timing shows up here.  When a change is meant to
move the schedule, regenerate and review::

    PYTHONPATH=src python -m pytest tests/golden -q --update-golden
    git diff tests/golden/serve_policy.json
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.faults import FaultPlan, pool_fault_plans
from repro.serve import DevicePool, RegionScheduler, ServeConfig, random_workload

GOLDEN = Path(__file__).resolve().parent / "serve_policy.json"


def _serve(requests, config, *, devices=1, budget_bytes=None, plans=None):
    """Run one batch; returns the report and per-kind recorder counts."""
    pool = DevicePool(
        "k40m", count=devices, budget_bytes=budget_bytes, virtual=True
    )
    if plans is not None:
        pool.install_faults(plans)
    sched = RegionScheduler(pool, config)
    kinds = {}

    def count(ev):
        kinds[ev["kind"]] = kinds.get(ev["kind"], 0) + 1

    sched.recorder.sink = count
    sched.submit_all(requests)
    report = sched.run()
    assert pool.reserved == [0] * devices
    pool.close()
    return report, kinds


def _max_active_2():
    return _serve(
        random_workload(3, 12), ServeConfig(max_active=2, autotune=False)
    )


def _aging():
    return _serve(
        random_workload(8, 12),
        ServeConfig(aging_every=1, max_priority=2, autotune=False),
        budget_bytes=1_500_000,
    )


def _deadlines():
    requests = [
        replace(r, deadline=2e-4 * (1 + i % 3))
        for i, r in enumerate(random_workload(5, 12))
    ]
    return _serve(requests, ServeConfig(max_active=2, autotune=False))


def _sharded():
    requests = [
        replace(r, shards=2) if i % 2 == 0 else r
        for i, r in enumerate(random_workload(6, 10))
    ]
    return _serve(requests, ServeConfig(), devices=2)


def _failover():
    return _serve(
        random_workload(13, 8),
        ServeConfig(),
        devices=2,
        plans=pool_fault_plans("failover", seed=1, count=2),
    )


def _failover_deadlines():
    requests = [
        replace(r, deadline=1.5e-3 * (1 + i % 3))
        for i, r in enumerate(random_workload(21, 10))
    ]
    return _serve(
        requests,
        ServeConfig(max_active=4),
        devices=2,
        plans=pool_fault_plans("failover", seed=1, count=2),
    )


def _breaker():
    return _serve(
        random_workload(1, 10),
        ServeConfig(
            breaker_threshold=2, breaker_window=1.0, breaker_cooldown=1e-4,
            max_active=3,
        ),
        devices=2,
        plans=[FaultPlan(seed=1, kernel_fault_rate=0.25, h2d_fault_rate=0.15),
               None],
    )


CASES = {
    "max_active_2": _max_active_2,
    "aging": _aging,
    "deadlines": _deadlines,
    "sharded": _sharded,
    "failover": _failover,
    "failover_deadlines": _failover_deadlines,
    "breaker": _breaker,
}


@functools.lru_cache(maxsize=None)
def _case(name):
    return CASES[name]()


def _digest(report) -> str:
    text = json.dumps(report.to_dict(), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_golden_serve_policy(update_golden):
    digests = {name: _digest(_case(name)[0]) for name in CASES}
    if update_golden:
        GOLDEN.write_text(
            json.dumps(digests, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        return
    assert GOLDEN.exists(), (
        f"missing golden file {GOLDEN}; generate with "
        f"pytest tests/golden --update-golden"
    )
    pinned = json.loads(GOLDEN.read_text(encoding="utf-8"))
    drifted = sorted(n for n in CASES if pinned.get(n) != digests[n])
    assert not drifted and set(pinned) == set(CASES), (
        f"serve policy drifted from tests/golden/serve_policy.json in "
        f"{drifted or sorted(set(pinned) ^ set(CASES))} — if the schedule "
        f"change is intentional, rerun with --update-golden and review"
    )


@pytest.mark.parametrize("name", sorted(CASES))
def test_policy_case_reaches_its_path(name):
    """Each case really exercises the path it is named for."""
    report, kinds = _case(name)
    overtaken = sum(r.overtaken for r in report.results)
    if name == "max_active_2":
        assert report.ok and overtaken > 0
    elif name == "aging":
        assert report.ok and overtaken > 0
        assert kinds["request.admit"] == len(report.results)
    elif name == "deadlines":
        assert report.shed > 0 and report.cancelled > 0
    elif name == "sharded":
        assert report.ok
        assert any(r.shards == 2 for r in report.results)
    elif name == "failover":
        assert report.ok and report.migrated > 0
        assert "lost" in report.device_health
    elif name == "failover_deadlines":
        assert report.migrated > 0 and report.cancelled > 0
        assert any(r.migrated and r.status == "shed" for r in report.results)
    elif name == "breaker":
        assert report.ok and report.breaker_trips[0] >= 2
        assert kinds.get("breaker.close", 0) >= 1
