"""Admission when the allocator is fragmented.

The pool's budget check can pass while the device allocator still
cannot place the region's buffers (``OutOfDeviceMemory`` out of the
issuer's ``open``).  The scheduler must then roll the admission back
completely: with other regions in service the request is deferred
until one of them retires; with nothing in service it can never fit
and fails with :class:`~repro.core.memlimit.MemLimitError`.  Either
way every member's reservation is released and the request's cached
plans for those members are dropped.

Both issuer shapes are driven: a single-device request and a
``shards=2`` request on a two-device pool.
"""

from __future__ import annotations

import pytest

from repro.core.executor import PipelineIssuer
from repro.core.multidevice import ShardedIssuer
from repro.serve import DevicePool, RegionScheduler, ServeConfig, build_request
from repro.sim.memory import OutOfDeviceMemory

QCD = {"n": 6}


def _fragment_once(monkeypatch, pool, seq):
    """Make the issuer opened for request ``seq`` raise OOM once.

    Returns a dict the patched ``open`` fills: the member devices the
    failing issuer spanned.
    """
    seen = {}

    def wrap(cls, prefix):
        real = cls.open

        def open_(self):
            real(self)
            if self.stream_prefix == prefix and "members" not in seen:
                runtimes = getattr(self, "runtimes", None) or [self.runtime]
                seen["members"] = [pool.runtimes.index(rt) for rt in runtimes]
                raise OutOfDeviceMemory(1, 0, 1)

        monkeypatch.setattr(cls, "open", open_)

    wrap(PipelineIssuer, f"t{seq}.pipe")
    wrap(ShardedIssuer, f"t{seq}.shard")
    return seen


def _spy_open(monkeypatch, seen):
    """Snapshot scheduler state right after the failing ``_open``."""
    real = RegionScheduler._open

    def spy(self, w, *args, **kwargs):
        before = list(self.pool.reserved)
        fired = "members" in seen
        ok = real(self, w, *args, **kwargs)
        if not fired and "members" in seen:
            seen.update(
                admitted=ok,
                active=len(self._active),
                deferred=w.oom_deferred,
                planned=sorted(w.planned),
                reserved_before=before,
                reserved_after=list(self.pool.reserved),
            )
        return ok

    monkeypatch.setattr(RegionScheduler, "_open", spy)


@pytest.mark.parametrize("shards", [1, 2])
def test_fragmented_open_defers_while_others_active(monkeypatch, shards):
    pool = DevicePool("k40m", count=shards)
    seen = _fragment_once(monkeypatch, pool, seq=1)
    _spy_open(monkeypatch, seen)
    sched = RegionScheduler(pool, ServeConfig(autotune=False))
    # request 0 outranks the target, so it is in service when the
    # target's open fails
    sched.submit(build_request("qcd", config=QCD, priority=1, tenant="first"))
    sched.submit(build_request("qcd", config=QCD, shards=shards, tenant="target"))
    report = sched.run()

    assert len(seen["members"]) == shards
    assert seen["admitted"] is False
    assert seen["active"] == 1
    assert seen["deferred"] is True
    assert not set(seen["planned"]) & set(seen["members"])
    # the failed admission's reservation is rolled back on every member
    assert seen["reserved_after"] == seen["reserved_before"]
    assert pool.reserved == [0] * shards

    # deferred, not failed: it is admitted again once request 0 retires
    assert report.ok
    target = report.results[1]
    assert target.shards == shards
    assert target.admitted >= report.results[0].finished


@pytest.mark.parametrize("shards", [1, 2])
def test_fragmented_open_fails_when_nothing_active(monkeypatch, shards):
    pool = DevicePool("k40m", count=shards)
    seen = _fragment_once(monkeypatch, pool, seq=0)
    _spy_open(monkeypatch, seen)
    sched = RegionScheduler(pool, ServeConfig(autotune=False))
    sched.submit(build_request("qcd", config=QCD, shards=shards, tenant="target"))
    report = sched.run()

    assert len(seen["members"]) == shards
    assert seen["admitted"] is False
    assert seen["active"] == 0
    assert not set(seen["planned"]) & set(seen["members"])
    assert seen["reserved_after"] == [0] * shards
    assert pool.reserved == [0] * shards

    (r,) = report.results
    assert r.status == "failed"
    assert r.error.startswith("MemLimitError")
    assert r.device == -1
