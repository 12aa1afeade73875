"""Control-plane cost in deterministic operation counts.

The scheduler's per-turn cost must not grow with the number of waiting
or active requests.  Host wall is too noisy to assert that directly, so
these tests count the operations that would make a turn's cost grow
with the queue if they were repeated per turn or per admission, with
counting wrappers installed around one offline batch on one k40m
(virtual arrays, ``autotune=False``) and restored afterwards:

- ``RegionPlan.device_bytes`` calls: a plan's size is computed once
  when the plan is built and read from the cache after that, so the
  calls stay within plans built (``tune_plan`` calls, which size the
  plan once themselves) plus admissions;
- ``PipelineIssuer.remaining`` / ``issued`` reads per scheduling turn:
  weighted-fair issue re-keys only the region just issued, so the reads
  per turn at n=256 stay within 1.5x of those at n=64;
- placement checks: on a one-device pool each request is placed once by
  the scan that finds it fitting and once more when it is admitted, not
  once per admission of every other request.

The counts are exact functions of the workload, so no assertion depends
on host speed.
"""

from __future__ import annotations

import functools

from repro.core.executor import PipelineIssuer
from repro.core.plan import RegionPlan
from repro.serve import DevicePool, RegionScheduler, ServeConfig, random_workload
from repro.serve import scheduler as scheduler_mod


def _count_calls(counts, key, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)

    return wrapper


def _count_reads(counts, key, prop):
    def getter(self):
        counts[key] += 1
        return prop.fget(self)

    return property(getter)


def _serve_counted(n: int):
    """Serve ``n`` requests; returns (report, counts)."""
    counts = dict.fromkeys(
        ("device_bytes", "tune_plan", "remaining", "issued", "turns",
         "admissions", "place"),
        0,
    )
    real_admit = RegionScheduler._admit
    real_open = RegionScheduler._open

    def admit(self):
        # one _admit per scheduling turn; the invariants the loop
        # relies on instead of re-sorting every turn
        counts["turns"] += 1
        seqs = [a.admit_seq for a in self._active]
        assert seqs == sorted(seqs), "_active is not in admission order"
        wseqs = [w.seq for w in self._waiting]
        assert wseqs == sorted(wseqs), "_waiting is not in submission order"
        return real_admit(self)

    def open_(self, *args, **kwargs):
        ok = real_open(self, *args, **kwargs)
        counts["admissions"] += int(ok)
        return ok

    saved = [
        (RegionPlan, "device_bytes", RegionPlan.device_bytes),
        (scheduler_mod, "tune_plan", scheduler_mod.tune_plan),
        (PipelineIssuer, "remaining", PipelineIssuer.remaining),
        (PipelineIssuer, "issued", PipelineIssuer.issued),
        (RegionScheduler, "_admit", real_admit),
        (RegionScheduler, "_open", real_open),
        (RegionScheduler, "_place", RegionScheduler._place),
    ]
    try:
        RegionPlan.device_bytes = _count_calls(
            counts, "device_bytes", RegionPlan.device_bytes
        )
        scheduler_mod.tune_plan = _count_calls(
            counts, "tune_plan", scheduler_mod.tune_plan
        )
        PipelineIssuer.remaining = _count_reads(
            counts, "remaining", PipelineIssuer.remaining
        )
        PipelineIssuer.issued = _count_reads(
            counts, "issued", PipelineIssuer.issued
        )
        RegionScheduler._admit = admit
        RegionScheduler._open = open_
        RegionScheduler._place = _count_calls(
            counts, "place", RegionScheduler._place
        )
        pool = DevicePool("k40m", virtual=True)
        sched = RegionScheduler(pool, ServeConfig(autotune=False))
        sched.submit_all(random_workload(seed=7, n=n))
        report = sched.run()
        pool.close()
    finally:
        for owner, name, value in saved:
            setattr(owner, name, value)
    return report, counts


@functools.lru_cache(maxsize=None)
def _batch(n: int):
    return _serve_counted(n)


def test_wrappers_are_restored():
    _batch(64)
    assert not hasattr(RegionPlan.device_bytes, "__wrapped__")
    assert PipelineIssuer.remaining.fget.__name__ == "remaining"
    assert RegionScheduler._admit.__name__ == "_admit"


def test_plan_size_is_computed_once_per_plan():
    for n in (64, 256):
        report, c = _batch(n)
        assert report.ok
        assert c["admissions"] == n
        assert c["device_bytes"] <= c["tune_plan"] + c["admissions"], c


def test_each_request_is_placed_twice():
    for n in (64, 256):
        report, c = _batch(n)
        assert report.ok
        assert c["place"] <= 2 * n, c


def test_issuer_reads_per_turn_do_not_grow_with_n():
    per_turn = {}
    for n in (64, 256):
        report, c = _batch(n)
        assert report.ok
        per_turn[n] = (c["remaining"] + c["issued"]) / c["turns"]
    assert per_turn[256] <= 1.5 * per_turn[64], per_turn
