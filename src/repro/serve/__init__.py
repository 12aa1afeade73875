"""``repro.serve`` — multi-tenant serving of pipelined regions.

The paper pipelines one offload region on one device.  This package
scales that runtime out: many tenants submit
:class:`~repro.serve.RegionRequest`\\ s, a deterministic
:class:`~repro.serve.RegionScheduler` admits them against per-device
memory budgets, and their chunk pipelines interleave over a shared
:class:`~repro.serve.DevicePool` so one region's kernels hide another's
transfers.  A :class:`~repro.serve.PlanCache` lets repeat traffic skip
the autotune search.

Quick start::

    from repro.serve import DevicePool, RegionScheduler, random_workload

    pool = DevicePool("k40m")
    sched = RegionScheduler(pool)
    sched.submit_all(random_workload(seed=0, n=4))
    report = sched.run()
    print(report.summary())

See ``docs/serve.md`` for the architecture, fairness policy, cache key,
and determinism guarantee.
"""

from repro.obs.telemetry import SLO
from repro.serve.cache import PlanCache
from repro.serve.journal import (
    JournalError,
    JournalReader,
    JournalWriter,
    output_store_path,
)
from repro.serve.pool import DevicePool
from repro.serve.request import RegionRequest, RequestResult
from repro.serve.scheduler import RegionScheduler, ServeConfig, ServeReport
from repro.serve.workload import (
    WorkloadSpec,
    build_request,
    load_workload,
    random_workload,
)

__all__ = [
    "DevicePool",
    "JournalError",
    "JournalReader",
    "JournalWriter",
    "PlanCache",
    "RegionRequest",
    "RegionScheduler",
    "RequestResult",
    "SLO",
    "ServeConfig",
    "ServeReport",
    "WorkloadSpec",
    "build_request",
    "load_workload",
    "output_store_path",
    "random_workload",
]
