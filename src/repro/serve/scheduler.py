"""The multi-tenant region scheduler.

One :class:`RegionScheduler` drives many tenants' chunk pipelines over
a shared :class:`~repro.serve.DevicePool`:

- **Admission** is memory-budget-driven: a request enters service only
  when its tuned plan's full device footprint fits the chosen device's
  unreserved budget.  Placement picks the device with the most headroom
  (ties to the lowest index).
- **Planning** goes through the :class:`~repro.serve.PlanCache`: a hit
  reuses the tuned ``(chunk_size, num_streams)``; a miss runs the
  autotune search (virtual dry runs) and charges a deterministic
  virtual planning cost to the serving device's host clock — which is
  exactly the scheduling overhead warm traffic saves.
- **Fairness** is weighted-fair chunk issue: each scheduling turn
  issues the next chunk of the active region with the smallest
  ``chunks_issued / (priority + 1)`` (ties to admission order), so a
  priority-``p`` tenant gets ``p+1`` issue slots per slot of a
  priority-0 tenant.  Admission order is by *effective* priority with
  starvation aging: every time a fitting request is passed over
  ``aging_every`` times its effective priority rises one step, capped
  at ``max_priority`` — whereupon older requests can no longer be
  overtaken by fitting younger ones (the bound the property tests
  assert).
- **Interleaving** is where the throughput comes from: different
  tenants' H2D/compute/D2H commands queue on the same engines, so a
  transfer-bound region's DMA gaps are filled by a compute-bound
  region's kernels.  ``ServeConfig(max_active=1)`` disables it,
  which is the back-to-back serial baseline the differential tests and
  the throughput benchmark compare against.
- **One admission path**: every placement is a *member list* — one
  device for ordinary service, up to ``shards`` in-service devices for
  a request with ``shards > 1`` (fewer fitting devices degrade
  gracefully down to one).  Admission reserves the plan's footprint on
  every member and opens one issuer; the only thing the member count
  decides is which: a :class:`~repro.core.executor.PipelineIssuer` for
  one device, a :class:`~repro.core.multidevice.ShardedIssuer` (loop
  split by probed throughput on a shared virtual clock, halo exchange
  and shared-PCIe contention modelled) for more.  Both speak one
  issuer protocol, so retirement, cancellation, failover, deadlines
  and telemetry never ask which.  A member's death escalates to
  pool-level failover (the whole request re-queues).

When the pool carries fault injectors the scheduler additionally runs
a **failure-handling state machine** (all of it inert — and the
schedule bit-identical — on fault-free pools):

- **chunk replay in place**: at retirement the issuer's
  :meth:`~repro.core.executor.PipelineIssuer.recover` replays faulted
  chunks under the request's retry budget; a per-issuer *fault router*
  makes sure one tenant's recovery never claims another tenant's
  faults off the shared runtime.
- **failover**: ``DeviceLostError`` is non-terminal at the pool level.
  The dead device is marked lost, its reservations released, and its
  in-flight and waiting requests re-queued (restarting from chunk 0 —
  ring-buffer slots died with the device) to be placed on healthy
  devices; completed migrations report ``migrated=True``.
- **circuit breaker**: ``breaker_threshold`` faults within a sliding
  ``breaker_window`` of a device's virtual time quarantine that device
  for ``breaker_cooldown`` seconds; placement skips it until the
  cooldown expires, then probes it back into service.
- **deadline enforcement**: an in-flight region is cancelled at the
  next chunk boundary once ``elapsed + remaining-chunk lower bound``
  (from the plan's cost model) provably exceeds its deadline, and
  still-waiting requests whose deadline already passed are shed.
- **bounded admission**: ``max_waiting`` caps the queue; overload
  sheds the lowest-effective-priority request deterministically.

Everything is virtual-time deterministic: the loop consults no wall
clock and breaks every tie by submission/admission order, so the same
workload produces the bit-identical schedule, trace, and report every
run.
"""

from __future__ import annotations

import heapq
import os
import time
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, field
from dataclasses import replace as dc_replace
from typing import Dict, List, Optional, Tuple, Union

from repro.core.autotune import autotune
from repro.core.executor import PipelineIssuer
from repro.core.memlimit import MemLimitError, tune_plan
from repro.core.multidevice import ShardedIssuer
from repro.core.plan import RegionPlan
from repro.directives.clauses import DirectiveError
from repro.faults.plan import KIND_DEVICE_LOST, HostCrashError
from repro.faults.policy import FaultPolicy, RegionFailure
from repro.gpu.errors import (
    DeviceLostError,
    InvalidValueError,
    KernelFaultError,
    TransferError,
)
from repro.integrity import INTEGRITY_OFF, validate_integrity
from repro.obs.io import atomic_write_text
from repro.obs.metrics import Histogram
from repro.obs.recorder import FlightRecorder
from repro.obs.telemetry import (
    SLO,
    TelemetrySampler,
    prometheus_text,
    write_telemetry_jsonl,
)
from repro.serve.cache import PlanCache
from repro.serve.journal import (
    JOURNAL_FORMAT,
    JournalError,
    JournalReader,
    JournalWriter,
    output_store_path,
)
from repro.serve.pool import DevicePool
from repro.serve.request import RegionRequest, RequestResult
from repro.sim.memory import OutOfDeviceMemory

__all__ = ["ServeConfig", "RegionScheduler", "ServeReport"]

#: burn-rate threshold for the ``slo.burn_spike`` event — the classic
#: SRE fast-burn page (2% of a 30-day budget in one hour = 14.4x)
_BURN_SPIKE = 14.4

#: virtual seconds charged to the serving device's host clock per
#: autotune dry run on a cache miss (the modelled cost of the planning
#: work warm traffic skips)
_PLAN_CHARGE = 2e-5

#: stream-count ceiling for the autotune ladder
_MAX_STREAMS = 4

#: terminal status -> (flight-recorder event, its text field,
#: post-mortem dump reason, the dump's text field).  A request still
#: waiting records the event only; an in-flight one also dumps.
_TERMINAL = {
    "failed": ("request.fail", "error", "region-failure", "error"),
    "cancelled": ("request.cancel", "reason", "deadline-cancel", "cause"),
    "shed": ("request.shed", "reason", None, None),
}


def _describe(error: Union[str, BaseException]) -> str:
    """Result text for a terminal outcome: a reason, or ``Type: msg``."""
    if isinstance(error, BaseException):
        return f"{type(error).__name__}: {error}"
    return error


@dataclass
class ServeConfig:
    """Scheduler policy knobs (all deterministic).

    Attributes
    ----------
    max_active:
        Maximum regions in service per pool (``None`` = unlimited).
        ``1`` is the serial baseline: each region fully drains before
        the next is admitted.
    aging_every:
        A waiting request's effective priority rises one step each time
        it is passed over this many times while it would have fit.
    max_priority:
        Cap for effective priority; at the cap, a fitting older request
        can no longer be overtaken.
    autotune:
        Tune ``(chunk_size, num_streams)`` by virtual dry runs on cache
        misses.  Off, the request's own pragma parameters are used
        (memory-tuned only).
    fault_policy:
        Per-chunk replay policy used when the pool carries fault
        injectors (``None`` = a default :class:`~repro.faults.FaultPolicy`
        when faults are installed; ignored on fault-free pools).
    max_request_retries:
        Total recovery replays (chunk replays + blocking reissues) one
        request may consume across its lifetime, on top of the
        policy's per-chunk cap (``None`` = unlimited).
    breaker_threshold:
        Circuit breaker: quarantine a device after this many faults
        within ``breaker_window`` virtual seconds of its clock.
    breaker_window:
        Sliding window (virtual seconds) for the breaker count.
    breaker_cooldown:
        Quarantine duration (virtual seconds) before the device is
        probed back into service.
    enforce_deadlines:
        Cancel in-flight regions whose deadline is provably
        unreachable (remaining-chunk lower bound) and shed waiting
        requests whose deadline already passed.  Off, deadlines are
        advisory (``deadline_met`` is still recorded).
    max_waiting:
        Admission-queue bound; when full, the lowest-effective-priority
        waiting request is shed deterministically (``None`` = unbounded).
    flight_recorder_capacity:
        Size of the scheduler's bounded flight-recorder ring (events
        kept for post-mortem dumps on device loss, region failure, or
        deadline cancellation).
    integrity:
        Default integrity-verification mode for every request:
        ``"off"`` (default), ``"checksum"`` (chunk-granular transfer
        checksums), or ``"vote"`` (checksums plus dual-execution
        kernel voting).  A request's own ``integrity`` attribute
        overrides it per tenant.  Detected corruptions are recomputed
        in place under the request's retry budget and — on
        single-device service — feed the device's circuit breaker, so
        a device with an elevated silent-corruption rate is
        quarantined exactly like one throwing hard faults.
    straggler_watchdog:
        Enable the sharded-region straggler watchdog: shards' chunk
        completion rates are compared and a shard running slower than
        ``ratio`` of the best has its remaining work re-split over the
        other members (``False`` by default; ``True`` uses
        :class:`~repro.core.multidevice.WatchdogConfig` defaults, or
        pass a ``WatchdogConfig`` to tune it).  Only affects requests
        with ``shards > 1``.
    journal_path:
        Write-ahead journal file for crash-consistent serving
        (``None`` = no journal).  See :mod:`repro.serve.journal` and
        ``docs/serve.md``.
    crash_after_events:
        Host-crash injection: kill the serve loop with
        :class:`~repro.faults.HostCrashError` once this many journal
        records are durable (``None`` = never).  Overrides any
        ``crash_after_events`` harvested from the pool's fault plans.
    telemetry:
        Enable continuous telemetry: a
        :class:`~repro.obs.TelemetrySampler` aggregates queue depth,
        per-device utilization, memory, PCIe occupancy, cache hit
        rate, breaker state, and request counters into fixed
        virtual-time windows (``report.telemetry`` frames).  Pure
        host-side bookkeeping: every measured result stays
        bit-identical with it on or off.  Implied by
        ``telemetry_path`` or ``slos``.
    telemetry_window:
        Telemetry window length in virtual seconds (> 0).
    telemetry_path:
        Write the telemetry JSONL stream here at the end of the run
        (plus a Prometheus text dump at ``<path>.prom``).
    slos:
        Per-tenant :class:`~repro.obs.SLO` objectives (plain dicts
        accepted), usually collected from the workload's ``slo`` keys.
        Enables the SLO engine: rolling per-window compliance, burn
        rate, and error budget per tenant (``report.slo``), with
        ``slo.breach`` / ``slo.burn_spike`` / ``slo.budget_exhausted``
        flight-recorder events.
    """

    max_active: Optional[int] = None
    aging_every: int = 4
    max_priority: int = 8
    autotune: bool = True
    fault_policy: Optional[FaultPolicy] = None
    max_request_retries: Optional[int] = None
    breaker_threshold: int = 3
    breaker_window: float = 0.02
    breaker_cooldown: float = 0.05
    enforce_deadlines: bool = True
    max_waiting: Optional[int] = None
    flight_recorder_capacity: int = 256
    integrity: str = INTEGRITY_OFF
    straggler_watchdog: object = False
    journal_path: Optional[str] = None
    crash_after_events: Optional[int] = None
    telemetry: bool = False
    telemetry_window: float = 1e-3
    telemetry_path: Optional[str] = None
    slos: Optional[Dict[str, SLO]] = None

    def __post_init__(self) -> None:
        validate_integrity(self.integrity)
        if not self.telemetry_window > 0:
            raise InvalidValueError("telemetry_window must be > 0")
        if self.slos is not None:
            if not isinstance(self.slos, dict):
                raise InvalidValueError(
                    "slos must be a {tenant: SLO} mapping (or None)"
                )
            norm: Dict[str, SLO] = {}
            for tenant, slo in self.slos.items():
                try:
                    norm[tenant] = (
                        slo if isinstance(slo, SLO) else SLO.from_dict(slo)
                    )
                except ValueError as exc:
                    raise InvalidValueError(
                        f"slos[{tenant!r}]: {exc}"
                    ) from None
            self.slos = norm
        if self.max_active is not None and self.max_active < 1:
            raise InvalidValueError("max_active must be >= 1 (or None)")
        if self.aging_every < 1:
            raise InvalidValueError("aging_every must be >= 1")
        if self.max_request_retries is not None and self.max_request_retries < 0:
            raise InvalidValueError("max_request_retries must be >= 0 (or None)")
        if self.breaker_threshold < 1:
            raise InvalidValueError("breaker_threshold must be >= 1")
        if self.breaker_window <= 0:
            raise InvalidValueError("breaker_window must be > 0")
        if self.breaker_cooldown < 0:
            raise InvalidValueError("breaker_cooldown must be >= 0")
        if self.max_waiting is not None and self.max_waiting < 1:
            raise InvalidValueError("max_waiting must be >= 1 (or None)")
        if self.flight_recorder_capacity < 1:
            raise InvalidValueError("flight_recorder_capacity must be >= 1")
        if self.crash_after_events is not None and self.crash_after_events < 1:
            raise InvalidValueError("crash_after_events must be >= 1 (or None)")


@dataclass
class ServeReport:
    """Everything one :meth:`RegionScheduler.run` produced.

    ``makespan`` is the pool's final elapsed virtual time (max over
    devices); per-request details live in ``results`` in submission
    order.
    """

    results: List[RequestResult]
    makespan: float
    device_elapsed: List[float]
    device_peaks: List[int]
    budgets: List[int]
    cache: Dict[str, object]
    plan_seconds: float
    dry_runs: int
    #: per-device health at the end of the run ("ok" / "quarantined" / "lost")
    device_health: List[str] = field(default_factory=list)
    #: per-device circuit-breaker trip counts
    breaker_trips: List[int] = field(default_factory=list)
    #: flight-recorder snapshots produced during the run (device loss,
    #: region failure, deadline cancellation, run-end); excluded from
    #: :meth:`to_dict` — dumps are post-mortem artifacts, not metrics
    flight_dumps: List[Dict] = field(default_factory=list, repr=False)
    #: journal counters when the run carried a write-ahead journal
    #: (path/records/fsyncs/resumed/replayed/deduped/
    #: reexecuted); empty without one.  Excluded from :meth:`to_dict`
    #: on purpose — a resumed run's digest must stay byte-identical to
    #: the uninterrupted (and journal-free) run's
    journal: Dict = field(default_factory=dict, repr=False)
    #: per-tenant SLO digest (compliance/budget/burn/breaches); empty
    #: without declared SLOs, and then absent from :meth:`to_dict` so
    #: SLO-free reports stay byte-identical to older builds
    slo: Dict = field(default_factory=dict)
    #: telemetry frames when the run sampled (see
    #: :meth:`repro.obs.TelemetrySampler.finish`); excluded from
    #: :meth:`to_dict` — the frame stream is an artifact with its own
    #: exporters, not part of the report digest
    telemetry: List[Dict] = field(default_factory=list, repr=False)
    #: host wall seconds the sampler spent observing (see
    #: :attr:`repro.obs.TelemetrySampler.wall_s`); never in
    #: :meth:`to_dict` — it is machine-dependent, the report is
    #: deterministic.  The overhead bench gates this.
    telemetry_wall_s: float = field(default=0.0, repr=False)

    @property
    def ok(self) -> bool:
        """Whether every request completed successfully."""
        return all(r.ok for r in self.results)

    def _count(self, status: str) -> int:
        return sum(1 for r in self.results if r.status == status)

    @property
    def failed(self) -> int:
        """Requests that failed terminally."""
        return self._count("failed")

    @property
    def shed(self) -> int:
        """Requests shed while still waiting."""
        return self._count("shed")

    @property
    def cancelled(self) -> int:
        """In-flight requests cancelled at a chunk boundary."""
        return self._count("cancelled")

    @property
    def migrated(self) -> int:
        """Requests that failed over from a lost device."""
        return sum(1 for r in self.results if r.migrated)

    @property
    def deadlines_missed(self) -> int:
        """Deadline-carrying requests that did not provably meet it."""
        return sum(
            1 for r in self.results
            if r.deadline is not None and r.deadline_met is not True
        )

    @property
    def faults(self) -> int:
        """Total faulted commands absorbed across all requests."""
        return sum(r.faults for r in self.results)

    @property
    def retries(self) -> int:
        """Total recovery replays across all requests."""
        return sum(r.retries for r in self.results)

    @property
    def verified(self) -> int:
        """Total integrity checks performed across all requests."""
        return sum(r.verified for r in self.results)

    @property
    def corruptions(self) -> int:
        """Total silent corruptions detected across all requests."""
        return sum(r.corruptions for r in self.results)

    @property
    def resplits(self) -> int:
        """Total sharded-loop re-splits (device loss + stragglers)."""
        return sum(r.resplits for r in self.results)

    @property
    def tenants(self) -> Dict[str, Dict[str, int]]:
        """Per-tenant outcome / fault / failover / deadline counters."""
        out: Dict[str, Dict[str, int]] = {}
        for r in self.results:
            t = out.setdefault(r.tenant, {
                "ok": 0, "failed": 0, "shed": 0, "cancelled": 0,
                "migrated": 0, "deadlines_missed": 0,
                "faults": 0, "retries": 0,
            })
            t[r.status] += 1
            if r.migrated:
                t["migrated"] += 1
            if r.deadline is not None and r.deadline_met is not True:
                t["deadlines_missed"] += 1
            t["faults"] += r.faults
            t["retries"] += r.retries
        return out

    @property
    def tenant_latency(self) -> Dict[str, Dict[str, object]]:
        """Per-tenant latency percentiles over completed requests.

        ``queue_wait`` and ``service`` p50/p95/p99 (nearest-rank, via
        :meth:`~repro.obs.metrics.Histogram.percentile`) for each
        tenant's ``ok`` requests.  Tenants with no completed request
        are omitted.  Deterministic: same workload, same digits.
        """
        waits: Dict[str, Histogram] = {}
        svcs: Dict[str, Histogram] = {}
        for r in self.results:
            if r.status != "ok":
                continue
            waits.setdefault(r.tenant, Histogram("queue_wait")).observe(r.queue_wait)
            svcs.setdefault(r.tenant, Histogram("service")).observe(r.service)
        out: Dict[str, Dict[str, object]] = {}
        for tenant in sorted(waits):
            w, s = waits[tenant], svcs[tenant]
            out[tenant] = {
                "count": w.count,
                "queue_wait": {
                    "p50": w.percentile(50),
                    "p95": w.percentile(95),
                    "p99": w.percentile(99),
                },
                "service": {
                    "p50": s.percentile(50),
                    "p95": s.percentile(95),
                    "p99": s.percentile(99),
                },
            }
        return out

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe digest (stable key order for golden comparison)."""
        return {
            "makespan_s": self.makespan,
            "device_elapsed_s": list(self.device_elapsed),
            "device_peak_bytes": [int(p) for p in self.device_peaks],
            "budget_bytes": [int(b) for b in self.budgets],
            "cache": dict(self.cache),
            "plan_seconds": self.plan_seconds,
            "dry_runs": self.dry_runs,
            "requests": [r.to_dict() for r in self.results],
            "failed": self.failed,
            "shed": self.shed,
            "cancelled": self.cancelled,
            "migrated": self.migrated,
            "deadlines_missed": self.deadlines_missed,
            "faults": self.faults,
            "retries": self.retries,
            "verified": self.verified,
            "corruptions": self.corruptions,
            "resplits": self.resplits,
            "device_health": list(self.device_health),
            "breaker_trips": [int(n) for n in self.breaker_trips],
            "tenants": {t: dict(c) for t, c in sorted(self.tenants.items())},
            "tenant_latency": {
                t: dict(d) for t, d in sorted(self.tenant_latency.items())
            },
            **(
                {"slo": {t: dict(d) for t, d in sorted(self.slo.items())}}
                if self.slo else {}
            ),
        }

    def summary(self) -> str:
        """Multi-line human-readable digest."""
        lines = [
            f"requests         {len(self.results)} "
            f"({sum(1 for r in self.results if r.ok)} ok, "
            f"{self.failed} failed, {self.shed} shed, "
            f"{self.cancelled} cancelled)",
            f"makespan         {self.makespan * 1e3:.3f} ms",
            f"plan cache       {self.cache.get('hits', 0)} hit(s), "
            f"{self.cache.get('misses', 0)} miss(es) "
            f"(hit rate {float(self.cache.get('hit_rate', 0.0)):.0%}), "
            f"{self.dry_runs} dry run(s)",
        ]
        if self.journal:
            j = self.journal
            lines.append(
                f"journal          {j.get('records', 0)} record(s), "
                f"{j.get('fsyncs', 0)} fsync(s), "
                f"resumed={j.get('resumed', 0)}, "
                f"replayed={j.get('replayed', 0)}, "
                f"deduped={j.get('deduped', 0)}, "
                f"re-executed={j.get('reexecuted', 0)}"
            )
        if any(r.deadline is not None for r in self.results):
            tracked = sum(1 for r in self.results if r.deadline is not None)
            lines.append(
                f"deadlines        {tracked} tracked, "
                f"{self.deadlines_missed} missed"
            )
        if self.migrated or self.faults or any(
            h != "ok" for h in self.device_health
        ):
            lines.append(
                f"fault tolerance  {self.faults} fault(s) absorbed, "
                f"{self.retries} replay(s), {self.migrated} migration(s)"
            )
        if self.verified or self.corruptions:
            lines.append(
                f"integrity        {self.verified} check(s), "
                f"{self.corruptions} corruption(s) detected"
            )
        if self.resplits:
            lines.append(
                f"stragglers       {self.resplits} loop re-split(s)"
            )
        for i, (el, pk, bd) in enumerate(
            zip(self.device_elapsed, self.device_peaks, self.budgets)
        ):
            health = (
                self.device_health[i] if i < len(self.device_health) else "ok"
            )
            tag = f" [{health}]" if health != "ok" else ""
            lines.append(
                f"device {i}         elapsed {el * 1e3:.3f} ms, "
                f"peak {pk / 1e6:.1f} MB of {bd / 1e6:.1f} MB budget{tag}"
            )
        for tenant in sorted(self.slo):
            d = self.slo[tenant]
            lines.append(
                f"slo {tenant:<12.12} target {d['target']:.4%}  "
                f"compliance {d['compliance']:.4%}  "
                f"budget {d['budget']:.0%}  "
                f"max burn {d['max_burn']:.3g}  "
                f"breaches {d['breaches']}"
            )
        latency = self.tenant_latency
        for tenant in sorted(latency):
            d = latency[tenant]
            qw, sv = d["queue_wait"], d["service"]
            lines.append(
                f"tenant {tenant:<10.10} {d['count']:>3} ok  "
                f"wait p50/p95/p99 "
                f"{qw['p50'] * 1e3:.3f}/{qw['p95'] * 1e3:.3f}/"
                f"{qw['p99'] * 1e3:.3f} ms  service "
                f"{sv['p50'] * 1e3:.3f}/{sv['p95'] * 1e3:.3f}/"
                f"{sv['p99'] * 1e3:.3f} ms"
            )
        hdr = (
            f"{'id':>3} {'tenant':<10} {'label':<10} {'prio':>4} {'dev':>3} "
            f"{'wait(ms)':>9} {'service(ms)':>12} {'cache':>5}  status"
        )
        lines.append(hdr)
        for r in self.results:
            status = r.status + (" (migrated)" if r.migrated else "")
            lines.append(
                f"{r.request_id:>3} {r.tenant:<10.10} {r.label:<10.10} "
                f"{r.priority:>4} {r.device:>3} "
                f"{r.queue_wait * 1e3:>9.3f} {r.service * 1e3:>12.3f} "
                f"{'hit' if r.cache_hit else 'miss':>5}  {status}"
            )
        return "\n".join(lines)


@dataclass(eq=False)
class _Waiting:
    """Bookkeeping for a submitted, not-yet-admitted request (compared
    by identity: queue removals must not compare every field)."""

    seq: int
    req: RegionRequest
    passed_over: int = 0
    overtaken: int = 0
    oom_deferred: bool = False
    dry_runs: int = 0
    cache_hit: bool = False
    ever_planned: bool = False
    #: device index -> (tuned plan, its device bytes), filled lazily by
    #: the placement pass
    planned: Dict[int, Tuple[RegionPlan, int]] = field(default_factory=dict)
    #: whether this request was re-queued off a lost device
    migrated: bool = False
    #: faults/replays accumulated on earlier (abandoned) attempts
    faults_seen: int = 0
    retries_used: int = 0
    #: resume: journalled result state when the request already
    #: completed before the crash — it is replayed with stand-in
    #: arrays, never re-executed (exactly-once)
    replay: Optional[Dict] = None
    #: resume: the request's real arrays, to receive the journalled
    #: outputs back from the sidecar store at retirement
    restore: Optional[Dict] = None
    #: resume: the request completed before the crash but must run
    #: again with real payloads (its outputs were never persisted, or
    #: integrity recomputation needs real data); counted, not hidden
    reexecute: bool = False


@dataclass
class _Active:
    """An admitted request with its live pipeline issuer."""

    admit_seq: int
    waiting: _Waiting
    issuer: Union[PipelineIssuer, ShardedIssuer]
    #: serving device indices, primary first (one for ordinary
    #: service); ``reserved`` bytes are held on each
    members: List[int]
    plan: RegionPlan
    reserved: int
    admit_t: float
    #: faulted commands owned by this issuer, claimed off the runtime
    #: by another tenant's sync and parked here for its own recovery
    backlog: List = field(default_factory=list)


class RegionScheduler:
    """Deterministic weighted-fair scheduler over a device pool.

    Parameters
    ----------
    pool:
        The shared :class:`~repro.serve.DevicePool`.
    config:
        Policy knobs; defaults to :class:`ServeConfig`'s defaults.
    cache:
        A :class:`~repro.serve.PlanCache` to consult; a private one is
        created when omitted.  Pass a shared instance to model warm
        repeat traffic across :meth:`run` calls.
    """

    def __init__(
        self,
        pool: DevicePool,
        config: Optional[ServeConfig] = None,
        cache: Optional[PlanCache] = None,
        *,
        _resume: Optional[JournalReader] = None,
    ) -> None:
        self.pool = pool
        self.config = config or ServeConfig()
        self.cache = cache if cache is not None else PlanCache()
        self.obs = pool.obs
        #: waiting requests, in submission (``seq``) order
        self._waiting: List[_Waiting] = []
        #: admitted requests, in admission (``admit_seq``) order
        self._active: List[_Active] = []
        self._results: List[RequestResult] = []
        #: admission candidates by seq, in submission order: the waiters
        #: that fit at the last full scan and were neither admitted nor
        #: found too big since (None = rescan every waiter)
        self._cands: Optional[Dict[int, _Waiting]] = None
        #: seqs admitted since that scan, sorted (pending aging)
        self._picks: List[int] = []
        #: candidate seq heaps by (passed_over % aging_every, effective
        #: priority) at the scan
        self._buckets: Dict[Tuple[int, int], List[int]] = {}
        #: one-device pools: ``(-device bytes, seq)`` of the candidates
        self._sizes: List[Tuple[int, int]] = []
        #: waiting requests parked by an allocator OOM at open
        self._deferred: List[_Waiting] = []
        #: ``(issued / (1 + priority), admit_seq, active)`` for every
        #: active region with chunks left to issue (weighted-fair order)
        self._issue_heap: List[Tuple[float, int, _Active]] = []
        #: ``(deadline, seq)`` of waiting requests (stale entries of
        #: admitted or settled requests are skipped when they expire)
        self._deadline_heap: List[Tuple[float, int]] = []
        #: active regions that carry a deadline, in admission order
        self._timed: List[_Active] = []
        self._seq = 0
        self._admit_seq = 0
        self.plan_seconds = 0.0
        self.dry_runs = 0
        # fault-tolerance state (inert on fault-free pools)
        self._policy: Optional[FaultPolicy] = self.config.fault_policy
        self._fault_mode = False
        n = len(pool)
        #: per-device recent fault times (sliding breaker window)
        self._fault_times: List[List[float]] = [[] for _ in range(n)]
        #: per-device quarantine expiry on that device's clock (None = in service)
        self._quarantined_until: List[Optional[float]] = [None] * n
        self._breaker_trips: List[int] = [0] * n
        #: bounded post-mortem event ring; dumped on failures
        self.recorder = FlightRecorder(
            capacity=self.config.flight_recorder_capacity, clock=self._clock
        )
        # continuous telemetry (pure host bookkeeping; never touches
        # the simulators, so results are bit-identical on or off)
        cfg = self.config
        self._sampler: Optional[TelemetrySampler] = None
        if cfg.telemetry or cfg.telemetry_path is not None or cfg.slos:
            self._sampler = TelemetrySampler(
                cfg.telemetry_window,
                slos=cfg.slos,
                on_window=self._on_telemetry_window,
            )
            self._register_gauges()
        # write-ahead journal (crash consistency; see repro.serve.journal)
        self._journal: Optional[JournalWriter] = None
        self._resumed = _resume is not None
        self._deduped = 0
        self._reexecuted = 0
        if self.config.journal_path is not None:
            crash = self.config.crash_after_events
            if _resume is None and crash is None:
                # harvest a hostcrash chaos profile installed on the pool;
                # a resumed run deliberately ignores it (re-arming the
                # same crash index would make resume loop forever)
                crash = pool.crash_after_events
            self._journal = JournalWriter(
                self.config.journal_path,
                crash_after_events=crash,
                resume_lines=_resume.lines if _resume is not None else None,
            )
            self._journal.append(self._header_record())
            self.recorder.sink = self._journal_sink

    # ------------------------------------------------------------------
    # continuous telemetry
    # ------------------------------------------------------------------
    def _register_gauges(self) -> None:
        """Register the sampler's gauge sources.

        All of them read scheduler/pool host state that is constant
        while a simulator advances, so samples are identical whether a
        window closes from the retirement clock hook (mid-drain) or
        from the scheduler loop — the hook-timing independence the
        determinism tests pin.
        """
        s = self._sampler
        s.register_gauge("serve.queue_depth", lambda: len(self._waiting))
        s.register_gauge("serve.active", lambda: len(self._active))
        s.register_gauge(
            "serve.cache.hit_rate",
            lambda: float(self.cache.stats()["hit_rate"]),
        )
        s.register_gauge(
            "serve.corruptions",
            lambda: sum(r.corruptions for r in self._results)
            + sum(a.issuer.corruptions_n for a in self._active),
        )
        pool = self.pool
        for i in range(len(pool)):
            s.register_gauge(
                f"dev{i}.mem_used_bytes", lambda i=i: pool.data_used(i)
            )
            s.register_gauge(
                f"dev{i}.mem_peak_bytes", lambda i=i: pool.data_peak(i)
            )
            s.register_gauge(
                f"dev{i}.link_sharers", lambda i=i: pool.link_sharers(i)
            )
            s.register_gauge(
                f"dev{i}.breaker", lambda i=i: self._breaker_state(i)
            )

    def _breaker_state(self, device: int) -> int:
        """Gauge encoding of device health: 0 ok, 1 quarantined, 2 lost."""
        if self.pool.is_lost(device):
            return 2
        if self._quarantined_until[device] is not None:
            return 1
        return 0

    def _on_telemetry_window(
        self, index: int, t_end: float, gauges: Dict[str, float]
    ) -> None:
        """Per-window flight-recorder breadcrumb (capacity-bounded)."""
        self.recorder.record(
            "telemetry.window",
            t=t_end,
            window=index,
            queue=gauges.get("serve.queue_depth"),
            active=gauges.get("serve.active"),
        )

    def _harvest_telemetry(self, a: _Active) -> None:
        """Feed a finished region's busy intervals into the sampler.

        Per-device ``h2d``/``d2h``/``kernel`` channels; a sharded
        region's commands are attributed to the member device that ran
        them (via each shard's runtime).  Intervals carry explicit
        times, so harvesting at retirement — after the windows they
        fall into may have closed — is exact.
        """
        s = self._sampler
        if s is None:
            return
        t0 = time.perf_counter()
        for rt, commands in a.issuer.member_commands():
            di = self.pool.runtimes.index(rt)
            for cmd in commands:
                if cmd.state == "done" and cmd.kind in ("h2d", "d2h", "kernel"):
                    s.add_interval(
                        f"dev{di}.{cmd.kind}", cmd.start_time, cmd.finish_time
                    )
        s.wall_s += time.perf_counter() - t0

    def _emit_slo_events(self, frames: List[Dict]) -> None:
        """Record SLO breach / burn-spike / budget-exhaustion events.

        One ``slo.breach`` per breached window, one ``slo.burn_spike``
        per window whose burn rate reaches :data:`_BURN_SPIKE` (the SRE
        fast-burn page threshold), and one ``slo.budget_exhausted`` per
        tenant at the first window whose error budget hits zero.  All
        carry explicit window-end times, regenerate deterministically,
        and land before the run-end flight dump (and in the journal,
        when one is attached).
        """
        slos = self.config.slos or {}
        exhausted = set()
        for i, frame in enumerate(frames):
            t_end = frame["t1_s"]
            for tenant in sorted(frame.get("slo", {})):
                cell = frame["slo"][tenant]
                target = slos[tenant].target
                if cell["total"] and cell["compliance"] < target:
                    self.recorder.record(
                        "slo.breach",
                        t=t_end,
                        tenant=tenant,
                        window=i,
                        compliance=cell["compliance"],
                        target=target,
                        burn=cell["burn"],
                    )
                if cell["burn"] >= _BURN_SPIKE:
                    self.recorder.record(
                        "slo.burn_spike",
                        t=t_end,
                        tenant=tenant,
                        window=i,
                        burn=cell["burn"],
                    )
                if cell["budget"] <= 0.0 and tenant not in exhausted:
                    exhausted.add(tenant)
                    self.recorder.record(
                        "slo.budget_exhausted",
                        t=t_end,
                        tenant=tenant,
                        window=i,
                        bad=cell["bad"],
                    )

    # ------------------------------------------------------------------
    # journal and resume
    # ------------------------------------------------------------------
    def _journal_sink(self, ev: Dict) -> None:
        """Tee a flight-recorder event into the write-ahead journal.

        ``chunk.issue`` is per-turn progress telemetry, not a
        control-plane state transition: replay regenerates it
        deterministically and any divergence it could reveal is caught
        at the next journalled transition's byte-compare.  Filtering it
        keeps the journal compact — its volume stays proportional to
        requests, not chunks.  ``telemetry.window`` is filtered for the
        same reason (volume proportional to windows).  The ``slo.*``
        events are journalled — they regenerate deterministically on
        resume and the byte-compare vouches for the SLO state.
        """
        if ev.get("kind") not in ("chunk.issue", "telemetry.window"):
            self._journal.append(ev)
    def _header_record(self) -> Dict:
        """Journal record 0: environment + config fingerprint.

        A resumed run regenerates it and the byte-compare rejects a
        journal taken under different devices, budgets, payload mode,
        or policy knobs.  ``journal_path`` and ``crash_after_events``
        are excluded — they are where/how the journal is kept, not what
        the run computes — as is ``telemetry_path`` (where the frame
        stream lands, not what it contains).
        """
        from dataclasses import fields as _fields

        skip = {"journal_path", "crash_after_events", "telemetry_path"}
        conf: Dict[str, object] = {}
        for f in _fields(self.config):
            if f.name in skip:
                continue
            v = getattr(self.config, f.name)
            if not isinstance(v, (bool, int, float, str, type(None))):
                v = repr(v)
            conf[f.name] = v
        return {
            "kind": "journal.header",
            "format": JOURNAL_FORMAT,
            "devices": [p.name for p in self.pool.profiles],
            "budgets": [int(b) for b in self.pool.budgets],
            "virtual": all(rt.virtual for rt in self.pool.runtimes),
            "config": conf,
        }

    def _journal_done(self, result: RequestResult) -> None:
        """Journal a request's terminal outcome, full fidelity.

        This is the exactly-once commit point: a resume treats every
        ``request.done`` record as settled and never re-executes the
        request (completed-``ok`` outputs come back from the sidecar
        store instead).
        """
        if self._journal is None:
            return
        self._journal.append({
            "kind": "request.done",
            "request": result.request_id,
            "status": result.status,
            "result": result.to_state(),
        })

    def _save_outputs(self, seq: int, req) -> None:
        """Persist a completed request's written arrays to the store.

        Only arrays a ``from``/``tofrom`` clause writes back are saved —
        input-only arrays are never mutated by the run, so on resume the
        caller's own copies are already exact.
        """
        import numpy as np

        region = req.region
        written = {c.var for c in region.pipeline_maps if c.is_output}
        written |= {
            c.var for c in region.maps if c.direction in ("from", "tofrom")
        }
        payload = {
            k: v for k, v in req.arrays.items()
            if k in written and isinstance(v, np.ndarray)
        }
        if not payload:
            return  # virtual payloads: nothing to persist, nothing lost
        # one raw .npy per array: ~4x cheaper than a .npz bundle (no
        # zip framing/CRC), and the journal record that marks the
        # request done is only appended after every save returned
        rdir = os.path.join(output_store_path(self._journal.path), f"r{seq}")
        os.makedirs(rdir, exist_ok=True)
        for k, v in payload.items():
            np.save(os.path.join(rdir, f"{k}.npy"), v)

    def _restore_outputs(self, w: _Waiting) -> None:
        """Copy journalled outputs back into the request's real arrays."""
        import numpy as np

        rdir = os.path.join(
            output_store_path(self._journal.path), f"r{w.seq}"
        )
        for k, arr in w.restore.items():
            path = os.path.join(rdir, f"{k}.npy")
            if isinstance(arr, np.ndarray) and os.path.exists(path):
                np.copyto(arr, np.load(path))

    @classmethod
    def resume(
        cls,
        path: str,
        pool: DevicePool,
        requests,
        *,
        config: Optional[ServeConfig] = None,
        cache: Optional[PlanCache] = None,
    ) -> "RegionScheduler":
        """Rebuild a scheduler from journal ``path`` ready to re-run.

        The caller supplies the same workload and an equivalent pool;
        the journal is replayed by *verified re-simulation*: the run
        restarts from virtual t=0, every regenerated record is
        byte-compared against the stored prefix (any divergence raises
        :class:`~repro.serve.JournalError`), requests the journal marks
        complete are replayed with metadata-only stand-in arrays and
        their outputs restored from the sidecar store (exactly-once),
        and in-flight regions restart and re-run their pipelines —
        chunk replay going through the issuers'
        :meth:`~repro.core.executor.PipelineIssuer.recover` machinery
        exactly as in the original run.  Call :meth:`run` on the
        result; its report is byte-identical to the uninterrupted run's.
        """
        import numpy as np

        from repro.sim.varray import VirtualArray

        reader = JournalReader(path)
        cfg = dc_replace(config or ServeConfig(), journal_path=path)
        sched = cls(pool, cfg, cache, _resume=reader)
        requests = list(requests)
        for seq, rec in sorted(reader.submits.items()):
            if seq >= len(requests):
                raise JournalError(
                    f"journal knows request {seq} but only "
                    f"{len(requests)} request(s) were supplied"
                )
            req = requests[seq]
            got = (req.tenant, req.label, req.priority)
            want = (rec["tenant"], rec.get("label", ""), rec["priority"])
            if got != want:
                raise JournalError(
                    f"workload mismatch at request {seq}: journal holds "
                    f"{want!r}, caller supplied {got!r}"
                )
        completed = reader.completed
        store = output_store_path(path)
        sched.submit_all(requests)
        for w in sched._waiting:
            state = completed.get(w.seq)
            if state is None:
                continue
            if state["status"] != "ok":
                # failed/cancelled/shed: not settled work — re-run with
                # real payloads so partial effects are reproduced
                continue
            arrays = w.req.arrays
            if not any(isinstance(a, np.ndarray) for a in arrays.values()):
                w.replay = state  # already virtual: trivially deduped
                continue
            rdir = os.path.join(store, f"r{w.seq}")
            if int(state.get("corruptions", 0)) == 0 and os.path.isdir(rdir):
                # exactly-once: replay with stand-in arrays, restore the
                # journalled outputs at retirement
                w.restore = arrays
                shadow = {
                    k: VirtualArray(a.shape, a.dtype)
                    if isinstance(a, np.ndarray) else a
                    for k, a in arrays.items()
                }
                w.req = dc_replace(w.req, arrays=shadow)
                w.replay = state
            else:
                # detected-corruption recomputation altered the timeline
                # through real data, or the outputs were never persisted:
                # honest re-execution, counted in ``reexecuted``
                w.reexecute = True
        return sched

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def submit(self, request: RegionRequest) -> int:
        """Queue a request; returns its request id (submission order).

        With ``max_waiting`` set, submitting to a full queue sheds the
        lowest-effective-priority request (the incoming one included;
        ties shed the youngest) — deterministic load shedding.
        """
        seq = self._seq
        self._seq += 1
        w = _Waiting(seq=seq, req=request)
        self.recorder.record(
            "request.submit",
            request=seq,
            tenant=request.tenant,
            label=request.label,
            priority=request.priority,
        )
        if self._sampler is not None:
            t = self._clock()
            self._sampler.inc("serve.submitted", t)
            self._sampler.slo.submit(request.tenant, t)
        self._forget_candidates()
        self._track_deadline(w)
        limit = self.config.max_waiting
        if limit is not None and len(self._waiting) >= limit:
            victim = min(
                self._waiting + [w],
                key=lambda x: (self._effective_priority(x), -x.seq),
            )
            if victim is not w:
                self._waiting.remove(victim)
                self._waiting.append(w)
            self._settle(
                victim, "shed", f"admission queue full (max_waiting={limit})"
            )
        else:
            self._waiting.append(w)
        return seq

    def submit_all(self, requests) -> List[int]:
        """Queue many requests in order; returns their ids."""
        return [self.submit(r) for r in requests]

    # ------------------------------------------------------------------
    # planning
    # ------------------------------------------------------------------
    def _limit_for(self, req: RegionRequest, device: int) -> int:
        """Memory limit for planning: explicit clause, else the budget."""
        if req.region.mem_limit is not None:
            return min(req.region.mem_limit.limit_bytes, self.pool.budgets[device])
        return self.pool.budgets[device]

    def _plan(self, w: _Waiting, device: int) -> Tuple[RegionPlan, int]:
        """Tuned plan for ``w`` on ``device`` and its device bytes
        (both computed once, then cached per device).

        Cache misses run the autotune search and record its dry-run
        count; the virtual planning charge is applied at admission.
        """
        cached = w.planned.get(device)
        if cached is not None:
            return cached
        req = w.req
        rt = self.pool.runtimes[device]
        limit = self._limit_for(req, device)
        bound = req.region.bind(req.arrays)
        key = PlanCache.key_for(bound, req.kernel, rt.profile.name, limit)
        params = self.cache.get(key)
        if params is not None:
            plan = tune_plan(bound.with_params(*params), limit)
            if not w.ever_planned:
                w.cache_hit = True
        else:
            if not w.ever_planned:
                w.cache_hit = False
            if self.config.autotune:
                report = autotune(
                    req.region, rt, req.arrays, req.kernel,
                    max_streams=_MAX_STREAMS,
                )
                w.dry_runs += report.dry_runs
                self.dry_runs += report.dry_runs
                plan = tune_plan(
                    bound.with_params(
                        report.best.chunk_size, report.best.num_streams
                    ),
                    limit,
                )
            else:
                plan = tune_plan(bound, limit)
            self.cache.put(key, plan.chunk_size, plan.num_streams)
        w.ever_planned = True
        cached = w.planned[device] = (plan, plan.device_bytes())
        return cached

    # ------------------------------------------------------------------
    # device health: loss, quarantine, fault routing
    # ------------------------------------------------------------------
    def _in_service(self, device: int) -> bool:
        """Whether placement may use ``device`` right now.

        Lost devices never return; a quarantined device is probed back
        into service once its own clock passes the quarantine expiry.
        """
        if self.pool.is_lost(device):
            return False
        until = self._quarantined_until[device]
        if until is not None:
            if self.pool.runtimes[device].elapsed >= until:
                # cooldown over: probe the device back into service
                self._quarantined_until[device] = None
                self._fault_times[device] = []
                self._forget_candidates()
                self.recorder.record(
                    "breaker.close",
                    t=self.pool.runtimes[device].elapsed,
                    device=device,
                )
                if self.obs.metrics.enabled:
                    self.obs.metrics.counter("serve.breaker.closes").inc()
            else:
                return False
        return True

    def _record_device_fault(
        self, device: int, t: float, *, cause: str = "fault"
    ) -> None:
        """Feed one fault into the device's circuit-breaker window.

        ``cause`` is ``"fault"`` for hard faults (the historical path)
        or ``"corruption"`` for detected silent corruptions; both
        count toward the same breaker threshold, so a device with an
        elevated SDC rate is quarantined like a hard-faulting one.
        Corruption-driven trips record a ``"quarantine"`` event
        (the corruptions themselves are already in the ring).
        """
        cfg = self.config
        times = self._fault_times[device]
        times.append(t)
        if cause == "fault":
            self.recorder.record("device.fault", t=t, device=device)
        cutoff = t - cfg.breaker_window
        while times and times[0] < cutoff:
            times.pop(0)
        if (
            len(times) >= cfg.breaker_threshold
            and self._quarantined_until[device] is None
        ):
            rt = self.pool.runtimes[device]
            self._quarantined_until[device] = rt.elapsed + cfg.breaker_cooldown
            self._breaker_trips[device] += 1
            times.clear()
            self.recorder.record(
                "quarantine" if cause == "corruption" else "breaker.trip",
                t=rt.elapsed,
                device=device,
                until=self._quarantined_until[device],
            )
            if self.obs.metrics.enabled:
                self.obs.metrics.counter("serve.breaker.trips").inc()
            if self.obs.tracer.enabled:
                self.obs.tracer.instant(
                    f"breaker:dev{device}", "serve",
                    device=device, until=self._quarantined_until[device],
                )

    def _claim_for(
        self, issuer: Union[PipelineIssuer, ShardedIssuer], device: int
    ) -> List:
        """Fault router: claim ``issuer``'s faults off its runtime.

        ``Runtime.pop_faults`` hands over *every* unclaimed fault on
        the device — including other tenants'.  This router pops them
        once, feeds real faults to the circuit breaker, parks faults
        owned by other issuers in their actives' backlogs, and returns
        the asking issuer's own faults plus anything previously parked
        for it.  Orphans (commands no live issuer owns) go to the asker,
        which claims-and-ignores them exactly as ``recover`` always did.
        """
        rec = next((a for a in self._active if a.issuer is issuer), None)
        out: List = []
        if rec is not None and rec.backlog:
            out.extend(rec.backlog)
            rec.backlog = []
        for cmd in self.pool.runtimes[device].pop_faults():
            err = getattr(cmd, "error", None)
            if err is not None and err.kind != KIND_DEVICE_LOST:
                self._record_device_fault(device, cmd.finish_time)
            owner = None
            for a in self._active:
                if device in a.members and cmd in a.issuer.meta:
                    owner = a
                    break
            if owner is not None and owner is not rec:
                owner.backlog.append(cmd)
            else:
                out.append(cmd)
        return out

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------
    def _integrity_for(self, req: RegionRequest) -> str:
        """Effective integrity mode: the request's override, else the
        pool-wide ``ServeConfig.integrity`` default."""
        return (
            req.integrity if req.integrity is not None
            else self.config.integrity
        )

    def _effective_priority(self, w: _Waiting) -> int:
        return min(
            w.req.priority + w.passed_over // self.config.aging_every,
            self.config.max_priority,
        )

    def _device_order(self) -> Tuple[List[int], Dict[int, int]]:
        """In-service devices, most headroom first (ties to the lowest
        index), and each one's headroom.  Probing the devices can end a
        quarantine, which invalidates the placement candidates."""
        room = {
            i: self.pool.headroom(i)
            for i in range(len(self.pool)) if self._in_service(i)
        }
        return sorted(room, key=lambda i: (-room[i], i)), room

    def _place(self, w: _Waiting, order: List[int], room: Dict[int, int]):
        """(w, plan, nbytes, members) if ``w`` fits now, else None;
        ``members`` are the serving devices, primary first."""
        if w.req.shards > 1:
            placed = self._placement_sharded(w, order, room)
            if placed is not None:
                return placed
        # plan against the in-service device with the most headroom
        # first; fall back to any device whose headroom fits the plan
        for di in order:
            plan, nbytes = self._plan(w, di)
            if nbytes <= room[di]:
                return (w, plan, nbytes, [di])
        return None

    def _placement_sharded(
        self, w: _Waiting, order: List[int], room: Dict[int, int]
    ):
        """Member list for a ``shards > 1`` request.

        Picks up to ``shards`` in-service devices (most headroom first)
        whose unreserved budgets each fit the plan's full footprint, and
        caps the member count at the loop trip (each shard needs at
        least one iteration).  Fewer members than requested degrade
        gracefully; fewer than two fall back to ordinary single-device
        placement (returns ``None``).
        """
        if not order:
            return None
        plan, nbytes = self._plan(w, order[0])
        trip = plan.loop.stop - plan.loop.start
        members = [di for di in order if nbytes <= room[di]]
        members = members[: max(1, min(w.req.shards, trip))]
        if len(members) < 2:
            return None
        return (w, plan, nbytes, members)

    def _admit(self) -> bool:
        """Admit fitting requests by effective priority; True if any."""
        cfg = self.config
        admitted_any = False
        while self._waiting:
            if cfg.max_active is not None and len(self._active) >= cfg.max_active:
                break
            placed = self._next_placement()
            if placed is None:
                break
            if self._open(*placed):
                admitted_any = True
        return admitted_any

    def _next_placement(self):
        """Placement of the fitting request with the highest effective
        priority (ties to submission order), or None.

        Between the events that call :meth:`_forget_candidates` (a
        submit, a release, a device lost, a quarantine expiring)
        headroom only shrinks, and every waiter that did not
        fit at the last full scan is planned on every in-service device:
        it still does not fit, and re-planning it would change nothing.
        So only that scan's fitting waiters, the candidates, are
        re-checked.  Each admission passes over every other candidate;
        that aging is applied when a candidate leaves the set.
        """
        if len(self._waiting) == len(self._deferred):
            return None
        # probing quarantined devices first, as each scan always did
        order, room = self._device_order()
        if self._cands is not None and len(self.pool) == 1:
            # one device: a re-check is a size compare against its
            # (shrinking) headroom, so the largest candidates drop first
            limit = room[0] if order else -1
            sizes = self._sizes
            while sizes and -sizes[0][0] > limit:
                w = self._cands.get(heapq.heappop(sizes)[1])
                if w is not None:
                    self._drop_candidate(w)
        elif self._cands is not None:
            # several devices: a re-check may plan a candidate on a device
            # it was not planned on yet (plan cache and dry-run effects),
            # so each one is re-checked, in submission order
            for w in list(self._cands.values()):
                try:
                    if self._place(w, order, room) is None:
                        self._drop_candidate(w)
                except (MemLimitError, DirectiveError) as exc:
                    self._settle(w, "failed", exc)
        if self._cands is None:
            self._scan_all(order, room)
        w = self._best_candidate()
        if w is None:
            return None
        self._drop_candidate(w)
        insort(self._picks, w.seq)
        return self._place(w, order, room)

    def _scan_all(self, order: List[int], room: Dict[int, int]) -> None:
        """Place every waiting request; the fitting ones become the
        candidates, bucketed by how their effective priority ages."""
        cands: Dict[int, _Waiting] = {}
        for w in list(self._waiting):
            if w.oom_deferred:
                continue
            try:
                if self._place(w, order, room) is not None:
                    cands[w.seq] = w
            except (MemLimitError, DirectiveError) as exc:
                self._settle(w, "failed", exc)
        self._cands, self._picks = cands, []
        # k admissions later a candidate's effective priority is
        # min(base + (r + k) // aging_every, max_priority): the same for
        # every member of a bucket, whose heap yields the oldest first
        aging, cap = self.config.aging_every, self.config.max_priority
        self._buckets = {}
        for seq, w in cands.items():
            base = min(w.req.priority + w.passed_over // aging, cap)
            key = (w.passed_over % aging, base)
            self._buckets.setdefault(key, []).append(seq)  # sorted: a heap
        if len(self.pool) == 1:
            self._sizes = [(-w.planned[0][1], seq) for seq, w in cands.items()]
            heapq.heapify(self._sizes)

    def _best_candidate(self) -> Optional[_Waiting]:
        """The candidate with the highest effective priority, oldest
        first among equals (:meth:`_effective_priority`, bucketed)."""
        cfg, k = self.config, len(self._picks)
        best = None
        for key, seqs in list(self._buckets.items()):
            while seqs and seqs[0] not in self._cands:
                heapq.heappop(seqs)
            if not seqs:
                del self._buckets[key]
                continue
            r, base = key
            rank = (min(base + (r + k) // cfg.aging_every, cfg.max_priority), -seqs[0])
            if best is None or rank > best[0]:
                best = (rank, key)
        if best is None:
            return None
        return self._cands[heapq.heappop(self._buckets[best[1]])]

    def _drop_candidate(self, w: _Waiting) -> None:
        """Remove ``w`` from the candidates, applying its aging: every
        admission since the scan passed it over, and overtook it when
        the admitted request was younger."""
        del self._cands[w.seq]
        passes = len(self._picks)
        w.passed_over += passes
        w.overtaken += passes - bisect_right(self._picks, w.seq)

    def _forget_candidates(self) -> None:
        """Apply pending aging; the next admission rescans every waiter."""
        if self._cands is not None:
            for w in list(self._cands.values()):
                self._drop_candidate(w)
            self._cands = None

    def _open(
        self, w: _Waiting, plan: RegionPlan, nbytes: int, members: List[int]
    ) -> bool:
        """Reserve on every member, charge planning, and open one issuer.

        The member count picks the issuer: a plain pipeline on one
        device, or the loop split over several by probed throughput on
        a shared virtual clock (halo exchange and shared-PCIe
        contention modelled).  Device loss is *not* self-healed inside
        the issuer — it escalates to pool-level failover so the whole
        request re-queues onto healthy devices.
        """
        req = w.req
        runtimes = [self.pool.runtimes[di] for di in members]
        policy = self._policy if self._fault_mode else None
        integrity = self._integrity_for(req)
        try:
            if len(members) == 1:
                issuer = PipelineIssuer(
                    runtimes[0], plan, req.arrays, req.kernel,
                    stream_prefix=f"t{w.seq}.pipe", region_span=False,
                    policy=policy, recorder=self.recorder,
                    integrity=integrity,
                )
            else:
                issuer = ShardedIssuer(
                    runtimes, plan, req.arrays, req.kernel,
                    stream_prefix=f"t{w.seq}.shard", policy=policy,
                    recorder=self.recorder, self_heal=False, measure=False,
                    integrity=integrity,
                    watchdog=self.config.straggler_watchdog,
                )
        except Exception as exc:
            self._settle(w, "failed", exc)
            return False
        if policy is not None:
            issuer.claim_faults = lambda i=issuer, ds=tuple(members): [
                cmd for d in ds for cmd in self._claim_for(i, d)
            ]
        for k, di in enumerate(members):
            try:
                self.pool.reserve(di, nbytes)
            except Exception:
                for dj in members[:k]:
                    self.pool.release(dj, nbytes)
                raise
        admit_t = runtimes[0].elapsed
        if w.dry_runs:
            charge = w.dry_runs * _PLAN_CHARGE
            runtimes[0].host_now += charge
            self.plan_seconds += charge
            w.dry_runs = 0  # charge once
        try:
            issuer.open()
        except HostCrashError:
            raise  # the injected host crash must not become a request failure
        except Exception as exc:
            issuer.abort()
            for di in members:
                self.pool.release(di, nbytes)
            if isinstance(exc, DeviceLostError):
                # a member died while staging: fail over, not fail
                w.faults_seen += issuer.faults_n
                w.retries_used += issuer.retries_n
                w.migrated = True
                for di in self._lost_members(members):
                    self._device_lost(di)
                return False
            if isinstance(exc, OutOfDeviceMemory):
                # budget fits but the allocator is fragmented: retire
                # something first, then retry this request
                for di in members:
                    w.planned.pop(di, None)
                if self._active:
                    w.oom_deferred = True
                    self._deferred.append(w)
                    return False
                exc = MemLimitError(nbytes, self.pool.budgets[members[0]])
            self._settle(w, "failed", exc)
            return False
        self._waiting.remove(w)
        sharded = (
            {"devices": list(members), "shards": len(members)}
            if len(members) > 1 else {}
        )
        self.recorder.record(
            "request.admit",
            t=admit_t,
            request=w.seq,
            tenant=req.tenant,
            device=members[0],
            **sharded,
            chunk_size=plan.chunk_size,
            num_streams=plan.num_streams,
            migrated=True if w.migrated else None,
        )
        if sharded and self.obs.metrics.enabled:
            self.obs.metrics.counter("serve.sharded").inc()
        a = _Active(
            admit_seq=self._admit_seq,
            waiting=w,
            issuer=issuer,
            members=members,
            plan=plan,
            reserved=nbytes,
            admit_t=admit_t,
        )
        self._admit_seq += 1
        self._active.append(a)
        if req.deadline is not None:
            self._timed.append(a)
        if issuer.remaining:
            heapq.heappush(self._issue_heap, self._issue_entry(a))
        return True

    # ------------------------------------------------------------------
    # completion
    # ------------------------------------------------------------------
    def _issue_entry(self, a: _Active) -> Tuple[float, int, _Active]:
        """Weighted-fair issue key: fewest chunks issued per priority
        step first, ties to admission order."""
        return (a.issuer.issued / (1 + a.waiting.req.priority), a.admit_seq, a)

    def _rebuild_issue_heap(self) -> None:
        self._issue_heap = [
            self._issue_entry(a) for a in self._active if a.issuer.remaining
        ]
        heapq.heapify(self._issue_heap)

    def _remove_active(self, a: _Active) -> None:
        """Take ``a`` (its reservations already released) out of service.
        The freed memory can make any waiter fit: rescan them all."""
        self._active.remove(a)
        if a.waiting.req.deadline is not None:
            self._timed.remove(a)
        self._forget_candidates()

    def _retry_deferred(self) -> None:
        """Memory was released: OOM-deferred requests may fit now."""
        for w in self._deferred:
            w.oom_deferred = False
        self._deferred.clear()

    def _lost_members(self, members: List[int]) -> List[int]:
        """Which of ``members`` actually died (primary if undetectable)."""
        dead = [d for d in members if self.pool.runtimes[d].device.lost]
        return dead or [members[0]]

    def _elapsed_of(self, a: _Active) -> float:
        """Finish clock for ``a``: the latest member device's elapsed."""
        return max(self.pool.runtimes[di].elapsed for di in a.members)

    def _clock(self) -> float:
        """Least-advanced healthy device clock (decision time for
        queue-side outcomes, which belong to no single device)."""
        alive = self.pool.alive()
        if not alive:
            return self.pool.elapsed
        return min(self.pool.runtimes[i].elapsed for i in alive)

    def _settle(
        self, w: _Waiting, status: str, error: Union[str, BaseException]
    ) -> None:
        """End a request that was never admitted: ``"failed"`` (planning
        or staging failed) or ``"shed"`` (overload, hopeless deadline)."""
        if w in self._waiting:
            self._waiting.remove(w)
        if w.oom_deferred:
            self._deferred.remove(w)
        if self._cands is not None and w.seq in self._cands:
            self._drop_candidate(w)
        req = w.req
        finished = self._clock()
        result = RequestResult(
            request_id=w.seq,
            tenant=req.tenant,
            label=req.label,
            status=status,
            priority=req.priority,
            finished=finished,
            queue_wait=max(0.0, finished - req.arrival),
            overtaken=w.overtaken,
            deadline=req.deadline,
            deadline_met=False if req.deadline is not None else None,
            error=_describe(error),
            migrated=w.migrated,
            faults=w.faults_seen,
            retries=w.retries_used,
        )
        kind, key = _TERMINAL[status][:2]
        self.recorder.record(
            kind, t=finished, request=w.seq, tenant=req.tenant,
            **{key: result.error},
        )
        self._results.append(result)
        self._observe(result)
        self._journal_done(result)

    def _active_result(
        self, a: _Active, status: str, finish_t: float, error: str = ""
    ) -> RequestResult:
        """The outcome of an admitted request.  A region cut short
        counts the chunks it issued and cannot have met its deadline."""
        w, req, issuer = a.waiting, a.waiting.req, a.issuer
        ok = status == "ok"
        busy: Dict[str, float] = {}
        if ok:
            busy = {"h2d": 0.0, "d2h": 0.0, "kernel": 0.0}
            for cmd in issuer.commands:
                if cmd.kind in busy:
                    busy[cmd.kind] += cmd.duration
        return RequestResult(
            request_id=w.seq,
            tenant=req.tenant,
            label=req.label,
            status=status,
            priority=req.priority,
            device=a.members[0],
            admitted=a.admit_t,
            finished=finish_t,
            queue_wait=max(0.0, a.admit_t - req.arrival),
            service=finish_t - a.admit_t,
            cache_hit=w.cache_hit,
            chunk_size=a.plan.chunk_size,
            num_streams=issuer.streams_n,
            nchunks=len(issuer.chunks) if ok else issuer.issued,
            device_bytes=a.reserved,
            overtaken=w.overtaken,
            busy=busy,
            commands=len(issuer.commands),
            deadline=req.deadline,
            deadline_met=(ok and finish_t <= req.deadline)
            if req.deadline is not None else None,
            error=error,
            migrated=w.migrated,
            faults=w.faults_seen + issuer.faults_n,
            retries=w.retries_used + issuer.retries_n,
            verified=issuer.verified_n,
            corruptions=issuer.corruptions_n,
            resplits=issuer.resplits,
            shards=len(a.members),
            devices=tuple(a.members) if len(a.members) > 1 else (),
        )

    def _end_active(
        self, a: _Active, status: str, error: Union[str, BaseException]
    ) -> None:
        """Cut an in-flight region short: ``"cancelled"`` at the chunk
        boundary (deadline unreachable) or ``"failed"`` (retry budget
        or policy exhausted)."""
        a.issuer.abort()
        for di in a.members:
            self.pool.release(di, a.reserved)
        self._remove_active(a)
        self._retry_deferred()
        self._rebuild_issue_heap()
        self._harvest_telemetry(a)
        finish_t = self._elapsed_of(a)
        result = self._active_result(a, status, finish_t, _describe(error))
        kind, key, dump, dump_key = _TERMINAL[status]
        w, device = a.waiting, a.members[0]
        self.recorder.record(
            kind, t=finish_t, request=w.seq, tenant=w.req.tenant,
            device=device, **{key: result.error},
        )
        self.recorder.dump(
            dump, request=w.seq, tenant=w.req.tenant, device=device,
            **{dump_key: result.error},
        )
        self._results.append(result)
        self._observe(result)
        self._journal_done(result)

    def _device_lost(self, device: int) -> None:
        """Pool-level failover: quarantine the device, re-queue its work.

        Every in-flight region on the device is aborted (its ring
        slots died with the device), its reservation released, and its
        request re-queued to restart from chunk 0 on a healthy device.
        Restarting is exact: resident arrays only copy back at
        finalize (which never ran) and pipelined outputs are pure
        functions of unmodified inputs.
        """
        if self.pool.is_lost(device):
            return
        self.pool.mark_lost(device)
        self.recorder.record(
            "device.lost",
            t=self.pool.runtimes[device].elapsed,
            device=device,
            error="DeviceLostError",
        )
        self._quarantined_until[device] = None
        if self.obs.metrics.enabled:
            self.obs.metrics.counter("serve.device_lost").inc()
        if self.obs.tracer.enabled:
            self.obs.tracer.instant(
                f"device-lost:dev{device}", "serve", device=device,
            )
        victims = [a for a in self._active if device in a.members]
        for a in victims:
            a.issuer.abort()
            for di in a.members:
                self.pool.release(di, a.reserved)
            self._remove_active(a)
            w = a.waiting
            w.faults_seen += a.issuer.faults_n
            w.retries_used += a.issuer.retries_n
            w.migrated = True
            self._waiting.append(w)
            self._track_deadline(w)
            self.recorder.record(
                "request.requeue",
                request=w.seq,
                tenant=w.req.tenant,
                device=device,
                migrated=True,
            )
            if self.obs.metrics.enabled:
                self.obs.metrics.counter("serve.failover").inc()
        # plans for the dead device are useless now
        for w in self._waiting:
            w.planned.pop(device, None)
        self._waiting.sort(key=lambda w: w.seq)
        self._forget_candidates()
        self._rebuild_issue_heap()
        self.recorder.dump("device-lost", device=device, victims=len(victims))
        if not self.pool.alive():
            for w in list(self._waiting):
                self._settle(w, "failed", DeviceLostError(
                    f"device {device} lost and no healthy devices remain"
                ))

    def _check_lost_devices(self) -> None:
        """Catch devices the injector killed outside a handled call."""
        for di, rt in enumerate(self.pool.runtimes):
            if rt.device.lost and not self.pool.is_lost(di):
                self._device_lost(di)

    def _retire(self, a: _Active) -> None:
        """Drain, recover, finalize, account, and release one region."""
        try:
            a.issuer.drain()
            if a.issuer._corruptions or (
                self._fault_mode and any(
                    self.pool.injectors[di] is not None for di in a.members
                )
            ):
                budget = None
                if self.config.max_request_retries is not None:
                    budget = max(
                        0,
                        self.config.max_request_retries
                        - a.waiting.retries_used - a.issuer.retries_n,
                    )
                a.issuer.recover(budget=budget)
            a.issuer.account_stalls()
            a.issuer.finalize()
        except DeviceLostError:
            for di in self._lost_members(a.members):
                self._device_lost(di)
            return
        except (RegionFailure, TransferError, KernelFaultError) as exc:
            # policy/retry budget exhausted, or a blocking resident copy
            # exhausted its per-copy retries
            self._end_active(a, "failed", exc)
            return
        if len(a.members) == 1:
            # single-device service: detected corruptions count toward
            # the serving device's circuit breaker (sharded corruption
            # entries carry no member attribution; the watchdog and
            # seam verification cover member health there)
            for entry in a.issuer.corruption_log:
                self._record_device_fault(
                    a.members[0], entry[5], cause="corruption"
                )
        finish_t = self._elapsed_of(a)
        self._harvest_telemetry(a)
        for di in a.members:
            self.pool.release(di, a.reserved)
        w, req = a.waiting, a.waiting.req
        result = self._active_result(a, "ok", finish_t)
        self.recorder.record(
            "request.retire",
            t=finish_t,
            request=w.seq,
            tenant=req.tenant,
            device=a.members[0],
            migrated=True if w.migrated else None,
            faults=result.faults or None,
            retries=result.retries or None,
        )
        self._results.append(result)
        # a retiring region is fully issued, so it is not in the issue heap
        self._remove_active(a)
        self._retry_deferred()
        self._observe(result)
        if w.replay is not None:
            # resume dedup: the journal had this request settled — the
            # pipeline replayed with stand-in arrays; hand the
            # journalled outputs back to the caller's real arrays
            self._deduped += 1
            if w.restore is not None:
                self._restore_outputs(w)
        else:
            if w.reexecute:
                self._reexecuted += 1
            if self._journal is not None:
                self._save_outputs(w.seq, req)
        self._journal_done(result)

    def _observe(self, r: RequestResult) -> None:
        tracer, metrics = self.obs.tracer, self.obs.metrics
        if tracer.enabled:
            if r.device >= 0:
                # the request was admitted: a real span on its device
                tracer.emit(
                    f"request:{r.request_id}:{r.tenant}",
                    category="serve",
                    track=f"serve:dev{r.device}",
                    start=r.admitted,
                    end=r.finished,
                    tenant=r.tenant,
                    label=r.label,
                    priority=r.priority,
                    cache_hit=r.cache_hit,
                    nchunks=r.nchunks,
                    status=r.status,
                )
            else:
                # never admitted (failed planning / shed while waiting)
                tracer.instant(
                    f"request:{r.request_id}:{r.tenant}",
                    "serve",
                    tenant=r.tenant,
                    label=r.label,
                    priority=r.priority,
                    status=r.status,
                    error=r.error,
                )
        if metrics.enabled:
            metrics.counter("serve.requests").inc()
            metrics.counter(f"serve.requests.{r.status}").inc()
            metrics.counter(f"serve.tenant.{r.tenant}.{r.status}").inc()
            if r.status == "ok":
                metrics.counter(
                    "serve.cache.hits" if r.cache_hit else "serve.cache.misses"
                ).inc()
                metrics.histogram("serve.queue_wait.seconds").observe(r.queue_wait)
                metrics.histogram("serve.service.seconds").observe(r.service)
            if r.migrated:
                metrics.counter("serve.migrated").inc()
            if r.deadline is not None and r.deadline_met is not True:
                metrics.counter("serve.deadlines_missed").inc()
                metrics.counter(f"serve.tenant.{r.tenant}.deadlines_missed").inc()
            if r.faults:
                metrics.counter("serve.faults").inc(r.faults)
            if r.retries:
                metrics.counter("serve.retries").inc(r.retries)
        s = self._sampler
        if s is not None:
            s.inc(f"serve.requests.{r.status}", r.finished)
            if r.status == "ok":
                s.observe("serve.latency_s", r.finished, r.latency)
            s.slo.observe(r.tenant, r.finished, ok=r.ok, latency_s=r.latency)

    # ------------------------------------------------------------------
    # deadlines
    # ------------------------------------------------------------------
    def _track_deadline(self, w: _Waiting) -> None:
        if w.req.deadline is not None:
            heapq.heappush(self._deadline_heap, (w.req.deadline, w.seq))

    def _enforce_deadlines(self) -> None:
        """Cancel provably-late in-flight regions; shed hopeless waiters.

        Expired waiters come off the deadline heap and are shed in
        ``_waiting`` (submission) order; only active regions that carry
        a deadline are bounds-checked, in admission order.
        """
        heap = self._deadline_heap
        if not heap and not self._timed:
            return
        now = self._clock()
        expired = set()
        while heap and heap[0][0] < now:
            expired.add(heapq.heappop(heap)[1])
        for seq in sorted(expired):
            i = bisect_left(self._waiting, seq, key=lambda w: w.seq)
            if i == len(self._waiting) or self._waiting[i].seq != seq:
                continue  # admitted or settled since it was queued
            w = self._waiting[i]
            self._settle(
                w,
                "shed",
                f"deadline {w.req.deadline:.6g}s already passed "
                f"at {now:.6g}s",
            )
        for a in list(self._timed):
            deadline = a.waiting.req.deadline
            if not a.issuer.remaining:
                continue
            # elapsed + the remaining chunks' kernel occupancy is a
            # certified lower bound on the finish time
            bound = self._elapsed_of(a) + a.issuer.remaining_kernel_bound(
                a.waiting.req.kernel
            )
            if bound > deadline:
                self._end_active(
                    a,
                    "cancelled",
                    f"deadline {deadline:.6g}s unreachable: "
                    f"lower bound {bound:.6g}s with "
                    f"{a.issuer.remaining} chunk(s) unissued",
                )

    def _advance_past_quarantine(self) -> bool:
        """Idle pool, nothing fits, a device is quarantined: advance its
        clock to the quarantine expiry so it can be probed back.  True
        if a clock moved (the caller should retry admission)."""
        pending = [
            (until, di)
            for di, until in enumerate(self._quarantined_until)
            if until is not None and not self.pool.is_lost(di)
        ]
        if not pending:
            return False
        until, di = min(pending)
        rt = self.pool.runtimes[di]
        if rt.host_now < until:
            rt.host_now = until
            return True
        return False

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def run(self) -> ServeReport:
        """Serve every submitted request to completion.

        Deterministic: the loop alternates deadline enforcement,
        admission, weighted-fair chunk issue, and FIFO retirement until
        the queue drains.  On a fault-free pool the failure-handling
        branches are all inert and the schedule is bit-identical to the
        pre-fault-tolerance scheduler.
        """
        cfg = self.config
        self._fault_mode = self.pool.has_faults
        if self._fault_mode and self._policy is None:
            self._policy = FaultPolicy()
        old_defer: List[bool] = []
        if self._fault_mode:
            # the scheduler owns async fault reporting: sync points
            # stash faults for the per-issuer router instead of raising
            for rt in self.pool.runtimes:
                old_defer.append(rt.defer_faults)
                rt.defer_faults = True
        sampler = self._sampler
        if sampler is not None:
            # the simulators' retirement clock hook closes telemetry
            # windows mid-drain; frames are finalized lazily so they
            # are identical with or without the hook (a simulator that
            # never calls it is covered by the per-turn advances below)
            for rt in self.pool.runtimes:
                rt.device.sim.clock_hook = sampler.advance
        try:
            while self._waiting or self._active:
                if sampler is not None:
                    sampler.advance(self.pool.elapsed)
                if self._fault_mode:
                    self._check_lost_devices()
                if cfg.enforce_deadlines:
                    self._enforce_deadlines()
                admitted = self._admit()
                if self._issue_heap:
                    a = heapq.heappop(self._issue_heap)[2]
                    try:
                        a.issuer.issue_next()
                    except DeviceLostError:
                        for di in self._lost_members(a.members):
                            self._device_lost(di)
                    else:
                        if a.issuer.remaining:
                            heapq.heappush(self._issue_heap, self._issue_entry(a))
                elif self._active:
                    # everything issued: retire in admission order
                    self._retire(self._active[0])
                elif self._waiting and not admitted:
                    if self._advance_past_quarantine():
                        # a quarantined device just became probeable
                        continue
                    # idle pool, nothing fits: the head request is infeasible
                    candidates = [w for w in self._waiting if not w.oom_deferred]
                    if not candidates:
                        candidates = self._waiting
                    w = candidates[0]
                    needed = min(
                        (nbytes for _p, nbytes in w.planned.values()),
                        default=0,
                    )
                    self._settle(
                        w, "failed", MemLimitError(needed, max(self.pool.budgets))
                    )
        finally:
            if self._fault_mode:
                for rt, was in zip(self.pool.runtimes, old_defer):
                    rt.defer_faults = was
            if sampler is not None:
                for rt in self.pool.runtimes:
                    rt.device.sim.clock_hook = None
        self._results.sort(key=lambda r: r.request_id)
        frames: List[Dict] = []
        if sampler is not None:
            frames = sampler.finish(self.pool.elapsed)
            # breach/burn/budget events land before the run-end dump
            # below (and in the journal while its sink is attached)
            self._emit_slo_events(frames)
        if self.recorder.dumps:
            # something failed mid-run: one final dump whose window also
            # covers the recovery tail (e.g. the migrated re-admission
            # after a device loss)
            self.recorder.dump(
                "run-end",
                requests=len(self._results),
                failures=len(self.recorder.dumps),
            )
        health = [
            "quarantined"
            if h == "ok" and self._quarantined_until[i] is not None
            else h
            for i, h in enumerate(self.pool.health)
        ]
        report = ServeReport(
            results=list(self._results),
            makespan=self.pool.elapsed,
            device_elapsed=[rt.elapsed for rt in self.pool.runtimes],
            device_peaks=self.pool.data_peaks(),
            budgets=list(self.pool.budgets),
            cache=self.cache.stats(),
            plan_seconds=self.plan_seconds,
            dry_runs=self.dry_runs,
            device_health=health,
            breaker_trips=list(self._breaker_trips),
            flight_dumps=list(self.recorder.dumps),
        )
        if sampler is not None:
            report.telemetry = frames
            report.telemetry_wall_s = sampler.wall_s
            report.slo = sampler.slo_report()
            if cfg.telemetry_path is not None:
                write_telemetry_jsonl(
                    frames, cfg.telemetry_path, window=sampler.window
                )
                atomic_write_text(
                    cfg.telemetry_path + ".prom", prometheus_text(frames)
                )
        if self._journal is not None:
            self._journal.append({
                "kind": "run.end",
                "requests": len(self._results),
                "makespan": self.pool.elapsed,
            })
            self.recorder.sink = None
            self._journal.close()
            report.journal = {
                "path": self._journal.path,
                "records": self._journal.records,
                "fsyncs": self._journal.fsyncs,
                "resumed": 1 if self._resumed else 0,
                "replayed": self._journal.verified,
                "deduped": self._deduped,
                "reexecuted": self._reexecuted,
                # host wall spent on durability (never in to_dict():
                # it is machine-dependent, the report is deterministic)
                "wall_s": self._journal.wall_s,
            }
            if self.obs.metrics.enabled:
                m = self.obs.metrics
                m.counter("serve.journal.records").inc(self._journal.records)
                m.counter("serve.journal.fsyncs").inc(self._journal.fsyncs)
                if self._resumed:
                    m.counter("serve.journal.resumes").inc()
                    m.counter("serve.journal.replayed").inc(
                        self._journal.verified
                    )
                    m.counter("serve.journal.deduped").inc(self._deduped)
                    m.counter("serve.journal.reexecuted").inc(self._reexecuted)
        return report
