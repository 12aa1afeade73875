"""Continuous telemetry: virtual-time windows, SLOs, and exporters.

Everything else in :mod:`repro.obs` is post-hoc — spans, the analyzer,
the flight recorder all answer *what happened* after a run retires.
This module answers *what is happening*: a :class:`TelemetrySampler`
aggregates counters, gauge samples, histogram observations, and busy
intervals into fixed **virtual-time windows**, producing one JSON-safe
frame per window.  A serve stack threads the sampler through the
scheduler (``ServeConfig(telemetry=...)``) and the simulator's
retirement clock hook, so frames track rolling queue depth, device and
PCIe utilization, and per-tenant SLO compliance on the virtual clock —
the sensor layer a closed-loop autotuner needs.

Determinism rules (the same conventions as the PR-5 analyzer):

* Windows are fixed ``[i*w, (i+1)*w)`` intervals of virtual time; an
  event at time ``t`` lands in window ``int(t / w)``.  Two identical
  runs bucket identically.
* Timestamped channels (counters via :meth:`TelemetrySampler.inc`,
  histogram observations via :meth:`~TelemetrySampler.observe`, busy
  intervals via :meth:`~TelemetrySampler.add_interval`) are
  order-independent: frames are built from ``(t, value)`` pairs at
  :meth:`~TelemetrySampler.finish`, so *when* the host happened to
  call :meth:`~TelemetrySampler.advance` never changes a frame.
* Gauge callables are sampled once per window, at the moment the
  window closes.  The sampler's users only register host/scheduler
  state (queue depth, reservations, breaker state) that is constant
  while the simulator advances, so samples are identical whether a
  window closes from the simulator's retirement hook or from the
  scheduler loop.
* Frames are encoded byte-stably: floats rounded to 12 significant
  digits (``-0.0`` normalised to ``0.0``), keys sorted, compact
  separators — the same contract as analyzer snapshots.

The **SLO engine** (:class:`SLO`, tracked per tenant) follows the SRE
error-budget formulation: a tenant's request is *good* when it
completed ``ok`` within the objective's latency threshold; per-window
**burn rate** is ``(bad/total) / (1 - target)`` (how many times faster
than budgeted the error budget is being spent); the cumulative **error
budget** remaining after window ``i`` is
``1 - cum_bad_i / ((1 - target) * submitted)``, clamped to ``[0, 1]``
— monotone non-increasing across the window sequence, which the
property tests pin down.  A ``target`` of exactly ``1.0`` has no
budget: any bad request exhausts it and burn saturates at
:data:`BURN_SATURATED`.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.obs.io import atomic_write_text, canonical_json, round_floats
from repro.obs.intervals import union_length
from repro.obs.metrics import Histogram

__all__ = [
    "BURN_SATURATED",
    "SLO",
    "SLOTracker",
    "TELEMETRY_SCHEMA",
    "TelemetrySampler",
    "encode_frame",
    "prometheus_text",
    "read_telemetry_jsonl",
    "render_top",
    "telemetry_lines",
    "write_telemetry_jsonl",
]

#: schema tag stamped into the JSONL header line
TELEMETRY_SCHEMA = "repro/telemetry/v1"

#: burn-rate value reported when the objective leaves no error budget
#: (``target == 1.0``) and a bad request arrives anyway; finite so
#: frames stay strict-JSON
BURN_SATURATED = 1e12

#: ASCII sparkline ramp, low to high (10 levels, deterministic)
_RAMP = " .:-=+*#%@"


def encode_frame(frame: Dict) -> str:
    """Canonical one-line frame encoding (rounded, sorted, compact)."""
    return canonical_json(round_floats(frame))


# ----------------------------------------------------------------------
# SLOs
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SLO:
    """One tenant class's service-level objective.

    Attributes
    ----------
    target:
        Availability objective in ``(0, 1]``: the fraction of the
        tenant's requests that must be *good*.  ``0.999`` means an
        error budget of 0.1% of submitted requests.
    latency_s:
        Optional latency threshold in virtual seconds.  When set, a
        request is good only if it completed ``ok`` *and* its
        submit-to-finish latency is within the threshold; without it,
        any ``ok`` completion is good (pure availability).
    """

    target: float = 0.999
    latency_s: Optional[float] = None

    def __post_init__(self) -> None:
        if not isinstance(self.target, (int, float)) or isinstance(
            self.target, bool
        ) or not 0.0 < float(self.target) <= 1.0:
            raise ValueError(
                f"slo target must be in (0, 1], got {self.target!r}"
            )
        if self.latency_s is not None and (
            not isinstance(self.latency_s, (int, float))
            or isinstance(self.latency_s, bool)
            or self.latency_s <= 0
        ):
            raise ValueError(
                f"slo latency_s must be > 0 seconds, got {self.latency_s!r}"
            )

    @classmethod
    def from_dict(cls, spec: Dict) -> "SLO":
        """Build from a workload-JSON ``slo`` object."""
        if not isinstance(spec, dict):
            raise ValueError(f"slo must be an object, got {spec!r}")
        unknown = sorted(set(spec) - {"target", "latency_s"})
        if unknown:
            raise ValueError(
                f"slo: unknown key(s) {', '.join(map(repr, unknown))}; "
                "known keys are latency_s, target"
            )
        return cls(
            target=float(spec.get("target", 0.999)),
            latency_s=spec.get("latency_s"),
        )

    def to_dict(self) -> Dict:
        """JSON-safe form (inverse of :meth:`from_dict`)."""
        d: Dict[str, object] = {"target": self.target}
        if self.latency_s is not None:
            d["latency_s"] = self.latency_s
        return d


class SLOTracker:
    """Rolling per-tenant SLO accounting over the sampler's windows.

    The scheduler feeds it one :meth:`submit` per submitted request and
    one :meth:`observe` per terminal outcome; :meth:`windows` and
    :meth:`report` compute compliance, burn rate, and the monotone
    error budget from those timestamped facts (order-independent, like
    every other telemetry channel).  Tenants without a declared SLO are
    ignored.
    """

    def __init__(self, slos: Dict[str, SLO], window: float) -> None:
        self.slos = dict(slos)
        self.window = window
        #: tenant -> total requests submitted (budget denominator)
        self._submitted: Dict[str, int] = {t: 0 for t in self.slos}
        #: tenant -> window index -> [good, bad]
        self._outcomes: Dict[str, Dict[int, List[int]]] = {
            t: {} for t in self.slos
        }

    def _index(self, t: float) -> int:
        return int(t / self.window)

    def submit(self, tenant: str, t: float) -> None:
        """Count one submitted request for ``tenant`` at time ``t``."""
        if tenant in self.slos:
            self._submitted[tenant] += 1

    def observe(
        self, tenant: str, t: float, *, ok: bool, latency_s: float
    ) -> None:
        """Record one terminal outcome at time ``t``.

        ``ok`` is whether the request completed successfully;
        ``latency_s`` its submit-to-finish virtual latency.  Goodness
        additionally applies the objective's latency threshold.
        """
        slo = self.slos.get(tenant)
        if slo is None:
            return
        good = ok and (slo.latency_s is None or latency_s <= slo.latency_s)
        cell = self._outcomes[tenant].setdefault(self._index(t), [0, 0])
        cell[0 if good else 1] += 1

    @property
    def max_index(self) -> int:
        """Largest window index any outcome landed in (-1 when none)."""
        return max(
            (i for per in self._outcomes.values() for i in per), default=-1
        )

    @staticmethod
    def _burn(bad: int, total: int, target: float) -> float:
        """Window burn rate: observed error rate over budgeted rate."""
        if total == 0 or bad == 0:
            return 0.0
        denom = 1.0 - target
        if denom <= 0.0:
            return BURN_SATURATED
        return (bad / total) / denom

    def windows(self, n: int) -> Dict[str, List[Dict]]:
        """Per-tenant window series covering windows ``0 .. n-1``.

        Each entry carries ``good``/``bad``/``total`` for the window,
        ``compliance`` (``1.0`` on idle windows: no traffic violates
        nothing), ``burn`` (see :meth:`_burn`), and ``budget`` — the
        cumulative error-budget fraction remaining *after* this
        window, computed against the tenant's total submissions, so it
        is monotone non-increasing across the series.
        """
        out: Dict[str, List[Dict]] = {}
        for tenant in sorted(self.slos):
            slo = self.slos[tenant]
            allowed = (1.0 - slo.target) * self._submitted[tenant]
            per = self._outcomes[tenant]
            cum_bad = 0
            series: List[Dict] = []
            for i in range(n):
                good, bad = per.get(i, (0, 0))
                total = good + bad
                cum_bad += bad
                if allowed > 0.0:
                    budget = max(0.0, 1.0 - cum_bad / allowed)
                else:
                    budget = 1.0 if cum_bad == 0 else 0.0
                series.append({
                    "good": good,
                    "bad": bad,
                    "total": total,
                    "compliance": good / total if total else 1.0,
                    "burn": self._burn(bad, total, slo.target),
                    "budget": budget,
                })
            out[tenant] = series
        return out

    def report(self, n: int) -> Dict[str, Dict]:
        """Whole-run digest per tenant (the ``report.slo`` payload)."""
        out: Dict[str, Dict] = {}
        for tenant, series in self.windows(n).items():
            slo = self.slos[tenant]
            good = sum(w["good"] for w in series)
            bad = sum(w["bad"] for w in series)
            total = good + bad
            breaches = sum(
                1 for w in series
                if w["total"] and w["compliance"] < slo.target
            )
            out[tenant] = {
                "target": slo.target,
                **(
                    {"latency_s": slo.latency_s}
                    if slo.latency_s is not None else {}
                ),
                "submitted": self._submitted[tenant],
                "good": good,
                "bad": bad,
                "total": total,
                "compliance": good / total if total else 1.0,
                "budget": series[-1]["budget"] if series else 1.0,
                "max_burn": max((w["burn"] for w in series), default=0.0),
                "breaches": breaches,
            }
        return out


# ----------------------------------------------------------------------
# the sampler
# ----------------------------------------------------------------------
class TelemetrySampler:
    """Windowed time-series aggregation on the virtual clock.

    Parameters
    ----------
    window:
        Window length in virtual seconds (> 0).
    slos:
        Optional per-tenant objectives; enables the :attr:`slo`
        tracker and the per-frame ``slo`` channel.
    on_window:
        Optional ``callable(index, t_end, gauges)`` fired when a
        window closes (the scheduler records a ``telemetry.window``
        flight-recorder event here).  Must be cheap and must not
        advance virtual time.

    The sampler is pure host-side bookkeeping: nothing here ever
    touches the simulator, so enabling telemetry never changes a
    measured result (the timing-neutrality the benchmark gate pins).
    """

    def __init__(
        self,
        window: float,
        *,
        slos: Optional[Dict[str, SLO]] = None,
        on_window: Optional[Callable[[int, float, Dict], None]] = None,
    ) -> None:
        if not window > 0.0:
            raise ValueError(f"telemetry window must be > 0, got {window}")
        self.window = float(window)
        self.on_window = on_window
        self.slo = SLOTracker(slos or {}, self.window)
        self._gauges: List[Tuple[str, Callable[[], float]]] = []
        #: window index -> {gauge name: sampled value}
        self._gauge_samples: Dict[int, Dict[str, float]] = {}
        #: counter name -> window index -> delta
        self._counters: Dict[str, Dict[int, float]] = {}
        #: histogram name -> window index -> observations
        self._hists: Dict[str, Dict[int, List[float]]] = {}
        #: channel -> list of (t0, t1) busy intervals
        self._intervals: Dict[str, List[Tuple[float, float]]] = {}
        #: first window not yet closed
        self._closed = 0
        #: fast-path guard for :meth:`advance` (entering this time
        #: means a window boundary has been crossed)
        self._next_edge = self.window
        self._frames: Optional[List[Dict]] = None
        #: host wall seconds spent in sampler work — window closes
        #: (gauge sampling + ``on_window``), the frame build at
        #: :meth:`finish`, and whatever callers add (the scheduler
        #: accumulates its per-request interval harvest here).  The
        #: :meth:`advance` fast path (one float compare per retired
        #: command) is deliberately untimed: two clock reads would
        #: cost more than the compare they measure.  This is the
        #: numerator of the overhead-bench gate.
        self.wall_s = 0.0

    # -- registration and recording ------------------------------------
    def _index(self, t: float) -> int:
        return int(t / self.window)

    def register_gauge(self, name: str, fn: Callable[[], float]) -> None:
        """Register a gauge source sampled once per window at close.

        Only register host/scheduler state that cannot change while
        the simulator advances (see the module docstring) — that is
        what keeps frames independent of *when* windows close.
        """
        self._gauges.append((name, fn))

    def inc(self, name: str, t: float, n: float = 1) -> None:
        """Add ``n`` to windowed counter ``name`` at time ``t``."""
        per = self._counters.setdefault(name, {})
        i = self._index(t)
        per[i] = per.get(i, 0) + n

    def observe(self, name: str, t: float, v: float) -> None:
        """Record one histogram observation at time ``t``."""
        self._hists.setdefault(name, {}).setdefault(
            self._index(t), []
        ).append(v)

    def add_interval(self, channel: str, t0: float, t1: float) -> None:
        """Record a busy interval on ``channel`` (clipped per window).

        Overlapping intervals on one channel (several tenants sharing
        a DMA engine) are unioned, so a channel's per-window
        utilization never exceeds 1.
        """
        if t1 > t0:
            self._intervals.setdefault(channel, []).append((t0, t1))

    # -- window lifecycle ----------------------------------------------
    @property
    def windows_closed(self) -> int:
        """Windows closed so far by :meth:`advance`/:meth:`finish`."""
        return self._closed

    def advance(self, t: float) -> None:
        """Close every window the clock has moved past (``t`` in it).

        Cheap enough to sit on the simulator's per-retirement clock
        hook: the common case is one float compare.  Calls with an
        older ``t`` (several devices sharing one sampler) are no-ops —
        windows only ever close forward.
        """
        if t < self._next_edge:
            return
        t0 = time.perf_counter()
        idx = self._index(t)
        while self._closed < idx:
            self._close_one()
        self.wall_s += time.perf_counter() - t0

    def _close_one(self) -> None:
        i = self._closed
        sampled = {name: float(fn()) for name, fn in self._gauges}
        if sampled:
            self._gauge_samples[i] = sampled
        self._closed = i + 1
        self._next_edge = (i + 2) * self.window
        if self.on_window is not None:
            self.on_window(i, (i + 1) * self.window, sampled)

    def finish(self, t_end: float) -> List[Dict]:
        """Close out the run at virtual time ``t_end`` and build frames.

        The frame count covers ``[0, t_end]`` plus any window that
        received data (so nothing recorded is ever silently dropped);
        the final window is reported on its full fixed boundary even
        when the run ended inside it.  Idempotent: repeated calls
        return the same frame list.
        """
        if self._frames is not None:
            return self._frames
        t0 = time.perf_counter()
        n = max(
            self._index(t_end) + 1,
            self._closed,
            self.slo.max_index + 1,
            max((i for per in self._counters.values() for i in per),
                default=-1) + 1,
            max((i for per in self._hists.values() for i in per),
                default=-1) + 1,
            max((self._index(iv[1]) for ivs in self._intervals.values()
                 for iv in ivs), default=-1) + 1,
            1,
        )
        while self._closed < n:
            self._close_one()
        self._frames = self._build(n)
        self.wall_s += time.perf_counter() - t0
        return self._frames

    def frames(self) -> List[Dict]:
        """The built frames (:meth:`finish` must have run)."""
        if self._frames is None:
            raise RuntimeError("TelemetrySampler.finish() has not run")
        return self._frames

    # -- frame construction --------------------------------------------
    def _util_per_window(self, n: int) -> Dict[str, List[float]]:
        w = self.window
        out: Dict[str, List[float]] = {}
        for channel in sorted(self._intervals):
            clipped: List[List[Tuple[float, float]]] = [[] for _ in range(n)]
            for a, b in self._intervals[channel]:
                for i in range(self._index(a), min(self._index(b), n - 1) + 1):
                    lo, hi = max(a, i * w), min(b, (i + 1) * w)
                    if hi > lo:
                        clipped[i].append((lo, hi))
            out[channel] = [
                min(1.0, union_length(ivs) / w) for ivs in clipped
            ]
        return out

    def _build(self, n: int) -> List[Dict]:
        util = self._util_per_window(n)
        slo_windows = self.slo.windows(n) if self.slo.slos else {}
        frames: List[Dict] = []
        for i in range(n):
            frame: Dict[str, object] = {
                "window": i,
                "t0_s": i * self.window,
                "t1_s": (i + 1) * self.window,
            }
            counters = {
                name: per[i]
                for name, per in sorted(self._counters.items())
                if i in per
            }
            if counters:
                frame["counters"] = counters
            gauges = self._gauge_samples.get(i)
            if gauges:
                frame["gauges"] = dict(sorted(gauges.items()))
            hists = {}
            for name, per in sorted(self._hists.items()):
                if i in per:
                    h = Histogram(name)
                    for v in per[i]:
                        h.observe(v)
                    hists[name] = h.summary()
            if hists:
                frame["hist"] = hists
            if util:
                frame["util"] = {ch: series[i] for ch, series in util.items()}
            if slo_windows:
                frame["slo"] = {
                    tenant: dict(series[i])
                    for tenant, series in slo_windows.items()
                }
            frames.append(round_floats(frame))
        return frames

    def slo_report(self) -> Dict[str, Dict]:
        """Whole-run per-tenant SLO digest (empty without SLOs)."""
        if not self.slo.slos:
            return {}
        return round_floats(self.slo.report(len(self.frames())))


# ----------------------------------------------------------------------
# exporters
# ----------------------------------------------------------------------
def telemetry_lines(frames: List[Dict], *, window: float) -> List[str]:
    """JSONL stream: one header line plus one canonical line per frame."""
    header = {
        "schema": TELEMETRY_SCHEMA,
        "window_s": window,
        "frames": len(frames),
    }
    return [encode_frame(header)] + [encode_frame(f) for f in frames]


def write_telemetry_jsonl(
    frames: List[Dict], path: str, *, window: float
) -> None:
    """Atomically write the telemetry JSONL stream to ``path``."""
    atomic_write_text(
        path, "\n".join(telemetry_lines(frames, window=window)) + "\n"
    )


def read_telemetry_jsonl(path: str) -> Tuple[Dict, List[Dict]]:
    """Parse a telemetry JSONL file back into ``(header, frames)``."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().split("\n") if ln]
    if not lines:
        raise ValueError(f"telemetry file {path!r} is empty")
    header = json.loads(lines[0])
    if not isinstance(header, dict) or header.get("schema") != TELEMETRY_SCHEMA:
        raise ValueError(
            f"telemetry file {path!r} does not start with a "
            f"{TELEMETRY_SCHEMA} header"
        )
    return header, [json.loads(ln) for ln in lines[1:]]


def _metric_name(name: str, *, prefix: str) -> str:
    safe = "".join(c if c.isalnum() or c == "_" else "_" for c in name)
    return f"{prefix}_{safe}"


def _fmt(v: float) -> str:
    """Deterministic numeric text (canonical JSON float form)."""
    return canonical_json(round_floats(v))


def prometheus_text(frames: List[Dict], *, prefix: str = "repro") -> str:
    """Prometheus text exposition of a frame series.

    Counters are exposed as whole-run totals, gauges and utilization
    as their last-window values, and SLO channels as per-tenant
    labelled gauges.  Lines are sorted, so the dump is byte-stable.
    """
    totals: Dict[str, float] = {}
    for f in frames:
        for name, v in f.get("counters", {}).items():
            totals[name] = totals.get(name, 0) + v
    last_gauges: Dict[str, float] = {}
    last_util: Dict[str, float] = {}
    last_slo: Dict[str, Dict] = {}
    for f in frames:
        last_gauges.update(f.get("gauges", {}))
        last_util.update(f.get("util", {}))
        for tenant, cell in f.get("slo", {}).items():
            last_slo[tenant] = cell
    lines: List[str] = []
    for name in sorted(totals):
        m = _metric_name(name, prefix=prefix)
        lines.append(f"# TYPE {m} counter")
        lines.append(f"{m} {_fmt(totals[name])}")
    for name in sorted(last_gauges):
        m = _metric_name(name, prefix=prefix)
        lines.append(f"# TYPE {m} gauge")
        lines.append(f"{m} {_fmt(last_gauges[name])}")
    if last_util:
        m = f"{prefix}_util"
        lines.append(f"# TYPE {m} gauge")
        for ch in sorted(last_util):
            lines.append(f'{m}{{channel="{ch}"}} {_fmt(last_util[ch])}')
    for field in ("compliance", "budget", "burn"):
        if not last_slo:
            break
        m = f"{prefix}_slo_{field}"
        lines.append(f"# TYPE {m} gauge")
        for tenant in sorted(last_slo):
            lines.append(
                f'{m}{{tenant="{tenant}"}} {_fmt(last_slo[tenant][field])}'
            )
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# the dashboard
# ----------------------------------------------------------------------
def _sparkline(series: List[float], width: int) -> str:
    """Fixed-ramp ASCII sparkline of ``series`` resampled to ``width``."""
    if not series:
        return ""
    if len(series) > width:
        # deterministic down-sample: max over equal index buckets (a
        # dashboard must not hide spikes)
        buckets: List[float] = []
        per = len(series) / width
        for b in range(width):
            lo, hi = int(b * per), max(int((b + 1) * per), int(b * per) + 1)
            buckets.append(max(series[lo:hi]))
        series = buckets
    lo, hi = min(series), max(series)
    span = hi - lo
    out = []
    for v in series:
        if span <= 0:
            out.append(_RAMP[0] if hi <= 0 else _RAMP[-1])
            continue
        level = int((v - lo) / span * (len(_RAMP) - 1))
        out.append(_RAMP[level])
    return "".join(out)


def render_top(frames: List[Dict], *, width: int = 48) -> str:
    """Deterministic ASCII dashboard of a telemetry frame series.

    One sparkline row per channel (utilization, gauges, counter
    rates), plus a per-tenant SLO table when the frames carry an
    ``slo`` channel — the ``repro top`` CLI surface.
    """
    if not frames:
        return "telemetry: no frames"
    w = frames[1]["t0_s"] - frames[0]["t0_s"] if len(frames) > 1 else (
        frames[0]["t1_s"] - frames[0]["t0_s"]
    )
    span = frames[-1]["t1_s"]
    lines = [
        f"telemetry        {len(frames)} window(s) x {w * 1e3:.3f} ms "
        f"(span {span * 1e3:.3f} ms)",
        f"{'channel':<28} {'min':>8} {'max':>8} {'last':>8}  trend",
    ]

    def series_of(kind: str, name: str) -> List[float]:
        return [float(f.get(kind, {}).get(name, 0.0)) for f in frames]

    names = {
        kind: sorted({n for f in frames for n in f.get(kind, {})})
        for kind in ("util", "gauges", "counters")
    }
    for kind, tag in (("util", "util"), ("gauges", "gauge"),
                      ("counters", "rate")):
        for name in names[kind]:
            s = series_of(kind, name)
            label = f"{tag} {name}"
            lines.append(
                f"{label:<28.28} {min(s):>8.3g} {max(s):>8.3g} "
                f"{s[-1]:>8.3g}  {_sparkline(s, width)}"
            )
    tenants = sorted({t for f in frames for t in f.get("slo", {})})
    if tenants:
        lines.append(
            f"{'slo tenant':<14} {'target':>8} {'compliance':>11} "
            f"{'budget':>7} {'burn':>8} {'breaches':>9}  trend"
        )
        for tenant in tenants:
            cells = [f.get("slo", {}).get(tenant) for f in frames]
            cells = [c for c in cells if c is not None]
            compliance = [c["compliance"] for c in cells]
            breaches = sum(
                1 for c in cells if c["total"] and c["compliance"] < 1.0
            )
            last = cells[-1]
            lines.append(
                f"{tenant:<14.14} "
                f"{'-':>8} "
                f"{last['compliance']:>10.2%} "
                f"{last['budget']:>6.0%} "
                f"{max(c['burn'] for c in cells):>8.3g} "
                f"{breaches:>9}  {_sparkline(compliance, width)}"
            )
    return "\n".join(lines)
