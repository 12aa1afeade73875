"""Exporters: Chrome trace-event JSON and plain-text profile reports.

Two consumers of recorded observability data:

* :func:`spans_to_chrome` / :func:`write_span_trace` — the Chrome
  ``trace_event`` format (complete ``"X"`` events), loadable in
  ``chrome://tracing`` or https://ui.perfetto.dev.  One thread row per
  span track: the host program-order track plus one row per device
  engine, so kernel/transfer overlap is directly visible — the view
  the paper gets from NVIDIA Visual Profiler.
* :func:`profile_report` — a terminal-friendly digest: span totals per
  category, per-engine busy/idle/utilization, the longest spans, and
  the full metrics snapshot.

:func:`overlap_from_events` recomputes the paper's transfer-overlap
fraction *from an exported trace*, so tests can prove the export
carries the same information as the in-memory timeline.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

from repro.obs.intervals import hidden_fraction
from repro.obs.io import atomic_write_json
from repro.obs.tracer import Span

__all__ = [
    "chrome_counter_events",
    "overlap_from_events",
    "profile_report",
    "spans_to_chrome",
    "write_span_trace",
]


def spans_to_chrome(spans: Sequence[Span], *, time_unit: float = 1e6) -> Dict:
    """Convert spans to Chrome trace-event JSON (dict form).

    Parameters
    ----------
    spans:
        Closed spans (open spans are skipped).
    time_unit:
        Multiplier from virtual seconds to trace microseconds (the
        format's native unit); the default maps 1 s -> 1e6 us.
    """
    closed = [s for s in spans if s.end is not None]
    tracks = sorted({s.track for s in closed}, key=lambda t: (t != "host", t))
    events: List[Dict] = []
    for tid, track in enumerate(tracks):
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 0,
                "tid": tid,
                "args": {"name": track},
            }
        )
    tid_of = {t: i for i, t in enumerate(tracks)}
    slices: List[Dict] = []
    for s in closed:
        slices.append(
            {
                "name": s.name,
                "cat": s.category or "span",
                "ph": "X",
                "pid": 0,
                "tid": tid_of[s.track],
                "ts": s.start * time_unit,
                "dur": s.duration * time_unit,
                "args": dict(s.attrs),
            }
        )
    slices.sort(key=lambda e: (e["ts"], -e["dur"]))
    return {"traceEvents": events + slices, "displayTimeUnit": "ms"}


def write_span_trace(spans: Sequence[Span], path: str, *, time_unit: float = 1e6) -> None:
    """Write spans as a ``chrome://tracing`` JSON file (atomically)."""
    atomic_write_json(path, spans_to_chrome(spans, time_unit=time_unit))


def chrome_counter_events(
    frames: Sequence[Dict], *, time_unit: float = 1e6
) -> List[Dict]:
    """Telemetry frames as Chrome trace counter (``"C"``) events.

    One counter track per telemetry channel — utilization fractions,
    gauges, and per-window counter deltas from
    :meth:`repro.obs.TelemetrySampler.finish` frames — stamped at each
    window's start so they render alongside the ``"X"`` span events
    from :func:`spans_to_chrome` in ``chrome://tracing``/Perfetto.
    """
    events: List[Dict] = []
    for frame in frames:
        ts = frame["t0_s"] * time_unit
        for kind in ("util", "gauges", "counters"):
            for name in sorted(frame.get(kind, {})):
                events.append(
                    {
                        "name": f"telemetry:{name}",
                        "ph": "C",
                        "pid": 0,
                        "tid": 0,
                        "ts": ts,
                        "args": {"value": frame[kind][name]},
                    }
                )
        for tenant in sorted(frame.get("slo", {})):
            events.append(
                {
                    "name": f"slo:{tenant}",
                    "ph": "C",
                    "pid": 0,
                    "tid": 0,
                    "ts": ts,
                    "args": {
                        "compliance": frame["slo"][tenant]["compliance"],
                        "budget": frame["slo"][tenant]["budget"],
                    },
                }
            )
    return events


def overlap_from_events(trace: Dict, *, time_unit: float = 1e6) -> float:
    """Transfer-overlap fraction recomputed from an exported trace.

    Considers the ``"X"`` events whose ``cat`` is ``h2d``/``d2h``
    (transfers) and ``kernel`` — i.e. the device-engine spans — and
    returns the fraction of transfer busy-time that lies under kernel
    execution, the same quantity as
    :attr:`repro.core.executor.RegionResult.overlap`.
    """
    kernels: List[Tuple[float, float]] = []
    transfers: List[Tuple[float, float]] = []
    for e in trace.get("traceEvents", ()):
        if e.get("ph") != "X":
            continue
        lo = e["ts"] / time_unit
        hi = lo + e["dur"] / time_unit
        if e.get("cat") == "kernel":
            kernels.append((lo, hi))
        elif e.get("cat") in ("h2d", "d2h"):
            transfers.append((lo, hi))
    return hidden_fraction(kernels, transfers)


# ----------------------------------------------------------------------
# text profile
# ----------------------------------------------------------------------
def _fmt_seconds(s: float) -> str:
    return f"{s * 1e3:10.3f} ms"


def _engine_rows(spans: Iterable[Span]) -> List[str]:
    device = [s for s in spans if s.track.startswith("engine:") and s.end is not None]
    if not device:
        return ["  (no device spans recorded)"]
    t0 = min(s.start for s in device)
    t1 = max(s.end for s in device)
    window = max(t1 - t0, 1e-15)
    rows = []
    for track in sorted({s.track for s in device}):
        busy = sum(s.duration for s in device if s.track == track)
        rows.append(
            f"  {track:<16} busy {_fmt_seconds(busy)}   "
            f"idle {_fmt_seconds(window - busy)}   util {busy / window:6.1%}"
        )
    return rows


def profile_report(obs, *, top: int = 8) -> str:
    """Render one run's observability data as a plain-text report.

    Parameters
    ----------
    obs:
        An :class:`repro.obs.Observability` (anything with ``tracer``
        and ``metrics`` attributes).
    top:
        How many longest spans to list.
    """
    spans = [s for s in obs.tracer.spans if s.end is not None]
    lines: List[str] = ["== span profile =="]
    if spans:
        by_cat: Dict[str, Tuple[int, float]] = {}
        for s in spans:
            n, t = by_cat.get(s.category or "span", (0, 0.0))
            by_cat[s.category or "span"] = (n + 1, t + s.duration)
        lines.append(f"  {'category':<14} {'spans':>6} {'total':>14}")
        for cat, (n, t) in sorted(by_cat.items(), key=lambda kv: -kv[1][1]):
            lines.append(f"  {cat:<14} {n:>6} {_fmt_seconds(t)}")
    else:
        lines.append("  (no spans recorded — was tracing enabled?)")

    lines.append("")
    lines.append("== engines ==")
    lines.extend(_engine_rows(spans))

    if spans:
        lines.append("")
        lines.append(f"== longest spans (top {top}) ==")
        for s in sorted(spans, key=lambda s: -s.duration)[:top]:
            lines.append(
                f"  {_fmt_seconds(s.duration)}  [{s.category or 'span':<8}] {s.name}"
            )

    snap = obs.metrics.snapshot()
    if snap:
        lines.append("")
        lines.append("== metrics ==")
        counters = snap.get("counters", {})
        if counters:
            lines.append("  counters:")
            for name, v in counters.items():
                lines.append(f"    {name:<28} {v:,.0f}" if float(v).is_integer()
                             else f"    {name:<28} {v:.6g}")
        gauges = snap.get("gauges", {})
        if gauges:
            lines.append("  gauges (value / high-water):")
            for name, g in gauges.items():
                lines.append(f"    {name:<28} {g['value']:.6g} / {g['high']:.6g}")
        hists = snap.get("histograms", {})
        if hists:
            lines.append("  histograms (count / total / mean / p95):")
            for name, h in hists.items():
                lines.append(
                    f"    {name:<28} {h['count']} / {h['total']:.6g} / "
                    f"{h['mean']:.6g} / {h['p95']:.6g}"
                )
    return "\n".join(lines)
