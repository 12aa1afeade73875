"""Byte-stable analysis snapshots and regression-gate diffs.

A snapshot is the JSON-safe dict form of a
:class:`~repro.obs.analyze.RegionAnalysis` with every float rounded to
12 decimal digits, serialized with sorted keys — bit-deterministic for
a given seed/config, so it can be checked into the repository as a
golden baseline.

:func:`diff_analyses` compares two snapshots and flags **regressions**:
the new wall time (or any cause category) growing by more than
``tolerance`` x the baseline wall.  The CLI's ``repro analyze
--baseline`` exits non-zero when any regression is flagged, which is
the CI perf gate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.obs.io import atomic_write_text, round_floats

__all__ = ["AnalysisDiff", "diff_analyses", "round_floats", "write_analysis"]


def write_analysis(snapshot: Dict, path: str) -> None:
    """Write a snapshot dict as deterministic JSON (atomically)."""
    import json

    atomic_write_text(
        path, json.dumps(round_floats(snapshot), indent=2, sort_keys=True) + "\n"
    )


@dataclass
class AnalysisDiff:
    """Outcome of comparing a new snapshot against a baseline."""

    lines: List[str] = field(default_factory=list)
    regressions: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when nothing regressed beyond tolerance."""
        return not self.regressions

    def report(self) -> str:
        """Human-readable diff table plus the verdict."""
        out = list(self.lines)
        if self.regressions:
            out.append("")
            out.append(f"REGRESSION ({len(self.regressions)}):")
            out.extend(f"  - {r}" for r in self.regressions)
        else:
            out.append("")
            out.append("no regression beyond tolerance")
        return "\n".join(out)


def diff_analyses(
    base: Dict, new: Dict, *, tolerance: float = 0.05
) -> AnalysisDiff:
    """Compare two snapshots; flag growth beyond ``tolerance`` x wall.

    Gated quantities: ``wall_s`` and every ``causes`` category.  A
    quantity regresses when it grows by more than ``tolerance`` times
    the *baseline wall* (an absolute yardstick, so a tiny category
    doubling from nothing does not trip the gate spuriously).
    """
    diff = AnalysisDiff()
    base_wall = float(base.get("wall_s", 0.0))
    new_wall = float(new.get("wall_s", 0.0))
    budget = tolerance * max(base_wall, 1e-12)

    def row(name: str, b: float, n: float) -> str:
        pct = f"{(n - b) / b:+.1%}" if b > 0 else ("  new" if n > 0 else "   --")
        return f"  {name:<18} {b * 1e3:>10.4f} -> {n * 1e3:>10.4f} ms  {pct}"

    diff.lines.append(
        f"baseline wall {base_wall * 1e3:.4f} ms, "
        f"tolerance {tolerance:.1%} ({budget * 1e3:.4f} ms)"
    )
    diff.lines.append(row("wall", base_wall, new_wall))
    if new_wall - base_wall > budget:
        diff.regressions.append(
            f"wall grew {(new_wall - base_wall) * 1e3:.4f} ms "
            f"({(new_wall / base_wall - 1):+.1%}) > tolerance"
        )
    base_c = base.get("causes", {}) or {}
    new_c = new.get("causes", {}) or {}
    for cat in sorted(set(base_c) | set(new_c)):
        b = float(base_c.get(cat, 0.0))
        n = float(new_c.get(cat, 0.0))
        diff.lines.append(row(cat, b, n))
        if n - b > budget:
            diff.regressions.append(
                f"{cat} grew {(n - b) * 1e3:.4f} ms > tolerance"
            )
    return diff
