"""Interval arithmetic shared by the overlap/occupancy computations.

The in-memory timeline (:func:`repro.sim.trace.overlap_fraction`), the
analyzer, and the exported-trace recomputation
(:func:`repro.obs.export.overlap_from_events`) all need the measure of
a union of half-open time intervals and the transfer-overlap fraction
built on it; this module is the single implementation they share.  It
deliberately has no dependencies so it can sit below :mod:`repro.sim`
and :mod:`repro.obs` alike.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

__all__ = ["hidden_fraction", "union_length"]


def union_length(intervals: List[Tuple[float, float]]) -> float:
    """Total measure of the union of ``(lo, hi)`` intervals.

    Overlapping and touching intervals are merged; empty and inverted
    intervals (``hi <= lo``) measure nothing.  Empty input is ``0.0``.
    """
    intervals = sorted(iv for iv in intervals if iv[1] > iv[0])
    if not intervals:
        return 0.0
    total, (cur_lo, cur_hi) = 0.0, intervals[0]
    for lo, hi in intervals[1:]:
        if lo > cur_hi:
            total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    return total + (cur_hi - cur_lo)


def hidden_fraction(
    kernels: Iterable[Tuple[float, float]],
    transfers: Iterable[Tuple[float, float]],
) -> float:
    """Fraction of transfer busy-time that lies under kernel execution.

    ``1.0`` means every transfer ran while a kernel was running
    (perfect pipelining); ``0.0`` means fully synchronous behaviour, and
    is also the answer for no transfers.  Transfers are summed in the
    order given, so callers that pass the same order get bit-identical
    results.
    """
    kernel_ivs = sorted(kernels)
    hidden = total = 0.0
    for t_lo, t_hi in transfers:
        total += t_hi - t_lo
        pieces = []
        for lo, hi in kernel_ivs:
            if lo >= t_hi:
                break
            if hi > t_lo:
                pieces.append((max(lo, t_lo), min(hi, t_hi)))
        hidden += union_length(pieces)
    return hidden / total if total else 0.0
