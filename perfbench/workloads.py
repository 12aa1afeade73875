"""Seeded inputs and one measured repetition for each benchmark workload.

Every workload has a *full-size* and a *quarter-size* input.  The
full-size input carries the end-to-end metrics; the quarter-size input
exists only for the scaling exponent ``log(wall_full / wall_quarter) /
log 4``.

The serve batches are *stratified*: the request mix (app, size,
priority, and for serve-guarded sharding, integrity and deadlines) is
fixed in proportion by the batch size, and the seed deals those
attributes out and orders the requests.  A plain
``random_workload(seed, n)`` draws the mix itself, which moves the
virtual makespan by about 7% from seed to seed at n=512; stratifying
keeps the seed-to-seed spread of every metric well inside its bound
while each seed is still a different batch.

The digest and the virtual metrics are computed outside the timed
region, because some of them (``RegionResult.overlap``) cost more host
time than the run itself.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
from bisect import bisect_left, bisect_right
from statistics import median
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.apps import conv3d, matmul, stencil
from repro.apps.common import new_runtime
from repro.core.region import TargetRegion
from repro.directives.clauses import Loop
from repro.kernels.conv3d import Conv3dKernel
from repro.kernels.matmul import MatmulChunkKernel
from repro.kernels.qcd import DslashKernel
from repro.kernels.stencil3d import StencilKernel
from repro.serve import (
    DevicePool,
    PlanCache,
    RegionScheduler,
    ServeConfig,
    build_request,
)
from repro.sim.varray import VirtualArray

#: serve-batch: requests in the full-size batch (the quarter batch is n/4)
BATCH_N = 512
#: serve-guarded: requests in the full-size batch
GUARDED_N = 200
#: region-stream: nominal loop trip (chunks at chunk_size=1) per region
STREAM_TRIP = 2048
#: region-stream: seeded per-region trip jitter, +-this many iterations
STREAM_JITTER = 8
#: serve-guarded: deadline (virtual s) given to some requests; the
#: whole batch finishes in well under a virtual second
GENEROUS_DEADLINE_S = 10.0
#: serve-guarded: shares of the batch with shards=2, integrity
#: checksums and a deadline
SHARDED_SHARE, CHECKSUM_SHARE, DEADLINE_SHARE = 1 / 4, 1 / 3, 3 / 10

#: the app/size menu of ``repro.serve.random_workload``, copied so the
#: benchmark's inputs stay put when the program's test menu changes;
#: as there, each app is a quarter of the batch, split evenly over its
#: sizes
MENU: List[Tuple[str, List[Dict[str, int]]]] = [
    ("stencil", [{"nz": 18, "ny": 48, "nx": 48},
                 {"nz": 26, "ny": 64, "nx": 64},
                 {"nz": 34, "ny": 64, "nx": 64}]),
    ("conv3d", [{"nz": 18, "ny": 48, "nx": 48},
                {"nz": 26, "ny": 64, "nx": 64}]),
    ("matmul", [{"n": 96, "block": 16},
                {"n": 128, "block": 16},
                {"n": 160, "block": 32}]),
    ("qcd", [{"n": 6}, {"n": 7}]),
]
PRIORITIES = 3

MB = 1e6


# ----------------------------------------------------------------------
# statistics and digests
# ----------------------------------------------------------------------
def nearest_rank(sorted_values: List[float], pct: float) -> float:
    """Nearest-rank percentile of already sorted values."""
    k = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[k - 1]


def tail(values: List[float]) -> Tuple[float, float, int]:
    """``(value, percentile, n)`` at the highest whole percentile that
    leaves at least ten samples above it; the maximum when there are
    too few samples for that."""
    s = sorted(values)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0, n
    pct = float(math.floor(100.0 * (n - 10) / n))
    return nearest_rank(s, pct), pct, n


def sha256_json(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def timeline_overlap(timelines) -> float:
    """Transfer time hidden under kernels over several device timelines.

    The quantity :func:`repro.sim.trace.overlap_fraction` defines, but
    computed against the union of kernel intervals with a binary search
    (that function is quadratic in the command count, too slow for a
    whole serve run).  Pooled over devices, weighted by transfer time.
    """
    hidden = 0.0
    total = 0.0
    for tl in timelines:
        kernels = sorted((r.start, r.finish) for r in tl.records if r.kind == "kernel")
        union: List[List[float]] = []
        for lo, hi in kernels:
            if union and lo <= union[-1][1]:
                union[-1][1] = max(union[-1][1], hi)
            else:
                union.append([lo, hi])
        starts = [u[0] for u in union]
        ends = [u[1] for u in union]
        for r in tl.records:
            if r.kind not in ("h2d", "d2h"):
                continue
            total += r.finish - r.start
            i = bisect_right(ends, r.start)
            j = bisect_left(starts, r.finish)
            for lo, hi in zip(starts[i:j], ends[i:j]):
                hidden += max(0.0, min(hi, r.finish) - max(lo, r.start))
    return hidden / total if total else 0.0


def array_digests(requests) -> List[Dict[str, str]]:
    """sha256 of every host array of every request, in request order."""
    return [
        {
            var: hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()
            for var, arr in sorted(req.arrays.items())
        }
        for req in requests
    ]


def apportion(n: int, weights: List[float]) -> List[int]:
    """Split ``n`` into whole counts proportional to ``weights``
    (largest remainder; ties go to the earlier weight)."""
    total = sum(weights)
    exact = [n * w / total for w in weights]
    counts = [math.floor(x) for x in exact]
    by_remainder = sorted(range(len(weights)), key=lambda i: counts[i] - exact[i])
    for i in by_remainder[: n - sum(counts)]:
        counts[i] += 1
    return counts


def dealt(rng: np.random.Generator, n: int, share: float) -> np.ndarray:
    """A boolean mask with ``round(n * share)`` True entries at seeded
    positions."""
    mask = np.zeros(n, dtype=bool)
    mask[: round(n * share)] = True
    return rng.permutation(mask)


def stratified_mix(seed: int, n: int) -> Tuple[List[Dict[str, object]], np.random.Generator]:
    """``build_request`` keyword sets for ``n`` requests over
    :data:`MENU` in fixed proportions, with priorities 0..2 in equal
    shares; the seed orders the sizes and deals the priorities.  Returns
    the generator too, for callers that deal further attributes."""
    cells = [(app, cfg, len(MENU) * len(cfgs)) for app, cfgs in MENU for cfg in cfgs]
    counts = apportion(n, [1 / k for _a, _c, k in cells])
    kinds = [(app, cfg) for (app, cfg, _k), c in zip(cells, counts) for _ in range(c)]
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    priorities = rng.permutation(np.arange(n) % PRIORITIES)
    mix = [
        {"app": kinds[k][0], "config": kinds[k][1], "tenant": f"tenant{i}",
         "priority": int(p)}
        for i, (k, p) in enumerate(zip(order, priorities))
    ]
    return mix, rng


# ----------------------------------------------------------------------
# workloads
#
# Each workload builds its inputs for a size ("full" or "quarter"),
# executes them (the timed call), and afterwards — outside the timed
# region — counts, fingerprints and digests the outcome.
# ----------------------------------------------------------------------
FULL, QUARTER = "full", "quarter"


class ServeWorkload:
    """A batch of requests, all submitted at virtual t=0, then served.

    The scheduler has no arrival process, so this is an offline batch:
    the figure of merit is work completed per host second at the stated
    batch size.
    """

    name = ""
    n = 0
    #: roots of the measured call, for the layer tracer
    roots = ("RegionScheduler.submit_all", "RegionScheduler.run")

    def __init__(self, seed: int, scratch: str) -> None:
        self.seed = seed
        self.scratch = scratch

    def size(self, size: str) -> int:
        return self.n if size == FULL else self.n // 4

    # subclasses provide the requests, the pool and the config
    def requests(self, n: int):
        raise NotImplementedError

    def pool(self) -> DevicePool:
        raise NotImplementedError

    def config(self) -> ServeConfig:
        raise NotImplementedError

    def build(self, size: str, n: Optional[int] = None):
        """(requests, scheduler) ready to serve: the timed set-up."""
        requests = self.requests(self.size(size) if n is None else n)
        sched = RegionScheduler(self.pool(), self.config(), cache=PlanCache())
        return requests, sched

    @staticmethod
    def execute(inputs):
        requests, sched = inputs
        sched.submit_all(requests)
        return sched.run()

    @staticmethod
    def regions(inputs) -> list:
        return [req.region for req in inputs[0]]

    @staticmethod
    def count(inputs, report) -> Tuple[int, int, int]:
        """(attempted, ok, chunks issued by ok requests)."""
        ok = [r for r in report.results if r.ok]
        return len(inputs[0]), len(ok), sum(r.nchunks for r in ok)

    @staticmethod
    def fingerprint(report) -> str:
        return repr((
            report.makespan,
            report.device_peaks,
            report.dry_runs,
            [(r.status, r.finished, r.nchunks, r.commands) for r in report.results],
        ))

    @staticmethod
    def detail(inputs, report) -> Tuple[str, Dict[str, object]]:
        """Canonical digest (sha256 of sorted-keys ``ServeReport.to_dict()``)
        and the virtual metrics."""
        return sha256_json(report.to_dict()), serve_virtual(report, inputs[1].pool)

    def outputs(self, inputs) -> Optional[List[Dict[str, str]]]:
        return None

    def cleanup(self, inputs) -> None:
        pass

    def warmup(self) -> None:
        """A throwaway small serve, so imports and first-call set-up are
        paid before timing."""
        inputs = self.build(FULL, n=12)
        self.execute(inputs)
        self.cleanup(inputs)


def serve_virtual(report, pool) -> Dict[str, object]:
    lat = [r.latency for r in report.results if r.ok]
    tail_v, tail_p, tail_n = tail(lat)
    return {
        "virtual_makespan_s": report.makespan,
        "virtual_latency_p50_s": median(lat),
        "virtual_latency_tail_s": tail_v,
        "tail_percentile": tail_p,
        "tail_n": tail_n,
        "virtual_overlap": timeline_overlap(rt.timeline() for rt in pool.runtimes),
        "virtual_device_peak_mb": max(report.device_peaks) / MB,
        # virtual per-layer guards, reported by the traced run
        "queue_wait_p50_s": median([r.queue_wait for r in report.results if r.ok]),
        "overtaken": sum(r.overtaken for r in report.results),
        "dry_runs": report.dry_runs,
        "cache_hit_rate": report.cache["hit_rate"],
        "retries": report.retries,
        "verified": report.verified,
        "h2d_busy_s": sum(r.busy.get("h2d", 0.0) for r in report.results),
        "d2h_busy_s": sum(r.busy.get("d2h", 0.0) for r in report.results),
        "kernel_busy_s": sum(r.busy.get("kernel", 0.0) for r in report.results),
        "telemetry_frames": len(report.telemetry),
    }


class ServeBatch(ServeWorkload):
    """A stratified ``random_workload`` mix on one k40m, virtual arrays,
    ``autotune=False`` and no side channels."""

    name = "serve-batch"
    n = BATCH_N

    def requests(self, n: int):
        mix, _rng = stratified_mix(self.seed, n)
        return [build_request(m.pop("app"), virtual=True, **m) for m in mix]

    def pool(self) -> DevicePool:
        return DevicePool("k40m", virtual=True)

    def config(self) -> ServeConfig:
        return ServeConfig(autotune=False)


class ServeGuarded(ServeWorkload):
    """Real arrays on a 2-device pool with autotune against a cold plan
    cache, sharding, integrity checksums, deadlines, journal and
    telemetry all on."""

    name = "serve-guarded"
    n = GUARDED_N

    def __init__(self, seed: int, scratch: str) -> None:
        super().__init__(seed, scratch)
        self._runs = 0
        self._oracles: Dict[int, List[Dict[str, str]]] = {}

    def requests(self, n: int):
        mix, rng = stratified_mix(self.seed, n)
        sharded = dealt(rng, n, SHARDED_SHARE)
        checksum = dealt(rng, n, CHECKSUM_SHARE)
        deadline = dealt(rng, n, DEADLINE_SHARE)
        return [
            build_request(m.pop("app"), virtual=False, shards=2 if s else 1,
                          integrity="checksum" if c else None,
                          deadline=GENEROUS_DEADLINE_S if d else None, **m)
            for m, s, c, d in zip(mix, sharded, checksum, deadline)
        ]

    def pool(self) -> DevicePool:
        return DevicePool("k40m", count=2, virtual=False)

    def config(self) -> ServeConfig:
        self._runs += 1
        run_dir = os.path.join(self.scratch, f"serve-{self._runs}")
        shutil.rmtree(run_dir, ignore_errors=True)
        os.makedirs(run_dir)
        return ServeConfig(
            autotune=True,
            journal_path=os.path.join(run_dir, "journal.jsonl"),
            telemetry_path=os.path.join(run_dir, "telemetry.jsonl"),
        )

    def cleanup(self, inputs) -> None:
        shutil.rmtree(os.path.dirname(inputs[1].config.journal_path))

    def outputs(self, inputs) -> List[Dict[str, str]]:
        return array_digests(inputs[0])

    def oracle(self, n: int) -> List[Dict[str, str]]:
        """Output digests of the same ``n``-request batch served one
        region at a time (``max_active=1``), without journal or
        telemetry; computed once per size."""
        if n not in self._oracles:
            requests = self.requests(n)
            sched = RegionScheduler(
                self.pool(), ServeConfig(autotune=True, max_active=1), cache=PlanCache()
            )
            report = self.execute((requests, sched))
            if not report.ok:
                raise RuntimeError("serial oracle run did not complete every request")
            self._oracles[n] = array_digests(requests)
        return self._oracles[n]


def _qcd_region(trip: int, m: int = 6):
    """The paper's QCD Dslash pragma on a lattice with an elongated time
    axis (``trip + 2`` slices of ``m^3`` sites), so one region pipelines
    thousands of time slices."""
    t = trip + 2
    pragma = f"""
        #pragma omp target \\
            pipeline(static[1,3]) \\
            pipeline_map(to: G[k-1:2][0:4][0:{m}][0:{m}][0:{m}][0:3][0:3]) \\
            pipeline_map(to: psi[k-1:3][0:{m}][0:{m}][0:{m}][0:4][0:3]) \\
            pipeline_map(from: eta[k:1][0:{m}][0:{m}][0:{m}][0:4][0:3])
    """
    region = TargetRegion.parse(pragma, loop=Loop("k", 1, t - 1))
    arrays = {
        "G": VirtualArray((t, 4, m, m, m, 3, 3), np.complex128),
        "psi": VirtualArray((t, m, m, m, 4, 3), np.complex128),
        "eta": VirtualArray((t, m, m, m, 4, 3), np.complex128),
    }
    return region, arrays, DslashKernel(m, m, m)


def _stencil_region(trip: int):
    cfg = stencil.StencilConfig(nz=trip + 2, ny=64, nx=64, chunk_size=1)
    return (stencil.make_region(cfg), stencil.make_arrays(cfg, virtual=True),
            StencilKernel(cfg.ny, cfg.nx))


def _conv3d_region(trip: int):
    cfg = conv3d.Conv3dConfig(nz=trip + 2, ny=64, nx=64, chunk_size=1)
    return (conv3d.make_region(cfg), conv3d.make_arrays(cfg, virtual=True),
            Conv3dKernel(cfg.ny, cfg.nx))


def _matmul_region(trip: int):
    # one reduction column per iteration: n = trip, block = 1
    cfg = matmul.MatmulConfig(n=trip, block=1, chunk_size=1)
    return (matmul.make_region(cfg), matmul.make_arrays(cfg, virtual=True),
            MatmulChunkKernel(cfg.n, cfg.block))


STREAM_APPS = (
    ("stencil", _stencil_region),
    ("conv3d", _conv3d_region),
    ("matmul", _matmul_region),
    ("qcd", _qcd_region),
)


class RegionStream:
    """Standalone ``TargetRegion.run(model="buffer")`` of the paper's four
    apps, each region on a fresh runtime; no scheduler."""

    name = "region-stream"
    roots = ("TargetRegion.run",)

    def __init__(self, seed: int, scratch: str) -> None:
        self.seed = seed
        rng = np.random.default_rng(seed)
        jitter = rng.integers(-STREAM_JITTER, STREAM_JITTER + 1, len(STREAM_APPS))
        self.trips = [STREAM_TRIP + int(j) for j in jitter]
        self.n = len(STREAM_APPS)

    def build(self, size: str, trip: Optional[int] = None):
        """[(region, arrays, kernel, runtime)] in app order: the timed
        set-up (pragma parse, arrays, fresh runtimes)."""
        out = []
        for (_app, make), t in zip(STREAM_APPS, self.trips):
            if trip is not None:
                t = trip
            elif size == QUARTER:
                t //= 4
            region, arrays, kernel = make(t)
            out.append((region, arrays, kernel, new_runtime("k40m", virtual=True)))
        return out

    @staticmethod
    def execute(inputs):
        return [
            region.run(rt, arrays, kernel, model="buffer")
            for region, arrays, kernel, rt in inputs
        ]

    @staticmethod
    def regions(inputs) -> list:
        return [region for region, _a, _k, _rt in inputs]

    @staticmethod
    def count(inputs, results) -> Tuple[int, int, int]:
        return len(inputs), len(results), sum(r.nchunks for r in results)

    @staticmethod
    def fingerprint(results) -> str:
        return repr([
            (r.elapsed, r.memory_peak, r.nchunks, len(r.timeline)) for r in results
        ])

    @staticmethod
    def detail(inputs, results) -> Tuple[str, Dict[str, object]]:
        """Canonical digest (sha256 of the sorted-keys
        ``RegionResult.to_dict()`` list) and the virtual metrics."""
        return sha256_json([r.to_dict() for r in results]), stream_virtual(results)

    def outputs(self, inputs) -> None:
        return None

    def cleanup(self, inputs) -> None:
        pass

    def warmup(self) -> None:
        self.execute(self.build(FULL, trip=64))


def stream_virtual(results) -> Dict[str, object]:
    lat = [r.elapsed for r in results]
    tail_v, tail_p, tail_n = tail(lat)
    busy = [r.time_distribution for r in results]
    return {
        "virtual_makespan_s": sum(lat),
        "virtual_latency_p50_s": median(lat),
        "virtual_latency_tail_s": tail_v,
        "tail_percentile": tail_p,
        "tail_n": tail_n,
        "virtual_overlap": sum(r.overlap for r in results) / len(results),
        "virtual_device_peak_mb": max(r.memory_peak for r in results) / MB,
        "queue_wait_p50_s": 0.0,
        "overtaken": 0,
        "dry_runs": 0,
        "cache_hit_rate": 0.0,
        "retries": sum(r.retries for r in results),
        "verified": sum(r.verified for r in results),
        "h2d_busy_s": sum(b["h2d"] for b in busy),
        "d2h_busy_s": sum(b["d2h"] for b in busy),
        "kernel_busy_s": sum(b["kernel"] for b in busy),
        "telemetry_frames": 0,
    }


WORKLOADS = {
    cls.name: cls for cls in (ServeBatch, RegionStream, ServeGuarded)
}
