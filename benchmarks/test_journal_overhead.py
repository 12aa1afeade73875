"""Journal overhead bench: what crash-consistency costs.

Serves the mixed 8-region workload (4x qcd alternating 4x stencil, the
``test_serve_throughput`` mix) with the write-ahead journal off and on
and reports two costs:

* **virtual**: the journal is fsync-modelled at zero virtual-time cost,
  so the makespans must be *bit-identical* — asserted, not bounded;
* **wall**: the real cost is host-side — one canonical-JSON encode +
  write + flush per control-plane record.  The writer self-times that
  work (``report.journal["wall_s"]`` covers encode, write and flush),
  so the gated overhead is
  the min across rounds of the per-round ratio
  ``journal_wall / (run_wall - journal_wall)``: the journal's share
  measured exactly, not the difference of two noisy end-to-end timings
  (on shared CI hardware scheduler jitter between two ~25 ms runs
  dwarfs a millisecond of journal work; both raw walls are still
  reported for the record).  The
  overhead must stay within ``WALL_OVERHEAD_BOUND`` (5%): durability
  cheap enough to leave on for every serve.

Every metric lands in ``BENCH_journal.json`` next to this file.  When
a ``BENCH_journal.baseline.json`` is checked in, the overhead is
additionally gated against it (<= baseline + 10% slack), the same
snapshot-as-baseline pattern as ``repro analyze --baseline``.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import time

from repro.analysis.report import format_table
from repro.serve import DevicePool, RegionScheduler, ServeConfig, build_request

from conftest import memo

BENCH_PATH = os.path.join(os.path.dirname(__file__), "BENCH_journal.json")
BASELINE_PATH = os.path.join(
    os.path.dirname(__file__), "BENCH_journal.baseline.json"
)
#: a new overhead may exceed its baseline by at most this factor
BASELINE_SLACK = 1.10

#: journalling must stay cheap enough to leave on for every serve
WALL_OVERHEAD_BOUND = 0.05
#: min-of-rounds suppresses scheduler noise in the run wall time
ROUNDS = 8


def mixed_workload():
    reqs = []
    for i in range(4):
        reqs.append(build_request(
            "qcd", tenant=f"qcd{i}", config={"n": 8},
        ))
        reqs.append(build_request(
            "stencil", tenant=f"sten{i}",
            config={"nz": 26, "ny": 64, "nx": 64},
        ))
    return reqs


def serve_mixed(journal_path=None):
    pool = DevicePool("k40m", count=1)
    sched = RegionScheduler(pool, ServeConfig(journal_path=journal_path))
    sched.submit_all(mixed_workload())
    report = sched.run()
    assert report.ok
    pool.close()
    return report


def measure(cache):
    def compute():
        tmp = tempfile.mkdtemp(prefix="repro-bench-journal-")
        try:
            wall_off = wall_on = float("inf")
            best = None  # (overhead, journal_wall) of best round
            for r in range(ROUNDS):
                t0 = time.perf_counter()
                off = serve_mixed()
                wall_off = min(wall_off, time.perf_counter() - t0)
                path = os.path.join(tmp, f"round{r}.journal")
                t0 = time.perf_counter()
                on = serve_mixed(path)
                wall = time.perf_counter() - t0
                wall_on = min(wall_on, wall)
                js = on.journal["wall_s"]
                # numerator and denominator from the SAME round: the
                # ratio is a per-round measurement, its min across
                # rounds the least noise-contaminated one (round 0 is
                # warmup — cold encode and file-write paths inflate it)
                row = (js / (wall - js), js)
                if best is None or row < best:
                    best = row
            # fsync-modelled at zero virtual-time cost: bit-identical
            assert on.makespan == off.makespan
            overhead, journal_wall = best
            return {
                "makespan_off": off.makespan,
                "makespan_on": on.makespan,
                "wall_off_s": wall_off,
                "wall_on_s": wall_on,
                "journal_wall_s": journal_wall,
                "journal_overhead": overhead,
                "records": on.journal["records"],
                "fsyncs": on.journal["fsyncs"],
            }
        finally:
            shutil.rmtree(tmp, ignore_errors=True)

    return memo(cache, "journal_overhead", compute)


def _write_bench(data):
    with open(BENCH_PATH, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _check_baseline(data):
    if not os.path.exists(BASELINE_PATH):
        return
    with open(BASELINE_PATH, encoding="utf-8") as fh:
        baseline = json.load(fh)
    for key, ref in baseline.items():
        if not isinstance(ref, (int, float)) or isinstance(ref, bool):
            continue
        if not key.endswith("_overhead"):
            continue
        assert data[key] <= ref * BASELINE_SLACK + 1e-9, (
            f"{key} regressed: {data[key]:.3f} vs baseline {ref:.3f} "
            f"(ceiling {ref * BASELINE_SLACK:.3f})"
        )


def test_journal_overhead(benchmark, cache, report):
    data = measure(cache)
    tmp = tempfile.mkdtemp(prefix="repro-bench-journal-")
    try:
        benchmark.pedantic(
            lambda: serve_mixed(os.path.join(tmp, "bench.journal")),
            rounds=3, iterations=1,
        )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    report.emit(
        "Journal overhead (mixed 8-region workload, one K40m)",
        format_table(
            ["mode", "makespan (ms)", "wall (ms)", "journal (ms)", "records"],
            [
                ["off", data["makespan_off"] * 1e3,
                 data["wall_off_s"] * 1e3, 0.0, 0],
                ["journal", data["makespan_on"] * 1e3,
                 data["wall_on_s"] * 1e3,
                 data["journal_wall_s"] * 1e3, data["records"]],
            ],
            floatfmt="{:.3f}",
        ),
    )
    report.record("journal_overhead", data)
    _write_bench(data)
    _check_baseline(data)

    # the journal actually journalled this run …
    assert data["records"] > 30
    assert data["fsyncs"] == data["records"]
    assert data["journal_wall_s"] > 0.0  # the cost model is real
    # … at zero virtual cost and bounded wall cost
    assert data["makespan_on"] == data["makespan_off"]
    assert data["journal_overhead"] <= WALL_OVERHEAD_BOUND, (
        f"journal wall overhead {data['journal_overhead']:.3%} exceeds "
        f"{WALL_OVERHEAD_BOUND:.0%} — durability must stay cheap enough "
        f"to leave on"
    )
