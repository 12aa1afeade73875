#!/usr/bin/env python3
"""Layer-attributed benchmark of the directive-pipelining runtime.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve-batch --seed 7 --seconds 30 --trace 0

Workloads (see ``perfbench/README.md`` for why each exists):

* ``serve-batch``   - stratified ``random_workload`` mix on one k40m, virtual arrays;
* ``region-stream`` - standalone ``TargetRegion.run`` of the four paper apps;
* ``serve-guarded`` - real arrays on 2 devices with autotune, sharding,
  integrity, deadlines, journal and telemetry.

``--trace 0`` repeats the workload for ``--seconds`` and reports the
end-to-end metrics (medians over repetitions), with host wall scaled to
reference speed by the probe of ``probe.py``.  ``--trace 1`` reports the
per-layer metrics: it alternates untraced and traced runs of the
full-size input, then measures retained memory under tracemalloc, and
writes the spans of the last traced run to
``.perfbench/spans-<workload>.jsonl.gz``.

Outputs are checked on every run: all requests complete, repetitions
agree, serve-guarded's arrays equal a serial oracle's, traced runs
reproduce untraced ones, and the digest matches ``pins.json`` when the
seed is pinned there.  The last stdout line is one JSON object; the exit
code is 1 when a check failed and 2 when the program cannot be found.
"""

import os

# one thread everywhere: numpy's BLAS must not fan out over the host's cores
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

from probe import REFERENCE_S, SpeedProbe  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PINS = HERE / "pins.json"
DEFAULT_SEED = 7
#: untraced repetitions always measured, however long they take
MIN_REPS = 3

VIRTUAL_KEYS = ["virtual_makespan_s", "virtual_latency_p50_s", "virtual_latency_tail_s",
                "virtual_overlap", "virtual_device_peak_mb"]


# ----------------------------------------------------------------------
# environment
# ----------------------------------------------------------------------
def commit() -> str:
    """HEAD commit read from ``.git`` when the checkout has one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    import numpy as np

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": commit(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def more(reps: list, start: float, seconds: float, least: int = MIN_REPS) -> bool:
    """Whether to run another repetition: always up to ``least``, then
    while one more of average length still ends within ``seconds``."""
    if len(reps) < least:
        return True
    elapsed = time.perf_counter() - start
    return elapsed * (len(reps) + 1) / len(reps) <= seconds


def timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


# ----------------------------------------------------------------------
# checks
# ----------------------------------------------------------------------
class Checks:
    """Collects failed output checks; any failure makes the run incorrect."""

    def __init__(self) -> None:
        self.failures = []

    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.failures.append(what)
            print(f"CHECK FAILED: {what}", flush=True)

    def pinned(self, workload: str, seed: int, digest: str) -> str:
        pins = json.loads(PINS.read_text()).get(workload, {})
        want = pins.get(str(seed))
        if want is None:
            return "not pinned"
        self.expect(digest == want, f"{workload} seed {seed}: digest {digest} "
                    f"differs from the pinned {want}")
        return "matches pin" if digest == want else "MISMATCH"


# ----------------------------------------------------------------------
# end-to-end run
# ----------------------------------------------------------------------
def unit(w, size, *, detail=False, probe=None):
    """Build, execute and inspect one input; returns a dict.  With a
    running ``probe``, ``setup`` and ``wall`` are at reference speed and
    ``raw_wall`` is the host wall as measured."""
    m0 = probe.mark() if probe else 0
    inputs, raw_setup = timed(w.build, size)
    m1 = probe.mark() if probe else 0
    result, raw_wall = timed(w.execute, inputs)
    setup, wall = raw_setup, raw_wall
    if probe:
        m2 = probe.mark()
        setup = probe.scaled(m0, m1, raw_setup, around=(m0, m2))
        wall = probe.scaled(m1, m2, raw_wall)
    attempted, ok, chunks = w.count(inputs, result)
    out = {
        "setup": setup, "wall": wall, "raw_wall": raw_wall,
        "attempted": attempted, "ok": ok,
        "chunks": chunks, "fingerprint": w.fingerprint(result),
        "outputs": w.outputs(inputs),
    }
    if detail:
        out["digest"], out["virtual"] = w.detail(inputs, result)
    w.cleanup(inputs)
    return out


def run_end_to_end(w, seconds: float, checks: Checks) -> dict:
    from workloads import FULL, QUARTER

    reps = []
    probe = SpeedProbe()
    start = time.perf_counter()
    probe.start()
    try:
        while more(reps, start, seconds):
            gc.collect()
            quarter = unit(w, QUARTER, probe=probe)
            gc.collect()
            full = unit(w, FULL, detail=not reps, probe=probe)
            reps.append((quarter, full))
    finally:
        probe.stop()
    rss = peak_rss_mb()

    first_q, first = reps[0]
    for i, (q, f) in enumerate(reps[1:], 1):
        checks.expect(f["fingerprint"] == first["fingerprint"]
                      and q["fingerprint"] == first_q["fingerprint"],
                      f"repetition {i} diverged from repetition 0 (virtual outcome)")
        checks.expect(f["outputs"] == first["outputs"]
                      and q["outputs"] == first_q["outputs"],
                      f"repetition {i} wrote different output arrays")
    mismatches = 0
    if first["outputs"] is not None:
        for rep in reps:
            for u in rep:
                oracle = w.oracle(len(u["outputs"]))
                mismatches += sum(a != b for a, b in zip(u["outputs"], oracle))
        checks.expect(mismatches == 0,
                      f"{mismatches} request outputs differ from the serial oracle")
    attempted = sum(q["attempted"] + f["attempted"] for q, f in reps)
    not_ok = sum(q["attempted"] - q["ok"] + f["attempted"] - f["ok"] for q, f in reps)
    checks.expect(not_ok == 0, f"{not_ok} of {attempted} requests did not complete")

    virtual = first["virtual"]
    metrics = {
        "serve_rps": median([f["ok"] / f["wall"] for _, f in reps]),
        "serve_scaling_exponent": median(
            [math.log(f["wall"] / q["wall"]) / math.log(4) for q, f in reps]
        ),
        "chunks_per_s": median([f["chunks"] / f["wall"] for _, f in reps]),
        "setup_s": median([q["setup"] + f["setup"] for q, f in reps]),
        "peak_rss_mb": rss,
    }
    metrics.update({k: virtual[k] for k in VIRTUAL_KEYS})
    return {
        "metrics": metrics,
        "digest": first["digest"],
        "virtual": virtual,
        "reps": len(reps),
        "units": first["attempted"],
        "attempted": attempted,
        "failed": not_ok + mismatches,
        "walls": [f["wall"] for _, f in reps],
        "raw_walls": [f["raw_wall"] for _, f in reps],
        "probe_us": probe.speed() * 1e6,
        "probes": probe.mark(),
    }


# ----------------------------------------------------------------------
# traced run
# ----------------------------------------------------------------------
def run_traced(w, seconds: float, checks: Checks, spans_path: Path) -> dict:
    from layers import LAYERS, LayerTracer
    from workloads import FULL

    tracer = LayerTracer()
    totals = {"layer_self_s": dict.fromkeys(LAYERS, 0.0), "root_s": 0.0, "parse_s": 0.0}
    untraced, traced = [], []
    reference = None
    start = time.perf_counter()
    while more(traced, start, seconds, least=1):
        gc.collect()
        base = unit(w, FULL, detail=True)
        if reference is None:
            reference = base
        checks.expect(base["digest"] == reference["digest"],
                      "untraced repetitions disagree on the digest")
        untraced.append(base["wall"])

        gc.collect()
        tracer.install()
        tracer.reset()
        tracer.on = True
        try:
            inputs = w.build(FULL)
            setup_spans = len(tracer)
            tracer.region_ids = {id(r): i for i, r in enumerate(w.regions(inputs))}
            result, wall = timed(w.execute, inputs)
        finally:
            tracer.on = False
            tracer.uninstall()
        traced.append(wall)
        digest, virtual = w.detail(inputs, result)
        checks.expect(digest == reference["digest"],
                      "traced run's digest differs from the untraced run's")
        checks.expect(all(virtual[k] == reference["virtual"][k] for k in virtual),
                      "traced run's virtual metrics differ from the untraced run's")
        checks.expect(w.outputs(inputs) == reference["outputs"],
                      "traced run wrote different output arrays")
        w.cleanup(inputs)
        del inputs, result

        summary = tracer.summary(first=setup_spans, roots=w.roots)
        setup_summary = tracer.summary(last=setup_spans)
        for layer, s in summary["layer_self_s"].items():
            totals["layer_self_s"][layer] += s
        totals["root_s"] += summary["root_s"]
        totals["parse_s"] += setup_summary["name_self_s"].get("TargetRegion.parse", 0.0)
        checks.expect(summary["unrooted"] == 0,
                      f"{summary['unrooted']} spans outside the measured roots")

    tracer.write(str(spans_path), {"workload": w.name, "seed": w.seed,
                                   "setup_spans": setup_spans})

    # retained memory: tracemalloc from after set-up until after the run,
    # with the result (and the scheduler) still alive
    gc.collect()
    inputs = w.build(FULL)
    tracemalloc.start()
    result = w.execute(inputs)
    gc.collect()
    retained = tracemalloc.get_traced_memory()[0]
    tracemalloc.stop()
    w.cleanup(inputs)
    del inputs, result

    n = len(traced)
    v = reference["virtual"]
    calls = summary["calls"]

    def count(*names):
        return sum(calls.get(name, 0) for name in names)

    def self_s(layer):
        return totals["layer_self_s"][layer] / n

    def share(layer):
        return totals["layer_self_s"][layer] / totals["root_s"]

    from layers import BOUNDARIES

    layer_names = {}
    for _mod, owner, attrs, layer in BOUNDARIES:
        for attr in attrs:
            layer_names.setdefault(layer, []).append(f"{owner}.{attr}" if owner else attr)
    engine_cmds = count("Simulator.enqueue")
    metrics = {
        "plan.self_s": self_s("plan"),
        "plan.share": share("plan"),
        "plan.calls": count(*layer_names["plan"]),
        "plan.device_bytes_calls": count("RegionPlan.device_bytes"),
        "parse.self_s": totals["parse_s"] / n,
        "plan.autotune_dry_runs": v["dry_runs"],
        "plan.cache_hit_rate": v["cache_hit_rate"],
        "control.self_s": self_s("control"),
        "control.share": share("control"),
        "control.pool_calls": count("DevicePool.fits", "DevicePool.headroom",
                                    "DevicePool.reserve", "DevicePool.release"),
        "control.queue_wait_p50_s": v["queue_wait_p50_s"],
        "control.overtaken": v["overtaken"],
        "issuer.self_s": self_s("issuer"),
        "issuer.share": share("issuer"),
        "issuer.issue_next_calls": count("PipelineIssuer.issue_next",
                                         "ShardedIssuer.issue_next"),
        "issuer.chunks": reference["chunks"],
        "issuer.retries": v["retries"],
        "runtime.self_s": self_s("runtime"),
        "runtime.share": share("runtime"),
        "runtime.api_calls": count(*layer_names["runtime"]),
        "runtime.sync_calls": count("Runtime.stream_synchronize",
                                    "Runtime.event_synchronize",
                                    "Runtime.synchronize"),
        "engine.self_s": self_s("engine"),
        "engine.share": share("engine"),
        "engine.commands": engine_cmds,
        "engine.host_us_per_command": (
            self_s("engine") / engine_cmds * 1e6 if engine_cmds else 0.0
        ),
        "kernels.self_s": self_s("kernels"),
        "kernels.share": share("kernels"),
        "kernels.calls": count("RegionKernel.run"),
        "journal.self_s": self_s("journal"),
        "journal.share": share("journal"),
        "journal.records": count("JournalWriter.append"),
        "telemetry.self_s": self_s("telemetry"),
        "telemetry.share": share("telemetry"),
        "telemetry.frames": v["telemetry_frames"],
        "integrity.self_s": self_s("integrity"),
        "integrity.share": share("integrity"),
        "integrity.verified": v["verified"],
        "recorder.self_s": self_s("recorder"),
        "recorder.share": share("recorder"),
        "recorder.events": count("FlightRecorder.record"),
        "memory.retained_kb_per_request": retained / 1024 / reference["attempted"],
        "device.h2d_busy_s": v["h2d_busy_s"],
        "device.d2h_busy_s": v["d2h_busy_s"],
        "device.kernel_busy_s": v["kernel_busy_s"],
        # per interleaved pair, so a slow spell of the host hits both sides
        "trace.overhead_share": median([t / u - 1 for t, u in zip(traced, untraced)]),
    }
    share_sum = sum(share(layer) for layer in LAYERS)
    checks.expect(abs(share_sum - 1.0) < 1e-6,
                  f"layer shares sum to {share_sum!r}, not 1")
    return {
        "metrics": metrics,
        "share_sum": share_sum,
        "reps": n,
        "attempted": reference["attempted"] * n,
        "failed": reference["attempted"] * n - reference["ok"] * n,
        "untraced_wall": median(untraced),
        "traced_wall": median(traced),
        "digest": reference["digest"],
    }


def with_units(metrics: dict, kind: str) -> dict:
    """``{name: {"value", "unit"}}`` with the units ``BENCHMARK.json``
    declares for ``kind`` (``end_to_end`` or ``per_layer``); the names
    must be exactly the declared ones."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec[kind]}
    if set(metrics) != set(units):
        raise RuntimeError(f"{kind} metrics differ from BENCHMARK.json: "
                           f"{sorted(set(metrics) ^ set(units))}")
    return {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}


# ----------------------------------------------------------------------
# main
# ----------------------------------------------------------------------
def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["serve-batch", "region-stream", "serve-guarded"])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0,
                   help="how long to keep repeating the measured workload")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--pin", action="store_true",
                   help="record this seed's digest in pins.json and exit")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources are missing ({SRC}/repro)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from workloads import FULL, WORKLOADS

    scratch = ROOT / ".perfbench" / f"run-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        w = WORKLOADS[args.workload](args.seed, str(scratch))
        if args.pin:
            inputs = w.build(FULL)
            digest, _ = w.detail(inputs, w.execute(inputs))
            w.cleanup(inputs)
            pins = json.loads(PINS.read_text()) if PINS.is_file() else {}
            pins.setdefault(args.workload, {})[str(args.seed)] = digest
            PINS.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
            print(f"pinned {args.workload} seed {args.seed}: {digest}")
            return 0

        env = environment()
        print(f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
              f"trace={args.trace}")
        print("# " + " ".join(f"{k}={v}" for k, v in env.items()), flush=True)
        w.warmup()
        checks = Checks()
        if args.trace:
            res = run_traced(w, args.seconds, checks,
                             ROOT / ".perfbench" / f"spans-{args.workload}.jsonl.gz")
            metrics = with_units(res["metrics"], "per_layer")
            print(f"traced reps={res['reps']} untraced wall={res['untraced_wall']:.4f} s "
                  f"traced wall={res['traced_wall']:.4f} s "
                  f"layer shares sum={res['share_sum']:.9f}")
        else:
            res = run_end_to_end(w, args.seconds, checks)
            metrics = with_units(res["metrics"], "end_to_end")
            v = res["virtual"]
            print(f"reps={res['reps']} units per rep={res['units']} walls at reference "
                  "speed=" + ",".join(f"{x:.3f}" for x in res["walls"])
                  + " host walls=" + ",".join(f"{x:.3f}" for x in res["raw_walls"]))
            print(f"speed probe: {res['probes']} probes, speed {res['probe_us']:.1f} us "
                  f"(reference {REFERENCE_S * 1e6:.1f} us)")
            print(f"virtual_latency_tail_s is p{v['tail_percentile']:g} of "
                  f"n={v['tail_n']} latencies")
            print(f"failed_share {res['failed'] / res['attempted']:.6f} ratio "
                  f"(failed={res['failed']} attempted={res['attempted']})")
        print(f"digest {res['digest']} ({checks.pinned(args.workload, args.seed, res['digest'])})")
        for name, m in metrics.items():
            print(f"{name:34s} {m['value']:.9g} {m['unit']}")
        print(json.dumps({
            "correct": not checks.failures,
            "attempted": int(res["attempted"]),
            "failed": int(res["failed"]),
            "metrics": metrics,
        }), flush=True)
        return 0 if not checks.failures else 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
