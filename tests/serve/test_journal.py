"""Write-ahead journal and crash-resume for the serve layer.

The durability contract pinned here:

* every flight-recorder event becomes one canonical, fsync-modelled
  journal line, and a crashed journal is a verbatim prefix of the
  uninterrupted one;
* ``RegionScheduler.resume`` rebuilds the run by **verified replay** —
  each regenerated record is byte-compared against the stored prefix,
  so a journal from a different config, workload, or build cannot be
  silently resumed;
* resuming after a host crash at *any* record index produces a report
  (and, in real mode, per-request outputs) **byte-identical** to the
  uninterrupted run, with completed requests never re-executed
  (exactly-once via journal dedup);
* a journal of another format is rejected by name, never replayed.
"""

from __future__ import annotations

import json
import os
from dataclasses import replace

import numpy as np
import pytest

from repro.faults import FaultPlan, HostCrashError, pool_fault_plans
from repro.obs import SLO
from repro.serve import (
    DevicePool,
    JournalError,
    JournalReader,
    JournalWriter,
    RegionScheduler,
    ServeConfig,
    build_request,
    output_store_path,
    random_workload,
)
from repro.serve.journal import JOURNAL_FORMAT, encode_record

HEADER = {"kind": "journal.header", "format": JOURNAL_FORMAT}


def _write(path, records):
    w = JournalWriter(str(path))
    for rec in records:
        w.append(rec)
    w.close()
    return w


# ----------------------------------------------------------------------
# file layer: writer / reader
# ----------------------------------------------------------------------
class TestJournalFile:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "j.journal"
        recs = [HEADER, {"kind": "a", "x": 1}, {"kind": "b", "t": 0.5}]
        w = _write(path, recs)
        assert w.records == 3 and w.fsyncs == 3
        r = JournalReader(str(path))
        assert len(r.records) == 3 and r.dropped == 0
        for i, rec in enumerate(r.records):
            assert rec["i"] == i
            assert encode_record(rec) == r.lines[i]
        assert r.records[1]["x"] == 1
        assert not r.complete_run

    def test_torn_tail_is_dropped(self, tmp_path):
        path = tmp_path / "j.journal"
        _write(path, [HEADER, {"kind": "a"}])
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"i":2,"kind":"torn","half"')  # crash mid-write
        r = JournalReader(str(path))
        assert len(r.records) == 2
        assert r.dropped == 1

    def test_gapped_index_ends_prefix(self, tmp_path):
        path = tmp_path / "j.journal"
        lines = [
            encode_record({"i": 0, **HEADER}),
            encode_record({"i": 1, "kind": "a"}),
            encode_record({"i": 3, "kind": "b"}),  # skipped 2
            encode_record({"i": 4, "kind": "c"}),
        ]
        path.write_text("\n".join(lines) + "\n")
        r = JournalReader(str(path))
        assert len(r.records) == 2
        assert r.dropped == 2

    def test_non_canonical_line_treated_as_torn(self, tmp_path):
        path = tmp_path / "j.journal"
        ok = encode_record({"i": 0, **HEADER})
        loose = json.dumps({"i": 1, "kind": "a"}, indent=1).replace("\n", " ")
        path.write_text(ok + "\n" + loose + "\n")
        r = JournalReader(str(path))
        assert len(r.records) == 1
        assert r.dropped == 1

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(JournalError, match="no journal"):
            JournalReader(str(tmp_path / "absent.journal"))

    def test_empty_file_raises(self, tmp_path):
        path = tmp_path / "j.journal"
        path.write_text("")
        with pytest.raises(JournalError, match="no valid records"):
            JournalReader(str(path))

    def test_headerless_journal_raises(self, tmp_path):
        path = tmp_path / "j.journal"
        path.write_text(encode_record({"i": 0, "kind": "a"}) + "\n")
        with pytest.raises(JournalError, match="journal.header"):
            JournalReader(str(path))

    @pytest.mark.parametrize(
        "fmt", [JOURNAL_FORMAT - 1, JOURNAL_FORMAT + 1], ids=["older", "newer"]
    )
    def test_format_mismatch_raises(self, tmp_path, fmt):
        path = tmp_path / "j.journal"
        header = {"i": 0, "kind": "journal.header", "format": fmt}
        if fmt < JOURNAL_FORMAT:
            # a format-3 header still carried the knobs since turned into
            # constants (``max_streams`` among them), a config this build
            # never writes: the format check must reject it before replay
            # could report a confusing record-0 divergence
            header["config"] = {"autotune": True, "max_streams": 4}
        path.write_text(encode_record(header) + "\n")
        with pytest.raises(JournalError, match=f"has format {fmt};"):
            JournalReader(str(path))

    def test_verify_mode_accepts_matching_prefix(self, tmp_path):
        path = tmp_path / "j.journal"
        _write(path, [HEADER, {"kind": "a"}])
        stored = JournalReader(str(path)).lines
        w = JournalWriter(str(path), resume_lines=stored)
        w.append(HEADER)
        w.append({"kind": "a"})
        w.append({"kind": "b"})  # past the prefix: plain append
        w.close()
        assert w.verified == 2 and w.records == 3

    def test_verify_mode_rejects_divergence(self, tmp_path):
        path = tmp_path / "j.journal"
        _write(path, [HEADER, {"kind": "a"}])
        stored = JournalReader(str(path)).lines
        w = JournalWriter(str(path), resume_lines=stored)
        w.append(HEADER)
        with pytest.raises(JournalError, match="divergence at record 1"):
            w.append({"kind": "DIFFERENT"})

    def test_crash_fires_after_durable_write(self, tmp_path):
        path = tmp_path / "j.journal"
        w = JournalWriter(str(path), crash_after_events=2)
        w.append(HEADER)
        with pytest.raises(HostCrashError) as exc:
            w.append({"kind": "a"})
        assert exc.value.records == 2
        assert w.closed
        # the triggering record hit the disk before the crash
        assert len(path.read_text().splitlines()) == 2
        w.append({"kind": "ignored"})  # closed writer: no-op, no raise
        assert w.records == 2


# ----------------------------------------------------------------------
# config validation (each bad knob names its field)
# ----------------------------------------------------------------------
class TestConfigValidation:
    @pytest.mark.parametrize(
        "kw, field",
        [
            ({"max_active": 0}, "max_active"),
            ({"aging_every": 0}, "aging_every"),
            ({"slos": ["tenant0"]}, "slos"),
            ({"slos": {"tenant0": {"target": 7}}}, "slos"),
            ({"max_request_retries": -1}, "max_request_retries"),
            ({"breaker_threshold": 0}, "breaker_threshold"),
            ({"breaker_window": 0.0}, "breaker_window"),
            ({"breaker_cooldown": -0.1}, "breaker_cooldown"),
            ({"max_waiting": 0}, "max_waiting"),
            ({"flight_recorder_capacity": 0}, "flight_recorder_capacity"),
            ({"telemetry_window": 0.0}, "telemetry_window"),
            ({"crash_after_events": 0}, "crash_after_events"),
        ],
    )
    def test_bad_knob_rejected_naming_field(self, kw, field):
        from repro.errors import InvalidValueError

        with pytest.raises(InvalidValueError, match=field):
            ServeConfig(**kw)

    def test_crash_knob_in_fault_plan_validates_too(self):
        from repro.errors import InvalidValueError

        with pytest.raises(InvalidValueError, match="crash_after_events"):
            FaultPlan(crash_after_events=0)
        # the host-crash trigger alone installs no device injectors
        assert not FaultPlan(crash_after_events=3).active


# ----------------------------------------------------------------------
# scheduler integration: journalled runs
# ----------------------------------------------------------------------
def _serve(requests, *, devices=1, virtual=True, config=None, plans=None):
    pool = DevicePool("k40m", count=devices, virtual=virtual)
    if plans is not None:
        pool.install_faults(plans)
    sched = RegionScheduler(pool, config)
    sched.submit_all(requests)
    report = sched.run()
    assert pool.reserved == [0] * devices
    pool.close()
    return report


def _dump(report):
    return json.dumps(report.to_dict(), sort_keys=True)


class TestJournalledServe:
    def test_journal_changes_nothing_observable(self, tmp_path):
        path = str(tmp_path / "serve.journal")
        plain = _serve(random_workload(seed=5, n=4))
        journalled = _serve(
            random_workload(seed=5, n=4),
            config=ServeConfig(journal_path=path),
        )
        # fsync-modelled at zero virtual-time cost: byte-identical report
        assert _dump(plain) == _dump(journalled)
        # ... and the journal surface rides outside to_dict()
        assert "journal" not in journalled.to_dict()
        assert journalled.journal["records"] > 0
        assert journalled.journal["fsyncs"] == journalled.journal["records"]
        assert "journal" in journalled.summary()
        assert "resumed=0" in journalled.summary()

    def test_journal_structure(self, tmp_path):
        path = str(tmp_path / "serve.journal")
        n = 3
        report = _serve(
            random_workload(seed=7, n=n),
            config=ServeConfig(journal_path=path),
        )
        r = JournalReader(path)
        assert r.dropped == 0
        assert r.complete_run
        assert len(r.records) == report.journal["records"]
        hdr = r.header
        assert hdr["devices"] == ["NVIDIA Tesla K40m"]
        assert hdr["virtual"] is True
        assert "config" in hdr and "journal_path" not in hdr["config"]
        assert sorted(r.submits) == list(range(n))
        done = r.completed
        assert sorted(done) == list(range(n))
        for seq, state in done.items():
            assert state["status"] == "ok"
            assert state["request_id"] == seq

    def test_pool_crash_plan_without_journal_is_inert(self):
        # hostcrash only bites when a journal exists to crash against
        report = _serve(
            random_workload(seed=3, n=2),
            plans=pool_fault_plans("hostcrash", seed=0),
        )
        assert report.ok


# ----------------------------------------------------------------------
# crash + resume
# ----------------------------------------------------------------------
def _crash_run(requests, path, k, *, devices=1, virtual=True, config=None):
    """Run under crash injection; returns True if the crash fired."""
    pool = DevicePool("k40m", count=devices, virtual=virtual)
    try:
        sched = RegionScheduler(
            pool,
            replace(
                config or ServeConfig(), journal_path=path, crash_after_events=k
            ),
        )
        sched.submit_all(requests)
        sched.run()
        return False
    except HostCrashError:
        return True
    finally:
        pool.close()


def _resume_run(path, requests, *, devices=1, virtual=True, config=None):
    pool = DevicePool("k40m", count=devices, virtual=virtual)
    sched = RegionScheduler.resume(
        path, pool, requests, config=config or ServeConfig()
    )
    report = sched.run()
    assert pool.reserved == [0] * devices  # zero reservation leaks
    pool.close()
    return report


#: a latency objective every request of ``random_workload(seed=9, n=3)``
#: misses (each takes ~3.8 ms), so the SLO engine emits ``slo.*`` events
_TIGHT_SLOS = {
    f"tenant{i}": SLO(target=0.99, latency_s=1e-3) for i in range(3)
}


class TestCrashResume:
    @pytest.mark.parametrize(
        "config",
        [ServeConfig(), ServeConfig(telemetry=True, slos=_TIGHT_SLOS)],
        ids=["plain", "telemetry-slo"],
    )
    def test_crash_at_every_index_resumes_byte_identical(
        self, tmp_path, config
    ):
        path = str(tmp_path / "serve.journal")

        def reqs():
            return random_workload(seed=9, n=3)

        base = _serve(reqs(), config=replace(config, journal_path=path))
        want = _dump(base)
        total = base.journal["records"]
        assert total > 10
        kinds = {rec["kind"] for rec in JournalReader(path).records}
        if config.slos:
            # SLO transitions are journalled; progress telemetry is not
            assert any(kind.startswith("slo.") for kind in kinds)
            assert not kinds & {"chunk.issue", "telemetry.window"}
            assert base.telemetry
        for k in range(1, total + 1):
            assert _crash_run(reqs(), path, k, config=config), (
                f"k={k} never crashed"
            )
            report = _resume_run(path, reqs(), config=config)
            assert _dump(report) == want, f"diverged resuming from k={k}"
            assert report.telemetry == base.telemetry, f"telemetry k={k}"
            j = report.journal
            assert j["resumed"] == 1
            assert j["replayed"] == k  # every durable record re-verified
            assert j["records"] == total  # tail regenerated in full

    def test_crash_late_real_mode_restores_outputs_exactly_once(
        self, tmp_path
    ):
        path = str(tmp_path / "serve.journal")

        def reqs():
            return random_workload(seed=3, n=3, virtual=False)

        baseline = reqs()
        base = _serve(baseline, virtual=False,
                      config=ServeConfig(journal_path=path))
        assert base.ok
        total = base.journal["records"]
        assert os.path.isdir(output_store_path(path))

        k = total - 1  # all requests done; only run.end is lost
        assert _crash_run(reqs(), path, k, virtual=False)
        resumed = reqs()
        report = _resume_run(path, resumed, virtual=False)
        assert _dump(report) == _dump(base)
        j = report.journal
        assert j["deduped"] == 3  # completed requests never re-executed
        assert j["reexecuted"] == 0
        # the sidecar store handed back bit-exact outputs
        for b, r in zip(baseline, resumed):
            for name in b.arrays:
                assert np.array_equal(b.arrays[name], r.arrays[name]), (
                    f"{b.tenant}:{name} diverged across crash-resume"
                )

    def test_crash_midway_real_mode_sampled_indices(self, tmp_path):
        path = str(tmp_path / "serve.journal")

        def reqs():
            return random_workload(seed=3, n=2, virtual=False)

        base = _serve(reqs(), virtual=False,
                      config=ServeConfig(journal_path=path))
        total = base.journal["records"]
        for k in (1, total // 2, total):
            assert _crash_run(reqs(), path, k, virtual=False)
            report = _resume_run(path, reqs(), virtual=False)
            assert _dump(report) == _dump(base), f"diverged at k={k}"
            assert report.journal["reexecuted"] == 0

    def test_resume_complete_journal_is_pure_replay(self, tmp_path):
        path = str(tmp_path / "serve.journal")

        def reqs():
            return random_workload(seed=9, n=3)

        base = _serve(
            reqs(), config=ServeConfig(journal_path=path)
        )
        report = _resume_run(path, reqs())
        assert _dump(report) == _dump(base)
        j = report.journal
        assert j["replayed"] == base.journal["records"]
        assert j["deduped"] == 3

    def test_crash_under_device_chaos_still_resumes_identical(self, tmp_path):
        # host crash layered on device-level faults: the journal replays
        # the fault timeline too (injection is seed-deterministic)
        path = str(tmp_path / "serve.journal")

        def once(crash):
            pool = DevicePool("k40m", count=2, virtual=True)
            pool.install_faults(pool_fault_plans("failover", seed=1, count=2))
            cfg = ServeConfig(journal_path=path, crash_after_events=crash)
            try:
                sched = RegionScheduler(pool, cfg)
                sched.submit_all(random_workload(seed=13, n=3))
                return sched.run()
            finally:
                pool.close()

        base = once(None)
        with pytest.raises(HostCrashError):
            once(base.journal["records"] // 2)
        pool = DevicePool("k40m", count=2, virtual=True)
        pool.install_faults(pool_fault_plans("failover", seed=1, count=2))
        sched = RegionScheduler.resume(
            path, pool, random_workload(seed=13, n=3),
            config=ServeConfig(),
        )
        report = sched.run()
        assert pool.reserved == [0, 0]
        pool.close()
        assert _dump(report) == _dump(base)

    def test_resume_ignores_pool_crash_plan(self, tmp_path):
        # the crashed pool's hostcrash plan must not re-arm on resume,
        # or the run would crash at the same index forever
        path = str(tmp_path / "serve.journal")

        def pool_with_crash():
            pool = DevicePool("k40m", virtual=True)
            pool.install_faults(pool_fault_plans("hostcrash", seed=0))
            return pool

        pool = pool_with_crash()
        with pytest.raises(HostCrashError):
            sched = RegionScheduler(
                pool, ServeConfig(journal_path=path)
            )
            sched.submit_all(random_workload(seed=9, n=3))
            sched.run()
        pool.close()

        pool = pool_with_crash()
        sched = RegionScheduler.resume(
            path, pool, random_workload(seed=9, n=3),
            config=ServeConfig(),
        )
        report = sched.run()
        pool.close()
        assert report.ok and report.journal["resumed"] == 1

    def test_resume_rejects_workload_mismatch(self, tmp_path):
        path = str(tmp_path / "serve.journal")
        _serve(random_workload(seed=9, n=3),
               config=ServeConfig(journal_path=path))
        pool = DevicePool("k40m", virtual=True)
        wrong = random_workload(seed=9, n=3)
        wrong[1] = build_request("qcd", tenant="intruder", config={"n": 5})
        with pytest.raises(JournalError, match="workload mismatch"):
            RegionScheduler.resume(path, pool, wrong)
        pool.close()

    def test_resume_rejects_short_workload(self, tmp_path):
        path = str(tmp_path / "serve.journal")
        _serve(random_workload(seed=9, n=3),
               config=ServeConfig(journal_path=path))
        pool = DevicePool("k40m", virtual=True)
        with pytest.raises(JournalError, match="journal knows request"):
            RegionScheduler.resume(path, pool, random_workload(seed=9, n=2))
        pool.close()

    def test_resume_rejects_config_mismatch(self, tmp_path):
        # a different policy would re-simulate a different timeline;
        # the header byte-compare refuses before any work happens
        path = str(tmp_path / "serve.journal")
        _serve(random_workload(seed=9, n=3),
               config=ServeConfig(journal_path=path))
        pool = DevicePool("k40m", virtual=True)
        with pytest.raises(JournalError, match="divergence at record 0"):
            RegionScheduler.resume(
                path, pool, random_workload(seed=9, n=3),
                config=ServeConfig(max_active=1),
            )
        pool.close()

    def test_resume_detects_tampered_record(self, tmp_path):
        path = str(tmp_path / "serve.journal")
        _serve(random_workload(seed=9, n=3),
               config=ServeConfig(journal_path=path))
        lines = open(path, encoding="utf-8").read().splitlines()
        # forge a canonical-but-wrong record mid-journal (a torn line
        # would be healed; a forged one must be refused)
        idx = next(i for i, ln in enumerate(lines)
                   if '"t":' in ln and i > 1)
        rec = json.loads(lines[idx])
        rec["t"] = rec["t"] + 1.0
        lines[idx] = encode_record(rec)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        pool = DevicePool("k40m", virtual=True)
        with pytest.raises(JournalError, match="divergence"):
            sched = RegionScheduler.resume(
                path, pool, random_workload(seed=9, n=3)
            )
            sched.run()
        pool.close()

    def test_torn_tail_is_healed_by_resume(self, tmp_path):
        path = str(tmp_path / "serve.journal")

        def reqs():
            return random_workload(seed=9, n=3)

        base = _serve(
            reqs(), config=ServeConfig(journal_path=path)
        )
        want = open(path, encoding="utf-8").read()
        assert _crash_run(reqs(), path, 6)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"i":6,"kind":"request.adm')  # torn mid-write
        report = _resume_run(path, reqs())
        assert _dump(report) == _dump(base)
        # the healed journal is byte-identical to the uninterrupted one
        assert open(path, encoding="utf-8").read() == want
