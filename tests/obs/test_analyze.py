"""Critical-path analyzer: exactness, attribution, bounds, snapshots.

The acceptance invariants of the analysis engine, checked on all four
paper applications under the pipelined-buffer model:

* the per-chunk wait breakdown **sums exactly to wall time** (1e-9),
* the critical-path length equals the simulated makespan,
* the perfect-overlap bound never exceeds the measured wall,
* segments partition the window: contiguous, non-overlapping, gapless,
* analysis snapshots are byte-stable across runs and survive a
  round-trip through the regression-gate diff.
"""

from __future__ import annotations

import json

import pytest

from repro.obs import analyze_result
from repro.obs.analyze import diff_analyses, round_floats, write_analysis
from repro.obs.analyze.critpath import extract_critical_path
from repro.obs.intervals import union_length


def _run(app):
    if app == "stencil":
        from repro.apps import stencil as st

        return st.run_model(
            "pipelined-buffer",
            st.StencilConfig(nz=16, ny=64, nx=64, iters=2),
            virtual=True,
        )
    if app == "3dconv":
        from repro.apps import conv3d as cv

        return cv.run_model(
            "pipelined-buffer", cv.Conv3dConfig(nz=16, ny=64, nx=64),
            virtual=True,
        )
    if app == "qcd":
        from repro.apps import qcd as qc

        return qc.run_model("pipelined-buffer", qc.QcdConfig(), virtual=True)
    from repro.apps import matmul as mm

    return mm.run_model(
        "pipeline-buffer", mm.MatmulConfig(n=48, block=8), virtual=True
    )


APPS = ("stencil", "3dconv", "qcd", "matmul")


@pytest.fixture(scope="module", params=APPS)
def analysis(request):
    return analyze_result(_run(request.param))


class TestInvariants:
    def test_breakdown_sums_to_wall(self, analysis):
        assert sum(analysis.causes.values()) == pytest.approx(
            analysis.wall, abs=1e-9
        )
        assert analysis.breakdown.total == pytest.approx(
            analysis.wall, abs=1e-9
        )

    def test_critical_path_length_equals_makespan(self, analysis):
        assert analysis.path.length == pytest.approx(
            analysis.makespan, abs=1e-9
        )

    def test_perfect_overlap_bound_below_wall(self, analysis):
        bound = analysis.what_if["perfect_overlap"]["bound_s"]
        assert 0.0 < bound <= analysis.wall + 1e-12

    def test_segments_partition_window(self, analysis):
        segs = analysis.path.segments
        assert segs[0].start == pytest.approx(analysis.t0, abs=1e-12)
        assert segs[-1].end == pytest.approx(analysis.t_end, abs=1e-12)
        for a, b in zip(segs, segs[1:]):
            assert b.start == pytest.approx(a.end, abs=1e-12)
            assert a.duration >= 0.0

    def test_chunk_totals_sum_to_wall_too(self, analysis):
        # grouping by chunk is the same partition grouped differently
        assert sum(analysis.breakdown.chunk_totals().values()) == pytest.approx(
            analysis.wall, abs=1e-9
        )

    def test_every_exec_segment_carries_a_chunk_or_region(self, analysis):
        for seg in analysis.path.segments:
            if seg.cmd is not None and seg.cmd.kind in ("h2d", "d2h", "kernel"):
                # chunked commands are tagged; resident staging is None
                assert seg.cmd.chunk is None or seg.cmd.chunk >= 0


class TestSnapshot:
    def test_to_dict_is_json_safe_and_stable(self, analysis):
        a = json.dumps(analysis.to_dict(), sort_keys=True)
        b = json.dumps(analysis.to_dict(), sort_keys=True)
        assert a == b

    def test_two_runs_snapshot_identically(self):
        a = analyze_result(_run("stencil")).to_dict()
        b = analyze_result(_run("stencil")).to_dict()
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_write_analysis_round_trips(self, analysis, tmp_path):
        p = tmp_path / "analysis.json"
        snap = analysis.to_dict()
        write_analysis(snap, str(p))
        assert json.loads(p.read_text()) == snap

    def test_round_floats_kills_negative_zero(self):
        out = round_floats({"x": -0.0, "y": [1e-13, 2.5], "z": "s"})
        assert repr(out["x"]) == "0.0"
        assert out["y"] == [0.0, 2.5]
        assert out["z"] == "s"


class TestDiff:
    def test_identical_snapshots_pass(self, analysis):
        snap = analysis.to_dict()
        d = diff_analyses(snap, snap)
        assert d.ok
        assert "no regression" in d.report()

    def test_wall_growth_beyond_tolerance_regresses(self, analysis):
        base = analysis.to_dict()
        slow = json.loads(json.dumps(base))
        slow["wall_s"] = base["wall_s"] * 1.5
        d = diff_analyses(base, slow, tolerance=0.05)
        assert not d.ok
        assert any("wall" in r for r in d.regressions)
        assert "REGRESSION" in d.report()

    def test_growth_within_tolerance_passes(self, analysis):
        base = analysis.to_dict()
        near = json.loads(json.dumps(base))
        near["wall_s"] = base["wall_s"] * 1.01
        assert diff_analyses(base, near, tolerance=0.05).ok

    def test_tiny_category_doubling_does_not_trip(self, analysis):
        # the budget is a fraction of *wall*, not of the category
        base = analysis.to_dict()
        new = json.loads(json.dumps(base))
        new["causes"] = dict(new["causes"])
        new["causes"]["exec.other"] = base["wall_s"] * 1e-6
        assert diff_analyses(base, new, tolerance=0.05).ok


class TestEmptyAndReport:
    def test_no_commands_raises(self):
        from types import SimpleNamespace

        res = SimpleNamespace(commands=[])
        with pytest.raises(ValueError, match="no retired commands"):
            analyze_result(res)

    def test_empty_window_path(self):
        path = extract_critical_path([], 0.0, 0.0)
        assert path.segments == [] and path.length == 0.0

    def test_empty_commands_nonzero_window_is_all_host(self):
        path = extract_critical_path([], 0.0, 1.0)
        assert len(path.segments) == 1
        seg = path.segments[0]
        assert (seg.start, seg.end, seg.edge) == (0.0, 1.0, "api")

    def test_report_mentions_key_sections(self, analysis):
        text = analysis.report()
        assert "critical-path analysis" in text
        assert "where the wall time went" in text
        assert "what-if bounds" in text
        assert "(= wall)" in text


class TestIntervalUnion:
    def test_matches_sweep_line_reference(self):
        import random

        rnd = random.Random(7)
        for _ in range(200):
            ivs = []
            for _ in range(rnd.randrange(0, 12)):
                lo = rnd.uniform(0, 10)
                ivs.append((lo, lo + rnd.uniform(-0.5, 3)))
            # independent exact reference: endpoint sweep with a
            # coverage counter
            events = []
            for lo, hi in ivs:
                if hi > lo:
                    events += [(lo, 1), (hi, -1)]
            events.sort()
            depth, prev, ref = 0, 0.0, 0.0
            for t, d in events:
                if depth > 0:
                    ref += t - prev
                depth += d
                prev = t
            assert union_length(list(ivs)) == pytest.approx(ref, abs=1e-12)

    def test_equivalent_to_timeline_overlap(self):
        # the shared helper must reproduce overlap_fraction exactly —
        # it replaced two private copies of the same merge
        from repro.sim.trace import overlap_fraction

        res = _run("stencil")
        assert overlap_fraction(res.timeline) == pytest.approx(
            analyze_result(res).overlap, abs=1e-15
        )

    def test_degenerate_inputs(self):
        assert union_length([]) == 0.0
        assert union_length([(1.0, 1.0)]) == 0.0
        assert union_length([(2.0, 1.0)]) == 0.0
        assert union_length([(0, 1), (1, 2)]) == pytest.approx(2.0)
        assert union_length([(0, 2), (1, 3)]) == pytest.approx(3.0)


class TestFlightRecorderUnit:
    def test_ring_bounds_and_drop_count(self):
        from repro.obs import FlightRecorder

        rec = FlightRecorder(capacity=3)
        for i in range(5):
            rec.record("e", t=float(i), i=i)
        assert len(rec) == 3
        assert rec.dropped == 2
        assert [e["i"] for e in rec.events] == [2, 3, 4]
        assert [e["seq"] for e in rec.events] == [2, 3, 4]

    def test_clock_and_none_field_skipping(self):
        from repro.obs import FlightRecorder

        rec = FlightRecorder(capacity=4, clock=lambda: 1.5)
        rec.record("e", a=None, b=2)
        (ev,) = rec.events
        assert ev["t"] == 1.5 and "a" not in ev and ev["b"] == 2

    def test_dump_snapshot_and_file(self, tmp_path):
        from repro.obs import FlightRecorder

        rec = FlightRecorder(capacity=2)
        rec.record("x", t=0.0)
        p = tmp_path / "dump.json"
        snap = rec.dump("why", path=str(p), device=1, skipme=None)
        assert snap["reason"] == "why"
        assert snap["context"] == {"device": 1}
        assert snap["recorded"] == 1 and snap["dropped"] == 0
        assert json.loads(p.read_text()) == snap
        assert rec.dumps == [snap]

    def test_capacity_validation(self):
        from repro.obs import FlightRecorder

        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)


class TestAtomicWrites:
    def test_atomic_write_replaces_not_truncates(self, tmp_path):
        from repro.obs.io import atomic_write_text

        p = tmp_path / "out.txt"
        p.write_text("old")
        atomic_write_text(str(p), "new contents")
        assert p.read_text() == "new contents"
        # no stray temp files left behind
        assert [f.name for f in tmp_path.iterdir()] == ["out.txt"]

    def test_chrome_trace_writers_leave_no_temps(self, tmp_path):
        from repro.analysis.gantt import write_chrome_trace
        from repro.obs import Observability

        obs = Observability()
        from repro.apps import stencil as st

        res = st.run_model(
            "pipelined-buffer",
            st.StencilConfig(nz=8, ny=16, nx=16, iters=1),
            virtual=True, obs=obs,
        )
        p1 = tmp_path / "spans.json"
        p2 = tmp_path / "timeline.json"
        obs.write_chrome_trace(str(p1))
        write_chrome_trace(res.timeline, str(p2))
        assert json.loads(p1.read_text())["traceEvents"]
        assert json.loads(p2.read_text())["traceEvents"]
        assert sorted(f.name for f in tmp_path.iterdir()) == [
            "spans.json", "timeline.json",
        ]
