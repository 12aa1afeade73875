"""Golden serve-journal regression test.

``tests/golden/serve_journal.jsonl`` pins the exact write-ahead journal
of one small stencil serving scenario: two tenants, one virtual K40m,
the default config.  The scheduler is virtual-time deterministic
and the journal encoding is canonical (sorted keys, compact separators,
``journal_path`` excluded from the header), so the file must match
**byte for byte** — any change to the event timeline, record shape, or
header contents shows up as a diff here before it breaks resume
compatibility in the field.

When a journal change is *intentional*, regenerate and review::

    PYTHONPATH=src python -m pytest tests/golden -q --update-golden
    git diff tests/golden/serve_journal.jsonl

Bumping ``JOURNAL_FORMAT`` is part of that review whenever the record
shape changes — an old journal must never silently resume on a build
that encodes records differently.
"""

from __future__ import annotations

from pathlib import Path

from repro.serve import (
    DevicePool,
    RegionScheduler,
    ServeConfig,
    build_request,
)

GOLDEN = Path(__file__).resolve().parent / "serve_journal.jsonl"


def _journal_text(tmp_path) -> str:
    tmp_path.mkdir(parents=True, exist_ok=True)
    path = str(tmp_path / "serve.journal")
    requests = [
        build_request("stencil", tenant="alice", priority=1,
                      config={"nz": 10, "ny": 16, "nx": 16}, virtual=True),
        build_request("stencil", tenant="bob",
                      config={"nz": 12, "ny": 16, "nx": 16}, virtual=True),
    ]
    pool = DevicePool("k40m", virtual=True)
    sched = RegionScheduler(pool, ServeConfig(journal_path=path))
    sched.submit_all(requests)
    report = sched.run()
    pool.close()
    assert report.ok
    return Path(path).read_text(encoding="utf-8")


def test_golden_serve_journal(tmp_path, update_golden):
    text = _journal_text(tmp_path)
    if update_golden:
        GOLDEN.write_text(text, encoding="utf-8")
        return
    assert GOLDEN.exists(), (
        f"missing golden file {GOLDEN}; generate with "
        f"pytest tests/golden --update-golden"
    )
    assert text == GOLDEN.read_text(encoding="utf-8"), (
        "serve journal drifted from tests/golden/serve_journal.jsonl — "
        "if the timeline or record-shape change is intentional, rerun "
        "with --update-golden, review the diff, and consider whether "
        "JOURNAL_FORMAT must be bumped"
    )


def test_golden_serve_journal_is_self_consistent(tmp_path):
    """Two fresh runs journal byte-identical text (determinism guard)."""
    a = _journal_text(tmp_path / "a")
    b = _journal_text(tmp_path / "b")
    assert a == b


def test_golden_journal_resumes_on_this_build(tmp_path):
    """The pinned journal is resumable by the current code."""
    import json

    from repro.serve import JournalReader

    if not GOLDEN.exists():
        return  # first generation pass
    path = tmp_path / "serve.journal"
    path.write_text(GOLDEN.read_text(encoding="utf-8"), encoding="utf-8")
    reader = JournalReader(str(path))
    assert reader.complete_run and reader.dropped == 0
    requests = [
        build_request("stencil", tenant="alice", priority=1,
                      config={"nz": 10, "ny": 16, "nx": 16}, virtual=True),
        build_request("stencil", tenant="bob",
                      config={"nz": 12, "ny": 16, "nx": 16}, virtual=True),
    ]
    pool = DevicePool("k40m", virtual=True)
    sched = RegionScheduler.resume(
        str(path), pool, requests, config=ServeConfig()
    )
    report = sched.run()
    pool.close()
    assert report.ok
    j = report.journal
    assert j["resumed"] == 1 and j["replayed"] == len(reader.records)
    assert json.loads(json.dumps(report.to_dict()))  # JSON-safe end to end
