"""Atomic file output and the canonical JSON encoding.

Every exporter writes through :func:`atomic_write_text`: the content
lands in a temporary file in the destination directory and is moved
into place with :func:`os.replace`, so an interrupted run never leaves
a truncated JSON where a previous good file (or nothing) used to be.

Byte-pinned artifacts (the serve journal, telemetry frames, analysis
snapshots) share one encoding: :func:`round_floats` for the numbers,
:func:`canonical_json` (sorted keys, compact separators) for the line.
"""

from __future__ import annotations

import json
import os
import tempfile

__all__ = [
    "atomic_write_json",
    "atomic_write_text",
    "canonical_json",
    "round_floats",
]

#: decimal digits floats keep in byte-stable artifacts
_DIGITS = 12

#: one-line canonical JSON (sorted keys, compact, no newline).  One
#: shared encoder: ``json.dumps`` with non-default options builds a
#: fresh ``JSONEncoder`` per call, measurable at journal rates.
canonical_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def round_floats(obj):
    """Recursively round floats to 12 digits (and kill ``-0.0``)."""
    if isinstance(obj, float):
        v = round(obj, _DIGITS)
        return 0.0 if v == 0 else v
    if isinstance(obj, dict):
        return {k: round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round_floats(v) for v in obj]
    return obj


def atomic_write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path`` atomically (tmp file + ``os.replace``)."""
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(
        prefix=f".{os.path.basename(path)}.", suffix=".tmp", dir=directory
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_json(path: str, obj, **dump_kwargs) -> None:
    """Serialize ``obj`` with :func:`json.dumps` and write it atomically."""
    atomic_write_text(path, json.dumps(obj, **dump_kwargs))
