"""Append-only JSONL segments: the one on-disk record discipline.

Job results (:class:`~repro.exec.store.RunStore`), the run ledger
(:mod:`repro.obs.history`), and traces and their worker sidecars
(:mod:`repro.obs.trace`) all persist the same way.  Each writer
appends one compact JSON line per record to a file of its own
(:func:`append_record`), so concurrent writers never share a file and
a killed one tears at most its last line.  Readers keep the records of their own version and skip torn,
blank and foreign lines (:func:`read_records`); mergers claim a finished
segment by unlinking it before appending its records elsewhere
(:func:`claim_records`), so none is merged twice.  Telemetry keeps its
own layout versions; persisted results carry exactly one,
``repro.exec.jobs.RESULT_SEMANTICS_VERSION``.
"""

from __future__ import annotations

import json
import os
from typing import Any

__all__ = [
    "SEGMENT_SUFFIX",
    "append_record",
    "claim_records",
    "list_segments",
    "read_records",
    "sidecar_paths",
]

#: Suffix of per-writer sidecar segments next to a main JSONL file.
SEGMENT_SUFFIX = ".seg"


def append_record(path: str, record: dict[str, Any]) -> None:
    """Append *record* to *path* as one compact JSON line.

    No handle is held between appends, so nothing leaks and a killed
    writer tears at most this line.  Callers serialise their own threads.
    """
    line = json.dumps(record, separators=(",", ":"), sort_keys=True)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(line + "\n")


def _parse(lines: list[str], version_key: str,
           version: int) -> list[dict[str, Any]]:
    records: list[dict[str, Any]] = []
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            continue  # torn trailing line from a killed writer
        if isinstance(record, dict) and record.get(version_key) == version:
            records.append(record)
    return records


def read_records(path: str, version_key: str,
                 version: int) -> list[dict[str, Any]]:
    """The records of *path* whose *version_key* field equals *version*.

    A missing or unreadable file reads as empty.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError:
        return []
    return _parse(lines, version_key, version)


def claim_records(path: str, version_key: str,
                  version: int) -> list[dict[str, Any]] | None:
    """Read and unlink segment *path*; ``None`` when it could not be claimed.

    The unlink happens before the caller appends the returned records, so
    a segment another merger already claimed (or one that cannot be read
    or removed) is left alone rather than merged twice.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
        os.unlink(path)
    except OSError:
        return None
    return _parse(lines, version_key, version)


def list_segments(directory: str, prefix: str = "",
                  suffix: str = SEGMENT_SUFFIX) -> list[str]:
    """Sorted paths of the files in *directory* named ``prefix*suffix``."""
    try:
        names = os.listdir(directory)
    except OSError:
        return []
    return sorted(
        os.path.join(directory, name) for name in names
        if name.startswith(prefix) and name.endswith(suffix)
    )


def sidecar_paths(path: str) -> list[str]:
    """The ``<path>.*.seg`` writer segments next to main file *path*."""
    return list_segments(os.path.dirname(path) or ".",
                         os.path.basename(path) + ".")
