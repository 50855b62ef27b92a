"""Cross-run telemetry history: the persistent run ledger.

A :class:`RunLedger` is an append-only JSONL record set that outlives
any single process: every traced engine batch, every search and every
benchmark-gate run appends **one summarized record** (metrics snapshot,
backend ``describe_config()``, cache/dedup ratios, latency quantiles,
git/seed provenance, trace path), and ``python -m repro.obs.history``
queries the accumulated trajectory — per-metric trend tables across
runs, cross-run diffs, and a ``--check`` mode flagging trend
regressions against the run's own history (complementing the
single-baseline benchmark gate with real-trace trajectories).

**Concurrency model** — the :class:`~repro.exec.store.RunStore`
contract, on the shared helpers of :mod:`repro.obs.jsonl`.  Writers
never share a file: each ledger instance appends to a private segment
(``<ledger>.<host>-<pid>-<nonce>.seg``) next to the main file, one line
per record, flushed and closed immediately — torn-line tolerant,
lock-free across processes.  Readers (:func:`load_ledger`) merge the
main file plus every segment, dedupe by record id and sort by timestamp;
:meth:`RunLedger.compact` (or the CLI ``--compact`` flag) folds finished
segments into the main file with the same unlink-before-append claim the
trace merger uses.  Two processes appending concurrently therefore
produce a merged, duplicate-free record set — pinned by
``tests/test_obs_history.py``.

**Layering.**  ``repro.obs`` is an import leaf: this module knows
nothing about engines or stores.  Callers compose the record —
:meth:`ExecutionEngine.append_history` fills in backend config,
provenance (via :func:`repro.exec.store.collect_provenance`) and
latency quantiles engine-side; this module only stamps identity and
persists.  Selection mirrors tracing: ``ExecutionEngine(history=...)``
or the :data:`HISTORY_ENV_VAR` environment variable.
"""

from __future__ import annotations

import argparse
import os
import socket
import statistics
import threading
import time
import uuid
from typing import Any, Iterable

from repro.obs import HISTORY_ENV_VAR
from repro.obs.jsonl import (
    SEGMENT_SUFFIX,
    append_record,
    claim_records,
    read_records,
    sidecar_paths,
)

__all__ = [
    "HISTORY_ENV_VAR",
    "RunLedger",
    "flatten_record",
    "load_ledger",
    "main",
    "new_record",
    "resolve_ledger",
]

#: Layout marker for ledger records.
HISTORY_VERSION = 1

#: Metric-path substrings the trend table shows by default.  The
#: ``normalised.`` paths are the machine-normalised hot-path ratios the
#: CI benchmark gate appends (one ``bench.gate`` record per run), so the
#: cross-commit trend gate covers them out of the box.
DEFAULT_TREND_PATTERNS = ("cache.", "latency.", "normalised.")

#: Minimum same-kind records before ``--check`` gates a metric.
MIN_CHECK_HISTORY = 3


def new_record(kind: str, *, label: str | None = None,
               metrics: dict[str, Any] | None = None,
               backend: dict[str, Any] | None = None,
               cache: dict[str, Any] | None = None,
               latency: dict[str, Any] | None = None,
               provenance: dict[str, Any] | None = None,
               trace: str | None = None,
               extra: dict[str, Any] | None = None) -> dict[str, Any]:
    """Assemble one history record (identity stamps happen at append).

    ``kind`` names the producing subsystem (``engine.batch``,
    ``search.run``, ``bench.gate``); the keyword sections are optional
    and omitted when ``None``, so records stay as small as their
    producer's knowledge.
    """
    record: dict[str, Any] = {"kind": str(kind)}
    for name, value in (("label", label), ("metrics", metrics),
                        ("backend", backend), ("cache", cache),
                        ("latency", latency), ("provenance", provenance),
                        ("trace", trace), ("extra", extra)):
        if value is not None:
            record[name] = value
    return record


class RunLedger:
    """One writer's handle on a shared append-only history file.

    ``path`` names the *main* ledger file (``history.jsonl``); this
    instance's appends land in a private sidecar segment next to it, so
    any number of concurrent processes can append to "the same ledger"
    without a lock or a torn line.  Appends within one process are
    serialised by an instance lock, so threads sharing one engine (and
    hence one ledger) never interleave their records.
    """

    def __init__(self, path: str | os.PathLike[str]) -> None:
        self._path = os.path.abspath(os.fspath(path))
        directory = os.path.dirname(self._path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        host = socket.gethostname().split(".")[0] or "host"
        self._segment = (
            f"{self._path}.{host}-{os.getpid()}-{uuid.uuid4().hex[:6]}"
            f"{SEGMENT_SUFFIX}"
        )
        self._lock = threading.Lock()

    @property
    def path(self) -> str:
        """The main ledger file readers merge (not the private segment)."""
        return self._path

    def append(self, record: dict[str, Any]) -> str:
        """Persist *record* (one JSONL line); returns its record id.

        The record is stamped with a unique ``id``, an epoch ``ts`` and
        the writing ``pid``/``host`` — the id is what keeps re-merged
        or doubly-loaded records exactly-once downstream.
        """
        stamped = dict(record)
        stamped.setdefault("v", HISTORY_VERSION)
        stamped.setdefault("id", uuid.uuid4().hex)
        stamped.setdefault("ts", time.time())
        stamped.setdefault("pid", os.getpid())
        stamped.setdefault("host", socket.gethostname().split(".")[0])
        with self._lock:
            append_record(self._segment, stamped)
        return stamped["id"]

    def compact(self) -> int:
        """Fold finished segments into the main file; returns records moved.

        Unlink-before-append claims each segment exactly once (the
        trace merger's discipline), and ids already present in the main
        file are skipped, so compacting twice — or compacting a ledger
        someone else already compacted — never duplicates a record.
        Run it when no writer is mid-append (end of a CI job); plain
        readers never need it (:func:`load_ledger` merges in memory).
        """
        existing = {record.get("id") for record
                    in read_records(self._path, "v", HISTORY_VERSION)}
        moved = 0
        with self._lock:
            for segment in sidecar_paths(self._path):
                # a segment that cannot be claimed (None) waits for the
                # next compact
                for record in claim_records(segment, "v",
                                            HISTORY_VERSION) or []:
                    if record.get("id") in existing:
                        continue
                    existing.add(record.get("id"))
                    append_record(self._path, record)
                    moved += 1
        return moved

    def records(self) -> list[dict[str, Any]]:
        """Every record visible through this ledger path (merged view)."""
        return load_ledger(self._path)


# ----------------------------------------------------------------------
# Reading ledgers back
# ----------------------------------------------------------------------
def load_ledger(path: str | os.PathLike[str]) -> list[dict[str, Any]]:
    """All records at *path*: main file + segments, deduped, time-ordered.

    Reading never deletes or rewrites anything, so it is safe against
    live writers; duplicate ids (a compact racing a reader) collapse to
    the first occurrence.
    """
    path = os.path.abspath(os.fspath(path))
    seen: set[str] = set()
    records: list[dict[str, Any]] = []
    for source in (path, *sidecar_paths(path)):
        for record in read_records(source, "v", HISTORY_VERSION):
            record_id = str(record.get("id"))
            if record_id in seen:
                continue
            seen.add(record_id)
            records.append(record)
    records.sort(key=lambda r: (float(r.get("ts", 0.0)), str(r.get("id"))))
    return records


# ----------------------------------------------------------------------
# Environment-driven resolution (one shared writer per path)
# ----------------------------------------------------------------------
_LEDGERS: dict[str, RunLedger] = {}
_REGISTRY_LOCK = threading.Lock()


def resolve_ledger(
    history: "RunLedger | str | os.PathLike[str] | None",
) -> RunLedger | None:
    """Turn a history selector into a ledger (shared per path).

    ``history`` may be a :class:`RunLedger` (used as-is), a path (ledger
    created or reused for that file — every engine resolving the same
    path in one process shares one writer segment), or ``None`` — which
    consults :data:`HISTORY_ENV_VAR` and, when that is unset or empty,
    leaves history recording off (``None``).
    """
    if isinstance(history, RunLedger):
        return history
    if history is None:
        raw = os.environ.get(HISTORY_ENV_VAR, "").strip()
        if not raw:
            return None
        history = raw
    path = os.path.abspath(os.fspath(history))
    with _REGISTRY_LOCK:
        ledger = _LEDGERS.get(path)
        if ledger is None:
            ledger = RunLedger(path)
            _LEDGERS[path] = ledger
        return ledger


# ----------------------------------------------------------------------
# Analysis: flattening, trends, diffs, the trend gate
# ----------------------------------------------------------------------
def flatten_record(record: dict[str, Any]) -> dict[str, float]:
    """Dotted numeric paths of a record's measurement sections.

    ``{"cache": {"hit_ratio": 0.5}, "latency": {"p90": 0.01}}`` becomes
    ``{"cache.hit_ratio": 0.5, "latency.p90": 0.01}``; nested dicts
    (histogram snapshots under ``metrics``) flatten recursively, and
    non-numeric leaves are skipped.
    """
    flat: dict[str, float] = {}

    def walk(prefix: str, value: Any) -> None:
        if isinstance(value, bool):
            return
        if isinstance(value, (int, float)):
            flat[prefix] = float(value)
        elif isinstance(value, dict):
            for key in value:
                walk(f"{prefix}.{key}", value[key])

    for section in ("cache", "latency", "metrics", "extra"):
        value = record.get(section)
        if isinstance(value, dict):
            for key in value:
                walk(f"{section}.{key}", value[key])
    return flat


def _selected_paths(records: list[dict[str, Any]],
                    patterns: Iterable[str]) -> list[str]:
    """Union of flattened paths matching any pattern substring."""
    patterns = list(patterns)
    paths: set[str] = set()
    for record in records:
        for path in flatten_record(record):
            if any(pattern in path for pattern in patterns) \
                    or "all" in patterns:
                paths.add(path)
    return sorted(paths)


def _fmt(value: float) -> str:
    if value == 0:
        return "0"
    if abs(value) >= 1000:
        return f"{value:.0f}"
    if abs(value) >= 1:
        return f"{value:.3f}".rstrip("0").rstrip(".")
    return f"{value:.5f}".rstrip("0").rstrip(".")


def _fmt_ts(ts: float) -> str:
    """UTC render, so the same ledger prints identically everywhere."""
    return time.strftime("%Y-%m-%d %H:%M:%S", time.gmtime(ts))


def format_trend(records: list[dict[str, Any]],
                 patterns: Iterable[str] = DEFAULT_TREND_PATTERNS) -> str:
    """Per-kind run tables and metric trend summaries."""
    kinds: dict[str, list[dict[str, Any]]] = {}
    for record in records:
        kinds.setdefault(str(record.get("kind", "?")), []).append(record)
    lines = [f"Run ledger: {len(records)} records, "
             f"{len(kinds)} kinds ({', '.join(sorted(kinds))})"]
    for kind in sorted(kinds):
        group = kinds[kind]
        lines.append("")
        lines.append(f"{kind} ({len(group)} records)")
        lines.append("-" * (len(kind) + len(f" ({len(group)} records)")))
        lines.append(f"  {'idx':>3}  {'ts (UTC)':<19}  {'host':<8}  "
                     f"{'label':<20}  trace")
        for index, record in enumerate(group):
            lines.append(
                f"  {index:>3}  {_fmt_ts(float(record.get('ts', 0.0))):<19}"
                f"  {str(record.get('host', '?'))[:8]:<8}"
                f"  {str(record.get('label') or '-')[:20]:<20}"
                f"  {os.path.basename(str(record.get('trace') or '-'))}"
            )
        paths = _selected_paths(group, patterns)
        if not paths:
            continue
        lines.append(f"  {'metric':<32} {'n':>3} {'first':>10} "
                     f"{'last':>10} {'min':>10} {'max':>10} {'delta':>9}")
        for path in paths:
            values = [flat[path] for record in group
                      if path in (flat := flatten_record(record))]
            if not values:
                continue
            delta = values[-1] - values[0]
            lines.append(
                f"  {path:<32} {len(values):>3} {_fmt(values[0]):>10} "
                f"{_fmt(values[-1]):>10} {_fmt(min(values)):>10} "
                f"{_fmt(max(values)):>10} {('+' if delta >= 0 else '') + _fmt(delta):>9}"
            )
    return "\n".join(lines) + "\n"


def format_record_diff(a: dict[str, Any], b: dict[str, Any],
                       label_a: str, label_b: str) -> str:
    """Aligned numeric diff of two ledger records."""
    left = flatten_record(a)
    right = flatten_record(b)
    lines = ["History diff", "------------",
             f"  A = {label_a} ({a.get('kind')}, "
             f"{_fmt_ts(float(a.get('ts', 0.0)))})",
             f"  B = {label_b} ({b.get('kind')}, "
             f"{_fmt_ts(float(b.get('ts', 0.0)))})",
             f"  {'metric':<32} {'A':>12} {'B':>12} {'delta':>12}"]
    for path in sorted(set(left) | set(right)):
        va = left.get(path)
        vb = right.get(path)
        if va is None or vb is None:
            rendered_a = _fmt(va) if va is not None else "-"
            rendered_b = _fmt(vb) if vb is not None else "-"
            lines.append(f"  {path:<32} {rendered_a:>12} {rendered_b:>12} "
                         f"{'-':>12}")
            continue
        delta = vb - va
        lines.append(
            f"  {path:<32} {_fmt(va):>12} {_fmt(vb):>12} "
            f"{('+' if delta >= 0 else '') + _fmt(delta):>12}"
        )
    return "\n".join(lines) + "\n"


def _direction(path: str) -> int:
    """+1 = lower is better, -1 = higher is better, 0 = not gated."""
    if path.startswith(("latency.", "extra.normalised.",
                        "metrics.normalised.")) \
            or path.endswith(("_s", ".mean", ".max", ".p50", ".p90", ".p99")):
        return 1
    if path.endswith(("hit_ratio", "hit_rate")) or "throughput" in path:
        return -1
    return 0


def check_trends(records: list[dict[str, Any]], *,
                 threshold: float = 1.25,
                 window: int = 10,
                 patterns: Iterable[str] = DEFAULT_TREND_PATTERNS,
                 ) -> tuple[bool, list[str]]:
    """Gate the newest record of each kind against its own history.

    For every direction-aware metric the latest value is compared with
    the median of up to *window* prior same-kind records; moving in the
    bad direction by more than *threshold*× flags a trend regression.
    Metrics with fewer than :data:`MIN_CHECK_HISTORY` records, or a
    zero baseline, are skipped — a young ledger passes vacuously.
    """
    lines: list[str] = []
    ok = True
    kinds: dict[str, list[dict[str, Any]]] = {}
    for record in records:
        kinds.setdefault(str(record.get("kind", "?")), []).append(record)
    for kind in sorted(kinds):
        group = kinds[kind]
        if len(group) < MIN_CHECK_HISTORY:
            lines.append(f"  [{kind}] skipped: only {len(group)} record(s),"
                         f" need {MIN_CHECK_HISTORY}")
            continue
        latest = flatten_record(group[-1])
        history = group[-(window + 1):-1]
        for path in _selected_paths(group, patterns):
            direction = _direction(path)
            if direction == 0 or path not in latest:
                continue
            prior = [flat[path] for record in history
                     if path in (flat := flatten_record(record))]
            if len(prior) < MIN_CHECK_HISTORY - 1:
                continue
            baseline = statistics.median(prior)
            current = latest[path]
            if direction > 0:  # lower is better
                if baseline <= 0:
                    continue
                ratio = current / baseline
            else:  # higher is better
                if current <= 0:
                    continue
                ratio = baseline / current
            verdict = "ok"
            if ratio > threshold:
                verdict = "TREND REGRESSION"
                ok = False
            lines.append(
                f"  [{kind}] {verdict:>16}  {path}  x{ratio:.2f} "
                f"(latest {_fmt(current)} vs median-of-{len(prior)} "
                f"{_fmt(baseline)})"
            )
    lines.append(
        f"trend gate {'PASSED' if ok else 'FAILED'} "
        f"(threshold: x{threshold:.2f} against each kind's own history)"
    )
    return ok, lines


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.history",
        description="Query the cross-run telemetry ledger: per-metric "
                    "trends, cross-run diffs, and a trend-regression "
                    "gate over real run trajectories.",
    )
    parser.add_argument("ledger", help="history JSONL ledger to analyse")
    parser.add_argument("--metric", action="append", default=None,
                        metavar="SUBSTR",
                        help="metric-path filter (repeatable; substring "
                             "match; 'all' selects everything; default: "
                             "cache.* and latency.*)")
    parser.add_argument("--diff", nargs=2, type=int, metavar=("A", "B"),
                        help="diff two records by index in time order "
                             "(negative indices count from the end)")
    parser.add_argument("--check", action="store_true",
                        help="gate the newest record of each kind against "
                             "its own history; exit 1 on a trend regression")
    parser.add_argument("--threshold", type=float, default=1.25,
                        help="--check failure factor (default %(default)s)")
    parser.add_argument("--window", type=int, default=10,
                        help="--check history window per kind "
                             "(default %(default)s)")
    parser.add_argument("--compact", action="store_true",
                        help="fold finished writer segments into the main "
                             "ledger file first (run only when no writer "
                             "is active)")
    args = parser.parse_args(argv)

    if args.compact:
        moved = RunLedger(args.ledger).compact()
        print(f"compacted {moved} record(s) into {args.ledger}")
    records = load_ledger(args.ledger)
    if not records:
        # an empty, all-torn or not-yet-created ledger is a normal state
        # for a young pipeline, not an error
        print(f"no history records in {args.ledger} "
              "(empty, torn, or not yet written)")
        return 0
    patterns = args.metric if args.metric else list(DEFAULT_TREND_PATTERNS)
    if args.diff:
        try:
            a = records[args.diff[0]]
            b = records[args.diff[1]]
        except IndexError:
            print(f"diff indices {args.diff} out of range for "
                  f"{len(records)} records")
            return 2
        print(format_record_diff(a, b, f"record[{args.diff[0]}]",
                                 f"record[{args.diff[1]}]"), end="")
        return 0
    print(format_trend(records, patterns), end="")
    if args.check:
        ok, lines = check_trends(records, threshold=args.threshold,
                                 window=args.window, patterns=patterns)
        print("\n".join(["", "Trend gate", "----------", *lines]))
        return 0 if ok else 1
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(main())
