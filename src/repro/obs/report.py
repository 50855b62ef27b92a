"""Offline trace analysis: ``python -m repro.obs.report <trace.jsonl>``.

Renders what a traced run actually did, from the JSONL records
:mod:`repro.obs.trace` wrote:

* the **span tree** — batches, cache lookup / dispatch / flush phases,
  backend submissions and per-job executions, with repeated children
  aggregated (``job.execute ×40``) so wide batches stay readable;
* a **per-backend breakdown** — for every execution backend that
  submitted jobs: queue wait (job start minus submission start, epoch
  clocks, so it spans processes) and execute-latency quantiles;
* **cache/dedup ratios** from the ``engine.batch`` span attributes;
* **stragglers & critical path** — the longest jobs, and per batch how
  much of the dispatch wall time the single longest job accounts for
  (the job that, if sharded further, would shorten the batch);
* the **per-job resource table** when :mod:`repro.obs.profile` was on —
  CPU time and peak RSS per toolchain backend;
* the **search round table** when ``search.round`` spans are present;
* ``--diff`` — the same aggregates for two traces side by side with
  deltas, for before/after comparisons of a change.

Worker ``job.execute`` spans arrive parentless (each process/thread has
its own span stack); they are re-parented here by matching their
``spec_key`` attribute against the ``job.done`` events the engine's
dispatch loop emitted — the cross-process glue is the content hash, not
a shared stack.  Everything is computed from the file; nothing here
touches (or could touch) live engines or results.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Any, Iterable

from repro.obs.trace import load_records

__all__ = ["TraceView", "format_report", "format_diff", "load_trace", "main"]

#: Span names whose children are execution work (used by the tree render
#: to aggregate wide fan-outs instead of printing thousands of lines).
_AGGREGATE_CHILDREN = ("job.execute",)


class SpanNode:
    """One span record plus its resolved children."""

    __slots__ = ("id", "parent", "name", "ts", "dur_s", "pid", "attrs",
                 "children")

    def __init__(self, record: dict[str, Any]) -> None:
        self.id = record.get("id")
        self.parent = record.get("parent")
        self.name = str(record.get("name", ""))
        self.ts = float(record.get("ts", 0.0))
        self.dur_s = float(record.get("dur_s", 0.0))
        self.pid = record.get("pid")
        self.attrs = dict(record.get("attrs") or {})
        self.children: list["SpanNode"] = []


class TraceView:
    """A parsed trace: span forest, events and metrics snapshots."""

    def __init__(self, records: Iterable[dict[str, Any]]) -> None:
        self.spans: dict[str, SpanNode] = {}
        self.events: list[dict[str, Any]] = []
        self.metrics: list[dict[str, Any]] = []
        self.meta: list[dict[str, Any]] = []
        for record in records:
            kind = record.get("kind")
            if kind == "span":
                node = SpanNode(record)
                if node.id is not None:
                    self.spans[node.id] = node
            elif kind == "event":
                self.events.append(record)
            elif kind == "metrics":
                self.metrics.append(record)
            elif kind == "meta":
                self.meta.append(record)
        self._reparent_by_spec_key()
        self.roots: list[SpanNode] = []
        for node in self.spans.values():
            parent = self.spans.get(node.parent) if node.parent else None
            if parent is not None:
                parent.children.append(node)
            else:
                self.roots.append(node)
        for node in self.spans.values():
            node.children.sort(key=lambda child: (child.ts, str(child.id)))
        self.roots.sort(key=lambda node: (node.ts, str(node.id)))

    def _reparent_by_spec_key(self) -> None:
        """Attach parentless worker/thread job spans to their dispatcher.

        The engine emits one ``job.done`` event per executed job from
        inside its dispatch loop; that event's ``span`` field names a
        span on the dispatching thread's stack.  A ``job.execute`` span
        that arrived parentless (pool worker, executor thread) with the
        same ``spec_key`` belongs under that span.  Keys are claimed in
        timestamp order so re-executions across engines stay distinct.
        """
        donors: dict[str, list[str]] = {}
        for event in sorted(self.events, key=lambda e: e.get("ts", 0.0)):
            if event.get("name") != "job.done":
                continue
            key = (event.get("attrs") or {}).get("spec_key")
            anchor = event.get("span")
            if key and anchor:
                donors.setdefault(key, []).append(anchor)
        orphans = sorted(
            (node for node in self.spans.values()
             if node.parent is None and node.name == "job.execute"),
            key=lambda node: node.ts,
        )
        for node in orphans:
            anchors = donors.get(node.attrs.get("spec_key") or "")
            if anchors:
                node.parent = anchors.pop(0)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def named(self, name: str) -> list[SpanNode]:
        return sorted(
            (node for node in self.spans.values() if node.name == name),
            key=lambda node: (node.ts, str(node.id)),
        )

    def submit_backend_of(self, node: SpanNode) -> str:
        """The execution backend that dispatched *node* (a job span)."""
        seen = set()
        current: SpanNode | None = node
        while current is not None and current.id not in seen:
            seen.add(current.id)
            if current.name == "backend.submit":
                return str(current.attrs.get("backend", "unknown"))
            current = (self.spans.get(current.parent)
                       if current.parent else None)
        # fallback: the submit span whose wall-clock window covers the
        # job start (worker spans re-parented above a submit span)
        for submit in self.named("backend.submit"):
            if submit.ts <= node.ts <= submit.ts + submit.dur_s:
                return str(submit.attrs.get("backend", "unknown"))
        return "unknown"


def load_trace(path: str) -> TraceView:
    return TraceView(load_records(path))


# ----------------------------------------------------------------------
# Small deterministic statistics helpers (exact, whole-sample)
# ----------------------------------------------------------------------
def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _quantile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, int(q * len(ordered) + 0.5) - 1))
    return ordered[rank]


def _fmt_s(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.2f}s"
    return f"{seconds * 1e3:.1f}ms"


# ----------------------------------------------------------------------
# Report sections
# ----------------------------------------------------------------------
def _render_tree(view: TraceView) -> list[str]:
    lines = ["Span tree", "---------"]
    if not view.roots:
        lines.append("  (no spans)")
        return lines

    def walk(node: SpanNode, depth: int) -> None:
        indent = "  " * (depth + 1)
        attrs = node.attrs
        notes = []
        for key in ("backend", "strategy", "jobs", "candidates", "shots",
                    "shards", "round", "cache_hits", "deduplicated",
                    "executed"):
            if key in attrs:
                notes.append(f"{key}={attrs[key]}")
        note = f"  [{', '.join(notes)}]" if notes else ""
        lines.append(f"{indent}{node.name:<20} {_fmt_s(node.dur_s):>9}"
                     f"{note}")
        plain = [c for c in node.children
                 if c.name not in _AGGREGATE_CHILDREN]
        grouped = [c for c in node.children
                   if c.name in _AGGREGATE_CHILDREN]
        for child in plain:
            walk(child, depth + 1)
        if grouped:
            durs = [c.dur_s for c in grouped]
            lines.append(
                f"{indent}  job.execute x{len(grouped)}   "
                f"total {_fmt_s(sum(durs))}, mean {_fmt_s(_mean(durs))}, "
                f"max {_fmt_s(max(durs))}"
            )

    for root in view.roots:
        walk(root, 0)
    return lines


def _backend_rows(view: TraceView) -> dict[str, dict[str, Any]]:
    """Aggregate queue-wait / execute latency per execution backend."""
    rows: dict[str, dict[str, Any]] = {}
    submits = view.named("backend.submit")
    jobs = view.named("job.execute")
    for job in jobs:
        backend = view.submit_backend_of(job)
        row = rows.setdefault(
            backend, {"jobs": 0, "queue": [], "execute": []}
        )
        row["jobs"] += 1
        row["execute"].append(job.dur_s)
        window = [s for s in submits
                  if str(s.attrs.get("backend", "unknown")) == backend
                  and s.ts <= job.ts]
        if window:
            # queue wait: job start minus the submission that covers it
            # (epoch clocks on both sides, so this works cross-process)
            row["queue"].append(job.ts - max(s.ts for s in window))
    return rows


def _render_backends(view: TraceView) -> list[str]:
    rows = _backend_rows(view)
    lines = ["Per-backend latency", "-------------------"]
    if not rows:
        lines.append("  (no job.execute spans)")
        return lines
    header = (f"  {'backend':<10} {'jobs':>5} {'queue p50':>10} "
              f"{'queue p90':>10} {'exec mean':>10} {'exec p50':>10} "
              f"{'exec p90':>10} {'exec max':>10}")
    lines.append(header)
    for backend in sorted(rows):
        row = rows[backend]
        lines.append(
            f"  {backend:<10} {row['jobs']:>5} "
            f"{_fmt_s(_quantile(row['queue'], 0.50)):>10} "
            f"{_fmt_s(_quantile(row['queue'], 0.90)):>10} "
            f"{_fmt_s(_mean(row['execute'])):>10} "
            f"{_fmt_s(_quantile(row['execute'], 0.50)):>10} "
            f"{_fmt_s(_quantile(row['execute'], 0.90)):>10} "
            f"{_fmt_s(max(row['execute'])):>10}"
        )
    return lines


def _cache_totals(view: TraceView) -> dict[str, float]:
    totals = {"jobs": 0.0, "cache_hits": 0.0, "deduplicated": 0.0,
              "executed": 0.0, "batches": 0.0}
    for batch in view.named("engine.batch"):
        totals["batches"] += 1
        totals["jobs"] += float(batch.attrs.get("jobs", 0) or 0)
        totals["cache_hits"] += float(batch.attrs.get("cache_hits", 0) or 0)
        totals["deduplicated"] += float(
            batch.attrs.get("deduplicated", 0) or 0
        )
        totals["executed"] += float(batch.attrs.get("executed", 0) or 0)
    return totals


def _render_cache(view: TraceView) -> list[str]:
    totals = _cache_totals(view)
    lines = ["Cache / dedup", "-------------"]
    jobs = totals["jobs"]
    if not totals["batches"]:
        lines.append("  (no engine.batch spans)")
        return lines
    hit_rate = totals["cache_hits"] / jobs if jobs else 0.0
    dedup_rate = totals["deduplicated"] / jobs if jobs else 0.0
    lines.append(
        f"  batches {int(totals['batches'])}, jobs {int(jobs)}: "
        f"{int(totals['cache_hits'])} cache hits ({hit_rate:.1%}), "
        f"{int(totals['deduplicated'])} deduplicated ({dedup_rate:.1%}), "
        f"{int(totals['executed'])} executed"
    )
    return lines


def _render_stragglers(view: TraceView, top: int) -> list[str]:
    lines = ["Stragglers & critical path", "--------------------------"]
    jobs = view.named("job.execute")
    if not jobs:
        lines.append("  (no job.execute spans)")
        return lines
    worst = sorted(jobs, key=lambda j: (-j.dur_s, j.ts))[:top]
    lines.append(f"  slowest {len(worst)} of {len(jobs)} jobs:")
    for job in worst:
        label = job.attrs.get("label") or job.attrs.get("spec_key", "?")
        lines.append(
            f"    {_fmt_s(job.dur_s):>9}  {job.attrs.get('backend', '?')}"
            f"  {label}"
        )
    for index, batch in enumerate(view.named("engine.batch")):
        dispatches = [c for c in batch.children
                      if c.name == "engine.dispatch"]
        if not dispatches:
            continue
        dispatch = dispatches[0]
        batch_jobs: list[SpanNode] = []
        pending = list(dispatch.children)
        while pending:
            node = pending.pop()
            if node.name == "job.execute":
                batch_jobs.append(node)
            pending.extend(node.children)
        if not batch_jobs or dispatch.dur_s <= 0:
            continue
        longest = max(batch_jobs, key=lambda j: j.dur_s)
        share = longest.dur_s / dispatch.dur_s
        lines.append(
            f"  batch {index}: dispatch {_fmt_s(dispatch.dur_s)}, "
            f"critical path {_fmt_s(longest.dur_s)} ({share:.0%}) = "
            f"{longest.attrs.get('label') or longest.attrs.get('spec_key', '?')}"
        )
    return lines


def _render_resources(view: TraceView, top: int) -> list[str]:
    """Per-job resource table from ``job.execute`` profile attributes.

    Only rendered when :mod:`repro.obs.profile` was on during the run
    (``TILT_REPRO_PROFILE``); each profiled span carries a ``profile``
    dict with CPU times and, platform permitting, peak RSS.
    """
    profiled = [job for job in view.named("job.execute")
                if isinstance(job.attrs.get("profile"), dict)]
    if not profiled:
        return []
    lines = ["Per-job resources", "-----------------"]
    groups: dict[str, dict[str, Any]] = {}
    for job in profiled:
        profile = job.attrs["profile"]
        backend = str(job.attrs.get("backend", "?"))
        row = groups.setdefault(
            backend, {"jobs": 0, "cpu_user_s": 0.0, "cpu_system_s": 0.0,
                      "max_rss_kb": 0.0},
        )
        row["jobs"] += 1
        row["cpu_user_s"] += float(profile.get("cpu_user_s", 0.0) or 0.0)
        row["cpu_system_s"] += float(profile.get("cpu_system_s", 0.0) or 0.0)
        row["max_rss_kb"] = max(row["max_rss_kb"],
                                float(profile.get("max_rss_kb", 0.0) or 0.0))
    lines.append(f"  {'toolchain':<10} {'jobs':>5} {'cpu user':>10} "
                 f"{'cpu sys':>10} {'peak rss':>10}")
    for backend in sorted(groups):
        row = groups[backend]
        lines.append(
            f"  {backend:<10} {row['jobs']:>5} "
            f"{_fmt_s(row['cpu_user_s']):>10} "
            f"{_fmt_s(row['cpu_system_s']):>10} "
            f"{row['max_rss_kb'] / 1024:>8.1f}MB"
        )
    hungriest = sorted(
        profiled,
        key=lambda j: (-float((j.attrs["profile"]).get("cpu_user_s", 0.0)
                              or 0.0), j.ts),
    )[:top]
    lines.append(f"  heaviest {len(hungriest)} of {len(profiled)} "
                 "profiled jobs (by cpu user):")
    for job in hungriest:
        profile = job.attrs["profile"]
        label = job.attrs.get("label") or job.attrs.get("spec_key", "?")
        cpu = float(profile.get("cpu_user_s", 0.0) or 0.0)
        lines.append(f"    {_fmt_s(cpu):>9}  {label}")
    return lines


def _render_search(view: TraceView) -> list[str]:
    rounds = view.named("search.round")
    if not rounds:
        return []
    lines = ["Search rounds", "-------------"]
    lines.append(f"  {'round':>5} {'candidates':>10} {'jobs':>6} "
                 f"{'shots':>7} {'wall':>9}")
    for node in rounds:
        lines.append(
            f"  {node.attrs.get('round', '?'):>5} "
            f"{node.attrs.get('candidates', '?'):>10} "
            f"{node.attrs.get('jobs', '?'):>6} "
            f"{node.attrs.get('shots', '?'):>7} "
            f"{_fmt_s(node.dur_s):>9}"
        )
    return lines


def format_report(view: TraceView, top: int = 5) -> str:
    sections = [
        _render_tree(view),
        _render_backends(view),
        _render_cache(view),
        _render_stragglers(view, top),
        _render_resources(view, top),
        _render_search(view),
    ]
    blocks = ["\n".join(section) for section in sections if section]
    return "\n\n".join(blocks) + "\n"


# ----------------------------------------------------------------------
# Cross-run diff
# ----------------------------------------------------------------------
def _summary_numbers(view: TraceView) -> dict[str, float]:
    totals = _cache_totals(view)
    jobs = view.named("job.execute")
    batches = view.named("engine.batch")
    return {
        "batches": totals["batches"],
        "jobs_submitted": totals["jobs"],
        "cache_hits": totals["cache_hits"],
        "deduplicated": totals["deduplicated"],
        "executed": totals["executed"],
        "job_execute_spans": float(len(jobs)),
        "job_time_total_s": sum(j.dur_s for j in jobs),
        "job_time_p90_s": _quantile([j.dur_s for j in jobs], 0.90),
        "batch_wall_s": sum(b.dur_s for b in batches),
    }


def format_diff(a: TraceView, b: TraceView,
                label_a: str = "A", label_b: str = "B") -> str:
    left = _summary_numbers(a)
    right = _summary_numbers(b)
    lines = ["Trace diff", "----------",
             f"  A = {label_a}", f"  B = {label_b}",
             f"  {'metric':<20} {'A':>12} {'B':>12} {'delta':>12}"]
    for key in sorted(left):
        delta = right[key] - left[key]
        if key.endswith("_s"):
            rendered = (f"  {key:<20} {_fmt_s(left[key]):>12} "
                        f"{_fmt_s(right[key]):>12} "
                        f"{('+' if delta >= 0 else '-') + _fmt_s(abs(delta)):>12}")
        else:
            rendered = (f"  {key:<20} {int(left[key]):>12} "
                        f"{int(right[key]):>12} {int(delta):>+12}")
        lines.append(rendered)
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.report",
        description="Summarise a repro.obs trace (span tree, per-backend "
                    "latency, cache ratios, stragglers).",
    )
    parser.add_argument("trace", help="trace JSONL file to analyse")
    parser.add_argument("--diff", metavar="OTHER",
                        help="second trace: print a cross-run diff "
                             "instead of the full report")
    parser.add_argument("--top", type=int, default=5,
                        help="straggler rows to show (default 5)")
    args = parser.parse_args(argv)
    if not os.path.exists(args.trace):
        print(f"no such trace file: {args.trace}", file=sys.stderr)
        return 1
    view = load_trace(args.trace)
    if not view.spans and not view.events:
        # An existing-but-empty (or all-torn) trace is what a run that
        # crashed before its first flush leaves behind: report it calmly
        # so CI pipelines that always run the report don't go red.
        print(f"no trace records in {args.trace} "
              "(empty, torn, or not yet written)")
        return 0
    if args.diff:
        other = load_trace(args.diff)
        sys.stdout.write(format_diff(view, other, args.trace, args.diff))
    else:
        sys.stdout.write(format_report(view, top=args.top))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(main())
