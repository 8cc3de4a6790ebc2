"""Per-layer numbers from the traced segment's spans and the program's
own counters.

A span's *self time* is its duration minus the time its child spans
cover.  A layer's time for one request is the sum of the self times of
its spans in that request; reported times are the p50 over the
requests that entered the layer (0 when none did).  Counts are means
per request of the stated population; counter deltas are divided by the
requests they cover.
"""

from __future__ import annotations

import re
import statistics

#: Span name -> per-layer time metric it feeds.
SELF_TIME = {
    "portal.render": "portal.render_ms",
    "portal.validator": "portal.validator_ms",
    "security.acl": "security.acl_ms",
    "security.session": "security.session_ms",
    "orm.repo": "orm.materialise_ms",
    "storage.query": "storage.query_ms",
    "storage.snapshot": "storage.snapshot_ms",
    "storage.begin": "storage.begin_wait_ms",
    "search.query": "search.query_ms",
    "admin.report": "admin.report_ms",
    "dataimport.import": "dataimport.import_ms",
    "dataimport.assign": "dataimport.assign_ms",
    "apps.run": "apps.run_ms",
}


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (q in 0..100) of *values*, 0 when empty."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


class Spans:
    """Spans grouped by request, with self times."""

    def __init__(self, rows: list):
        self.by_request: dict[str, list] = {}
        children: dict[int, int] = {}
        for rid, sid, parent, name, start, end, extra in rows:
            if parent:
                children[parent] = children.get(parent, 0) + (end - start)
        for rid, sid, parent, name, start, end, extra in rows:
            self_ns = (end - start) - children.get(sid, 0)
            self.by_request.setdefault(rid, []).append(
                (name, self_ns / 1e6, (end - start) / 1e6, parent, extra, sid)
            )

    def requests(self, prefix: str = "") -> list[str]:
        return [rid for rid in self.by_request if rid.startswith(prefix)]

    def layer_ms(self, rid: str, names) -> float:
        return sum(s[1] for s in self.by_request.get(rid, ()) if s[0] in names)

    def count(self, rid: str, name: str) -> int:
        return sum(1 for s in self.by_request.get(rid, ()) if s[0] == name)

    def outermost(self, rid: str, name: str) -> int:
        """Spans of *name* not nested in another span of *name*."""
        spans = self.by_request.get(rid, ())
        own = {s[5] for s in spans if s[0] == name}
        return sum(1 for s in spans if s[0] == name and s[3] not in own)

    def extra(self, rid: str, name: str) -> int:
        return sum(s[4] for s in self.by_request.get(rid, ()) if s[0] == name)

    def app_ms(self, rid: str) -> "float | None":
        for s in self.by_request.get(rid, ()):
            if s[0] == "portal.app" and s[3] == 0:
                return s[2]
        return None


def per_layer(spans: Spans, *, gets: list[tuple[str, float]],
              writes: list[str], pipelines: dict[str, list[str]],
              reqs: int, counters: dict, cpu_s: float, gc_s: float,
              page_bytes: list[int], conditional: int,
              overhead: float) -> dict[str, float]:
    """Every per-layer metric of one traced run.

    *counters*, *cpu_s*, *gc_s*, *page_bytes* and *conditional* cover the
    run's untraced slices, which issued *reqs* requests; *gets* are the
    traced slices' (request id, client seconds).
    """
    out: dict[str, float] = {}
    rids = spans.requests()
    # Time metrics: p50 over the requests that entered the layer.
    for name, metric in SELF_TIME.items():
        values = [spans.layer_ms(r, {name}) for r in rids
                  if any(s[0] == name for s in spans.by_request[r])]
        out[metric] = median(values)
    # The object-network layer: its rebuild plus the neighbour lookup.
    out["graphview.rebuild_ms"] = median(
        spans.layer_ms(r, {"graphview.rebuild", "graphview.neighbors"})
        for r in rids if spans.count(r, "graphview.rebuild"))
    out["portal.app_ms"] = median(
        v for v in (spans.app_ms(r) for r in rids) if v is not None)
    out["portal.unattributed_ms"] = median(
        spans.layer_ms(r, {"portal.app"}) for r in rids)
    overheads = []
    for rid, client_s in gets:
        app = spans.app_ms(rid)
        if app is not None:
            overheads.append(client_s * 1e3 - app)
    out["portal.server.overhead_ms"] = median(overheads)
    out["portal.server.cpu_ms_per_req"] = 1e3 * cpu_s / max(1, reqs)
    out["portal.server.gc_ms_per_req"] = 1e3 * gc_s / max(1, reqs)
    out["portal.page_kb"] = median(b / 1024 for b in page_bytes)
    out["portal.not_modified_ratio"] = counters["not_modified"] / max(1, conditional)
    out["orm.rows_per_req"] = mean(spans.extra(r, "orm.repo") for r in rids)
    out["storage.queries_per_req"] = mean(
        spans.outermost(r, "storage.query") for r in rids)
    lookups = counters["query_cache_hit"] + counters["query_cache_miss"]
    out["storage.query_cache_hit_ratio"] = counters["query_cache_hit"] / max(1, lookups)
    out["storage.query_cache_evictions"] = counters["query_cache_evictions"] / max(1, reqs)
    search_lookups = counters["search_cache_hit"] + counters["search_cache_miss"]
    out["search.cache_hit_ratio"] = counters["search_cache_hit"] / max(1, search_lookups)
    # Write path: per registration POST.
    out["storage.commits_per_write"] = mean(
        spans.count(r, "storage.commit") for r in writes)
    out["storage.fsyncs_per_commit"] = counters["fsyncs"] / max(1, counters["commits"])
    out["storage.commit_ms"] = median(
        spans.layer_ms(r, {"storage.commit", "storage.wal"}) for r in writes)
    out["storage.begin_wait_ms"] = median(spans.layer_ms(r, {"storage.begin"}) for r in writes)
    out["storage.wal_bytes_per_write"] = mean(
        spans.extra(r, "storage.wal") for r in writes)
    out["search.index_ms_per_write"] = median(
        spans.layer_ms(r, {"search.index"}) for r in writes)
    out["events.publish_ms_per_write"] = median(
        spans.layer_ms(r, {"events.publish"}) for r in writes)
    out["audit.rows_per_write"] = mean(spans.count(r, "audit.record") for r in writes)
    # Per object-network request: 1.0 while every page rebuilds the graph.
    out["graphview.rebuilds_per_req"] = mean(
        spans.count(r, "graphview.rebuild") for r in rids
        if spans.count(r, "graphview.neighbors"))
    # Pipelines: spans of all requests of one pipeline.
    out["workflow.transitions_per_pipeline"] = mean(
        sum(spans.count(r, "workflow.transition") for r in group)
        for group in pipelines.values())
    out["tasks.jobs_per_pipeline"] = mean(
        sum(spans.count(r, "tasks.job") for r in group)
        for group in pipelines.values())
    out["trace.overhead_pct"] = overhead
    return out


_METRIC = re.compile(r'^bfabric_([a-z_]+?)(?:\{([^}]*)\})? ([0-9.eE+-]+)$')


def read_counters(text: str) -> dict[str, float]:
    """The program's counters the per-layer report reads."""
    totals = {
        "not_modified": 0.0, "query_cache_hit": 0.0, "query_cache_miss": 0.0,
        "query_cache_evictions": 0.0, "search_cache_hit": 0.0,
        "search_cache_miss": 0.0, "fsyncs": 0.0, "commits": 0.0,
    }
    for line in text.splitlines():
        match = _METRIC.match(line)
        if not match:
            continue
        name, labels, value = match.group(1), match.group(2) or "", float(match.group(3))
        if name == "http_requests_total" and 'status="304"' in labels:
            totals["not_modified"] += value
        elif name == "storage_query_cache_total":
            if 'result="hit"' in labels:
                totals["query_cache_hit"] += value
            elif 'result="miss"' in labels:
                totals["query_cache_miss"] += value
        elif name == "storage_query_cache_evictions_total":
            totals["query_cache_evictions"] += value
        elif name == "search_cache_total":
            if 'result="hit"' in labels:
                totals["search_cache_hit"] += value
            elif 'result="miss"' in labels:
                totals["search_cache_miss"] += value
        elif name == "storage_wal_fsync_seconds_count":
            totals["fsyncs"] += value
        elif name == "storage_commits_total":
            totals["commits"] += value
    return totals
