"""The repository benchmark: workloads against the FGCZ deployment.

Usage::

    python3 portalbench/run.py --workload browse|lab-day \\
        --seed N --seconds S --trace 0|1 [--smoke]

Each run copies a checkpointed fixture deployment (built once per
version of the program under ``.bench_build/portalbench``), starts the
portal in its own process (``launcher.py``) and logs in over raw
keep-alive sockets.  ``browse``, which issues no writes of its own,
gets the first half of the write probe; then come an untimed warm-up,
the timed segment of whole seeded rounds for ``--seconds``, the block
probe, ``browse``'s second half of the write probe, and the output
checks.  With ``--trace 1`` the timed segment is cut into slices that
alternate between untraced and traced, and the block probe is traced
too.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` — the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The line
before it is the run's report: environment, per-segment and per-class
attempts, failures and samples, writer lateness, and check problems.
``--smoke`` runs a 2% deployment.  README.md has the details.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import fixture  # noqa: E402
import layers  # noqa: E402
from client import Connection  # noqa: E402
from layers import mean, median, percentile  # noqa: E402
from loadgen import Actor, drive  # noqa: E402
from workloads import Book, Context, Stream  # noqa: E402

WORKLOADS = ("browse", "lab-day")
#: Writer rate on lab-day, entries per second (open loop).
WRITE_RATE = 10.0
#: Expert blocks in the block probe (neither workload issues them).
PROBE_BLOCKS = 2
#: Rate of the probe's registrations (open loop), entries per second:
#: spread over ~9 s, so one slow spell of the host does not set them.
PROBE_WRITE_RATE = 25.0
#: Untimed warm-up before the timed segment, seconds.
WARMUP_S = 1.5
#: Whether each slice of a traced run's timed segment is traced: ABBA
#: order, so each traced slice has an untraced neighbour and a drift of
#: the host's speed across the segment weighs on both alike.
TRACE_SLICES = (False, True, True, False, False, True, True, False)
#: Operation classes each workload's own segment issues; the probe
#: covers the rest, so every run reports every end-to-end metric.
OWN_CLASSES = {
    "browse": {"page", "api", "revalidate", "search"},
    "lab-day": {"page", "api", "revalidate", "search", "write", "pipeline"},
}
END_TO_END = {
    "setup_s": "s", "read_rps": "1/s", "page_p50_ms": "ms",
    "api_p50_ms": "ms", "revalidate_p50_ms": "ms", "search_p50_ms": "ms",
    "pipeline_p50_ms": "ms", "block_mean_ms": "ms",
    "server_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "portal.server.overhead_ms": "ms", "portal.server.cpu_ms_per_req": "ms",
    "portal.server.gc_ms_per_req": "ms", "portal.app_ms": "ms",
    "portal.render_ms": "ms", "portal.validator_ms": "ms",
    "portal.not_modified_ratio": "ratio", "portal.page_kb": "KB",
    "portal.unattributed_ms": "ms", "security.acl_ms": "ms",
    "security.session_ms": "ms", "orm.rows_per_req": "count",
    "orm.materialise_ms": "ms", "storage.queries_per_req": "count",
    "storage.query_ms": "ms", "storage.snapshot_ms": "ms",
    "storage.query_cache_hit_ratio": "ratio",
    "storage.query_cache_evictions": "count",
    "storage.commits_per_write": "count", "storage.fsyncs_per_commit": "count",
    "storage.commit_ms": "ms", "storage.begin_wait_ms": "ms",
    "storage.wal_bytes_per_write": "bytes",
    "search.query_ms": "ms", "search.cache_hit_ratio": "ratio",
    "search.index_ms_per_write": "ms", "graphview.rebuild_ms": "ms",
    "graphview.rebuilds_per_req": "count", "admin.report_ms": "ms",
    "dataimport.import_ms": "ms", "dataimport.assign_ms": "ms",
    "apps.run_ms": "ms", "workflow.transitions_per_pipeline": "count",
    "tasks.jobs_per_pipeline": "count", "events.publish_ms_per_write": "ms",
    "audit.rows_per_write": "count", "trace.overhead_pct": "%",
}


# -- the portal process ---------------------------------------------------------

#: With two or more CPUs the portal process and the client each get one,
#: so neither's threads migrate or wait behind the other's.
SERVER_CPU, CLIENT_CPU = 1, 0


def _pin(cpu: int):
    def pin() -> None:
        if len(os.sched_getaffinity(0)) >= 2:
            os.sched_setaffinity(0, {sorted(os.sched_getaffinity(0))[cpu]})
    return pin



class Server:
    """A launcher process serving a fresh copy of the fixture."""

    def __init__(self, work: Path, fixture_dir: Path):
        self.run_dir = work / f"run-{os.getpid()}"
        shutil.rmtree(self.run_dir, ignore_errors=True)
        started = time.perf_counter()
        shutil.copytree(fixture_dir / "data", self.run_dir)
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("launcher.py")),
             "--data", str(self.run_dir)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            preexec_fn=_pin(SERVER_CPU),
        )
        try:
            self.ready = self._read()
            self.port = self.ready["port"]
            probe = Connection("127.0.0.1", self.port)
            if probe.get("/ping").status != 200:
                raise RuntimeError("portal did not answer /ping")
            probe.close()
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - started

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"launcher exited with {self.proc.wait()}")
        return json.loads(line)

    def command(self, text: str) -> dict:
        self.proc.stdin.write(text + "\n")
        self.proc.stdin.flush()
        return self._read()

    def cpu_s(self) -> float:
        fields = Path(f"/proc/{self.proc.pid}/stat").read_text().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def rss_mb(self) -> float:
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024
        return 0.0

    def stop(self) -> None:
        try:
            if self.proc.poll() is None:
                self.proc.stdin.write("quit\n")
                self.proc.stdin.flush()
                self.proc.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        finally:
            shutil.rmtree(self.run_dir, ignore_errors=True)


# -- one run ------------------------------------------------------------------------


class Run:
    def __init__(self, args, server: Server, facts: dict):
        self.args = args
        self.server = server
        self.ctx = Context(facts, server.ready, args.seed)
        host, port = "127.0.0.1", server.port
        self.expert = Connection(host, port)
        self.expert.login(facts["expert"], fixture.PASSWORD)
        self.lab = Connection(host, port)
        self.lab.login(facts["lab_user"], fixture.PASSWORD)
        self.lab_reader = Connection(host, port)
        self.lab_reader.login(facts["lab_user"], fixture.PASSWORD)
        self.problems: list[str] = []

    # -- set-up the client needs (untimed) ------------------------------------

    def learn_lab(self) -> None:
        ctx = self.ctx
        for pid in ctx.facts["lab_projects"]:
            data = checks.get_json(self.lab, f"/api/projects/{pid}", self.problems)
            for sample in data["samples"]:
                ctx.lab_samples.append(sample)
                detail = checks.get_json(self.lab, f"/api/samples/{sample['id']}",
                                      self.problems)
                ids = [e["id"] for e in detail["extracts"]]
                if ids:
                    ctx.lab_extracts.setdefault(pid, []).extend(ids)
        if not ctx.lab_samples or not ctx.lab_extracts:
            raise RuntimeError("the lab's projects hold no samples with extracts")

    # -- segments -----------------------------------------------------------------

    def actors(self, stream: str, first: list[int]) -> list[Actor]:
        ctx, workload = self.ctx, self.args.workload
        if workload == "browse":
            return [Actor(self.expert, Stream(ctx, "browse", "reader", stream),
                          first=first[0])]
        return [
            Actor(self.lab_reader, Stream(ctx, "lab-day", "reader", stream),
                  first=first[0]),
            Actor(self.lab, Stream(ctx, "lab-day", "writer", stream),
                  rate=WRITE_RATE, first=first[1]),
        ]

    def segment(self, name: str, seconds: float, *, stream: str = "",
                first: "list[int] | None" = None) -> tuple[Book, float, list[Actor]]:
        """Whole rounds of the workload's streams for *seconds*.

        Rounds come from stream *stream* (default *name*), actor *i*
        starting at round ``first[i]`` (default 0); afterwards each
        actor's ``rounds`` is its next round.
        """
        ctx = self.ctx
        ctx.book, ctx.segment = Book(), name
        actors = self.actors(stream or name, first or [0, 0])
        started = time.perf_counter()
        drive(ctx, actors, seconds)
        elapsed = time.perf_counter() - started
        return ctx.book, elapsed, actors

    def probe(self, what: str, half: int = 0) -> Book:
        """The classes the workload does not issue, on an otherwise idle
        portal: ``writes`` (half *half* of the write probe: registrations
        at PROBE_WRITE_RATE with pipelines among them, as the lab
        scientist) or ``blocks`` (expert blocks, closed loop)."""
        ctx = self.ctx
        ctx.book, ctx.segment = Book(), "probe"
        if what == "writes":
            actor = Actor(self.lab, Stream(ctx, "probe", "writer", "probe"),
                          rate=PROBE_WRITE_RATE, rounds=range(half, half + 1))
        else:
            actor = Actor(self.expert, Stream(ctx, "probe", "reader", "probe"),
                          rounds=range(PROBE_BLOCKS))
        drive(ctx, [actor], 0)
        return ctx.book

    def counters(self) -> dict[str, float]:
        return layers.read_counters(self.expert.get("/admin/metrics.txt").text)

    # -- checks ---------------------------------------------------------------------

    def check(self, viewed_projects: set[str]) -> None:
        ctx, problems = self.ctx, self.problems
        samples_of = checks.deployment_totals(self.expert, ctx.facts, ctx.ledger, problems)
        checks.project_pages(self.expert, viewed_projects, samples_of, problems)
        checks.ledger_readback(self.lab, ctx.ledger, problems)
        checks.search_hits(ctx.ledger.searches, problems)
        for conn in (self.expert, self.lab, self.lab_reader):
            checks.etag_triples(conn, problems)
        checks.pipelines(self.lab, ctx.ledger, problems)
        checks.network(self.expert, ctx.bodies, ctx.ledger, problems)
        checks.reports(self.expert, ctx.facts, ctx.ledger, problems)


# -- metrics ------------------------------------------------------------------------

READS = ("page", "api", "revalidate", "search", "network", "report", "bigpage")


def reads(book: Book) -> list[float]:
    """Latencies (s) of every GET class a reader issues."""
    return [v for kind in READS for v in book.latencies.get(kind, [])]


def end_to_end(workload: str, main: Book, elapsed: float, actors: list[Actor],
               probes: dict[str, list[Book]], setup_s: float,
               rss_mb: float) -> dict[str, float]:
    own = OWN_CLASSES[workload]

    def lat(kind: str) -> list[float]:
        if kind in own:
            books = [main]
        else:
            books = probes["blocks" if kind == "block" else "writes"]
        return [1e3 * v for book in books for v in book.latencies.get(kind, [])]

    reader = actors[0]
    return {
        "setup_s": setup_s,
        "read_rps": len(reads(main)) / (reader.t_end - reader.t0 if reader.t_end
                                        else elapsed),
        "page_p50_ms": median(lat("page")),
        "api_p50_ms": median(lat("api")),
        "revalidate_p50_ms": median(lat("revalidate")),
        "search_p50_ms": median(lat("search")),
        "pipeline_p50_ms": median(lat("pipeline")),
        "block_mean_ms": mean(lat("block")),
        "server_rss_mb": rss_mb,
    }


def git_sha(root: Path) -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, text=True,
                             capture_output=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def summary(book: Book, elapsed: float) -> dict:
    """Per-class attempts, failures, sample counts, p50 and p95 of one
    segment; the samples themselves (ms) of classes with fewer than 40;
    how late an open-loop writer started its entries."""
    lateness = [1e3 * v for v in book.lateness]
    return {
        "lateness_ms": {"p50": median(lateness), "p95": percentile(lateness, 95),
                        "max": max(lateness, default=0.0)},
        "elapsed_s": round(elapsed, 3),
        "attempted": dict(sorted(book.attempted.items())),
        "failed": dict(sorted(book.failed.items())),
        "samples": {k: len(v) for k, v in sorted(book.latencies.items())},
        "p50_p95_ms": {k: [median(v) * 1e3, percentile(v, 95) * 1e3]
                       for k, v in sorted(book.latencies.items())},
        "few_ms": {k: [round(1e3 * x, 1) for x in v]
                   for k, v in sorted(book.latencies.items()) if len(v) < 40},
    }


def traced_segment(run: Run, server: Server, seconds: float,
                   segment) -> dict:
    """The timed segment of a traced run, in TRACE_SLICES.

    The slices continue one stream of rounds, so the run issues the
    same operations as an untraced run's timed segment.  The program's
    counters, server CPU and collector time are taken over the
    untraced slices; tracing overhead is the median, over adjacent
    (untraced, traced) pairs of slices, of the ratio of their reads'
    p50s.
    """
    slice_s = seconds / len(TRACE_SLICES)
    untraced, traced = Book(), Book()
    counters: dict[str, float] = {}
    cpu_s = gc_s = 0.0
    first = [0, 0]
    p50s: list[float] = []
    for index, on in enumerate(TRACE_SLICES):
        name = "traced" if on else "main"
        if on:
            server.command("trace on")
        else:
            before, cpu0 = run.counters(), server.cpu_s()
            server.command("gc on")
        book, elapsed, actors = run.segment(name, slice_s, stream="main",
                                            first=first)
        first = [actor.rounds for actor in actors] + [0]
        if on:
            server.command("trace off")
        else:
            gc_s += server.command("gc off")["gc_s"]
            cpu_s += server.cpu_s() - cpu0
            after = run.counters()
            for key, value in after.items():
                counters[key] = counters.get(key, 0.0) + value - before[key]
        segment(f"{name}-{index}", book, elapsed)
        (traced if on else untraced).merge(book)
        p50s.append(median(reads(book)))
    ratios = [p50s[i + 1] / p50s[i] if TRACE_SLICES[i + 1] else p50s[i] / p50s[i + 1]
              for i in range(0, len(TRACE_SLICES), 2) if min(p50s[i:i + 2]) > 0]
    return {"untraced": untraced, "traced": traced, "counters": counters,
            "cpu_s": cpu_s, "gc_s": gc_s,
            "overhead": 100.0 * (median(ratios) - 1.0) if ratios else 0.0}


def execute(args, server: Server, facts: dict) -> tuple[dict, dict]:
    run = Run(args, server, facts)
    run.learn_lab()
    report: dict = {"segments": {}}
    books: list[Book] = []
    own = OWN_CLASSES[args.workload]

    def segment(name: str, book: Book, elapsed: float) -> None:
        books.append(book)
        report["segments"][name] = summary(book, elapsed)

    probes: dict[str, list[Book]] = {"writes": [], "blocks": []}

    def probe(what: str, half: int = 0) -> None:
        started = time.perf_counter()
        book = run.probe(what, half)
        probes[what].append(book)
        segment(f"probe-{what}-{half}", book, time.perf_counter() - started)

    # The write probe runs in two halves, one before the warm-up (so a
    # read-only workload's timed part runs on a settled, re-warmed
    # deployment) and one at the end, so that its timings sample two
    # spells of the host, not one.
    if "write" not in own:
        probe("writes", 0)
    warm, elapsed, _ = run.segment("warm", WARMUP_S)
    segment("warm", warm, elapsed)

    if args.trace:
        part = traced_segment(run, server, args.seconds, segment)
        server.command("trace on")
    else:
        main, elapsed, actors = run.segment("main", args.seconds)
        segment("main", main, elapsed)
    probe("blocks")
    if args.trace:
        server.command("trace off")
        spans_path = server.run_dir / "spans.json"
        server.command(f"dump {spans_path}")
        spans = layers.Spans(json.loads(spans_path.read_text()))
    if "write" not in own:
        probe("writes", 1)
    rss_mb = server.rss_mb()
    checked = time.perf_counter()
    run.check(run.ctx.viewed_projects)
    report["check_s"] = round(time.perf_counter() - checked, 3)

    if args.trace:
        untraced, traced = part["untraced"], part["traced"]
        pipelines: dict[str, list[str]] = {}
        for rid in spans.requests("traced-pipe"):
            pipelines.setdefault(rid.split("-")[1], []).append(rid)
        values = layers.per_layer(
            spans, gets=traced.gets, writes=spans.requests("traced-write"),
            pipelines=pipelines, reqs=sum(untraced.attempted.values()),
            counters=part["counters"], cpu_s=part["cpu_s"], gc_s=part["gc_s"],
            page_bytes=untraced.page_bytes, conditional=untraced.conditional,
            overhead=part["overhead"])
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in PER_LAYER_UNITS.items()}
    else:
        values = end_to_end(args.workload, main, elapsed, actors, probes,
                            server.setup_s, rss_mb)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}

    report["problems"] = run.problems
    report["failures"] = [f for b in books for f in b.failures]
    attempted = sum(sum(b.attempted.values()) for b in books)
    failed = sum(sum(b.failed.values()) for b in books)
    result = {"correct": not run.problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return result, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="a 2%% deployment, for the benchmark's own tests")
    args = parser.parse_args(argv)

    root = fixture.repo_root()
    if not (root / "src" / "repro").is_dir():
        print(f"error: no program source under {root / 'src'}", file=sys.stderr)
        return 2
    scale = 0.02 if args.smoke else 1.0
    _pin(CLIENT_CPU)()
    work = root / ".bench_build" / "portalbench" / ("smoke" if args.smoke else "full")
    fixture_dir = work / "fixtures" / fixture.program_key()
    build = fixture.ensure(fixture_dir, scale)
    facts = fixture.load_facts(fixture_dir)
    server = Server(work, fixture_dir)
    try:
        result, report = execute(args, server, facts)
    finally:
        server.stop()
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "flush": "always", "build_s": build,
        "env": {"git_sha": git_sha(root), "cpus": os.cpu_count(),
                "python": platform.python_version(),
                "platform": platform.platform()},
        **report,
    }
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
