"""The benchmark's operations: seeded rounds for each workload.

Every operation is a generator: it yields :class:`client.Request`\\ s,
receives each :class:`client.Response`, and books its outcome into a
:class:`Book`.  Operations come in *rounds*; round *k* of a stream is a
pure function of (seed, workload, segment, k), so two runs with one
seed attempt the same operations, whatever their length, and every run
attempts whole rounds.

Operation classes (the ``kind`` every result is booked under):

* ``page`` — an HTML page render (project, sample, workunit);
* ``api`` — a JSON API GET;
* ``revalidate`` — a conditional GET from the client's ETag cache;
  booked as ``revalidate`` when answered 304, else under the class of
  the page it re-fetched;
* ``search`` — a full-text search page;
* ``write`` — a registration POST (sample, sample with a new
  annotation value, extract);
* ``pipeline`` — data import, extract assignment, experiment
  definition and run, until the run's workunit reaches its final state;
* ``block`` — an expert's heavy pages in a fixed order (see
  :func:`expert_block`), each also booked under its own class:
  ``network`` (an object-network page, ``/browse/<type>/<id>``),
  ``report`` (the usage-report page) and ``bigpage`` (the largest
  project's page, its experiments page, a search CSV export).
"""

from __future__ import annotations

import functools
import itertools
import json
import random
import urllib.parse
from dataclasses import dataclass, field

from client import Request, Response

#: Words of the generator's vocabulary (species, tissues, treatments,
#: procedures, workunit prefixes, file kinds, object nouns).
WORDS = (
    "arabidopsis thaliana homo sapiens mus musculus saccharomyces "
    "cerevisiae drosophila melanogaster escherichia coli rattus norvegicus "
    "danio rerio leaf root liver brain muscle whole culture light dark heat "
    "cold drought control salt trizol rna extraction phenol chloroform "
    "column purification protein digest facs sorting import analysis search "
    "measurement report study sample extract workunit resource cel raw wiff "
    "txt response investigating"
).split()
SPECIES = ("Arabidopsis Thaliana", "Homo sapiens", "Mus musculus")
PROCEDURES = ("TRIzol RNA extraction", "column purification", "protein digest")
DISEASE_STATES = ("healthy", "infected", "heat shock", "drought stress")

#: Writer entries per round on ``lab-day``; every PIPELINE_EVERY-th
#: entry is a pipeline.
WRITER_ROUND = 20
PIPELINE_EVERY = 20
#: Registrations and pipelines in each half of the write probe.
PROBE_WRITES = 100
PROBE_PIPELINES = 10


@dataclass
class Book:
    """Outcomes of one segment, per operation class."""

    latencies: dict[str, list[float]] = field(default_factory=dict)
    attempted: dict[str, int] = field(default_factory=dict)
    failed: dict[str, int] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)
    page_bytes: list[int] = field(default_factory=list)
    lateness: list[float] = field(default_factory=list)
    conditional: int = 0
    #: (request id, client seconds) of every GET, for the trace join.
    gets: list[tuple[str, float]] = field(default_factory=list)

    def attempt(self, kind: str) -> None:
        self.attempted[kind] = self.attempted.get(kind, 0) + 1

    def ok(self, kind: str, seconds: float) -> None:
        self.latencies.setdefault(kind, []).append(seconds)

    def fail(self, kind: str, why: str) -> None:
        self.failed[kind] = self.failed.get(kind, 0) + 1
        if len(self.failures) < 20:
            self.failures.append(f"{kind}: {why}")

    def merge(self, other: "Book") -> None:
        """Add *other*'s outcomes to this book."""
        for kind, values in other.latencies.items():
            self.latencies.setdefault(kind, []).extend(values)
        for kind, count in other.attempted.items():
            self.attempted[kind] = self.attempted.get(kind, 0) + count
        for kind, count in other.failed.items():
            self.failed[kind] = self.failed.get(kind, 0) + count
        self.failures.extend(other.failures[:max(0, 20 - len(self.failures))])
        self.page_bytes.extend(other.page_bytes)
        self.lateness.extend(other.lateness)
        self.conditional += other.conditional
        self.gets.extend(other.gets)


@dataclass
class Ledger:
    """What the run created, kept apart from the program for checking."""

    samples: dict[int, dict] = field(default_factory=dict)
    extracts: dict[int, list[tuple[str, str]]] = field(default_factory=dict)
    pipelines: list[dict] = field(default_factory=list)
    searches: list[tuple[str, bytes]] = field(default_factory=list)

    def extract_count(self) -> int:
        return sum(len(v) for v in self.extracts.values())


class Context:
    """Shared state of one run: targets, ETag cache, ledger, book."""

    def __init__(self, facts: dict, ids: dict, seed: int):
        self.facts = facts
        self.app_id = ids["app_id"]
        self.attribute_id = ids["attribute_id"]
        self.seed = seed
        self.book = Book()
        self.ledger = Ledger()
        #: The connection of the operation being started.
        self.conn = None
        self.lab_samples: list[dict] = []
        #: project id -> extract ids, for the lab projects with extracts.
        self.lab_extracts: dict[int, list[int]] = {}
        #: Due time of the operation being started (open loop), else None.
        self.due: "float | None" = None
        #: Last body of every network and report page, for the checks.
        self.bodies: dict[str, bytes] = {}
        #: Project pages the run received, for the page check.
        self.viewed_projects: set[str] = set()
        self._rid = 0
        self.segment = "main"

    def rid(self, tag: str) -> str:
        self._rid += 1
        return f"{self.segment}-{tag}-{self._rid}"


# -- single requests ---------------------------------------------------------


def _location_id(resp: Response, prefix: str) -> int:
    location = resp.header("location")
    rest = location.split(prefix, 1)[1] if prefix in location else ""
    digits = rest.split("/", 1)[0]
    if resp.status != 303 or not digits.isdigit():
        raise ValueError(f"expected 303 to {prefix}<id>, got {resp.status} {location!r}")
    return int(digits)


def get_op(ctx: Context, kind: str, path: str, *, conditional: bool = False):
    """One GET, booked under *kind* (or ``revalidate`` when answered 304)."""
    book, conn = ctx.book, ctx.conn
    cached = conn.etags.get(path) if conditional else None
    etag = cached[0] if cached else ""
    book.attempt("revalidate" if conditional else kind)
    rid = ctx.rid(kind)
    resp = yield Request("GET", path, "revalidate" if conditional else kind,
                         etag=etag, request_id=rid)
    if conditional:
        book.conditional += 1
    if resp.status == 304 and etag:
        book.ok("revalidate", resp.seconds)
    elif resp.status == 200:
        book.ok(kind, resp.seconds)
        if kind in ("page", "bigpage", "network", "report"):
            book.page_bytes.append(len(resp.body))
        if kind in ("network", "report"):
            ctx.bodies[path] = resp.body
        tag = resp.header("etag")
        if tag:
            conn.remember(path, tag, resp.body)
        if path.startswith("/projects/") and path.count("/") == 2:
            ctx.viewed_projects.add(path)
        if kind == "search":
            term = urllib.parse.parse_qs(path.split("?", 1)[1])["q"][0]
            ctx.ledger.searches.append((term, resp.body))
    else:
        book.fail("revalidate" if conditional else kind,
                  f"GET {path} -> {resp.status}")
        return None
    book.gets.append((rid, resp.seconds))
    return resp.seconds


# -- writes ------------------------------------------------------------------


def _nonce(ctx: Context, round_no: int, index: int) -> str:
    return f"bench{ctx.seed}r{round_no}i{index}{ctx.segment[0]}"


def register_sample(ctx: Context, project_id: int, nonce: str, rng, *,
                    new_value: bool):
    species = rng.choice(SPECIES)
    form = [("name", f"{nonce} sample"), ("species", species),
            ("description", f"registered by {nonce}")]
    expected_annotations: list[str] = []
    if new_value:
        value = f"{rng.choice(DISEASE_STATES)} {nonce}"
        form.append((f"new_attr_{ctx.attribute_id}", value))
        expected_annotations = [value]
    resp = yield Request("POST", f"/projects/{project_id}/samples", "write",
                         form=form, request_id=ctx.rid("write"))
    sample_id = _location_id(resp, "/samples/")
    ctx.ledger.samples[sample_id] = {
        "name": f"{nonce} sample", "species": species,
        "project_id": project_id, "annotations": expected_annotations,
        "nonce": nonce,
    }
    return sample_id


def register_extract(ctx: Context, sample_id: int, nonce: str, rng):
    name, procedure = f"{nonce} extract", rng.choice(PROCEDURES)
    resp = yield Request("POST", f"/samples/{sample_id}/extracts", "write",
                         form=[("name", name), ("procedure", procedure)],
                         request_id=ctx.rid("write"))
    if _location_id(resp, "/samples/") != sample_id:
        raise ValueError("extract registration redirected elsewhere")
    ctx.ledger.extracts.setdefault(sample_id, []).append((name, procedure))


def pipeline(ctx: Context, project_id: int, scan: int, nonce: str):
    """Import two GeneChip scans, assign extracts, define and run the
    two-group experiment; ends when the run's workunit is final."""
    files = [f"scan{scan:02d}_a.cel", f"scan{scan:02d}_b.cel"]
    tag = f"pipe{nonce}"
    resp = yield Request(
        "POST", f"/projects/{project_id}/import", "pipeline",
        form=[("provider", "GeneChip"), ("workunit_name", f"{nonce} import"),
              ("mode", "copy"), ("file", files[0]), ("file", files[1])],
        request_id=ctx.rid(tag),
    )
    import_wu = _location_id(resp, "/workunits/")
    resp = yield Request("GET", f"/api/workunits/{import_wu}", "pipeline",
                         request_id=ctx.rid(tag))
    resources = resp_json(resp)["resources"]
    extracts = ctx.lab_extracts[project_id]
    assignment = [
        (f"extract_{r['id']}", str(extracts[(scan + i) % len(extracts)]))
        for i, r in enumerate(resources)
    ]
    resp = yield Request("POST", f"/workunits/{import_wu}/assign", "pipeline",
                         form=assignment, request_id=ctx.rid(tag))
    _location_id(resp, "/workunits/")
    resp = yield Request(
        "POST", f"/projects/{project_id}/experiments", "pipeline",
        form=[("name", f"{nonce} experiment"),
              ("application_id", str(ctx.app_id)), ("attributes", "{}")]
        + [("resource", str(r["id"])) for r in resources],
        request_id=ctx.rid(tag),
    )
    experiment_id = _location_id(resp, "/experiments/")
    resp = yield Request(
        "POST", f"/experiments/{experiment_id}/run", "pipeline",
        form=[("workunit_name", f"{nonce} results"),
              ("param_reference_group", "_a")],
        request_id=ctx.rid(tag),
    )
    result_wu = _location_id(resp, "/workunits/")
    resp = yield Request("GET", f"/api/workunits/{result_wu}", "pipeline",
                         request_id=ctx.rid(tag))
    status = resp_json(resp)["workunit"]["status"]
    if status != "available":
        raise ValueError(f"experiment workunit {result_wu} ended {status!r}")
    ctx.ledger.pipelines.append({"result_wu": result_wu, "files": files})


def resp_json(resp: Response) -> dict:
    if resp.status != 200:
        raise ValueError(f"expected 200 JSON, got {resp.status}")
    return json.loads(resp.body)


def booked(ctx: Context, kind: str, op):
    """Run a multi-request operation, booking it as one *kind* result.

    Latency runs from the operation's due time (set by the load
    generator) to its last response.
    """
    book = ctx.book
    book.attempt(kind)
    due = ctx.due
    try:
        resp = None
        while True:
            req = op.send(resp)
            resp = yield req
            if due is None:
                due = resp.sent
    except StopIteration:
        book.ok(kind, resp.done - due)
    except (ValueError, KeyError) as exc:
        book.fail(kind, str(exc))


# -- streams -------------------------------------------------------------------


class Stream:
    """Rounds of operations for one actor of one segment."""

    def __init__(self, ctx: Context, workload: str, actor: str, segment: str):
        self.ctx = ctx
        self.workload = workload
        self.actor = actor
        self.segment = segment

    def rng(self, round_no: int) -> random.Random:
        return random.Random(
            f"{self.ctx.seed}:{self.workload}:{self.actor}:{self.segment}:{round_no}"
        )

    def round(self, round_no: int) -> list:
        """Operation factories (zero-argument callables) of one round."""
        return getattr(self, f"_{self.workload.replace('-', '_')}_{self.actor}")(
            round_no, self.rng(round_no)
        )

    # browse: the whole deployment, one expert connection ------------------

    def _browse_reader(self, round_no: int, rng: random.Random) -> list:
        facts, ctx = self.ctx.facts, self.ctx
        projects, cum = zipf_projects(facts)

        def project() -> int:
            return rng.choices(projects, cum_weights=cum)[0]

        fresh: list[tuple[str, str]] = []
        for _ in range(8):
            fresh.append(("page", f"/projects/{project()}"))
        for _ in range(6):
            fresh.append(("page", f"/samples/{rng.randint(1, facts['samples'])}"))
        for _ in range(6):
            fresh.append(("page", f"/workunits/{rng.randint(1, facts['workunits'])}"))
        for _ in range(4):
            fresh.append(("api", f"/api/projects/{project()}"))
        for _ in range(4):
            fresh.append(("api", f"/api/samples/{rng.randint(1, facts['samples'])}"))
        for _ in range(4):
            fresh.append(("api", f"/api/workunits/{rng.randint(1, facts['workunits'])}"))
        for _ in range(8):
            fresh.append(("search", f"/search?q={search_term(rng, facts)}"))
        rng.shuffle(fresh)
        return _with_revalidations(ctx, fresh, rng, 10)

    # lab-day: a lab's working set beside an open-loop writer ---------------

    def _lab_day_reader(self, round_no: int, rng: random.Random) -> list:
        ctx = self.ctx
        lab = ctx.facts["lab_projects"]
        samples = [s["id"] for s in ctx.lab_samples]
        terms = sorted({w.lower() for s in ctx.lab_samples[:3]
                        for w in s["species"].split()}) + ["sample", "leaf"]
        fresh: list[tuple[str, str]] = []
        for _ in range(6):
            fresh.append(("page", f"/projects/{rng.choice(lab)}"))
        for _ in range(6):
            fresh.append(("page", f"/samples/{rng.choice(samples)}"))
        for _ in range(3):
            fresh.append(("api", f"/api/projects/{rng.choice(lab)}"))
        for _ in range(3):
            fresh.append(("api", f"/api/samples/{rng.choice(samples)}"))
        for _ in range(4):
            fresh.append(("search", f"/search?q={rng.choice(terms)}"))
        rng.shuffle(fresh)
        return _with_revalidations(ctx, fresh, rng, 6)

    def _lab_day_writer(self, round_no: int, rng: random.Random) -> list:
        ctx = self.ctx
        lab = ctx.facts["lab_projects"]
        entries = []
        for index in range(WRITER_ROUND):
            nonce = _nonce(ctx, round_no, index)
            if index % PIPELINE_EVERY == PIPELINE_EVERY - 1:
                scan = 1 + (round_no * 7 + index + ctx.seed) % 400
                project = rng.choice(sorted(ctx.lab_extracts))
                entries.append(lambda p=project, s=scan, n=nonce: booked(
                    ctx, "pipeline", pipeline(ctx, p, s, n)))
                continue
            entries.append(write_entry(ctx, index, nonce, rng.choice(lab),
                                       random.Random(rng.random())))
        return entries

    # probe: classes a workload does not issue itself -----------------------

    def _probe_writer(self, round_no: int, rng: random.Random) -> list:
        ctx = self.ctx
        lab = ctx.facts["lab_projects"]
        every = PROBE_WRITES // PROBE_PIPELINES
        entries = []
        for index in range(PROBE_WRITES):
            entries.append(write_entry(ctx, index, _nonce(ctx, round_no, index),
                                       rng.choice(lab), random.Random(rng.random())))
            if index % every == every - 1:
                scan = 1 + (index * 131 + ctx.seed) % 400
                project = rng.choice(sorted(ctx.lab_extracts))
                nonce = _nonce(ctx, round_no, PROBE_WRITES + index)
                entries.append(lambda p=project, s=scan, n=nonce: booked(
                    ctx, "pipeline", pipeline(ctx, p, s, n)))
        return entries

    def _probe_reader(self, round_no: int, rng: random.Random) -> list:
        ctx = self.ctx
        block = heavy_block(ctx, rng, f"/browse/sample/{network_sample(ctx)}")
        return [lambda: expert_block(ctx, block)]


def heavy_block(ctx: Context, rng: random.Random, network: str) -> list:
    """An expert's heavy pages: an object network, three usage reports,
    the largest project's page, its experiments page and a search CSV
    export, in a fixed order."""
    big = ctx.facts["largest_project"]
    return ([("network", network)] + [("report", "/admin/reports")] * 3
            + [("bigpage", f"/projects/{big}"),
               ("bigpage", f"/projects/{big}/experiments"),
               ("bigpage", f"/search/export?q={rng.choice(WORDS)}")])


def expert_block(ctx: Context, block: list):
    """The heavy pages as one ``block`` operation.

    Each page is booked under its own class too, but only the block's
    total is a steady measure: each of these pages allocates enough to
    set off full collections of the deployment-sized heap, which land on
    whichever page crosses the collector's threshold (a usage report
    takes ~0.2 s without one, ~0.8 s with one), while the block as a
    whole pays for the collections its own allocations cause.
    """
    ctx.book.attempt("block")
    total = 0.0
    for kind, path in block:
        seconds = yield from get_op(ctx, kind, path)
        if seconds is None:
            ctx.book.fail("block", f"{kind} {path} failed")
            return
        total += seconds
    ctx.book.ok("block", total)


def get_factory(ctx: Context, kind: str, path: str):
    return lambda: get_op(ctx, kind, path)


def write_entry(ctx: Context, index: int, nonce: str, project: int, rng):
    """Registration *index* of a writer round: a sample, a sample with a
    new annotation value, or an extract on the latest sample this run
    registered without one (chosen when the entry starts)."""

    def start():
        plain = [sid for sid, s in ctx.ledger.samples.items() if not s["annotations"]]
        if index % 3 == 2 and plain:
            op = register_extract(ctx, plain[-1], nonce, rng)
        else:
            op = register_sample(ctx, project, nonce, rng, new_value=index % 3 == 1)
        return booked(ctx, "write", op)

    return start


def network_sample(ctx: Context) -> int:
    """A sample this run registered and gave extracts, else the lab's first."""
    with_extracts = [sid for sid in ctx.ledger.extracts if sid in ctx.ledger.samples]
    return with_extracts[-1] if with_extracts else ctx.lab_samples[0]["id"]


@functools.lru_cache(maxsize=1)
def _zipf(count: int, largest: int) -> tuple[list[int], list[float]]:
    projects = [p for p in range(1, count + 1) if p != largest]
    return projects, list(itertools.accumulate(1.0 / p for p in projects))


def zipf_projects(facts: dict) -> tuple[list[int], list[float]]:
    """Projects but the largest, with cumulative 1/id weights: the skew
    the generator assigns samples with (project ids follow its ranks)."""
    return _zipf(facts["projects"], facts["largest_project"])


def search_term(rng: random.Random, facts: dict) -> str:
    """A corpus term: a vocabulary word, or an object number (which makes
    most terms distinct, as scientists search for their own objects)."""
    if rng.random() < 0.4:
        return rng.choice(WORDS)
    return f"{rng.randint(0, facts['samples'] - 1):04d}"


def _with_revalidations(ctx: Context, fresh, rng, count: int) -> list:
    """Factories for *fresh* GETs plus *count* conditional re-fetches,
    each of a cacheable path fetched earlier in the same round."""
    ops = [get_factory(ctx, kind, path) for kind, path in fresh]
    cacheable = [i for i, (kind, path) in enumerate(fresh)
                 if kind in ("page", "api") and not path.startswith("/search")]
    for _ in range(count):
        pick = rng.choice(cacheable)
        kind, path = fresh[pick]
        at = rng.randint(pick + 1, len(fresh))
        ops.insert(at, lambda k=kind, p=path: get_op(ctx, k, p, conditional=True))
        fresh.insert(at, ("revalidate", path))
        cacheable = [i if i < at else i + 1 for i in cacheable]
    return ops
