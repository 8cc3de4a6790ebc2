"""Output checks, made after the timed part against the benchmark's own
expectations: the paper's Final-Remark table and the run's ledger of
successful writes.

Each check appends a message to ``problems`` for every mismatch; a run
with any problem reports ``"correct": false``.
"""

from __future__ import annotations

import html
import io
import json
import re
import zipfile

from client import Connection

_ROW = re.compile(r"<tr>(.*?)</tr>", re.S)
_CELL = re.compile(r"<td>(.*?)</td>", re.S)
_LINK = re.compile(r'<a href="([^"]*)">(.*?)</a>', re.S)


def table_rows(body: bytes, after: str = "") -> list[list[str]]:
    """Cells of every data row of the first table after *after*."""
    text = body.decode("utf-8")
    if after:
        text = text.split(after, 1)[1] if after in text else ""
    table = text.split("<table>", 1)[1].split("</table>", 1)[0] if "<table>" in text else ""
    rows = []
    for row in _ROW.findall(table):
        cells = _CELL.findall(row)
        if cells:
            rows.append(cells)
    return rows


def link_of(cell: str) -> tuple[str, str]:
    match = _LINK.search(cell)
    if not match:
        return "", html.unescape(cell)
    return html.unescape(match.group(1)), html.unescape(match.group(2))


def get_json(conn: Connection, path: str, problems: list[str]) -> "dict | None":
    resp = conn.get(path)
    if resp.status != 200:
        problems.append(f"GET {path} -> {resp.status}")
        return None
    return json.loads(resp.body)


#: The FGCZ deployment in January 2010 (the paper's Final Remark).
PAPER_TABLE = {"projects": 750, "samples": 3151, "extracts": 3642,
               "workunits": 23979}


def paper_table(scale: float) -> dict[str, int]:
    """The paper's figures at *scale*: a reduced deployment keeps each
    figure's share, rounded, and at least one of each."""
    if scale >= 1.0:
        return dict(PAPER_TABLE)
    return {k: max(1, round(n * scale)) for k, n in PAPER_TABLE.items()}


def expected_totals(facts: dict, ledger) -> dict[str, int]:
    """Paper table + this run's ledger (two workunits per pipeline: the
    import and the experiment run)."""
    table = paper_table(facts["scale"])
    pipelines = len(ledger.pipelines)
    return {
        "projects": table["projects"],
        "samples": table["samples"] + len(ledger.samples),
        "extracts": table["extracts"] + ledger.extract_count(),
        "workunits": table["workunits"] + 2 * pipelines,
        "runs": pipelines,
    }


def deployment_totals(expert: Connection, facts: dict, ledger,
                      problems: list[str]) -> dict[int, list[dict]]:
    """Samples, workunits and extracts summed over the JSON API.

    Returns the API sample list of every project, for the page check.
    """
    want = expected_totals(facts, ledger)
    listing = get_json(expert, "/api/projects", problems) or {"projects": []}
    project_ids = [p["id"] for p in listing["projects"]]
    if len(project_ids) != want["projects"]:
        problems.append(f"{len(project_ids)} projects, expected {want['projects']}")
    samples_of: dict[int, list[dict]] = {}
    workunits = 0
    for pid in project_ids:
        data = get_json(expert, f"/api/projects/{pid}", problems)
        if data is None:
            continue
        samples_of[pid] = data["samples"]
        workunits += len(data["workunits"])
    samples = sum(len(v) for v in samples_of.values())
    if samples != want["samples"]:
        problems.append(f"{samples} samples over the API, expected {want['samples']}")
    if workunits != want["workunits"]:
        problems.append(
            f"{workunits} workunits over the API, expected {want['workunits']}")
    extracts = 0
    for rows in samples_of.values():
        for sample in rows:
            data = get_json(expert, f"/api/samples/{sample['id']}", problems)
            if data is not None:
                extracts += len(data["extracts"])
    if extracts != want["extracts"]:
        problems.append(f"{extracts} extracts over the API, expected {want['extracts']}")
    return samples_of


def project_pages(expert: Connection, paths: set[str],
                  samples_of: dict[int, list[dict]], problems: list[str]) -> None:
    """Each viewed project page's sample rows equal its API sample list."""
    for path in sorted(paths):
        pid = int(path.rsplit("/", 1)[1])
        resp = expert.get(path)
        if resp.status != 200:
            problems.append(f"GET {path} -> {resp.status}")
            continue
        rows = set()
        for cells in table_rows(resp.body, "<h2>Samples</h2>"):
            href, name = link_of(cells[1])
            rows.add((int(cells[0]), href, name, html.unescape(cells[2])))
        api = {(s["id"], f"/samples/{s['id']}", s["name"], s["species"])
               for s in samples_of.get(pid, [])}
        if rows != api:
            problems.append(f"{path}: {len(rows ^ api)} sample rows differ from the API")


def ledger_readback(conn: Connection, ledger, problems: list[str]) -> None:
    """Registered samples and extracts read back exactly; nonces find them."""
    for sid, sent in sorted(ledger.samples.items()):
        data = get_json(conn, f"/api/samples/{sid}", problems)
        if data is None:
            continue
        got = data["sample"]
        for key in ("name", "species", "project_id"):
            if got[key] != sent[key]:
                problems.append(f"sample {sid} {key}: {got[key]!r} != {sent[key]!r}")
        if data["annotations"] != sent["annotations"]:
            problems.append(f"sample {sid} annotations {data['annotations']!r}")
        names = {(e["name"], e["procedure"]) for e in data["extracts"]}
        mine = {e for e in names if e[0].startswith("bench")}
        if mine != set(ledger.extracts.get(sid, [])):
            problems.append(f"sample {sid} extracts {sorted(mine)!r}")
        if not _search_finds(conn, sent["nonce"], f"/samples/{sid}", problems):
            problems.append(f"search for {sent['nonce']} misses sample {sid}")
        for name, _ in ledger.extracts.get(sid, []):
            nonce = name.split()[0]
            if not _search_finds(conn, nonce, None, problems, label=name):
                problems.append(f"search for {nonce} misses extract {name!r}")


def _search_finds(conn, term, href, problems, *, label=None) -> bool:
    resp = conn.get(f"/search?q={term}")
    if resp.status != 200:
        problems.append(f"search {term} -> {resp.status}")
        return False
    for cells in table_rows(resp.body, "result(s)</h2>"):
        link, text = link_of(cells[1])
        if (href and link == href) or (label and text == label):
            return True
    return False


def search_hits(searches, problems: list[str]) -> int:
    """Every hit of every search page contains its query term."""
    hits = 0
    for term, body in searches:
        for cells in table_rows(body, "result(s)</h2>"):
            hits += 1
            _, label = link_of(cells[1])
            text = (label + " " + html.unescape(html.unescape(cells[3]))).lower()
            if term.lower() not in text:
                problems.append(f"search {term!r} hit {label!r} lacks the term")
    return hits


def etag_triples(conn: Connection, problems: list[str]) -> None:
    """Each cached (path, ETag, body) of a session still holds: the same
    ETag now comes with the same body."""
    for path, (etag, body) in sorted(conn.etags.items()):
        resp = conn.get(path)
        if resp.status != 200:
            problems.append(f"GET {path} -> {resp.status}")
        elif resp.header("etag") == etag and resp.body != body:
            problems.append(f"{path}: same ETag {etag}, different body")


def pipelines(conn: Connection, ledger, problems: list[str]) -> None:
    """Final state, the imported files as inputs, and a results.zip whose
    run report places every input resource in one of the two groups."""
    for entry in ledger.pipelines:
        wu = entry["result_wu"]
        data = get_json(conn, f"/api/workunits/{wu}", problems)
        if data is None:
            continue
        if data["workunit"]["status"] != "available":
            problems.append(f"workunit {wu} is {data['workunit']['status']}")
        inputs = [r["name"] for r in data["resources"] if r["is_input"]]
        if sorted(inputs) != sorted(entry["files"]):
            problems.append(f"workunit {wu} inputs {inputs!r}")
        resp = conn.get(f"/workunits/{wu}/results.zip")
        if resp.status != 200:
            problems.append(f"results.zip of {wu} -> {resp.status}")
            continue
        archive = zipfile.ZipFile(io.BytesIO(resp.body))
        names = archive.namelist()
        report = (archive.read("report/run_report.txt").decode("utf-8")
                  if "report/run_report.txt" in names else "")
        grouped = sum(int(n) for n in _GROUPED.findall(report))
        if "two_group_result.csv" not in names or grouped != len(entry["files"]):
            problems.append(
                f"results.zip of {wu} accounts for {grouped} of "
                f"{len(entry['files'])} inputs ({names})")


_GROUPED = re.compile(r"group: .*?(\d+) file\(s\)")


def network(conn: Connection, bodies: dict[str, bytes], ledger, problems) -> None:
    """Network pages of samples the run created list exactly their
    project and the extracts the run registered on them."""
    for path, body in sorted(bodies.items()):
        prefix, _, ident = path.rpartition("/")
        if prefix != "/browse/sample" or int(ident) not in ledger.samples:
            continue
        sid = int(ident)
        data = get_json(conn, f"/api/samples/{sid}", problems)
        if data is None:
            continue
        want = {("project", ledger.samples[sid]["project_id"])}
        want |= {("extract", e["id"]) for e in data["extracts"]}
        got = set()
        for cells in table_rows(body):
            href, _ = link_of(cells[1])
            _, _, other, other_id = href.split("/")
            got.add((other, int(other_id)))
        if got != want:
            problems.append(f"{path}: neighbours {sorted(got)} != {sorted(want)}")


def reports(expert: Connection, facts: dict, ledger, problems) -> None:
    """The usage report's run count of the two-group application equals
    the run's pipelines (the fixture has no runs of it)."""
    resp = expert.get("/admin/reports")
    if resp.status != 200:
        problems.append(f"/admin/reports -> {resp.status}")
        return
    want = expected_totals(facts, ledger)["runs"]
    runs = {link_of(c[0])[1]: int(c[1])
            for c in table_rows(resp.body, "<h2>Application popularity</h2>")}
    if runs.get("two group analysis", 0) != want:
        problems.append(f"report shows {runs} runs, expected {want}")
