"""Build the deployment the benchmark runs against, once per program.

The fixture is a checkpointed deployment directory made by the
program's own generator from a fixed seed: the paper's Final-Remark
deployment (750 projects, 3,151 samples, …) plus the accounts the
benchmark logs in as.  Every run copies it to a fresh directory and
brings a server up on the copy, so each run starts from the same state
and pays recovery, reindexing and server start (its measured set-up),
but not synthesis.

Fixtures live under a key hashed from the program's source and this
file, so two versions of the program measured in one checkout never
share a deployment built by the other.

``facts.json`` beside the fixture records what the client needs to
address the deployment (logins, the lab's projects, the largest
project).  Checks compare the served deployment against the paper's
table and the run's ledger, never against saved output of the portal.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys
import time
from pathlib import Path

#: Seed of the deployment generator (the program's default).
DEPLOYMENT_SEED = 2010

PASSWORD = "benchpw"
EXPERT_LOGIN = "user0003"  # generated users 3..24 are facility employees


def repo_root() -> Path:
    return Path(__file__).resolve().parent.parent


def program_key() -> str:
    """Hash of the program's source and of this builder."""
    digest = hashlib.sha256()
    root = repo_root()
    files = sorted((root / "src" / "repro").rglob("*.py")) + [Path(__file__).resolve()]
    for path in files:
        digest.update(str(path.relative_to(root)).encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()[:16]


def import_program() -> None:
    """Make the checkout's ``src`` importable (no install step)."""
    src = str(repo_root() / "src")
    if src not in sys.path:
        sys.path.insert(0, src)


def _lab_of(system) -> tuple[str, list[int]]:
    """The scientist owning the most projects, and those projects.

    Ties go to the lowest user id; the four lowest project ids are the
    lab's working set.  Project 1 (the largest, by the generator's
    Zipf skew) is excluded so lab pages stay lab-sized.
    """
    owners: dict[int, list[int]] = {}
    for row in system.db.query("project").all():
        if row["id"] != 1:
            owners.setdefault(row["created_by"], []).append(row["id"])
    roles = {
        row["id"]: row["role"] for row in system.db.query("user").all()
    }
    best = min(
        (uid for uid in owners if roles.get(uid) == "scientist"),
        key=lambda uid: (-len(owners[uid]), uid),
    )
    login = system.db.get("user", best)["login"]
    return login, sorted(owners[best])[:4]


def _build_base(target: Path, scale: float) -> dict:
    from repro.facade import BFabric
    from repro.workload.generator import DeploymentGenerator, FGCZ_JANUARY_2010

    system = BFabric(target)
    system.recover()
    admin = system.bootstrap(password=PASSWORD)
    spec = FGCZ_JANUARY_2010.scaled(scale) if scale < 1.0 else FGCZ_JANUARY_2010
    DeploymentGenerator(system, seed=DEPLOYMENT_SEED).generate(spec)
    lab_login, lab_projects = _lab_of(system)
    for login in (EXPERT_LOGIN, lab_login):
        user = system.directory.user_by_login(login)
        system.directory.set_password(admin, user.id, PASSWORD)
    sizes = {
        row["project_id"]: 0 for row in system.db.query("sample").all()
    }
    for row in system.db.query("sample").all():
        sizes[row["project_id"]] += 1
    system.db.checkpoint()
    system.close()
    return {
        "scale": scale,
        "expert": EXPERT_LOGIN,
        "lab_user": lab_login,
        "lab_projects": lab_projects,
        "largest_project": max(sizes, key=lambda pid: (sizes[pid], -pid)),
        "projects": spec.projects,
        "samples": spec.samples,
        "workunits": spec.workunits,
    }


def ensure(root: Path, scale: float) -> "float | None":
    """Build the fixture at *root* unless present; returns the build
    seconds, or None when it was there already.

    The build goes to a temporary name and is renamed into place, so an
    interrupted build is never mistaken for a finished one.
    """
    import_program()
    if (root / "facts.json").exists():
        return None
    started = time.perf_counter()
    root.parent.mkdir(parents=True, exist_ok=True)
    tmp = root.with_name(f"{root.name}.tmp{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir()
    try:
        facts = _build_base(tmp / "data", scale)
        (tmp / "facts.json").write_text(json.dumps(facts, indent=1))
        shutil.rmtree(root, ignore_errors=True)
        os.rename(tmp, root)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return time.perf_counter() - started


def load_facts(root: Path) -> dict:
    return json.loads((root / "facts.json").read_text())
