"""Spans around the program's layer entry points, recorded from outside.

The launcher wraps the public entry points of every layer it names in
:data:`TARGETS` (a class attribute or a module-level function) with a
recorder.  Each call becomes one span ``(request, id, parent, name,
start_ns, end_ns, extra)``; the request is the ``X-Request-Id`` the
client sent, picked up where :class:`PortalApplication` is called.
Spans stay in memory until :meth:`Tracer.dump`.  Nothing here changes
what the program computes: wrappers call through and return the result.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time

#: (span name, module, owner class or None for a module function,
#: attribute names).  The span name's first part up to the last dot is
#: the layer.
TARGETS = [
    ("portal.app", "repro.portal.app", "PortalApplication", ["__call__"]),
    ("portal.validator", "repro.portal.caching", "CachePolicy", ["begin"]),
    ("portal.validator", "repro.portal.caching", "_CacheContext",
     ["not_modified", "capture", "finish"]),
    ("portal.render", "repro.portal.render", None,
     ["page", "table", "definition_list", "form", "dropdown"]),
    ("security.acl", "repro.security.acl", "AccessControl",
     ["can", "require", "visible_project_ids", "membership_role"]),
    ("security.session", "repro.security.auth", "Authenticator",
     ["resolve", "login"]),
    ("orm.repo", "repro.orm.repository", "Repository",
     ["get", "get_or_none", "exists", "all", "count", "find", "find_one",
      "create", "save", "update", "delete"]),
    ("orm.repo", "repro.orm.repository", "ModelQuery",
     ["all", "first", "one", "count", "exists", "pks", "values"]),
    ("storage.query", "repro.storage.query", "Query",
     ["all", "first", "one", "count", "exists", "pks", "values",
      "distinct_values", "aggregate", "group_by"]),
    ("storage.snapshot", "repro.storage.database", "Database", ["snapshot"]),
    ("storage.snapshot", "repro.storage.snapshot", "Snapshot", ["close"]),
    ("storage.begin", "repro.storage.database", "Database", ["transaction"]),
    ("storage.commit", "repro.storage.transaction", "Transaction", ["commit"]),
    ("storage.wal", "repro.storage.wal", "WriteAheadLog", ["append_commit"]),
    ("search.query", "repro.search.engine", "SearchEngine", ["search"]),
    ("search.index", "repro.search.engine", "SearchEngine",
     ["index_document", "remove_document"]),
    ("graphview.rebuild", "repro.graphview.links", "LinkGraph", ["rebuild"]),
    ("graphview.neighbors", "repro.graphview.links", "LinkGraph",
     ["neighbors"]),
    ("admin.report", "repro.admin.reports", "UsageReports",
     ["objects_per_project", "storage_by_mode", "activity_by_user",
      "application_popularity", "vocabulary_health", "full_report",
      "export_csv"]),
    ("dataimport.import", "repro.dataimport.importer", "DataImportService",
     ["import_files"]),
    ("dataimport.assign", "repro.dataimport.importer", "DataImportService",
     ["apply_assignments"]),
    ("apps.run", "repro.apps.experiments", "ExperimentService", ["run"]),
    ("workflow.transition", "repro.workflow.engine", "WorkflowEngine",
     ["fire"]),
    ("tasks.job", "repro.tasks.queue", "JobQueue",
     ["enqueue", "claim", "ack", "nack", "wait"]),
    ("tasks.task", "repro.tasks.service", "TaskService",
     ["create", "complete_for_entity"]),
    ("events.publish", "repro.util.events", "EventBus", ["publish"]),
    ("audit.record", "repro.audit.log", "AuditLog", ["record"]),
]


def _rows(result) -> int:
    """Model instances a repository call handed back."""
    if isinstance(result, list):
        return len(result)
    if result is None or isinstance(result, (int, bool, dict)):
        return 0
    return 1


class Tracer:
    """Installs and removes span recorders; holds the recorded spans."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._installed: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def _wrap(self, fn, name: str):
        spans = self.spans
        ids = self._ids
        local = self._local
        clock = time.perf_counter_ns
        is_app = name == "portal.app"
        is_wal = name == "storage.wal"
        is_orm = name == "orm.repo"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
                local.rid = ""
            if is_app and not stack:
                local.rid = args[1].get("HTTP_X_REQUEST_ID", "")
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            extra = 0
            if is_wal:
                extra = -os.fstat(args[0]._file.fileno()).st_size
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if is_orm:
                    extra = _rows(result)
                return result
            finally:
                end = clock()
                if is_wal:
                    extra += os.fstat(args[0]._file.fileno()).st_size
                stack.pop()
                spans.append((local.rid, sid, parent, name, start, end, extra))
                if is_app and not stack:
                    local.rid = ""

        return traced

    def install(self) -> int:
        """Wrap every target; returns how many callables were wrapped."""
        for name, module_name, owner_name, attrs in TARGETS:
            module = importlib.import_module(module_name)
            owner = getattr(module, owner_name) if owner_name else module
            for attr in attrs:
                original = owner.__dict__[attr] if owner_name else getattr(
                    module, attr
                )
                wrapped = self._wrap(original, name)
                self._installed.append((owner, attr, original))
                setattr(owner, attr, wrapped)
                if owner_name is None:
                    # Views import render helpers by name: rebind those too.
                    for other in list(sys.modules.values()):
                        if (
                            other is not None
                            and other is not module
                            and getattr(other, "__name__", "").startswith("repro.")
                            and getattr(other, attr, None) is original
                        ):
                            self._installed.append((other, attr, original))
                            setattr(other, attr, wrapped)
        return len(self._installed)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def dump(self, path: str) -> int:
        """Write the recorded request spans as JSON; returns the count."""
        rows = [span for span in self.spans if span[0]]
        with open(path, "w") as fh:
            json.dump(rows, fh)
        self.spans.clear()
        return len(rows)


class GcClock:
    """Collector time measured through ``gc.callbacks``."""

    def __init__(self):
        self.seconds = 0.0
        self.collections = 0
        self._started = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._started = time.perf_counter()
        else:
            self.seconds += time.perf_counter() - self._started
            self.collections += 1
