"""The portal process: a deployment served the way ``repro serve`` does.

Started by ``run.py`` on a fresh copy of a fixture::

    python3 portalbench/launcher.py --data DIR

It opens the deployment (recovery), registers the simulated GeneChip
provider, the sample annotation attribute and the two-group
application through the public API, reindexes search, and starts a
:class:`PortalServer` with the CLI's defaults (8 workers, 64 in flight,
5 s keep-alive) under the default ``always`` flush policy.  It then
prints one JSON line (``{"port": …}``) and obeys line commands on
stdin, answering each with one JSON line:

* ``trace on`` / ``trace off`` — install or remove the span recorders;
* ``gc on`` / ``gc off`` — time the collector (``off`` answers totals);
* ``dump PATH`` — write the recorded spans to PATH;
* ``quit`` (or end of input) — drain the server, close the deployment.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import fixture  # noqa: E402
from tracer import GcClock, Tracer  # noqa: E402

fixture.import_program()

#: The interface of the two-group application (paper Figure 12).
TWO_GROUP_INTERFACE = {
    "inputs": ["resource"],
    "parameters": [
        {"name": "reference_group", "type": "text", "required": True},
        {"name": "alpha", "type": "float", "default": 0.05},
    ],
}
APPLICATION = "two group analysis"
ATTRIBUTE = "Disease State"
PROVIDER = "GeneChip"
#: Scanner runs the simulated provider lists (two chips each).
PROVIDER_RUNS = 400


def open_deployment(data: str):
    from repro.dataimport import AffymetrixGeneChipProvider
    from repro.errors import EntityNotFound
    from repro.facade import BFabric

    system = BFabric(data)
    system.recover()
    system.imports.register_provider(
        AffymetrixGeneChipProvider(PROVIDER, runs=PROVIDER_RUNS)
    )
    expert = system.directory.principal_for(
        system.directory.user_by_login(fixture.EXPERT_LOGIN)
    )
    try:
        attribute = system.annotations.attribute_by_name(ATTRIBUTE)
    except EntityNotFound:
        attribute = system.annotations.define_attribute(expert, ATTRIBUTE)
    try:
        application = system.applications.by_name(APPLICATION)
    except EntityNotFound:
        application = system.applications.register_application(
            expert,
            name=APPLICATION,
            connector="rserve",
            executable="two_group_analysis",
            interface=TWO_GROUP_INTERFACE,
        )
    system.reindex_all()
    return system, {"app_id": application.id, "attribute_id": attribute.id}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--data", required=True)
    args = parser.parse_args()

    from repro.portal import PortalApplication
    from repro.portal.server import PortalServer

    system, ids = open_deployment(args.data)
    system.obs.history.start()
    server = PortalServer(
        PortalApplication(system), "127.0.0.1", 0,
        workers=8, max_inflight=64, keep_alive=5.0,
    ).start()
    tracer = Tracer()
    gc_clock = GcClock()

    def reply(payload: dict) -> None:
        sys.stdout.write(json.dumps(payload) + "\n")
        sys.stdout.flush()

    reply({"port": server.port, **ids})
    try:
        for line in sys.stdin:
            command, _, arg = line.strip().partition(" ")
            if command == "trace":
                if arg == "on":
                    reply({"wrapped": tracer.install()})
                else:
                    tracer.uninstall()
                    reply({})
            elif command == "gc":
                if arg == "on":
                    gc_clock.seconds, gc_clock.collections = 0.0, 0
                    gc.callbacks.append(gc_clock)
                    reply({})
                else:
                    gc.callbacks.remove(gc_clock)
                    reply({"gc_s": gc_clock.seconds,
                           "collections": gc_clock.collections})
            elif command == "dump":
                reply({"spans": tracer.dump(arg)})
            elif command == "quit":
                break
            else:
                reply({"error": f"unknown command {line.strip()!r}"})
    finally:
        tracer.uninstall()
        server.shutdown()
        system.obs.history.stop()
        system.close()
    reply({"closed": True})
    return 0


if __name__ == "__main__":
    sys.exit(main())
