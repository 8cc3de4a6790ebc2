"""Drive operation streams over keep-alive connections from one thread.

An :class:`Actor` owns one connection and one stream.  A closed-loop
actor starts its next operation when the previous one completes; an
open-loop actor starts entry *i* at ``t0 + i / rate`` (or as soon as its
connection frees up, when it is behind) and the entry's latency is
timed from that due time.  Actors stop at a round boundary once the
segment's time is up, so every run attempts whole rounds.
"""

from __future__ import annotations

import selectors
import time

from client import Connection, ProtocolError
from workloads import Context, Stream

#: A segment is abandoned (and the run fails) when no response arrives
#: for this long.
STALL_S = 60.0


class Actor:
    def __init__(self, conn: Connection, stream: Stream, *,
                 rate: "float | None" = None, rounds: "range | None" = None,
                 first: int = 0):
        """*rounds* fixes which rounds to run; without it the actor runs
        rounds *first*, *first* + 1, … until the segment's time is up.
        Afterwards ``rounds`` is the number of the next round."""
        self.conn = conn
        self.stream = stream
        self.rate = rate
        self.max_rounds = rounds.stop if rounds is not None else None
        self.rounds = rounds.start if rounds is not None else first
        self.queue: list = []
        self.op = None
        self.request = None
        self.started = 0
        self.t0 = 0.0
        self.t_end = 0.0
        self.done = False
        self.registered = None

    def due(self) -> float:
        return self.t0 + self.started / self.rate if self.rate else 0.0


def drive(ctx: Context, actors: list[Actor], seconds: float) -> None:
    """Run *actors* until *seconds* have passed and each ended a round."""
    book = ctx.book
    sel = selectors.DefaultSelector()
    start = time.perf_counter()
    end = start + seconds
    for actor in actors:
        actor.t0 = start

    def begin(actor: Actor, now: float) -> None:
        if not actor.queue:
            limit = actor.max_rounds
            if (limit is not None and actor.rounds >= limit) or (
                limit is None and now >= end
            ):
                actor.done = True
                actor.t_end = now
                return
            actor.queue = actor.stream.round(actor.rounds)
            actor.queue.reverse()
            actor.rounds += 1
        due = actor.due()
        if due > now:
            return
        if actor.rate:
            book.lateness.append(max(0.0, now - due))
        ctx.due = due if actor.rate else None
        ctx.conn = actor.conn
        actor.started += 1
        actor.op = actor.queue.pop()()
        send(actor, actor.op.send(None))

    def send(actor: Actor, request) -> None:
        actor.request = request
        try:
            actor.conn.start(request)
        except OSError as exc:
            fail(actor, exc)
            return
        sock = actor.conn.sock
        if sock is not actor.registered:
            if actor.registered is not None:
                try:
                    sel.unregister(actor.registered)
                except (KeyError, ValueError):
                    pass
            sel.register(sock, selectors.EVENT_READ, actor)
            actor.registered = sock

    def fail(actor: Actor, exc: Exception) -> None:
        book.fail(actor.request.kind, f"{type(exc).__name__}: {exc}")
        actor.op.close()
        actor.op = None
        actor.conn.close()

    try:
        while True:
            now = time.perf_counter()
            waits = []
            for actor in actors:
                if actor.done or actor.op is not None:
                    continue
                if actor.rate and actor.queue and actor.due() > now:
                    waits.append(actor.due() - now)
                    continue
                begin(actor, now)
                if not actor.done and actor.op is None:
                    waits.append(max(0.0, actor.due() - now))
            if all(actor.done for actor in actors):
                break
            timeout = min(waits) if waits else STALL_S
            events = sel.select(timeout)
            if not events and not waits:
                raise TimeoutError(f"no response for {STALL_S:.0f}s")
            for key, _ in events:
                actor = key.data
                if actor.op is None:
                    continue
                try:
                    resp = actor.conn.poll()
                except (OSError, ProtocolError) as exc:
                    fail(actor, exc)
                    continue
                if resp is None:
                    continue
                try:
                    nxt = actor.op.send(resp)
                except StopIteration:
                    actor.op = None
                    continue
                send(actor, nxt)
    finally:
        sel.close()
