"""A minimal HTTP/1.1 keep-alive client over raw sockets.

The benchmark times the portal, not its client: requests are
pre-encoded bytes written with one ``sendall``, and responses are
parsed incrementally from one receive buffer, so a connection can be
driven either blockingly (:meth:`Connection.request`) or from a
``selectors`` loop (:meth:`Connection.start` / :meth:`Connection.poll`)
that serves two connections from one thread without thread hand-offs.
"""

from __future__ import annotations

import socket
import time
import urllib.parse
from collections import OrderedDict
from dataclasses import dataclass

#: Reconnect before reusing a connection idle this long; the portal
#: closes keep-alive connections idle past its 5 s default.
IDLE_RECONNECT_S = 3.0
#: Validators a session's client-side cache keeps (least recently
#: stored dropped first); re-fetches target pages of the current round.
ETAG_CACHE = 256


@dataclass
class Request:
    method: str
    path: str
    #: Operation class the result is booked under (``page``, ``api``, …).
    kind: str
    form: "list[tuple[str, str]] | None" = None
    etag: str = ""
    request_id: str = ""


@dataclass
class Response:
    status: int
    headers: dict[str, str]
    body: bytes
    #: perf_counter at send and at the last byte received.
    sent: float = 0.0
    done: float = 0.0

    @property
    def seconds(self) -> float:
        return self.done - self.sent

    def header(self, name: str) -> str:
        return self.headers.get(name, "")

    @property
    def text(self) -> str:
        return self.body.decode("utf-8")


def encode(req: Request, host: str, cookie: str) -> bytes:
    lines = [f"{req.method} {req.path} HTTP/1.1", f"Host: {host}"]
    if cookie:
        lines.append(f"Cookie: {cookie}")
    if req.etag:
        lines.append(f"If-None-Match: {req.etag}")
    if req.request_id:
        lines.append(f"X-Request-Id: {req.request_id}")
    body = b""
    if req.form is not None:
        body = urllib.parse.urlencode(req.form).encode("utf-8")
        lines.append("Content-Type: application/x-www-form-urlencoded")
    if req.method != "GET":
        lines.append(f"Content-Length: {len(body)}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


class ProtocolError(Exception):
    pass


class Connection:
    """One keep-alive connection with its own session cookie."""

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port
        self.cookie = ""
        #: path -> (ETag, body) of the latest 200s with a validator: the
        #: session's client-side cache (ETags are per user).
        self.etags: "OrderedDict[str, tuple[str, bytes]]" = OrderedDict()
        self.sock: "socket.socket | None" = None
        self._buf = bytearray()
        self._last_used = 0.0
        self._pending: "Request | None" = None
        self._sent = 0.0

    # -- lifecycle ------------------------------------------------------

    def _connect(self) -> None:
        self.close()
        sock = socket.create_connection((self.host, self.port), timeout=120)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock = sock
        self._buf.clear()

    def close(self) -> None:
        if self.sock is not None:
            try:
                self.sock.close()
            except OSError:
                pass
            self.sock = None

    # -- one request at a time ------------------------------------------

    def start(self, req: Request) -> None:
        """Send *req*; its response is collected by :meth:`poll`."""
        now = time.perf_counter()
        if self.sock is None or now - self._last_used > IDLE_RECONNECT_S:
            self._connect()
        self._pending = req
        self._sent = time.perf_counter()
        self.sock.sendall(encode(req, self.host, self.cookie))

    def poll(self) -> "Response | None":
        """Read what has arrived; the response once it is complete."""
        chunk = self.sock.recv(1 << 18)
        if not chunk:
            raise ProtocolError(f"connection closed during {self._pending}")
        self._buf += chunk
        return self._parse()

    def _parse(self) -> "Response | None":
        buf = self._buf
        end = buf.find(b"\r\n\r\n")
        if end < 0:
            return None
        head = bytes(buf[:end]).decode("latin-1").split("\r\n")
        parts = head[0].split(" ", 2)
        if len(parts) < 2 or not parts[1].isdigit():
            raise ProtocolError(f"bad status line {head[0]!r}")
        status = int(parts[1])
        headers: dict[str, str] = {}
        for line in head[1:]:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or 0)
        if status in (204, 304):
            length = 0
        total = end + 4 + length
        if len(buf) < total:
            return None
        done = time.perf_counter()
        body = bytes(buf[end + 4:total])
        del buf[:total]
        if headers.get("connection", "").lower() == "close":
            self.close()
        self._last_used = done
        cookie = headers.get("set-cookie", "")
        if cookie.startswith("bfabric_session="):
            self.cookie = cookie.split(";", 1)[0]
        self._pending = None
        return Response(status, headers, body, self._sent, done)

    def request(self, req: Request) -> Response:
        """Blocking round trip."""
        self.start(req)
        while True:
            resp = self.poll()
            if resp is not None:
                return resp

    def remember(self, path: str, etag: str, body: bytes) -> None:
        self.etags[path] = (etag, body)
        self.etags.move_to_end(path)
        if len(self.etags) > ETAG_CACHE:
            self.etags.popitem(last=False)

    def get(self, path: str, kind: str = "check", **kw) -> Response:
        return self.request(Request("GET", path, kind, **kw))

    def post(self, path: str, form, kind: str = "check", **kw) -> Response:
        return self.request(Request("POST", path, kind, form=list(form), **kw))

    def login(self, login: str, password: str) -> None:
        resp = self.post("/login", [("login", login), ("password", password)])
        if resp.status != 303 or not self.cookie:
            raise ProtocolError(f"login as {login!r} failed: {resp.status}")
