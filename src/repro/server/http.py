"""Minimal HTTP/1.1 over :mod:`asyncio` streams.

The daemon hand-rolls exactly the slice of HTTP a JSON prediction
service needs — request line, headers, ``Content-Length`` bodies,
keep-alive — and nothing more (no chunked encoding, no multipart, no
TLS; put a real proxy in front for those).  Keeping the parser this
small matters: under micro-batched load the per-request compute is
amortised to near zero, so request parsing and response rendering *are*
the serving hot path.

Parsing reads the whole header block with one
:meth:`~asyncio.StreamReader.readuntil` call and splits it in memory —
one reader wakeup per request instead of one per header line.  A header
block longer than :data:`MAX_HEADER_BYTES` is a 413.  The reader's own
buffer limit stays at asyncio's 64 KiB default, because it also sets
where the reader pauses the socket while a large ``/predict`` body
arrives.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

__all__ = [
    "HTTPError",
    "HTTPRequest",
    "json_response",
    "read_request",
    "render_response",
]

#: Upper bound on the request-line + headers block.
MAX_HEADER_BYTES = 16 * 1024

_HEADER_TERMINATOR = b"\r\n\r\n"

_STATUS_PHRASES = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class HTTPError(Exception):
    """A malformed or unacceptable request, mapped to a status code.

    ``headers`` carries whatever request headers had been parsed before
    the failure (empty for request-line errors) so the server can still
    honor an inbound ``X-Request-Id`` on 400/413 responses.
    """

    def __init__(
        self, status: int, message: str, headers: Optional[Dict[str, str]] = None
    ) -> None:
        super().__init__(message)
        self.status = status
        self.message = message
        self.headers: Dict[str, str] = headers or {}


@dataclass
class HTTPRequest:
    """One parsed request."""

    method: str
    path: str
    query: str
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""
    #: Parsed once from the ``Connection`` header (checked per request
    #: on the hot path, so not a recomputing property).
    keep_alive: bool = True

    def json(self) -> object:
        """The body decoded as JSON (raises :class:`HTTPError` 400)."""
        if not self.body:
            raise HTTPError(400, "request body is empty; expected JSON")
        try:
            return json.loads(self.body)
        except ValueError as exc:
            raise HTTPError(400, "request body is not valid JSON: %s" % exc) from exc


async def read_request(
    reader: asyncio.StreamReader,
    *,
    max_body_bytes: int,
) -> Optional[HTTPRequest]:
    """Read one request off ``reader``; ``None`` on a clean EOF.

    Raises :class:`HTTPError` on malformed input and oversized payloads
    (the caller renders the error and may close the connection).
    """
    try:
        head = await reader.readuntil(_HEADER_TERMINATOR)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # clean close between requests
        raise HTTPError(400, "connection closed mid-request") from exc
    except asyncio.LimitOverrunError as exc:
        raise HTTPError(413, "request headers exceed %d bytes" % MAX_HEADER_BYTES) from exc
    if len(head) > MAX_HEADER_BYTES:
        raise HTTPError(413, "request headers exceed %d bytes" % MAX_HEADER_BYTES)

    try:
        request_line, _, header_block = head[:-4].partition(b"\r\n")
        parts = request_line.decode("latin-1").split(" ")
        if len(parts) != 3:
            raise ValueError("bad request line")
        method, target, version = parts
        if not version.startswith("HTTP/1."):
            raise ValueError("unsupported protocol %r" % version)
    except ValueError as exc:
        raise HTTPError(400, "malformed request line: %s" % exc) from exc

    headers: Dict[str, str] = {}
    for raw_line in header_block.split(b"\r\n"):
        if not raw_line:
            continue
        name, sep, value = raw_line.decode("latin-1").partition(":")
        if not sep:
            raise HTTPError(400, "malformed header line %r" % raw_line[:80], headers)
        headers[name.strip().lower()] = value.strip()

    path, _, query = target.partition("?")

    body = b""
    if "content-length" in headers:
        try:
            length = int(headers["content-length"])
        except ValueError as exc:
            raise HTTPError(400, "invalid Content-Length", headers) from exc
        if length < 0:
            raise HTTPError(400, "invalid Content-Length", headers)
        if length > max_body_bytes:
            raise HTTPError(
                413, "request body exceeds %d bytes" % max_body_bytes, headers
            )
        if length:
            try:
                body = await reader.readexactly(length)
            except asyncio.IncompleteReadError as exc:
                raise HTTPError(400, "connection closed mid-body", headers) from exc
    elif headers.get("transfer-encoding"):
        raise HTTPError(400, "chunked request bodies are not supported", headers)

    return HTTPRequest(
        method=method,
        path=path,
        query=query,
        headers=headers,
        body=body,
        keep_alive=headers.get("connection", "keep-alive").lower() != "close",
    )


# Precomputed header block for the dominant response shape (200,
# application/json, keep-alive).  Response rendering is on the serving
# hot path; the generic string-building branch below costs a few µs a
# request, which is material once the kernel is batch-amortized.
_FAST_200_PREFIX = (
    b"HTTP/1.1 200 OK\r\n"
    b"Content-Type: application/json\r\n"
    b"Content-Length: "
)


def render_response(
    status: int,
    body: bytes,
    *,
    content_type: str = "application/json",
    keep_alive: bool = True,
    extra_headers: Optional[Tuple[Tuple[str, str], ...]] = None,
    request_id: Optional[str] = None,
) -> bytes:
    """Render one complete HTTP/1.1 response as bytes.

    ``request_id`` becomes an ``X-Request-Id`` header; the dominant
    200/json/keep-alive shape keeps its precomputed fast path with and
    without one.
    """
    if (
        status == 200
        and keep_alive
        and extra_headers is None
        and content_type == "application/json"
    ):
        if request_id is None:
            return (
                _FAST_200_PREFIX
                + b"%d\r\nConnection: keep-alive\r\n\r\n" % len(body)
                + body
            )
        return (
            _FAST_200_PREFIX
            + b"%d\r\nX-Request-Id: %s\r\nConnection: keep-alive\r\n\r\n"
            % (len(body), request_id.encode("latin-1"))
            + body
        )
    phrase = _STATUS_PHRASES.get(status, "Unknown")
    lines = [
        "HTTP/1.1 %d %s" % (status, phrase),
        "Content-Type: %s" % content_type,
        "Content-Length: %d" % len(body),
        "Connection: %s" % ("keep-alive" if keep_alive else "close"),
    ]
    if request_id is not None:
        lines.append("X-Request-Id: %s" % request_id)
    if extra_headers:
        for name, value in extra_headers:
            lines.append("%s: %s" % (name, value))
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


def json_response(
    payload: object,
    *,
    status: int = 200,
    keep_alive: bool = True,
    request_id: Optional[str] = None,
) -> bytes:
    """Render ``payload`` as a JSON response.

    Non-finite floats are emitted as ``Infinity`` / ``-Infinity`` /
    ``NaN`` tokens (Python's JSON dialect) — ``/predict_soft`` gain
    padding is ``-inf`` by contract and clients of this daemon parse it
    back exactly.
    """
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    return render_response(status, body, keep_alive=keep_alive, request_id=request_id)
