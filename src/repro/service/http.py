"""The HTTP/JSON transport over :class:`~repro.service.engine.MappingService`.

A deliberately small, stdlib-only adapter (``http.server.
ThreadingHTTPServer`` — one thread per connection, no new deps):

========================== =========================================
``GET  /healthz``           liveness (``{"ok": true}``)
``GET  /stats``             service metrics snapshot
``POST /jobs``              submit a job (``?wait=1`` blocks until
                            terminal); ``202`` queued / ``200``
                            coalesced or waited / ``400`` bad request
                            / ``429`` + ``Retry-After`` queue full
``GET  /jobs``              list retained job records
``GET  /jobs/<id>``         job status
``GET  /jobs/<id>/result``  result payload (``409`` until terminal)
``GET  /jobs/<id>/events``  progress stream — chunked JSON lines,
                            live-follows a running job
``POST /jobs/<id>/cancel``  cancel a queued job
========================== =========================================

All request/response bodies are JSON; errors are ``{"error": ...}``.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from repro.service.engine import MappingService, ServiceConfig
from repro.service.jobs import BadRequestError, JobRequest
from repro.service.queue import QueueFullError
from repro.utils.canonical import canonical_json

#: Cap on accepted request bodies (a submission is a small JSON object).
MAX_BODY_BYTES = 1 << 20

#: Cap on ``?wait=1`` blocking, so a stuck job cannot pin an HTTP
#: thread forever (clients poll ``/jobs/<id>`` past this point).
MAX_WAIT_SECONDS = 300.0


class _Handler(BaseHTTPRequestHandler):
    """One request against the shared :class:`MappingService`."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-service"

    # The service is attached to the server object by ``serve``.
    @property
    def service(self) -> MappingService:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        if getattr(self.server, "verbose", False):
            super().log_message(format, *args)

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def _send_json(self, status: int, payload: Any,
                   extra_headers: Optional[dict] = None) -> None:
        body = (canonical_json(payload) + "\n").encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (extra_headers or {}).items():
            self.send_header(name, value)
        if self.close_connection:
            self.send_header("Connection", "close")
        # One write for headers and body: ``end_headers`` would send the
        # header block on its own, and a second small write behind it
        # waits out the client's delayed ACK (Nagle) on keep-alive.
        if self.request_version != "HTTP/0.9":  # 0.9 responses carry no headers
            self._headers_buffer.append(b"\r\n")
            body = b"".join(self._headers_buffer) + body
            self._headers_buffer = []
        self.wfile.write(body)

    def _read_body(self) -> Any:
        header = self.headers.get("Content-Length") or "0"
        try:
            length = int(header)
        except ValueError:
            length = -1
        if not 0 <= length <= MAX_BODY_BYTES:
            # The unread body cannot be skipped reliably: answer, then
            # close the connection.
            self.close_connection = True
            if length > MAX_BODY_BYTES:
                raise BadRequestError(f"request body too large ({length} bytes)")
            raise BadRequestError(f"invalid Content-Length: {header!r}")
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise BadRequestError("request body must be a JSON object")
        try:
            return json.loads(raw.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise BadRequestError(f"request body is not valid JSON: {exc}") from None

    def _route(self) -> Tuple[str, dict]:
        parsed = urlparse(self.path)
        query = {key: values[-1] for key, values in parse_qs(parsed.query).items()}
        return parsed.path.rstrip("/") or "/", query

    # ------------------------------------------------------------------
    # Verbs
    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        path, query = self._route()
        try:
            if path == "/healthz":
                self._send_json(200, {"ok": True})
            elif path == "/stats":
                self._send_json(200, self.service.stats())
            elif path == "/jobs":
                self._send_json(
                    200, {"jobs": [record.to_dict() for record in self.service.jobs()]}
                )
            elif path.startswith("/jobs/"):
                self._get_job(path, query)
            else:
                self._send_json(404, {"error": f"no such route: {path}"})
        except BrokenPipeError:
            pass  # client went away mid-stream

    def do_POST(self) -> None:  # noqa: N802
        path, query = self._route()
        if path == "/jobs":
            self._submit(query)
        elif path.startswith("/jobs/") and path.endswith("/cancel"):
            job_id = path[len("/jobs/"):-len("/cancel")]
            ok = self.service.cancel(job_id)
            record = self.service.get(job_id)
            if record is None:
                self._send_json(404, {"error": f"no such job: {job_id}"})
            else:
                self._send_json(200, {"cancelled": ok, "job": record.to_dict()})
        else:
            self._send_json(404, {"error": f"no such route: {path}"})

    # ------------------------------------------------------------------
    # Handlers
    # ------------------------------------------------------------------
    def _submit(self, query: dict) -> None:
        try:
            request = JobRequest.from_dict(self._read_body())
        except BadRequestError as exc:
            self._send_json(400, {"error": str(exc)})
            return
        try:
            record, coalesced = self.service.submit(request)
        except QueueFullError as exc:
            self._send_json(
                429,
                {"error": str(exc), "queue_depth": exc.depth},
                extra_headers={"Retry-After": f"{exc.retry_after_seconds:g}"},
            )
            return
        if query.get("wait") in ("1", "true", "yes"):
            timeout = min(float(query.get("timeout", 120.0)), MAX_WAIT_SECONDS)
            record = self.service.wait(record.job_id, timeout=timeout) or record
            if record.terminal:
                self._send_json(
                    200, {"coalesced": coalesced, **self.service.result_payload(record)}
                )
                return
        self._send_json(
            200 if coalesced else 202,
            {"coalesced": coalesced, "job": record.to_dict()},
        )

    def _get_job(self, path: str, query: dict) -> None:
        parts = path.split("/")  # '', 'jobs', <id>[, sub]
        job_id = parts[2] if len(parts) > 2 else ""
        sub = parts[3] if len(parts) > 3 else ""
        record = self.service.get(job_id)
        if record is None:
            self._send_json(404, {"error": f"no such job: {job_id}"})
            return
        if sub == "":
            self._send_json(200, record.to_dict())
        elif sub == "result":
            if not record.terminal:
                self._send_json(
                    409, {"error": f"job {job_id} is still {record.state}"}
                )
            else:
                self._send_json(200, self.service.result_payload(record))
        elif sub == "events":
            self._stream_events(record, query)
        else:
            self._send_json(404, {"error": f"no such route: {path}"})

    def _stream_events(self, record, query: dict) -> None:
        """Chunked JSON-lines stream of the job's event trace.

        Follows a live job until it reaches a terminal state (plus a
        final drain), then closes; a finished job streams its full
        trace and closes immediately.  ``?follow=0`` disables the
        live-follow and returns only what is on disk right now.
        """
        from repro.runtime import follow_trace, tail_trace

        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Transfer-Encoding", "chunked")
        self.end_headers()

        def write_chunk(data: bytes) -> None:
            self.wfile.write(b"%x\r\n%s\r\n" % (len(data), data))

        try:
            if query.get("follow") in ("0", "false", "no"):
                records, _offset = tail_trace(record.events_path)
                for event in records:
                    write_chunk((canonical_json(event) + "\n").encode("utf-8"))
            else:
                for event in follow_trace(
                    record.events_path, stop=lambda: record.terminal
                ):
                    write_chunk((canonical_json(event) + "\n").encode("utf-8"))
            write_chunk(b"")  # terminating zero-length chunk: 0\r\n\r\n
        except BrokenPipeError:
            pass


class ServiceServer:
    """A running HTTP server bound to one :class:`MappingService`.

    Owns both lifecycles: ``start()`` spawns the service workers and
    the acceptor thread; ``stop()`` drains them.  Usable as a context
    manager (the pattern the CLI, the tests and the benchmarks all
    share).
    """

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        verbose: bool = False,
    ) -> None:
        self.service = MappingService(config)
        self.httpd = ThreadingHTTPServer((host, port), _Handler)
        self.httpd.daemon_threads = True
        self.httpd.service = self.service  # type: ignore[attr-defined]
        self.httpd.verbose = verbose  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None

    @property
    def host(self) -> str:
        return self.httpd.server_address[0]

    @property
    def port(self) -> int:
        return self.httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ServiceServer":
        self.service.start()
        if self._thread is None:
            self._thread = threading.Thread(
                target=self.httpd.serve_forever,
                kwargs={"poll_interval": 0.1},
                name="svc-http",
                daemon=True,
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        self.httpd.shutdown()
        self.httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self.service.stop()

    def serve_forever(self) -> None:
        """Run the acceptor on the calling thread (the CLI path)."""
        self.service.start()
        try:
            self.httpd.serve_forever(poll_interval=0.1)
        finally:
            self.httpd.server_close()
            self.service.stop()

    def __enter__(self) -> "ServiceServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
