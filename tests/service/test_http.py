"""The HTTP transport and client against a live in-process server."""

from __future__ import annotations

import http.client
import json
import socket
import urllib.request

import pytest

from repro.service import ServiceConfig, ServiceServer
from repro.service.client import ServiceClient, ServiceError
from repro.service.http import _Handler

MAP_REQUEST = {"kind": "map", "neurons": 24, "density": 0.2}


@pytest.fixture()
def server(tmp_path):
    config = ServiceConfig(workers=2, cache_dir=tmp_path / "cache")
    with ServiceServer(config, port=0) as live:
        yield live


@pytest.fixture()
def client(server):
    return ServiceClient(server.url)


@pytest.fixture()
def parked_server(tmp_path):
    """A server whose jobs never drain (zero workers): queue inspection."""
    config = ServiceConfig(workers=0, max_queue=2, cache_dir=tmp_path / "cache")
    with ServiceServer(config, port=0) as live:
        yield live


class TestEndpoints:
    def test_healthz(self, client):
        assert client.healthy()

    def test_submit_wait_returns_the_result(self, client):
        done = client.submit(MAP_REQUEST, wait=True)
        assert done["state"] == "done"
        assert done["coalesced"] is False
        assert done["result"]["neurons"] == 24
        assert done["latency_seconds"] >= 0

    def test_identical_submission_coalesces_over_http(self, client):
        first = client.submit(MAP_REQUEST, wait=True)
        second = client.submit(dict(MAP_REQUEST), wait=True)
        assert second["coalesced"] is True
        assert second["job_id"] == first["job_id"]

    def test_status_and_result_roundtrip(self, client):
        done = client.submit(MAP_REQUEST, wait=True)
        status = client.status(done["job_id"])
        assert status["state"] == "done"
        assert status["kind"] == "map"
        result = client.result(done["job_id"])
        assert result["result"]["neurons"] == 24

    def test_events_stream_covers_the_job(self, client):
        done = client.submit(MAP_REQUEST, wait=True)
        events = list(client.events(done["job_id"]))
        kinds = [event["event"] for event in events]
        assert kinds[0] == "sweep_started"
        assert kinds[-1] == "sweep_finished"

    def test_jobs_listing(self, client):
        client.submit(MAP_REQUEST, wait=True)
        jobs = client.jobs()
        assert len(jobs) == 1 and jobs[0]["kind"] == "map"

    def test_stats_reports_the_serving_mix(self, client):
        client.submit(MAP_REQUEST, wait=True)
        client.submit(MAP_REQUEST, wait=True)
        stats = client.stats()
        assert stats["counters"]["requests"] == 2
        assert stats["cache_hit_ratio"] == pytest.approx(0.5)
        assert stats["cache"]["entries"] == 1


class TestErrors:
    def test_bad_request_is_400(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.submit({"kind": "route"})
        assert excinfo.value.status == 400
        assert "'kind'" in excinfo.value.message

    def test_invalid_json_is_400(self, server):
        request = urllib.request.Request(
            server.url + "/jobs", data=b"{not json", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 400

    def test_unknown_job_is_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.status("missing")
        assert excinfo.value.status == 404

    def test_unknown_route_is_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client._request("GET", "/nope")
        assert excinfo.value.status == 404

    def test_queue_full_is_429_with_retry_after(self, parked_server):
        client = ServiceClient(parked_server.url)
        client.submit({**MAP_REQUEST, "seed": 1})
        client.submit({**MAP_REQUEST, "seed": 2})
        with pytest.raises(ServiceError) as excinfo:
            client.submit({**MAP_REQUEST, "seed": 3})
        error = excinfo.value
        assert error.status == 429 and error.queue_full
        assert error.retry_after_seconds and error.retry_after_seconds > 0

    def test_result_before_terminal_is_409(self, parked_server):
        client = ServiceClient(parked_server.url)
        queued = client.submit(MAP_REQUEST)
        assert queued["job"]["state"] == "queued"
        with pytest.raises(ServiceError) as excinfo:
            client.result(queued["job"]["job_id"])
        assert excinfo.value.status == 409

    def test_cancel_over_http(self, parked_server):
        client = ServiceClient(parked_server.url)
        queued = client.submit(MAP_REQUEST)
        job_id = queued["job"]["job_id"]
        cancelled = client.cancel(job_id)
        assert cancelled["cancelled"] is True
        assert cancelled["job"]["state"] == "cancelled"
        # Cancelling again is a no-op, reported as such.
        assert client.cancel(job_id)["cancelled"] is False


class TestCliServe:
    def test_serve_parser_defaults(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["serve", "--port", "0", "--workers", "1"])
        assert args.func.__name__ == "_cmd_serve"
        assert args.max_queue == 64
        assert args.cache_dir == ".repro-cache"

    def test_responses_are_json(self, server):
        with urllib.request.urlopen(server.url + "/healthz") as response:
            assert response.headers["Content-Type"] == "application/json"
            assert json.loads(response.read()) == {"ok": True}


def _raw_exchange(server, request: bytes):
    """Send ``request`` on a fresh socket; return ``(socket, reader)``."""
    sock = socket.create_connection((server.host, server.port), timeout=10)
    sock.sendall(request)
    return sock, sock.makefile("rb")


def _read_response(reader):
    """Read one Content-Length response: ``(status line, headers, body)``."""
    status = reader.readline()
    headers = {}
    for line in _header_lines(reader):
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers, reader.read(int(headers.get("content-length", 0)))


def _header_lines(reader):
    """Header lines up to the blank line (or the end of the stream)."""
    line = reader.readline()
    while line not in (b"\r\n", b""):
        yield line
        line = reader.readline()


class TestWire:
    """Byte-level behaviour a strict HTTP/1.1 client depends on."""

    def test_events_stream_ends_cleanly_on_keep_alive(self, server, client):
        done = client.submit(MAP_REQUEST, wait=True)
        sock, reader = _raw_exchange(
            server,
            f"GET /jobs/{done['job_id']}/events HTTP/1.1\r\n"
            "Host: test\r\n\r\n".encode("ascii"),
        )
        with sock, reader:
            assert reader.readline().startswith(b"HTTP/1.1 200")
            for _line in _header_lines(reader):
                pass
            while True:
                size = int(reader.readline(), 16)
                chunk = reader.read(size + 2)
                assert chunk.endswith(b"\r\n")
                if size == 0:
                    break
            sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n")
            status, _headers, body = _read_response(reader)
        assert status == b"HTTP/1.1 200 OK\r\n"
        assert json.loads(body) == {"ok": True}

    @pytest.mark.parametrize("length", ("abc", "-1"))
    def test_invalid_content_length_is_400(self, server, length):
        sock, reader = _raw_exchange(
            server,
            f"POST /jobs HTTP/1.1\r\nHost: test\r\n"
            f"Content-Length: {length}\r\n\r\n".encode("ascii"),
        )
        with sock, reader:
            status, headers, body = _read_response(reader)
        assert status.startswith(b"HTTP/1.1 400")
        assert headers["connection"] == "close"
        assert "Content-Length" in json.loads(body)["error"]

    def test_one_write_per_response(self, server, client, monkeypatch):
        writes = []

        class CountingWriter:
            def __init__(self, raw):
                self._raw = raw

            def write(self, data):
                writes.append(bytes(data))
                return self._raw.write(data)

            def __getattr__(self, name):
                return getattr(self._raw, name)

        setup = _Handler.setup

        def counting_setup(handler):
            setup(handler)
            handler.wfile = CountingWriter(handler.wfile)

        monkeypatch.setattr(_Handler, "setup", counting_setup)
        done = client.submit(MAP_REQUEST, wait=True)
        job = done["job_id"]
        connection = http.client.HTTPConnection(server.host, server.port, timeout=10)
        try:
            for method, path in (
                ("GET", "/healthz"),
                ("GET", "/stats"),
                ("GET", f"/jobs/{job}"),
                ("GET", f"/jobs/{job}/result"),
                ("GET", "/nope"),
                ("POST", f"/jobs/{job}/cancel"),
            ):
                writes.clear()
                connection.request(method, path)
                response = connection.getresponse()
                response.read()
                assert len(writes) == 1, (method, path, writes)
                assert writes[0].startswith(b"HTTP/1.1 ")
            writes.clear()
            connection.request("GET", f"/jobs/{job}/events")
            response = connection.getresponse()
            events = response.read().splitlines()
        finally:
            connection.close()
        # Header block, then exactly one write per chunk, then the
        # terminator — nothing after it.
        assert writes[0].startswith(b"HTTP/1.1 200")
        assert len(writes) == 1 + len(events) + 1
        for chunk, event in zip(writes[1:], events):
            assert chunk == b"%x\r\n%s\n\r\n" % (len(event) + 1, event)
        assert writes[-1] == b"0\r\n\r\n"
