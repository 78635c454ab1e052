"""Local HTTP fixture serving deterministic BibTeX, for harvester tests.

Routes:
  /bib/{id}  one or more BibTeX entries derived from the id
  /log       JSON request log with receive timestamps

Failures and multi-entry responses are scripted per id, so tests can
rehearse retries, skips and efficiency accounting without touching any
real site.
"""

from __future__ import annotations

import json
import random
import threading
import time
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from .bibtex import serialize
from .synth import random_entry

# How often the serving loop checks for `stop()`, which waits for that check.
POLL_INTERVAL_S = 0.01


@dataclass
class FixtureScript:
    """Behavior overrides per id.

    fail_status: HTTP code to return instead of a body.
    fail_times: how many requests for that id fail before succeeding;
                None means always.
    entries: number of entries in the response body (default 1).
    """

    fail_status: dict[int, int] = field(default_factory=dict)
    fail_times: dict[int, int] = field(default_factory=dict)
    entries: dict[int, int] = field(default_factory=dict)


def bibtex_for_id(fixture_id: int, count: int = 1) -> str:
    """Deterministic BibTeX text for an id; same id, same bytes."""
    rng = random.Random(10_000 + fixture_id)
    entries = [
        random_entry(rng, key=f"fixture{fixture_id}x{i}") for i in range(count)
    ]
    return serialize(entries)


class _Handler(BaseHTTPRequestHandler):
    server_version = "CiteforgeFixture/0.1"

    def log_message(self, *args) -> None:  # keep test output quiet
        pass

    def do_GET(self) -> None:
        received = time.time()
        monotonic = time.monotonic()
        server: FixtureServer = self.server.fixture  # type: ignore[attr-defined]
        if self.path == "/log":
            with server.lock:
                payload = json.dumps(server.request_log).encode()
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)
            return
        if not self.path.startswith("/bib/"):
            self.send_error(404)
            return
        try:
            fixture_id = int(self.path.removeprefix("/bib/"))
        except ValueError:
            self.send_error(404)
            return

        script = server.script
        status = script.fail_status.get(fixture_id)
        # Fail-or-serve and the decrement share one critical section, so
        # concurrent requests for an id fail exactly `fail_times` times.
        with server.lock:
            server.request_log.append(
                {
                    "ts": received,
                    "monotonic": monotonic,
                    "id": fixture_id,
                    "user_agent": self.headers.get("User-Agent", ""),
                }
            )
            fails_left = server._fails_left.get(fixture_id)
            fail = status is not None and (fails_left is None or fails_left > 0)
            if fail and fails_left is not None:
                server._fails_left[fixture_id] = fails_left - 1
        if fail:
            self.send_error(status)
            return

        body = bibtex_for_id(fixture_id, script.entries.get(fixture_id, 1)).encode()
        self.send_response(200)
        self.send_header("Content-Type", "text/plain; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


class FixtureServer:
    """Threaded HTTP server bound to localhost on an ephemeral port."""

    def __init__(self, script: FixtureScript | None = None, port: int = 0):
        self.script = script or FixtureScript()
        self.request_log: list[dict] = []
        self.lock = threading.Lock()
        self._fails_left = {
            fid: times for fid, times in self.script.fail_times.items()
        }
        self._httpd = ThreadingHTTPServer(("127.0.0.1", port), _Handler)
        self._httpd.fixture = self  # type: ignore[attr-defined]
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, args=(POLL_INTERVAL_S,), daemon=True
        )

    @property
    def base_url(self) -> str:
        host, port = self._httpd.server_address[:2]
        return f"http://{host}:{port}"

    def url_template(self) -> str:
        return f"{self.base_url}/bib/{{id}}"

    def start(self) -> "FixtureServer":
        self._thread.start()
        return self

    def stop(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()

    def __enter__(self) -> "FixtureServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
