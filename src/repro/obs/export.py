"""Telemetry HTTP endpoint: ``/metrics`` (Prometheus) and ``/healthz``.

A tiny stdlib :class:`http.server.ThreadingHTTPServer` running on a daemon
thread beside the query service.  It is read-only and unauthenticated by
design — bind it to localhost or a scrape-only interface.

- ``GET /metrics`` — the registry rendered as text exposition format 0.0.4.
- ``GET /healthz`` — JSON health document; HTTP 200 when ``status`` is
  ``"ok"``, 503 when degraded (durability closed, recovery truncated the
  WAL tail, or the render callback itself raised).
- anything else — 404.
"""

from __future__ import annotations

import json
import logging
import threading

from .metrics import CONTENT_TYPE

logger = logging.getLogger(__name__)

#: How often a ``socketserver`` loop polls for ``shutdown()``: ``stop()``
#: waits up to this long (the library's default is half a second).
SHUTDOWN_POLL_S = 0.05


class TelemetryHTTPServer:
    """Serve metrics/health on a side thread; ``start()``/``stop()``."""

    def __init__(self, render_metrics, health, host="127.0.0.1", port=0):
        self._render_metrics = render_metrics
        self._health = health
        self.host = host
        self.port = port
        self._httpd = None
        self._thread = None

    def start(self):
        # Imported here: http.server pulls in the email package, which a
        # process that never serves telemetry should not hold in memory.
        import http.server

        outer = self

        class Handler(http.server.BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def do_GET(self):  # noqa: N802 - BaseHTTPRequestHandler API
                path = self.path.split("?", 1)[0]
                if path == "/metrics":
                    self._serve_metrics()
                elif path == "/healthz":
                    self._serve_health()
                else:
                    self._send(404, "text/plain; charset=utf-8", b"not found\n")

            def _serve_metrics(self):
                try:
                    body = outer._render_metrics().encode("utf-8")
                except Exception:
                    logger.exception("metrics render failed")
                    self._send(500, "text/plain; charset=utf-8", b"render error\n")
                    return
                self._send(200, CONTENT_TYPE, body)

            def _serve_health(self):
                try:
                    doc = outer._health()
                    status = 200 if doc.get("status") == "ok" else 503
                except Exception as exc:
                    logger.exception("health check failed")
                    doc = {"status": "error", "error": str(exc)}
                    status = 503
                body = (json.dumps(doc, default=str) + "\n").encode("utf-8")
                self._send(status, "application/json", body)

            def _send(self, status, content_type, body):
                self.send_response(status)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, fmt, *args):
                logger.debug("telemetry http: " + fmt, *args)

        self._httpd = http.server.ThreadingHTTPServer((self.host, self.port), Handler)
        self._httpd.daemon_threads = True
        self.port = self._httpd.server_address[1]
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            args=(SHUTDOWN_POLL_S,),
            name="repro-telemetry-http",
            daemon=True,
        )
        self._thread.start()
        logger.info("telemetry endpoint listening on %s:%d", self.host, self.port)
        return self

    def stop(self):
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
