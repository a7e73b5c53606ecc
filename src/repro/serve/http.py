"""The HTTP front door: stdlib-only network serving over ``ModelServer``.

:class:`HttpServer` is a thin facade — it owns **no** scheduling,
batching, validation, or caching.  Every request body is decoded and
handed to the wrapped server's own ``submit`` / ``stats`` / ``ingest``,
so the network tier inherits the in-process guarantees verbatim:
batched ≡ sequential answers, bounded-queue load shedding, hot-cache
semantics, and — because ids are passed through *undecoded beyond JSON*
— the exact error types and messages of
:meth:`repro.api.ModelHandle.check_ids`.  Errors travel as
``{"error": {"type", "message"}}`` and :class:`HttpServeClient` rebuilds
them on the other side, so a caller migrating from the in-process
:class:`~repro.serve.client.ServeClient` to HTTP sees identical
exceptions, down to the message text.

Endpoints
---------
``POST /predict``        ``{"ids": [...]}`` → ``{"labels", "generation"}``
``POST /predict_proba``  ``{"ids": [...]}`` → ``{"proba", "shape", "generation"}``
``POST /ingest``         EdgeDelta fields → the ingest summary
``GET  /stats``          the wrapped server's ``stats()``
``GET  /metrics``        the metrics registry, Prometheus text format
``GET  /healthz``        ``{"ok": true}`` while the inner server runs

Observability
-------------
Requests may carry a W3C-style ``traceparent`` header
(``00-<trace>-<span>-01``); the server parses it, parents its own
``http.<route>`` span into the caller's trace (when tracing is on), and
answers with a ``traceparent`` response header carrying the same trace
id — so client- and server-side spans stitch into one trace even
across processes.  ``POST /predict`` bodies may set ``"timings": true``
to receive the scheduler's per-phase breakdown (queue wait, batch
assembly, forward, serialization) alongside the answer.
:class:`HttpServeClient` sends the header automatically whenever
tracing is enabled in its process.

Status mapping: 503 + ``Retry-After`` for
:class:`~repro.serve.server.ServerOverloaded` (load shed — retryable),
400 for request errors (``TypeError`` / ``ValueError`` / ``IndexError``
/ ``KeyError``), 504 for a request that timed out in the scheduler,
500 for everything else.

Fidelity notes
--------------
JSON floats are IEEE-754 doubles round-tripped via shortest-repr, so
probabilities survive the wire **bit-identically** — the equivalence
tests assert exact equality, not tolerance.  Proba responses carry an
explicit ``shape`` so empty batches keep ``(0, C)``.  Answers are tagged
with the operator ``generation`` they were computed against, so clients
can correlate results with ingests.
"""

from __future__ import annotations

import builtins
import json
import threading
import time
import urllib.error
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.obs import metrics as obs_metrics
from repro.obs.trace import TRACER, format_traceparent, parse_traceparent
from repro.serve.client import ServeClient
from repro.serve.server import ServerOverloaded

#: Exception types mapped to 400: the request itself was bad (the same
#: set ``check_ids`` / ``EdgeDelta`` raise for malformed input).
_BAD_REQUEST = (TypeError, ValueError, IndexError, KeyError)


def _jsonable(obj):
    """json.dumps ``default=`` hook for numpy scalars/arrays in stats."""
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(
        f"object of type {type(obj).__name__} is not JSON serializable"
    )


def _error_payload(exc: BaseException) -> Dict[str, object]:
    return {"error": {"type": type(exc).__name__, "message": str(exc)}}


class _Handler(BaseHTTPRequestHandler):
    """Per-connection handler; all logic lives in the facade's dispatch."""

    protocol_version = "HTTP/1.1"

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # the facade exposes stats(); per-request stderr is noise

    def _respond(
        self,
        status: int,
        payload: Union[Dict[str, object], str],
        extra_headers: Optional[Dict[str, str]] = None,
    ) -> None:
        # A str payload is pre-rendered text (the Prometheus exposition);
        # everything else is JSON.
        if isinstance(payload, str):
            body = payload.encode("utf-8")
            content_type = "text/plain; version=0.0.4; charset=utf-8"
        else:
            body = json.dumps(payload, default=_jsonable).encode("utf-8")
            content_type = "application/json"
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if status == 503:
            self.send_header("Retry-After", "0")
        for name, value in (extra_headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _handle(self, method: str) -> None:
        length = int(self.headers.get("Content-Length") or 0)
        body = self.rfile.read(length) if length else b""
        status, payload, extra_headers = self.server.facade.dispatch(
            method, self.path, body, headers=self.headers
        )
        self._respond(status, payload, extra_headers)

    def do_GET(self) -> None:
        self._handle("GET")

    def do_POST(self) -> None:
        self._handle("POST")


class HttpServer:
    """Serve a :class:`~repro.serve.server.ModelServer` over HTTP.

    Lifecycle is HTTP-only: ``start``/``stop`` bind and release the
    socket but never start or stop the wrapped server — the inner
    server's lifecycle (and its guarantees about stranded futures)
    stays whoever's started it.  ``port=0`` picks a free port;
    :attr:`url` reports the bound address.  Usable as a context
    manager.
    """

    def __init__(
        self,
        server,
        host: str = "127.0.0.1",
        port: int = 0,
        request_timeout: float = 30.0,
    ):
        self.server = server
        self.host = host
        self.port = int(port)
        self.request_timeout = float(request_timeout)
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------- #
    # Lifecycle
    # ------------------------------------------------------------- #

    def start(self) -> "HttpServer":
        if self._httpd is not None:
            return self
        httpd = ThreadingHTTPServer((self.host, self.port), _Handler)
        httpd.daemon_threads = True
        httpd.facade = self
        self.port = httpd.server_address[1]
        self._httpd = httpd
        self._thread = threading.Thread(
            target=httpd.serve_forever,
            name="repro-serve-http",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self, timeout: float = 5.0) -> None:
        """Release the socket (idempotent); the inner server stays up."""
        if self._httpd is None:
            return
        self._httpd.shutdown()
        self._httpd.server_close()
        self._httpd = None
        if self._thread is not None:
            self._thread.join(timeout)
            self._thread = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def __enter__(self) -> "HttpServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------- #
    # Dispatch
    # ------------------------------------------------------------- #

    def dispatch(
        self, method: str, path: str, body: bytes, headers=None
    ) -> Tuple[int, Union[Dict[str, object], str], Dict[str, str]]:
        """Route one request; returns ``(status, payload, response headers)``.

        The payload is a JSON-able dict for every route except
        ``GET /metrics``, whose payload is the pre-rendered Prometheus
        text page (a ``str``).  An incoming ``traceparent`` header joins
        the caller's trace: with tracing on, the whole route runs under
        an ``http.<route>`` span parented to it and the response echoes
        a ``traceparent`` with the *same trace id* (the server span's
        context); with tracing off, the incoming header is echoed
        verbatim so the caller can still correlate.
        """
        incoming = headers.get("traceparent") if headers is not None else None
        parent = parse_traceparent(incoming)
        route = path.lstrip("/") or "root"
        obs_metrics.REGISTRY.counter(
            "repro_http_requests_total", help="HTTP requests dispatched"
        ).inc()
        started = time.perf_counter()
        response_headers: Dict[str, str] = {}
        if TRACER.enabled:
            with TRACER.span(
                f"http.{route}", parent=parent, attrs={"method": method}
            ) as span:
                response_headers["traceparent"] = format_traceparent(
                    span.context
                )
                status, payload = self._route(method, path, body)
                span.attrs["status"] = status
        else:
            if incoming is not None:
                response_headers["traceparent"] = incoming
            status, payload = self._route(method, path, body)
        obs_metrics.REGISTRY.histogram(
            "repro_http_request_seconds",
            help="HTTP request handling seconds (dispatch-side)",
        ).observe(time.perf_counter() - started)
        return status, payload, response_headers

    def _route(
        self, method: str, path: str, body: bytes
    ) -> Tuple[int, Union[Dict[str, object], str]]:
        """The status mapping: every handler funnels its exceptions
        through here, so in-process error semantics survive the wire —
        the payload carries the original type name and message verbatim.
        """
        try:
            if method == "GET" and path == "/stats":
                return 200, self.server.stats()
            if method == "GET" and path == "/metrics":
                return 200, obs_metrics.REGISTRY.prometheus_text()
            if method == "GET" and path == "/healthz":
                return 200, {"ok": True}
            if method == "POST" and path in ("/predict", "/predict_proba"):
                return 200, self._predict(body, proba=path == "/predict_proba")
            if method == "POST" and path == "/ingest":
                return 200, self._ingest(body)
            return 404, {
                "error": {"type": "LookupError", "message": f"no route for {method} {path}"}
            }
        except ServerOverloaded as exc:
            return 503, _error_payload(exc)
        except TimeoutError as exc:
            return 504, _error_payload(exc)
        except _BAD_REQUEST as exc:
            return 400, _error_payload(exc)
        except Exception as exc:  # noqa: BLE001 - the wire needs a payload
            return 500, _error_payload(exc)

    @staticmethod
    def _decode(body: bytes) -> Dict[str, object]:
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ValueError(f"request body is not valid JSON: {exc}") from None
        if not isinstance(payload, dict):
            raise ValueError(
                f"request body must be a JSON object, got {type(payload).__name__}"
            )
        return payload

    def _predict(self, body: bytes, proba: bool) -> Dict[str, object]:
        payload = self._decode(body)
        if "ids" not in payload:
            raise ValueError('request body must carry an "ids" field')
        want_timings = bool(payload.get("timings", False))
        # Hand the decoded ids to submit *as-is*: check_ids runs there,
        # so a float id over HTTP raises the exact in-process TypeError.
        future = self.server.submit(payload["ids"], proba=proba)
        answer = future.result(self.request_timeout)
        # The generation the answer was computed against — not the
        # handle's current one, which an ingest may have bumped since.
        generation = future.generation
        serialize_started = time.perf_counter()
        if proba:
            out: Dict[str, object] = {
                "proba": np.asarray(answer, dtype=np.float64).ravel().tolist(),
                "shape": list(answer.shape),
                "generation": generation,
            }
        else:
            out = {
                "labels": np.asarray(answer, dtype=np.int64).tolist(),
                "generation": generation,
            }
        if want_timings:
            # Scheduler phases (None for hot-cache hits) + the response
            # materialization just measured.  json.dumps cost lands in
            # the handler and is excluded — this is the server-side
            # payload-building share.
            timings = dict(future.timings or {})
            timings["serialization_s"] = (
                time.perf_counter() - serialize_started
            )
            out["timings"] = timings
        return out

    def _ingest(self, body: bytes) -> Dict[str, object]:
        from repro.hin.graph import EdgeDelta

        payload = self._decode(body)
        if "relation" not in payload:
            raise ValueError('request body must carry a "relation" field')
        delta = EdgeDelta(
            relation=payload["relation"],
            add_src=payload.get("add_src", ()),
            add_dst=payload.get("add_dst", ()),
            remove_src=payload.get("remove_src", ()),
            remove_dst=payload.get("remove_dst", ()),
        )
        summary = self.server.ingest(delta)
        return {
            "generation": summary["generation"],
            "graph_version": summary["graph_version"],
            "stages": [list(pair) for pair in summary["stages"]],
        }


def _rebuild_error(name: str, message: str) -> BaseException:
    """Reconstruct the server-side exception from its wire form.

    ``ServerOverloaded`` comes back as itself (so client shed-retry
    works unchanged over HTTP); builtin exception types come back as
    themselves (``TypeError``/``IndexError``/... with the exact
    message); anything unrecognized degrades to ``RuntimeError`` with
    the type name prefixed rather than being silently dropped.
    """
    if name == "ServerOverloaded":
        return ServerOverloaded(message)
    candidate = getattr(builtins, name, None)
    if (
        isinstance(candidate, type)
        and issubclass(candidate, BaseException)
    ):
        return candidate(message)
    return RuntimeError(f"{name}: {message}")


class HttpServeClient(ServeClient):
    """:class:`~repro.serve.client.ServeClient`'s surface, over the wire.

    ``predict_nodes`` / ``predict_proba_nodes`` / ``predict_many`` /
    ``stats`` / ``ingest`` keep their in-process signatures and — via
    :func:`_rebuild_error` — their in-process exceptions.  Load-shed
    responses (503) are retried with the same bounded backoff and
    ``retried`` / ``dropped`` accounting as the in-process client.
    ``predict_many`` fans out over threads so the server's
    micro-batcher still sees concurrent requests arrive together.
    """

    def __init__(
        self,
        url: str,
        timeout: float = 30.0,
        retries: int = 3,
        backoff_s: float = 0.01,
    ):
        super().__init__(
            server=None, timeout=timeout, retries=retries, backoff_s=backoff_s
        )
        self.url = url.rstrip("/")

    # ------------------------------------------------------------- #
    # Wire plumbing
    # ------------------------------------------------------------- #

    def _request(
        self,
        method: str,
        path: str,
        payload: Optional[Dict[str, object]] = None,
        timeout: Optional[float] = None,
    ) -> Dict[str, object]:
        """One wire round-trip.

        With tracing enabled the call runs under an
        ``http.client.<route>`` span and sends its context as the
        ``traceparent`` request header, so the server's spans join this
        client's trace.
        """
        if not TRACER.enabled:
            return self._request_impl(method, path, payload, timeout, None)
        route = path.lstrip("/") or "root"
        with TRACER.span(
            f"http.client.{route}", attrs={"method": method}
        ) as span:
            return self._request_impl(
                method, path, payload, timeout,
                format_traceparent(span.context),
            )

    def _request_impl(
        self,
        method: str,
        path: str,
        payload: Optional[Dict[str, object]],
        timeout: Optional[float],
        traceparent: Optional[str],
    ) -> Dict[str, object]:
        body = None
        headers = {}
        if payload is not None:
            body = json.dumps(payload, default=_jsonable).encode("utf-8")
            headers["Content-Type"] = "application/json"
        if traceparent is not None:
            headers["traceparent"] = traceparent
        request = urllib.request.Request(
            self.url + path, data=body, headers=headers, method=method
        )
        deadline = self.timeout if timeout is None else timeout
        try:
            with urllib.request.urlopen(request, timeout=deadline) as response:
                return json.loads(response.read().decode("utf-8"))
        except urllib.error.HTTPError as exc:
            raw = exc.read().decode("utf-8", errors="replace")
            try:
                error = json.loads(raw)["error"]
                name, message = error["type"], error["message"]
            except (json.JSONDecodeError, KeyError, TypeError):
                name, message = "RuntimeError", f"HTTP {exc.code}: {raw[:200]}"
            raise _rebuild_error(name, message) from None

    def _predict_http(
        self, ids, proba: bool, timeout: Optional[float]
    ) -> np.ndarray:
        path = "/predict_proba" if proba else "/predict"
        payload = {"ids": np.asarray(ids).tolist()}
        body = self._with_shed_retry(
            lambda: self._request("POST", path, payload, timeout=timeout)
        )
        if proba:
            return np.asarray(body["proba"], dtype=np.float64).reshape(
                body["shape"]
            )
        return np.asarray(body["labels"], dtype=np.int64)

    # ------------------------------------------------------------- #
    # ServeClient surface
    # ------------------------------------------------------------- #

    def predict_nodes(
        self, ids, timeout: Optional[float] = None
    ) -> np.ndarray:
        """Blocking label query over HTTP (with shed-retry)."""
        return self._predict_http(ids, proba=False, timeout=timeout)

    def predict_proba_nodes(
        self, ids, timeout: Optional[float] = None
    ) -> np.ndarray:
        """Blocking probability query over HTTP (with shed-retry)."""
        return self._predict_http(ids, proba=True, timeout=timeout)

    def predict_many(
        self, requests: Sequence, timeout: Optional[float] = None
    ) -> List[np.ndarray]:
        """Fan label queries out concurrently; gather in order.

        Each request rides its own thread so they are in flight
        together — the server-side micro-batcher coalesces them exactly
        as it does for concurrent in-process submitters.
        """
        results: List[Optional[np.ndarray]] = [None] * len(requests)
        errors: List[Optional[BaseException]] = [None] * len(requests)

        def run(index: int, ids) -> None:
            try:
                results[index] = self._predict_http(
                    ids, proba=False, timeout=timeout
                )
            except BaseException as exc:  # re-raised in submission order
                errors[index] = exc

        threads = [
            threading.Thread(target=run, args=(index, ids), daemon=True)
            for index, ids in enumerate(requests)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for error in errors:
            if error is not None:
                raise error
        return results

    def stats(self) -> Dict[str, object]:
        """The wrapped server's ``stats()``, fetched over the wire."""
        return self._request("GET", "/stats")

    def metrics_text(self) -> str:
        """The server's ``GET /metrics`` Prometheus page, as raw text."""
        request = urllib.request.Request(self.url + "/metrics", method="GET")
        with urllib.request.urlopen(request, timeout=self.timeout) as response:
            return response.read().decode("utf-8")

    def healthz(self) -> bool:
        try:
            return bool(self._request("GET", "/healthz").get("ok"))
        except (urllib.error.URLError, OSError, RuntimeError):
            return False

    def ingest(self, delta) -> Dict[str, object]:
        """Apply an :class:`repro.hin.graph.EdgeDelta` over the wire."""
        payload = {
            "relation": delta.relation,
            "add_src": delta.add_src.tolist(),
            "add_dst": delta.add_dst.tolist(),
            "remove_src": delta.remove_src.tolist(),
            "remove_dst": delta.remove_dst.tolist(),
        }
        return self._request("POST", "/ingest", payload)
