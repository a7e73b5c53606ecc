"""`ModelServer`: a micro-batching, admission-controlled query server.

The front-end of the serving subsystem.  Callers :meth:`~ModelServer.submit`
``predict_nodes``-shaped requests (or use the blocking
``predict_nodes`` / ``predict_proba_nodes`` wrappers, or a
:class:`repro.serve.client.ServeClient`); a pool of scheduler workers
forms **micro-batches** — up to ``max_batch_size`` requests, waiting at
most ``max_wait_ms`` after the first arrival — and answers each batch
with a single union sliced forward
(:meth:`repro.api.ModelHandle.forward_many`), so B concurrent
single-node queries cost one receptive-field gather and one model
forward instead of B.  Results are bit-identical to calling
:meth:`repro.api.ModelHandle.predict_nodes` sequentially (the batched
equivalence guarantee; the tests pin it down).

Admission control
-----------------
The request queue is bounded (``max_queue``).  When it is full the
server **sheds load**: :meth:`submit` raises :class:`ServerOverloaded`
immediately instead of queueing unbounded work — the caller can back
off, retry, or fail fast.  Invalid requests (non-integer / out-of-range
ids) are rejected synchronously at ``submit`` with exactly the error
the sequential :class:`~repro.api.ModelHandle` path raises; they never
consume scheduler capacity.

Adaptive micro-batching
-----------------------
With ``adaptive_wait=True`` the scheduler stops treating ``max_wait_ms``
as a fixed delay and instead derives the *effective* wait from the
observed request inter-arrival rate (an EWMA maintained at ``submit``):
it waits roughly as long as filling the batch should take
(``(max_batch_size - 1) × inter-arrival``), capped at ``max_wait_ms``
— and waits **zero** when traffic is so sparse that no companion is
expected inside the cap (holding a lone request would only add
latency).  ``stats()`` reports both the EWMA and the current effective
wait.

Hot-query cache
---------------
``hot_cache_size > 0`` enables a small LRU of recent answers keyed on
``(operator generation, proba, ids bytes)``.  A repeated query is
answered at ``submit`` without touching the scheduler or the
receptive-field gather; hits are bit-identical because the cached value
*is* a previous batched answer from the same generation.  The
generation component makes invalidation atomic with
:meth:`~repro.api.ModelHandle.refresh`'s pointer swap — an entry from
an old generation can never answer a post-ingest query — and
:meth:`ingest` additionally clears the cache to bound stale residency.
Every future carries the generation its answer was computed against
(:attr:`PredictionFuture.generation`).

Lifecycle
---------
:meth:`stop` is idempotent (safe never-started, safe twice), freezes
``uptime_seconds``/``throughput_rps`` at the recorded stop timestamp,
and fails every queued request so no caller blocks on a dead server —
including requests racing with the stop itself (``submit`` re-checks
after enqueueing).  A restart (:meth:`start` after :meth:`stop`) is
refused while any worker from the previous run is still alive: two
worker generations must never serve the same queue.

Telemetry
---------
:meth:`~ModelServer.stats` reports request/answer/shed/cache counts,
batch shaping (count, mean/max size), end-to-end latency quantiles
(submit → result, seconds), and throughput over the started→stopped
window.

Multi-process serving
---------------------
There is one scheduler and two executors.  Everything above — the
bounded queue, validation and shedding at submit, the hot cache, the
wait policy, futures, counters, the slow log, spans, and the
stop/restart rules — lives in :class:`ModelServer` and runs in the
calling process.  What differs is where a formed batch's forward runs:
a :class:`ModelServer` worker calls its own handle in-thread, while each
worker of a :class:`ProcessReplicaServer` owns one spawned replica
process and hands the batch to it over a pipe.  Replicas load the
bundle through the **memory-mapped operator tier**
(:meth:`repro.api.ModelHandle.load`), so N replicas share one
OS-resident copy of the operators and cold-start by mapping, not
copying.  The pool is elastic: :meth:`ProcessReplicaServer.scale_to`
adds or retires worker+replica pairs, and an
:class:`repro.serve.autoscale.AutoscalePolicy` can drive it from the
observed queue depth and shed count.

Both executors stay because each wins one kind of load.  Closed-loop
clients, in process, on a 2-core machine with the ``query_point``
benchmark bundle (medians of 3 alternating rounds):

=====================  ========================  ==========================
closed-loop load       ``ModelServer()``         ``ProcessReplicaServer(``
                       defaults                  ``replicas=2)``
=====================  ========================  ==========================
2 clients × 1 id       7.0 ms p50, 292 req/s     7.7 ms, 259 req/s
8 clients × 1 id       7.3 ms, 1032 req/s        8.8 ms, 879 req/s
16 clients × 1 id      9.9 ms, 1658 req/s        11.3 ms, 1326 req/s
4 clients × 64 ids     57 ms, 70 req/s           40 ms, 90 req/s
=====================  ========================  ==========================

Small reads are cheapest in-thread (no pickling, no pipe hop); large
concurrent reads are bound by the interpreter lock, which replicas do
not share.
"""

from __future__ import annotations

import multiprocessing
import queue
import threading
import time
from collections import OrderedDict, deque
from pathlib import Path
from typing import Dict, List, Optional, Union

import numpy as np

from repro.obs import metrics as obs_metrics
from repro.obs.slowlog import SlowRequestLog
from repro.obs.trace import TRACER, TraceContext


class ServerOverloaded(RuntimeError):
    """Raised by ``submit`` when the bounded request queue is full."""


class PredictionFuture:
    """Handle to one in-flight request; resolves to labels or proba.

    ``timings`` is filled by the scheduler when the request is answered
    through a batch: a ``{"queue_wait_s", "batch_assembly_s",
    "forward_s"}`` breakdown of the end-to-end latency (batch-level
    boundaries shared by every request in the batch).  It stays ``None``
    for hot-cache hits and failed batches.

    ``generation`` is the operator generation the answer was computed
    against — the batch's own snapshot, or the cache key's generation on
    a hot-cache hit — so a refresh landing after the answer cannot
    relabel it.  ``None`` until answered, and for failed requests.
    """

    def __init__(self):
        self._event = threading.Event()
        self._value: Optional[np.ndarray] = None
        self._error: Optional[BaseException] = None
        self.submitted = time.perf_counter()
        self.completed: Optional[float] = None
        self.timings: Optional[Dict[str, float]] = None
        self.generation: Optional[int] = None

    def done(self) -> bool:
        return self._event.is_set()

    def result(self, timeout: Optional[float] = None) -> np.ndarray:
        """Block for the answer; re-raises the request's own error."""
        if not self._event.wait(timeout):
            raise TimeoutError("prediction did not complete in time")
        if self._error is not None:
            raise self._error
        return self._value

    @property
    def latency(self) -> Optional[float]:
        """Submit → completion seconds (None while in flight)."""
        if self.completed is None:
            return None
        return self.completed - self.submitted

    def _finish(self, value=None, error=None, generation=None) -> None:
        self._value = value
        self._error = error
        self.generation = generation
        self.completed = time.perf_counter()
        self._event.set()


class _QueuedRequest:
    __slots__ = ("ids", "proba", "future", "ctx")

    def __init__(
        self,
        ids: np.ndarray,
        proba: bool,
        future: PredictionFuture,
        ctx: Optional[TraceContext] = None,
    ):
        self.ids = ids
        self.proba = proba
        self.future = future
        #: Trace context captured on the submitting thread — how the
        #: scheduler joins the submitter's trace across the queue hop.
        self.ctx = ctx


class _Worker:
    """One scheduler worker: the handle its batches are forwarded
    through (the server's own, or a replica — see
    :meth:`ModelServer._worker_handle`), its thread, and the flag that
    retires it between batches."""

    __slots__ = ("handle", "thread", "retired")

    def __init__(self):
        self.handle = None
        self.thread: Optional[threading.Thread] = None
        self.retired = threading.Event()

    def alive(self) -> bool:
        return self.thread is not None and self.thread.is_alive()


#: EWMA smoothing for the observed request inter-arrival gap (the
#: adaptive micro-batching signal): new = ALPHA*gap + (1-ALPHA)*old.
ARRIVAL_EWMA_ALPHA = 0.2


class ModelServer:
    """Micro-batching scheduler over one :class:`ModelHandle`.

    Its workers are threads that forward batches through ``handle``;
    :class:`ProcessReplicaServer` reuses the whole scheduler with a
    replica process behind each worker instead.

    Parameters
    ----------
    handle:
        A ready :class:`repro.api.ModelHandle`, or a bundle path —
        loaded through the memory-mapped operator tier.
    max_batch_size:
        Most requests coalesced into one union forward.
    max_wait_ms:
        How long a batch may wait for companions after its first
        request arrives.  ``0`` disables coalescing delay (batches
        still form from whatever is already queued).  With
        ``adaptive_wait`` this becomes the *cap* on the derived wait.
    max_queue:
        Bound on queued (admitted, unanswered) requests; beyond it
        :meth:`submit` sheds load with :class:`ServerOverloaded`.
    num_workers:
        Scheduler workers forming and answering batches concurrently.
    adaptive_wait:
        Derive the effective wait from the observed inter-arrival EWMA
        instead of always waiting ``max_wait_ms`` (see module docs).
    hot_cache_size:
        Entries in the hot-query LRU (``0`` disables).  Keys are
        ``(generation, proba, ids)``; hits skip the scheduler and the
        receptive-field gather entirely.
    pipeline:
        Optional prepared :class:`repro.api.Pipeline` backing the
        handle; enables :meth:`ingest` (live edge deltas without a
        restart).
    slow_log_size:
        How many worst-latency requests to keep (with their per-phase
        breakdown) under ``stats()["slow_requests"]``.
    """

    #: Registry component name (``repro_<component>_*`` in ``/metrics``).
    metrics_component = "server"

    def __init__(
        self,
        handle,
        max_batch_size: int = 32,
        max_wait_ms: float = 2.0,
        max_queue: int = 256,
        num_workers: int = 1,
        adaptive_wait: bool = False,
        hot_cache_size: int = 0,
        pipeline=None,
        slow_log_size: int = 8,
    ):
        from repro.api.serving import ModelHandle

        if isinstance(handle, (str, Path)):
            handle = ModelHandle.load(handle)
        if max_batch_size < 1:
            raise ValueError(f"max_batch_size must be >= 1, got {max_batch_size}")
        if max_wait_ms < 0:
            raise ValueError(f"max_wait_ms must be >= 0, got {max_wait_ms}")
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        if hot_cache_size < 0:
            raise ValueError(
                f"hot_cache_size must be >= 0, got {hot_cache_size}"
            )
        self.handle = handle
        self.pipeline = pipeline
        self.max_batch_size = int(max_batch_size)
        self.max_wait_s = float(max_wait_ms) / 1000.0
        self.num_workers = int(num_workers)
        self.adaptive_wait = bool(adaptive_wait)
        self._hot_cache_size = int(hot_cache_size)
        self._queue: "queue.Queue[_QueuedRequest]" = queue.Queue(
            maxsize=int(max_queue)
        )
        self._stop = threading.Event()
        # Telemetry shared between submitters, scheduler workers, and
        # stats() readers; the lock-discipline rule of
        # ``python -m repro.analysis`` enforces the annotations below,
        # and the runtime sanitizer traces them under load.
        self._lock = threading.Lock()
        self._workers: List[_Worker] = []  # guarded-by: _lock
        self._started_at: Optional[float] = None  # guarded-by: _lock
        self._stopped_at: Optional[float] = None  # guarded-by: _lock
        self._latencies: deque = deque(maxlen=4096)  # guarded-by: _lock
        self._batch_sizes: deque = deque(maxlen=4096)  # guarded-by: _lock
        self._counters = {  # guarded-by: _lock
            "requests": 0, "answered": 0, "failed": 0, "shed": 0,
            "batches": 0, "ingests": 0, "cache_hits": 0,
        }
        # Adaptive micro-batching signal: EWMA of the gap between
        # consecutive submits (seconds), maintained at admission.
        self._last_arrival: Optional[float] = None  # guarded-by: _lock
        self._arrival_ewma_s: Optional[float] = None  # guarded-by: _lock
        # Hot-query LRU: (generation, proba, ids bytes) -> answer copy.
        self._hot_cache: "OrderedDict" = OrderedDict()  # guarded-by: _lock
        # Serializes whole delta ingests (pipeline patch + handle
        # refresh); queries keep flowing — they only contend on the
        # handle's generation-pointer swap.
        self._ingest_lock = threading.Lock()
        # Observability: the worst-N request log (own leaf lock), the
        # shared latency histogram (resolved once — the registry lookup
        # stays off the hot path), and this server's registry
        # registration; stats() is a thin view over the latter.
        self._slow_log = SlowRequestLog(capacity=max(1, int(slow_log_size)))
        self._latency_hist = obs_metrics.REGISTRY.histogram(
            "repro_server_latency_seconds",
            help="End-to-end submit->answer latency per request",
        )
        self._obs = obs_metrics.REGISTRY.register(
            self.metrics_component, self._collect_metrics
        )

    # ------------------------------------------------------------- #
    # Lifecycle
    # ------------------------------------------------------------- #

    def start(self) -> "ModelServer":
        """Spawn the scheduler workers (idempotent while running).

        Restarting after :meth:`stop` is allowed only once every worker
        from the previous run has exited — otherwise a wedged old
        worker and a fresh one would serve the same queue, and answers
        could keep flowing from a generation the caller believes dead.
        """
        alive = self._live_workers()
        if alive:
            if self._stop.is_set():
                raise RuntimeError(
                    f"cannot restart: {len(alive)} worker(s) from "
                    "the previous run are still alive; wait for them to "
                    "finish their in-flight batch and call start() again"
                )
            return self
        self._stop.clear()
        with self._lock:
            self._started_at = time.perf_counter()
            self._stopped_at = None
        for _ in range(self.num_workers):
            self._add_worker()
        return self

    def stop(self, timeout: float = 5.0) -> None:
        """Drain nothing, stop everything: in-flight batches finish,
        queued requests are failed fast so no caller blocks forever.

        Idempotent: safe on a never-started server and safe to call
        twice.  Freezes the telemetry clock (``uptime_seconds`` /
        ``throughput_rps`` stop growing/decaying) and keeps any worker
        that outlives ``timeout`` on the books so a premature restart
        is refused rather than doubling up on the queue.
        """
        self._stop.set()
        with self._lock:
            if self._started_at is not None and self._stopped_at is None:
                self._stopped_at = time.perf_counter()
            workers = list(self._workers)
        for worker in workers:
            worker.thread.join(timeout)
        # Workers that missed the deadline stay on the books: start()
        # refuses to spawn a second generation next to them.
        self._live_workers()
        self._fail_pending()

    def _live_workers(self) -> List[_Worker]:
        """Drop exited workers from the pool; return the live ones."""
        with self._lock:
            self._workers = [w for w in self._workers if w.alive()]
            return list(self._workers)

    def _add_worker(self) -> None:
        """Start one scheduler worker (callers hold no locks)."""
        worker = _Worker()
        worker.handle = self._worker_handle(worker)
        worker.thread = threading.Thread(
            target=self._worker_loop,
            args=(worker,),
            name="repro-serve-worker",
            daemon=True,
        )
        # Started before it joins the pool: stop() only ever joins
        # threads that are running.
        worker.thread.start()
        with self._lock:
            self._workers.append(worker)

    def _worker_handle(self, worker: _Worker):
        """What ``worker`` forwards its batches through: the server's
        own handle (:class:`ProcessReplicaServer` gives each worker a
        replica process instead)."""
        return self.handle

    def _release_worker_handle(self, handle) -> None:
        """Called by a worker's thread as it exits (nothing to release
        for the shared in-process handle)."""

    def _fail_pending(self) -> None:
        """Fail every queued request so no caller blocks on a dead server."""
        while True:
            try:
                request = self._queue.get_nowait()
            except queue.Empty:
                break
            request.future._finish(error=RuntimeError("server stopped"))
            with self._lock:
                self._counters["failed"] += 1

    def __enter__(self) -> "ModelServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------- #
    # Request surface
    # ------------------------------------------------------------- #

    def submit(self, ids, proba: bool = False) -> PredictionFuture:
        """Admit one request; returns a :class:`PredictionFuture`.

        Validation happens here, synchronously, with the sequential
        path's own ``check_ids`` — so the error type *and message* for a
        bad request are identical whether it goes through the server or
        straight through the handle.  A hot-cache hit resolves the
        future immediately (bit-identical: the cached value is a prior
        answer from the same operator generation).  A full queue sheds
        the request with :class:`ServerOverloaded` (admission control).
        """
        with self._lock:
            running = bool(self._workers)
        if not running:
            raise RuntimeError("server is not running; call start() first")
        checked = self.handle.check_ids(ids)  # raises exactly like the handle
        proba = bool(proba)
        generation = self.handle.generation if self._hot_cache_size else 0
        now = time.monotonic()
        cached = None
        with self._lock:
            if self._last_arrival is not None:
                gap = now - self._last_arrival
                self._arrival_ewma_s = (
                    gap
                    if self._arrival_ewma_s is None
                    else ARRIVAL_EWMA_ALPHA * gap
                    + (1.0 - ARRIVAL_EWMA_ALPHA) * self._arrival_ewma_s
                )
            self._last_arrival = now
            if self._hot_cache_size:
                key = (generation, proba, checked.tobytes())
                cached = self._hot_cache.get(key)
                if cached is not None:
                    self._hot_cache.move_to_end(key)
                    self._counters["requests"] += 1
                    self._counters["answered"] += 1
                    self._counters["cache_hits"] += 1
        ctx = TRACER.current_context() if TRACER.enabled else None
        future = PredictionFuture()
        if cached is not None:
            future._finish(value=cached.copy(), generation=generation)
            if TRACER.enabled:
                TRACER.record(
                    "server.request",
                    start_s=future.submitted,
                    end_s=future.completed,
                    parent=ctx,
                    attrs={"ids": int(checked.size), "cache_hit": True},
                )
            return future
        request = _QueuedRequest(checked, proba, future, ctx)
        try:
            self._queue.put_nowait(request)
        except queue.Full:
            with self._lock:
                self._counters["shed"] += 1
            raise ServerOverloaded(
                f"request queue full ({self._queue.maxsize} pending); "
                "shedding load"
            ) from None
        if self._stop.is_set():
            # stop() may have drained the queue between our running-check
            # and the put: fail anything stranded (possibly this request)
            # so no caller blocks forever on a dead server.  A request a
            # worker already claimed is not stranded — it gets answered.
            self._fail_pending()
        with self._lock:
            self._counters["requests"] += 1
        return future

    def predict_nodes(self, ids, timeout: Optional[float] = None) -> np.ndarray:
        """Blocking label query through the micro-batching scheduler."""
        return self.submit(ids, proba=False).result(timeout)

    def predict_proba_nodes(
        self, ids, timeout: Optional[float] = None
    ) -> np.ndarray:
        """Blocking probability query through the scheduler."""
        return self.submit(ids, proba=True).result(timeout)

    # ------------------------------------------------------------- #
    # Live delta ingest
    # ------------------------------------------------------------- #

    def ingest(self, delta, pipeline=None) -> Dict[str, object]:
        """Apply an edge delta and refresh the served operators, live.

        Runs :meth:`repro.api.Pipeline.ingest` (row-scoped artifact
        patching) and then :meth:`repro.api.ModelHandle.refresh` — one
        atomic generation swap — so every request answered after this
        returns sees the new edges, without a restart and without
        stopping the scheduler.  Concurrent ingests are serialized;
        concurrent queries keep being answered throughout (each against
        a complete generation, old or new).  The hot-query cache is
        invalidated with the swap: keys carry the generation, so stale
        entries can never answer post-ingest queries, and the cache is
        cleared outright to bound dead residency.

        Returns a summary: the new operator generation, the patched
        stage actions, and the graph version.
        """
        pipeline = pipeline if pipeline is not None else self.pipeline
        if pipeline is None:
            raise RuntimeError(
                "no pipeline attached; pass pipeline= here or at "
                "construction to enable live ingest"
            )
        with self._ingest_lock:
            events = pipeline.ingest(delta)
            generation = self.handle.refresh(pipeline.data)
        with self._lock:
            self._counters["ingests"] += 1
            self._hot_cache.clear()
        return {
            "generation": generation,
            "graph_version": pipeline.dataset.hin.version,
            "stages": [(event.stage, event.action) for event in events],
        }

    # ------------------------------------------------------------- #
    # Scheduler
    # ------------------------------------------------------------- #

    def _effective_wait_s(self) -> float:
        """Companion-wait for the batch being formed right now.

        Static mode returns ``max_wait_s`` unchanged.  Adaptive mode
        sizes the wait to the traffic: filling the rest of a batch
        should take about ``(max_batch_size - 1)`` inter-arrival gaps,
        so that is what we wait (capped at ``max_wait_s``) — and when
        the observed gap already exceeds the cap, no companion can be
        expected in time, so the request is served immediately.
        """
        if not self.adaptive_wait:
            return self.max_wait_s
        with self._lock:
            ewma = self._arrival_ewma_s
        return self._wait_for_ewma(ewma)

    def _wait_for_ewma(self, ewma: Optional[float]) -> float:
        """The control law, pure in the EWMA — lets ``stats()`` derive
        the effective wait from its own already-snapshotted EWMA instead
        of re-reading the live field (which could disagree with the rest
        of the snapshot)."""
        if not self.adaptive_wait or ewma is None:
            return self.max_wait_s
        if ewma >= self.max_wait_s:
            return 0.0
        return min(self.max_wait_s, ewma * (self.max_batch_size - 1))

    def _worker_loop(self, worker: _Worker) -> None:
        try:
            while not (self._stop.is_set() or worker.retired.is_set()):
                try:
                    first = self._queue.get(timeout=0.05)
                except queue.Empty:
                    continue
                batch = [first]
                formed_at = time.perf_counter()
                deadline = time.monotonic() + self._effective_wait_s()
                while len(batch) < self.max_batch_size:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        # Grab whatever is already queued, but wait no more.
                        try:
                            batch.append(self._queue.get_nowait())
                        except queue.Empty:
                            break
                    else:
                        try:
                            batch.append(self._queue.get(timeout=remaining))
                        except queue.Empty:
                            break
                self._serve_batch(
                    batch, worker.handle, formed_at, time.perf_counter()
                )
        finally:
            self._release_worker_handle(worker.handle)

    def _serve_batch(
        self,
        batch: List[_QueuedRequest],
        handle,
        formed_at: float,
        assembled_at: float,
    ) -> None:
        """Answer one formed batch through ``handle``: one union forward,
        then argmax (labels) or softmax (proba) per request.

        ``formed_at``/``assembled_at`` bound the companion-collection
        window (perf_counter, same clock as PredictionFuture.submitted).
        """
        from repro.eval.metrics import softmax

        # One batch-level span parents the whole scheduler-side subtree
        # (the handle's sliced forward via this thread's context stack,
        # or a replica's span via the context shipped with the batch)
        # into the first request's trace.
        batch_span = TRACER.span(
            "server.batch",
            parent=batch[0].ctx if TRACER.enabled else None,
            attrs={"batch_size": len(batch)},
        )
        try:
            with batch_span:
                # validated=True: every request already passed check_ids
                # at submit — do not re-scan the hot path.
                logits, generation = handle.forward_many(
                    [request.ids for request in batch],
                    validated=True,
                    return_generation=True,
                )
                answers = [
                    softmax(rows) if request.proba else rows.argmax(axis=1)
                    for request, rows in zip(batch, logits)
                ]
        except Exception as exc:  # defensive: a failed batch must not
            for request in batch:  # wedge its callers or kill the loop
                request.future._finish(error=exc)
            with self._lock:
                self._counters["failed"] += len(batch)
                self._counters["batches"] += 1
                self._batch_sizes.append(len(batch))
            return
        forward_done = time.perf_counter()
        for request, answer in zip(batch, answers):
            request.future._finish(value=answer, generation=generation)
        with self._lock:
            self._counters["answered"] += len(batch)
            self._counters["batches"] += 1
            self._batch_sizes.append(len(batch))
            for request in batch:
                latency = request.future.latency
                if latency is not None:
                    self._latencies.append(latency)
            # Cache under the generation the batch actually ran against
            # (exact even if an ingest swapped generations mid-batch:
            # an entry keyed on the old generation is unreachable to
            # post-swap lookups).  Private copies keep caller-side
            # mutation of returned arrays from poisoning the cache.
            if self._hot_cache_size:
                for request, answer in zip(batch, answers):
                    key = (generation, request.proba, request.ids.tobytes())
                    self._hot_cache[key] = answer.copy()
                    self._hot_cache.move_to_end(key)
                while len(self._hot_cache) > self._hot_cache_size:
                    self._hot_cache.popitem(last=False)
        # Per-request telemetry runs after the futures resolved and
        # outside self._lock (slow log, tracer, and histogram each have
        # their own leaf lock).
        self._observe_batch(batch, formed_at, assembled_at, forward_done)

    def _observe_batch(
        self,
        batch: List[_QueuedRequest],
        formed_at: float,
        assembled_at: float,
        forward_done: float,
    ) -> None:
        """Fill timings, feed the slow log, and re-emit request spans.

        The phase boundaries are batch-level: every request in a batch
        shares the formation/assembly/forward window; what differs per
        request is its queue wait (submit → batch formation).
        """
        tracing = TRACER.enabled
        batch_size = len(batch)
        for request in batch:
            future = request.future
            latency = future.latency
            if latency is None:  # not resolved (should not happen)
                continue
            timings = {
                "queue_wait_s": max(0.0, formed_at - future.submitted),
                "batch_assembly_s": max(0.0, assembled_at - formed_at),
                "forward_s": max(0.0, forward_done - assembled_at),
            }
            future.timings = timings
            self._latency_hist.observe(latency)
            trace_id = request.ctx.trace_id if request.ctx else None
            span = None
            if tracing:
                span = TRACER.record(
                    "server.request",
                    start_s=future.submitted,
                    end_s=future.completed,
                    parent=request.ctx,
                    attrs={
                        "ids": int(request.ids.size),
                        "proba": request.proba,
                        "batch_size": batch_size,
                    },
                )
                trace_id = span.trace_id
                bounds = (
                    ("server.queue_wait", future.submitted, formed_at),
                    ("server.batch_assembly", formed_at, assembled_at),
                    ("server.forward", assembled_at, forward_done),
                )
                for name, start_s, end_s in bounds:
                    TRACER.record(
                        name, start_s=start_s, end_s=end_s, parent=span.context
                    )
            self._slow_log.offer(
                latency,
                {
                    "name": "server.request",
                    "duration_s": latency,
                    "trace_id": trace_id,
                    "attrs": {
                        "ids": int(request.ids.size),
                        "proba": request.proba,
                        "batch_size": batch_size,
                    },
                    "children": [
                        {"name": "server.queue_wait",
                         "duration_s": timings["queue_wait_s"]},
                        {"name": "server.batch_assembly",
                         "duration_s": timings["batch_assembly_s"]},
                        {"name": "server.forward",
                         "duration_s": timings["forward_s"]},
                    ],
                },
            )

    # ------------------------------------------------------------- #
    # Telemetry
    # ------------------------------------------------------------- #

    def stats(self) -> Dict[str, object]:
        """Counters, batch shaping, latency quantiles, and throughput.

        ``uptime_seconds`` and ``throughput_rps`` cover the
        started→stopped window: on a stopped server they freeze at the
        stop timestamp instead of decaying toward zero forever.

        Every guarded field is read under one lock hold (including the
        EWMA the reported ``effective_wait_ms`` derives from), and the
        whole dict doubles as this server's registry collector
        (``repro_server_*`` in ``GET /metrics``).
        ``slow_requests`` is the worst-latency ring buffer: each entry
        an end-to-end request span dict with its child phase breakdown.
        """
        return self._obs.read()

    def _collect_metrics(self) -> Dict[str, object]:
        """Registry collector; :meth:`stats` is a thin view over it."""
        with self._lock:
            counters = dict(self._counters)
            latencies = np.asarray(self._latencies, dtype=np.float64)
            batch_sizes = np.asarray(self._batch_sizes, dtype=np.float64)
            started_at = self._started_at
            stopped_at = self._stopped_at
            arrival_ewma = self._arrival_ewma_s
            hot_entries = len(self._hot_cache)
            running = any(worker.alive() for worker in self._workers)
        if started_at is None:
            elapsed = 0.0
        else:
            end = stopped_at if stopped_at is not None else time.perf_counter()
            elapsed = max(0.0, end - started_at)
        out: Dict[str, object] = dict(counters)
        out["queue_depth"] = self._queue.qsize()
        out["workers"] = self.num_workers
        out["running"] = running
        out["uptime_seconds"] = elapsed
        out["throughput_rps"] = (
            counters["answered"] / elapsed if elapsed > 0 else 0.0
        )
        out["adaptive_wait"] = self.adaptive_wait
        # Derived from the snapshotted EWMA above — NOT a fresh read of
        # the live field, which could disagree with the snapshot.
        out["effective_wait_ms"] = self._wait_for_ewma(arrival_ewma) * 1000.0
        out["interarrival_ewma_ms"] = (
            arrival_ewma * 1000.0 if arrival_ewma is not None else None
        )
        out["hot_cache_size"] = self._hot_cache_size
        out["hot_cache_entries"] = hot_entries
        if batch_sizes.size:
            out["batch_size_mean"] = float(batch_sizes.mean())
            out["batch_size_max"] = int(batch_sizes.max())
        if latencies.size:
            out["latency_seconds"] = {
                "mean": float(latencies.mean()),
                "p50": float(np.percentile(latencies, 50)),
                "p95": float(np.percentile(latencies, 95)),
                "max": float(latencies.max()),
            }
        out["slow_requests"] = self._slow_log.snapshot()
        return out


# ------------------------------------------------------------------ #
# Replica-process executor
# ------------------------------------------------------------------ #


def _replica_loop(bundle_path: str, conn) -> None:
    """One replica process: map the bundle, answer batches until told to stop.

    Spawn-safe module-level entry point.  Each replica opens the bundle
    through the mmap tier, so all replicas share one OS-resident
    operator copy.  Messages from the owning worker are
    ``(id_arrays, forward_kwargs, ctx)`` — ``ctx`` the worker's
    ``(trace_id, span_id)`` or ``None`` — and ``None`` (or a closed
    pipe) ends the loop.  With ``REPRO_TRACE`` exported (the spawn env
    is inherited) each replica records ``replica.batch`` spans into its
    process-local tracer, parented into the batch's trace.
    """
    from repro.api.serving import ModelHandle

    handle = ModelHandle.load(bundle_path)
    while True:
        try:
            message = conn.recv()
        except EOFError:
            return
        if message is None:
            return
        id_arrays, kwargs, ctx = message
        try:
            with TRACER.span(
                "replica.batch",
                parent=TraceContext(*ctx) if ctx else None,
                attrs={"batch_size": len(id_arrays)},
            ):
                reply = (True, handle.forward_many(id_arrays, **kwargs))
        except Exception as exc:  # answer the worker; keep serving
            reply = (False, repr(exc))
        conn.send(reply)


class _Replica:
    """A worker's replica process, driven over one pipe.

    Duck-types :meth:`repro.api.ModelHandle.forward_many`, which is all
    :meth:`ModelServer._serve_batch` asks of a handle.  Losing the
    process fails the batch in hand and calls ``on_lost`` (which retires
    the owning worker).
    """

    def __init__(self, context, bundle_path: str, on_lost):
        self._conn, child = context.Pipe()
        self.process = context.Process(
            target=_replica_loop, args=(bundle_path, child), daemon=True
        )
        self.process.start()
        child.close()
        self._on_lost = on_lost

    def forward_many(self, id_arrays, **kwargs):
        ctx = TRACER.current_context() if TRACER.enabled else None
        try:
            self._conn.send((id_arrays, kwargs, tuple(ctx) if ctx else None))
            ok, payload = self._conn.recv()
        except (EOFError, OSError) as exc:
            self._on_lost()
            raise RuntimeError("replica process exited") from exc
        if not ok:
            raise RuntimeError(payload)
        return payload

    def close(self, timeout: float = 5.0) -> None:
        try:
            self._conn.send(None)
        except OSError:
            pass  # already gone
        self.process.join(timeout)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout)
        self._conn.close()


class ProcessReplicaServer(ModelServer):
    """:class:`ModelServer` whose workers each own a replica process.

    Admission, validation, batching, futures, telemetry and the
    lifecycle rules are :class:`ModelServer`'s, in the parent; a worker
    hands each formed batch to its own spawned replica over a pipe and
    waits for the logits.  Every replica maps the *same* bundle
    sidecars, so memory cost is ~one operator copy total (plus
    per-process model weights, KBs).  Replicas are spawned (not
    forked), so cold start includes an interpreter boot each.

    Elastic replicas
    ----------------
    :meth:`scale_to` grows the pool by starting worker+replica pairs and
    shrinks it by retiring them: a retired worker finishes the batch in
    hand, leaves the shared queue to the survivors, and shuts its
    replica down.  Pass ``autoscale=AutoscalePolicy(...)`` to drive it
    automatically from queue depth and shed count with hysteresis; the
    controller's decisions show up under ``stats()["autoscale"]``.
    """

    metrics_component = "replica_server"

    def __init__(
        self,
        bundle_path: Union[str, Path],
        replicas: int = 2,
        max_batch_size: int = 32,
        max_wait_ms: float = 2.0,
        max_queue: int = 256,
        start_timeout: float = 60.0,
        autoscale=None,
    ):
        if replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {replicas}")
        if autoscale is not None:
            replicas = max(
                autoscale.min_replicas, min(autoscale.max_replicas, replicas)
            )
        # The parent's own mapped handle validates ids at submit — and
        # loading it pre-builds the sidecars, so replicas map instead of
        # racing to export.
        super().__init__(
            bundle_path,
            max_batch_size=max_batch_size,
            max_wait_ms=max_wait_ms,
            max_queue=max_queue,
            num_workers=replicas,
        )
        self.bundle_path = str(bundle_path)
        self.autoscale = autoscale
        self.start_timeout = float(start_timeout)
        self._mp = multiprocessing.get_context("spawn")
        self._autoscaler = None
        # Serializes whole resize decisions (scale_to vs scale_to).
        self._scale_lock = threading.Lock()
        self._scale_events = {  # guarded-by: _lock
            "scale_ups": 0, "scale_downs": 0,
        }

    def _worker_handle(self, worker: _Worker) -> _Replica:
        return _Replica(self._mp, self.bundle_path, on_lost=worker.retired.set)

    def _release_worker_handle(self, handle: _Replica) -> None:
        handle.close()

    def start(self) -> "ProcessReplicaServer":
        super().start()
        if self.autoscale is not None:
            from repro.serve.autoscale import ReplicaAutoscaler

            if self._autoscaler is None:
                self._autoscaler = ReplicaAutoscaler(self, self.autoscale)
            self._autoscaler.start()
        return self

    def stop(self, timeout: float = 10.0) -> None:
        if self._autoscaler is not None:
            self._autoscaler.stop()
        super().stop(timeout)

    def ingest(self, delta, pipeline=None):
        raise NotImplementedError(
            "replicas serve the bundle as saved; live ingest needs a "
            "ModelServer over the pipeline's handle"
        )

    # ------------------------------------------------------------- #
    # Elastic replica pool
    # ------------------------------------------------------------- #

    def _serving_workers(self) -> List[_Worker]:
        """Live workers not yet told to retire."""
        return [w for w in self._live_workers() if not w.retired.is_set()]

    def live_replicas(self) -> int:
        """Worker+replica pairs currently alive (retiring ones included)."""
        return len(self._live_workers())

    def scale_to(self, count: int) -> int:
        """Grow or shrink the pool toward ``count`` pairs; returns it.

        Growth starts pairs immediately; shrink retires the newest ones,
        each after the batch in hand — admitted work stays queued for
        the survivors, so capacity never drops out from under it.
        ``count`` is clamped to the autoscale policy's
        ``[min_replicas, max_replicas]`` when one is attached, else must
        be ``>= 1``.
        """
        count = int(count)
        if self.autoscale is not None:
            count = max(
                self.autoscale.min_replicas,
                min(self.autoscale.max_replicas, count),
            )
        if count < 1:
            raise ValueError(f"replica count must be >= 1, got {count}")
        with self._scale_lock:
            serving = self._serving_workers()
            if not serving or self._stop.is_set():
                raise RuntimeError("server is not running; call start() first")
            for worker in serving[count:]:
                worker.retired.set()
            for _ in range(count - len(serving)):
                self._add_worker()
            if count != len(serving):
                event = "scale_ups" if count > len(serving) else "scale_downs"
                with self._lock:
                    self._scale_events[event] += 1
        return count

    def autoscale_signals(self) -> Dict[str, float]:
        """The controller's inputs: queue depth, shed total, pool size."""
        with self._lock:
            shed_total = self._counters["shed"]
        return {
            "queue_depth": float(self._queue.qsize()),
            "shed_total": float(shed_total),
            "replicas": float(max(1, len(self._serving_workers()))),
        }

    def _collect_metrics(self) -> Dict[str, object]:
        """ModelServer's stats plus the pool shape and scaling history."""
        out = super()._collect_metrics()
        with self._lock:
            out.update(self._scale_events)
            live = [w for w in self._workers if w.alive()]
        out["replicas"] = len(live)
        out["pending_retire"] = sum(w.retired.is_set() for w in live)
        if self._autoscaler is not None:
            out["autoscale"] = self._autoscaler.stats()
        return out
