"""``repro.serve`` — the traffic-serving subsystem.

The paper's model answers per-node label queries from fixed, precomputed
meta-path operators — a read-heavy serving workload.  This package turns
the repo's batch reproduction into a query *server*:

:class:`~repro.serve.server.ModelServer`
    The one scheduler: submit-time validation (the handle's own errors)
    and load-shedding admission control over a **bounded** request
    queue (:class:`~repro.serve.server.ServerOverloaded`), a
    micro-batching worker pool (``max_batch_size`` / ``max_wait_ms``)
    that answers each batch with **one** receptive-field union slice +
    model forward (:meth:`repro.api.ModelHandle.forward_many`) —
    bit-identical to sequential queries — plus futures, a hot-query
    cache, and latency/throughput/batch-shape telemetry.

    It has two executors.  A ``ModelServer`` worker forwards through
    its handle in-thread; each worker of a
    :class:`~repro.serve.server.ProcessReplicaServer` owns a spawned
    replica process instead, and the pool of worker+replica pairs is
    elastic (:meth:`~repro.serve.server.ProcessReplicaServer.scale_to`,
    optionally driven by an
    :class:`~repro.serve.autoscale.AutoscalePolicy`).  Small concurrent
    reads are faster in-thread, large concurrent reads on replicas (the
    measurements are in :mod:`repro.serve.server`), so both stay.

:class:`~repro.serve.http.HttpServer`
    The network front door: a stdlib-only HTTP facade over
    ``ModelServer`` (``/predict``, ``/predict_proba``, ``/stats``,
    ``/ingest``, ``/metrics``) that preserves in-process error types
    and messages on the wire; :class:`~repro.serve.http.HttpServeClient`
    keeps :class:`~repro.serve.client.ServeClient`'s exact surface over
    HTTP, including shed-retry.

Observability (:mod:`repro.obs`)
    Every layer publishes into the unified telemetry subsystem: spans
    (``server.request`` with queue-wait/assembly/forward children,
    ``http.<route>`` stitched across the wire via ``traceparent``
    headers), registry metrics (``repro_server_*`` etc., exported at
    ``GET /metrics``), and a worst-N ``stats()["slow_requests"]`` log.
    Tracing is off by default; enable with ``repro.obs.TRACER.enable()``
    or ``REPRO_TRACE=1``.

The zero-copy substrate
    Both servers load bundles through the memory-mapped operator tier
    (:meth:`repro.api.ModelHandle.load`, which reads the bundle with
    :func:`repro.hin.cache.read_archive` and maps its ``<bundle>.mmap/``
    replica), and pipelines sharing a store dir reuse each other's
    composed products through the same mapped reader — so
    **co-located workers share one OS-resident copy** of every operator
    and cold-start by mapping files, not recomposing or copying.

Quickstart
----------
>>> from repro.serve import ModelServer, ServeClient
>>> server = ModelServer("conch.npz", max_batch_size=64)   # doctest: +SKIP
>>> with server:                                           # doctest: +SKIP
...     client = ServeClient(server)
...     client.predict_nodes([0, 7, 7])     # duplicates answered per slot
...     server.stats()["latency_seconds"]
See ``examples/serving_under_load.py`` for a full concurrent-load run.
"""

from repro.serve.autoscale import AutoscalePolicy, ReplicaAutoscaler
from repro.serve.client import ServeClient
from repro.serve.http import HttpServeClient, HttpServer
from repro.serve.server import (
    ModelServer,
    PredictionFuture,
    ProcessReplicaServer,
    ServerOverloaded,
)

__all__ = [
    "AutoscalePolicy",
    "HttpServeClient",
    "HttpServer",
    "ModelServer",
    "PredictionFuture",
    "ProcessReplicaServer",
    "ReplicaAutoscaler",
    "ServeClient",
    "ServerOverloaded",
]
