"""The HTTP tier: wire-fidelity, errors, hot cache, adaptive batching.

What must hold:

1. **Wire equivalence** — answers over HTTP are *bit-identical* to
   in-process :meth:`ModelHandle.predict_nodes` /
   ``predict_proba_nodes`` (JSON doubles round-trip exactly via
   shortest-repr), empty batches keep their ``(0, C)`` shape, and
   concurrent fan-out through :class:`HttpServeClient.predict_many`
   still matches per-request sequential answers.
2. **Error fidelity** — a bad request over HTTP raises the *same*
   exception type with the *same message* as the in-process path;
   load-shed maps to 503 and comes back as
   :class:`ServerOverloaded`, driving the client's bounded retry.
3. **Hot-query cache** — repeats hit (``cache_hits``), labels and
   proba key separately, hits return private copies, and ``ingest``'s
   generation swap atomically invalidates the cache.
4. **Adaptive micro-batching** — the effective wait follows the
   documented law (cap with no signal, scaled inter-arrival when busy,
   zero when sparse) and the end-to-end answers stay equivalent.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro import api
from repro.api import ConCHEstimator, ModelHandle
from repro.core import ConCHConfig
from repro.data import DBLPConfig, load_dataset, stratified_split
from repro.hin.graph import EdgeDelta
from repro.serve import (
    HttpServeClient,
    HttpServer,
    ModelServer,
    ServerOverloaded,
)


@pytest.fixture(scope="module")
def dblp_tiny():
    return load_dataset(
        "dblp",
        config=DBLPConfig(num_authors=80, num_papers=250, num_conferences=8),
    )


@pytest.fixture(scope="module")
def tiny_config():
    return ConCHConfig(
        k=3,
        num_layers=2,
        context_dim=8,
        embed_num_walks=2,
        embed_walk_length=8,
        embed_epochs=1,
        epochs=8,
        patience=5,
    )


@pytest.fixture(scope="module")
def bundle_path(dblp_tiny, tiny_config, tmp_path_factory):
    split = stratified_split(dblp_tiny.labels, 0.2, seed=0)
    estimator = ConCHEstimator(
        api.Pipeline(dblp_tiny, config=tiny_config).data, tiny_config
    ).fit(split)
    path = tmp_path_factory.mktemp("bundle") / "conch.npz"
    estimator.save(path)
    return path


@pytest.fixture(scope="module")
def handle(bundle_path):
    return ModelHandle.load(bundle_path)


@pytest.fixture()
def http_stack(handle):
    """A fresh server + facade + client per test (clean counters)."""
    server = ModelServer(
        handle,
        max_batch_size=16,
        max_wait_ms=1,
        max_queue=64,
        num_workers=2,
        hot_cache_size=32,
    ).start()
    http = HttpServer(server).start()
    client = HttpServeClient(http.url, timeout=30.0)
    yield server, http, client
    http.stop()
    server.stop()


def request_mix(handle, count: int = 24):
    """A deterministic spread of request shapes (sizes 1..5, dups)."""
    rng = np.random.default_rng(7)
    requests = []
    for index in range(count):
        size = 1 + index % 5
        ids = rng.integers(0, handle.num_objects, size=size)
        if index % 3 == 0 and size > 1:
            ids[-1] = ids[0]
        requests.append(ids.astype(np.int64))
    return requests


# ---------------------------------------------------------------------- #
# 1. Wire equivalence
# ---------------------------------------------------------------------- #


class TestWireEquivalence:
    def test_labels_bit_identical(self, http_stack, handle):
        _, _, client = http_stack
        for ids in request_mix(handle, 12):
            np.testing.assert_array_equal(
                client.predict_nodes(ids), handle.predict_nodes(ids)
            )

    def test_proba_bit_identical(self, http_stack, handle):
        # Sequential single requests form batches of one, and JSON
        # doubles round-trip via shortest-repr: exact equality, no rtol.
        _, _, client = http_stack
        for ids in request_mix(handle, 8):
            np.testing.assert_array_equal(
                client.predict_proba_nodes(ids),
                handle.predict_proba_nodes(ids),
            )

    def test_empty_request_keeps_shapes(self, http_stack, handle):
        _, _, client = http_stack
        labels = client.predict_nodes([])
        assert labels.shape == (0,)
        assert labels.dtype == np.int64
        proba = client.predict_proba_nodes([])
        assert proba.shape == (0, handle.data.num_classes)
        assert proba.dtype == np.float64

    def test_concurrent_fanout_matches_handle(self, http_stack, handle):
        server, _, client = http_stack
        requests = request_mix(handle, 16)
        results = client.predict_many(requests)
        for ids, result in zip(requests, results):
            np.testing.assert_array_equal(result, handle.predict_nodes(ids))
        assert server.stats()["batches"] >= 1

    def test_answers_carry_the_generation_tag(self, http_stack, handle):
        _, _, client = http_stack
        body = client._request("POST", "/predict", {"ids": [1]})
        assert body["generation"] == handle.generation


# ---------------------------------------------------------------------- #
# 2. Error fidelity
# ---------------------------------------------------------------------- #


class TestErrorFidelity:
    def test_out_of_range_message_identical(self, http_stack, handle):
        _, _, client = http_stack
        bad = np.array([handle.num_objects + 5])
        with pytest.raises(IndexError) as over_wire:
            client.predict_nodes(bad)
        with pytest.raises(IndexError) as in_process:
            handle.predict_nodes(bad)
        assert str(over_wire.value) == str(in_process.value)

    def test_float_ids_message_identical(self, http_stack, handle):
        # The facade hands JSON-decoded ids to submit undigested, so the
        # float reaches the same check_ids and raises the same TypeError.
        _, _, client = http_stack
        with pytest.raises(TypeError) as over_wire:
            client.predict_nodes([1.5, 2.5])
        with pytest.raises(TypeError) as in_process:
            handle.predict_nodes([1.5, 2.5])
        assert str(over_wire.value) == str(in_process.value)

    def test_unknown_route_is_404(self, http_stack):
        _, _, client = http_stack
        with pytest.raises(LookupError, match="no route"):
            client._request("GET", "/nope")

    def test_malformed_json_is_400(self, http_stack):
        _, http, _ = http_stack
        request = urllib.request.Request(
            http.url + "/predict", data=b"{not json", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request, timeout=10.0)
        assert err.value.code == 400
        payload = json.loads(err.value.read().decode("utf-8"))
        assert payload["error"]["type"] == "ValueError"

    def test_missing_ids_field_is_400(self, http_stack):
        _, _, client = http_stack
        with pytest.raises(ValueError, match='"ids"'):
            client._request("POST", "/predict", {"nodes": [1]})

    def test_overload_is_503_and_client_retries(self, http_stack, monkeypatch):
        server, _, client = http_stack
        original = server.submit
        state = {"rejections": 2}

        def flaky(ids, proba=False):
            if state["rejections"] > 0:
                state["rejections"] -= 1
                raise ServerOverloaded("request queue full (64 pending)")
            return original(ids, proba=proba)

        monkeypatch.setattr(server, "submit", flaky)
        result = client.predict_nodes([1])
        np.testing.assert_array_equal(
            result, server.handle.predict_nodes(np.array([1]))
        )
        assert client.retried == 2
        assert client.dropped == 0

    def test_overload_exhausts_retries_as_server_overloaded(
        self, http_stack, monkeypatch
    ):
        server, http, _ = http_stack

        def always_shed(ids, proba=False):
            raise ServerOverloaded("request queue full (64 pending)")

        monkeypatch.setattr(server, "submit", always_shed)
        client = HttpServeClient(http.url, retries=1, backoff_s=0.001)
        with pytest.raises(ServerOverloaded, match="queue full"):
            client.predict_nodes([1])
        assert client.dropped == 1

    def test_stats_and_health_over_the_wire(self, http_stack):
        _, _, client = http_stack
        client.predict_nodes([1])
        stats = client.stats()
        for key in (
            "requests",
            "answered",
            "cache_hits",
            "hot_cache_entries",
            "effective_wait_ms",
            "throughput_rps",
        ):
            assert key in stats
        assert stats["requests"] >= 1
        assert client.healthz()


# ---------------------------------------------------------------------- #
# 3. Hot-query cache
# ---------------------------------------------------------------------- #


class TestHotCache:
    def test_repeat_hits_and_kind_isolation(self, http_stack, handle):
        server, _, client = http_stack
        ids = [4, 9]
        first = client.predict_nodes(ids)
        second = client.predict_nodes(ids)
        np.testing.assert_array_equal(first, second)
        np.testing.assert_array_equal(first, handle.predict_nodes(ids))
        assert server.stats()["cache_hits"] == 1
        # proba keys separately: same ids, no cross-kind hit…
        proba = client.predict_proba_nodes(ids)
        np.testing.assert_array_equal(proba, handle.predict_proba_nodes(ids))
        assert server.stats()["cache_hits"] == 1
        # …but the proba repeat now hits its own entry.
        client.predict_proba_nodes(ids)
        assert server.stats()["cache_hits"] == 2

    def test_cache_returns_private_copies(self, handle):
        server = ModelServer(handle, max_wait_ms=0, hot_cache_size=8).start()
        try:
            first = server.predict_nodes([3], timeout=10.0)
            first[:] = -1  # vandalize the caller's copy
            again = server.predict_nodes([3], timeout=10.0)
            np.testing.assert_array_equal(
                again, handle.predict_nodes(np.array([3]))
            )
        finally:
            server.stop()

    def test_eviction_respects_capacity(self, handle):
        server = ModelServer(handle, max_wait_ms=0, hot_cache_size=4).start()
        try:
            for node in range(10):
                server.predict_nodes([node], timeout=10.0)
            assert server.stats()["hot_cache_entries"] == 4
        finally:
            server.stop()

    def test_default_off(self, handle):
        server = ModelServer(handle, max_wait_ms=0).start()
        try:
            server.predict_nodes([1], timeout=10.0)
            server.predict_nodes([1], timeout=10.0)
            stats = server.stats()
            assert stats["cache_hits"] == 0
            assert stats["hot_cache_entries"] == 0
        finally:
            server.stop()


# ---------------------------------------------------------------------- #
# 4. Live ingest over HTTP (generation swap + cache invalidation)
# ---------------------------------------------------------------------- #


class TestHttpIngest:
    @pytest.fixture(scope="class")
    def live_stack(self, tiny_config):
        # A private dataset twin: ingest mutates the graph, so the
        # module-scoped fixtures must not be shared into this class.
        dataset = load_dataset(
            "dblp",
            config=DBLPConfig(
                num_authors=80, num_papers=250, num_conferences=8
            ),
        )
        pipeline = api.Pipeline(dataset, config=tiny_config)
        split = stratified_split(dataset.labels, 0.2, seed=0)
        estimator = ConCHEstimator(pipeline.data, tiny_config).fit(split)
        handle = ModelHandle(pipeline.data, tiny_config, estimator.trainer.model)
        server = ModelServer(
            handle, max_wait_ms=1, hot_cache_size=32, pipeline=pipeline
        ).start()
        http = HttpServer(server).start()
        client = HttpServeClient(http.url)
        yield server, http, client, pipeline
        http.stop()
        server.stop()

    def test_ingest_bumps_generation_and_clears_cache(self, live_stack):
        server, _, client, pipeline = live_stack
        ids = [2, 7]
        client.predict_nodes(ids)
        client.predict_nodes(ids)
        assert server.stats()["cache_hits"] == 1
        assert server.stats()["hot_cache_entries"] >= 1
        generation_before = server.handle.generation
        summary = client.ingest(EdgeDelta.additions("writes", [0, 1], [3, 4]))
        assert summary["generation"] == generation_before + 1
        assert summary["graph_version"] == pipeline.dataset.hin.version
        assert summary["stages"]  # the patched stage actions, as pairs
        assert server.stats()["hot_cache_entries"] == 0
        # Post-swap answers come from the new generation and agree with
        # the in-process path over the mutated graph.
        after = client.predict_nodes(ids)
        np.testing.assert_array_equal(
            after, server.handle.predict_nodes(np.array(ids))
        )
        body = client._request("POST", "/predict", {"ids": [1]})
        assert body["generation"] == generation_before + 1

    def test_reported_generation_is_the_answers_own(self, live_stack):
        """A refresh landing between the answer and the response must not
        relabel it: the wire carries the generation the answer came from
        (the cache key's on a hot-cache hit, else the batch's own)."""
        server, _, client, pipeline = live_stack
        body = {"ids": [5, 6]}
        client._request("POST", "/predict", body)  # cached at this generation
        hits_before = server.stats()["cache_hits"]
        original_submit = server.submit

        def submit_then_refresh(ids, proba=False):
            future = original_submit(ids, proba=proba)
            future.result(10.0)
            server.handle.refresh(pipeline.data)
            return future

        server.submit = submit_then_refresh
        try:
            for route in ("/predict", "/predict_proba"):  # a hit, then a batch
                answered_on = server.handle.generation
                reply = client._request("POST", route, body)
                assert server.handle.generation == answered_on + 1
                assert reply["generation"] == answered_on
        finally:
            del server.submit
        assert server.stats()["cache_hits"] == hits_before + 1


# ---------------------------------------------------------------------- #
# 5. Adaptive micro-batching
# ---------------------------------------------------------------------- #


class TestAdaptiveWait:
    def test_effective_wait_law(self, handle):
        server = ModelServer(
            handle, max_batch_size=32, max_wait_ms=50.0, adaptive_wait=True
        )
        # No traffic signal yet: fall back to the configured cap.
        assert server._effective_wait_s() == pytest.approx(0.05)
        with server._lock:
            server._arrival_ewma_s = 0.001
        # Busy: wait ≈ (batch-1) gaps = 31 ms, still under the cap.
        assert server._effective_wait_s() == pytest.approx(0.031)
        with server._lock:
            server._arrival_ewma_s = 0.004
        # The derived wait saturates at the cap.
        assert server._effective_wait_s() == pytest.approx(0.05)
        with server._lock:
            server._arrival_ewma_s = 0.2
        # Sparse: no companion can arrive inside the cap — serve now.
        assert server._effective_wait_s() == 0.0

    def test_static_mode_ignores_the_signal(self, handle):
        server = ModelServer(handle, max_wait_ms=5.0)
        with server._lock:
            server._arrival_ewma_s = 0.5
        assert server._effective_wait_s() == pytest.approx(0.005)

    def test_adaptive_end_to_end_equivalence(self, handle):
        server = ModelServer(
            handle, max_wait_ms=2, adaptive_wait=True, num_workers=2
        ).start()
        try:
            requests = request_mix(handle, 10)
            futures = [server.submit(ids) for ids in requests]
            for ids, future in zip(requests, futures):
                np.testing.assert_array_equal(
                    future.result(10.0), handle.predict_nodes(ids)
                )
            stats = server.stats()
            assert stats["adaptive_wait"] is True
            assert stats["interarrival_ewma_ms"] is not None
            assert stats["effective_wait_ms"] <= 2.0
        finally:
            server.stop()
