"""The serving subsystem: batched equivalence, scheduler, admission.

What must hold:

1. **Request semantics** — empty/duplicate/out-of-range/float id arrays
   behave identically (results *and* error messages) on the sequential
   path, the batched union path, and through the server.
2. **Batched equivalence** — ``forward_many`` / ``predict_nodes_batch``
   answer bit-identically to per-request calls; a bad request is
   rejected at submit with its own error without perturbing the batch
   its neighbours share.
3. **Server behavior** — concurrent queries through
   :class:`repro.serve.ModelServer` match sequential ``ModelHandle``
   answers bit-exactly; the micro-batcher actually coalesces; the
   bounded queue sheds load with :class:`ServerOverloaded`; stats
   report latency/throughput/batch shape; ``stop`` fails pending work
   instead of wedging callers.
4. **Zero-copy serving** — a bundle loaded mapped answers exactly like
   the heap load, and :class:`ProcessReplicaServer` replicas (each
   mapping the same replica) agree with the parent.  (Replica reuse,
   rebuilds and corruption: ``tests/test_archive.py``.)
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro import api
from repro.api import ConCHEstimator, ModelHandle, load_estimator
from repro.core import ConCHConfig
from repro.data import DBLPConfig, load_dataset, stratified_split
from repro.hin.cache import is_mmap_backed
from repro.serve import (
    ModelServer,
    ProcessReplicaServer,
    ServeClient,
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


@pytest.fixture(scope="module")
def heap_handle(bundle_path):
    return ModelHandle.from_estimator(load_estimator(bundle_path))


def request_mix(handle, count: int = 24):
    """A deterministic spread of request shapes (sizes 1..5, dups)."""
    rng = np.random.default_rng(7)
    requests = []
    for index in range(count):
        size = 1 + index % 5
        ids = rng.integers(0, handle.num_objects, size=size)
        if index % 3 == 0 and size > 1:
            ids[-1] = ids[0]  # guaranteed duplicate
        requests.append(ids.astype(np.int64))
    return requests


# ---------------------------------------------------------------------- #
# 1. Request semantics
# ---------------------------------------------------------------------- #


class TestRequestSemantics:
    def test_empty_request(self, handle):
        labels = handle.predict_nodes(np.array([], dtype=np.int64))
        assert labels.shape == (0,)
        proba = handle.predict_proba_nodes([])
        assert proba.shape == (0, handle.data.num_classes)

    def test_duplicates_answered_per_slot_in_input_order(self, handle):
        ids = np.array([5, 2, 5, 5, 2])
        labels = handle.predict_nodes(ids)
        assert labels.shape == (5,)
        assert labels[0] == labels[2] == labels[3]
        assert labels[1] == labels[4]
        unique = handle.predict_nodes(np.array([5, 2]))
        np.testing.assert_array_equal(labels, unique[[0, 1, 0, 0, 1]])

    def test_out_of_range_and_negative_raise_index_error(self, handle):
        message = f"node ids out of range [0, {handle.num_objects})"
        with pytest.raises(IndexError) as excinfo:
            handle.predict_nodes([0, handle.num_objects])
        assert str(excinfo.value) == message
        with pytest.raises(IndexError) as excinfo:
            handle.predict_nodes([-1])
        assert str(excinfo.value) == message

    def test_float_ids_raise_type_error(self, handle):
        with pytest.raises(TypeError, match="node ids must be integers"):
            handle.predict_nodes([1.5])

    def test_two_dimensional_input_is_flattened(self, handle):
        grid = np.array([[0, 1], [2, 3]])
        np.testing.assert_array_equal(
            handle.predict_nodes(grid), handle.predict_nodes([0, 1, 2, 3])
        )


# ---------------------------------------------------------------------- #
# 2. Batched (union-slice) equivalence
# ---------------------------------------------------------------------- #


class TestBatchedEquivalence:
    def test_predict_nodes_batch_matches_sequential_bit_exactly(self, handle):
        requests = request_mix(handle)
        requests.append(np.array([], dtype=np.int64))
        batched = handle.predict_nodes_batch(requests)
        for ids, answer in zip(requests, batched):
            np.testing.assert_array_equal(answer, handle.predict_nodes(ids))

    def test_proba_batch_matches_sequential_to_the_ulp(self, handle):
        """Labels are bit-exact; probabilities agree to ~1 ulp — BLAS
        picks different blocking for different union-slice shapes, the
        same tolerance standard the full-forward conformance suite uses
        (`test_api_estimators.test_predict_nodes_matches_full_forward`)."""
        requests = request_mix(handle, count=8)
        batched = handle.predict_proba_nodes_batch(requests)
        for ids, answer in zip(requests, batched):
            np.testing.assert_allclose(
                answer, handle.predict_proba_nodes(ids),
                rtol=1e-12, atol=1e-14,
            )

    def test_single_request_through_batch_path_is_bit_exact(self, handle):
        """With one request the union IS the request: no shape change,
        so even the float payloads are bit-identical."""
        ids = np.array([5, 2, 5])
        np.testing.assert_array_equal(
            handle.forward_many([ids])[0], handle._sliced_forward(ids)
        )

    def test_forward_many_rejects_any_invalid_request(self, handle):
        with pytest.raises(IndexError):
            handle.forward_many([np.array([0]), np.array([10 ** 9])])


# ---------------------------------------------------------------------- #
# 3. The micro-batching server
# ---------------------------------------------------------------------- #


class TestModelServer:
    def test_concurrent_queries_bit_identical_to_sequential(self, handle):
        requests = request_mix(handle, count=40)
        expected = [handle.predict_nodes(ids) for ids in requests]
        results: dict = {}
        with ModelServer(
            handle, max_batch_size=16, max_wait_ms=10, num_workers=2
        ) as server:
            client = ServeClient(server)

            def issue(index):
                results[index] = client.predict_nodes(requests[index])

            threads = [
                threading.Thread(target=issue, args=(i,))
                for i in range(len(requests))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            stats = server.stats()
        for index, answer in results.items():
            np.testing.assert_array_equal(answer, expected[index])
        assert stats["answered"] == len(requests)
        assert stats["failed"] == 0

    def test_scheduler_actually_coalesces(self, handle):
        requests = request_mix(handle, count=32)
        with ModelServer(
            handle, max_batch_size=16, max_wait_ms=100, num_workers=1
        ) as server:
            client = ServeClient(server)
            answers = client.predict_many(requests)
            stats = server.stats()
        assert len(answers) == len(requests)
        # All 32 were submitted before any result was awaited, so the
        # scheduler must have formed multi-request batches.
        assert stats["batches"] < stats["answered"]
        assert stats["batch_size_max"] > 1

    def test_mixed_label_and_proba_requests_in_one_server(self, handle):
        with ModelServer(handle, max_wait_ms=20) as server:
            label_future = server.submit(np.array([4, 4, 9]))
            proba_future = server.submit(np.array([4, 9]), proba=True)
            np.testing.assert_array_equal(
                label_future.result(10.0), handle.predict_nodes([4, 4, 9])
            )
            np.testing.assert_array_equal(
                proba_future.result(10.0), handle.predict_proba_nodes([4, 9])
            )

    def test_submit_validates_with_the_handle_error_messages(self, handle):
        with ModelServer(handle) as server:
            with pytest.raises(IndexError) as excinfo:
                server.submit([handle.num_objects])
            assert str(excinfo.value) == (
                f"node ids out of range [0, {handle.num_objects})"
            )
            with pytest.raises(TypeError, match="node ids must be integers"):
                server.submit([0.25])
            # Rejected requests never count as admitted.
            assert server.stats()["requests"] == 0

    def test_invalid_requests_leave_their_batch_untouched(self, handle):
        """Per-request isolation: bad requests interleaved with good ones
        are rejected at submit with their own errors, and the good ones
        (labels and proba) still share one batch and answer exactly."""
        with ModelServer(handle, max_wait_ms=200, num_workers=1) as server:
            labels = server.submit(np.array([3, 3]))
            with pytest.raises(IndexError) as excinfo:
                server.submit(np.array([handle.num_objects + 5]))
            assert str(excinfo.value) == (
                f"node ids out of range [0, {handle.num_objects})"
            )
            proba = server.submit(np.array([1]), proba=True)
            with pytest.raises(TypeError):
                server.submit(np.array([0.5]))
            np.testing.assert_array_equal(
                labels.result(10.0), handle.predict_nodes([3, 3])
            )
            np.testing.assert_allclose(
                proba.result(10.0), handle.predict_proba_nodes([1]),
                rtol=1e-12, atol=1e-14,
            )
            stats = server.stats()
        assert stats["requests"] == stats["answered"] == 2
        assert stats["batches"] == 1

    def test_bounded_queue_sheds_load(self, handle):
        server = ModelServer(
            handle, max_batch_size=1, max_wait_ms=0, max_queue=2,
            num_workers=1,
        )
        original_serve = server._serve_batch

        def slow_serve(*args, **kwargs):
            time.sleep(0.15)
            return original_serve(*args, **kwargs)

        server._serve_batch = slow_serve
        admitted = []
        shed = 0
        with server:
            for _ in range(12):
                try:
                    admitted.append(server.submit(np.array([1])))
                except ServerOverloaded:
                    shed += 1
            answers = [future.result(30.0) for future in admitted]
        assert shed > 0, "a 2-slot queue fed 12 instant submits must shed"
        assert server.stats()["shed"] == shed
        expected = handle.predict_nodes([1])
        for answer in answers:  # everything admitted was still answered
            np.testing.assert_array_equal(answer, expected)

    def test_client_retries_after_shed(self, handle):
        server = ModelServer(
            handle, max_batch_size=4, max_wait_ms=0, max_queue=1,
            num_workers=1,
        )
        original_serve = server._serve_batch

        def slow_serve(*args, **kwargs):
            time.sleep(0.05)
            return original_serve(*args, **kwargs)

        server._serve_batch = slow_serve
        with server:
            client = ServeClient(server, retries=50, backoff_s=0.02)
            answers = client.predict_many(
                [np.array([i % handle.num_objects]) for i in range(8)]
            )
        assert len(answers) == 8
        # The tiny queue forced at least one retry, and none were lost.
        assert client.retried > 0
        assert client.dropped == 0

    def test_stats_shape(self, handle):
        with ModelServer(handle, max_wait_ms=1) as server:
            server.predict_nodes([3])
            stats = server.stats()
        assert stats["requests"] == stats["answered"] == 1
        assert stats["batches"] == 1
        assert stats["throughput_rps"] > 0
        assert set(stats["latency_seconds"]) == {"mean", "p50", "p95", "max"}
        assert stats["latency_seconds"]["max"] >= stats["latency_seconds"]["p50"]

    def test_submit_before_start_raises(self, handle):
        server = ModelServer(handle)
        with pytest.raises(RuntimeError, match="not running"):
            server.submit([0])


# ---------------------------------------------------------------------- #
# 4. Zero-copy serving
# ---------------------------------------------------------------------- #


class TestMappedBundles:
    def test_mapped_handle_matches_heap_handle_bit_exactly(
        self, handle, heap_handle
    ):
        assert all(is_mmap_backed(op) for op in handle._operators)
        ids = np.arange(handle.num_objects)
        np.testing.assert_array_equal(
            handle.predict_nodes(ids), heap_handle.predict_nodes(ids)
        )
        np.testing.assert_array_equal(
            handle.predict_proba_nodes([0, 3, 3]),
            heap_handle.predict_proba_nodes([0, 3, 3]),
        )

    def test_process_server_sheds_beyond_max_queue(self, bundle_path):
        """Admission control is ModelServer's: queued requests are
        bounded; overflow sheds instead of growing without bound."""
        server = ProcessReplicaServer(
            bundle_path, replicas=1, max_batch_size=1, max_wait_ms=0,
            max_queue=1,
        )
        entered = threading.Event()
        release = threading.Event()
        original_serve = server._serve_batch

        def held_serve(*args, **kwargs):
            entered.set()
            release.wait(30.0)
            return original_serve(*args, **kwargs)

        server._serve_batch = held_serve
        with server:
            claimed = server.submit([0])        # the worker holds this one
            assert entered.wait(60.0)
            queued = server.submit([1])         # fills the one queue slot
            with pytest.raises(ServerOverloaded):
                server.submit([2])
            release.set()
            np.testing.assert_array_equal(
                claimed.result(60.0), server.handle.predict_nodes([0])
            )
            np.testing.assert_array_equal(
                queued.result(60.0), server.handle.predict_nodes([1])
            )
            assert server.stats()["shed"] == 1

    def test_process_replica_server_matches_parent(self, bundle_path, handle):
        requests = request_mix(handle, count=6)
        expected = [handle.predict_nodes(ids) for ids in requests]
        with ProcessReplicaServer(
            bundle_path, replicas=2, max_wait_ms=5
        ) as server:
            futures = [server.submit(ids) for ids in requests]
            answers = [future.result(120.0) for future in futures]
            proba = server.predict_proba_nodes(requests[0], timeout=120.0)
            with pytest.raises(IndexError, match="node ids out of range"):
                server.submit([handle.num_objects])
        for answer, reference in zip(answers, expected):
            np.testing.assert_array_equal(answer, reference)
        np.testing.assert_array_equal(
            proba, handle.predict_proba_nodes(requests[0])
        )
