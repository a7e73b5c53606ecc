"""Serving lifecycle: stop/submit races, restart guards, frozen clocks.

Both server classes share one scheduler, so every lifecycle test runs
under both executors (in-thread workers and replica processes).  What
must hold (the bugs this file pins down stayed fixed):

1. **No stranded callers** — a ``submit`` racing ``stop()`` on either
   server class always resolves its future (answer or error) instead of
   leaving the caller blocked forever; a sanitizer-instrumented stress
   run sees zero stranded futures and zero lock-discipline findings.
2. **Idempotent teardown** — ``stop()`` is safe on a never-started
   server (no ``AttributeError`` from a ``None`` request queue) and
   safe to call twice on both classes.
3. **Honest telemetry** — ``uptime_seconds`` / ``throughput_rps``
   freeze at the stop timestamp instead of decaying toward zero on a
   stopped server.
4. **Restart safety** — ``start()`` after ``stop()`` works once the old
   workers exited, and is *refused* while a wedged worker from the
   previous run could still serve the shared queue.
5. **Elastic replicas** — ``ProcessReplicaServer.scale_to`` grows and
   shrinks the live pool without disturbing in-flight correctness, and
   a replica process that dies fails only the batch in hand and
   retires its worker.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro import api
from repro.analysis.sanitizer import ThreadSanitizer, instrument
from repro.api import ConCHEstimator, ModelHandle
from repro.core import ConCHConfig
from repro.data import DBLPConfig, load_dataset, stratified_split
from repro.serve import ModelServer, ProcessReplicaServer, ServerOverloaded


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


def resolve_all(futures, timeout: float = 10.0) -> int:
    """Resolve every future; return how many were stranded (timed out)."""
    stranded = 0
    for future in futures:
        try:
            future.result(timeout=timeout)
        except TimeoutError:
            stranded += 1
        except RuntimeError:
            pass  # "server stopped" is a *resolved* future — the point
    return stranded


# ---------------------------------------------------------------------- #
# Lifecycle of the one scheduler, under both executors
# ---------------------------------------------------------------------- #


@pytest.fixture(params=["thread", "replica"])
def make_server(request, handle, bundle_path):
    """Build a server of either executor; ``num_workers`` maps to the
    replica count for :class:`ProcessReplicaServer`."""

    def make(num_workers=1, **kwargs):
        if request.param == "thread":
            return ModelServer(handle, num_workers=num_workers, **kwargs)
        return ProcessReplicaServer(
            bundle_path, replicas=num_workers, **kwargs
        )

    return make


def join_workers(server, timeout: float = 30.0) -> None:
    for worker in list(server._workers):
        worker.thread.join(timeout)
        assert not worker.thread.is_alive(), "worker never exited"


class TestServerLifecycle:
    def test_stop_never_started_and_twice(self, make_server):
        server = make_server()
        server.stop()  # regression: used to AttributeError on None queue
        server.stop()  # idempotent
        stats = server.stats()
        assert stats["running"] is False
        assert stats["uptime_seconds"] == 0.0
        assert stats["throughput_rps"] == 0.0
        with pytest.raises(RuntimeError, match="not running"):
            server.submit([0])

    def test_stop_twice_after_running(self, make_server):
        server = make_server(max_wait_ms=0).start()
        assert server.predict_nodes([1], timeout=60.0).shape == (1,)
        server.stop()
        server.stop()
        with pytest.raises(RuntimeError, match="not running"):
            server.submit([1])

    def test_telemetry_freezes_at_stop(self, make_server):
        server = make_server(max_wait_ms=0).start()
        for _ in range(3):
            server.predict_nodes([2, 3], timeout=60.0)
        server.stop()
        first = server.stats()
        time.sleep(0.05)
        second = server.stats()
        # The clock froze at stop: neither uptime nor throughput drifts.
        assert first["uptime_seconds"] == second["uptime_seconds"]
        assert first["throughput_rps"] == second["throughput_rps"]
        assert second["uptime_seconds"] > 0.0
        assert second["throughput_rps"] > 0.0

    def test_restart_after_clean_stop(self, make_server):
        server = make_server(max_wait_ms=0)
        with server:
            before = server.predict_nodes([5], timeout=60.0)
        server.start()
        try:
            after = server.predict_nodes([5], timeout=60.0)
        finally:
            server.stop()
        np.testing.assert_array_equal(before, after)

    def test_restart_refused_while_old_worker_wedged(
        self, make_server, handle
    ):
        server = make_server(max_wait_ms=0)
        entered = threading.Event()
        release = threading.Event()
        original = server._serve_batch

        def wedged(*args, **kwargs):
            entered.set()
            release.wait(30.0)
            return original(*args, **kwargs)

        server._serve_batch = wedged
        server.start()
        try:
            future = server.submit([1])
            assert entered.wait(60.0)
            server.stop(timeout=0.05)  # the worker is wedged mid-batch
            with pytest.raises(RuntimeError, match="still alive"):
                server.start()
        finally:
            release.set()
        # The wedged worker finishes its claimed batch: the caller that
        # raced the stop still gets a real answer, not a stranded future.
        np.testing.assert_array_equal(
            future.result(timeout=60.0),
            handle.predict_nodes(np.array([1])),
        )
        join_workers(server)
        server.start()  # now legal: the previous generation is gone
        try:
            assert server.predict_nodes([1], timeout=60.0).shape == (1,)
        finally:
            server.stop()

    def test_submit_racing_stop_fails_fast(self, make_server):
        # Deterministic pin of the stranded-caller race: the stop flag
        # flips after submit's running-check but before the request
        # rides the queue, with no worker left to claim it — the
        # post-put re-check must fail the straggler instead of leaving
        # it queued forever.
        server = make_server(max_wait_ms=0).start()
        try:
            assert server.predict_nodes([1], timeout=60.0).shape == (1,)
            server._stop.set()
            join_workers(server)
            future = server.submit([2])
            with pytest.raises(RuntimeError, match="server stopped"):
                future.result(timeout=10.0)
        finally:
            server.stop()

    def test_stop_vs_submit_stress_no_stranded_futures(self, make_server):
        sanitizer = ThreadSanitizer()
        for round_index in range(3):
            server = make_server(
                max_batch_size=8,
                max_wait_ms=0.5,
                max_queue=64,
                num_workers=2,
            )
            instrument(sanitizer, server)
            server.start()
            # One answered round trip proves the workers are serving
            # before the stress begins (replicas boot slowly).
            assert server.predict_nodes([1], timeout=60.0).shape == (1,)
            futures: list = []
            futures_lock = threading.Lock()
            halt = threading.Event()

            def submitter():
                while not halt.is_set():
                    try:
                        future = server.submit([1, 2, 3])
                    except ServerOverloaded:
                        continue
                    except RuntimeError:
                        break  # server stopped: expected terminal state
                    with futures_lock:
                        futures.append(future)

            threads = [
                threading.Thread(target=submitter, daemon=True)
                for _ in range(4)
            ]
            for thread in threads:
                thread.start()
            time.sleep(0.02 + 0.02 * round_index)  # vary the race window
            server.stop(timeout=30.0)
            halt.set()
            for thread in threads:
                thread.join(10.0)
            assert not any(t.is_alive() for t in threads)
            assert futures, "stress round submitted nothing"
            assert resolve_all(futures) == 0
        sanitizer.assert_clean()


# ---------------------------------------------------------------------- #
# Elastic replica pool
# ---------------------------------------------------------------------- #


class TestReplicaPool:
    def test_scale_to_grows_and_shrinks_live(self, bundle_path):
        with ProcessReplicaServer(
            bundle_path, replicas=1, max_wait_ms=1
        ) as server:
            expected = server.handle.predict_nodes(np.array([3, 4]))
            np.testing.assert_array_equal(
                server.predict_nodes([3, 4], timeout=60.0), expected
            )
            server.scale_to(2)
            deadline = time.monotonic() + 60.0
            while server.live_replicas() != 2:
                assert time.monotonic() < deadline, "scale-up never landed"
                time.sleep(0.05)
            server.scale_to(1)  # retires the newest pair after its batch
            deadline = time.monotonic() + 60.0
            while server.live_replicas() != 1:
                assert time.monotonic() < deadline, "scale-down never landed"
                time.sleep(0.05)
            np.testing.assert_array_equal(
                server.predict_nodes([3, 4], timeout=60.0), expected
            )
            stats = server.stats()
            assert stats["scale_ups"] == 1
            assert stats["scale_downs"] == 1
            assert stats["replicas"] == 1

    def test_lost_replica_fails_its_batch_and_retires_its_worker(
        self, bundle_path
    ):
        with ProcessReplicaServer(
            bundle_path, replicas=2, max_wait_ms=0
        ) as server:
            expected = server.handle.predict_nodes(np.array([3]))
            np.testing.assert_array_equal(
                server.predict_nodes([3], timeout=60.0), expected
            )
            victim = server._workers[0].handle.process
            victim.kill()
            victim.join(10.0)
            failures = 0
            deadline = time.monotonic() + 60.0
            while server.live_replicas() != 1:
                assert time.monotonic() < deadline, "lost replica kept serving"
                try:
                    answer = server.predict_nodes([3], timeout=60.0)
                except RuntimeError as exc:
                    assert "replica process exited" in str(exc)
                    failures += 1
                else:
                    np.testing.assert_array_equal(answer, expected)
            # Only the batch in hand when the loss surfaced fails; the
            # survivor answers everything after it.
            assert failures <= 1
            for _ in range(5):
                np.testing.assert_array_equal(
                    server.predict_nodes([3], timeout=60.0), expected
                )
            assert server.stats()["replicas"] == 1
