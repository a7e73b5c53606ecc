"""Runtime thread-sanitizer tests: real load, seeded races, inversions.

Three layers of evidence:

1. **Detectors work** — seeded violations (an unguarded container
   access, an A→B/B→A lock-order inversion, a non-reentrant
   re-acquisition) each produce exactly the report kind they should.
   Without these negative tests a silently broken sanitizer would make
   the stress tests below meaningless.
2. **The serving tier is clean under load** — a real
   :class:`repro.serve.ModelServer` (fit on the tiny DBLP generator) is
   instrumented and driven by 8 submitter threads racing ``stats()``
   readers; an instrumented :class:`LRUByteCache` with a tiny budget is
   hammered by 8 threads forcing constant eviction.  Zero reports.
3. **Static and dynamic tiers agree** — both are driven by the same
   ``# guarded-by:`` annotations (see ``test_analysis_rules``), so a
   class the static rule accepts is exactly what the tracer instruments.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro import api
from repro.analysis.sanitizer import (
    GuardedDict,
    GuardedOrderedDict,
    RaceReport,
    ThreadSanitizer,
    TracedLock,
    instrument,
)
from repro.api import ConCHEstimator, ModelHandle
from repro.core import ConCHConfig
from repro.data import DBLPConfig, load_dataset, stratified_split
from repro.hin.cache import LRUByteCache
from repro.serve import ModelServer

THREADS = 8


class _GuardedBase:
    def __init__(self):
        self._lock = threading.Lock()
        self._items = {}  # guarded-by: _lock


class _GuardedChild(_GuardedBase):
    def __init__(self):
        super().__init__()
        self._extra = {}  # guarded-by: _lock


def run_threads(count, target):
    """Run ``target(index)`` on ``count`` threads, re-raising failures."""
    errors = []

    def wrapped(index):
        try:
            target(index)
        except BaseException as exc:  # pragma: no cover - debug aid
            errors.append(exc)

    threads = [
        threading.Thread(target=wrapped, args=(i,), name=f"stress-{i}")
        for i in range(count)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


# ---------------------------------------------------------------------- #
# 1. Detector negative tests (seeded violations MUST be caught)
# ---------------------------------------------------------------------- #


class TestDetectors:
    def test_unguarded_container_access_is_reported(self):
        sanitizer = ThreadSanitizer()
        cache = LRUByteCache(budget=1 << 20)
        instrument(sanitizer, cache)

        cache.put("key", b"x" * 64)  # via guarded methods: clean
        assert sanitizer.reports == []

        cache._entries.get("key")  # deliberate raw touch, no lock held
        kinds = [r.kind for r in sanitizer.reports]
        assert kinds == ["unguarded-access"]
        assert "_entries" in sanitizer.reports[0].message

    def test_unguarded_write_from_foreign_thread_is_reported(self):
        # The ISSUE's seeded-race scenario: a thread mutating guarded
        # state without taking the lock first.
        sanitizer = ThreadSanitizer()
        cache = LRUByteCache(budget=1 << 20)
        instrument(sanitizer, cache)

        def racy(_index):
            cache._entries["rogue"] = object()

        run_threads(1, racy)
        assert any(r.kind == "unguarded-access" for r in sanitizer.reports)
        with pytest.raises(AssertionError, match="unguarded-access"):
            sanitizer.assert_clean()

    def test_lock_order_inversion_is_reported(self):
        sanitizer = ThreadSanitizer()
        lock_a = TracedLock(sanitizer, threading.Lock(), name="engine._lock")
        lock_b = TracedLock(sanitizer, threading.Lock(), name="server._lock")

        def forward(_index):
            with lock_a:
                with lock_b:
                    pass

        def backward(_index):
            with lock_b:
                with lock_a:
                    pass

        run_threads(1, forward)
        run_threads(1, backward)
        inversions = [
            r for r in sanitizer.reports if r.kind == "lock-order-inversion"
        ]
        assert len(inversions) == 1
        assert "engine._lock" in inversions[0].message
        assert "server._lock" in inversions[0].message

    def test_consistent_order_is_clean(self):
        sanitizer = ThreadSanitizer()
        lock_a = TracedLock(sanitizer, threading.Lock(), name="A")
        lock_b = TracedLock(sanitizer, threading.Lock(), name="B")

        def forward(_index):
            for _ in range(50):
                with lock_a:
                    with lock_b:
                        pass

        run_threads(4, forward)
        sanitizer.assert_clean()

    def test_nonreentrant_reacquisition_is_reported(self):
        sanitizer = ThreadSanitizer()
        lock = TracedLock(sanitizer, threading.Lock(), name="plain")
        lock.acquire()
        try:
            assert lock.acquire(blocking=False) is False
        finally:
            lock.release()
        assert [r.kind for r in sanitizer.reports] == ["self-deadlock"]

    def test_rlock_reacquisition_is_fine(self):
        sanitizer = ThreadSanitizer()
        lock = TracedLock(sanitizer, threading.RLock(), name="reentrant")
        with lock:
            with lock:
                pass
        sanitizer.assert_clean()

    def test_traced_lock_never_double_wraps(self):
        sanitizer = ThreadSanitizer()
        inner = threading.Lock()
        once = TracedLock(sanitizer, inner, name="x")
        twice = TracedLock(sanitizer, once, name="x")
        assert twice.inner is inner

    def test_instrument_is_idempotent(self):
        sanitizer = ThreadSanitizer()
        cache = LRUByteCache(budget=1 << 20)
        first = instrument(sanitizer, cache)
        second = instrument(sanitizer, cache)
        assert first["_lock"] is second["_lock"]
        assert isinstance(cache._entries, GuardedOrderedDict)

    def test_instrument_covers_inherited_guards(self):
        # A subclass instance (ProcessReplicaServer is a ModelServer) is
        # traced for its base classes' annotations as well as its own.
        sanitizer = ThreadSanitizer()
        child = _GuardedChild()
        instrument(sanitizer, child)
        assert isinstance(child._items, GuardedDict)
        assert isinstance(child._extra, GuardedDict)

    def test_guarded_dict_checks_reads_and_writes(self):
        sanitizer = ThreadSanitizer()
        lock = TracedLock(sanitizer, threading.Lock(), name="guard")
        proxy = GuardedDict({"a": 1})
        proxy._trace_with(sanitizer, lock, "obj.attr")

        with lock:
            proxy["b"] = 2
            assert proxy["a"] == 1
        assert sanitizer.reports == []

        _ = proxy["b"]
        proxy["c"] = 3
        kinds = {r.kind for r in sanitizer.reports}
        assert kinds == {"unguarded-access"}
        assert len(sanitizer.reports) == 2


# ---------------------------------------------------------------------- #
# 2. Cache stress: 8 threads forcing constant eviction, zero reports
# ---------------------------------------------------------------------- #


class TestCacheStress:
    def test_concurrent_eviction_is_clean(self):
        sanitizer = ThreadSanitizer()
        evicted = []
        # Budget fits only ~4 of the 64-byte payloads: every put evicts.
        cache = LRUByteCache(
            budget=4 * 256, on_evict=lambda key, value: evicted.append(key)
        )
        instrument(sanitizer, cache)

        def hammer(index):
            rng = np.random.default_rng(index)
            for step in range(200):
                key = (index, step % 13)
                cache.put(key, bytes(rng.integers(0, 255, 64, np.uint8)))
                cache.get((index, int(rng.integers(0, 13))))
                if step % 17 == 0:
                    cache.discard(key)
                if step % 29 == 0:
                    cache.stats()
                    len(cache)

        run_threads(THREADS, hammer)
        sanitizer.assert_clean()
        assert evicted, "budget was sized to force evictions"
        stats = cache.stats()
        assert stats["evictions"] == len(evicted)
        assert stats["resident_bytes"] <= 4 * 256


# ---------------------------------------------------------------------- #
# 3. Server stress: real ModelServer load under instrumentation
# ---------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def handle(tmp_path_factory):
    data = load_dataset(
        "dblp",
        config=DBLPConfig(num_authors=80, num_papers=250, num_conferences=8),
    )
    config = ConCHConfig(
        k=3,
        num_layers=2,
        context_dim=8,
        embed_num_walks=2,
        embed_walk_length=8,
        embed_epochs=1,
        epochs=8,
        patience=5,
    )
    split = stratified_split(data.labels, 0.2, seed=0)
    estimator = ConCHEstimator(
        api.Pipeline(data, config=config).data, config
    ).fit(split)
    path = tmp_path_factory.mktemp("bundle") / "conch.npz"
    estimator.save(path)
    return ModelHandle.load(path)


class TestServerStress:
    def test_model_server_under_load_is_clean(self, handle):
        sanitizer = ThreadSanitizer()
        server = ModelServer(
            handle, max_batch_size=16, max_wait_ms=1.0, num_workers=2
        )
        instrument(sanitizer, server)
        server.start()
        try:
            expected = {}

            def drive(index):
                rng = np.random.default_rng(index)
                futures = []
                for _ in range(25):
                    ids = rng.integers(
                        0, handle.num_objects, size=1 + int(rng.integers(0, 5))
                    ).astype(np.int64)
                    futures.append((ids, server.submit(ids)))
                    if len(futures) % 7 == 0:
                        server.stats()  # reader racing the workers
                answers = [
                    (ids, future.result(timeout=30.0))
                    for ids, future in futures
                ]
                expected[index] = answers

            run_threads(THREADS, drive)
        finally:
            server.stop()

        sanitizer.assert_clean()
        stats = server.stats()
        assert stats["requests"] == THREADS * 25
        assert stats["answered"] == THREADS * 25
        assert stats["failed"] == 0
        # Instrumentation must not perturb answers: every future matches
        # the sequential handle bit-exactly.
        for answers in expected.values():
            for ids, labels in answers:
                np.testing.assert_array_equal(
                    labels, handle.predict_nodes(ids)
                )

    def test_seeded_unguarded_server_write_is_detected(self, handle):
        # Negative twin of the stress test: prove the instrumentation
        # actually watches ModelServer state, not just the cache.
        sanitizer = ThreadSanitizer()
        server = ModelServer(handle, max_wait_ms=0.5)
        instrument(sanitizer, server)
        server.start()
        try:
            def rogue(_index):
                server._counters["requests"] += 1  # no lock: a real race

            run_threads(1, rogue)
        finally:
            server.stop()
        unguarded = [
            r for r in sanitizer.reports if r.kind == "unguarded-access"
        ]
        assert unguarded
        assert "_counters" in unguarded[0].message
        assert "ModelServer._lock" in unguarded[0].message
