"""Cache-management subsystem: LRU budget, disk store, weak registry.

Four properties of :mod:`repro.hin.cache` + the engine integration:

1. **Eviction equivalence** — for random small HINs and meta-paths,
   every engine view computed under ``memory_budget=0`` (evict
   everything), a tiny budget, and an unlimited budget is bit-exact
   equal; eviction changes recomposition counts, never semantics.
2. **Disk-store round trips** — an engine over a warm store reloads
   identical CSR matrices and composes zero products (including through
   ``prepare_conch_data``); mutating the HIN changes the content hash so
   stale files are never served; a corrupt product file is recomposed
   and rewritten.  (The archive format's own corruption and staleness
   contracts live in ``tests/test_archive.py``.)
3. **LRU accounting** — deterministic access sequences produce the
   expected eviction order, ``stats()`` counters match by exact count,
   and resident bytes never exceed the budget after any operation.
4. **Weak engine registry** — dropping the last reference to a HIN
   releases its engine (and everything the engine pinned);
   ``release_engine`` does so explicitly.

All disk-store tests route writes through pytest ``tmp_path`` fixtures,
and the repo-level ``conftest.py`` strips ``REPRO_CACHE_DIR`` for every
test, so CI never touches a shared cache directory.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

from repro.hin import HIN, MetaPath
from repro.hin.cache import (
    LRUByteCache,
    ProductStore,
    nbytes_of,
)
from repro.hin.context import enumerate_contexts
from repro.hin.engine import CommutingEngine, get_engine, release_engine
from repro.hin.io import hin_content_hash

APA = MetaPath.parse("APA")
APCPA = MetaPath.parse("APCPA")
APAPA = MetaPath.parse("APAPA")


def dblp_like_hin(seed: int = 0) -> HIN:
    """Small random A/P/C network supporting APA, APCPA, APAPA."""
    rng = np.random.default_rng(seed)
    hin = HIN("fixture")
    hin.add_node_type("A", 20)
    hin.add_node_type("P", 40)
    hin.add_node_type("C", 5)
    hin.add_edges(
        "writes", "A", "P",
        rng.integers(0, 20, size=80),
        rng.integers(0, 40, size=80),
    )
    hin.add_edges(
        "published_in", "P", "C",
        np.arange(40),
        rng.integers(0, 5, size=40),
    )
    return hin


def assert_csr_identical(left: sp.spmatrix, right: sp.spmatrix) -> None:
    """Bit-exact CSR equality: structure and values."""
    left, right = sp.csr_matrix(left), sp.csr_matrix(right)
    left.sort_indices()
    right.sort_indices()
    assert left.shape == right.shape
    np.testing.assert_array_equal(left.indptr, right.indptr)
    np.testing.assert_array_equal(left.indices, right.indices)
    np.testing.assert_array_equal(left.data, right.data)


# ---------------------------------------------------------------------- #
# 1. Eviction equivalence
# ---------------------------------------------------------------------- #


class TestEvictionEquivalence:
    BUDGETS = (0, 4096, None)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("budget", BUDGETS)
    def test_every_view_bit_exact_under_eviction(self, seed, budget):
        hin = dblp_like_hin(seed)
        reference = CommutingEngine(hin)  # unlimited, no disk
        engine = CommutingEngine(hin, memory_budget=budget)
        rng = np.random.default_rng(seed)
        n = hin.num_nodes("A")
        pairs = np.stack(
            [rng.integers(0, n, size=30), rng.integers(0, n, size=30)], axis=1
        )
        for metapath in (APA, APCPA, APAPA):
            # Interleave accesses so eviction happens mid-stream.
            for _ in range(2):
                assert_csr_identical(
                    engine.counts(metapath), reference.counts(metapath)
                )
                assert_csr_identical(
                    engine.counts(metapath, remove_self_paths=True),
                    reference.counts(metapath, remove_self_paths=True),
                )
                assert_csr_identical(
                    engine.counts(metapath, max_count=2.0),
                    reference.counts(metapath, max_count=2.0),
                )
                np.testing.assert_array_equal(
                    engine.diagonal(metapath), reference.diagonal(metapath)
                )
                assert_csr_identical(
                    engine.binary(metapath), reference.binary(metapath)
                )
                for measure in ("pathsim", "hetesim", "joinsim", "cosine"):
                    assert_csr_identical(
                        engine.similarity(metapath, measure),
                        reference.similarity(metapath, measure),
                    )
                for k in (1, 4):
                    got = engine.top_k(metapath, k)
                    want = reference.top_k(metapath, k)
                    assert len(got) == len(want)
                    for g, w in zip(got, want):
                        np.testing.assert_array_equal(g, w)
                np.testing.assert_array_equal(
                    engine.pathsim_pairs(metapath, pairs),
                    reference.pathsim_pairs(metapath, pairs),
                )
                np.testing.assert_array_equal(
                    engine.pair_counts(metapath, pairs),
                    reference.pair_counts(metapath, pairs),
                )
                for position in range(len(metapath.node_types) - 1):
                    assert_csr_identical(
                        engine.suffix_product(metapath, position),
                        reference.suffix_product(metapath, position),
                    )
                    np.testing.assert_array_equal(
                        engine.suffix_pair_keys(metapath, position),
                        reference.suffix_pair_keys(metapath, position),
                    )
        assert_csr_identical(engine.half(APCPA), reference.half(APCPA))
        if budget is not None:
            assert engine.stats()["resident_bytes"] <= budget

    @pytest.mark.parametrize("budget", BUDGETS)
    def test_context_kernel_bit_exact_under_eviction(self, budget):
        # Same-seed twin HINs so the registry engines are independent.
        budgeted_hin = dblp_like_hin(7)
        reference_hin = dblp_like_hin(7)
        get_engine(budgeted_hin, memory_budget=budget)
        rng = np.random.default_rng(7)
        pairs = np.stack(
            [rng.integers(0, 20, size=25), rng.integers(0, 20, size=25)], axis=1
        )
        for metapath in (APA, APCPA, APAPA):
            got = enumerate_contexts(budgeted_hin, metapath, pairs, 6)
            want = enumerate_contexts(reference_hin, metapath, pairs, 6)
            np.testing.assert_array_equal(got.pairs, want.pairs)
            np.testing.assert_array_equal(got.instance_ids, want.instance_ids)
            np.testing.assert_array_equal(got.indptr, want.indptr)
            np.testing.assert_array_equal(got.total_counts, want.total_counts)
            np.testing.assert_array_equal(got.truncated, want.truncated)

    def test_budget_zero_still_recomposes_correctly_after_warm_use(self):
        """Shrinking a warm engine's budget evicts but keeps answers exact."""
        hin = dblp_like_hin(4)
        engine = CommutingEngine(hin)
        warm = engine.similarity(APCPA, "pathsim").toarray()
        assert engine.stats()["resident_bytes"] > 0
        engine.set_memory_budget(0)
        assert engine.stats()["resident_bytes"] == 0
        np.testing.assert_array_equal(
            engine.similarity(APCPA, "pathsim").toarray(), warm
        )

    def test_eviction_changes_recomposition_counts_not_results(self):
        hin = dblp_like_hin(5)
        engine = CommutingEngine(hin, memory_budget=0)
        engine.counts(APCPA)
        first = len(engine.compose_log)
        engine.counts(APCPA)
        # Evict-everything really does recompose on the second access...
        assert len(engine.compose_log) > first
        unlimited = CommutingEngine(hin)
        unlimited.counts(APCPA)
        unlimited.counts(APCPA)
        # ...while the unlimited engine composes each key exactly once.
        assert len(unlimited.compose_log) == len(set(unlimited.compose_log))


# ---------------------------------------------------------------------- #
# 2. Disk-backed product store
# ---------------------------------------------------------------------- #


class TestProductStore:
    def test_wrong_hash_or_key_not_served(self, tmp_path):
        store = ProductStore(tmp_path)
        matrix = sp.csr_matrix(np.eye(3))
        store.save("hash-a", ("A", "P", "A"), matrix)
        assert store.load("hash-b", ("A", "P", "A")) is None
        assert store.load("hash-a", ("A", "P", "C")) is None

    def test_engine_round_trip_yields_identical_csr(self, tmp_path):
        hin = dblp_like_hin(0)
        first = CommutingEngine(hin, cache_dir=str(tmp_path))
        composed = first.counts(APCPA)
        assert first.spills > 0  # write-through at composition
        second = CommutingEngine(hin, cache_dir=str(tmp_path))
        reloaded = second.counts(APCPA)
        assert second.compose_log == []  # composed zero products
        assert second.disk_hits > 0
        assert_csr_identical(reloaded, composed)

    def test_mutation_changes_hash_so_stale_files_are_not_served(self, tmp_path):
        hin = dblp_like_hin(0)
        engine = CommutingEngine(hin, cache_dir=str(tmp_path))
        stale = engine.counts(APA).toarray()
        old_hash = hin_content_hash(hin)

        hin.add_edges("reviews", "A", "P", [0, 1, 2], [5, 6, 7])
        assert hin_content_hash(hin) != old_hash
        fresh = engine.counts(APA).toarray()
        assert engine.compose_log  # recomposed, not served from disk
        reference = CommutingEngine(hin)
        np.testing.assert_array_equal(fresh, reference.counts(APA).toarray())
        assert not np.array_equal(stale, fresh)

    def test_corrupt_engine_file_recomposed_and_rewritten(self, tmp_path):
        hin = dblp_like_hin(1)
        engine = CommutingEngine(hin, cache_dir=str(tmp_path))
        expected = engine.counts(APCPA).toarray()
        store = ProductStore(tmp_path)
        path = store.path_for(hin_content_hash(hin), ("A", "P", "C", "P", "A"))
        assert path.exists()
        path.write_bytes(b"corrupted beyond repair")

        recovered = CommutingEngine(hin, cache_dir=str(tmp_path))
        np.testing.assert_array_equal(recovered.counts(APCPA).toarray(), expected)
        assert recovered.compose_log  # had to recompose the corrupt entry
        # ... and the store is healthy again for the next consumer.
        third = CommutingEngine(hin, cache_dir=str(tmp_path))
        np.testing.assert_array_equal(third.counts(APCPA).toarray(), expected)
        assert third.compose_log == []

    def test_eviction_spills_to_disk_when_store_attached_late(self, tmp_path):
        hin = dblp_like_hin(2)
        engine = CommutingEngine(hin)  # no store yet
        engine.counts(APCPA)
        engine.set_cache_dir(str(tmp_path))
        spills_before = engine.spills
        engine.set_memory_budget(0)  # evicts everything resident
        assert engine.spills > spills_before
        # The spilled product now serves a fresh engine from disk.
        fresh = CommutingEngine(hin, cache_dir=str(tmp_path))
        fresh.counts(APCPA)
        assert ("A", "P", "C", "P", "A") not in fresh.compose_log

    def test_eviction_never_spills_stale_products_after_mutation(self, tmp_path):
        """Regression: a pre-mutation product must not be written under
        the post-mutation content hash when eviction fires without a
        sync (``set_cache_dir`` + ``set_memory_budget``)."""
        hin = dblp_like_hin(9)
        engine = CommutingEngine(hin)  # no store yet
        stale = engine.counts(APA).toarray()
        hin.add_edges("reviews", "A", "P", [0, 1, 2], [5, 6, 7])
        # No engine access between the mutation and the spill trigger:
        engine.set_cache_dir(str(tmp_path))
        engine.set_memory_budget(0)  # evicts the pre-mutation products

        fresh = CommutingEngine(hin, cache_dir=str(tmp_path))
        served = fresh.counts(APA).toarray()
        reference = CommutingEngine(hin)
        np.testing.assert_array_equal(served, reference.counts(APA).toarray())
        assert not np.array_equal(served, stale)

    def test_content_hash_is_instance_independent(self):
        assert hin_content_hash(dblp_like_hin(3)) == hin_content_hash(
            dblp_like_hin(3)
        )
        assert hin_content_hash(dblp_like_hin(3)) != hin_content_hash(
            dblp_like_hin(4)
        )

    def test_content_hash_covers_edge_weights(self):
        """Same structure, different edge values -> different hash (the
        disk store must never serve one weighting's products as the
        other's, even though today's loaders binarize)."""
        weighted = dblp_like_hin(3)
        weighted.relation_matrix("writes").data[:] = 2.0  # repro: ignore[delta-discipline]
        assert hin_content_hash(weighted) != hin_content_hash(dblp_like_hin(3))


class TestWarmDiskPrepare:
    def test_second_prepare_run_composes_zero_products(self, tmp_path):
        """Acceptance: warm-disk ``prepare_conch_data`` skips composition.

        Two independent loads of the same synthetic DBLP fixture share
        only the on-disk product store; the compose spy proves the second
        run multiplies no chains at all.
        """
        from repro.core import ConCHConfig
        from repro.core.trainer import prepare_conch_data
        from repro.data import DBLPConfig, load_dataset

        def load():
            return load_dataset(
                "dblp",
                config=DBLPConfig(
                    num_authors=60, num_papers=150, num_conferences=6
                ),
            )

        config = ConCHConfig(
            k=3, context_dim=8, max_instances=4,
            embed_num_walks=1, embed_walk_length=5, embed_epochs=1,
            cache_dir=str(tmp_path),
        )
        rng = np.random.default_rng(0)

        def fake_embeddings(hin):
            return {
                t: rng.normal(size=(hin.num_nodes(t), config.context_dim))
                for t in hin.node_types
            }

        cold_dataset = load()
        cold = prepare_conch_data(
            cold_dataset, config, embeddings=fake_embeddings(cold_dataset.hin)
        )
        assert cold.substrate_stats["composed_products"] > 0
        assert cold.substrate_stats["spills"] > 0

        warm_dataset = load()  # identical content, different instance
        assert hin_content_hash(warm_dataset.hin) == hin_content_hash(
            cold_dataset.hin
        )
        engine = get_engine(warm_dataset.hin)
        warm = prepare_conch_data(
            warm_dataset, config, embeddings=fake_embeddings(warm_dataset.hin)
        )
        assert engine.compose_log == []  # zero products composed from scratch
        assert warm.substrate_stats["composed_products"] == 0
        assert warm.substrate_stats["disk_hits"] > 0
        # Same substrate -> identical preprocessed incidence structures.
        for got, want in zip(warm.metapath_data, cold.metapath_data):
            assert_csr_identical(got.incidence, want.incidence)


# ---------------------------------------------------------------------- #
# 3. LRU accounting
# ---------------------------------------------------------------------- #


def _array_of(nbytes: int) -> np.ndarray:
    return np.zeros(nbytes, dtype=np.uint8)


class TestLRUAccounting:
    def test_deterministic_eviction_order(self):
        evicted = []
        cache = LRUByteCache(budget=300, on_evict=lambda k, v: evicted.append(k))
        cache.put("a", _array_of(100))
        cache.put("b", _array_of(100))
        cache.put("c", _array_of(100))
        assert evicted == []
        cache.get("a")  # freshen a: LRU order is now b, c, a
        cache.put("d", _array_of(100))
        assert evicted == ["b"]
        cache.put("e", _array_of(200))
        assert evicted == ["b", "c", "a"]
        assert set(cache.keys()) == {"d", "e"}

    def test_counters_match_exact_counts(self):
        cache = LRUByteCache(budget=250)
        assert cache.get("missing") is None
        cache.put("x", _array_of(100))
        cache.get("x")
        cache.get("x")
        cache.get("y")
        cache.put("z", _array_of(200))  # evicts x
        stats = cache.stats()
        assert stats["hits"] == 2
        assert stats["misses"] == 2
        assert stats["evictions"] == 1
        assert stats["resident_bytes"] == 200
        assert stats["entries"] == 1

    def test_resident_never_exceeds_budget_after_any_operation(self):
        rng = np.random.default_rng(0)
        budget = 500
        cache = LRUByteCache(budget=budget)
        shadow_max = 0
        for step in range(200):
            op = rng.integers(0, 3)
            key = int(rng.integers(0, 12))
            if op == 0:
                cache.put(key, _array_of(int(rng.integers(1, 400))))
            elif op == 1:
                cache.get(key)
            else:
                cache.discard(key)
            assert cache.resident_bytes <= budget
            shadow_max = max(shadow_max, cache.resident_bytes)
        assert shadow_max > 0  # the sequence exercised real residency

    def test_budget_zero_admits_nothing_but_returns_values(self):
        cache = LRUByteCache(budget=0)
        cache.put("a", _array_of(10))
        assert len(cache) == 0
        assert cache.resident_bytes == 0
        assert cache.evictions == 1

    def test_oversized_entry_evicted_immediately(self):
        cache = LRUByteCache(budget=50)
        cache.put("big", _array_of(100))
        assert "big" not in cache
        assert cache.resident_bytes == 0

    def test_shrinking_budget_evicts_eagerly(self):
        cache = LRUByteCache(budget=None)
        cache.put("a", _array_of(100))
        cache.put("b", _array_of(100))
        cache.budget = 100
        assert list(cache.keys()) == ["b"]  # LRU-first eviction
        assert cache.resident_bytes == 100

    def test_unevictable_and_zero_byte_entries_survive(self):
        cache = LRUByteCache(budget=100)
        cache.put("pinned", _array_of(80), evictable=False)
        cache.put("alias", object(), nbytes=0)
        cache.put("victim", _array_of(80))
        assert "pinned" in cache and "alias" in cache
        assert "victim" not in cache
        # Non-evictable residency may exceed the budget; nothing loops.
        cache.put("pinned2", _array_of(80), evictable=False)
        assert cache.resident_bytes == 160

    def test_replacing_an_entry_adjusts_residency(self):
        cache = LRUByteCache(budget=None)
        cache.put("k", _array_of(100))
        cache.put("k", _array_of(30))
        assert cache.resident_bytes == 30
        cache.discard("k")
        assert cache.resident_bytes == 0

    def test_rejects_negative_budget(self):
        with pytest.raises(ValueError):
            LRUByteCache(budget=-1)

    def test_nbytes_of_accounts_sparse_and_containers(self):
        matrix = sp.csr_matrix(np.eye(4))
        expected = (
            matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes
        )
        assert nbytes_of(matrix) == expected
        assert nbytes_of(np.zeros(10, dtype=np.float64)) == 80
        assert nbytes_of([np.zeros(4, dtype=np.uint8), np.zeros(6, dtype=np.uint8)]) == 10
        assert nbytes_of({"a": np.zeros(3, dtype=np.uint8)}) == 3
        assert nbytes_of(True) > 0

    def test_engine_stats_counters_are_exact(self):
        hin = dblp_like_hin(6)
        engine = CommutingEngine(hin)
        baseline = engine.stats()
        assert baseline["hits"] == baseline["misses"] == 0
        engine.counts(APA)   # miss: ("A","P","A") + the two len-2 aliases
        first = engine.stats()
        assert first["misses"] > 0 and first["hits"] == 0
        engine.counts(APA)   # pure hit
        second = engine.stats()
        assert second["hits"] == first["hits"] + 1
        assert second["misses"] == first["misses"]
        assert second["resident_bytes"] > 0
        assert second["evictions"] == 0
        engine.invalidate()
        cleared = engine.stats()
        assert cleared["hits"] == cleared["misses"] == 0
        assert cleared["resident_bytes"] == 0

    def test_engine_resident_bytes_respects_budget_during_pipeline(self):
        budget = 16 * 1024
        hin = dblp_like_hin(8)
        engine = CommutingEngine(hin, memory_budget=budget)
        for metapath in (APA, APCPA, APAPA):
            engine.similarity(metapath, "pathsim")
            assert engine.stats()["resident_bytes"] <= budget
            engine.top_k(metapath, 3)
            assert engine.stats()["resident_bytes"] <= budget
        assert engine.stats()["evictions"] > 0


# ---------------------------------------------------------------------- #
# 4. Weak engine registry
# ---------------------------------------------------------------------- #


class TestEngineRegistry:
    def test_engine_dies_with_its_hin(self):
        """Regression: the registry must not outlive-pin dropped HINs."""
        hin = dblp_like_hin(0)
        engine = get_engine(hin)
        engine.counts(APCPA)  # pin some real state
        engine_ref = weakref.ref(engine)
        hin_ref = weakref.ref(hin)
        del engine
        del hin
        gc.collect()  # engine <-> LRU callback form a cycle; collect it
        assert hin_ref() is None
        assert engine_ref() is None

    def test_directly_constructed_engine_pins_its_hin(self):
        """The pre-registry contract survives: an engine built from a
        temporary HIN keeps the graph alive for its own lifetime."""
        engine = CommutingEngine(dblp_like_hin(0))  # no other HIN ref
        gc.collect()
        assert engine.counts(APCPA).nnz > 0  # no ReferenceError

    def test_release_engine_forgets_the_shared_instance(self):
        hin = dblp_like_hin(0)
        first = get_engine(hin)
        release_engine(hin)
        second = get_engine(hin)
        assert second is not first
        release_engine(hin)  # idempotent on an absent entry

    def test_get_engine_is_shared_and_configurable(self):
        hin = dblp_like_hin(0)
        engine = get_engine(hin)
        assert get_engine(hin) is engine
        assert engine.memory_budget is None
        # Reconfiguring through get_engine touches the shared instance...
        assert get_engine(hin, memory_budget=1024) is engine
        assert engine.memory_budget == 1024
        # ...and omitting the knobs leaves it untouched.
        assert get_engine(hin).memory_budget == 1024


# ---------------------------------------------------------------------- #
# 5. Cost-aware eviction (GreedyDual-Size)
# ---------------------------------------------------------------------- #


class TestCostAwareEviction:
    def test_zero_costs_reproduce_exact_lru(self):
        """The historical policy is the cost=0 degenerate case."""
        evicted = []
        cache = LRUByteCache(budget=200, on_evict=lambda k, v: evicted.append(k))
        cache.put("a", _array_of(100))
        cache.put("b", _array_of(100))
        cache.get("a")
        cache.put("c", _array_of(100))  # b is LRU -> evicted
        assert evicted == ["b"]

    def test_expensive_entry_survives_cheap_recency(self):
        """A costly product outlives fresher cheap entries under pressure."""
        evicted = []
        cache = LRUByteCache(budget=300, on_evict=lambda k, v: evicted.append(k))
        cache.put("expensive", _array_of(100), cost=10.0)
        cache.put("cheap1", _array_of(100))
        cache.put("cheap2", _array_of(100))
        # Pure LRU would evict "expensive" (least recent); cost keeps it.
        cache.put("cheap3", _array_of(100))
        assert evicted == ["cheap1"]
        cache.put("cheap4", _array_of(100))
        assert evicted == ["cheap1", "cheap2"]
        assert "expensive" in cache

    def test_costly_entries_age_out_eventually(self):
        """GDS aging: the clock rises with evictions, so a stale costly
        entry cannot pin the cache forever."""
        cache = LRUByteCache(budget=200)
        cache.put("old-costly", _array_of(100), cost=5e-4)  # 5e-6 per byte
        survived_rounds = 0
        for round_id in range(8):
            cache.put(f"fresh{round_id}", _array_of(100), cost=2e-4)
            if "old-costly" in cache:
                survived_rounds = round_id + 1
        # It outlives several cheap generations (cost protection)...
        assert survived_rounds >= 3
        # ...but the eviction clock eventually catches up (aging).
        assert "old-costly" not in cache

    def test_engine_records_compose_costs(self):
        hin = dblp_like_hin(0)
        engine = get_engine(hin)
        engine.invalidate()
        engine.counts(APCPA)
        key = tuple(APCPA.node_types)
        assert key in engine.compose_seconds
        assert engine.compose_seconds[key] >= 0.0
        release_engine(hin)

    @pytest.mark.parametrize("budget", (0, 4096))
    def test_cost_weighting_stays_bit_exact_under_eviction(self, budget):
        """Cost-aware victim choice changes *what* is evicted, never the
        answers: every view matches the unlimited-budget engine."""
        hin = dblp_like_hin(3)
        reference = CommutingEngine(hin)
        budgeted = CommutingEngine(hin, memory_budget=budget)
        for metapath in (APA, APCPA, APAPA):
            assert_csr_identical(
                budgeted.counts(metapath), reference.counts(metapath)
            )
            assert_csr_identical(
                budgeted.similarity(metapath, "pathsim"),
                reference.similarity(metapath, "pathsim"),
            )


# ---------------------------------------------------------------------- #
# 6. Concurrent-writer dedupe (claim protocol)
# ---------------------------------------------------------------------- #


class TestClaimProtocol:
    KEY = ("A", "P", "C", "P", "A")

    def test_claim_is_exclusive_until_released(self, tmp_path):
        store = ProductStore(tmp_path)
        assert store.acquire_claim("hash", self.KEY)
        assert not store.acquire_claim("hash", self.KEY)
        store.release_claim("hash", self.KEY)
        assert store.acquire_claim("hash", self.KEY)
        store.release_claim("hash", self.KEY)

    def test_claims_are_per_product(self, tmp_path):
        store = ProductStore(tmp_path)
        assert store.acquire_claim("hash", self.KEY)
        assert store.acquire_claim("hash", ("A", "P", "A"))
        assert store.acquire_claim("other-hash", self.KEY)

    def test_stale_claim_is_broken(self, tmp_path):
        import os

        store = ProductStore(tmp_path, claim_ttl=10.0)
        assert store.acquire_claim("hash", self.KEY)
        claim = store.claim_path_for("hash", self.KEY)
        old = claim.stat().st_mtime - 60.0
        os.utime(claim, (old, old))
        assert store.acquire_claim("hash", self.KEY)  # broke the stale lease

    def test_wait_for_returns_product_written_by_holder(self, tmp_path):
        import threading

        hin = dblp_like_hin(1)
        matrix = CommutingEngine(hin).counts(APCPA)
        content_hash = hin_content_hash(hin)
        store = ProductStore(tmp_path)
        assert store.acquire_claim(content_hash, self.KEY)

        def writer():
            store.save(content_hash, self.KEY, matrix)
            store.release_claim(content_hash, self.KEY)

        timer = threading.Timer(0.15, writer)
        timer.start()
        try:
            waited = store.wait_for(content_hash, self.KEY, timeout=5.0)
        finally:
            timer.join()
        assert waited is not None
        assert_csr_identical(waited, matrix)

    def test_wait_for_gives_up_on_dead_writer(self, tmp_path):
        store = ProductStore(tmp_path, claim_ttl=0.1)
        assert store.acquire_claim("hash", self.KEY)
        import time as _time

        _time.sleep(0.15)  # let the claim go stale
        assert store.wait_for("hash", self.KEY, timeout=5.0) is None

    def test_engine_waits_instead_of_composing(self, tmp_path):
        """A worker that loses the claim race loads the winner's product
        and composes nothing."""
        import threading

        hin = dblp_like_hin(2)
        content_hash = hin_content_hash(hin)
        key = tuple(APCPA.node_types)
        expected = CommutingEngine(hin).counts(APCPA)

        engine = CommutingEngine(hin, cache_dir=str(tmp_path))
        store = engine._store
        assert store.acquire_claim(content_hash, key)  # simulate a peer

        def peer_finishes():
            store.save(content_hash, key, expected)
            store.release_claim(content_hash, key)

        timer = threading.Timer(0.15, peer_finishes)
        timer.start()
        try:
            result = engine.counts(APCPA)
        finally:
            timer.join()
        assert_csr_identical(result, expected)
        assert key not in engine.compose_log  # waited, never multiplied
        assert engine.claim_waits == 1
        assert engine.stats()["claim_waits"] == 1

    def test_engine_composes_after_peer_dies(self, tmp_path):
        """A stale claim (crashed peer) never deadlocks composition."""
        hin = dblp_like_hin(2)
        content_hash = hin_content_hash(hin)
        key = tuple(APCPA.node_types)
        engine = CommutingEngine(
            hin, cache_dir=str(tmp_path)
        )
        engine._store.claim_ttl = 0.1
        assert engine._store.acquire_claim(content_hash, key)
        import time as _time

        _time.sleep(0.15)
        result = engine.counts(APCPA)
        assert result.nnz > 0
        assert key in engine.compose_log  # fell back to composing itself

    def test_parallel_engines_compose_each_product_once(self, tmp_path):
        """Two workers over one store: every product is multiplied by
        exactly one of them (modulo the benign both-miss-then-claim race,
        which the barrier below removes)."""
        import threading

        results = {}

        def worker(name, barrier):
            hin = dblp_like_hin(4)  # same content -> same hash
            engine = CommutingEngine(hin, cache_dir=str(tmp_path))
            barrier.wait()
            if name == "late":
                import time as _time

                _time.sleep(0.05)  # guarantee the peer claims first
            matrix = engine.counts(APCPA)
            results[name] = (matrix, list(engine.compose_log))

        barrier = threading.Barrier(2)
        threads = [
            threading.Thread(target=worker, args=(name, barrier))
            for name in ("early", "late")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert_csr_identical(results["early"][0], results["late"][0])
        composed = [
            key for _, log in results.values() for key in log
            if key == tuple(APCPA.node_types)
        ]
        assert len(composed) == 1  # once per cluster, not once per worker
