"""The zero-copy (mmap) store tier: accounting and cross-process sharing.

Two properties of the engine's integration with mapped products (the
archive format's equivalence, corruption and staleness contracts live in
``tests/test_archive.py``):

1. **Resident accounting** — mapped entries register ~0 heap bytes in
   the LRU budget (``resident_nbytes``), never get evicted to "free"
   page-cache memory, and the engine's ``stats()`` reports them under
   ``mapped_products`` / ``mapped_bytes``.
2. **Cross-process sharing** — two worker *processes* over one warm
   store dir each compose zero products and serve mmap-backed operators
   (the multi-process smoke test, run via subprocess for isolation).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from repro.hin import HIN, MetaPath
from repro.hin.cache import (
    LRUByteCache,
    ProductStore,
    csr_from_components,
    is_mmap_backed,
    nbytes_of,
    read_archive,
    resident_nbytes,
    unpack_csr,
)
from repro.hin.engine import CommutingEngine

APCPA = MetaPath.parse("APCPA")

KEY = ("A", "P", "C")


def dblp_like_hin(seed: int = 0) -> HIN:
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


def random_csr(seed: int = 0, shape=(13, 9), density: float = 0.3):
    rng = np.random.default_rng(seed)
    dense = rng.random(shape)
    dense[dense > density] = 0.0
    return sp.csr_matrix(dense)


# ---------------------------------------------------------------------- #
# 1. Resident-bytes accounting
# ---------------------------------------------------------------------- #


class TestResidentAccounting:
    def test_resident_nbytes_zero_for_mapped_full_for_heap(self, tmp_path):
        store = ProductStore(tmp_path)
        matrix = random_csr(12)
        store.save("hash-a", KEY, matrix)
        mapped = store.load("hash-a", KEY)
        _, arrays = read_archive(store.path_for("hash-a", KEY))
        heap = unpack_csr(arrays, "product")
        assert not is_mmap_backed(heap)
        assert resident_nbytes(mapped) == 0
        assert resident_nbytes(heap) == nbytes_of(heap) > 0
        assert nbytes_of(mapped) == nbytes_of(heap)  # true size unchanged

    def test_csr_from_components_is_zero_copy(self):
        matrix = random_csr(13)
        rebuilt = csr_from_components(
            matrix.data, matrix.indices, matrix.indptr, matrix.shape
        )
        assert rebuilt.data is matrix.data
        assert rebuilt.indices is matrix.indices
        assert rebuilt.indptr is matrix.indptr
        assert rebuilt.has_sorted_indices

    def test_mapped_entries_survive_any_budget(self, tmp_path):
        """A mapped product registers at 0 bytes, so even budget=0 keeps
        it cached — dropping it would free no heap."""
        hin = dblp_like_hin(0)
        warm = CommutingEngine(hin, cache_dir=str(tmp_path))
        warm.counts(APCPA)  # compose + write through

        engine = CommutingEngine(
            hin, cache_dir=str(tmp_path), memory_budget=0
        )
        served = engine.counts(APCPA)
        assert is_mmap_backed(served)
        assert engine.compose_log == []  # loaded, not composed
        stats = engine.stats()
        assert stats["mapped_products"] >= 1
        assert stats["mapped_bytes"] > 0
        assert stats["resident_bytes"] == 0
        # Served again from cache, still zero compositions.
        engine.counts(APCPA)
        assert engine.compose_log == []

    def test_engine_budget_counts_only_heap_bytes(self, tmp_path):
        hin = dblp_like_hin(1)
        warm = CommutingEngine(hin, cache_dir=str(tmp_path))
        warm.counts(APCPA)

        engine = CommutingEngine(hin, cache_dir=str(tmp_path))
        engine.counts(APCPA)
        stats = engine.stats()
        # The product is mapped; only derived heap views may be resident.
        assert stats["mapped_bytes"] > 0
        assert stats["resident_bytes"] < stats["mapped_bytes"] + nbytes_of(
            warm.counts(APCPA)
        )

    def test_lru_cache_never_evicts_zero_byte_entries(self):
        cache = LRUByteCache(budget=10)
        cache.put("mapped", "value", nbytes=0)
        cache.put("heap", np.zeros(100), nbytes=800)
        assert "mapped" in cache
        assert "heap" not in cache  # over budget, evicted
        assert cache.resident_bytes == 0


# ---------------------------------------------------------------------- #
# 2. Cross-process sharing (multi-process smoke test)
# ---------------------------------------------------------------------- #

_WORKER_SCRIPT = """
import json, sys
import numpy as np
from repro.hin import HIN, MetaPath
from repro.hin.cache import is_mmap_backed
from repro.hin.engine import CommutingEngine

rng = np.random.default_rng(0)
hin = HIN("fixture")
hin.add_node_type("A", 20)
hin.add_node_type("P", 40)
hin.add_node_type("C", 5)
hin.add_edges("writes", "A", "P",
              rng.integers(0, 20, size=80), rng.integers(0, 40, size=80))
hin.add_edges("published_in", "P", "C",
              np.arange(40), rng.integers(0, 5, size=40))

engine = CommutingEngine(hin, cache_dir=sys.argv[1])
counts = engine.counts(MetaPath.parse("APCPA"))
print(json.dumps({
    "composed": len(engine.compose_log),
    "mapped": bool(is_mmap_backed(counts)),
    "stats": {k: int(v) for k, v in engine.stats().items()},
    "checksum": float(counts.data.sum()),
}))
"""


class TestCrossProcessSharing:
    def _run_worker(self, store_dir: Path) -> dict:
        result = subprocess.run(
            [sys.executable, "-c", _WORKER_SCRIPT, str(store_dir)],
            capture_output=True,
            text=True,
            timeout=120,
            cwd=Path(__file__).resolve().parent.parent,
        )
        assert result.returncode == 0, result.stderr
        return json.loads(result.stdout.strip().splitlines()[-1])

    def test_two_processes_share_one_store_without_recomposition(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(
            "PYTHONPATH",
            str(Path(__file__).resolve().parent.parent / "src"),
        )
        # Warm the store in this process (the "first worker of the
        # cluster" composes and writes through)...
        hin = dblp_like_hin(0)
        warm = CommutingEngine(hin, cache_dir=str(tmp_path))
        reference = warm.counts(APCPA)
        assert len(warm.compose_log) > 0

        # ... then two fresh worker processes serve from it: zero
        # compositions each, operators mapped, identical payloads.
        first = self._run_worker(tmp_path)
        second = self._run_worker(tmp_path)
        for report in (first, second):
            assert report["composed"] == 0
            assert report["stats"]["composed_products"] == 0
            assert report["mapped"] is True
            assert report["stats"]["mapped_products"] >= 1
            assert report["stats"]["resident_bytes"] == 0
            assert report["checksum"] == pytest.approx(
                float(reference.data.sum())
            )
