"""The one archive format: corruption, staleness and equivalence.

Every CSR-bearing artifact — commuting products
(:class:`repro.hin.cache.ProductStore`), staged-pipeline artifacts
(:class:`repro.api.artifacts.ArtifactStore`) and ConCH serving bundles
(:meth:`repro.api.ConCHEstimator.save`) — is one archive written by
:func:`repro.hin.cache.write_archive` and read by
:func:`~repro.hin.cache.read_archive`.  One suite, parametrized over the
three kinds, pins what every kind must do:

1. **Equivalence** — mapped and heap reads are bit-identical (headers,
   member names, dtypes, payloads), mapped members really are mapped,
   and the kind's own loader reproduces what was saved.
2. **Corruption** — a truncated, garbage or empty npz, or a header that
   is valid JSON but not an object, reads as a miss (``None``), never an
   error, even with a healthy replica beside it; a corrupt or truncated
   replica file and a corrupt or wrong-shape manifest are rebuilt from
   the npz and served mapped again.
3. **Staleness** — a rewritten archive invalidates its replica; a
   replica that cannot be written falls back to heap arrays.

Plus the format's own contracts: unique temp files per write
(concurrent writers of one archive both finish and leave a readable
archive), ``pack_csr`` never sorts the caller's matrix, ``unpack_csr``
rejects torn components, the replica build is deduped by its claim
file, and no module outside the archive module (and the HIN interchange
format in :mod:`repro.hin.io`) touches npz files directly.
"""

from __future__ import annotations

import ast
import json
import threading
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from repro import api
from repro.api import ConCHEstimator, ModelHandle, load_estimator
from repro.api.artifacts import ArtifactStore, FeatureSet
from repro.core import ConCHConfig
from repro.data import DBLPConfig, load_dataset, stratified_split
from repro.hin.cache import (
    ProductStore,
    is_mmap_backed,
    load_mmap_arrays,
    pack_csr,
    read_archive,
    save_mmap_arrays,
    unpack_csr,
    write_archive,
)

KEY = ("A", "P", "C")


def random_csr(seed: int = 0, shape=(13, 9), density: float = 0.3):
    rng = np.random.default_rng(seed)
    dense = rng.random(shape)
    dense[dense > density] = 0.0
    return sp.csr_matrix(dense)


def assert_csr_identical(left, right) -> None:
    left, right = sp.csr_matrix(left), sp.csr_matrix(right)
    assert left.shape == right.shape
    assert left.dtype == right.dtype
    np.testing.assert_array_equal(left.indptr, right.indptr)
    np.testing.assert_array_equal(left.indices, right.indices)
    np.testing.assert_array_equal(left.data, right.data)


def assert_reads_identical(left, right) -> None:
    """Two ``read_archive`` results carry the same header and members."""
    assert left is not None and right is not None
    assert left[0] == right[0]
    assert sorted(left[1]) == sorted(right[1])
    for name, array in left[1].items():
        other = right[1][name]
        assert array.dtype == other.dtype, name
        assert array.shape == other.shape, name
        np.testing.assert_array_equal(array, other, err_msg=name)


def replica_dir(path: Path) -> Path:
    return path.with_name(path.name + ".mmap")


def mapped_members_are_mapped(loaded) -> bool:
    return all(
        is_mmap_backed(array) for array in loaded[1].values() if array.size
    )


# ---------------------------------------------------------------------- #
# The three archive kinds
# ---------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def dblp_tiny():
    return load_dataset(
        "dblp",
        config=DBLPConfig(num_authors=80, num_papers=250, num_conferences=8),
    )


@pytest.fixture(scope="module")
def split(dblp_tiny):
    return stratified_split(dblp_tiny.labels, 0.2, seed=0)


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
def estimator(dblp_tiny, split, tiny_config):
    return ConCHEstimator(
        api.Pipeline(dblp_tiny, config=tiny_config).data, tiny_config
    ).fit(split)


class ProductKind:
    """A commuting product through :class:`ProductStore` (mapped)."""

    def __init__(self):
        self.matrix = random_csr(3, shape=(40, 30))

    def make(self, directory: Path) -> Path:
        store = ProductStore(directory)
        assert store.save("hash-a", KEY, self.matrix)
        return store.path_for("hash-a", KEY)

    def load(self, path: Path):
        return ProductStore(path.parent).load("hash-a", KEY)

    def check(self, loaded) -> None:
        assert is_mmap_backed(loaded)
        assert_csr_identical(loaded, self.matrix)


class StageKind:
    """A ``featurize`` artifact through :class:`ArtifactStore` (heap)."""

    def __init__(self):
        self.artifact = FeatureSet(
            key="feat-key",
            metapath_node_types=[("A", "P", "A"), ("A", "P", "C", "P", "A")],
            metapath_names=["APA", "APCPA"],
            incidence=[random_csr(1, (20, 35)), random_csr(2, (20, 50))],
            context_features=[
                np.random.default_rng(4).random((35, 8)),
                np.random.default_rng(5).random((50, 8)),
            ],
            neighbor_adj=[random_csr(6, (20, 20)), random_csr(7, (20, 20))],
            truncated_contexts=[0, 3],
            substrate_stats={"composed_products": 2},
        )

    def make(self, directory: Path) -> Path:
        return ArtifactStore(directory).put(self.artifact)

    def load(self, path: Path):
        return ArtifactStore(path.parent).get("featurize", "feat-key")

    def check(self, loaded) -> None:
        original = self.artifact
        assert loaded.metapath_names == original.metapath_names
        assert loaded.truncated_contexts == original.truncated_contexts
        assert loaded.substrate_stats == original.substrate_stats
        for i in range(2):
            assert_csr_identical(loaded.incidence[i], original.incidence[i])
            assert_csr_identical(
                loaded.neighbor_adj[i], original.neighbor_adj[i]
            )
            np.testing.assert_array_equal(
                loaded.context_features[i], original.context_features[i]
            )


class BundleKind:
    """A ConCH serving bundle through :meth:`ModelHandle.load` (mapped)."""

    def __init__(self, estimator):
        self.estimator = estimator

    def make(self, directory: Path) -> Path:
        path = directory / "conch.npz"
        self.estimator.save(path)
        return path

    def load(self, path: Path):
        try:
            return ModelHandle.load(path)
        except ValueError:
            return None

    def check(self, handle) -> None:
        assert all(is_mmap_backed(op) for op in handle._operators)
        assert all(is_mmap_backed(op) for op in handle._transposed)
        ids = np.arange(handle.num_objects)
        np.testing.assert_array_equal(
            handle.predict_nodes(ids), self.estimator.predict()
        )


KINDS = ("product", "stage", "bundle")


@pytest.fixture(params=KINDS)
def kind(request):
    if request.param == "product":
        return ProductKind()
    if request.param == "stage":
        return StageKind()
    return BundleKind(request.getfixturevalue("estimator"))


@pytest.fixture
def archive(kind, tmp_path):
    return kind.make(tmp_path)


# ---------------------------------------------------------------------- #
# 1. Equivalence
# ---------------------------------------------------------------------- #


class TestEquivalence:
    def test_round_trip_through_the_kinds_own_loader(self, kind, archive):
        kind.check(kind.load(archive))

    def test_mapped_and_heap_reads_are_bit_identical(self, archive):
        heap = read_archive(archive)
        mapped = read_archive(archive, mapped=True)
        assert_reads_identical(mapped, heap)
        assert mapped_members_are_mapped(mapped)
        assert not any(is_mmap_backed(a) for a in heap[1].values())

    def test_warm_mapped_read_never_opens_the_npz(self, archive, monkeypatch):
        read_archive(archive, mapped=True)  # builds the replica

        def refuse(*args, **kwargs):
            raise AssertionError("a warm mapped read opened the npz")

        monkeypatch.setattr("repro.hin.cache._read_npz", refuse)
        assert mapped_members_are_mapped(read_archive(archive, mapped=True))

    def test_missing_archive_is_a_miss(self, kind, tmp_path):
        path = kind.make(tmp_path)
        path.unlink()
        assert kind.load(path) is None
        assert read_archive(path) is None
        assert read_archive(path, mapped=True) is None


# ---------------------------------------------------------------------- #
# 2. Corruption
# ---------------------------------------------------------------------- #


def corrupt(path: Path, how: str) -> None:
    payload = path.read_bytes()
    if how == "truncate":
        path.write_bytes(payload[: len(payload) // 2])
    elif how == "garbage":
        path.write_bytes(b"not an npz archive at all")
    else:
        path.write_bytes(b"")


class TestCorruption:
    @pytest.mark.parametrize("how", ["truncate", "garbage", "empty"])
    def test_corrupt_npz_is_a_miss_even_with_a_healthy_replica(
        self, kind, archive, how
    ):
        """The npz is the single source of truth: an intact replica must
        not resurrect an archive whose npz is gone."""
        kind.load(archive)
        read_archive(archive, mapped=True)  # replica warm
        corrupt(archive, how)
        assert kind.load(archive) is None  # no raise
        assert read_archive(archive) is None
        assert read_archive(archive, mapped=True) is None
        kind.make(archive.parent)  # rewritten
        kind.check(kind.load(archive))

    @pytest.mark.parametrize("header", [3, [1, 2], "text", None])
    def test_header_that_is_not_an_object_is_a_miss(
        self, kind, archive, header
    ):
        _, arrays = read_archive(archive)
        write_archive(archive, header, arrays)
        assert read_archive(archive) is None
        assert read_archive(archive, mapped=True) is None
        assert kind.load(archive) is None

    def test_stage_artifact_with_int_header_is_recomputed(self, tmp_path):
        store = ArtifactStore(tmp_path)
        path = store.put(StageKind().artifact)
        write_archive(path, 3, {})
        assert store.get("featurize", "feat-key") is None

    def test_bundle_with_list_header_raises_the_loader_error(
        self, estimator, tmp_path
    ):
        path = BundleKind(estimator).make(tmp_path)
        write_archive(path, [1, 2], read_archive(path)[1])
        with pytest.raises(ValueError, match="not an estimator bundle"):
            load_estimator(path)

    @pytest.mark.parametrize("how", ["garbage", "truncate"])
    def test_corrupt_replica_file_is_rebuilt_from_the_npz(
        self, kind, archive, how
    ):
        heap = read_archive(archive)
        read_archive(archive, mapped=True)
        victims = sorted(replica_dir(archive).glob("*.npy"))
        assert victims
        for victim in victims:
            payload = victim.read_bytes()
            victim.write_bytes(
                b"not an npy file" if how == "garbage"
                else payload[: len(payload) // 2]
            )
        recovered = read_archive(archive, mapped=True)  # no raise
        assert_reads_identical(recovered, heap)
        assert mapped_members_are_mapped(recovered)  # the replica healed
        kind.check(kind.load(archive))

    @pytest.mark.parametrize("manifest", ["{not json", "3", "[1, 2]"])
    def test_corrupt_manifest_is_rebuilt_from_the_npz(
        self, kind, archive, manifest
    ):
        heap = read_archive(archive)
        read_archive(archive, mapped=True)
        manifests = list(replica_dir(archive).glob("*.mmap.json"))
        assert len(manifests) == 1
        manifests[0].write_text(manifest)
        recovered = read_archive(archive, mapped=True)
        assert_reads_identical(recovered, heap)
        assert mapped_members_are_mapped(recovered)
        kind.check(kind.load(archive))


# ---------------------------------------------------------------------- #
# 3. Staleness
# ---------------------------------------------------------------------- #


class TestStaleness:
    def test_rewritten_archive_invalidates_its_replica(self, kind, archive):
        header, arrays = read_archive(archive)
        read_archive(archive, mapped=True)  # replica of the first write
        rewritten = dict(arrays, extra=np.arange(7))
        write_archive(archive, dict(header, rewritten=True), rewritten)
        served = read_archive(archive, mapped=True)
        assert served[0]["rewritten"] is True
        np.testing.assert_array_equal(served[1]["extra"], np.arange(7))
        assert_reads_identical(served, read_archive(archive))
        assert mapped_members_are_mapped(served)
        kind.check(kind.load(archive))

    def test_unwritable_replica_falls_back_to_heap(self, archive):
        replica_dir(archive).write_text("a file where the replica goes")
        served = read_archive(archive, mapped=True)
        assert_reads_identical(served, read_archive(archive))
        assert not any(is_mmap_backed(a) for a in served[1].values())

    def test_second_mapped_read_reuses_the_replica(self, archive):
        read_archive(archive, mapped=True)
        before = sorted(p.name for p in replica_dir(archive).iterdir())
        read_archive(archive, mapped=True)
        assert sorted(p.name for p in replica_dir(archive).iterdir()) == before

    def test_generic_sidecars_reject_mismatched_expected_meta(self, tmp_path):
        save_mmap_arrays(
            tmp_path, "unit", {"x": np.arange(5)}, meta={"owner": "a"}
        )
        assert load_mmap_arrays(tmp_path, "unit", {"owner": "b"}) is None
        loaded = load_mmap_arrays(tmp_path, "unit", {"owner": "a"})
        assert loaded is not None
        meta, arrays = loaded
        assert meta["owner"] == "a"
        np.testing.assert_array_equal(arrays["x"], np.arange(5))


# ---------------------------------------------------------------------- #
# The format's own contracts
# ---------------------------------------------------------------------- #


class _Paused:
    """An array-like whose conversion blocks until released — pauses
    ``np.savez`` mid-write with its temp file open and half written."""

    def __init__(self, entered: threading.Event, release: threading.Event):
        self.entered = entered
        self.release = release

    def __array__(self, dtype=None, copy=None):
        self.entered.set()
        assert self.release.wait(30.0)
        return np.arange(6, dtype=np.int64)


class TestWriter:
    def test_concurrent_writers_of_one_archive_both_finish(self, tmp_path):
        """Writer A pauses inside the write; writer B runs to completion;
        A resumes.  Both return and the archive reads back whole."""
        path = tmp_path / "shared.npz"
        entered, release = threading.Event(), threading.Event()
        errors = []

        def writer_a():
            try:
                write_archive(
                    path, {"writer": "a"}, {"x": _Paused(entered, release)}
                )
            except BaseException as error:  # surfaced below
                errors.append(error)

        thread = threading.Thread(target=writer_a)
        thread.start()
        assert entered.wait(30.0)
        write_archive(path, {"writer": "b"}, {"x": np.arange(3)})
        release.set()
        thread.join(30.0)
        assert not thread.is_alive()
        assert errors == []
        header, arrays = read_archive(path)
        assert header == {"writer": "a"}  # last rename wins, whole
        np.testing.assert_array_equal(arrays["x"], np.arange(6))
        assert list(tmp_path.glob("*.tmp")) == []

    def test_failed_write_leaves_no_temp_file_and_no_archive(self, tmp_path):
        class Unconvertible:
            def __array__(self, dtype=None, copy=None):
                raise RuntimeError("cannot convert")

        path = tmp_path / "broken.npz"
        with pytest.raises(RuntimeError, match="cannot convert"):
            write_archive(path, {"ok": True}, {"x": Unconvertible()})
        assert list(tmp_path.iterdir()) == []

    def test_pack_csr_never_sorts_the_callers_matrix(self):
        # Deliberately unsorted: the input pack_csr must canonicalize.
        unsorted = sp.csr_matrix(  # repro: ignore[csr-canonical]
            (np.array([1.0, 2.0, 3.0]), np.array([2, 0, 1]),
             np.array([0, 2, 3])),
            shape=(2, 3),
        )
        assert not unsorted.has_sorted_indices
        before = unsorted.indices.copy()
        arrays = {}
        pack_csr(arrays, "m", unsorted)
        np.testing.assert_array_equal(unsorted.indices, before)
        rebuilt = unpack_csr(arrays, "m")
        np.testing.assert_array_equal(rebuilt.indices, [0, 2, 1])
        np.testing.assert_array_equal(rebuilt.toarray(), unsorted.toarray())

    @pytest.mark.parametrize(
        "tear", ["indptr_length", "indptr_start", "indptr_end", "indices"]
    )
    def test_unpack_csr_rejects_torn_components(self, tear, tmp_path):
        arrays = {}
        pack_csr(arrays, "m", random_csr(8))
        if tear == "indptr_length":
            arrays["m/indptr"] = arrays["m/indptr"][:-1]
        elif tear == "indptr_start":
            arrays["m/indptr"] = arrays["m/indptr"] + 1
        elif tear == "indptr_end":
            arrays["m/indptr"] = arrays["m/indptr"].copy()
            arrays["m/indptr"][-1] += 1
        else:
            arrays["m/indices"] = arrays["m/indices"][:-1]
        with pytest.raises(ValueError):
            unpack_csr(arrays, "m")
        # The same tear inside a stored product reads as a miss, on
        # the mapped path and the heap path alike.
        store = ProductStore(tmp_path)
        store.save("hash-a", KEY, random_csr(8))
        path = store.path_for("hash-a", KEY)
        header, _ = read_archive(path)
        write_archive(
            path, header, {f"product/{k[2:]}": v for k, v in arrays.items()}
        )
        assert store.load("hash-a", KEY) is None

    def test_replica_build_is_deduped_by_its_claim(self, archive):
        """A cold reader that finds the replica claimed waits for the
        holder's build and maps it instead of building its own."""
        from repro.hin.cache import _rebuild_replica

        claim = archive.with_name(archive.name + ".mmap.claim")
        claim.write_text("holder")
        result = {}
        reader = threading.Thread(
            target=lambda: result.update(
                loaded=read_archive(archive, mapped=True)
            )
        )
        reader.start()
        built = _rebuild_replica(archive)  # the holder builds ...
        manifest = next(replica_dir(archive).glob("*.mmap.json"))
        generation = json.loads(manifest.read_text())["generation"]
        claim.unlink()  # ... and releases
        reader.join(30.0)
        assert not reader.is_alive()
        assert_reads_identical(result["loaded"], built)
        assert mapped_members_are_mapped(result["loaded"])
        assert json.loads(manifest.read_text())["generation"] == generation

    def test_mapped_product_is_read_only_but_fully_usable(self, tmp_path):
        store = ProductStore(tmp_path)
        matrix = random_csr(4)
        store.save("hash-a", KEY, matrix)
        mapped = store.load("hash-a", KEY)
        with pytest.raises((ValueError, TypeError)):
            mapped.data[0] = 99.0
        assert mapped.has_sorted_indices
        assert_csr_identical(mapped[np.array([1, 3])], matrix[np.array([1, 3])])
        np.testing.assert_allclose(
            (mapped @ mapped.T).toarray(), (matrix @ matrix.T).toarray()
        )
        copied = mapped.copy()
        copied.data[:] = 1.0  # copies are private and writable

    def test_empty_product_round_trips(self, tmp_path):
        store = ProductStore(tmp_path)
        store.save("hash-a", KEY, sp.csr_matrix((7, 4)))
        loaded = store.load("hash-a", KEY)
        assert loaded is not None
        assert loaded.nnz == 0 and loaded.shape == (7, 4)


# ---------------------------------------------------------------------- #
# Bundle round trips across model shapes
# ---------------------------------------------------------------------- #


class TestBundleRoundTrips:
    @pytest.mark.parametrize(
        "overrides",
        [{"use_contexts": False, "num_layers": 1}, {"num_layers": 2}],
        ids=["nc-mode", "2-layer"],
    )
    def test_bundle_round_trip(
        self, dblp_tiny, split, tiny_config, overrides, tmp_path
    ):
        config = tiny_config.with_overrides(**overrides)
        estimator = ConCHEstimator(
            api.Pipeline(dblp_tiny, config=config).data, config
        ).fit(split)
        path = tmp_path / "conch.npz"
        estimator.save(path)
        full = estimator.predict()
        heap = load_estimator(path)
        np.testing.assert_array_equal(heap.predict(), full)
        np.testing.assert_array_equal(
            heap.predict_proba(), estimator.predict_proba()
        )
        handle = ModelHandle.load(path)
        assert all(is_mmap_backed(op) for op in handle._operators)
        assert handle.config.num_layers == config.num_layers
        assert handle.use_contexts == config.use_contexts
        np.testing.assert_array_equal(
            handle.predict_nodes(np.arange(handle.num_objects)), full
        )


# ---------------------------------------------------------------------- #
# CI guard: the format lives behind one module
# ---------------------------------------------------------------------- #

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: The archive module and the user-facing HIN interchange format.
NPZ_OWNERS = {SRC / "hin" / "cache.py", SRC / "hin" / "io.py"}

NPZ_CALLS = {"load", "savez", "savez_compressed"}


def npz_calls(path: Path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "numpy":
            for alias in node.names:
                if alias.name in NPZ_CALLS:
                    yield node.lineno, f"from numpy import {alias.name}"
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in NPZ_CALLS
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in ("np", "numpy")
        ):
            yield node.lineno, f"{node.func.value.id}.{node.func.attr}"


def test_only_the_archive_module_touches_npz_files():
    offenders = [
        f"{path.relative_to(SRC.parent)}:{line}: {call}"
        for path in sorted(SRC.rglob("*.py"))
        if path not in NPZ_OWNERS
        for line, call in npz_calls(path)
    ]
    assert offenders == [], (
        "write and read archives through repro.hin.cache.write_archive / "
        "read_archive:\n" + "\n".join(offenders)
    )


def test_guard_sees_a_direct_npz_call(tmp_path):
    module = tmp_path / "rogue.py"
    module.write_text(
        "import numpy as np\n\ndef dump(x):\n    np.savez('x.npz', x=x)\n"
    )
    assert list(npz_calls(module)) == [(4, "np.savez")]
