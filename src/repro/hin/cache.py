"""Cache management for the commuting-matrix engine.

The :class:`~repro.hin.engine.CommutingEngine` memoizes every composed
chain product and derived view (counts, similarity matrices, suffix
pruning masks, top-k lists).  Left unmanaged, those entries are pinned to
the HIN until :meth:`~repro.hin.engine.CommutingEngine.invalidate` — on
large graphs and long experiment sweeps resident memory grows without
bound, and every fresh process re-pays full composition even on an
unchanged dataset.  This module supplies the two mechanisms that bound
both costs:

:class:`LRUByteCache`
    A byte-budgeted least-recently-used cache.  Every entry is registered
    with its ``nbytes`` (see :func:`nbytes_of`) and a recency stamp; when
    the resident total exceeds the budget, least-recently-used *evictable*
    entries are dropped (an eviction callback lets the owner spill them
    first).  Eviction never changes semantics: the engine transparently
    recomposes an evicted entry on next access, and prefix sharing still
    consults whatever survives.

:class:`ProductStore`
    A disk-backed store for composed chain products.  Files are archives
    keyed by a content hash of the HIN (edge arrays + schema —
    :func:`repro.hin.io.hin_content_hash`) and the product's node-type
    tuple, so repeated runs over the same dataset skip composition
    entirely.  A corrupt or stale file (hash mismatch, truncated archive)
    is ignored and rewritten; writes are atomic (temp file + ``rename``)
    so a crashed run never leaves a torn archive behind.

The archive format
------------------
Every CSR-bearing artifact in this repo — products, the staged
pipeline's stage artifacts (:mod:`repro.api.artifacts`), estimator
bundles and model checkpoints — is one archive: an uncompressed ``.npz``
with a JSON ``__header`` member, written by :func:`write_archive` and
read by :func:`read_archive`, with sparse matrices stored by
:func:`pack_csr` and rebuilt by :func:`unpack_csr`.  A corrupt, empty,
truncated or header-less archive reads as a miss (``None``), never an
error.

Zero-copy (mmap) tier
---------------------
``read_archive(path, mapped=True)`` serves an archive's members from a
replica of raw ``.npy`` files in ``<archive>.mmap/``
(:func:`save_mmap_arrays` / :func:`load_mmap_arrays`) instead of copying
the npz payload onto the heap, so **co-located workers mapping one
archive share one OS-page-cache-resident copy** — N serving workers cost
~1× memory, not N×.  The npz stays the single source of truth: the
replica's manifest records the npz's ``stat`` identity and header, the
first mapped read after a write builds the replica, and one that is
missing, truncated, corrupt, or stale is rebuilt from the npz; a
corrupt *npz* is a miss regardless of replica health.  (The npz itself
is not mapped: ``np.savez`` leaves member data unaligned.)
Mmap-backed matrices are read-only; :func:`resident_nbytes` reports them
at ~zero heap cost, which is how the engine's
:class:`LRUByteCache` budget accounts for them.

Claim files
-----------
:class:`ClaimFile` is the reusable ``O_CREAT | O_EXCL`` + TTL-lease
protocol behind the store's concurrent-writer dedupe (see
:class:`ProductStore`); :class:`repro.api.artifacts.ArtifactStore` reuses
it so whole pipeline stages are also composed once per cluster.

Cache tuning
------------
- ``CommutingEngine(hin, memory_budget=...)`` (or
  ``get_engine(hin, memory_budget=...)``) caps the bytes resident in the
  engine's view cache; ``None`` (the default, via
  :data:`DEFAULT_MEMORY_BUDGET`) means unlimited, ``0`` caches nothing.
  Base per-hop biadjacencies are pinned outside the budget — they are the
  ground truth the graph itself holds anyway.
- The disk store is opt-in: pass ``cache_dir=...`` or set the
  :data:`CACHE_DIR_ENV` (``REPRO_CACHE_DIR``) environment variable.
  Composed products are written through on composition, so a second
  process over the same dataset composes zero products from scratch.
- Cold vs. warm benchmarking: call ``engine.invalidate()`` before a cold
  measurement (drops memory caches; disk files keyed by content hash stay
  valid for an unchanged graph, so "cold memory / warm disk" is the
  second-process scenario).  ``engine.stats()`` reports
  hits/misses/evictions/spills/disk hits and resident bytes.
"""

from __future__ import annotations

import hashlib
import json
import mmap as _mmap
import os
import struct
import sys
import threading
import time
import zipfile
import zlib
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    Iterator,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np
import scipy.sparse as sp

from repro.obs import metrics as obs_metrics

#: Module-level default for ``CommutingEngine(memory_budget=...)``.
#: ``None`` = unlimited (the historical pin-everything behavior).
DEFAULT_MEMORY_BUDGET: Optional[int] = None

#: Environment variable naming the default disk-backed product store
#: directory.  Unset (the default, and what CI relies on) disables the
#: disk store unless a ``cache_dir`` is passed explicitly.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


#: Exception set every archive loader in this repo treats as a silent
#: cache miss: missing/truncated/non-zip/garbage files, bad JSON, short
#: reads.  Deliberately excludes ``TypeError`` — in npz/bundle loaders a
#: TypeError means a real bug (malformed header handling), and masking
#: it as a miss would make pipelines silently recompute forever.
ARCHIVE_MISS_ERRORS = (
    OSError,
    ValueError,
    KeyError,
    EOFError,
    zipfile.BadZipFile,
    zlib.error,
    struct.error,
    json.JSONDecodeError,
)

#: The sidecar *manifest* parsers additionally treat ``TypeError`` /
#: ``AttributeError`` as misses: a hand-corrupted ``.mmap.json`` can
#: decode to any JSON shape (a bare int, a list where a dict belongs),
#: and those surface exactly as attribute/type errors during parsing.
_MANIFEST_MISS_ERRORS = ARCHIVE_MISS_ERRORS + (TypeError, AttributeError)


def default_cache_dir() -> Optional[str]:
    """The product-store directory from :data:`CACHE_DIR_ENV`, if set."""
    directory = os.environ.get(CACHE_DIR_ENV, "").strip()
    return directory or None


def nbytes_of(value: Any) -> int:
    """Best-effort resident size in bytes of a cached value.

    Understands scipy sparse matrices (sum of their constituent arrays),
    numpy arrays, and containers thereof; anything else falls back to
    ``sys.getsizeof``.  This is an *accounting* size — Python object
    overhead of containers is ignored, which is negligible next to the
    array payloads the cache manages.
    """
    if sp.issparse(value):
        total = 0
        for attr in ("data", "indices", "indptr", "row", "col", "offsets"):
            array = getattr(value, attr, None)
            if isinstance(array, np.ndarray):
                total += array.nbytes
        return total
    if isinstance(value, np.ndarray):
        return int(value.nbytes)
    if isinstance(value, (list, tuple, set, frozenset)):
        return sum(nbytes_of(item) for item in value)
    if isinstance(value, dict):
        return sum(nbytes_of(item) for item in value.values())
    return int(sys.getsizeof(value))


def _array_is_mapped(array: Any) -> bool:
    """True when an ndarray's storage is a memory-mapped file."""
    seen = 0
    base = array
    while base is not None and seen < 8:  # base chains are short
        if isinstance(base, (np.memmap, _mmap.mmap)):
            return True
        base = getattr(base, "base", None)
        seen += 1
    return False


def is_mmap_backed(matrix: Any) -> bool:
    """True when a CSR/array's payload lives in mapped files, not heap.

    A sparse matrix counts as mapped when *every* component array is
    mapped (empty components — which numpy may materialize on heap —
    are ignored; their bytes are ~zero either way).
    """
    if sp.issparse(matrix):
        components = [
            getattr(matrix, attr)
            for attr in ("data", "indices", "indptr")
            if getattr(matrix, attr, None) is not None
        ]
        sized = [c for c in components if c.size > 0]
        return bool(sized) and all(_array_is_mapped(c) for c in sized)
    if isinstance(matrix, np.ndarray):
        return matrix.size > 0 and _array_is_mapped(matrix)
    return False


def resident_nbytes(value: Any) -> int:
    """Heap-resident bytes of a cached value: mapped arrays count as 0.

    The accounting twin of :func:`nbytes_of` for the zero-copy tier —
    a memory-mapped product's pages belong to the OS page cache (shared
    across every process mapping the same file, reclaimable under
    pressure), so charging them against a per-process heap budget would
    evict real heap entries to "free" memory that was never resident.
    """
    if sp.issparse(value):
        total = 0
        for attr in ("data", "indices", "indptr", "row", "col", "offsets"):
            array = getattr(value, attr, None)
            if isinstance(array, np.ndarray) and not _array_is_mapped(array):
                total += array.nbytes
        return total
    if isinstance(value, np.ndarray):
        return 0 if _array_is_mapped(value) else int(value.nbytes)
    return nbytes_of(value)


def csr_from_components(
    data: np.ndarray,
    indices: np.ndarray,
    indptr: np.ndarray,
    shape: Tuple[int, int],
) -> sp.csr_matrix:
    """A CSR over existing component arrays with **zero copies**.

    The ordinary ``sp.csr_matrix((data, indices, indptr))`` constructor
    runs ``check_format`` which may re-cast index dtypes (copying) and
    would later ``sort_indices`` *in place* — both fatal for read-only
    memory-mapped components.  This builds the matrix by direct attribute
    assignment and marks it sorted/canonical, which is the writer's
    contract: :func:`save_mmap_arrays` callers persist only
    sorted-deduplicated CSR.
    """
    matrix = sp.csr_matrix(tuple(int(s) for s in shape), dtype=data.dtype)
    matrix.data = data
    matrix.indices = indices
    matrix.indptr = indptr
    matrix.has_sorted_indices = True
    try:
        matrix.has_canonical_format = True
    except AttributeError:  # older scipy spells it differently; harmless
        pass
    return matrix


def splice_rows(
    matrix: sp.csr_matrix,
    rows: np.ndarray,
    block: sp.csr_matrix,
) -> sp.csr_matrix:
    """A new CSR equal to ``matrix`` with ``rows`` replaced by ``block``.

    The row-scoped patch primitive of the delta-ingest tier: the engine
    recomposes only the dirty rows of a commuting product as a row block
    and splices them over the stale rows.  ``rows`` must be sorted unique
    row ids; ``block`` has ``len(rows)`` rows, same column count, and
    sorted indices (its rows land verbatim, so per-row sortedness is the
    caller's contract — both inputs canonical ⇒ output canonical).

    ``matrix`` is never written (it may be a read-only mmap-backed
    replica); the result owns fresh component arrays assembled with one
    vectorized scatter per component.
    """
    rows = np.asarray(rows, dtype=np.int64)
    num_rows, num_cols = matrix.shape
    if block.shape != (rows.size, num_cols):
        raise ValueError(
            f"block shape {block.shape} != ({rows.size}, {num_cols})"
        )
    old_indptr = matrix.indptr
    old_lengths = np.diff(old_indptr)
    new_lengths = old_lengths.copy()
    block_lengths = np.diff(block.indptr)
    new_lengths[rows] = block_lengths
    indptr = np.zeros(num_rows + 1, dtype=old_indptr.dtype)
    np.cumsum(new_lengths, out=indptr[1:])

    out_data = np.empty(int(indptr[-1]), dtype=matrix.data.dtype)
    out_indices = np.empty(int(indptr[-1]), dtype=matrix.indices.dtype)

    # Kept old entries: scatter each to its row's new start + offset.
    dirty = np.zeros(num_rows, dtype=bool)
    dirty[rows] = True
    old_row_ids = np.repeat(np.arange(num_rows), old_lengths)
    keep = ~dirty[old_row_ids]
    kept_rows = old_row_ids[keep]
    offsets = np.arange(old_indptr[-1], dtype=np.int64) - np.repeat(
        old_indptr[:-1].astype(np.int64), old_lengths
    )
    dest = indptr[kept_rows].astype(np.int64) + offsets[keep]
    out_data[dest] = matrix.data[keep]
    out_indices[dest] = matrix.indices[keep]

    # Block entries: same scatter against the block's own offsets.
    block_row_ids = np.repeat(rows, block_lengths)
    block_offsets = np.arange(block.indptr[-1], dtype=np.int64) - np.repeat(
        block.indptr[:-1].astype(np.int64), block_lengths
    )
    dest = indptr[block_row_ids].astype(np.int64) + block_offsets
    out_data[dest] = block.data
    out_indices[dest] = block.indices
    return csr_from_components(out_data, out_indices, indptr, matrix.shape)


# ---------------------------------------------------------------------- #
# The archive format: one npz writer, one (optionally mapped) reader
# ---------------------------------------------------------------------- #

#: The archive member holding every archive's JSON header.
HEADER_MEMBER = "__header"

#: Suffix of the directory holding an archive's mapped replica.
REPLICA_SUFFIX = ".mmap"

#: Suffix of the JSON manifest naming one consistent sidecar generation.
MMAP_META_SUFFIX = ".mmap.json"

#: Superseded sidecar generations younger than this are left on disk —
#: they may belong to a concurrent writer whose manifest rename is about
#: to land (see the reap loop in :func:`save_mmap_arrays`).
_REAP_GRACE_SECONDS = 60.0


def _unique_tmp(path: Path) -> Path:
    """A temp name next to ``path`` that no other write can share."""
    token = f"{os.getpid()}.{os.urandom(6).hex()}"
    return path.with_name(f".{path.name}.{token}.tmp")


def _replica_dir(path: Path) -> Path:
    return path.with_name(path.name + REPLICA_SUFFIX)


def _stat_identity(stat: os.stat_result) -> dict:
    return {
        "size": int(stat.st_size),
        "mtime_ns": int(stat.st_mtime_ns),
        "ino": int(stat.st_ino),
    }


def file_stat_identity(path: Union[str, Path]) -> Optional[dict]:
    """A file's (size, mtime_ns, inode) triple — the cheap staleness key.

    Atomic-rename writers (every archive in this repo) allocate a fresh
    inode per rewrite, so any rewrite — even a same-size, same-content
    one — changes the identity; in-place corruption changes size or
    mtime.  ``None`` when the file is missing.
    """
    try:
        return _stat_identity(os.stat(path))
    except OSError:
        return None


def write_archive(
    path: Union[str, Path], header: dict, arrays: Dict[str, np.ndarray]
) -> None:
    """Atomically publish an uncompressed npz with a JSON ``__header``.

    The payload goes to a temp file unique to this call, which is then
    renamed over ``path``, so concurrent writers of one archive (threads
    or processes) never share a temp file and the last rename wins with
    a whole archive.  On any failure the temp file is removed and the
    error propagates; nothing torn is ever published.  Uncompressed on
    purpose: archives exist to beat recomputation, and zlib on every
    load would eat that win.
    """
    path = Path(path)
    payload = dict(arrays)
    payload[HEADER_MEMBER] = np.array(json.dumps(header, sort_keys=True))
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = _unique_tmp(path)
    try:
        with open(tmp, "xb") as handle:
            np.savez(handle, **payload)
        os.replace(tmp, path)
    except BaseException:
        try:
            tmp.unlink(missing_ok=True)
        except OSError:
            pass
        raise


def _read_npz(path: Path) -> Optional[Tuple[dict, Dict[str, np.ndarray], dict]]:
    """``(header, arrays, stat identity)`` of an archive; None on a miss.

    The stat identity is taken from the open file, so it names exactly
    the bytes that were read even when a writer replaces the archive
    mid-read.
    """
    try:
        with open(path, "rb") as handle:
            stat = _stat_identity(os.fstat(handle.fileno()))
            archive = np.load(handle, allow_pickle=False)
            if not isinstance(archive, np.lib.npyio.NpzFile):
                return None
            with archive:
                header = json.loads(str(archive[HEADER_MEMBER]))
                if not isinstance(header, dict):
                    return None
                arrays = {
                    name: archive[name]
                    for name in archive.files
                    if name != HEADER_MEMBER
                }
    except ARCHIVE_MISS_ERRORS:
        return None
    return header, arrays, stat


def _map_replica(
    path: Path, stat: dict
) -> Optional[Tuple[dict, Dict[str, np.ndarray]]]:
    """The archive's mapped replica, if it was built from ``stat``."""
    loaded = load_mmap_arrays(
        _replica_dir(path), "replica", {"archive_stat": stat}
    )
    if loaded is None:
        return None
    meta, arrays = loaded
    header = meta.get("header")
    if not isinstance(header, dict):
        return None
    return header, arrays


def read_archive(
    path: Union[str, Path], mapped: bool = False
) -> Optional[Tuple[dict, Dict[str, np.ndarray]]]:
    """``(header, arrays)`` of an archive from :func:`write_archive`.

    Returns ``None`` on any miss: a missing, truncated, empty or garbage
    file, a missing header, or a header that is not a JSON object.

    With ``mapped=True`` the members come read-only from a replica of
    raw ``.npy`` files in ``<archive>.mmap/``, so every process mapping
    one archive shares one page-cache copy.  The npz stays the single
    source of truth: the replica's manifest records the archive's stat
    identity and header, and a replica that is missing, stale, torn or
    corrupt is rebuilt from the npz on the way through, under the claim
    file ``<archive>.mmap.claim`` (concurrent cold readers build it once
    and the rest wait and map).  A warm mapped read never opens the
    zip.  When the replica cannot be written (a read-only directory) the
    read falls back to heap arrays.
    """
    path = Path(path)
    if not mapped:
        loaded = _read_npz(path)
        return None if loaded is None else loaded[:2]
    stat = file_stat_identity(path)
    if stat is None:
        return None
    served = _map_replica(path, stat)
    if served is not None:
        return served
    claim = ClaimFile(path.with_name(path.name + REPLICA_SUFFIX + ".claim"))
    if claim.acquire():
        try:
            return _rebuild_replica(path)
        finally:
            claim.release()
    served = claim.wait(lambda: _map_replica(path, stat))
    return served if served is not None else read_archive(path)


def _rebuild_replica(path: Path) -> Optional[Tuple[dict, Dict[str, np.ndarray]]]:
    """Rebuild the mapped replica from the npz; heap arrays if it fails."""
    loaded = _read_npz(path)
    if loaded is None:
        return None
    header, arrays, stat = loaded
    if save_mmap_arrays(
        _replica_dir(path),
        "replica",
        arrays,
        meta={"archive_stat": stat, "header": header},
    ):
        served = _map_replica(path, stat)
        if served is not None:
            return served
    return header, arrays


def pack_csr(
    arrays: Dict[str, np.ndarray], prefix: str, matrix: sp.spmatrix
) -> None:
    """Add one CSR's components to an archive payload under ``prefix/``.

    Archived CSR is canonical (sorted, duplicate-free), the contract
    :func:`unpack_csr` marks its zero-copy result with.  A non-canonical
    matrix is canonicalized on a copy; the caller's is never touched.
    """
    matrix = sp.csr_matrix(matrix)
    if not matrix.has_canonical_format:
        matrix = matrix.copy()
        matrix.sum_duplicates()
    arrays[f"{prefix}/data"] = matrix.data
    arrays[f"{prefix}/indices"] = matrix.indices
    arrays[f"{prefix}/indptr"] = matrix.indptr
    arrays[f"{prefix}/shape"] = np.asarray(matrix.shape, dtype=np.int64)


def unpack_csr(arrays: Dict[str, np.ndarray], prefix: str) -> sp.csr_matrix:
    """The CSR :func:`pack_csr` stored under ``prefix/``, with zero copies.

    Validates the invariants a torn or mismatched component set breaks
    — ``indptr`` length vs. the recorded shape, ``indptr[0] == 0``,
    ``indptr[-1] == nnz``, ``indices`` shaped like ``data`` — and raises
    ``ValueError`` (or ``KeyError`` for a missing component), both
    archive misses, instead of building a matrix that would fault later.
    """
    data = arrays[f"{prefix}/data"]
    indices = arrays[f"{prefix}/indices"]
    indptr = arrays[f"{prefix}/indptr"]
    shape = tuple(int(s) for s in arrays[f"{prefix}/shape"])
    if len(shape) != 2 or indptr.shape != (shape[0] + 1,):
        raise ValueError(f"{prefix}: indptr does not match shape {shape}")
    if data.ndim != 1 or indices.shape != data.shape:
        raise ValueError(f"{prefix}: indices and data disagree")
    if int(indptr[0]) != 0 or int(indptr[-1]) != data.size:
        raise ValueError(f"{prefix}: indptr does not span the data")
    return csr_from_components(data, indices, indptr, shape)


# ---------------------------------------------------------------------- #
# Raw-``.npy`` sidecars (the mapped replica's file format)
# ---------------------------------------------------------------------- #


def _sidecar_meta_path(directory: Path, prefix: str) -> Path:
    return directory / f"{prefix}{MMAP_META_SUFFIX}"


def _sidecar_array_path(
    directory: Path, prefix: str, generation: str, position: int
) -> Path:
    return directory / f"{prefix}.{generation}.{position}.npy"


def save_mmap_arrays(
    directory: Union[str, Path],
    prefix: str,
    arrays: Dict[str, np.ndarray],
    meta: Optional[dict] = None,
) -> bool:
    """Persist named arrays as raw ``.npy`` files + a JSON manifest.

    Every array lands in its own ``<prefix>.<generation>.<position>.npy``
    (atomic temp-file + rename; the manifest maps names to positions, so
    any archive member name works), then the manifest
    ``<prefix>.mmap.json`` is atomically replaced to point at the new
    generation — so readers always see a *consistent set*: a crash
    between array writes leaves the old manifest (and old files) intact,
    and mixed-generation reads are impossible by construction.  Older
    generations are unlinked best-effort afterwards.  Returns False on
    any I/O failure (callers fall back to non-mapped serving).
    """
    directory = Path(directory)
    generation = os.urandom(8).hex()
    manifest = {
        "sidecar_version": 2,
        "generation": generation,
        "arrays": {},
    }
    if meta:
        manifest["meta"] = dict(meta)
    written = []
    try:
        directory.mkdir(parents=True, exist_ok=True)
        for position, (name, array) in enumerate(arrays.items()):
            array = np.ascontiguousarray(array)
            path = _sidecar_array_path(directory, prefix, generation, position)
            tmp = _unique_tmp(path)
            with open(tmp, "wb") as handle:
                np.save(handle, array)
            os.replace(tmp, path)
            written.append(path)
            manifest["arrays"][name] = {
                "position": position,
                "shape": list(array.shape),
                "dtype": str(array.dtype),
            }
        meta_path = _sidecar_meta_path(directory, prefix)
        tmp = _unique_tmp(meta_path)
        tmp.write_text(json.dumps(manifest, sort_keys=True))
        os.replace(tmp, meta_path)
    except OSError:
        for path in written:
            try:
                path.unlink(missing_ok=True)
            except OSError:
                pass
        return False
    # Reap superseded generations (best-effort; a concurrent reader that
    # already mapped an old file keeps its pages alive via the open map).
    # Only files older than a grace period are touched: a *concurrent
    # writer's* fresh generation — which may become the current manifest
    # a millisecond from now — must never be unlinked by a racing save.
    cutoff = time.time() - _REAP_GRACE_SECONDS
    for stale in directory.glob(f"{prefix}.*.npy"):
        if f".{generation}." in stale.name:
            continue
        try:
            if stale.stat().st_mtime < cutoff:
                stale.unlink(missing_ok=True)
        except OSError:
            pass
    return True


def load_mmap_arrays(
    directory: Union[str, Path],
    prefix: str,
    expected_meta: Optional[dict] = None,
) -> Optional[Tuple[dict, Dict[str, np.ndarray]]]:
    """Memory-map a sidecar generation read-only; ``None`` on any miss.

    Returns ``(meta, arrays)`` — the manifest's recorded ``meta`` dict
    plus the mapped arrays.  Misses (all silent, mirroring every loader
    in this module): missing or corrupt manifest, ``expected_meta``
    entries that do not match the manifest's recorded ``meta`` exactly
    (the staleness check — e.g. the source archive's stat identity), a
    missing/truncated array file, or a mapped array whose shape/dtype
    disagrees with the manifest.  Zero-size arrays are loaded normally
    (they cannot be mapped) — their heap cost is nil.
    """
    directory = Path(directory)
    meta_path = _sidecar_meta_path(directory, prefix)
    try:
        manifest = json.loads(meta_path.read_text())
        if manifest.get("sidecar_version") != 2:
            return None
        recorded = manifest.get("meta", {})
        if expected_meta:
            for key, value in expected_meta.items():
                if recorded.get(key) != value:
                    return None
        generation = manifest["generation"]
        out: Dict[str, np.ndarray] = {}
        for name, spec in manifest["arrays"].items():
            path = _sidecar_array_path(
                directory, prefix, generation, int(spec["position"])
            )
            expected_shape = tuple(int(s) for s in spec["shape"])
            if int(np.prod(expected_shape)) == 0:
                array = np.load(path, allow_pickle=False)
            else:
                array = np.load(path, mmap_mode="r", allow_pickle=False)
            if tuple(array.shape) != expected_shape:
                return None
            if str(array.dtype) != spec["dtype"]:
                return None
            out[name] = array
    except _MANIFEST_MISS_ERRORS:
        return None
    return recorded, out


@dataclass
class _Entry:
    value: Any
    nbytes: int
    evictable: bool
    cost: float = 0.0
    priority: float = 0.0


class LRUByteCache:
    """A byte-budgeted cache with cost-aware (GreedyDual-Size) eviction.

    Entries are kept in recency order (:class:`~collections.OrderedDict`);
    :meth:`get` freshens, :meth:`put` inserts at the most-recent end and
    then evicts evictable entries until the resident total fits the budget
    again.  Entries registered with ``nbytes=0`` (aliases of data pinned
    elsewhere) are never chosen for eviction — dropping them frees
    nothing.

    Victim selection follows GreedyDual-Size: every entry carries a
    priority ``clock + cost / nbytes`` stamped at insertion and refreshed
    on access, where ``cost`` is the caller-measured expense of rebuilding
    the entry (the engine feeds compose/build wall-clock seconds from its
    compose-event log).  Eviction drops the minimum-priority entry and
    advances the clock to that priority, so expensive entries survive
    pressure from cheap ones but age out once the cheap ones have cycled
    enough.  With every cost at the default ``0.0`` all priorities stay
    equal and ties break toward the least recently used — i.e. the policy
    degenerates to exact LRU, the pre-cost behavior.

    The cache never drops *non-evictable* entries for space, so the
    resident total can exceed the budget only by the non-evictable
    portion; the engine registers everything recomputable as evictable.

    Counters (``hits``/``misses``/``evictions``) are exact per-operation
    counts; :meth:`reset_stats` zeroes them without touching contents.

    Thread safety: the serving tier shares one engine — and therefore
    one of these caches — across scheduler threads, so every mutable
    field is guarded by a reentrant lock (the ``# guarded-by:``
    annotations below are enforced statically by the lock-discipline
    rule of ``python -m repro.analysis`` and dynamically by
    :mod:`repro.analysis.sanitizer`).  The eviction callback runs with
    the lock held — owners must not call back into the cache from a
    different thread inside it.
    """

    def __init__(
        self,
        budget: Optional[int] = None,
        on_evict: Optional[Callable[[Hashable, Any], None]] = None,
    ):
        self._lock = threading.RLock()
        self._entries: "OrderedDict[Hashable, _Entry]" = OrderedDict()  # guarded-by: _lock
        self._budget = self._validate_budget(budget)  # guarded-by: _lock
        self._on_evict = on_evict
        self._resident = 0  # guarded-by: _lock
        #: GreedyDual-Size aging clock: rises to each evicted priority.
        self._clock = 0.0  # guarded-by: _lock
        self.hits = 0  # guarded-by: _lock
        self.misses = 0  # guarded-by: _lock
        self.evictions = 0  # guarded-by: _lock
        self._obs = obs_metrics.REGISTRY.register("cache", self._collect_metrics)

    @staticmethod
    def _validate_budget(budget: Optional[int]) -> Optional[int]:
        if budget is None:
            return None
        budget = int(budget)
        if budget < 0:
            raise ValueError(f"memory budget must be >= 0 or None, got {budget}")
        return budget

    @property
    def budget(self) -> Optional[int]:
        """Byte budget; ``None`` = unlimited.  Shrinking evicts eagerly."""
        with self._lock:
            return self._budget

    @budget.setter
    def budget(self, budget: Optional[int]) -> None:
        with self._lock:
            self._budget = self._validate_budget(budget)
            self._enforce()

    @property
    def resident_bytes(self) -> int:
        """Accounted bytes of all currently cached entries."""
        with self._lock:
            return self._resident

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    def keys(self) -> Iterator[Hashable]:
        """Keys in recency order (least recent first); no recency bump."""
        with self._lock:
            return iter(list(self._entries))

    def get(self, key: Hashable, default: Any = None) -> Any:
        """Value for ``key`` (freshening it), else ``default``."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return default
            self.hits += 1
            self._entries.move_to_end(key)
            entry.priority = self._priority(entry)
            return entry.value

    def peek(self, key: Hashable, default: Any = None) -> Any:
        """Value for ``key`` without touching recency or counters."""
        with self._lock:
            entry = self._entries.get(key)
            return default if entry is None else entry.value

    def put(
        self,
        key: Hashable,
        value: Any,
        nbytes: Optional[int] = None,
        evictable: bool = True,
        cost: float = 0.0,
    ) -> None:
        """Insert (or replace) an entry and enforce the budget.

        ``nbytes`` defaults to :func:`nbytes_of`; pass ``0`` for aliases
        whose bytes are pinned elsewhere.  ``cost`` is the measured
        expense of rebuilding the value (seconds, or any consistent
        unit); it weights eviction priority — see the class docstring.
        With a budget of 0 the entry is admitted and immediately evicted
        — callers still return the value they just built, so semantics
        never change.
        """
        if nbytes is None:
            nbytes = nbytes_of(value)
        with self._lock:
            self.discard(key)
            entry = _Entry(
                value=value,
                nbytes=int(nbytes),
                evictable=evictable,
                cost=float(max(cost, 0.0)),
            )
            entry.priority = self._priority(entry)
            self._entries[key] = entry
            self._resident += int(nbytes)
            self._enforce()

    def replace(
        self, key: Hashable, value: Any, nbytes: Optional[int] = None
    ) -> bool:
        """Swap an existing entry's value in place; ``False`` on miss.

        The patch primitive of the delta-ingest tier: unlike
        :meth:`put` it preserves the entry's recency position, cost and
        evictability — a patched product is the *same* cache citizen
        with updated bytes, not a freshly admitted one.  Accounting is
        updated to the new size and the budget re-enforced.
        """
        if nbytes is None:
            nbytes = nbytes_of(value)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return False
            self._resident += int(nbytes) - entry.nbytes
            entry.value = value
            entry.nbytes = int(nbytes)
            entry.priority = self._priority(entry)
            self._enforce()
            return True

    def discard(self, key: Hashable) -> None:
        """Remove an entry without counting an eviction or spilling."""
        with self._lock:
            entry = self._entries.pop(key, None)
            if entry is not None:
                self._resident -= entry.nbytes

    def clear(self) -> None:
        """Drop every entry (no eviction callbacks; counters are kept)."""
        with self._lock:
            self._entries.clear()
            self._resident = 0
            self._clock = 0.0

    def reset_stats(self) -> None:
        with self._lock:
            self.hits = 0
            self.misses = 0
            self.evictions = 0

    def _priority(self, entry: _Entry) -> float:
        """GreedyDual-Size priority at the current clock.

        ``cost`` is normalized per byte so a huge cheap matrix does not
        outrank a small expensive one purely by absolute rebuild time.
        """
        with self._lock:
            if entry.cost <= 0.0:
                return self._clock
            return self._clock + entry.cost / max(entry.nbytes, 1)

    def _enforce(self) -> None:
        with self._lock:
            if self._budget is None:
                return
            while self._resident > self._budget:
                victim_key = None
                victim_priority = None
                for key, entry in self._entries.items():  # LRU-first order
                    if not entry.evictable or entry.nbytes <= 0:
                        continue
                    # Strict < keeps ties on the least-recently-used entry,
                    # so zero costs reproduce exact LRU.
                    if victim_priority is None or entry.priority < victim_priority:
                        victim_key = key
                        victim_priority = entry.priority
                if victim_key is None:
                    return
                entry = self._entries.pop(victim_key)
                self._resident -= entry.nbytes
                self.evictions += 1
                # Age the cache: everything still resident is now worth its
                # cost *relative to* the evicted entry's priority.
                self._clock = max(self._clock, entry.priority)
                if self._on_evict is not None:
                    self._on_evict(victim_key, entry.value)

    def snapshot(self) -> dict:
        """One consistent view of contents *and* counters, single lock hold.

        ``items`` pairs each key with its cached value (no recency bump,
        no counter effects — :meth:`peek` semantics).  Composite readers
        (the engine's ``stats()``) use this instead of interleaving
        ``keys()`` / ``peek()`` / ``resident_bytes`` calls, whose
        separate lock acquisitions can observe an eviction mid-read.
        """
        with self._lock:
            return {
                "items": [(key, entry.value) for key, entry in self._entries.items()],
                "resident_bytes": self._resident,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }

    def _collect_metrics(self) -> dict:
        """Registry collector; :meth:`stats` is a thin view over it."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "resident_bytes": self._resident,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }

    def stats(self) -> dict:
        return self._obs.read()


class ClaimFile:
    """One ``O_CREAT | O_EXCL`` + TTL-lease claim on a filesystem path.

    The reusable concurrent-writer dedupe primitive: before paying an
    expensive computation whose result lands at a shared path, a worker
    tries :meth:`acquire`; exactly one worker per cluster wins (atomic on
    POSIX and NFS alike) and computes + :meth:`release`, while losers
    :meth:`wait` for the winner's write-through.  Claims are leases, not
    locks: one older than ``ttl`` seconds counts as abandoned (crashed
    writer) and is broken by the next contender — dedupe is best-effort
    and can never deadlock or lose a result.

    :class:`ProductStore` claims products with this;
    :class:`repro.api.artifacts.ArtifactStore` claims whole pipeline
    stage artifacts; :func:`read_archive` claims replica builds.
    """

    #: Seconds after which an unreleased claim counts as abandoned.
    DEFAULT_TTL = 60.0

    def __init__(self, path: Union[str, Path], ttl: float = DEFAULT_TTL):
        self.path = Path(path)
        self.ttl = float(ttl)

    def is_stale(self) -> bool:
        """True when the claim is older than the TTL (abandoned writer)."""
        try:
            age = time.time() - self.path.stat().st_mtime
        except OSError:
            # Vanished between the existence check and stat: the holder
            # finished (or another waiter broke it) — not stale, gone.
            return False
        return age > self.ttl

    def acquire(self) -> bool:
        """Try to become the (single) computer of this path's result.

        Returns True when this process holds the claim and must compute
        + :meth:`release`; False when another live worker holds it (call
        :meth:`wait`).  A stale claim is broken and re-contested once;
        any filesystem error degrades to False — the caller then just
        computes redundantly, which is always safe.
        """
        for _attempt in range(2):
            try:
                fd = os.open(
                    self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644
                )
            except FileExistsError:
                if self.is_stale():
                    try:
                        self.path.unlink(missing_ok=True)
                    except OSError:
                        return False
                    continue  # re-contest the freed claim exactly once
                return False
            except OSError:
                return False
            try:
                os.write(fd, str(os.getpid()).encode())
            except OSError:
                pass
            finally:
                os.close(fd)
            return True
        return False

    def refresh(self) -> None:
        """Renew a held claim's lease (mtime) during long computations.

        Only the claim holder should refresh — a fallback computer must
        never extend a dead writer's lease.
        """
        try:
            os.utime(self.path)
        except OSError:
            pass

    def keepalive(self, interval: Optional[float] = None) -> "_LeaseHeartbeat":
        """Context manager: refresh the lease periodically while held.

        Wrap a computation that may outlive the TTL (featurize trains
        embeddings, fit trains the model) so live holders are never
        mistaken for crashed ones and waiters never duplicate the work.
        A crashed holder's heartbeat dies with its process, so the lease
        still expires — liveness is preserved.  Defaults to a third of
        the TTL.
        """
        return _LeaseHeartbeat(
            self, self.ttl / 3.0 if interval is None else float(interval)
        )

    def release(self) -> None:
        """Drop this process's claim (missing file is fine)."""
        try:
            self.path.unlink(missing_ok=True)
        except OSError:
            pass

    def wait(
        self,
        load: Callable[[], Any],
        timeout: Optional[float] = None,
        poll_interval: float = 0.05,
    ):
        """Poll ``load()`` until it returns non-None; None on timeout.

        Returns as soon as ``load()`` produces a value, or — when the
        claim disappears (writer released) or goes stale (writer died) —
        after one final ``load()``.  ``None`` means the caller should
        compute the result itself.

        With ``timeout=None`` (the default) the wait is bounded by the
        claim's **liveness**, not a fixed clock: as long as the holder
        keeps its lease fresh (:meth:`refresh` / :meth:`keepalive`) the
        waiter keeps waiting — that is the whole point of deduping
        stages longer than the TTL — while a dead holder's lease goes
        stale within ``ttl`` seconds and computation falls back.  Pass
        an explicit ``timeout`` for a hard cap.
        """
        deadline = (
            None if timeout is None else time.monotonic() + float(timeout)
        )
        while True:
            value = load()
            if value is not None:
                return value
            if not self.path.exists() or self.is_stale():
                # Writer finished (released before our load raced it) or
                # died; one last look, then hand computation back.
                return load()
            if deadline is not None and time.monotonic() >= deadline:
                return None
            time.sleep(poll_interval)


class _LeaseHeartbeat:
    """Background lease refresh while a claim holder computes.

    Created by :meth:`ClaimFile.keepalive`; the daemon thread wakes every
    ``interval`` seconds and touches the claim file, and dies promptly on
    exit (``Event.wait`` returns the moment the owner leaves the block).
    """

    def __init__(self, claim: ClaimFile, interval: float):
        self._claim = claim
        self._interval = max(float(interval), 0.01)
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def __enter__(self) -> "_LeaseHeartbeat":
        self._thread = threading.Thread(
            target=self._loop, name="claim-keepalive", daemon=True
        )
        self._thread.start()
        return self

    def _loop(self) -> None:
        while not self._stop.wait(self._interval):
            self._claim.refresh()

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=1.0)
            self._thread = None


class ProductStore:
    """Disk-backed store of composed commuting-matrix products.

    A product is addressed by ``(content_hash, key)`` where
    ``content_hash`` identifies the HIN's edge arrays + schema
    (:func:`repro.hin.io.hin_content_hash`) and ``key`` is the node-type
    tuple of the chain.  Each product is one archive
    (:func:`write_archive`: the CSR packed by :func:`pack_csr`, and a
    header carrying ``format_version``, ``content_hash`` and ``key``,
    all verified on load), so a file that is stale (graph changed),
    corrupt (truncated, garbage), or a filename collision is silently
    treated as a miss — the caller recomposes and rewrites it.

    Loads are mapped (:func:`read_archive` with ``mapped=True``): the
    returned matrix is **read-only and memory-mapped** from the
    archive's replica, which the first load after a write builds, so
    co-located workers sharing a store directory share one page-cache
    copy per product and a warm load never opens the zip.

    Concurrent-writer dedupe
    ------------------------
    Writes are atomic (temp file + ``rename``), so parallel workers can
    never corrupt the store — but without coordination they *race to
    compose* the same product, paying the multiplication once per
    process.  The claim protocol fixes that: before composing, a worker
    calls :meth:`acquire_claim` (an ``O_CREAT | O_EXCL`` sidecar file —
    atomic on POSIX and NFS alike); exactly one worker per cluster wins
    and composes, while the others :meth:`wait_for` the winner's
    write-through and load the finished product from disk.  Claims are
    leases, not locks: a claim older than ``claim_ttl`` seconds is
    considered abandoned (crashed writer) and is broken by the next
    waiter, which then composes itself — dedupe is best-effort and can
    never deadlock or lose a product.
    """

    #: Bumped when the archive layout changes; mismatches read as misses.
    FORMAT_VERSION = 2

    #: Seconds after which an unreleased claim counts as abandoned.
    DEFAULT_CLAIM_TTL = ClaimFile.DEFAULT_TTL

    def __init__(
        self,
        directory: Union[str, Path],
        claim_ttl: float = DEFAULT_CLAIM_TTL,
    ):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.claim_ttl = float(claim_ttl)
        # Telemetry counters sit behind their own leaf lock so the IO
        # paths never run locked (blocking-under-lock rule).
        self._stats_lock = threading.Lock()
        self._loads = 0  # guarded-by: _stats_lock
        self._load_hits = 0  # guarded-by: _stats_lock
        self._saves = 0  # guarded-by: _stats_lock
        self._save_failures = 0  # guarded-by: _stats_lock
        self._obs = obs_metrics.REGISTRY.register("store", self._collect_metrics)

    def _collect_metrics(self) -> dict:
        """Registry collector; :meth:`stats` is a thin view over it."""
        with self._stats_lock:
            return {
                "loads": self._loads,
                "load_hits": self._load_hits,
                "load_misses": self._loads - self._load_hits,
                "saves": self._saves,
                "save_failures": self._save_failures,
            }

    def stats(self) -> dict:
        """Load/save counters for this store instance."""
        return self._obs.read()

    def path_for(self, content_hash: str, key: Sequence[str]) -> Path:
        """Deterministic archive path for one ``(hash, node-type key)``."""
        digest = hashlib.sha256(
            f"v{self.FORMAT_VERSION}|{content_hash}|{'|'.join(key)}".encode()
        ).hexdigest()[:40]
        return self.directory / f"product-{digest}.npz"

    def load(
        self, content_hash: str, key: Sequence[str]
    ) -> Optional[sp.csr_matrix]:
        """The stored CSR product (mapped), or ``None`` on any miss."""
        matrix = self._load_impl(content_hash, key)
        with self._stats_lock:
            self._loads += 1
            if matrix is not None:
                self._load_hits += 1
        return matrix

    def _load_impl(
        self, content_hash: str, key: Sequence[str]
    ) -> Optional[sp.csr_matrix]:
        loaded = read_archive(self.path_for(content_hash, key), mapped=True)
        if loaded is None:
            return None
        header, arrays = loaded
        if (
            header.get("format_version") != self.FORMAT_VERSION
            or header.get("content_hash") != content_hash
            or header.get("key") != [str(t) for t in key]
        ):
            return None
        try:
            return unpack_csr(arrays, "product")
        except ARCHIVE_MISS_ERRORS:
            return None

    def save(
        self, content_hash: str, key: Sequence[str], matrix: sp.spmatrix
    ) -> bool:
        """Atomically persist a product; returns False on I/O failure."""
        arrays: Dict[str, np.ndarray] = {}
        pack_csr(arrays, "product", matrix)
        header = {
            "format_version": self.FORMAT_VERSION,
            "content_hash": content_hash,
            "key": [str(t) for t in key],
        }
        try:
            write_archive(self.path_for(content_hash, key), header, arrays)
            saved = True
        except OSError:
            saved = False
        with self._stats_lock:
            self._saves += 1
            if not saved:
                self._save_failures += 1
        return saved

    # ------------------------------------------------------------------ #
    # Concurrent-writer dedupe (claim protocol)
    # ------------------------------------------------------------------ #

    def claim_path_for(self, content_hash: str, key: Sequence[str]) -> Path:
        """Sidecar claim-file path for one ``(hash, node-type key)``."""
        path = self.path_for(content_hash, key)
        return path.with_name(path.name + ".claim")

    def claim(self, content_hash: str, key: Sequence[str]) -> ClaimFile:
        """The :class:`ClaimFile` guarding one product's composition."""
        return ClaimFile(self.claim_path_for(content_hash, key), self.claim_ttl)

    def acquire_claim(self, content_hash: str, key: Sequence[str]) -> bool:
        """Try to become the (single) composer of one product.

        Returns True when this process holds the claim and must compose
        + :meth:`save` + :meth:`release_claim`; False when another live
        worker holds it (call :meth:`wait_for`).  See
        :meth:`ClaimFile.acquire` for the lease semantics.
        """
        return self.claim(content_hash, key).acquire()

    def refresh_claim(self, content_hash: str, key: Sequence[str]) -> None:
        """Renew a held claim's lease (mtime) during long compositions.

        The engine calls this between a product's sub-compositions and
        its final multiply, so deep chains do not exhaust the TTL while
        their prefixes build.  A single multiplication longer than
        ``claim_ttl`` can still be stolen — dedupe stays best-effort,
        the duplicate compose is the only cost.
        """
        self.claim(content_hash, key).refresh()

    def release_claim(self, content_hash: str, key: Sequence[str]) -> None:
        """Drop this process's claim (missing file is fine)."""
        self.claim(content_hash, key).release()

    def wait_for(
        self,
        content_hash: str,
        key: Sequence[str],
        timeout: Optional[float] = None,
        poll_interval: float = 0.05,
    ) -> Optional[sp.csr_matrix]:
        """Poll for a product another worker claimed; None on timeout.

        Returns as soon as the product loads, or — when the claim
        disappears (writer released) or goes stale (writer died) —
        after one final load attempt.  ``None`` means the caller should
        compose the product itself.
        """
        return self.claim(content_hash, key).wait(
            lambda: self.load(content_hash, key),
            timeout=timeout,
            poll_interval=poll_interval,
        )
