"""Typed, content-addressed artifacts for the staged pipeline.

Every stage of :class:`repro.api.Pipeline` returns one of the dataclasses
below.  An artifact is (a) a plain in-memory result consumed by the next
stage and (b) a serializable unit with a **stable content key**: the HIN
content hash (:func:`repro.hin.io.hin_content_hash`) combined with a
fingerprint of exactly the config fields that influence the stage (see
:data:`STAGE_FIELDS`).  Same dataset + same relevant config ⇒ same key ⇒
a rerun (or a second process sharing the store directory) loads the
artifact instead of recomputing the stage.

Every artifact is one archive of the repo's single format
(:func:`repro.hin.cache.write_archive` / :func:`~repro.hin.cache.read_archive`,
CSR via :func:`~repro.hin.cache.pack_csr`), the same format as
:class:`~repro.hin.cache.ProductStore` products, estimator bundles and
:mod:`repro.core.serialize` checkpoints: numeric payloads round-trip
bit-exactly, headers carry the key and shape metadata, and a corrupt or
stale file reads as a miss.  Artifacts are read onto the heap.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np
import scipy.sparse as sp

from repro.core.config import ConCHConfig
from repro.hin.cache import (
    ARCHIVE_MISS_ERRORS,
    pack_csr,
    read_archive,
    unpack_csr,
    write_archive,
)

#: Bumped when any artifact archive layout changes; mismatches are misses.
#: (2: CSR members are canonical on disk and load without re-sorting.)
FORMAT_VERSION = 2

#: Config fields that influence each stage's output, cumulatively: a
#: stage's fingerprint covers its own fields plus every upstream stage's
#: (changing ``k`` must invalidate enumeration *and* everything after
#: it).  ``fit`` covers the full config — any hyper-parameter change
#: retrains.
STAGE_FIELDS: Dict[str, Tuple[str, ...]] = {
    "discover": (),
    "compose": ("neighbor_strategy",),
    "enumerate": ("k", "use_contexts", "max_instances", "seed"),
    "featurize": (
        "context_dim",
        "embed_num_walks",
        "embed_walk_length",
        "embed_window",
        "embed_epochs",
    ),
    "fit": ("*",),
}

_STAGE_ORDER = ("discover", "compose", "enumerate", "featurize", "fit")


def config_fingerprint(config: ConCHConfig, stage: str) -> str:
    """Stable hash of the config fields a stage (and its upstream) reads."""
    if stage not in STAGE_FIELDS:
        raise KeyError(f"unknown stage {stage!r}; known: {_STAGE_ORDER}")
    payload = dataclasses.asdict(config)
    fields: List[str] = []
    for name in _STAGE_ORDER:
        fields.extend(STAGE_FIELDS[name])
        if name == stage:
            break
    if "*" in fields:
        # Full config minus the pure performance knobs: cache placement
        # and budget cannot change any output (PR 3's eviction/disk
        # equivalence), so they must not break fit-stage resume.
        selected = {
            name: value
            for name, value in payload.items()
            if name not in ("cache_dir", "cache_memory_budget")
        }
    else:
        selected = {name: payload[name] for name in sorted(set(fields))}
    digest = hashlib.sha256(
        json.dumps(selected, sort_keys=True, default=str).encode()
    )
    return digest.hexdigest()[:16]


def stage_key(
    content_hash: str,
    config: ConCHConfig,
    stage: str,
    extra: str = "",
) -> str:
    """The content key of one stage's artifact.

    ``extra`` folds in non-config inputs (the meta-path plan for stages
    downstream of discovery, the split hash for ``fit``).
    """
    digest = hashlib.sha256(
        f"v{FORMAT_VERSION}|{stage}|{content_hash}|"
        f"{config_fingerprint(config, stage)}|{extra}".encode()
    )
    return digest.hexdigest()[:40]


def split_hash(split) -> str:
    """Content hash of a train/val/test split (keys the fit stage)."""
    digest = hashlib.sha256(b"split-v1")
    for part in (split.train, split.val, split.test):
        arr = np.asarray(part, dtype=np.int64)
        digest.update(struct.pack("<q", arr.size))
        digest.update(arr.tobytes())
    return digest.hexdigest()[:16]


def supervision_hash(dataset) -> str:
    """Content hash of the target features + labels (keys the fit stage).

    :func:`repro.hin.io.hin_content_hash` deliberately hashes structure
    only — commuting products never read features or labels.  Training
    *does* read both, so the fit artifact must additionally key on them:
    perturbing labels on an unchanged graph (the label-noise generators
    do exactly this) must not resurrect a bundle trained on the old
    supervision.
    """
    digest = hashlib.sha256(b"supervision-v1")
    features = np.ascontiguousarray(dataset.features, dtype=np.float64)
    labels = np.ascontiguousarray(dataset.labels, dtype=np.int64)
    digest.update(struct.pack("<qq", *features.shape))
    digest.update(features.tobytes())
    digest.update(struct.pack("<q", labels.size))
    digest.update(labels.tobytes())
    return digest.hexdigest()[:16]


class _Artifact:
    """The loader every stage artifact shares (subclasses set ``kind``
    and build themselves in ``_from_archive(header, arrays)``)."""

    kind = ""

    @classmethod
    def load(cls, path: Path):
        """The artifact stored at ``path``, or None on any miss.

        A corrupt file, a version or kind mismatch, and an intact header
        over missing or torn members all read as misses: the pipeline
        recomputes the stage instead of crashing.
        """
        loaded = read_archive(path)
        if loaded is None:
            return None
        header, arrays = loaded
        if header.get("format_version") != FORMAT_VERSION:
            return None
        if header.get("kind") != cls.kind:
            return None
        try:
            return cls._from_archive(header, arrays)
        except ARCHIVE_MISS_ERRORS:
            return None


# ---------------------------------------------------------------------- #
# The artifacts
# ---------------------------------------------------------------------- #


@dataclass
class MetaPathPlan(_Artifact):
    """``discover`` output: the meta-path set the pipeline will run on."""

    key: str
    node_types: List[Tuple[str, ...]]
    names: List[str]
    #: "dataset" (the bundle's declared meta-paths) or "discovery"
    #: (schema search via repro.hin.discovery).
    source: str = "dataset"

    kind = "discover"

    def metapaths(self):
        from repro.hin.metapath import MetaPath

        return [
            MetaPath(types, name=name)
            for types, name in zip(self.node_types, self.names)
        ]

    def plan_fingerprint(self) -> str:
        """Keys downstream stages: the plan itself is an input to them."""
        joined = ";".join("-".join(types) for types in self.node_types)
        return hashlib.sha256(joined.encode()).hexdigest()[:16]

    def save(self, path: Path) -> None:
        header = {
            "format_version": FORMAT_VERSION,
            "kind": self.kind,
            "key": self.key,
            "node_types": [list(t) for t in self.node_types],
            "names": self.names,
            "source": self.source,
        }
        write_archive(path, header, {})

    @classmethod
    def _from_archive(cls, header, arrays) -> "MetaPathPlan":
        return cls(
            key=header["key"],
            node_types=[tuple(t) for t in header["node_types"]],
            names=list(header["names"]),
            source=header.get("source", "dataset"),
        )


@dataclass
class ComposeReport(_Artifact):
    """``compose`` output: which commuting products back this plan.

    The matrices themselves live in the :class:`CommutingEngine` (and its
    :class:`~repro.hin.cache.ProductStore` when a store directory is
    configured) — this artifact records the *ledger*: per meta-path, the
    product key, its nnz, and the measured compose cost.  Reloading it on
    a warm store proves the stage can be skipped; the products
    re-materialize lazily from disk on first access.
    """

    key: str
    product_keys: List[Tuple[str, ...]]
    nnz: List[int]
    compose_seconds: List[float]
    composed: int  # multiplications actually run this time (0 = warm)

    kind = "compose"

    def save(self, path: Path) -> None:
        header = {
            "format_version": FORMAT_VERSION,
            "kind": self.kind,
            "key": self.key,
            "product_keys": [list(k) for k in self.product_keys],
            "nnz": [int(n) for n in self.nnz],
            "compose_seconds": [float(s) for s in self.compose_seconds],
            "composed": int(self.composed),
        }
        write_archive(path, header, {})

    @classmethod
    def _from_archive(cls, header, arrays) -> "ComposeReport":
        return cls(
            key=header["key"],
            product_keys=[tuple(k) for k in header["product_keys"]],
            nnz=list(header["nnz"]),
            compose_seconds=list(header["compose_seconds"]),
            composed=int(header["composed"]),
        )


@dataclass
class ContextSet(_Artifact):
    """``enumerate`` output: retained pairs + flat context batches.

    One entry per meta-path: the neighbor filter's retained ``(u, v)``
    pairs, and — when contexts are enabled — the enumeration kernel's
    flat instance arrays (:class:`repro.hin.context.ContextBatch` fields),
    which round-trip bit-exactly through the archive.
    """

    key: str
    pairs: List[np.ndarray]                    # (m, 2) per meta-path
    instance_ids: List[Optional[np.ndarray]]   # (total, L) or None
    indptr: List[Optional[np.ndarray]]
    total_counts: List[Optional[np.ndarray]]
    truncated: List[Optional[np.ndarray]]

    kind = "enumerate"

    @property
    def num_metapaths(self) -> int:
        return len(self.pairs)

    def batch(self, index: int, metapath) -> Optional["object"]:
        """Rebuild one meta-path's :class:`ContextBatch` (None = nc mode)."""
        from repro.hin.context import ContextBatch

        if self.instance_ids[index] is None:
            return None
        return ContextBatch(
            metapath=metapath,
            pairs=self.pairs[index],
            instance_ids=self.instance_ids[index],
            indptr=self.indptr[index],
            total_counts=self.total_counts[index],
            truncated=self.truncated[index],
        )

    def save(self, path: Path) -> None:
        arrays: Dict[str, np.ndarray] = {}
        has_batch = []
        for i in range(self.num_metapaths):
            arrays[f"mp{i}/pairs"] = self.pairs[i]
            if self.instance_ids[i] is not None:
                arrays[f"mp{i}/instance_ids"] = self.instance_ids[i]
                arrays[f"mp{i}/indptr"] = self.indptr[i]
                arrays[f"mp{i}/total_counts"] = self.total_counts[i]
                arrays[f"mp{i}/truncated"] = self.truncated[i]
                has_batch.append(True)
            else:
                has_batch.append(False)
        header = {
            "format_version": FORMAT_VERSION,
            "kind": self.kind,
            "key": self.key,
            "num_metapaths": self.num_metapaths,
            "has_batch": has_batch,
        }
        write_archive(path, header, arrays)

    @classmethod
    def _from_archive(cls, header, arrays) -> "ContextSet":
        pairs, ids, indptr, totals, truncated = [], [], [], [], []
        for i in range(int(header["num_metapaths"])):
            pairs.append(arrays[f"mp{i}/pairs"])
            has_batch = header["has_batch"][i]
            for name, out in (
                ("instance_ids", ids),
                ("indptr", indptr),
                ("total_counts", totals),
                ("truncated", truncated),
            ):
                out.append(arrays[f"mp{i}/{name}"] if has_batch else None)
        return cls(
            key=header["key"],
            pairs=pairs,
            instance_ids=ids,
            indptr=indptr,
            total_counts=totals,
            truncated=truncated,
        )


@dataclass
class FeatureSet(_Artifact):
    """``featurize`` output: everything the trainer consumes.

    Per meta-path: the object×context incidence, the Eq.-3 context
    features, and the filtered neighbor adjacency (the ``ConCH_nc``
    operator).  Object features and labels are *not* stored — they are
    dataset-derived, exactly like :mod:`repro.core.serialize` treats
    model-adjacent data — so :meth:`to_conch_data` takes the dataset and
    reassembles a :class:`~repro.core.trainer.ConCHData` bit-identical
    to an in-memory run.
    """

    key: str
    metapath_node_types: List[Tuple[str, ...]]
    metapath_names: List[str]
    incidence: List[sp.csr_matrix]
    context_features: List[np.ndarray]
    neighbor_adj: List[sp.csr_matrix]
    truncated_contexts: List[int]
    substrate_stats: Dict[str, int] = field(default_factory=dict)

    kind = "featurize"

    def to_conch_data(self, dataset, preprocess_seconds: float = 0.0):
        from repro.core.trainer import ConCHData, MetaPathData
        from repro.hin.metapath import MetaPath

        metapath_data = [
            MetaPathData(
                metapath=MetaPath(types, name=name),
                incidence=self.incidence[i],
                context_features=self.context_features[i],
                neighbor_adj=self.neighbor_adj[i],
                truncated_contexts=self.truncated_contexts[i],
            )
            for i, (types, name) in enumerate(
                zip(self.metapath_node_types, self.metapath_names)
            )
        ]
        return ConCHData(
            name=dataset.name,
            features=dataset.features,
            labels=dataset.labels,
            num_classes=dataset.num_classes,
            metapath_data=metapath_data,
            preprocess_seconds=preprocess_seconds,
            substrate_stats=dict(self.substrate_stats),
        )

    @classmethod
    def from_conch_data(cls, key: str, data) -> "FeatureSet":
        return cls(
            key=key,
            metapath_node_types=[
                tuple(m.metapath.node_types) for m in data.metapath_data
            ],
            metapath_names=[m.metapath.name for m in data.metapath_data],
            incidence=[m.incidence for m in data.metapath_data],
            context_features=[m.context_features for m in data.metapath_data],
            neighbor_adj=[m.neighbor_adj for m in data.metapath_data],
            truncated_contexts=[m.truncated_contexts for m in data.metapath_data],
            substrate_stats=dict(data.substrate_stats),
        )

    def save(self, path: Path) -> None:
        arrays: Dict[str, np.ndarray] = {}
        for i in range(len(self.metapath_names)):
            pack_csr(arrays, f"mp{i}/incidence", self.incidence[i])
            pack_csr(arrays, f"mp{i}/neighbor_adj", self.neighbor_adj[i])
            arrays[f"mp{i}/context_features"] = self.context_features[i]
        header = {
            "format_version": FORMAT_VERSION,
            "kind": self.kind,
            "key": self.key,
            "metapath_node_types": [list(t) for t in self.metapath_node_types],
            "metapath_names": self.metapath_names,
            "truncated_contexts": [int(t) for t in self.truncated_contexts],
            "substrate_stats": {
                k: int(v) for k, v in self.substrate_stats.items()
            },
        }
        write_archive(path, header, arrays)

    @classmethod
    def _from_archive(cls, header, arrays) -> "FeatureSet":
        count = len(header["metapath_names"])
        return cls(
            key=header["key"],
            metapath_node_types=[
                tuple(t) for t in header["metapath_node_types"]
            ],
            metapath_names=list(header["metapath_names"]),
            incidence=[unpack_csr(arrays, f"mp{i}/incidence") for i in range(count)],
            context_features=[
                arrays[f"mp{i}/context_features"] for i in range(count)
            ],
            neighbor_adj=[
                unpack_csr(arrays, f"mp{i}/neighbor_adj") for i in range(count)
            ],
            truncated_contexts=list(header["truncated_contexts"]),
            substrate_stats=dict(header.get("substrate_stats", {})),
        )


#: kind string → artifact class, for the store's generic loader.
ARTIFACT_KINDS = {
    cls.kind: cls for cls in (MetaPathPlan, ComposeReport, ContextSet, FeatureSet)
}


class ArtifactStore:
    """Directory of content-addressed stage artifacts.

    Files are ``<kind>-<key>.npz``; a missing, corrupt, or key-mismatched
    file reads as a miss (the pipeline recomputes and rewrites — the
    exact contract :class:`~repro.hin.cache.ProductStore` uses for
    products).

    Stage-level claim dedupe
    ------------------------
    Writes are atomic and last-writer-wins, so concurrent pipelines can
    never corrupt the store — but two cold workers would both *pay* an
    expensive stage (featurize trains metapath2vec) before one's
    write-through landed.  :meth:`claim` extends the product store's
    claim protocol (:class:`repro.hin.cache.ClaimFile` — ``O_CREAT |
    O_EXCL`` sidecar + TTL lease) to whole stage artifacts: exactly one
    worker per cluster computes a given ``(kind, key)``, the rest
    :meth:`wait_for` its artifact and load it.  Claims are best-effort
    leases — a crashed writer's claim goes stale after ``claim_ttl``
    seconds and the next waiter computes itself, so dedupe can never
    deadlock or lose a stage.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        claim_ttl: Optional[float] = None,
    ):
        from repro.hin.cache import ClaimFile

        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.claim_ttl = (
            ClaimFile.DEFAULT_TTL if claim_ttl is None else float(claim_ttl)
        )

    def path_for(self, kind: str, key: str) -> Path:
        return self.directory / f"{kind}-{key}.npz"

    def get(self, kind: str, key: str):
        """The stored artifact for ``(kind, key)``, or None."""
        cls = ARTIFACT_KINDS[kind]
        path = self.path_for(kind, key)
        if not path.exists():
            return None
        artifact = cls.load(path)
        if artifact is None or artifact.key != key:
            return None
        return artifact

    def put(self, artifact) -> Path:
        """Persist an artifact under its content key; returns the path."""
        path = self.path_for(artifact.kind, artifact.key)
        artifact.save(path)
        return path

    def claim(self, kind: str, key: str):
        """The :class:`~repro.hin.cache.ClaimFile` guarding one artifact.

        ``claim(...)`` works for fit bundles too (any ``kind`` string) —
        the claim file sits next to where :meth:`path_for` would write.
        """
        from repro.hin.cache import ClaimFile

        path = self.path_for(kind, key)
        return ClaimFile(path.with_name(path.name + ".claim"), self.claim_ttl)

    def wait_for(
        self,
        kind: str,
        key: str,
        timeout: Optional[float] = None,
        poll_interval: float = 0.05,
    ):
        """Poll for an artifact another worker claimed; None on timeout.

        ``None`` means the caller should compute the stage itself (the
        writer died or never wrote) — mirroring
        :meth:`repro.hin.cache.ProductStore.wait_for`.
        """
        return self.claim(kind, key).wait(
            lambda: self.get(kind, key),
            timeout=timeout,
            poll_interval=poll_interval,
        )
