"""The staged ConCH pipeline: ``discover → compose → enumerate → featurize → fit``.

The paper's method is inherently staged — find meta-paths, compose their
commuting matrices, enumerate meta-path contexts, build context features,
train — but the legacy surface exposed it as one monolithic
``prepare_conch_data`` call.  :class:`Pipeline` names each stage, gives
each a typed artifact (:mod:`repro.api.artifacts`) with a stable content
key, and persists those artifacts (plus the composed products, through
the engine's :class:`~repro.hin.cache.ProductStore`) under a store
directory — so a rerun, or a second process sharing the directory, skips
every completed stage and reproduces results bit-exactly.

Stage graph and what each stage owns::

    discover   which meta-paths (dataset's declared set, or schema search)
    compose    commuting-matrix products for the plan (engine + ProductStore)
    enumerate  neighbor filtering (retained pairs) + context enumeration
    featurize  metapath2vec embeddings → Eq.-3 context features,
               incidence and neighbor-adjacency operators
    fit        estimator training on a split (repro.api.estimator)

``prepare_conch_data`` survives as a thin shim over the first four
stages (run in memory when no store is configured), so every legacy
call site keeps its exact behavior.

Example
-------
>>> from repro.api import Pipeline
>>> pipe = Pipeline("dblp", store_dir="runs/dblp")      # doctest: +SKIP
>>> est = pipe.fit(train_fraction=0.1)                  # doctest: +SKIP
>>> est.evaluate(pipe.split.test)                       # doctest: +SKIP
...   # second run: all stages load from runs/dblp, zero products composed
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.api.artifacts import (
    ArtifactStore,
    ComposeReport,
    ContextSet,
    FeatureSet,
    MetaPathPlan,
    split_hash,
    stage_key,
    supervision_hash,
)
from repro.core.config import ConCHConfig
from repro.data.base import HINDataset
from repro.data.splits import Split, stratified_split
from repro.hin.engine import CommutingEngine, get_engine
from repro.hin.io import hin_content_hash
from repro.hin.metapath import MetaPath
from repro.obs import metrics as obs_metrics
from repro.obs.trace import TRACER

#: Stage names, in execution order.
STAGES = ("discover", "compose", "enumerate", "featurize", "fit")


@dataclass
class StageEvent:
    """One stage execution: what ran (or loaded) and how long it took.

    Stages that were never *entered* log nothing: when featurize loads
    from the store, compose/enumerate are bypassed entirely, so a fully
    warm resume logs exactly discover/featurize/fit as ``loaded``.
    ``waited`` means another worker held the stage's claim and this
    pipeline loaded its write-through instead of recomputing (the
    cluster-wide stage dedupe; see ``ArtifactStore.claim``).
    ``patched`` means :meth:`Pipeline.ingest` updated the stage's
    artifact incrementally from an edge delta instead of recomputing it
    from scratch.

    ``seconds`` is the stage's *own* work: an upstream stage entered
    from inside it (featurize → enumerate → compose) logs its own event
    and stays off the downstream stage's clock, so summing a run's
    events never counts a second twice.

    ``duration_s`` mirrors ``seconds`` under the span-tier field name
    (every :class:`repro.obs.Span` carries ``duration_s``); events are
    also re-emitted as ``pipeline.<stage>`` spans when tracing is on,
    so a resumed run's trace shows ``loaded`` stages at near-zero cost
    next to the ``computed`` ones that paid.
    """

    stage: str
    key: str
    action: str          # "computed" | "loaded" | "waited" | "patched"
    seconds: float
    detail: Dict[str, object] = field(default_factory=dict)
    duration_s: float = 0.0

    def __post_init__(self) -> None:
        if self.duration_s == 0.0:
            self.duration_s = self.seconds


def _timed(stage):
    """Run an upstream stage; returns ``(result, seconds)``."""
    started = time.perf_counter()
    result = stage()
    return result, time.perf_counter() - started


def _resolve_dataset(dataset: Union[str, HINDataset], seed: int) -> HINDataset:
    if isinstance(dataset, str):
        from repro.data.registry import load_dataset

        return load_dataset(dataset, seed=seed)
    return dataset


def default_config(dataset: Union[str, HINDataset], **overrides) -> ConCHConfig:
    """A :class:`ConCHConfig` with the dataset's per-paper hyper-parameters.

    For registered dataset names this applies the §V-C per-dataset ``k``,
    ``L``, context dim and λ from :mod:`repro.data.registry`; for ad-hoc
    :class:`HINDataset` instances it falls back to the global defaults.
    """
    from repro.data.registry import default_conch_config

    name = dataset if isinstance(dataset, str) else dataset.name
    return default_conch_config(name, **overrides)


class Pipeline:
    """Staged, resumable facade over the ConCH preprocessing + training.

    Parameters
    ----------
    dataset:
        A registered dataset name (loaded with its paper defaults) or a
        prepared :class:`HINDataset`.
    config:
        ConCH hyper-parameters; defaults to :func:`default_config` for
        the dataset.
    store_dir:
        Directory for stage artifacts (``artifacts/``) and composed
        commuting products (``products/``, wired into the engine's
        :class:`~repro.hin.cache.ProductStore`).  ``None`` runs fully in
        memory — stages still execute in order, nothing persists.
    discover_source:
        ``"dataset"`` uses the bundle's declared meta-paths;
        ``"discovery"`` runs the schema search
        (:func:`repro.hin.discovery.discover_metapaths`).
    seed:
        Dataset-generation seed when ``dataset`` is a name.

    Attributes
    ----------
    stage_log:
        :class:`StageEvent` per stage execution — the resume audit trail
        (``action == "loaded"`` means the stage was skipped).
    """

    def __init__(
        self,
        dataset: Union[str, HINDataset],
        config: Optional[ConCHConfig] = None,
        store_dir: Optional[Union[str, Path]] = None,
        discover_source: str = "dataset",
        seed: int = 0,
    ):
        if discover_source not in ("dataset", "discovery"):
            raise ValueError(
                f"unknown discover_source {discover_source!r}; "
                "expected 'dataset' or 'discovery'"
            )
        self.dataset = _resolve_dataset(dataset, seed)
        self.config = config if config is not None else default_config(self.dataset)
        self.discover_source = discover_source
        self.store_dir = Path(store_dir) if store_dir is not None else None
        self.store: Optional[ArtifactStore] = (
            ArtifactStore(self.store_dir / "artifacts")
            if self.store_dir is not None
            else None
        )
        self.stage_log: List[StageEvent] = []
        self._plan: Optional[MetaPathPlan] = None
        self._compose_report: Optional[ComposeReport] = None
        self._context_set: Optional[ContextSet] = None
        self._feature_set: Optional[FeatureSet] = None
        self._data = None  # ConCHData, assembled by featurize()
        self._embeddings: Optional[Dict[str, np.ndarray]] = None
        #: True when featurize ran on caller-supplied embeddings: those
        #: features are outside the content key, so neither the
        #: featurize artifact nor a fit bundle derived from them may be
        #: stored under (or loaded from) the canonical keys.
        self._off_key_features = False

    # -------------------------------------------------------------- #
    # Shared plumbing
    # -------------------------------------------------------------- #

    @property
    def engine(self) -> CommutingEngine:
        """The dataset's shared commuting engine, wired to the store.

        With a store directory, composed products write through to
        ``<store_dir>/products`` (unless the config names an explicit
        ``cache_dir``, which wins); the config's memory budget applies
        either way.
        """
        kwargs: Dict[str, object] = {}
        if self.config.cache_memory_budget is not None:
            kwargs["memory_budget"] = self.config.cache_memory_budget
        cache_dir = self.config.cache_dir
        if cache_dir is None and self.store_dir is not None:
            cache_dir = str(self.store_dir / "products")
        if cache_dir is not None:
            kwargs["cache_dir"] = cache_dir
        return get_engine(self.dataset.hin, **kwargs)

    def _content_hash(self) -> str:
        return hin_content_hash(self.dataset.hin)

    def _key(self, stage: str, extra: str = "") -> str:
        return stage_key(self._content_hash(), self.config, stage, extra=extra)

    def _load(self, kind: str, key: str):
        if self.store is None:
            return None
        return self.store.get(kind, key)

    def _persist(self, artifact) -> None:
        if self.store is not None:
            self.store.put(artifact)

    def _log(self, stage: str, key: str, action: str, seconds: float, **detail):
        self.stage_log.append(
            StageEvent(
                stage=stage, key=key, action=action, seconds=seconds,
                detail=dict(detail),
            )
        )
        obs_metrics.REGISTRY.counter(
            f"repro_pipeline_stage_{action}_total",
            help=f"Pipeline stage executions with action={action}",
        ).inc()
        obs_metrics.REGISTRY.histogram(
            "repro_pipeline_stage_seconds",
            help="Wall-clock seconds per pipeline stage execution",
        ).observe(seconds)
        if TRACER.enabled:
            # Re-emit the stage event as a retroactive span: the stage
            # just finished, so its end is "now" and its start follows
            # from the measured duration.
            end_s = time.perf_counter()
            TRACER.record(
                f"pipeline.{stage}",
                start_s=end_s - max(seconds, 0.0),
                end_s=end_s,
                parent=TRACER.current_context(),
                attrs={"action": action, "key": key},
            )

    def _claimed_compute(self, kind: str, key: str, compute, persist=True):
        """Compute one stage's artifact with cluster-wide claim dedupe.

        Returns ``(artifact, action)`` where action is ``"computed"``
        (this worker paid the stage) or ``"waited"`` (another worker
        held the stage's claim; we loaded its write-through — the
        product store's dedupe protocol extended to whole stages, so
        two cold pipelines sharing a store never both pay featurize).
        A dead writer's stale claim times out and computation falls
        back to us; without a store (or for off-key artifacts) this is
        a plain compute.
        """
        if self.store is None or not persist:
            return compute(), "computed"
        claim = self.store.claim(kind, key)
        if claim.acquire():
            try:
                # Heartbeat the lease: a stage slower than the TTL
                # (featurize trains embeddings) must not look abandoned
                # to waiters — only a genuinely dead holder expires.
                with claim.keepalive():
                    artifact = compute()
                self.store.put(artifact)
            finally:
                claim.release()
            return artifact, "computed"
        artifact = self.store.wait_for(kind, key)
        if artifact is not None:
            return artifact, "waited"
        artifact = compute()
        self.store.put(artifact)
        return artifact, "computed"

    # -------------------------------------------------------------- #
    # Stage 1: discover
    # -------------------------------------------------------------- #

    def discover(self) -> MetaPathPlan:  # fingerprint-stage: discover
        """Decide the meta-path set (declared or schema-searched)."""
        if self._plan is not None:
            return self._plan
        extra = self.discover_source
        if self.discover_source == "dataset":
            # The declared set is an *input* here (not derivable from the
            # graph structure the content hash covers): editing
            # dataset.metapaths on an unchanged graph must miss.
            declared = ";".join(
                "-".join(m.node_types) for m in self.dataset.metapaths
            )
            extra = f"{extra}|{declared}"
        key = self._key("discover", extra=extra)
        started = time.perf_counter()
        cached = self._load("discover", key)
        if cached is not None:
            self._plan = cached
            self._log("discover", key, "loaded", time.perf_counter() - started)
            return cached
        def build() -> MetaPathPlan:
            if self.discover_source == "discovery":
                from repro.hin.discovery import discover_metapaths

                metapaths = discover_metapaths(
                    self.dataset.hin, self.dataset.target_type
                )
                if not metapaths:
                    raise RuntimeError(
                        f"meta-path discovery found nothing for "
                        f"{self.dataset.name!r}; use the dataset's declared set"
                    )
            else:
                metapaths = list(self.dataset.metapaths)
            return MetaPathPlan(
                key=key,
                node_types=[tuple(m.node_types) for m in metapaths],
                names=[m.name for m in metapaths],
                source=self.discover_source,
            )

        plan, action = self._claimed_compute("discover", key, build)
        self._plan = plan
        self._log(
            "discover", key, action, time.perf_counter() - started,
            metapaths=plan.names,
        )
        return plan

    # -------------------------------------------------------------- #
    # Stage 2: compose
    # -------------------------------------------------------------- #

    def compose(self) -> ComposeReport:  # fingerprint-stage: compose
        """Materialize each meta-path's commuting product in the engine.

        With a store directory, products write through to disk, so any
        later process (or stage) finds them warm; on an already-warm
        store this stage composes **zero** products — every matrix loads.
        """
        if self._compose_report is not None:
            return self._compose_report
        plan = self.discover()
        key = self._key("compose", extra=plan.plan_fingerprint())
        started = time.perf_counter()
        cached = self._load("compose", key)
        if cached is not None:
            self._compose_report = cached
            self._log("compose", key, "loaded", time.perf_counter() - started)
            return cached
        def build() -> ComposeReport:
            engine = self.engine
            before = len(engine.compose_log)
            product_keys, nnz, seconds = [], [], []
            for metapath in plan.metapaths():
                product = engine.counts(metapath)
                product_key = tuple(metapath.node_types)
                product_keys.append(product_key)
                nnz.append(int(product.nnz))
                seconds.append(engine.compose_seconds.get(product_key, 0.0))
            return ComposeReport(
                key=key,
                product_keys=product_keys,
                nnz=nnz,
                compose_seconds=seconds,
                composed=len(engine.compose_log) - before,
            )

        report, action = self._claimed_compute("compose", key, build)
        self._compose_report = report
        self._log(
            "compose", key, action, time.perf_counter() - started,
            composed=report.composed,
        )
        return report

    # -------------------------------------------------------------- #
    # Stage 3: enumerate
    # -------------------------------------------------------------- #

    def enumerate(self) -> ContextSet:  # fingerprint-stage: enumerate
        """Neighbor filtering + per-pair context enumeration."""
        if self._context_set is not None:
            return self._context_set
        plan = self.discover()
        key = self._key("enumerate", extra=plan.plan_fingerprint())
        started = time.perf_counter()
        cached = self._load("enumerate", key)
        if cached is not None:
            self._context_set = cached
            self._log("enumerate", key, "loaded", time.perf_counter() - started)
            return cached
        upstream_s = 0.0

        def build() -> ContextSet:
            nonlocal upstream_s
            # Products first (warm store ⇒ zero compositions); compose
            # logs its own time, so it stays off this stage's clock.
            _, upstream_s = _timed(self.compose)
            from repro.hin.context import enumerate_contexts
            from repro.hin.neighbors import NeighborFilter

            config = self.config
            neighbor_filter = NeighborFilter(
                k=config.k, strategy=config.neighbor_strategy
            )
            # One rng across meta-paths, matching the legacy monolith's
            # draw order exactly (only the "random" strategy consumes it).
            rng = np.random.default_rng(config.seed)
            hin = self.dataset.hin
            pairs_list, ids_list, indptr_list = [], [], []
            totals_list, truncated_list = [], []
            for metapath in plan.metapaths():
                # Same guard the legacy build_bipartite_graph enforced:
                # pair ids below index target-type objects, so an
                # unanchored meta-path must fail loudly here, not
                # corrupt the incidence.
                if not metapath.endpoints_match(self.dataset.target_type):
                    raise ValueError(
                        f"meta-path {metapath.name!r} must start and end "
                        f"at the target type"
                    )
                pairs = neighbor_filter.retained_pairs(hin, metapath, rng=rng)
                pairs_list.append(pairs)
                if config.use_contexts:
                    batch = enumerate_contexts(
                        hin, metapath, pairs,
                        max_instances=config.max_instances,
                    )
                    ids_list.append(batch.instance_ids)
                    indptr_list.append(batch.indptr)
                    totals_list.append(batch.total_counts)
                    truncated_list.append(batch.truncated)
                else:
                    ids_list.append(None)
                    indptr_list.append(None)
                    totals_list.append(None)
                    truncated_list.append(None)
            return ContextSet(
                key=key,
                pairs=pairs_list,
                instance_ids=ids_list,
                indptr=indptr_list,
                total_counts=totals_list,
                truncated=truncated_list,
            )

        context_set, action = self._claimed_compute("enumerate", key, build)
        self._context_set = context_set
        self._log(
            "enumerate", key, action,
            time.perf_counter() - started - upstream_s,
            pairs=[int(p.shape[0]) for p in context_set.pairs],
        )
        return context_set

    # -------------------------------------------------------------- #
    # Stage 4: featurize
    # -------------------------------------------------------------- #

    def featurize(  # fingerprint-stage: featurize
        self, embeddings: Optional[Dict[str, np.ndarray]] = None
    ) -> FeatureSet:
        """Context features + incidence/neighbor operators (→ ConCHData).

        ``embeddings`` optionally supplies precomputed per-type initial
        embeddings (else metapath2vec trains here, as in the paper).
        """
        supplied_embeddings = embeddings is not None
        if self._feature_set is not None and not supplied_embeddings:
            return self._feature_set
        plan = self.discover()
        key = self._key("featurize", extra=plan.plan_fingerprint())
        started = time.perf_counter()
        if not supplied_embeddings:
            cached = self._load("featurize", key)
            if cached is not None:
                self._feature_set = cached
                self._log(
                    "featurize", key, "loaded", time.perf_counter() - started
                )
                return cached
        upstream_s = 0.0

        def build() -> FeatureSet:
            nonlocal upstream_s
            # Enumerate (and the compose under it) log their own time,
            # so they stay off this stage's clock.
            context_set, upstream_s = _timed(self.enumerate)
            from repro.core.bipartite_conv import neighbor_adjacency_from_pairs
            from repro.core.context_features import build_context_features
            from repro.core.trainer import ConCHData, MetaPathData
            from repro.hin.bipartite import BipartiteGraph, incidence_from_pairs

            config = self.config
            dataset = self.dataset
            metapaths = plan.metapaths()
            embeds = embeddings
            if config.use_contexts and embeds is None:
                from repro.embedding.metapath2vec import metapath2vec_embeddings

                embeds = metapath2vec_embeddings(
                    dataset.hin,
                    metapaths,
                    dim=config.context_dim,
                    num_walks=config.embed_num_walks,
                    walk_length=config.embed_walk_length,
                    window=config.embed_window,
                    epochs=config.embed_epochs,
                    seed=config.seed,
                )
            self._embeddings = embeds
            num_objects = dataset.num_targets
            metapath_data: List[MetaPathData] = []
            for index, metapath in enumerate(metapaths):
                pairs = context_set.pairs[index]
                incidence = incidence_from_pairs(pairs, num_objects)
                batch = context_set.batch(index, metapath)
                bipartite = BipartiteGraph(
                    metapath=metapath,
                    num_objects=num_objects,
                    pairs=pairs,
                    incidence=incidence,
                    context_batch=batch,
                )
                if config.use_contexts:
                    context_features = build_context_features(bipartite, embeds)
                    truncated = int(batch.truncated.sum())
                else:
                    context_features = np.zeros(
                        (bipartite.num_contexts, config.context_dim)
                    )
                    truncated = 0
                metapath_data.append(
                    MetaPathData(
                        metapath=metapath,
                        incidence=incidence,
                        context_features=context_features,
                        neighbor_adj=neighbor_adjacency_from_pairs(
                            pairs, num_objects
                        ),
                        truncated_contexts=truncated,
                    )
                )
            data = ConCHData(
                name=dataset.name,
                features=dataset.features,
                labels=dataset.labels,
                num_classes=dataset.num_classes,
                metapath_data=metapath_data,
                substrate_stats=self.engine.stats(),
            )
            self._data = data
            return FeatureSet.from_conch_data(key, data)

        # Caller-supplied embeddings are outside the content key: never
        # store that artifact as if it were the canonical metapath2vec
        # run (it would poison every later resume) — and never claim it
        # either, so an off-key run can't block the canonical one.
        self._off_key_features = supplied_embeddings
        feature_set, action = self._claimed_compute(
            "featurize", key, build, persist=not supplied_embeddings
        )
        self._feature_set = feature_set
        self._log(
            "featurize", key, action,
            time.perf_counter() - started - upstream_s,
        )
        return feature_set

    # -------------------------------------------------------------- #
    # Composite prep + stage 5: fit
    # -------------------------------------------------------------- #

    def prepare(self, embeddings: Optional[Dict[str, np.ndarray]] = None):
        """Run ``discover → compose → enumerate → featurize``; ConCHData.

        This is the staged equivalent of the legacy monolithic
        ``prepare_conch_data`` (which now delegates here) and produces a
        bit-identical :class:`~repro.core.trainer.ConCHData`.
        """
        started = time.perf_counter()
        feature_set = self.featurize(embeddings=embeddings)
        if self._data is None:  # featurize was loaded, not computed
            self._data = feature_set.to_conch_data(self.dataset)
        self._data.preprocess_seconds = time.perf_counter() - started
        self._data.substrate_stats = self.engine.stats()
        return self._data

    @property
    def data(self):
        """The prepared :class:`ConCHData` (runs the prep stages once)."""
        if self._data is None:
            self.prepare()
        return self._data

    # -------------------------------------------------------------- #
    # Delta ingest: patch prepared artifacts after an edge-batch edit
    # -------------------------------------------------------------- #

    def ingest(
        self,
        delta,
        embeddings: Optional[Dict[str, np.ndarray]] = None,
    ) -> List[StageEvent]:
        """Apply an :class:`~repro.hin.graph.EdgeDelta` and patch stages.

        Applies the delta to the dataset's HIN (bumping its version and
        chaining the content hash), lets the engine patch its cached
        products row-wise, re-enumerates only the contexts whose
        full-chain product rows changed, and splices the context-feature
        rows of unaffected pairs — producing artifacts bit-identical to
        a cold :meth:`prepare` on the mutated graph under the same
        initial embeddings.  Each patched stage logs a
        :class:`StageEvent` with ``action == "patched"`` under the
        post-delta content key, so a later resume from the store is warm.

        Initial embeddings are *not* retrained: the incremental path
        keeps the embeddings featurize ran with (or ``embeddings`` when
        given), which is exactly the live-serving contract.  When no
        embeddings are available (featurize was loaded from a store by
        another process) and contexts are enabled, featurize falls back
        to a full recompute and logs ``"computed"``.

        Requires a prepared pipeline; returns the events it logged.
        The fit stage is untouched — refresh a served model with
        :meth:`repro.api.serving.ModelHandle.refresh`.
        """
        if self._plan is None or self._context_set is None:
            raise RuntimeError(
                "ingest() needs a prepared pipeline; call prepare() first"
            )
        from repro.hin.context import patch_context_batch
        from repro.hin.neighbors import NeighborFilter

        engine = self.engine  # bind pre-delta so ingest sees the chain
        hin = self.dataset.hin
        config = self.config
        events_before = len(self.stage_log)
        record = hin.apply_delta(delta)

        # --- discover: the plan is graph-independent; re-key it. ------
        started = time.perf_counter()
        extra = self.discover_source
        if self.discover_source == "dataset":
            declared = ";".join(
                "-".join(m.node_types) for m in self.dataset.metapaths
            )
            extra = f"{extra}|{declared}"
        plan = MetaPathPlan(
            key=self._key("discover", extra=extra),
            node_types=list(self._plan.node_types),
            names=list(self._plan.names),
            source=self._plan.source,
        )
        self._persist(plan)
        self._plan = plan
        self._log(
            "discover", plan.key, "patched", time.perf_counter() - started,
            metapaths=plan.names,
        )

        # --- compose: the engine patches dirty product rows in place. -
        started = time.perf_counter()
        key = self._key("compose", extra=plan.plan_fingerprint())
        before = len(engine.compose_log)
        patched_before = len(engine.patch_log)
        metapaths = plan.metapaths()
        dirty: Dict[int, np.ndarray] = {}
        product_keys, nnz, seconds = [], [], []
        for index, metapath in enumerate(metapaths):
            # First engine touch syncs it: row-scoped patch, or a full
            # invalidation when the delta dirties too much of the graph.
            dirty[index] = engine.dirty_rows(
                tuple(metapath.node_types), [record]
            )
            product = engine.counts(metapath)
            product_key = tuple(metapath.node_types)
            product_keys.append(product_key)
            nnz.append(int(product.nnz))
            seconds.append(engine.compose_seconds.get(product_key, 0.0))
        report = ComposeReport(
            key=key,
            product_keys=product_keys,
            nnz=nnz,
            compose_seconds=seconds,
            composed=len(engine.compose_log) - before,
        )
        self._persist(report)
        self._compose_report = report
        self._log(
            "compose", key, "patched", time.perf_counter() - started,
            composed=report.composed,
            patched_products=len(engine.patch_log) - patched_before,
        )

        # --- enumerate: re-enumerate only dirty-rooted pairs. ---------
        started = time.perf_counter()
        key = self._key("enumerate", extra=plan.plan_fingerprint())
        neighbor_filter = NeighborFilter(
            k=config.k, strategy=config.neighbor_strategy
        )
        # Fresh rng in the cold stage's exact draw order, so retained
        # pairs bit-match a from-scratch enumerate on the mutated graph.
        rng = np.random.default_rng(config.seed)
        pairs_list, ids_list, indptr_list = [], [], []
        totals_list, truncated_list = [], []
        patch_info = []  # (need, fresh, old_index) per meta-path
        reenumerated = []
        for index, metapath in enumerate(metapaths):
            pairs = neighbor_filter.retained_pairs(hin, metapath, rng=rng)
            pairs_list.append(pairs)
            if not config.use_contexts:
                ids_list.append(None)
                indptr_list.append(None)
                totals_list.append(None)
                truncated_list.append(None)
                patch_info.append(None)
                continue
            old_batch = self._context_set.batch(index, metapath)
            batch, need, fresh, old_index = patch_context_batch(
                hin, metapath, old_batch, pairs, dirty[index],
                max_instances=config.max_instances,
            )
            pairs_list[-1] = batch.pairs
            ids_list.append(batch.instance_ids)
            indptr_list.append(batch.indptr)
            totals_list.append(batch.total_counts)
            truncated_list.append(batch.truncated)
            patch_info.append((need, fresh, old_index))
            reenumerated.append(int(need.sum()))
        context_set = ContextSet(
            key=key,
            pairs=pairs_list,
            instance_ids=ids_list,
            indptr=indptr_list,
            total_counts=totals_list,
            truncated=truncated_list,
        )
        self._persist(context_set)
        old_features = (
            list(self._feature_set.context_features)
            if self._feature_set is not None
            else None
        )
        self._context_set = context_set
        self._log(
            "enumerate", key, "patched", time.perf_counter() - started,
            pairs=[int(p.shape[0]) for p in context_set.pairs],
            reenumerated=reenumerated,
        )

        # --- featurize: splice feature rows of unaffected pairs. ------
        embeds = embeddings if embeddings is not None else self._embeddings
        if embeddings is not None:
            self._off_key_features = True
        if config.use_contexts and (embeds is None or old_features is None):
            # No embeddings to featurize fresh pairs with — pay the
            # full stage (it retrains metapath2vec on the new graph).
            self._feature_set = None
            self._data = None
            self.featurize()
            self.prepare()
            return self.stage_log[events_before:]
        started = time.perf_counter()
        key = self._key("featurize", extra=plan.plan_fingerprint())
        from repro.core.bipartite_conv import neighbor_adjacency_from_pairs
        from repro.core.context_features import context_features_from_batch
        from repro.core.trainer import ConCHData, MetaPathData
        from repro.hin.bipartite import incidence_from_pairs

        self._embeddings = embeds
        num_objects = self.dataset.num_targets
        metapath_data: List[MetaPathData] = []
        for index, metapath in enumerate(metapaths):
            pairs = pairs_list[index]
            if config.use_contexts:
                need, fresh, old_index = patch_info[index]
                keep = ~need
                dim = embeds[metapath.source_type].shape[1]
                features = np.zeros((pairs.shape[0], dim))
                features[keep] = old_features[index][old_index[keep]]
                if need.any():
                    features[need] = context_features_from_batch(fresh, embeds)
                truncated = int(truncated_list[index].sum())
            else:
                features = np.zeros((pairs.shape[0], config.context_dim))
                truncated = 0
            metapath_data.append(
                MetaPathData(
                    metapath=metapath,
                    incidence=incidence_from_pairs(pairs, num_objects),
                    context_features=features,
                    neighbor_adj=neighbor_adjacency_from_pairs(
                        pairs, num_objects
                    ),
                    truncated_contexts=truncated,
                )
            )
        data = ConCHData(
            name=self.dataset.name,
            features=self.dataset.features,
            labels=self.dataset.labels,
            num_classes=self.dataset.num_classes,
            metapath_data=metapath_data,
            substrate_stats=engine.stats(),
        )
        self._data = data
        feature_set = FeatureSet.from_conch_data(key, data)
        if not self._off_key_features:
            self._persist(feature_set)
        self._feature_set = feature_set
        self._log("featurize", key, "patched", time.perf_counter() - started)
        return self.stage_log[events_before:]

    def fit(  # fingerprint-stage: fit
        self,
        split: Optional[Split] = None,
        train_fraction: float = 0.1,
        val_fraction: float = 0.1,
        seed: Optional[int] = None,
    ):
        """Train (or reload) a :class:`~repro.api.estimator.ConCHEstimator`.

        The fit artifact is keyed by the featurize key + the split's
        content hash + the full config fingerprint: a rerun with the
        same inputs loads the trained bundle instead of retraining, and
        its predictions are bit-identical to the in-memory run's.
        """
        from repro.api.estimator import ConCHEstimator

        seed = self.config.seed if seed is None else seed
        if split is None:
            split = stratified_split(
                self.dataset.labels,
                train_fraction,
                val_fraction=val_fraction,
                seed=seed,
            )
        self.split = split
        feature_set = self.featurize()
        # Besides the featurize chain and the split, the fit key covers
        # the supervision signal itself: features/labels are outside the
        # structural HIN hash but the trained bundle embodies them.
        key = self._key(
            "fit",
            extra=f"{feature_set.key}|{split_hash(split)}"
                  f"|{supervision_hash(self.dataset)}",
        )
        started = time.perf_counter()
        # Features built from caller-supplied embeddings live outside
        # the content key: a fit bundle derived from them must neither
        # satisfy nor overwrite the canonical key.
        use_store = self.store is not None and not self._off_key_features

        def load_bundle():
            path = self.store.path_for("fit", key)
            return ConCHEstimator.load(path) if path.exists() else None

        def train() -> ConCHEstimator:
            estimator = ConCHEstimator(self.data, self.config).fit(split)
            if use_store:
                estimator.save(self.store.path_for("fit", key))
            return estimator

        if not use_store:
            estimator = train()
            self._log("fit", key, "computed", time.perf_counter() - started)
            return estimator
        estimator = load_bundle()
        if estimator is not None:
            self._log("fit", key, "loaded", time.perf_counter() - started)
            return estimator
        # Same claim protocol as the artifact stages, over the bundle
        # path: one worker per cluster trains, the rest load its bundle.
        claim = self.store.claim("fit", key)
        if claim.acquire():
            try:
                with claim.keepalive():  # training may outlive the TTL
                    estimator = train()
            finally:
                claim.release()
            self._log("fit", key, "computed", time.perf_counter() - started)
            return estimator
        estimator = claim.wait(load_bundle)
        if estimator is not None:
            self._log("fit", key, "waited", time.perf_counter() - started)
            return estimator
        estimator = train()
        self._log("fit", key, "computed", time.perf_counter() - started)
        return estimator

    # -------------------------------------------------------------- #
    # Introspection
    # -------------------------------------------------------------- #

    def describe(self) -> List[Dict[str, object]]:
        """Stage log as plain dicts (for printing / JSON dumping)."""
        return [
            {
                "stage": event.stage,
                "key": event.key,
                "action": event.action,
                "seconds": round(event.seconds, 6),
                "duration_s": round(event.duration_s, 6),
                **event.detail,
            }
            for event in self.stage_log
        ]
