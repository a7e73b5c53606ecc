"""The staged pipeline: typed artifacts, content keys, and resume.

Covers the `repro.api` acceptance contract:

- **Resume**: a second run over an unchanged dataset + config skips all
  prep stages (the compose spy asserts zero products composed) and
  reproduces predictions bit-exactly.
- **Artifact round-trips**: every stage artifact reloads bit-identical
  to the in-memory original; a key mismatch reads as a miss (corrupt
  files: ``tests/test_archive.py``).
- **Warm-store skip**: with stage artifacts gone but the product store
  warm, rerunning still composes zero products.
- **Keys**: config fingerprints are stage-scoped and cumulative (a `k`
  change invalidates enumeration but not composition).
- **Back-compat**: the legacy `prepare_conch_data` / `ConCHTrainer`
  quickstart works verbatim through the deprecation shim.
"""

import time

import numpy as np
import pytest

from repro.api import Pipeline, default_config
from repro.api.artifacts import (
    ArtifactStore,
    ContextSet,
    FeatureSet,
    MetaPathPlan,
    config_fingerprint,
    stage_key,
)
from repro.core import ConCHConfig
from repro.data import DBLPConfig, load_dataset, stratified_split
from repro.hin.engine import get_engine


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


@pytest.fixture(autouse=True)
def _fresh_engine(dblp_tiny):
    """Each test starts from a cold, store-less engine."""
    engine = get_engine(dblp_tiny.hin)
    engine.set_cache_dir(None)
    engine.invalidate()
    yield
    engine.set_cache_dir(None)
    engine.invalidate()


class TestStagedPrep:
    def test_stage_order_and_log(self, dblp_tiny, tiny_config, tmp_path):
        pipe = Pipeline(dblp_tiny, config=tiny_config, store_dir=tmp_path)
        pipe.prepare()
        stages = [event.stage for event in pipe.stage_log]
        assert stages == ["discover", "compose", "enumerate", "featurize"]
        assert all(event.action == "computed" for event in pipe.stage_log)

    def test_stage_seconds_exclude_upstream_stages(
        self, dblp_tiny, tiny_config
    ):
        """prepare() enters featurize, whose build runs enumerate, whose
        build runs compose: each event must time only its own stage."""
        pipe = Pipeline(dblp_tiny, config=tiny_config)
        upstream_s = {}

        def slowed(stage):
            original = getattr(pipe, stage)

            def run():
                started = time.perf_counter()
                time.sleep(0.3)  # upstream cost the caller must not log
                try:
                    return original()
                finally:
                    upstream_s[stage] = time.perf_counter() - started

            setattr(pipe, stage, run)

        slowed("compose")
        slowed("enumerate")
        started = time.perf_counter()
        pipe.prepare()
        wall = time.perf_counter() - started
        seconds = {event.stage: event.seconds for event in pipe.stage_log}
        assert set(upstream_s) == {"compose", "enumerate"}
        assert seconds["featurize"] <= wall - upstream_s["enumerate"]
        assert 0.0 < seconds["enumerate"] <= (
            upstream_s["enumerate"] - upstream_s["compose"] - 0.3
        )
        assert 0.0 < seconds["compose"] <= upstream_s["compose"] - 0.3

    def test_staged_prep_is_deterministic(self, dblp_tiny, tiny_config):
        data_a = Pipeline(dblp_tiny, config=tiny_config).prepare()
        get_engine(dblp_tiny.hin).invalidate()
        data_b = Pipeline(dblp_tiny, config=tiny_config).prepare()
        for m_a, m_b in zip(data_a.metapath_data, data_b.metapath_data):
            assert np.array_equal(m_a.context_features, m_b.context_features)
            assert (m_a.incidence != m_b.incidence).nnz == 0
            assert (m_a.neighbor_adj != m_b.neighbor_adj).nnz == 0

    def test_compose_stage_records_every_metapath(self, dblp_tiny, tiny_config):
        pipe = Pipeline(dblp_tiny, config=tiny_config)
        report = pipe.compose()
        assert len(report.product_keys) == len(dblp_tiny.metapaths)
        assert report.composed > 0
        assert all(n > 0 for n in report.nnz)

    def test_discovery_source(self, dblp_tiny, tiny_config):
        pipe = Pipeline(
            dblp_tiny, config=tiny_config, discover_source="discovery"
        )
        plan = pipe.discover()
        assert plan.source == "discovery"
        assert plan.names  # the DBLP schema yields symmetric candidates
        with pytest.raises(ValueError):
            Pipeline(dblp_tiny, discover_source="nope")


class TestResume:
    def test_second_run_skips_all_stages_and_is_bit_exact(
        self, dblp_tiny, tiny_config, tmp_path
    ):
        split = stratified_split(dblp_tiny.labels, 0.2, seed=0)
        first = Pipeline(dblp_tiny, config=tiny_config, store_dir=tmp_path)
        est_first = first.fit(split=split)
        pred_first = est_first.predict()
        proba_first = est_first.predict_proba()

        # Fresh process simulation: cold memory, same store.
        engine = get_engine(dblp_tiny.hin)
        engine.invalidate()
        second = Pipeline(dblp_tiny, config=tiny_config, store_dir=tmp_path)
        est_second = second.fit(split=split)

        actions = {e.stage: e.action for e in second.stage_log}
        assert actions == {
            "discover": "loaded", "featurize": "loaded", "fit": "loaded",
        }
        # The compose spy: nothing was multiplied on the resumed run.
        assert engine.compose_log == []
        assert np.array_equal(pred_first, est_second.predict())
        assert np.array_equal(proba_first, est_second.predict_proba())

    def test_warm_product_store_alone_composes_zero(
        self, dblp_tiny, tiny_config, tmp_path
    ):
        first = Pipeline(dblp_tiny, config=tiny_config, store_dir=tmp_path)
        first.prepare()
        # Drop the stage artifacts but keep the composed products: every
        # stage re-runs, yet the engine multiplies nothing.
        for artifact in (tmp_path / "artifacts").iterdir():
            artifact.unlink()
        engine = get_engine(dblp_tiny.hin)
        engine.invalidate()
        second = Pipeline(dblp_tiny, config=tiny_config, store_dir=tmp_path)
        second.prepare()
        assert all(e.action == "computed" for e in second.stage_log)
        assert engine.compose_log == []
        assert engine.disk_hits > 0

    def test_supplied_embeddings_never_poison_the_store(
        self, dblp_tiny, tiny_config, tmp_path
    ):
        """Features built from caller-supplied embeddings are outside the
        content key: they must not be stored under (or later satisfy)
        the canonical featurize/fit keys."""
        from repro.embedding.metapath2vec import metapath2vec_embeddings

        custom = metapath2vec_embeddings(
            dblp_tiny.hin, dblp_tiny.metapaths, dim=8,
            num_walks=1, walk_length=6, epochs=1, seed=99,
        )
        split = stratified_split(dblp_tiny.labels, 0.2, seed=0)
        off_key = Pipeline(dblp_tiny, config=tiny_config, store_dir=tmp_path)
        off_key.prepare(embeddings=custom)
        off_key.fit(split=split)
        get_engine(dblp_tiny.hin).invalidate()
        canonical = Pipeline(
            dblp_tiny, config=tiny_config, store_dir=tmp_path
        )
        canonical.fit(split=split)
        actions = {e.stage: e.action for e in canonical.stage_log}
        # Upstream stages are embedding-independent and may reload;
        # featurize and fit must recompute canonically.
        assert actions["featurize"] == "computed"
        assert actions["fit"] == "computed"

    def test_memo_honors_fresh_embeddings_argument(
        self, dblp_tiny, tiny_config
    ):
        from repro.embedding.metapath2vec import metapath2vec_embeddings

        pipe = Pipeline(dblp_tiny, config=tiny_config)
        canonical = pipe.prepare()
        custom = metapath2vec_embeddings(
            dblp_tiny.hin, dblp_tiny.metapaths, dim=8,
            num_walks=1, walk_length=6, epochs=1, seed=99,
        )
        recomputed = pipe.prepare(embeddings=custom)
        assert not np.array_equal(
            canonical.metapath_data[0].context_features,
            recomputed.metapath_data[0].context_features,
        )

    def test_config_change_invalidates_downstream_only(
        self, dblp_tiny, tiny_config, tmp_path
    ):
        base = Pipeline(dblp_tiny, config=tiny_config, store_dir=tmp_path)
        base.prepare()
        get_engine(dblp_tiny.hin).invalidate()
        changed = Pipeline(
            dblp_tiny,
            config=tiny_config.with_overrides(k=4),
            store_dir=tmp_path,
        )
        changed.prepare()
        actions = {e.stage: e.action for e in changed.stage_log}
        # k does not key discover/compose, so those reload; enumeration
        # and featurization recompute under the new fingerprint.
        assert actions["discover"] == "loaded"
        assert actions["compose"] == "loaded"
        assert actions["enumerate"] == "computed"
        assert actions["featurize"] == "computed"


class TestContentKeys:
    def test_fingerprints_are_stage_scoped(self):
        config = ConCHConfig()
        assert config_fingerprint(config, "enumerate") != config_fingerprint(
            config.with_overrides(k=7), "enumerate"
        )
        # k is not a compose-stage field.
        assert config_fingerprint(config, "compose") == config_fingerprint(
            config.with_overrides(k=7), "compose"
        )
        # ...but strategy is, and it cascades into enumerate.
        assert config_fingerprint(config, "compose") != config_fingerprint(
            config.with_overrides(neighbor_strategy="hetesim"), "compose"
        )
        # Training-only fields key only the fit stage.
        assert config_fingerprint(config, "featurize") == config_fingerprint(
            config.with_overrides(epochs=1), "featurize"
        )
        assert config_fingerprint(config, "fit") != config_fingerprint(
            config.with_overrides(epochs=1), "fit"
        )

    def test_stage_key_covers_content_hash(self):
        config = ConCHConfig()
        assert stage_key("aaa", config, "enumerate") != stage_key(
            "bbb", config, "enumerate"
        )
        with pytest.raises(KeyError):
            stage_key("aaa", config, "unknown-stage")


class TestArtifactRoundTrips:
    def test_context_set_round_trip(self, dblp_tiny, tiny_config, tmp_path):
        pipe = Pipeline(dblp_tiny, config=tiny_config)
        context_set = pipe.enumerate()
        path = tmp_path / "ctx.npz"
        context_set.save(path)
        loaded = ContextSet.load(path)
        assert loaded is not None and loaded.key == context_set.key
        for i in range(context_set.num_metapaths):
            assert np.array_equal(loaded.pairs[i], context_set.pairs[i])
            assert np.array_equal(
                loaded.instance_ids[i], context_set.instance_ids[i]
            )
            assert np.array_equal(loaded.indptr[i], context_set.indptr[i])
            assert np.array_equal(
                loaded.total_counts[i], context_set.total_counts[i]
            )
            assert np.array_equal(
                loaded.truncated[i], context_set.truncated[i]
            )

    def test_feature_set_round_trip_rebuilds_identical_data(
        self, dblp_tiny, tiny_config, tmp_path
    ):
        pipe = Pipeline(dblp_tiny, config=tiny_config)
        data = pipe.prepare()
        feature_set = pipe.featurize()
        path = tmp_path / "feat.npz"
        feature_set.save(path)
        loaded = FeatureSet.load(path)
        assert loaded is not None
        rebuilt = loaded.to_conch_data(dblp_tiny)
        for m_a, m_b in zip(data.metapath_data, rebuilt.metapath_data):
            assert m_a.metapath.name == m_b.metapath.name
            assert np.array_equal(m_a.context_features, m_b.context_features)
            assert (m_a.incidence != m_b.incidence).nnz == 0
            assert (m_a.neighbor_adj != m_b.neighbor_adj).nnz == 0
            assert m_a.truncated_contexts == m_b.truncated_contexts

    def test_nc_mode_context_set_round_trip(self, dblp_tiny, tmp_path):
        config = ConCHConfig(k=3, use_contexts=False)
        pipe = Pipeline(dblp_tiny, config=config)
        context_set = pipe.enumerate()
        assert all(ids is None for ids in context_set.instance_ids)
        path = tmp_path / "ctx-nc.npz"
        context_set.save(path)
        loaded = ContextSet.load(path)
        assert loaded is not None
        assert all(ids is None for ids in loaded.instance_ids)
        assert np.array_equal(loaded.pairs[0], context_set.pairs[0])

    def test_key_mismatch_reads_as_miss(self, tmp_path):
        store = ArtifactStore(tmp_path)
        plan = MetaPathPlan(
            key="deadbeef", node_types=[("A", "P", "A")], names=["APA"]
        )
        store.put(plan)
        # A file renamed under another key must not satisfy that key.
        store.path_for("discover", "deadbeef").rename(
            store.path_for("discover", "cafebabe")
        )
        assert store.get("discover", "cafebabe") is None


class TestLegacyShim:
    def test_old_quickstart_verbatim(self, dblp_tiny):
        """The pre-pipeline quickstart, exactly as documented."""
        from repro.core import ConCHConfig, ConCHTrainer, prepare_conch_data

        dataset = dblp_tiny
        split = stratified_split(dataset.labels, train_fraction=0.2)
        config = ConCHConfig(
            epochs=8, k=3, num_layers=2, context_dim=8,
            embed_num_walks=2, embed_walk_length=8, embed_epochs=1,
        )
        data = prepare_conch_data(dataset, config)
        trainer = ConCHTrainer(data, config).fit(split)
        scores = trainer.evaluate(split.test)
        assert set(scores) == {"micro_f1", "macro_f1"}
        assert 0.0 <= scores["micro_f1"] <= 1.0

    def test_shim_matches_staged_prep_bit_exactly(self, dblp_tiny, tiny_config):
        from repro.core import prepare_conch_data

        legacy = prepare_conch_data(dblp_tiny, tiny_config)
        get_engine(dblp_tiny.hin).invalidate()
        staged = Pipeline(dblp_tiny, config=tiny_config).prepare()
        for m_a, m_b in zip(legacy.metapath_data, staged.metapath_data):
            assert np.array_equal(m_a.context_features, m_b.context_features)
            assert (m_a.incidence != m_b.incidence).nnz == 0

    def test_shim_still_honors_cache_config(self, dblp_tiny, tiny_config, tmp_path):
        from repro.core import prepare_conch_data

        config = tiny_config.with_overrides(cache_dir=str(tmp_path / "store"))
        data = prepare_conch_data(dblp_tiny, config)
        assert data.substrate_stats["spills"] > 0  # wrote through to disk


class TestDefaultConfig:
    def test_registered_dataset_defaults(self):
        config = default_config("dblp")
        assert (config.k, config.num_layers) == (5, 2)
        yelp = default_config("yelp", epochs=7)
        assert (yelp.k, yelp.epochs) == (10, 7)

    def test_unregistered_name_falls_back(self):
        config = default_config("custom-hin")
        assert config.k == ConCHConfig().k


class TestStageClaimDedupe:
    """Pipeline-level claim dedupe: two cold workers sharing a store
    never both pay a stage — one computes, the other waits and loads
    the write-through (`ArtifactStore.claim` / `Pipeline._claimed_compute`,
    the product store's claim protocol extended to whole stages)."""

    def test_waiter_loads_the_winners_featurize(
        self, dblp_tiny, tiny_config, tmp_path
    ):
        # Worker A computes everything and releases its claims.
        first = Pipeline(dblp_tiny, config=tiny_config, store_dir=tmp_path)
        first.prepare()

        # Simulate worker B arriving while a (fake) worker holds the
        # featurize claim: B must *wait*, then serve A's artifact —
        # not recompute.  The artifact is temporarily hidden so B's
        # plain load misses and the claim path is actually exercised.
        second = Pipeline(dblp_tiny, config=tiny_config, store_dir=tmp_path)
        key = second._key(
            "featurize", extra=second.discover().plan_fingerprint()
        )
        path = second.store.path_for("featurize", key)
        hidden = path.with_name("hidden.npz")
        path.rename(hidden)
        claim = second.store.claim("featurize", key)
        assert claim.acquire()

        import threading

        def writer():
            # The "winner" finishes its write-through, then releases.
            hidden.rename(path)
            claim.release()

        timer = threading.Timer(0.2, writer)
        timer.start()
        try:
            feature_set = second.featurize()
        finally:
            timer.cancel()
        actions = {e.stage: e.action for e in second.stage_log}
        assert actions["featurize"] == "waited"
        assert feature_set.key == key
        reference = first.featurize()
        for left, right in zip(
            feature_set.context_features, reference.context_features
        ):
            np.testing.assert_array_equal(left, right)

    def test_stale_claim_falls_back_to_computing(
        self, dblp_tiny, tiny_config, tmp_path
    ):
        """A crashed writer's claim must never deadlock the cluster:
        after the TTL the waiter computes the stage itself."""
        pipe = Pipeline(dblp_tiny, config=tiny_config, store_dir=tmp_path)
        pipe.store.claim_ttl = 0.2  # fast lease expiry for the test
        key = pipe._key("discover", extra="dataset|" + ";".join(
            "-".join(m.node_types) for m in dblp_tiny.metapaths
        ))
        claim = pipe.store.claim("discover", key)
        assert claim.acquire()  # the "crashed" writer: never releases
        plan = pipe.discover()  # waits ~ttl, then computes
        assert plan.names
        actions = {e.stage: e.action for e in pipe.stage_log}
        assert actions["discover"] == "computed"

    def test_fit_stage_waiter_loads_winner_bundle(
        self, dblp_tiny, tiny_config, tmp_path
    ):
        split = stratified_split(dblp_tiny.labels, 0.2, seed=0)
        first = Pipeline(dblp_tiny, config=tiny_config, store_dir=tmp_path)
        trained = first.fit(split=split)

        second = Pipeline(dblp_tiny, config=tiny_config, store_dir=tmp_path)
        feature_set = second.featurize()
        from repro.api.artifacts import split_hash, supervision_hash

        key = second._key(
            "fit",
            extra=f"{feature_set.key}|{split_hash(split)}"
                  f"|{supervision_hash(dblp_tiny)}",
        )
        path = second.store.path_for("fit", key)
        hidden = path.with_name("hidden-fit.npz")
        path.rename(hidden)
        claim = second.store.claim("fit", key)
        assert claim.acquire()

        import threading

        timer = threading.Timer(
            0.2, lambda: (hidden.rename(path), claim.release())
        )
        timer.start()
        try:
            estimator = second.fit(split=split)
        finally:
            timer.cancel()
        actions = [e for e in second.stage_log if e.stage == "fit"]
        assert actions[-1].action == "waited"
        np.testing.assert_array_equal(
            estimator.predict(split.test), trained.predict(split.test)
        )

    def test_store_level_artifact_wait_api(self, tmp_path):
        """`ArtifactStore.wait_for` returns the artifact the moment the
        claim holder writes it (the primitive the pipeline builds on)."""
        store = ArtifactStore(tmp_path)
        plan = MetaPathPlan(
            key="k1", node_types=[("A", "P", "A")], names=["APA"]
        )
        claim = store.claim("discover", "k1")
        assert claim.acquire()

        import threading

        timer = threading.Timer(
            0.15, lambda: (store.put(plan), claim.release())
        )
        timer.start()
        try:
            loaded = store.wait_for("discover", "k1", timeout=5.0)
        finally:
            timer.cancel()
        assert loaded is not None and loaded.names == ["APA"]
        # And an unclaimed, unwritten key times out to None (caller
        # computes itself).
        assert store.wait_for("discover", "nope", timeout=0.1) is None


    def test_live_holder_outlasting_ttl_is_waited_on(self, tmp_path):
        """A holder that heartbeats its lease past the TTL keeps waiters
        waiting (no duplicate compute); only a *dead* holder expires."""
        import threading
        import time as _time

        from repro.hin.cache import ClaimFile

        claim = ClaimFile(tmp_path / "stage.claim", ttl=0.3)
        assert claim.acquire()
        result_path = tmp_path / "result.txt"

        def holder():
            with claim.keepalive(interval=0.05):
                _time.sleep(0.8)  # well past the 0.3s TTL
                result_path.write_text("done")
            claim.release()

        thread = threading.Thread(target=holder)
        thread.start()
        try:
            waiter = ClaimFile(tmp_path / "stage.claim", ttl=0.3)
            value = waiter.wait(
                lambda: result_path.read_text()
                if result_path.exists() else None,
                poll_interval=0.02,
            )
        finally:
            thread.join()
        assert value == "done"  # waited through 2.5x TTL, no fallback
