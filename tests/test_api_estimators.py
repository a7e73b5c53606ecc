"""One estimator contract across ConCH and the baseline zoo.

A single conformance suite runs against ConCH plus registry baselines
(LabelProp, GNetMine, GCN): the same fit/predict/predict_proba/evaluate/
save/load expectations for every model, per the `repro.api.Estimator`
protocol.  The serving tests assert the row-sliced `ModelHandle` answers
per-node queries bit-identically to the full-graph forward.
"""

import numpy as np
import pytest

from repro import api
from repro.api import ConCHEstimator, Estimator, MethodEstimator, ModelHandle
from repro.api.estimator import load_estimator
from repro.baselines.base import TrainSettings
from repro.baselines.registry import baseline_names, make_estimator
from repro.core import ConCHConfig
from repro.data import DBLPConfig, load_dataset, stratified_split
from repro.eval.harness import method_from_estimator, run_method_on_split
from repro.hin.cache import read_archive
from repro.hin.engine import get_engine


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


def _conch_estimator(dataset, config):
    return ConCHEstimator(api.Pipeline(dataset, config=config).data, config)


#: name -> estimator factory (dataset, config) -> unfitted estimator.
ESTIMATOR_FACTORIES = {
    "conch": _conch_estimator,
    "LabelProp": lambda ds, cfg: MethodEstimator("LabelProp", ds),
    "GNetMine": lambda ds, cfg: MethodEstimator("GNetMine", ds),
    "GCN": lambda ds, cfg: MethodEstimator(
        "GCN", ds, settings=TrainSettings(epochs=15, patience=8)
    ),
}


@pytest.fixture(scope="module")
def fitted(dblp_tiny, split, tiny_config):
    """Fit each conformance subject once for the whole module."""
    estimators = {}
    for name, factory in ESTIMATOR_FACTORIES.items():
        estimators[name] = factory(dblp_tiny, tiny_config).fit(split)
    return estimators


@pytest.mark.parametrize("name", sorted(ESTIMATOR_FACTORIES))
class TestEstimatorConformance:
    """The shared contract every estimator must honor."""

    def test_satisfies_protocol(self, fitted, name):
        assert isinstance(fitted[name], Estimator)

    def test_predict_shapes_and_slicing(self, fitted, dblp_tiny, name):
        estimator = fitted[name]
        full = estimator.predict()
        assert full.shape == (dblp_tiny.num_targets,)
        assert full.dtype.kind == "i"
        some = np.array([5, 2, 60])
        assert np.array_equal(estimator.predict(some), full[some])

    def test_predict_proba_is_a_distribution(self, fitted, dblp_tiny, name):
        estimator = fitted[name]
        proba = estimator.predict_proba()
        assert proba.shape == (dblp_tiny.num_targets, dblp_tiny.num_classes)
        assert np.all(proba >= 0)
        np.testing.assert_allclose(proba.sum(axis=1), 1.0, rtol=1e-9)
        assert np.array_equal(proba.argmax(axis=1), estimator.predict())

    def test_evaluate_reports_f1(self, fitted, split, name):
        scores = fitted[name].evaluate(split.test)
        assert set(scores) == {"micro_f1", "macro_f1"}
        assert 0.0 <= scores["micro_f1"] <= 1.0

    def test_save_load_predict_round_trip(self, fitted, tmp_path, name):
        estimator = fitted[name]
        path = tmp_path / f"{name}.npz"
        estimator.save(path)
        reloaded = load_estimator(path)
        assert np.array_equal(reloaded.predict(), estimator.predict())
        some = np.array([11, 3])
        assert np.array_equal(
            reloaded.predict(some), estimator.predict(some)
        )

    def test_unfitted_estimator_refuses_to_predict(
        self, dblp_tiny, tiny_config, name
    ):
        estimator = ESTIMATOR_FACTORIES[name](dblp_tiny, tiny_config)
        with pytest.raises(RuntimeError, match="not fitted"):
            estimator.predict()


class TestConCHEstimator:
    def test_embeddings_shape(self, fitted, dblp_tiny, tiny_config):
        z = fitted["conch"].embeddings()
        assert z.shape == (dblp_tiny.num_targets, tiny_config.out_dim)

    def test_loaded_bundle_predicts_bit_exactly(self, fitted, tmp_path):
        estimator = fitted["conch"]
        path = tmp_path / "conch.npz"
        estimator.save(path)
        reloaded = ConCHEstimator.load(path)
        assert np.array_equal(
            reloaded.predict_proba(), estimator.predict_proba()
        )


class TestUnifiedFit:
    def test_fit_runs_conch_and_baselines_uniformly(
        self, dblp_tiny, split, tiny_config
    ):
        get_engine(dblp_tiny.hin).invalidate()
        for model in ("conch", "LabelProp"):
            estimator = api.fit(
                dblp_tiny, model=model, split=split, config=tiny_config
            )
            assert estimator.predict().shape == (dblp_tiny.num_targets,)

    def test_fit_accepts_case_insensitive_and_variant_names(
        self, dblp_tiny, split, tiny_config
    ):
        estimator = api.fit(
            dblp_tiny, model="labelprop", split=split
        )
        assert estimator.name == "LabelProp"
        nc = api.fit(
            dblp_tiny, model="conch_nc", split=split, config=tiny_config
        )
        assert nc.config.use_contexts is False

    def test_fit_rejects_unknown_model(self, dblp_tiny, split):
        with pytest.raises(KeyError, match="unknown model"):
            api.fit(dblp_tiny, model="not-a-model", split=split)

    def test_registry_exposes_estimator_constructor(self, dblp_tiny, split):
        assert "LabelProp" in baseline_names()
        estimator = make_estimator("LabelProp", dblp_tiny).fit(split)
        assert estimator.predict().shape == (dblp_tiny.num_targets,)

    def test_estimator_round_trips_into_harness(self, dblp_tiny, split):
        method = method_from_estimator(
            lambda ds, seed: MethodEstimator("LabelProp", ds, seed=seed)
        )
        scores = run_method_on_split(method, dblp_tiny, split)
        assert 0.0 <= scores["micro_f1"] <= 1.0


class TestModelHandle:
    def test_predict_nodes_matches_full_forward(self, fitted, dblp_tiny):
        estimator = fitted["conch"]
        handle = ModelHandle.from_estimator(estimator)
        full = estimator.predict()
        full_proba = estimator.predict_proba()
        rng = np.random.default_rng(0)
        for size in (1, 3, 17):
            ids = rng.choice(dblp_tiny.num_targets, size=size, replace=False)
            assert np.array_equal(handle.predict_nodes(ids), full[ids])
            np.testing.assert_allclose(
                handle.predict_proba_nodes(ids), full_proba[ids],
                rtol=0, atol=1e-12,
            )

    def test_loaded_handle_serves_without_reprep(
        self, fitted, dblp_tiny, tmp_path
    ):
        estimator = fitted["conch"]
        path = tmp_path / "bundle.npz"
        estimator.save(path)
        engine = get_engine(dblp_tiny.hin)
        engine.invalidate()
        handle = ModelHandle.load(path)
        ids = np.array([0, 42, 7])
        assert np.array_equal(
            handle.predict_nodes(ids), estimator.predict(ids)
        )
        # Serving never touched the substrate: no products composed.
        assert engine.compose_log == []

    def test_query_stats_report_row_sliced_subgraph(self, fitted):
        handle = ModelHandle.from_estimator(fitted["conch"])
        handle.predict_nodes([0])
        stats = handle.last_query_stats
        assert stats["query_nodes"] == 1
        assert 0 < stats["subgraph_objects"] <= stats["total_objects"]

    def test_handle_works_in_nc_mode(self, dblp_tiny, split):
        config = ConCHConfig(
            k=3, use_contexts=False, epochs=6, patience=4, context_dim=8,
        )
        estimator = ConCHEstimator(
            api.Pipeline(dblp_tiny, config=config).data, config
        ).fit(split)
        handle = ModelHandle.from_estimator(estimator)
        full = estimator.predict()
        ids = np.array([1, 30, 65])
        assert np.array_equal(handle.predict_nodes(ids), full[ids])

    def test_duplicate_and_empty_queries(self, fitted):
        handle = ModelHandle.from_estimator(fitted["conch"])
        dup = handle.predict_nodes([4, 4, 9])
        assert dup[0] == dup[1]
        assert handle.predict_nodes([]).shape == (0,)
        with pytest.raises(IndexError):
            handle.predict_nodes([10**6])


class TestFrozenSnapshot:
    def test_reloaded_method_snapshot_is_frozen(
        self, fitted, split, tmp_path
    ):
        path = tmp_path / "lp.npz"
        fitted["LabelProp"].save(path)
        reloaded = load_estimator(path)
        with pytest.raises(RuntimeError, match="frozen"):
            reloaded.fit(split)
        scores = reloaded.evaluate(split.test)
        assert scores == fitted["LabelProp"].evaluate(split.test)


    def test_reloaded_snapshot_keeps_its_seed(self, dblp_tiny, split, tmp_path):
        first = tmp_path / "lp.npz"
        MethodEstimator("LabelProp", dblp_tiny, seed=3).fit(split).save(first)
        reloaded = MethodEstimator.load(first)
        assert reloaded.seed == 3
        second = tmp_path / "lp-again.npz"
        reloaded.save(second)
        assert read_archive(second)[0]["seed"] == 3


class TestProbabilityAwareAdapters:
    """`MethodOutput.test_scores` → real `predict_proba` for baselines
    that produce scores (ROADMAP item), one-hot only as the label-only
    fallback."""

    def test_score_methods_expose_real_distributions(self, dblp_tiny, split):
        for name in ("GNetMine", "LabelProp"):
            estimator = MethodEstimator(name, dblp_tiny).fit(split)
            proba = estimator.predict_proba(split.test)
            np.testing.assert_allclose(proba.sum(axis=1), 1.0, rtol=1e-9)
            assert not np.isin(proba, (0.0, 1.0)).all(), (
                f"{name} should surface propagation mass, not one-hot"
            )
            # predict() stays authoritative and consistent with proba.
            agreement = (
                estimator.predict(split.test) == proba.argmax(axis=1)
            ).mean()
            assert agreement > 0.9

    def test_label_only_method_still_one_hot(self, dblp_tiny, split):
        from repro.eval.harness import MethodOutput

        def label_only(dataset, query, seed):
            return MethodOutput(
                test_predictions=np.zeros(
                    dataset.num_targets, dtype=np.int64
                )
            )

        estimator = MethodEstimator(label_only, dblp_tiny).fit(split)
        proba = estimator.predict_proba(split.test)
        np.testing.assert_array_equal(proba[:, 0], 1.0)
        np.testing.assert_array_equal(proba[:, 1:], 0.0)

    def test_snapshot_round_trips_probabilities(
        self, dblp_tiny, split, tmp_path
    ):
        estimator = MethodEstimator("GNetMine", dblp_tiny).fit(split)
        path = tmp_path / "gnetmine.npz"
        estimator.save(path)
        reloaded = MethodEstimator.load(path)
        np.testing.assert_array_equal(
            reloaded.predict_proba(split.test),
            estimator.predict_proba(split.test),
        )

    def test_malformed_scores_fail_loudly(self, dblp_tiny, split):
        from repro.eval.harness import MethodOutput

        def bad_scores(dataset, query, seed):
            n = dataset.num_targets
            return MethodOutput(
                test_predictions=np.zeros(n, dtype=np.int64),
                test_scores=np.zeros((n, dataset.num_classes + 1)),
            )

        with pytest.raises(ValueError, match="returned scores of shape"):
            MethodEstimator(bad_scores, dblp_tiny).fit(split)

    def test_scores_to_proba_conventions(self):
        from repro.eval.harness import scores_to_proba

        # Non-negative mass: row-normalized; zero rows become uniform.
        mass = np.array([[2.0, 2.0], [0.0, 0.0], [3.0, 1.0]])
        proba = scores_to_proba(mass)
        np.testing.assert_allclose(
            proba, [[0.5, 0.5], [0.5, 0.5], [0.75, 0.25]]
        )
        # Anything with negatives reads as logits → softmax.
        logits = np.array([[0.0, -np.log(3.0)]])
        np.testing.assert_allclose(
            scores_to_proba(logits), [[0.75, 0.25]], rtol=1e-12
        )
        with pytest.raises(ValueError, match="2-D"):
            scores_to_proba(np.zeros(3))
