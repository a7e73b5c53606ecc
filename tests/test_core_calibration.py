"""Tests for confidence calibration (ECE, reliability bins, temperature
scaling)."""

import numpy as np
import pytest

from repro.core.calibration import (
    TemperatureScaler,
    expected_calibration_error,
    max_calibration_error,
    reliability_table,
)


def perfect_probabilities(n: int = 200, num_classes: int = 4, seed: int = 0):
    """Probabilities whose confidence equals their accuracy by construction:
    predictions are correct with probability equal to the stated confidence."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, num_classes, size=n)
    confidence = 0.75
    probs = np.full((n, num_classes), (1 - confidence) / (num_classes - 1))
    predictions = labels.copy()
    wrong = rng.random(n) > confidence
    predictions[wrong] = (labels[wrong] + 1) % num_classes
    probs[np.arange(n), predictions] = confidence
    return probs, labels


def overconfident_probabilities(n: int = 300, seed: int = 1):
    """90% stated confidence, ~60% actual accuracy: badly over-confident."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 3, size=n)
    predictions = labels.copy()
    wrong = rng.random(n) > 0.6
    predictions[wrong] = (labels[wrong] + 1) % 3
    probs = np.full((n, 3), 0.05)
    probs[np.arange(n), predictions] = 0.9
    return probs, labels


class TestReliabilityTable:
    def test_bin_count_and_coverage(self):
        probs, labels = perfect_probabilities()
        bins = reliability_table(probs, labels, num_bins=10)
        assert len(bins) == 10
        assert sum(b.count for b in bins) == labels.size

    def test_bin_edges_monotone(self):
        probs, labels = perfect_probabilities()
        bins = reliability_table(probs, labels, num_bins=5)
        for left, right in zip(bins[:-1], bins[1:]):
            assert left.upper == pytest.approx(right.lower)

    def test_confidence_one_lands_in_last_bin(self):
        probs = np.array([[1.0, 0.0], [1.0, 0.0]])
        labels = np.array([0, 1])
        bins = reliability_table(probs, labels, num_bins=10)
        assert bins[-1].count == 2
        assert bins[-1].accuracy == pytest.approx(0.5)

    def test_bad_num_bins(self):
        probs, labels = perfect_probabilities()
        with pytest.raises(ValueError):
            reliability_table(probs, labels, num_bins=0)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            reliability_table(np.ones((3, 2)), np.zeros(5, dtype=int))
        with pytest.raises(ValueError):
            reliability_table(np.ones(3), np.zeros(3, dtype=int))


class TestECE:
    def test_well_calibrated_scores_low(self):
        probs, labels = perfect_probabilities(n=2000)
        assert expected_calibration_error(probs, labels) < 0.05

    def test_overconfident_scores_high(self):
        probs, labels = overconfident_probabilities()
        assert expected_calibration_error(probs, labels) > 0.2

    def test_bounded_by_one(self):
        probs, labels = overconfident_probabilities()
        assert 0.0 <= expected_calibration_error(probs, labels) <= 1.0

    def test_mce_at_least_ece(self):
        probs, labels = overconfident_probabilities()
        assert max_calibration_error(probs, labels) >= expected_calibration_error(
            probs, labels
        ) - 1e-12


class TestTemperatureScaler:
    def test_reduces_ece_on_overconfident_model(self):
        probs, labels = overconfident_probabilities(n=600)
        # Fit on one half, evaluate on the other.
        half = probs.shape[0] // 2
        scaler = TemperatureScaler().fit_from_probabilities(
            probs[:half], labels[:half]
        )
        before = expected_calibration_error(probs[half:], labels[half:])
        after = expected_calibration_error(
            scaler.transform_probabilities(probs[half:]), labels[half:]
        )
        assert scaler.temperature > 1.0  # softening, as expected
        assert after < before

    def test_predictions_invariant(self):
        probs, labels = overconfident_probabilities()
        scaler = TemperatureScaler().fit_from_probabilities(probs, labels)
        calibrated = scaler.transform_probabilities(probs)
        assert np.array_equal(
            probs.argmax(axis=1), calibrated.argmax(axis=1)
        )

    def test_rows_sum_to_one(self):
        probs, labels = overconfident_probabilities()
        scaler = TemperatureScaler().fit_from_probabilities(probs, labels)
        calibrated = scaler.transform_probabilities(probs)
        assert np.allclose(calibrated.sum(axis=1), 1.0)

    def test_transform_before_fit_rejected(self):
        with pytest.raises(RuntimeError):
            TemperatureScaler().transform(np.ones((2, 3)))

    def test_fit_validation(self):
        with pytest.raises(ValueError):
            TemperatureScaler().fit(np.ones((3, 2)), np.zeros(5, dtype=int))
        with pytest.raises(ValueError):
            TemperatureScaler().fit(np.ones((0, 2)), np.zeros(0, dtype=int))

    def test_logit_and_probability_paths_agree(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(100, 4)) * 3
        labels = rng.integers(0, 4, size=100)
        from repro.core.calibration import _stable_softmax

        probs = _stable_softmax(logits)
        t_logits = TemperatureScaler().fit(logits, labels).temperature
        t_probs = TemperatureScaler().fit_from_probabilities(
            probs, labels
        ).temperature
        # log-softmax differs from raw logits by a per-row constant, which
        # temperature scaling does not absorb exactly; the fitted values
        # agree closely in practice.
        assert t_probs == pytest.approx(t_logits, rel=0.05)

    def test_integration_with_conch_estimator(self):
        # Calibrate real ConCH validation scores end to end.
        from repro import api
        from repro.core import ConCHConfig
        from repro.data import stratified_split
        from repro.data.dblp import DBLPConfig, make_dblp

        dataset = make_dblp(DBLPConfig(num_authors=80, num_papers=240, seed=8))
        split = stratified_split(dataset.labels, 0.2, seed=0)
        config = ConCHConfig(
            hidden_dim=16, out_dim=16, context_dim=8,
            embed_num_walks=1, embed_walk_length=8, embed_epochs=1,
            epochs=25, patience=12,
        )
        scores = api.fit(
            dataset, model="conch", split=split, config=config
        ).predict_proba()
        scaler = TemperatureScaler().fit_from_probabilities(
            scores[split.val], dataset.labels[split.val]
        )
        calibrated = scaler.transform_probabilities(scores[split.test])
        assert calibrated.shape == scores[split.test].shape
        assert np.allclose(calibrated.sum(axis=1), 1.0)
        # Accuracy unchanged by calibration.
        assert np.array_equal(
            calibrated.argmax(axis=1), scores[split.test].argmax(axis=1)
        )
