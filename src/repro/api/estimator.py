"""One estimator contract for ConCH and the whole baseline zoo.

The repo grew seventeen ad-hoc constructors — ``ConCHTrainer``,
``SemiSupervisedTrainer`` closures, embedding+logreg factories — all
answering the same three questions (train on a split, predict labels,
score an index set) with different call shapes.  This module defines the
single :class:`Estimator` protocol they now share:

``fit(split)`` / ``predict(indices)`` / ``predict_proba(indices)`` /
``embeddings()`` / ``evaluate(indices)`` / ``save(path)`` + a
module-level :func:`load_estimator`.

Two implementations cover everything:

:class:`ConCHEstimator`
    Wraps :class:`~repro.core.trainer.ConCHTrainer` over prepared
    :class:`~repro.core.trainer.ConCHData`.  ``save`` writes a
    *self-contained serving bundle* (model weights + operators + context
    features + object features/labels), so ``load`` — and the
    :class:`repro.api.serving.ModelHandle` built on it — answers
    queries without re-running any preprocessing.

:class:`MethodEstimator`
    Adapts any registered harness method
    (:mod:`repro.baselines.registry`) by running it once with an
    all-nodes query set, then serving ``predict`` / ``predict_proba``
    from the cached full prediction vector.  ``predict_proba`` serves
    the method's own class scores when it surfaces them
    (``MethodOutput.test_scores`` — propagation mass, logits — see
    :func:`repro.eval.harness.scores_to_proba`), degrading to the
    one-hot distribution only for label-only methods; ``save``
    snapshots predictions + probabilities (the adapter's whole state),
    which is exactly what a serving replica of a frozen baseline needs.

:func:`fit` is the one-call surface: ``fit("dblp", model="han")`` runs
any model — ConCH or baseline — through the same code path.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Protocol, Union, runtime_checkable

import numpy as np
import scipy.sparse as sp

from repro.core.config import ConCHConfig
from repro.data.base import HINDataset
from repro.data.splits import Split, stratified_split
from repro.eval.metrics import macro_f1, micro_f1
from repro.hin.cache import (
    ARCHIVE_MISS_ERRORS,
    pack_csr,
    read_archive,
    unpack_csr,
    write_archive,
)

#: Fit-stage / bundle archive format; mismatches read as misses.
BUNDLE_FORMAT_VERSION = 2


@runtime_checkable
class Estimator(Protocol):
    """What every trainable model in this repo can do."""

    def fit(self, split: Split) -> "Estimator":
        """Train on a split; returns self."""

    def predict(self, indices: Optional[np.ndarray] = None) -> np.ndarray:
        """Predicted labels for ``indices`` (default: all target nodes)."""

    def predict_proba(self, indices: Optional[np.ndarray] = None) -> np.ndarray:
        """Per-class probabilities ``(n, r)`` for ``indices``."""

    def embeddings(self) -> Optional[np.ndarray]:
        """Learned node embeddings, or None for methods without any."""

    def evaluate(self, indices: np.ndarray) -> Dict[str, float]:
        """Micro/Macro-F1 on an index set."""

    def save(self, path: Union[str, Path]) -> None:
        """Persist enough state to reload and serve predictions."""


def _evaluate(labels, num_classes, predict, indices) -> Dict[str, float]:
    indices = np.asarray(indices)
    predictions = predict(indices)
    truth = labels[indices]
    return {
        "micro_f1": micro_f1(truth, predictions),
        "macro_f1": macro_f1(truth, predictions, num_classes),
    }


class ConCHEstimator:
    """The :class:`Estimator` face of ConCH over prepared data."""

    def __init__(self, data, config: ConCHConfig):
        from repro.core.trainer import ConCHTrainer

        self.data = data
        self.config = config
        self.trainer = ConCHTrainer(data, config)
        self.fitted = False

    # ------------------------------------------------------------- #
    # Protocol surface
    # ------------------------------------------------------------- #

    def fit(self, split: Split, verbose: bool = False) -> "ConCHEstimator":
        self.trainer.fit(split, verbose=verbose)
        self.fitted = True
        return self

    def _require_fitted(self) -> None:
        if not self.fitted:
            raise RuntimeError("estimator is not fitted; call fit(split) first")

    def predict(self, indices: Optional[np.ndarray] = None) -> np.ndarray:
        self._require_fitted()
        return self.trainer.predict(indices)

    def predict_proba(self, indices: Optional[np.ndarray] = None) -> np.ndarray:
        self._require_fitted()
        return self.trainer.predict_proba(indices)

    def embeddings(self) -> Optional[np.ndarray]:
        self._require_fitted()
        return self.trainer.embeddings()

    def evaluate(self, indices: np.ndarray) -> Dict[str, float]:
        self._require_fitted()
        return self.trainer.evaluate(indices)

    # ------------------------------------------------------------- #
    # Persistence: the self-contained serving bundle
    # ------------------------------------------------------------- #

    def save(self, path: Union[str, Path]) -> None:
        """Write a serving bundle: model + operators + features + labels.

        Incidence transposes are stored too, so a mapped
        :meth:`repro.api.ModelHandle.load` serves them from the shared
        replica instead of materializing one per serving process.
        """
        self._require_fitted()
        from repro.core.serialize import model_header, model_param_arrays

        data = self.data
        arrays = model_param_arrays(self.trainer.model)
        arrays["features"] = data.features
        arrays["labels"] = data.labels
        for i, m in enumerate(data.metapath_data):
            pack_csr(arrays, f"mp{i}/incidence", m.incidence)
            pack_csr(arrays, f"mp{i}/incidence_T", sp.csr_matrix(m.incidence.T))
            pack_csr(arrays, f"mp{i}/neighbor_adj", m.neighbor_adj)
            arrays[f"mp{i}/context_features"] = m.context_features
        header = {
            "bundle_format_version": BUNDLE_FORMAT_VERSION,
            "kind": "conch-estimator",
            "name": data.name,
            "num_classes": int(data.num_classes),
            "metapath_node_types": [
                list(m.metapath.node_types) for m in data.metapath_data
            ],
            "metapath_names": [
                m.metapath.name for m in data.metapath_data
            ],
            "truncated_contexts": [
                int(m.truncated_contexts) for m in data.metapath_data
            ],
            "model": model_header(self.trainer.model),
        }
        write_archive(Path(path), header, arrays)

    @classmethod
    def load(cls, path: Union[str, Path]) -> Optional["ConCHEstimator"]:
        """Reload a bundle; None when the file is not a valid bundle."""
        loaded = read_bundle(Path(path))
        return None if loaded is None else cls._from_archive(*loaded)

    @classmethod
    def _from_archive(cls, header, arrays) -> Optional["ConCHEstimator"]:
        parts = conch_bundle_parts(header, arrays)
        if parts is None:
            return None
        data, config, model, _transposed = parts
        estimator = cls(data, config)
        estimator.trainer.model = model  # trained weights over fresh operators
        estimator.fitted = True
        return estimator


def read_bundle(path: Path, mapped: bool = False):
    """``(header, arrays)`` of an estimator bundle; None on any miss."""
    loaded = read_archive(path, mapped=mapped)
    if loaded is None:
        return None
    if loaded[0].get("bundle_format_version") != BUNDLE_FORMAT_VERSION:
        return None
    return loaded


def conch_bundle_parts(header: dict, arrays):
    """``(data, config, model, incidence transposes)`` of a ConCH bundle.

    The one builder behind :meth:`ConCHEstimator.load` (heap arrays) and
    :meth:`repro.api.ModelHandle.load` (mapped arrays).  ``None`` when
    the archive is not a ConCH bundle or its members are missing or
    torn, so the pipeline retrains instead of crashing.
    """
    from repro.core.serialize import model_from_archive
    from repro.core.trainer import ConCHData, MetaPathData
    from repro.hin.metapath import MetaPath

    if header.get("kind") != "conch-estimator":
        return None
    try:
        model = model_from_archive(header["model"], arrays)
        metapath_data = []
        transposed = []
        for i, (types, name) in enumerate(
            zip(header["metapath_node_types"], header["metapath_names"])
        ):
            metapath_data.append(
                MetaPathData(
                    metapath=MetaPath(types, name=name),
                    incidence=unpack_csr(arrays, f"mp{i}/incidence"),
                    context_features=arrays[f"mp{i}/context_features"],
                    neighbor_adj=unpack_csr(arrays, f"mp{i}/neighbor_adj"),
                    truncated_contexts=int(header["truncated_contexts"][i]),
                )
            )
            transposed.append(unpack_csr(arrays, f"mp{i}/incidence_T"))
        data = ConCHData(
            name=header["name"],
            features=arrays["features"],
            labels=arrays["labels"],
            num_classes=int(header["num_classes"]),
            metapath_data=metapath_data,
        )
        config = ConCHConfig(**header["model"]["config"])
    except ARCHIVE_MISS_ERRORS:
        return None
    return data, config, model, transposed


@dataclass
class _AllNodesQuery:
    """A split whose ``test`` field queries every target node.

    Harness methods read ``split.train`` / ``split.val`` for optimization
    and return predictions for ``split.test``; widening ``test`` to all
    nodes turns any of them into a full predictor.  (A real
    :class:`Split` forbids overlap between the parts, hence this shim.)
    """

    train: np.ndarray
    val: np.ndarray
    test: np.ndarray


class _PredictionServing:
    """Serve-side half of the contract over a cached full prediction
    vector: shared by the live :class:`MethodEstimator` and its reloaded
    :class:`_FrozenPredictions` snapshot, so the slicing and snapshot
    format live in exactly one place.

    Subclasses set ``_predictions``/``_proba`` and implement
    ``_require_fitted`` and ``_snapshot_fields() -> (name, dataset_name,
    num_classes, seed, labels)``.
    """

    _predictions: Optional[np.ndarray]
    _proba: Optional[np.ndarray]

    def predict(self, indices: Optional[np.ndarray] = None) -> np.ndarray:
        self._require_fitted()
        if indices is None:
            return self._predictions.copy()
        return self._predictions[np.asarray(indices)]

    def predict_proba(self, indices: Optional[np.ndarray] = None) -> np.ndarray:
        """Class probabilities: the method's own scores when it produced
        them, else the one-hot degenerate distribution."""
        self._require_fitted()
        if indices is None:
            return self._proba.copy()
        return self._proba[np.asarray(indices)]

    def embeddings(self) -> Optional[np.ndarray]:
        """Prediction snapshots do not expose intermediate embeddings."""
        return None

    def save(self, path: Union[str, Path]) -> None:
        """Snapshot the full prediction vector (the adapter's state)."""
        self._require_fitted()
        name, dataset_name, num_classes, seed, labels = self._snapshot_fields()
        header = {
            "bundle_format_version": BUNDLE_FORMAT_VERSION,
            "kind": "method-estimator",
            "name": name,
            "dataset": dataset_name,
            "num_classes": num_classes,
            "seed": seed,
        }
        write_archive(
            Path(path),
            header,
            {
                "predictions": self._predictions,
                "proba": self._proba,
                "labels": labels,
            },
        )


class MethodEstimator(_PredictionServing):
    """Adapt a registered harness method to the :class:`Estimator` contract."""

    def __init__(
        self,
        method: Union[str, object],
        dataset: HINDataset,
        seed: int = 0,
        **method_kwargs,
    ):
        if isinstance(method, str):
            from repro.baselines.registry import make_method

            self.name = method
            self._method = make_method(method, **method_kwargs)
        else:
            self.name = getattr(method, "__name__", "method")
            self._method = method
        self.dataset = dataset
        self.seed = seed
        self._predictions: Optional[np.ndarray] = None
        self._proba: Optional[np.ndarray] = None

    @property
    def fitted(self) -> bool:
        return self._predictions is not None

    def fit(self, split: Split) -> "MethodEstimator":
        query = _AllNodesQuery(
            train=np.asarray(split.train),
            val=np.asarray(split.val),
            test=np.arange(self.dataset.num_targets, dtype=np.int64),
        )
        output = self._method(self.dataset, query, self.seed)
        predictions = np.asarray(output.test_predictions)
        if predictions.shape[0] != self.dataset.num_targets:
            raise ValueError(
                f"method {self.name!r} returned {predictions.shape[0]} "
                f"predictions for {self.dataset.num_targets} nodes"
            )
        num_classes = self.dataset.num_classes
        if predictions.size and (
            predictions.min() < 0 or predictions.max() >= num_classes
        ):
            # A sentinel like -1 would silently wrap into the last class
            # column of the one-hot scatter below — fail loudly instead.
            raise ValueError(
                f"method {self.name!r} returned class ids outside "
                f"[0, {num_classes}): "
                f"[{predictions.min()}, {predictions.max()}]"
            )
        self._predictions = predictions.astype(np.int64)
        scores = getattr(output, "test_scores", None)
        if scores is not None:
            # Probability-aware path: the method surfaced real class
            # scores (propagation mass, logits, calibrated proba) — use
            # them instead of degenerating to one-hot.
            from repro.eval.harness import scores_to_proba

            scores = np.asarray(scores, dtype=np.float64)
            if scores.shape != (predictions.shape[0], num_classes):
                raise ValueError(
                    f"method {self.name!r} returned scores of shape "
                    f"{scores.shape}; expected "
                    f"{(predictions.shape[0], num_classes)}"
                )
            self._proba = scores_to_proba(scores)
        else:
            proba = np.zeros(
                (predictions.shape[0], num_classes), dtype=np.float64
            )
            proba[np.arange(predictions.shape[0]), self._predictions] = 1.0
            self._proba = proba
        return self

    def _require_fitted(self) -> None:
        if not self.fitted:
            raise RuntimeError("estimator is not fitted; call fit(split) first")

    # predict/predict_proba/embeddings/save come from _PredictionServing.

    def _snapshot_fields(self):
        return (
            self.name,
            self.dataset.name,
            int(self.dataset.num_classes),
            int(self.seed),
            np.asarray(self.dataset.labels),
        )

    def evaluate(self, indices: np.ndarray) -> Dict[str, float]:
        self._require_fitted()
        return _evaluate(
            self.dataset.labels, self.dataset.num_classes, self.predict, indices
        )

    @classmethod
    def load(
        cls,
        path: Union[str, Path],
        dataset: Optional[HINDataset] = None,
    ) -> Optional["_FrozenPredictions"]:
        """Reload a snapshot as a frozen (already-fitted) estimator.

        ``dataset``, when given, is checked against the snapshot's
        recorded dataset name — a mismatched snapshot raises rather
        than silently scoring against the archived labels.
        """
        path = Path(path)
        loaded = read_bundle(path)
        if loaded is None:
            return None
        header, arrays = loaded
        if (
            dataset is not None
            and header.get("kind") == "method-estimator"
            and header.get("dataset") != dataset.name
        ):
            raise ValueError(
                f"snapshot {path} was taken on dataset "
                f"{header.get('dataset')!r}, not {dataset.name!r}"
            )
        return cls._from_archive(header, arrays)

    @staticmethod
    def _from_archive(header, arrays) -> Optional["_FrozenPredictions"]:
        if header.get("kind") != "method-estimator":
            return None
        try:
            return _FrozenPredictions(
                name=header["name"],
                dataset_name=header["dataset"],
                num_classes=int(header["num_classes"]),
                seed=int(header.get("seed", 0)),
                predictions=arrays["predictions"],
                proba=arrays["proba"],
                labels=arrays["labels"],
            )
        except ARCHIVE_MISS_ERRORS:
            return None


class _FrozenPredictions(_PredictionServing):
    """A reloaded :class:`MethodEstimator` snapshot: serve-only."""

    def __init__(
        self, name, dataset_name, num_classes, seed, predictions, proba, labels
    ):
        self.name = name
        self.dataset_name = dataset_name
        self.num_classes = num_classes
        self.seed = seed
        self._predictions = predictions
        self._proba = proba
        self._labels = labels
        self.fitted = True

    def fit(self, split: Split) -> "_FrozenPredictions":
        raise RuntimeError(
            "a reloaded method snapshot is frozen; re-create the "
            "MethodEstimator to retrain"
        )

    def _require_fitted(self) -> None:
        pass  # a snapshot is fitted by construction

    def _snapshot_fields(self):
        return (
            self.name, self.dataset_name, int(self.num_classes),
            int(self.seed), self._labels,
        )

    def evaluate(self, indices: np.ndarray) -> Dict[str, float]:
        return _evaluate(self._labels, self.num_classes, self.predict, indices)


def load_estimator(path: Union[str, Path]):
    """Reload any saved estimator bundle (ConCH or method snapshot)."""
    path = Path(path)
    loaded = read_bundle(path)
    if loaded is None:
        raise ValueError(f"{path} is not an estimator bundle")
    header, arrays = loaded
    if header.get("kind") == "conch-estimator":
        estimator = ConCHEstimator._from_archive(header, arrays)
    else:
        estimator = MethodEstimator._from_archive(header, arrays)
    if estimator is None:
        raise ValueError(f"{path} failed to load as {header.get('kind')}")
    return estimator


def fit(
    dataset: Union[str, HINDataset],
    model: str = "conch",
    split: Optional[Split] = None,
    train_fraction: float = 0.1,
    val_fraction: float = 0.1,
    seed: Optional[int] = None,
    config: Optional[ConCHConfig] = None,
    store_dir: Optional[Union[str, Path]] = None,
    **model_kwargs,
):
    """Train any model — ConCH or baseline — through one code path.

    Parameters
    ----------
    dataset:
        Registered dataset name (loaded with paper defaults) or an
        :class:`HINDataset`.
    model:
        ``"conch"`` (or an ablation variant like ``"conch_nc"``) routes
        through the staged :class:`~repro.api.pipeline.Pipeline`; any
        name in :data:`repro.baselines.registry.BASELINES` (e.g.
        ``"HAN"``, case-insensitive) routes through
        :class:`MethodEstimator`.  Everything answers the same
        :class:`Estimator` contract afterwards.
    split:
        Explicit split; default is a stratified split at
        ``train_fraction``.
    seed:
        Run seed.  ``None`` (the default) keeps the config's own seed;
        an explicit value overrides it.
    config:
        ConCH hyper-parameters (ConCH models only); defaults to the
        dataset's paper values.
    store_dir:
        Optional pipeline store — reruns skip completed stages.
    model_kwargs:
        Extra keyword arguments for baseline method factories.

    Returns
    -------
    A fitted :class:`Estimator`.
    """
    from repro.api.pipeline import Pipeline, _resolve_dataset

    resolved_seed = seed if seed is not None else (
        config.seed if config is not None else 0
    )
    dataset = _resolve_dataset(dataset, resolved_seed)
    if split is None:
        split = stratified_split(
            dataset.labels, train_fraction, val_fraction=val_fraction,
            seed=resolved_seed,
        )
    lowered = model.lower()
    if lowered == "conch" or lowered.startswith("conch_"):
        if config is None:
            from repro.api.pipeline import default_config

            config = default_config(dataset)
        if lowered.startswith("conch_"):
            from repro.core.variants import variant_config

            config = variant_config(lowered[len("conch_"):], config)
        if seed is not None:
            config = config.with_overrides(seed=seed)
        pipeline = Pipeline(dataset, config=config, store_dir=store_dir)
        return pipeline.fit(split=split)
    from repro.baselines.registry import BASELINES

    canonical = {name.lower(): name for name in BASELINES}
    if lowered not in canonical:
        raise KeyError(
            f"unknown model {model!r}; known: ['conch', 'conch_<variant>'] "
            f"+ {sorted(BASELINES)}"
        )
    estimator = MethodEstimator(
        canonical[lowered], dataset, seed=resolved_seed, **model_kwargs
    )
    return estimator.fit(split)
