"""The program's side of the benchmark: one process per role.

Run as ``python3 perfbench/child.py <role> [...]`` with ``src`` on
``PYTHONPATH``.  Each role talks to the load generator through one JSON
object per stdout line (``{"event": ...}``) and calls the program only
through its public entry points:

``probe``
    Import the program and generate the dataset, then exit (a set-up
    sample for ``train_cold``).
``train``
    ``train_cold``: generate the dataset, ``Pipeline.prepare()``,
    ``ConCHEstimator.fit``, ``evaluate`` on the test split.
``serve-query``
    ``ModelHandle.load(bundle)`` -> ``ModelServer`` -> ``HttpServer``,
    all at constructor defaults; serves until stdin closes.
``serve-ingest``
    Prepare and fit as ``train_cold`` does, then
    ``ModelServer(handle, pipeline=pipeline)`` -> ``HttpServer``.
``build``
    Train the ``train_cold`` model once and save it as a serving bundle
    with the answers the load generator checks against.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

from common import CONFIG, DBLP, F1_FLOOR, SPLIT_SEED, TRAIN_FRACTION

import numpy as np

from repro.api import ConCHEstimator, ModelHandle, Pipeline, load_estimator
from repro.core import ConCHConfig
from repro.data import DBLPConfig, load_dataset, stratified_split
from repro.serve import HttpServer, ModelServer


#: Full-graph ``predict()`` calls timed after training.
PREDICT_CALLS = 60


def emit(event: str, **payload) -> None:
    print(json.dumps({"event": event, **payload}), flush=True)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def dataset_and_split():
    dataset = load_dataset("dblp", config=DBLPConfig(**DBLP))
    split = stratified_split(dataset.labels, TRAIN_FRACTION, seed=SPLIT_SEED)
    return dataset, split


def train(dataset, split):
    """Cold path: prepare + fit.  Returns (pipeline, estimator, seconds)."""
    config = ConCHConfig(**CONFIG)
    started = time.perf_counter()
    pipeline = Pipeline(dataset, config=config)
    data = pipeline.prepare()
    estimator = ConCHEstimator(data, config).fit(split)
    return pipeline, estimator, time.perf_counter() - started


def role_probe(args) -> None:
    dataset_and_split()
    emit("dataset")


def role_train(args) -> None:
    dataset, split = dataset_and_split()
    emit("dataset")
    _, estimator, train_s = train(dataset, split)
    records = estimator.trainer.recorder.records
    elapsed = [0.0] + [r.elapsed_seconds for r in records]
    epoch_ms = [1000.0 * (b - a) for a, b in zip(elapsed, elapsed[1:])]
    scores = estimator.evaluate(split.test)
    predict_ms = []
    for _ in range(PREDICT_CALLS):
        started = time.perf_counter()
        predictions = estimator.predict()
        predict_ms.append(1000.0 * (time.perf_counter() - started))
    test = np.asarray(split.test)
    accuracy = float(np.mean(predictions[test] == dataset.labels[test]))
    checks = {
        "predictions_valid": bool(
            predictions.shape == dataset.labels.shape
            and np.all((predictions >= 0) & (predictions < dataset.num_classes))
        ),
        "f1_matches_predictions": abs(accuracy - scores["micro_f1"]) < 1e-12,
        "f1_above_floor": scores["micro_f1"] >= F1_FLOOR,
        "epochs_run": len(records) == CONFIG["epochs"],
    }
    emit(
        "final",
        train_s=train_s,
        epoch_ms=epoch_ms,
        predict_ms=predict_ms,
        micro_f1=float(scores["micro_f1"]),
        macro_f1=float(scores["macro_f1"]),
        checks=checks,
        peak_rss_mb=peak_rss_mb(),
    )


def serve(server, handle, **ready) -> None:
    """Expose ``server`` over HTTP until stdin closes, then report."""
    server.start()
    http = HttpServer(server).start()
    emit("ready", url=http.url, generation=int(handle.generation), **ready)
    sys.stdin.read()
    stats = server.stats()
    http.stop()
    server.stop()
    keep = ("requests", "answered", "failed", "shed", "batches", "ingests",
            "batch_size_mean")
    emit(
        "final",
        stats={k: stats.get(k) for k in keep},
        peak_rss_mb=peak_rss_mb(),
    )


def role_serve_query(args) -> None:
    handle = ModelHandle.load(args.bundle)
    serve(ModelServer(handle), handle)


def role_serve_ingest(args) -> None:
    dataset, split = dataset_and_split()
    pipeline, estimator, _ = train(dataset, split)
    handle = ModelHandle.from_estimator(estimator)
    serve(
        ModelServer(handle, pipeline=pipeline), handle,
        num_classes=int(dataset.num_classes),
        labels=np.asarray(dataset.labels).tolist(),
        test_ids=np.asarray(split.test).tolist(),
    )


def role_build(args) -> None:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    dataset, split = dataset_and_split()
    _, estimator, _ = train(dataset, split)
    bundle = out / "bundle.npz"
    estimator.save(bundle)
    expected = load_estimator(bundle).predict()
    ModelHandle.load(bundle)  # writes the memory-mapped sidecars once
    np.save(out / "expected.npy", np.asarray(expected, dtype=np.int64))
    np.save(out / "labels.npy", np.asarray(dataset.labels, dtype=np.int64))
    np.save(out / "test_ids.npy", np.asarray(split.test, dtype=np.int64))
    meta = {"num_classes": int(dataset.num_classes)}
    (out / "meta.json").write_text(json.dumps(meta))
    emit("final", **meta)


ROLES = {
    "probe": role_probe,
    "train": role_train,
    "serve-query": role_serve_query,
    "serve-ingest": role_serve_ingest,
    "build": role_build,
}


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("role", choices=sorted(ROLES))
    parser.add_argument("--bundle")
    parser.add_argument("--out")
    args = parser.parse_args()
    ROLES[args.role](args)


if __name__ == "__main__":
    main()
