"""The traced run: one in-process walk through every layer.

Spans come from a private :class:`repro.obs.trace.SpanTracer` opened by
the benchmark around its own calls into public functions, so the
program's own tracer stays off.  Per-layer figures are read back from
the finished spans; counts come from public ``stats()`` and return
values.  A nested layer's self time is its median minus the median of
the layer it wraps (scheduler = server - handle, wire = HTTP - server).
"""

from __future__ import annotations

import statistics
import threading
from collections import defaultdict
from typing import Dict, List

import numpy as np

from common import CONFIG, DBLP, QUERY_CLIENTS, SPLIT_SEED, TRAIN_FRACTION
from common import event_stream, query_stream, wrong_answers

#: Requests per client in each serving segment of the walk.
WALK_QUERIES_PER_CLIENT = 300
WALK_HEALTHZ = 50
#: Ingest events in the walk (after one untimed warm-up event).
WALK_EVENTS = 8
FULL_FORWARDS = 5
BUNDLE_LOADS = 3

# name, unit, better, call timed, should move, predicted no change.
LAYER_METRICS = [
    ("data.load_s", "s", "lower", "load_dataset",
     "setup_s (train_cold, ingest_mixed)", "query_point"),
    ("api.discover_s", "s", "lower", "Pipeline.discover",
     "work_s (train_cold); setup_s (ingest_mixed)", "query_point"),
    ("hin.compose_s", "s", "lower", "Pipeline.compose",
     "work_s (train_cold); setup_s (ingest_mixed)", "query_point"),
    ("hin.enumerate_s", "s", "lower", "Pipeline.enumerate",
     "work_s (train_cold); setup_s (ingest_mixed)", "query_point"),
    ("embedding.metapath2vec_s", "s", "lower", "metapath2vec_embeddings",
     "work_s (train_cold); setup_s (ingest_mixed)",
     "query_point; op_p50_ms (ingest_mixed)"),
    ("core.featurize_s", "s", "lower", "Pipeline.featurize(embeddings=...)",
     "work_s (train_cold)", "query_point"),
    ("core.fit_s", "s", "lower", "ConCHEstimator.fit",
     "work_s (train_cold); setup_s (ingest_mixed)", "query_point"),
    ("core.epoch_ms", "ms", "lower", "ConCHEstimator.fit / epochs",
     "op_p50_ms (train_cold)", "query_point"),
    ("core.full_forward_ms", "ms", "lower", "ConCHEstimator.predict()",
     "read_p50_ms (train_cold); per-epoch validation in work_s", "-"),
    ("hin.product_nnz", "count", "lower", "ComposeReport.nnz",
     "explains work_s (train_cold)", "-"),
    ("hin.context_pairs", "count", "lower", "ContextSet.pairs",
     "explains work_s (train_cold)", "-"),
    ("core.epochs", "count", "lower", "trainer recorder",
     "explains work_s (train_cold)", "-"),
    ("api.bundle_load_s", "s", "lower", "ModelHandle.load",
     "setup_s (query_point)", "train_cold"),
    ("api.handle_predict_p50_ms", "ms", "lower", "ModelHandle.predict_nodes",
     "op_p50_ms, work_s (query_point)", "train_cold"),
    ("api.receptive_objects_mean", "count", "lower",
     "ModelHandle.last_query_stats['subgraph_objects']",
     "op_p50_ms (query_point)", "train_cold"),
    ("serve.server_predict_p50_ms", "ms", "lower",
     "ModelServer.predict_nodes, 2 closed-loop threads",
     "op_p50_ms, work_s (query_point)", "train_cold"),
    ("serve.scheduler_self_ms", "ms", "lower", "server p50 - handle p50",
     "op_p50_ms (query_point)", "train_cold"),
    ("serve.batch_size_mean", "count", "higher", "ModelServer.stats()",
     "work_s (query_point)", "train_cold"),
    ("serve.batches", "count", "lower", "ModelServer.stats()",
     "work_s (query_point)", "train_cold"),
    ("http.healthz_p50_ms", "ms", "lower", "GET /healthz",
     "op_p50_ms (query_point)", "train_cold"),
    ("http.predict_p50_ms", "ms", "lower",
     "HttpServeClient.predict_nodes, 2 closed-loop threads",
     "op_p50_ms (query_point)", "train_cold"),
    ("http.wire_p50_ms", "ms", "lower", "HTTP p50 - in-process server p50",
     "op_p50_ms (query_point); read_p50_ms (ingest_mixed)", "train_cold"),
    ("api.pipeline_ingest_p50_ms", "ms", "lower", "Pipeline.ingest",
     "op_p50_ms (ingest_mixed)", "query_point"),
    ("api.ingest_compose_p50_ms", "ms", "lower",
     "Pipeline.ingest StageEvent 'compose'", "op_p50_ms (ingest_mixed)",
     "query_point"),
    ("api.ingest_enumerate_p50_ms", "ms", "lower",
     "Pipeline.ingest StageEvent 'enumerate'", "op_p50_ms (ingest_mixed)",
     "query_point"),
    ("api.ingest_featurize_p50_ms", "ms", "lower",
     "Pipeline.ingest StageEvent 'featurize'", "op_p50_ms (ingest_mixed)",
     "query_point"),
    ("hin.patched_rows", "count", "lower", "engine.stats()",
     "op_p50_ms (ingest_mixed)", "query_point"),
    ("hin.patched_products", "count", "lower", "engine.stats()",
     "op_p50_ms (ingest_mixed)", "query_point"),
    ("hin.reenumerated_pairs", "count", "lower",
     "enumerate StageEvent detail", "op_p50_ms (ingest_mixed)",
     "query_point"),
    ("api.refresh_p50_ms", "ms", "lower", "ModelHandle.refresh",
     "op_p50_ms (ingest_mixed)", "query_point"),
    ("api.read_handle_p50_ms", "ms", "lower",
     "ModelHandle.predict_nodes, 64-id reads", "read_p50_ms (ingest_mixed)",
     "-"),
    ("serve.shed", "count", "lower", "ModelServer.stats()",
     "failed, all workloads", "-"),
    ("serve.failed", "count", "lower", "ModelServer.stats()",
     "failed, all workloads", "-"),
    ("client.retried", "count", "lower", "HttpServeClient.retried",
     "failed, all workloads", "-"),
    ("client.dropped", "count", "lower", "HttpServeClient.dropped",
     "failed, all workloads", "-"),
    ("trace.overhead_ms", "ms", "lower",
     "traced - untraced wall of the workload's fixed work", "-", "-"),
]


def _durations_ms(tracer, name: str) -> List[float]:
    return [1000.0 * s.duration_s for s in tracer.finished() if s.name == name]


def _p50(values) -> float:
    return float(statistics.median(values))


def _closed_loop(call, id_lists, tracer, span_name):
    """Run ``call(client_index, id)`` over each list on its own thread."""
    answers = [[] for _ in id_lists]

    def worker(index: int) -> None:
        for node in id_lists[index]:
            with tracer.span(span_name):
                answers[index].append(call(index, int(node)))

    threads = [
        threading.Thread(target=worker, args=(i,)) for i in range(len(id_lists))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return answers


def layer_walk(seed: int, tracer, model_dir, spawn_query_server):
    """Time every layer once.

    Returns ``(metrics, wrong answers, traced prepare + fit seconds)``.
    """
    from repro.api import ConCHEstimator, ModelHandle, Pipeline
    from repro.core import ConCHConfig
    from repro.data import DBLPConfig, load_dataset, stratified_split
    from repro.embedding.metapath2vec import metapath2vec_embeddings
    from repro.hin.graph import EdgeDelta
    from repro.serve import HttpServeClient, ModelServer

    span = tracer.span
    out: Dict[str, float] = {}
    wrong = 0
    expected = np.load(model_dir / "expected.npy")

    # -- cold path ---------------------------------------------------
    config = ConCHConfig(**CONFIG)
    with span("data.load"):
        dataset = load_dataset("dblp", config=DBLPConfig(**DBLP))
    split = stratified_split(dataset.labels, TRAIN_FRACTION, seed=SPLIT_SEED)
    with span("walk.prepare_fit"):
        pipeline = Pipeline(dataset, config=config)
        with span("api.discover"):
            plan = pipeline.discover()
        with span("hin.compose"):
            report = pipeline.compose()
        with span("hin.enumerate"):
            contexts = pipeline.enumerate()
        with span("embedding.metapath2vec"):
            embeddings = metapath2vec_embeddings(
                dataset.hin, plan.metapaths(), dim=config.context_dim,
                num_walks=config.embed_num_walks,
                walk_length=config.embed_walk_length,
                window=config.embed_window, epochs=config.embed_epochs,
                seed=config.seed,
            )
        with span("core.featurize"):
            pipeline.featurize(embeddings=embeddings)
        with span("core.fit"):
            estimator = ConCHEstimator(pipeline.data, config).fit(split)
    for _ in range(FULL_FORWARDS):
        with span("core.full_forward"):
            estimator.predict()
    for name in ("data.load", "api.discover", "hin.compose", "hin.enumerate",
                 "embedding.metapath2vec", "core.featurize", "core.fit"):
        key = name + "_s"
        out[key] = _durations_ms(tracer, name)[0] / 1000.0
    epochs = len(estimator.trainer.recorder.records)
    out["core.epochs"] = epochs
    out["core.epoch_ms"] = 1000.0 * out["core.fit_s"] / max(epochs, 1)
    out["core.full_forward_ms"] = _p50(_durations_ms(tracer, "core.full_forward"))
    out["hin.product_nnz"] = int(sum(report.nnz))
    out["hin.context_pairs"] = int(sum(p.shape[0] for p in contexts.pairs))
    prepare_fit_s = _durations_ms(tracer, "walk.prepare_fit")[0] / 1000.0

    # -- serving: handle, in-process scheduler, HTTP wire ------------
    bundle = model_dir / "bundle.npz"
    for _ in range(BUNDLE_LOADS):
        with span("api.bundle_load"):
            handle = ModelHandle.load(bundle)
    out["api.bundle_load_s"] = _p50(_durations_ms(tracer, "api.bundle_load")) / 1000.0

    ids = query_stream(seed, QUERY_CLIENTS * WALK_QUERIES_PER_CLIENT)
    id_lists = [ids[i::QUERY_CLIENTS] for i in range(QUERY_CLIENTS)]
    objects = []
    for node in id_lists[0]:
        with span("api.handle_predict"):
            answer = handle.predict_nodes([int(node)])
        objects.append(handle.last_query_stats["subgraph_objects"])
        wrong += wrong_answers([node], answer, expected)
    out["api.handle_predict_p50_ms"] = _p50(
        _durations_ms(tracer, "api.handle_predict"))
    out["api.receptive_objects_mean"] = float(np.mean(objects))

    server = ModelServer(handle).start()
    try:
        answers = _closed_loop(
            lambda _i, node: server.predict_nodes([node]),
            id_lists, tracer, "serve.server_predict",
        )
        stats = server.stats()
    finally:
        server.stop()
    for id_list, got in zip(id_lists, answers):
        wrong += wrong_answers(id_list, np.concatenate(got), expected)
    out["serve.server_predict_p50_ms"] = _p50(
        _durations_ms(tracer, "serve.server_predict"))
    out["serve.scheduler_self_ms"] = (
        out["serve.server_predict_p50_ms"] - out["api.handle_predict_p50_ms"]
    )
    out["serve.batch_size_mean"] = float(stats.get("batch_size_mean") or 0.0)
    out["serve.batches"] = int(stats["batches"])
    shed, failed = int(stats["shed"]), int(stats["failed"])

    child = spawn_query_server()
    try:
        url = child.expect("ready")["url"]
        clients = [HttpServeClient(url) for _ in range(QUERY_CLIENTS)]
        for _ in range(WALK_HEALTHZ):
            with span("http.healthz"):
                clients[0].healthz()
        answers = _closed_loop(
            lambda i, node: clients[i].predict_nodes([node]),
            id_lists, tracer, "http.predict",
        )
        final = child.close()
    finally:
        child.kill()
    for id_list, got in zip(id_lists, answers):
        wrong += wrong_answers(id_list, np.concatenate(got), expected)
    out["http.healthz_p50_ms"] = _p50(_durations_ms(tracer, "http.healthz"))
    out["http.predict_p50_ms"] = _p50(_durations_ms(tracer, "http.predict"))
    out["http.wire_p50_ms"] = (
        out["http.predict_p50_ms"] - out["serve.server_predict_p50_ms"]
    )
    shed += int(final["stats"]["shed"])
    failed += int(final["stats"]["failed"])
    out["client.retried"] = sum(c.retried for c in clients)
    out["client.dropped"] = sum(c.dropped for c in clients)

    # -- live ingest: pipeline patch, handle refresh, reads ----------
    live = ModelHandle.from_estimator(estimator)
    engine = pipeline.engine
    events = event_stream(seed, 1 + WALK_EVENTS)
    stage_ms = defaultdict(list)
    reenumerated = 0
    for index, event in enumerate(events):
        delta = EdgeDelta.additions("writes", event["src"], event["dst"])
        if index == 0:  # warm-up: lazy engine state settles here
            pipeline.ingest(delta)
            live.refresh(pipeline.data)
            before = engine.stats()
            continue
        with span("api.pipeline_ingest"):
            stage_events = pipeline.ingest(delta)
        with span("api.refresh"):
            live.refresh(pipeline.data)
        for ids_read in event["reads"]:
            with span("api.read_handle"):
                labels = live.predict_nodes(ids_read)
            if labels.shape != ids_read.shape:
                wrong += 1
        for stage_event in stage_events:
            stage_ms[stage_event.stage].append(1000.0 * stage_event.seconds)
            if stage_event.stage == "enumerate":
                reenumerated += int(sum(stage_event.detail.get("reenumerated", ())))
    after = engine.stats()
    out["api.pipeline_ingest_p50_ms"] = _p50(
        _durations_ms(tracer, "api.pipeline_ingest"))
    for stage in ("compose", "enumerate", "featurize"):
        out[f"api.ingest_{stage}_p50_ms"] = _p50(stage_ms[stage])
    out["hin.patched_rows"] = after["patched_rows"] - before["patched_rows"]
    out["hin.patched_products"] = (
        after["patched_products"] - before["patched_products"]
    )
    out["hin.reenumerated_pairs"] = reenumerated
    out["api.refresh_p50_ms"] = _p50(_durations_ms(tracer, "api.refresh"))
    out["api.read_handle_p50_ms"] = _p50(_durations_ms(tracer, "api.read_handle"))
    out["serve.shed"] = shed
    out["serve.failed"] = failed
    return out, wrong, prepare_fit_s


def layer_table(metrics: Dict[str, float]) -> str:
    """The per-layer table, each row mapped to the end-to-end metric it
    should move and the workload where it should not."""
    lines = [
        "| metric | value | unit | call timed | should move | predicted no change |",
        "|---|---|---|---|---|---|",
    ]
    for name, unit, _better, call, moves, stays in LAYER_METRICS:
        value = metrics.get(name)
        shown = f"{value:.4f}" if isinstance(value, float) else str(value)
        lines.append(f"| {name} | {shown} | {unit} | {call} | {moves} | {stays} |")
    return "\n".join(lines)
