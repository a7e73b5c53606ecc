"""The repository benchmark: cold training, point queries over HTTP, and
live ingest beside reads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload {train_cold,query_point,ingest_mixed} \\
        --seed N --seconds S --trace {0,1}

The last stdout line is one JSON object ``{"correct", "attempted",
"failed", "metrics"}``.  With ``--trace 0`` the metrics are the
end-to-end ones in ``BENCHMARK.json``; with ``--trace 1`` they are the
per-layer ones.  Lines before it give the same metrics as a table, the
workload's extra figures (tail percentile, rate, sample counts), the
failure accounting and a host record.  A run whose output checks fail
prints ``"correct": false`` with no metrics and exits 1; a tree without
the program's sources exits 2 and prints no result.

Workloads
---------
All three use DBLP-synthetic at the streaming scale (5000 authors,
17500 papers, 500 conferences), the streaming bench's ConCH config with
a fixed 10 epochs and early stopping off, and a 10 % stratified train
split with seed 0.  ``--seed`` drives only the inputs the load
generator sends; the training is the same in every run.

``train_cold``
    One process generates the dataset, runs ``Pipeline.prepare()``,
    ``ConCHEstimator.fit`` and ``evaluate(split.test)``.  The cold path
    (compose -> enumerate -> metapath2vec -> featurize -> fit) does all
    the work and serving none, so cold-path changes show here and
    ``query_point`` predicts no change.  F1 guards the paper's result.
``query_point``
    A server process runs ``ModelHandle.load(bundle)`` ->
    ``ModelServer`` -> ``HttpServer`` at constructor defaults.  The
    bundle comes from the same training, built once per checkout
    outside any timed region.  The load generator is one separate
    process with 2 closed-loop client threads, each sending
    ``predict_nodes([id])`` with ids uniform over all 5000 targets.
    Each request pays admission, the companion wait, the receptive-field
    gather, the sliced forward and the wire, with no training and no
    ingest.  Two clients keep micro-batching in play; uniform ids mean
    no answer cache can help (a cache claim needs its own skewed
    workload).
``ingest_mixed``
    A server process prepares and fits as ``train_cold`` does, then
    serves ``ModelServer(handle, pipeline=pipeline)`` over HTTP.  One
    closed-loop client POSTs ``/ingest`` with a seeded publication-shaped
    ``writes`` addition (12 edges, about 4 authors per touched paper),
    and only after it returns sends 3 reads of 64 ids that include the
    touched authors.  The engine row patch, context re-enumeration,
    feature splice and ``ModelHandle.refresh`` dominate, so a read
    optimisation that moves cost into ingest (say, a table built per
    generation) shows here as a worse ingest median while
    ``query_point`` shows the gain.

End-to-end metrics
------------------
Every workload reports every end-to-end metric, so the names are
generic; each means, per workload:

============  ==============================  =========================  ============================
metric        train_cold                      query_point                ingest_mixed
============  ==============================  =========================  ============================
setup_s       spawn -> dataset generated,     spawn -> first healthy     spawn -> healthy, including
              median of 3 spawns              /healthz, median of 3      prepare and fit (1 spawn)
peak_rss_mb   the training process            the server process         the server process
work_s        prepare + fit                   request phase: 24 x the    event phase: events x the
                                              median of 24 equal chunks  median event (ingest+reads)
op_p50_ms     one training epoch              one 1-id query             one /ingest round trip
read_p50_ms   full-graph ``predict()``        one 1-id query             one 64-id read after ingest
micro_f1,     test split, in process          every test id over HTTP    every test id over HTTP
macro_f1                                      after the request phase    after the last ingest
============  ==============================  =========================  ============================

``query_point`` also prints its rate (answered / wall time of the
phase) and its tail: the highest percentile with at least ten samples
beyond it (p99.5 at 2400 requests).  ``ingest_mixed`` names medians only: a run cannot
hold ten ingests beyond a tail percentile within a sane length.  A
failed or refused request counts as missing every latency limit: it
enters the percentiles as an infinite latency.

Design rules
------------
Three earlier attempts at this benchmark were too noisy: two sets of
runs of identical code disagreed.  In-process reads that overlapped
ingests moved 9 % (6.80 -> 7.44 ms), an HTTP p90 moved 5 %, and set-up
moved 5-6 % the same way on two workloads, which points to host drift.
Hence:

* No read overlaps an ingest, and the server and the load generator
  never share a GIL: servers run in their own process, load comes from
  this one.
* Load runs in a closed loop on fixed seeded inputs, and every run does
  a fixed amount of work (the request and event counts follow from
  ``--seconds`` only).  An open loop would let queueing amplify drift.
* Constructors run at their defaults and only public entry points are
  used.  Caches scrubbed: ``REPRO_CACHE_DIR`` and ``REPRO_TRACE`` never
  reach the program, so the cold path stays cold.
* Every process runs one BLAS thread and one malloc arena
  (``common.PINNED_ENV``): the server and the load generator share a
  2-core machine, where a two-thread BLAS pool that loses a core ran
  training epochs 5x slower; and per-thread arenas made the ingest
  server's peak RSS vary by 15 % between runs of one seed.
* Warm-up before timing (100 queries; 3 ingest events), then timed
  medians: 2400 queries or 20 events per run at ``--seconds 10``.
* A fixed reference kernel is timed before and after each run and
  printed with nproc, library versions and the BLAS thread count, so
  drift stays visible when runs disagree.

The traced run (``--trace 1``) repeats the workload's untraced pass,
then measures the same pass with the benchmark's span recorder on
(``trace.overhead_ms`` is traced minus untraced wall time), then walks
every layer in process (see ``layers.py``), writes a Chrome trace and
the per-layer table under ``.bench_build/perfbench/trace/``.

Out of scope: an open-loop rate sweep and the maximum sustainable rate;
reads concurrent with ingests; the 200-author fixture scale; retiring
``benchmarks/emit_bench.py`` and ``BENCH_*.json``; spans inside the
program.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import queue
import shutil
import subprocess
import sys
import threading
import time
import traceback

import common  # first: pins BLAS threads before numpy loads
import numpy as np
from common import (
    BENCH_DIR, INGEST_WARMUP_EVENTS, OUT_ROOT, QUERY_CLIENTS,
    QUERY_WARMUP_PER_CLIENT, SETUP_SAMPLES,
    SRC, event_count, event_stream, f1_scores, generation_step_ok, log, median,
    model_dir, program_env, query_count, query_stream, tail, valid_read,
    warmup_stream, wrong_answers,
)

INF = float("inf")
#: The request phase is timed as this many equal chunks; ``work_s`` is
#: their median times the count.
WORK_CHUNKS = 24


class Child:
    """One program process speaking the ``child.py`` line protocol."""

    def __init__(self, role: str, *args: str):
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "child.py"), role, *args],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=program_env(), cwd=str(common.ROOT),
        )
        self._events: "queue.Queue" = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            if line.startswith('{"event"'):
                self._events.put((time.perf_counter(), json.loads(line)))
        self._events.put((time.perf_counter(), None))

    def expect(self, event: str, timeout: float = 170.0) -> dict:
        """Block for the next protocol event; stamps ``_at`` (seconds
        since spawn) on it."""
        at, payload = self._events.get(timeout=timeout)
        if payload is None or payload["event"] != event:
            raise RuntimeError(
                f"program process ended or misbehaved waiting for {event!r}"
            )
        payload["_at"] = at - self.started
        return payload

    def close(self, timeout: float = 60.0) -> dict:
        """Ask a server to stop (stdin EOF) and collect its report."""
        self.proc.stdin.close()
        final = self.expect("final", timeout)
        self.proc.wait(timeout)
        return final

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        if self.proc.stdin and not self.proc.stdin.closed:
            self.proc.stdin.close()


def ensure_model():
    """The ``train_cold`` model as a serving bundle plus its expected
    answers, trained once per checkout and source tree."""
    target = model_dir()
    if (target / "meta.json").exists():
        return target
    log(f"building the serving bundle in {target.relative_to(common.ROOT)}")
    tmp = target.with_name(target.name + f".tmp{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    child = Child("build", "--out", str(tmp))
    try:
        child.expect("final", timeout=600)
        child.proc.wait(60)
    finally:
        child.kill()
    if child.proc.returncode != 0:
        raise RuntimeError("bundle build failed")
    if (target / "meta.json").exists():
        shutil.rmtree(tmp, ignore_errors=True)
    else:
        tmp.rename(target)
    return target


def wait_healthy(client, child: Child) -> float:
    """Seconds from spawn to the first healthy ``/healthz``."""
    while not client.healthz():
        time.sleep(0.002)
    return time.perf_counter() - child.started


def client_span(tracer):
    """The traced pass's span opener; a no-op on untraced passes."""
    if tracer is None:
        return lambda name: contextlib.nullcontext()
    return tracer.span


def ms(seconds):
    return [1000.0 * s for s in seconds]


# ------------------------------------------------------------------ #
# Workloads: each returns a dict with metrics, extra, attempted,
# failed, wrong (output-check failures) and, for --trace 1, traced_s.
# ------------------------------------------------------------------ #

def run_train_cold(seed: int, seconds: float, tracer=None) -> dict:
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        probe = Child("probe")
        try:
            setups.append(probe.expect("dataset")["_at"])
            probe.proc.wait(60)
        finally:
            probe.kill()
    child = Child("train")
    try:
        setups.append(child.expect("dataset")["_at"])
        final = child.expect("final")
        child.proc.wait(60)
    finally:
        child.kill()
    checks = final["checks"]
    failed_checks = [name for name, ok in checks.items() if not ok]
    return {
        "metrics": {
            "setup_s": median(setups),
            "peak_rss_mb": final["peak_rss_mb"],
            "work_s": final["train_s"],
            "op_p50_ms": median(final["epoch_ms"]),
            "read_p50_ms": median(final["predict_ms"]),
            "micro_f1": final["micro_f1"],
            "macro_f1": final["macro_f1"],
        },
        "extra": {
            "setup_samples_s": setups, "epochs": len(final["epoch_ms"]),
            "predict_samples": len(final["predict_ms"]),
            "failed_checks": failed_checks,
        },
        "attempted": 1, "failed": 0, "wrong": len(failed_checks),
    }


def query_phase(url: str, id_lists, expected, tracer=None) -> dict:
    """Closed loop: each thread sends its ids one at a time."""
    from repro.serve import HttpServeClient

    clients = [HttpServeClient(url) for _ in id_lists]
    latencies = [[] for _ in id_lists]
    done_at = [[] for _ in id_lists]
    errors = []
    answers = [np.full(len(ids), -1, dtype=np.int64) for ids in id_lists]
    barrier = threading.Barrier(len(id_lists) + 1)

    span = client_span(tracer)

    def send(client, node):
        with span("client.query"):
            return client.predict_nodes([node])

    def worker(index: int) -> None:
        client, lat, got = clients[index], latencies[index], answers[index]
        barrier.wait()
        for position, node in enumerate(id_lists[index]):
            started = time.perf_counter()
            try:
                answer = send(client, int(node))
            except Exception as exc:  # counted as failed, never as an answer
                errors.append(repr(exc))
                lat.append(INF)
                continue
            finished = time.perf_counter()
            lat.append(finished - started)
            done_at[index].append(finished)
            if answer.shape == (1,):
                got[position] = answer[0]

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(id_lists))]
    for thread in threads:
        thread.start()
    barrier.wait()
    started = time.perf_counter()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    # Median-of-chunks wall: equal request counts by completion order,
    # so a host slowdown over part of the phase moves one chunk only.
    finished = np.sort(np.concatenate([np.asarray(d) for d in done_at]))
    edges = np.concatenate([[started], finished[
        np.linspace(0, finished.size, WORK_CHUNKS + 1).astype(int)[1:] - 1]])
    all_lat = [x for lat in latencies for x in lat]
    answered = np.isfinite(all_lat)  # a failed request has no answer to check
    return {
        "wall_s": wall,
        "work_s": WORK_CHUNKS * median(np.diff(edges)),
        "latencies": all_lat,
        "errors": len(errors),
        "first_error": errors[0] if errors else None,
        "wrong": wrong_answers(np.concatenate(id_lists)[answered],
                               np.concatenate(answers)[answered], expected),
        "retried": sum(c.retried for c in clients),
        "dropped": sum(c.dropped for c in clients),
    }


def run_query_point(seed: int, seconds: float, tracer=None) -> dict:
    from repro.serve import HttpServeClient

    model = ensure_model()
    expected = np.load(model / "expected.npy")
    labels = np.load(model / "labels.npy")
    test_ids = np.load(model / "test_ids.npy")
    num_classes = json.loads((model / "meta.json").read_text())["num_classes"]
    bundle = str(model / "bundle.npz")

    setups = []
    samples = 1 if tracer else SETUP_SAMPLES
    for _ in range(samples - 1):
        probe = Child("serve-query", "--bundle", bundle)
        try:
            url = probe.expect("ready")["url"]
            setups.append(wait_healthy(HttpServeClient(url), probe))
            probe.close()
        finally:
            probe.kill()
    child = Child("serve-query", "--bundle", bundle)
    try:
        url = child.expect("ready")["url"]
        setups.append(wait_healthy(HttpServeClient(url), child))
        warm = warmup_stream(seed, QUERY_CLIENTS * QUERY_WARMUP_PER_CLIENT)
        query_phase(url, [warm[i::QUERY_CLIENTS] for i in range(QUERY_CLIENTS)],
                    expected)
        n = query_count(seconds)
        ids = query_stream(seed, 2 * n if tracer else n)
        phase = query_phase(
            url, [ids[:n][i::QUERY_CLIENTS] for i in range(QUERY_CLIENTS)], expected
        )
        traced = None
        if tracer:
            traced = query_phase(
                url, [ids[n:][i::QUERY_CLIENTS] for i in range(QUERY_CLIENTS)],
                expected, tracer=tracer,
            )
        swept = HttpServeClient(url).predict_nodes(test_ids)
        final = child.close()
    finally:
        child.kill()

    lat_ms = ms(phase["latencies"])
    answered = len(lat_ms) - phase["errors"]
    micro, macro = f1_scores(labels[test_ids], swept, num_classes)
    stats = final["stats"]
    tail_pct = tail(lat_ms)
    result = {
        "metrics": {
            "setup_s": median(setups),
            "peak_rss_mb": final["peak_rss_mb"],
            "work_s": phase["work_s"],
            "op_p50_ms": median(lat_ms),
            "read_p50_ms": median(lat_ms),
            "micro_f1": micro,
            "macro_f1": macro,
        },
        "extra": {
            "requests": len(lat_ms),
            "wall_s": phase["wall_s"],
            "query_rps": answered / phase["wall_s"],
            "tail": {"percentile": tail_pct[0], "ms": tail_pct[1]} if tail_pct else None,
            "setup_samples_s": setups,
            "batch_size_mean": stats.get("batch_size_mean"),
            "shed": stats["shed"], "server_failed": stats["failed"],
            "retried": phase["retried"], "dropped": phase["dropped"],
            "first_error": phase["first_error"],
        },
        "attempted": len(lat_ms),
        "failed": phase["errors"],
        "wrong": phase["wrong"] + wrong_answers(test_ids, swept, expected),
    }
    if traced is not None:
        result["traced_s"] = traced["work_s"]
        result["wrong"] += traced["wrong"]
        result["failed"] += traced["errors"]
        result["attempted"] += len(traced["latencies"])
    return result


def ingest_phase(client, events, generation: int, num_classes: int, tracer=None):
    """One event at a time: ingest, then the reads, never overlapping."""
    from repro.hin.graph import EdgeDelta

    span = client_span(tracer)
    ingest_lat, read_lat, event_s = [], [], []
    errors, wrong = [], 0
    started_phase = time.perf_counter()
    for event in events:
        delta = EdgeDelta.additions("writes", event["src"], event["dst"])
        started = event_started = time.perf_counter()
        try:
            with span("client.ingest"):
                summary = client.ingest(delta)
        except Exception as exc:  # counted as failed
            errors.append(repr(exc))
            ingest_lat.append(INF)
            continue
        ingest_lat.append(time.perf_counter() - started)
        if not generation_step_ok(generation, summary["generation"]):
            wrong += 1
        generation = int(summary["generation"])
        for ids in event["reads"]:
            started = time.perf_counter()
            try:
                with span("client.read"):
                    labels = client.predict_nodes(ids)
            except Exception as exc:  # counted as failed
                errors.append(repr(exc))
                read_lat.append(INF)
                continue
            read_lat.append(time.perf_counter() - started)
            if not valid_read(ids, labels, num_classes):
                wrong += 1
        event_s.append(time.perf_counter() - event_started)
    return {
        "wall_s": time.perf_counter() - started_phase,
        # median event times the count: robust to a partial slowdown
        "work_s": len(events) * median(event_s) if event_s else INF,
        "ingest_lat": ingest_lat, "read_lat": read_lat,
        "errors": len(errors), "wrong": wrong, "generation": generation,
        "first_error": errors[0] if errors else None,
    }


def run_ingest_mixed(seed: int, seconds: float, tracer=None) -> dict:
    from repro.serve import HttpServeClient

    n = event_count(seconds)
    w = INGEST_WARMUP_EVENTS
    events = event_stream(seed, w + (2 * n if tracer else n))
    child = Child("serve-ingest")
    try:
        ready = child.expect("ready")
        client = HttpServeClient(ready["url"])
        setup = wait_healthy(client, child)
        num_classes = ready["num_classes"]
        labels = np.asarray(ready["labels"])
        test_ids = np.asarray(ready["test_ids"])
        warm = ingest_phase(client, events[:w], ready["generation"], num_classes)
        phase = ingest_phase(client, events[w:w + n], warm["generation"], num_classes)
        traced = None
        if tracer:
            traced = ingest_phase(client, events[w + n:], phase["generation"],
                                  num_classes, tracer=tracer)
        swept = client.predict_nodes(test_ids)
        final = child.close()
    finally:
        child.kill()

    ingest_ms, read_ms = ms(phase["ingest_lat"]), ms(phase["read_lat"])
    micro, macro = f1_scores(labels[test_ids], swept, num_classes)
    stats = final["stats"]
    result = {
        "metrics": {
            "setup_s": setup,
            "peak_rss_mb": final["peak_rss_mb"],
            "work_s": phase["work_s"],
            "op_p50_ms": median(ingest_ms),
            "read_p50_ms": median(read_ms),
            "micro_f1": micro,
            "macro_f1": macro,
        },
        "extra": {
            "ingests": len(ingest_ms), "reads": len(read_ms),
            "wall_s": phase["wall_s"],
            "shed": stats["shed"], "server_failed": stats["failed"],
            "retried": client.retried, "dropped": client.dropped,
            "warmup_errors": warm["errors"],
            "first_error": warm["first_error"] or phase["first_error"],
        },
        "attempted": len(ingest_ms) + len(read_ms),
        "failed": phase["errors"] + warm["errors"],
        "wrong": (phase["wrong"] + warm["wrong"]
                  + (not valid_read(test_ids, swept, num_classes))),
    }
    if traced is not None:
        result["traced_s"] = traced["work_s"]
        result["wrong"] += traced["wrong"]
        result["failed"] += traced["errors"]
        result["attempted"] += len(traced["ingest_lat"]) + len(traced["read_lat"])
    return result


WORKLOADS = {
    "train_cold": run_train_cold,
    "query_point": run_query_point,
    "ingest_mixed": run_ingest_mixed,
}

END_TO_END_UNITS = {
    "setup_s": "s", "peak_rss_mb": "MB", "work_s": "s", "op_p50_ms": "ms",
    "read_p50_ms": "ms", "micro_f1": "ratio", "macro_f1": "ratio",
}


def traced_run(workload: str, seed: int, seconds: float) -> dict:
    """Untraced pass, traced pass, then the per-layer walk."""
    from repro.obs.trace import SpanTracer
    from layers import LAYER_METRICS, layer_table, layer_walk

    tracer = SpanTracer(capacity=1 << 16)
    tracer.enable()
    result = WORKLOADS[workload](seed, seconds, tracer)
    model = ensure_model()
    bundle = str(model / "bundle.npz")
    layers, wrong, prepare_fit_s = layer_walk(
        seed, tracer, model, lambda: Child("serve-query", "--bundle", bundle)
    )
    traced_s = result.get("traced_s", prepare_fit_s)
    layers["trace.overhead_ms"] = 1000.0 * (traced_s - result["metrics"]["work_s"])
    result["wrong"] += wrong

    trace_dir = OUT_ROOT / "trace"
    trace_dir.mkdir(parents=True, exist_ok=True)
    stem = trace_dir / f"{workload}-seed{seed}"
    tracer.export_chrome(str(stem) + ".chrome.json")
    table = layer_table(layers)
    (stem.parent / (stem.name + ".layers.md")).write_text(table + "\n")
    print(table)
    print(f"trace: {stem.relative_to(common.ROOT)}.chrome.json "
          f"({len(tracer.finished())} spans, {tracer.dropped()} dropped)")
    units = {name: unit for name, unit, *_ in LAYER_METRICS}
    result["metrics"] = {name: layers[name] for name in units}
    result["units"] = units
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "repro" / "__init__.py").exists():
        log("the program's sources (src/repro) are missing; nothing to run")
        return 2
    for name in common.SCRUBBED_ENV:
        os.environ.pop(name, None)
    sys.path.insert(0, str(SRC))

    host = common.host_record()
    host["reference_kernel_before_s"] = common.reference_kernel()
    try:
        if args.trace:
            result = traced_run(args.workload, args.seed, args.seconds)
        else:
            result = WORKLOADS[args.workload](args.seed, args.seconds, None)
            result["units"] = END_TO_END_UNITS
    except Exception:  # the program broke: report failure, not numbers
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    host["reference_kernel_after_s"] = common.reference_kernel()

    correct = result["wrong"] == 0
    for name, value in result["metrics"].items():
        print(f"{name:32s} {value:14.6f} {result['units'][name]}")
    print("extra: " + json.dumps(result.get("extra", {}), default=float))
    print("accounting: " + json.dumps({
        "attempted": result["attempted"], "failed": result["failed"],
        "wrong_answers": result["wrong"],
    }))
    print("host: " + json.dumps(host))
    metrics = {
        name: {"value": float(value), "unit": result["units"][name]}
        for name, value in result["metrics"].items()
    } if correct else {}
    print(json.dumps({
        "correct": correct,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
