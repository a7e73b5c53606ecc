"""Shared pieces of the benchmark: fixed configuration, seeded input
streams, output checks, summary statistics and the host record.

Nothing here imports the program at module load, so the load generator
can build its inputs (and the tests can check them) without paying for
``repro`` imports.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Sequence

#: Process settings that keep runs comparable, applied here before numpy
#: loads and to every program process.  One BLAS thread: the server and
#: the load generator share the machine's cores, and a multi-threaded
#: BLAS pool that loses a core to its neighbour waits at every barrier
#: (two trainings side by side ran their epochs 5x slower with two
#: threads each).  One malloc arena: otherwise each HTTP handler thread
#: may grow its own arena, and the ingest server's peak RSS varied from
#: 1440 to 1656 MB between runs of one seed.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "MALLOC_ARENA_MAX": "1"}
os.environ.update(PINNED_ENV)

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
#: Everything the benchmark writes lives under here (gitignored).
OUT_ROOT = ROOT / ".bench_build" / "perfbench"

# DBLP-synthetic at the streaming scale.
DBLP = dict(num_authors=5000, num_papers=17500, num_conferences=500)
# The streaming bench's ConCH config.  A fixed epoch count with early
# stopping off (patience == epochs) makes every training do the same work.
CONFIG = dict(
    k=5, context_dim=16, embed_num_walks=2, embed_walk_length=10,
    embed_epochs=1, max_instances=8, epochs=10, patience=10,
)
TRAIN_FRACTION = 0.1
SPLIT_SEED = 0
#: Test micro-F1 below this means the model is broken, not just noisy.
F1_FLOOR = 0.8

# Closed-loop shapes.
QUERY_CLIENTS = 2
QUERIES_PER_SECOND = 240        # nominal rate: fixes the request count
QUERY_WARMUP_PER_CLIENT = 50
EVENTS_PER_SECOND = 2          # nominal rate: fixes the ingest count
INGEST_WARMUP_EVENTS = 3
EDGES_PER_EVENT = 12
AUTHORS_PER_PAPER = 4
READS_PER_EVENT = 3
READ_SIZE = 64
#: Set-up samples per run on the workloads whose set-up is cheap.
SETUP_SAMPLES = 3

SCRUBBED_ENV = ("REPRO_CACHE_DIR", "REPRO_TRACE")


def program_env() -> Dict[str, str]:
    """Environment for the program's processes: ambient caches and
    tracing scrubbed, BLAS pinned, the source tree on the path."""
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def query_count(seconds: float) -> int:
    return max(200, int(round(seconds * QUERIES_PER_SECOND)))


def event_count(seconds: float) -> int:
    return max(4, int(round(seconds * EVENTS_PER_SECOND)))


# ------------------------------------------------------------------ #
# Seeded input streams (generated in the load generator only)
# ------------------------------------------------------------------ #

def query_stream(seed: int, count: int) -> np.ndarray:
    """Target ids drawn uniformly over every author."""
    rng = np.random.default_rng([seed, 1])
    return rng.integers(0, DBLP["num_authors"], size=count, dtype=np.int64)


def warmup_stream(seed: int, count: int) -> np.ndarray:
    rng = np.random.default_rng([seed, 3])
    return rng.integers(0, DBLP["num_authors"], size=count, dtype=np.int64)


def event_stream(seed: int, count: int) -> List[dict]:
    """Publication-shaped ``writes`` additions plus the reads after each.

    Each event adds ``EDGES_PER_EVENT`` author->paper edges spread over
    ``EDGES_PER_EVENT // AUTHORS_PER_PAPER`` papers, then reads
    ``READS_PER_EVENT`` batches of ``READ_SIZE`` ids that start with the
    touched authors.
    """
    rng = np.random.default_rng([seed, 2])
    events = []
    for _ in range(count):
        papers = rng.choice(
            DBLP["num_papers"],
            size=max(1, EDGES_PER_EVENT // AUTHORS_PER_PAPER),
            replace=False,
        )
        src = rng.integers(0, DBLP["num_authors"], size=EDGES_PER_EVENT)
        dst = rng.choice(papers, size=EDGES_PER_EVENT)
        touched = np.unique(src)
        reads = []
        for _ in range(READS_PER_EVENT):
            fill = rng.integers(
                0, DBLP["num_authors"], size=READ_SIZE - touched.size
            )
            reads.append(np.concatenate([touched, fill]).astype(np.int64))
        events.append(
            {"src": src.astype(np.int64), "dst": dst.astype(np.int64),
             "reads": reads}
        )
    return events


# ------------------------------------------------------------------ #
# Output checks
# ------------------------------------------------------------------ #

def wrong_answers(ids, answers, expected: np.ndarray) -> int:
    """How many answers differ from the full-graph prediction."""
    ids = np.asarray(ids, dtype=np.int64)
    answers = np.asarray(answers)
    if answers.shape != ids.shape:
        return int(ids.size)
    return int(np.count_nonzero(answers != expected[ids]))


def valid_read(ids, labels, num_classes: int) -> bool:
    labels = np.asarray(labels)
    return (
        labels.shape == np.asarray(ids).shape
        and np.issubdtype(labels.dtype, np.integer)
        and bool(np.all((labels >= 0) & (labels < num_classes)))
    )


def generation_step_ok(previous: int, current: int) -> bool:
    return int(current) == int(previous) + 1


# ------------------------------------------------------------------ #
# Summaries
# ------------------------------------------------------------------ #

def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def tail(values: Sequence[float]):
    """(percentile, value) of the highest percentile with at least ten
    samples beyond it, or None when there are fewer than 20 samples."""
    n = len(values)
    if n < 20:
        return None
    pct = 100.0 * (1.0 - 10.0 / n)
    pct = min(99.9, float(np.floor(pct * 10) / 10))
    return pct, float(np.percentile(values, pct))


def f1_scores(truth: np.ndarray, predicted: np.ndarray, num_classes: int):
    """Micro- and macro-F1 of single-label predictions."""
    truth = np.asarray(truth)
    predicted = np.asarray(predicted)
    micro = float(np.mean(truth == predicted)) if truth.size else 0.0
    per_class = []
    for c in range(num_classes):
        tp = np.count_nonzero((predicted == c) & (truth == c))
        fp = np.count_nonzero((predicted == c) & (truth != c))
        fn = np.count_nonzero((predicted != c) & (truth == c))
        denom = 2 * tp + fp + fn
        per_class.append(2 * tp / denom if denom else 0.0)
    return micro, float(np.mean(per_class))


# ------------------------------------------------------------------ #
# Host record
# ------------------------------------------------------------------ #

def reference_kernel(repeats: int = 5) -> float:
    """Median seconds of a fixed numpy + pure-Python kernel.

    Owned by the benchmark and independent of the program: timed before
    and after a run, it shows host drift when two runs disagree.
    """
    rng = np.random.default_rng(0)
    base = rng.standard_normal((256, 256))
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        a = base
        for _ in range(20):
            a = np.tanh(a @ a.T / 256.0)
        total = 0
        for i in range(400_000):
            total += i * i
        times.append(time.perf_counter() - started)
    return median(times)


def blas_threads():
    """OpenBLAS's thread count as numpy's bundled library reports it."""
    import ctypes

    libs = glob.glob(
        os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs", "*openblas*")
    )
    for path in libs:
        try:
            lib = ctypes.CDLL(path, mode=getattr(os, "RTLD_NOLOAD", 0))
        except OSError:
            continue
        for name in ("scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def host_record() -> Dict[str, object]:
    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas_threads": blas_threads(),
        "program_env": dict(PINNED_ENV),
    }


# ------------------------------------------------------------------ #
# The trained-model cache (built once per checkout, outside timing)
# ------------------------------------------------------------------ #

def source_key() -> str:
    """Content hash of the program's sources plus the benchmark config:
    a changed program never serves a stale bundle."""
    h = hashlib.sha256()
    h.update(json.dumps([DBLP, CONFIG, TRAIN_FRACTION, SPLIT_SEED],
                        sort_keys=True).encode())
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def model_dir() -> Path:
    return OUT_ROOT / "model" / source_key()


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)
