"""Per-rule fixture tests for the ``repro.analysis`` static checkers.

Each rule gets seeded-violation fixtures written to ``tmp_path`` and the
analyzer must (a) flag them with the right rule id at the right line and
(b) stay silent on the compliant twin.  The CLI contract (exit codes,
``--json``, ``--rules``) is exercised through ``python -m
repro.analysis`` subprocesses — the same invocation the gate test and CI
use.
"""

import json
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.analysis import (
    AnalysisCache,
    AnalysisResult,
    Finding,
    SourceFile,
    analyze_paths,
    collect_guarded,
    default_rules,
    iter_python_files,
)
from repro.analysis.core import fingerprint_stage_markers
from repro.analysis.rules import (
    BlockingUnderLockRule,
    CSRCanonicalRule,
    DeltaDisciplineRule,
    DeterminismRule,
    FingerprintCompletenessRule,
    FutureResolutionRule,
    LockDisciplineRule,
    LockOrderRule,
    UnusedSuppressionRule,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


def write(tmp_path: Path, name: str, body: str) -> Path:
    path = tmp_path / name
    path.write_text(textwrap.dedent(body))
    return path


def run_rule(rule, path: Path):
    source = SourceFile(path, path.read_text())
    return list(rule.check(source))


# ---------------------------------------------------------------------- #
# lock-discipline
# ---------------------------------------------------------------------- #


class TestLockDiscipline:
    def test_unguarded_read_and_write_flagged(self, tmp_path):
        path = write(tmp_path, "bad_lock.py", """\
            import threading

            class Counter:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.total = 0  # guarded-by: _lock

                def bump(self):
                    self.total += 1

                def peek(self):
                    return self.total
        """)
        findings = run_rule(LockDisciplineRule(), path)
        assert [f.rule for f in findings] == ["lock-discipline"] * 2
        assert sorted(f.line for f in findings) == [9, 12]
        assert all("'self.total'" in f.message for f in findings)

    def test_guarded_access_clean(self, tmp_path):
        path = write(tmp_path, "good_lock.py", """\
            import threading

            class Counter:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.total = 0  # guarded-by: _lock

                def bump(self):
                    with self._lock:
                        self.total += 1

                def snapshot(self):
                    with self._lock:
                        return {"total": self.total}
        """)
        assert run_rule(LockDisciplineRule(), path) == []

    def test_init_is_exempt(self, tmp_path):
        # __init__ builds the object before it is shared; annotated
        # assignments there must not self-flag.
        path = write(tmp_path, "init_exempt.py", """\
            import threading

            class Box:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.items = []  # guarded-by: _lock
                    self.items.append(1)
        """)
        assert run_rule(LockDisciplineRule(), path) == []

    def test_nested_function_does_not_inherit_lock_scope(self, tmp_path):
        # A closure may run on another thread after the with-block exits;
        # the checker must treat its accesses as unguarded.
        path = write(tmp_path, "closure.py", """\
            import threading

            class Box:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.value = 0  # guarded-by: _lock

                def deferred(self):
                    with self._lock:
                        def later():
                            return self.value
                        return later
        """)
        findings = run_rule(LockDisciplineRule(), path)
        assert len(findings) == 1
        assert "'self.value'" in findings[0].message

    def test_other_class_same_attr_name_not_flagged(self, tmp_path):
        path = write(tmp_path, "two_classes.py", """\
            import threading

            class Guarded:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.total = 0  # guarded-by: _lock

            class Plain:
                def __init__(self):
                    self.total = 0

                def bump(self):
                    self.total += 1
        """)
        assert run_rule(LockDisciplineRule(), path) == []

    def test_suppression_silences_one_line(self, tmp_path):
        path = write(tmp_path, "suppressed.py", """\
            import threading

            class Counter:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.total = 0  # guarded-by: _lock

                def racy_probe(self):
                    return self.total  # repro: ignore[lock-discipline]
        """)
        assert run_rule(LockDisciplineRule(), path) == []

    def test_collect_guarded_matches_static_view(self, tmp_path):
        # The runtime sanitizer and the static rule must read the same
        # annotations off the real classes.
        from repro.hin.cache import LRUByteCache
        from repro.serve.server import ModelServer

        cache_guarded = collect_guarded(LRUByteCache)
        assert cache_guarded.get("_entries") == "_lock"
        assert cache_guarded.get("hits") == "_lock"
        server_guarded = collect_guarded(ModelServer)
        assert server_guarded.get("_counters") == "_lock"
        assert server_guarded.get("_latencies") == "_lock"


# ---------------------------------------------------------------------- #
# fingerprint-completeness
# ---------------------------------------------------------------------- #


FP_HEADER = textwrap.dedent("""\
    STAGE_FIELDS = {
        "discover": (),
        "compose": ("neighbor_strategy",),
        "enumerate": ("k", "seed"),
        "fit": ("*",),
    }
    _STAGE_ORDER = ("discover", "compose", "enumerate", "fit")
""")


def write_fp(tmp_path: Path, name: str, body: str) -> Path:
    """A fixture module carrying its own STAGE_FIELDS plus ``body``."""
    path = tmp_path / name
    path.write_text(FP_HEADER + textwrap.dedent(body))
    return path


class TestFingerprintCompleteness:
    def test_unkeyed_config_read_flagged(self, tmp_path):
        path = write_fp(tmp_path, "under_keyed.py", """\

            class Pipeline:
                def enumerate(self):  # fingerprint-stage: enumerate
                    k = self.config.k
                    return k, self.config.max_instances
        """)
        findings = run_rule(FingerprintCompletenessRule(), path)
        assert len(findings) == 1
        assert findings[0].rule == "fingerprint-completeness"
        assert "'max_instances'" in findings[0].message
        assert "'enumerate'" in findings[0].message

    def test_cumulative_fields_cover_earlier_stages(self, tmp_path):
        # enumerate may read compose's fields: fingerprints are cumulative.
        path = write_fp(tmp_path, "cumulative.py", """\

            class Pipeline:
                def enumerate(self):  # fingerprint-stage: enumerate
                    return self.config.k, self.config.neighbor_strategy
        """)
        assert run_rule(FingerprintCompletenessRule(), path) == []

    def test_star_stage_covers_everything(self, tmp_path):
        path = write_fp(tmp_path, "star.py", """\

            class Pipeline:
                def fit(self):  # fingerprint-stage: fit
                    return self.config.epochs, self.config.anything_at_all
        """)
        assert run_rule(FingerprintCompletenessRule(), path) == []

    def test_perf_knobs_exempt(self, tmp_path):
        # cache_dir/cache_memory_budget change where/how fast, never what.
        path = write_fp(tmp_path, "perf_knob.py", """\

            class Pipeline:
                def compose(self):  # fingerprint-stage: compose
                    return self.config.neighbor_strategy, self.config.cache_dir
        """)
        assert run_rule(FingerprintCompletenessRule(), path) == []

    def test_config_alias_reads_tracked(self, tmp_path):
        # `config = self.config` then `config.field` is the repo idiom.
        path = write_fp(tmp_path, "alias.py", """\

            class Pipeline:
                def compose(self):  # fingerprint-stage: compose
                    config = self.config
                    return config.use_contexts
        """)
        findings = run_rule(FingerprintCompletenessRule(), path)
        assert len(findings) == 1
        assert "'use_contexts'" in findings[0].message

    def test_marker_parser_reads_multiline_defs(self, tmp_path):
        path = write_fp(tmp_path, "multiline.py", """\

            class Pipeline:
                def featurize(  # fingerprint-stage: fit
                    self,
                    verbose=False,
                ):
                    return self.config.whatever
        """)
        source = SourceFile(path, path.read_text())
        assert fingerprint_stage_markers(source) == {"featurize": "fit"}

    def test_real_pipeline_has_all_stage_markers(self):
        pipeline_py = REPO_ROOT / "src" / "repro" / "api" / "pipeline.py"
        source = SourceFile(pipeline_py, pipeline_py.read_text())
        markers = fingerprint_stage_markers(source)
        assert set(markers.values()) >= {
            "discover", "compose", "enumerate", "featurize", "fit",
        }


# ---------------------------------------------------------------------- #
# determinism
# ---------------------------------------------------------------------- #


class TestDeterminism:
    def test_module_level_global_rng_flagged(self, tmp_path):
        path = write(tmp_path, "global_rng.py", """\
            import numpy as np

            WEIGHTS = np.random.rand(8)
        """)
        findings = run_rule(DeterminismRule(), path)
        assert len(findings) == 1
        assert findings[0].rule == "determinism"
        assert findings[0].line == 3

    def test_unseeded_default_rng_flagged_anywhere(self, tmp_path):
        path = write(tmp_path, "unseeded.py", """\
            import numpy as np

            def sample():
                rng = np.random.default_rng()
                return rng.random()
        """)
        findings = run_rule(DeterminismRule(), path)
        assert len(findings) == 1
        assert "default_rng" in findings[0].message

    def test_seeded_rng_in_function_clean(self, tmp_path):
        path = write(tmp_path, "seeded.py", """\
            import numpy as np

            def sample(seed):
                rng = np.random.default_rng(seed)
                return rng.random()
        """)
        assert run_rule(DeterminismRule(), path) == []

    def test_wall_clock_in_key_builder_flagged(self, tmp_path):
        path = write(tmp_path, "clock_key.py", """\
            import time

            def cache_key(name):
                return f"{name}-{time.time()}"

            def is_stale(age):
                return time.time() - age > 60.0
        """)
        findings = run_rule(DeterminismRule(), path)
        # Only the key builder is flagged; is_stale legitimately uses the
        # clock (TTL checks are about time, not identity).
        assert len(findings) == 1
        assert findings[0].line == 4
        assert "cache_key" in findings[0].message

    def test_unsorted_json_dumps_in_fingerprint_flagged(self, tmp_path):
        path = write(tmp_path, "unsorted.py", """\
            import json

            def config_fingerprint(payload):
                return json.dumps(payload)

            def render(payload):
                return json.dumps(payload)
        """)
        findings = run_rule(DeterminismRule(), path)
        assert len(findings) == 1
        assert findings[0].line == 4

    def test_sorted_json_dumps_clean(self, tmp_path):
        path = write(tmp_path, "sorted.py", """\
            import json

            def config_fingerprint(payload):
                return json.dumps(payload, sort_keys=True)
        """)
        assert run_rule(DeterminismRule(), path) == []


# ---------------------------------------------------------------------- #
# csr-canonical
# ---------------------------------------------------------------------- #


class TestCSRCanonical:
    def test_raw_component_construction_flagged(self, tmp_path):
        path = write(tmp_path, "raw_csr.py", """\
            import scipy.sparse as sp

            def rebuild(data, indices, indptr, shape):
                return sp.csr_matrix((data, indices, indptr), shape=shape)
        """)
        findings = run_rule(CSRCanonicalRule(), path)
        assert len(findings) == 1
        assert findings[0].rule == "csr-canonical"

    def test_sort_indices_guard_accepted(self, tmp_path):
        path = write(tmp_path, "sorted_csr.py", """\
            import scipy.sparse as sp

            def rebuild(data, indices, indptr, shape):
                matrix = sp.csr_matrix((data, indices, indptr), shape=shape)
                matrix.sort_indices()
                return matrix
        """)
        assert run_rule(CSRCanonicalRule(), path) == []

    def test_archive_module_unpack_csr_accepted(self):
        """``unpack_csr`` builds through ``csr_from_components``."""
        import repro.hin.cache as cache

        path = Path(cache.__file__)
        findings = run_rule(CSRCanonicalRule(), path)
        assert findings == []
        assert "csr_from_components(data, indices, indptr, shape)" in (
            path.read_text()
        )

    def test_dense_and_coo_style_constructors_clean(self, tmp_path):
        path = write(tmp_path, "other_ctors.py", """\
            import numpy as np
            import scipy.sparse as sp

            def from_dense(dense):
                return sp.csr_matrix(dense)

            def from_coo(values, rows, cols, shape):
                return sp.csr_matrix((values, (rows, cols)), shape=shape)

            def empty(shape):
                return sp.csr_matrix(shape, dtype=np.float64)
        """)
        assert run_rule(CSRCanonicalRule(), path) == []


# ---------------------------------------------------------------------- #
# delta-discipline
# ---------------------------------------------------------------------- #


class TestDeltaDiscipline:
    def test_direct_store_into_edge_storage_flagged(self, tmp_path):
        path = write(tmp_path, "bad_store.py", """\
            def poke(hin):
                hin.relation_matrix("writes").data[:] = 2.0
                hin._biadjacency["writes"] = None
        """)
        findings = run_rule(DeltaDisciplineRule(), path)
        assert [f.rule for f in findings] == ["delta-discipline"] * 2
        assert sorted(f.line for f in findings) == [2, 3]
        assert all("apply_delta" in f.message for f in findings)

    def test_aliased_inplace_mutation_flagged(self, tmp_path):
        path = write(tmp_path, "bad_alias.py", """\
            def poke(hin):
                matrix = hin.relation_matrix("writes")
                coo = matrix.tocoo()
                coo.sum_duplicates()
                matrix.data += 1.0
        """)
        findings = run_rule(DeltaDisciplineRule(), path)
        assert [f.rule for f in findings] == ["delta-discipline"] * 2
        assert sorted(f.line for f in findings) == [4, 5]
        assert any("sum_duplicates" in f.message for f in findings)

    def test_copy_dealiases_and_hin_body_is_exempt(self, tmp_path):
        path = write(tmp_path, "clean_delta.py", """\
            class HIN:
                def _rebuild(self, relation, matrix):
                    self._biadjacency[relation] = matrix
                    self._biadjacency[relation].sum_duplicates()

            def safe(hin):
                matrix = hin.relation_matrix("writes").copy()
                matrix.data[:] = 2.0
                matrix.sum_duplicates()
                alias = hin.relation_matrix("writes")
                alias = alias.copy()
                alias.setdiag(0.0)
        """)
        assert run_rule(DeltaDisciplineRule(), path) == []

    def test_inline_suppression_respected(self, tmp_path):
        path = write(tmp_path, "suppressed.py", """\
            def poke(hin):
                hin.relation_matrix("writes").data[:] = 2.0  # repro: ignore[delta-discipline]
        """)
        assert run_rule(DeltaDisciplineRule(), path) == []

    def test_mutation_in_compound_statement_reported_once(self, tmp_path):
        path = write(tmp_path, "compound.py", """\
            def poke(hin, flag):
                matrix = hin.relation_matrix("writes")
                if flag:
                    matrix.sum_duplicates()
        """)
        findings = run_rule(DeltaDisciplineRule(), path)
        assert [f.rule for f in findings] == ["delta-discipline"]
        assert findings[0].line == 4


# ---------------------------------------------------------------------- #
# lock-order (project-wide, over the call graph)
# ---------------------------------------------------------------------- #


class TestLockOrder:
    def test_inversion_cycle_across_two_classes_flagged(self, tmp_path):
        write(tmp_path, "inverted.py", """\
            import threading

            class Alpha:
                def __init__(self, beta):
                    self._alpha_lock = threading.Lock()
                    self.beta = beta

                def grant(self):
                    with self._alpha_lock:
                        self.beta.settle()

                def reload(self):
                    with self._alpha_lock:
                        return 1

            class Beta:
                def __init__(self, alpha):
                    self._beta_lock = threading.Lock()
                    self.alpha = alpha

                def settle(self):
                    with self._beta_lock:
                        return 2

                def revoke(self):
                    with self._beta_lock:
                        self.alpha.reload()
        """)
        result = analyze_paths([tmp_path], rules=[LockOrderRule()])
        assert [f.rule for f in result.findings] == ["lock-order"]
        message = result.findings[0].message
        assert "Alpha._alpha_lock" in message
        assert "Beta._beta_lock" in message
        assert "cycle" in message

    def test_consistent_acquisition_order_clean(self, tmp_path):
        # Same shape, but Beta calls back *before* taking its own lock:
        # every path acquires alpha-then-beta, so the order graph is
        # acyclic.
        write(tmp_path, "ordered.py", """\
            import threading

            class Alpha:
                def __init__(self, beta):
                    self._alpha_lock = threading.Lock()
                    self.beta = beta

                def grant(self):
                    with self._alpha_lock:
                        self.beta.settle()

                def reload(self):
                    with self._alpha_lock:
                        return 1

            class Beta:
                def __init__(self, alpha):
                    self._beta_lock = threading.Lock()
                    self.alpha = alpha

                def settle(self):
                    with self._beta_lock:
                        return 2

                def revoke(self):
                    self.alpha.reload()
                    with self._beta_lock:
                        return 3
        """)
        result = analyze_paths([tmp_path], rules=[LockOrderRule()])
        assert result.findings == []

    def test_suppressed_witness_edge_breaks_cycle(self, tmp_path):
        write(tmp_path, "waived.py", """\
            import threading

            class Alpha:
                def __init__(self, beta):
                    self._alpha_lock = threading.Lock()
                    self.beta = beta

                def grant(self):
                    with self._alpha_lock:
                        self.beta.settle()  # repro: ignore[lock-order]

                def reload(self):
                    with self._alpha_lock:
                        return 1

            class Beta:
                def __init__(self, alpha):
                    self._beta_lock = threading.Lock()
                    self.alpha = alpha

                def settle(self):
                    with self._beta_lock:
                        return 2

                def revoke(self):
                    with self._beta_lock:
                        self.alpha.reload()
        """)
        result = analyze_paths([tmp_path], rules=[LockOrderRule()])
        assert result.findings == []


# ---------------------------------------------------------------------- #
# blocking-under-lock (project-wide, through call chains)
# ---------------------------------------------------------------------- #


class TestBlockingUnderLock:
    def test_direct_blocking_under_guarded_lock_flagged(self, tmp_path):
        write(tmp_path, "hot.py", """\
            import threading
            import time

            class Hot:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.state = {}  # guarded-by: _lock

                def persist(self):
                    with self._lock:
                        time.sleep(0.05)
        """)
        result = analyze_paths([tmp_path], rules=[BlockingUnderLockRule()])
        assert [f.rule for f in result.findings] == ["blocking-under-lock"]
        assert result.findings[0].line == 11
        assert "sleep" in result.findings[0].message
        assert "Hot._lock" in result.findings[0].message

    def test_blocking_one_call_graph_hop_away_flagged(self, tmp_path):
        # The sleep lives in _spill; only the *call* happens under the
        # lock — single-file pattern matching cannot see this one.
        write(tmp_path, "spool.py", """\
            import threading
            import time

            class Spool:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.rows = []  # guarded-by: _lock

                def flush(self):
                    with self._lock:
                        self._spill(self.rows)

                def _spill(self, rows):
                    time.sleep(0.01)
                    return rows
        """)
        result = analyze_paths([tmp_path], rules=[BlockingUnderLockRule()])
        assert [f.rule for f in result.findings] == ["blocking-under-lock"]
        finding = result.findings[0]
        assert finding.line == 11  # the call site under the lock
        assert "sleep" in finding.message
        assert "_spill" in finding.message

    def test_call_outside_critical_section_clean(self, tmp_path):
        write(tmp_path, "cool.py", """\
            import threading
            import time

            class Cool:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.rows = []  # guarded-by: _lock

                def flush(self):
                    with self._lock:
                        rows = list(self.rows)
                    self._spill(rows)

                def _spill(self, rows):
                    time.sleep(0.01)
                    return rows
        """)
        result = analyze_paths([tmp_path], rules=[BlockingUnderLockRule()])
        assert result.findings == []

    def test_unguarded_lock_not_flagged(self, tmp_path):
        # Only '# guarded-by:' locks are hot-path contracts; a private
        # lock with no guarded state may legitimately cover slow work.
        write(tmp_path, "plain.py", """\
            import threading
            import time

            class Plain:
                def __init__(self):
                    self._lock = threading.Lock()

                def persist(self):
                    with self._lock:
                        time.sleep(0.05)
        """)
        result = analyze_paths([tmp_path], rules=[BlockingUnderLockRule()])
        assert result.findings == []


# ---------------------------------------------------------------------- #
# future-resolution (path-sensitive, exception edges included)
# ---------------------------------------------------------------------- #


class TestFutureResolution:
    def test_future_stranded_only_on_exception_edge_flagged(self, tmp_path):
        # The happy path resolves; the ValueError edge jumps over
        # _finish into a swallowing handler and returns the raw future.
        path = write(tmp_path, "strand.py", """\
            class ComputeFuture:
                def _finish(self, value):
                    self.value = value

            def launch(job):
                future = ComputeFuture()
                try:
                    value = job()
                    future._finish(value)
                except ValueError:
                    pass
                return future
        """)
        findings = run_rule(FutureResolutionRule(), path)
        assert [f.rule for f in findings] == ["future-resolution"]
        assert findings[0].line == 6  # anchored at the creation
        assert "'future'" in findings[0].message

    def test_resolving_exception_handler_clean(self, tmp_path):
        path = write(tmp_path, "settled.py", """\
            class ComputeFuture:
                def _finish(self, value):
                    self.value = value

                def set_exception(self, exc):
                    self.exc = exc

            def launch(job):
                future = ComputeFuture()
                try:
                    value = job()
                    future._finish(value)
                except ValueError as exc:
                    future.set_exception(exc)
                return future
        """)
        assert run_rule(FutureResolutionRule(), path) == []

    def test_handoff_to_owner_clean(self, tmp_path):
        # Stored into a registry: the owner resolves it later.
        path = write(tmp_path, "handoff.py", """\
            class ComputeFuture:
                def set_result(self, value):
                    self.value = value

            def launch(registry, job):
                future = ComputeFuture()
                registry["job"] = future
                return future
        """)
        assert run_rule(FutureResolutionRule(), path) == []

    def test_raise_path_is_not_a_strand(self, tmp_path):
        # Leaving by raise is fine: the caller never received the future.
        path = write(tmp_path, "raises.py", """\
            class ComputeFuture:
                def _finish(self, value):
                    self.value = value

            def launch(job):
                future = ComputeFuture()
                if job is None:
                    raise ValueError("no job")
                future._finish(job())
                return future
        """)
        assert run_rule(FutureResolutionRule(), path) == []

    def test_publish_without_stop_recheck_flagged(self, tmp_path):
        # The PR-8 race, distilled: stop() drains _pending, then submit's
        # publish lands on a dead queue — nothing ever settles the future.
        path = write(tmp_path, "miniserver.py", """\
            import queue
            import threading

            class ReplyFuture:
                def set_exception(self, exc):
                    self.exc = exc

            class MiniServer:
                def __init__(self):
                    self._stop = threading.Event()
                    self._work_queue = queue.Queue()
                    self._pending = {}

                def _fail_pending(self):
                    for future in self._pending.values():
                        future.set_exception(RuntimeError("stopped"))

                def submit(self, key, payload):
                    future = ReplyFuture()
                    self._pending[key] = future
                    self._work_queue.put_nowait((key, payload))
                    return future
        """)
        findings = run_rule(FutureResolutionRule(), path)
        assert [f.rule for f in findings] == ["future-resolution"]
        assert "self._work_queue" in findings[0].message
        assert "stop" in findings[0].message

    def test_publish_with_stop_recheck_clean(self, tmp_path):
        path = write(tmp_path, "fixedserver.py", """\
            import queue
            import threading

            class ReplyFuture:
                def set_exception(self, exc):
                    self.exc = exc

            class MiniServer:
                def __init__(self):
                    self._stop = threading.Event()
                    self._work_queue = queue.Queue()
                    self._pending = {}

                def _fail_pending(self):
                    for future in self._pending.values():
                        future.set_exception(RuntimeError("stopped"))

                def submit(self, key, payload):
                    future = ReplyFuture()
                    self._pending[key] = future
                    self._work_queue.put_nowait((key, payload))
                    if self._stop.is_set():
                        self._fail_pending()
                    return future
        """)
        assert run_rule(FutureResolutionRule(), path) == []

    def test_reverting_pr8_stop_recheck_is_caught(self):
        # Regression gate: the real server must be clean today, and
        # deleting ModelServer.submit's post-put stop re-check (the
        # stranded-caller fix; both server classes share that one
        # submit) must be caught statically.
        server_py = REPO_ROOT / "src" / "repro" / "serve" / "server.py"
        text = server_py.read_text()
        assert run_rule(FutureResolutionRule(), server_py) == []
        assert text.count("    def submit(") == 1, "expected one submit"
        recheck = re.compile(
            r"        if self\._stop\.is_set\(\):\n"
            r"(?:            #.*\n)*"
            r"            self\._fail_pending\(\)\n"
        )
        reverted, count = recheck.subn("", text)
        assert count == 1, "ModelServer.submit re-check not found"
        source = SourceFile(server_py, reverted)
        findings = list(FutureResolutionRule().check(source))
        assert any(
            f.rule == "future-resolution"
            and "self._queue" in f.message
            and "stop" in f.message
            for f in findings
        )


# ---------------------------------------------------------------------- #
# unused-suppression (audit over the usage record)
# ---------------------------------------------------------------------- #


class TestUnusedSuppression:
    def test_dead_suppression_flagged_on_full_run(self, tmp_path):
        write(tmp_path, "dead.py", "VALUE = 1  # repro: ignore[determinism]\n")
        result = analyze_paths([tmp_path])
        assert [f.rule for f in result.findings] == ["unused-suppression"]
        assert result.findings[0].severity == "warning"
        assert result.findings[0].line == 1
        assert not result.ok

    def test_used_suppression_not_flagged(self, tmp_path):
        write(tmp_path, "used.py", (
            "import numpy as np\n"
            "X = np.random.rand(2)  # repro: ignore[determinism]\n"
        ))
        result = analyze_paths([tmp_path])
        assert result.ok

    def test_named_suppression_skipped_when_rule_filtered(self, tmp_path):
        # lock-discipline never ran, so no verdict is possible on a
        # suppression naming it — the audit must stay silent.
        write(tmp_path, "maybe.py",
              "VALUE = 1  # repro: ignore[lock-discipline]\n")
        result = analyze_paths(
            [tmp_path], rules=[DeterminismRule(), UnusedSuppressionRule()]
        )
        assert result.ok

    def test_blanket_suppression_needs_full_rule_set(self, tmp_path):
        write(tmp_path, "blanket.py", "VALUE = 1  # repro: ignore\n")
        filtered = analyze_paths(
            [tmp_path], rules=[DeterminismRule(), UnusedSuppressionRule()]
        )
        assert filtered.ok
        full = analyze_paths([tmp_path])
        assert [f.rule for f in full.findings] == ["unused-suppression"]


# ---------------------------------------------------------------------- #
# Analysis cache (content-hash keyed, cold vs warm)
# ---------------------------------------------------------------------- #


class TestAnalysisCache:
    def test_cold_then_warm_identical_findings(self, tmp_path):
        tree = tmp_path / "tree"
        tree.mkdir()
        write(tree, "bad.py", "import numpy as np\nX = np.random.rand(2)\n")
        cache_path = tmp_path / "cache.json"
        cold_cache = AnalysisCache(cache_path)
        cold = analyze_paths([tree], cache=cold_cache)
        assert (cold_cache.hits, cold_cache.misses) == (0, 1)
        assert cache_path.is_file()
        warm_cache = AnalysisCache(cache_path)
        warm = analyze_paths([tree], cache=warm_cache)
        assert (warm_cache.hits, warm_cache.misses) == (1, 0)
        assert [f.to_dict() for f in warm.findings] \
            == [f.to_dict() for f in cold.findings]

    def test_content_change_invalidates_entry(self, tmp_path):
        tree = tmp_path / "tree"
        tree.mkdir()
        target = write(
            tree, "bad.py", "import numpy as np\nX = np.random.rand(2)\n"
        )
        cache_path = tmp_path / "cache.json"
        analyze_paths([tree], cache=AnalysisCache(cache_path))
        target.write_text("VALUE = 1\n")
        cache = AnalysisCache(cache_path)
        result = analyze_paths([tree], cache=cache)
        assert (cache.hits, cache.misses) == (0, 1)
        assert result.ok

    def test_rule_set_change_invalidates_entry(self, tmp_path):
        tree = tmp_path / "tree"
        tree.mkdir()
        write(tree, "fine.py", "VALUE = 1\n")
        cache_path = tmp_path / "cache.json"
        analyze_paths([tree], cache=AnalysisCache(cache_path))
        cache = AnalysisCache(cache_path)
        analyze_paths([tree], rules=[DeterminismRule()], cache=cache)
        assert (cache.hits, cache.misses) == (0, 1)


# ---------------------------------------------------------------------- #
# Framework behavior
# ---------------------------------------------------------------------- #


class TestFramework:
    def test_syntax_error_becomes_parse_error_finding(self, tmp_path):
        write(tmp_path, "broken.py", "def oops(:\n")
        result = analyze_paths([tmp_path])
        assert [f.rule for f in result.findings] == ["parse-error"]
        assert not result.ok

    def test_iter_python_files_skips_pycache(self, tmp_path):
        (tmp_path / "__pycache__").mkdir()
        (tmp_path / "__pycache__" / "mod.py").write_text("x = 1\n")
        write(tmp_path, "mod.py", "x = 1\n")
        files = iter_python_files([tmp_path])
        assert [p.name for p in files] == ["mod.py"]
        assert "__pycache__" not in str(files[0])

    def test_findings_sorted_and_serializable(self, tmp_path):
        write(tmp_path, "b.py", "import numpy as np\nX = np.random.rand(2)\n")
        write(tmp_path, "a.py", "import numpy as np\nY = np.random.rand(2)\n")
        result = analyze_paths([tmp_path])
        files = [f.file for f in result.findings]
        assert files == sorted(files)
        payload = result.to_dict()
        assert payload["ok"] is False
        assert payload["files_scanned"] == 2
        json.dumps(payload)  # round-trips

    def test_blanket_ignore_suppresses_all_rules(self, tmp_path):
        write(tmp_path, "any.py", """\
import numpy as np
X = np.random.rand(2)  # repro: ignore
""")
        result = analyze_paths([tmp_path])
        assert result.ok

    def test_default_rules_expose_all_repo_checkers(self):
        ids = {rule.rule_id for rule in default_rules()}
        assert ids == {
            "lock-discipline",
            "fingerprint-completeness",
            "determinism",
            "csr-canonical",
            "delta-discipline",
            "lock-order",
            "blocking-under-lock",
            "future-resolution",
            "unused-suppression",
        }


# ---------------------------------------------------------------------- #
# CLI: python -m repro.analysis
# ---------------------------------------------------------------------- #


def run_cli(*argv, cwd=None):
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis", *argv],
        capture_output=True, text=True, cwd=cwd or REPO_ROOT, env=env,
    )


class TestCLI:
    def test_clean_tree_exits_zero(self, tmp_path):
        write(tmp_path, "fine.py", "VALUE = 1\n")
        proc = run_cli(str(tmp_path))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "clean" in proc.stdout

    def test_violation_exits_one_with_location(self, tmp_path):
        bad = write(
            tmp_path, "bad.py",
            "import numpy as np\nX = np.random.rand(2)\n",
        )
        proc = run_cli(str(tmp_path))
        assert proc.returncode == 1
        assert f"{bad}:2: [determinism]" in proc.stdout

    def test_json_output_is_machine_readable(self, tmp_path):
        write(tmp_path, "bad.py", "import numpy as np\nX = np.random.rand(2)\n")
        proc = run_cli(str(tmp_path), "--json")
        assert proc.returncode == 1
        payload = json.loads(proc.stdout)
        assert payload["ok"] is False
        assert payload["files_scanned"] == 1
        assert payload["findings"][0]["rule"] == "determinism"
        assert payload["seconds"] >= 0

    def test_rules_filter_and_unknown_rule(self, tmp_path):
        write(tmp_path, "bad.py", "import numpy as np\nX = np.random.rand(2)\n")
        only_csr = run_cli(str(tmp_path), "--rules", "csr-canonical")
        assert only_csr.returncode == 0  # determinism hit filtered out
        unknown = run_cli(str(tmp_path), "--rules", "no-such-rule")
        assert unknown.returncode == 2
        assert "unknown rule" in unknown.stderr

    def test_list_rules(self):
        proc = run_cli("--list-rules")
        assert proc.returncode == 0
        for rule_id in (
            "lock-discipline", "fingerprint-completeness",
            "determinism", "csr-canonical", "lock-order",
            "blocking-under-lock", "future-resolution",
            "unused-suppression",
        ):
            assert rule_id in proc.stdout

    def test_sarif_output_structure(self, tmp_path):
        bad = write(
            tmp_path, "bad.py",
            "import numpy as np\nX = np.random.rand(2)\n",
        )
        proc = run_cli(str(tmp_path), "--sarif", "--no-cache")
        assert proc.returncode == 1, proc.stdout + proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["version"] == "2.1.0"
        assert "sarif-schema-2.1.0" in payload["$schema"]
        run = payload["runs"][0]
        driver = run["tool"]["driver"]
        assert driver["name"] == "repro.analysis"
        rule_ids = [entry["id"] for entry in driver["rules"]]
        assert "determinism" in rule_ids  # catalog lists rules that ran
        sarif_result = run["results"][0]
        assert sarif_result["ruleId"] == "determinism"
        assert rule_ids[sarif_result["ruleIndex"]] == "determinism"
        assert sarif_result["level"] == "error"
        location = sarif_result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"].endswith("bad.py")
        assert location["region"]["startLine"] == 2
        assert str(bad).replace("\\", "/") \
            == location["artifactLocation"]["uri"]

    def test_sarif_and_json_mutually_exclusive(self, tmp_path):
        write(tmp_path, "fine.py", "VALUE = 1\n")
        proc = run_cli(str(tmp_path), "--sarif", "--json")
        assert proc.returncode == 2

    def test_cache_flags_round_trip(self, tmp_path):
        tree = tmp_path / "tree"
        tree.mkdir()
        write(tree, "fine.py", "VALUE = 1\n")
        cache_file = tmp_path / "cache.json"
        first = run_cli(str(tree), "--json", "--cache", str(cache_file))
        assert json.loads(first.stdout)["cache"] == {"hits": 0, "misses": 1}
        second = run_cli(str(tree), "--json", "--cache", str(cache_file))
        assert json.loads(second.stdout)["cache"] == {"hits": 1, "misses": 0}
        uncached = run_cli(str(tree), "--json", "--no-cache")
        assert "cache" not in json.loads(uncached.stdout)
