"""Per-node serving over a trained ConCH bundle — no full-graph re-prep.

:class:`ModelHandle` answers label/probability queries for *individual
nodes* the way a serving replica would: it loads a self-contained
estimator bundle once (model weights + the cached operators the pipeline
built), and each ``predict_nodes(ids)`` call touches only the **rows**
of those cached matrices that the queried nodes' receptive fields need —
the ROADMAP's minibatch-aware row-sliced caching direction.

How the slice stays exact
-------------------------
One ConCH layer is two hops in the object/context bipartite graph
(context ← its 2 endpoint objects, object ← its incident contexts), so
an ``L``-layer model's output at a node depends on the ``2L``-hop ball
around it.  ``predict_nodes`` grows that ball by ``L`` rounds of
row-sliced sparse lookups — contexts incident to the frontier
(``B[rows]``), then their endpoint objects (``Bᵀ[cols]``) — across *all*
meta-path towers at once, then runs the ordinary forward on the induced
sub-operators.  Nodes on the ball's boundary see truncated neighborhoods,
but their (possibly wrong) deep-layer values cannot propagate back to
the queried ids within ``L`` layers, so the returned predictions are
**bit-identical** to a full-graph forward — the conformance tests assert
exactly that.

Batched (union-slice) queries
-----------------------------
Because the slice is exact for *any* id set, many small requests can be
coalesced into one: :meth:`ModelHandle.forward_many` takes the requests'
id arrays, runs a **single** sliced forward over their union, and
scatters each request's rows back out — one receptive-field gather and
one model forward per batch instead of per request.  The equivalence
guarantee (pinned by the tests): predicted **labels are bit-identical**
to issuing the requests one at a time, and raw logits/probabilities
agree to ~1 ulp — BLAS may choose different blocking for the union
slice's different shape, the same float-determinism standard the
sliced-vs-full-forward conformance suite already holds the handle to.
:class:`repro.serve.ModelServer`'s micro-batching scheduler answers
every batch with exactly this call.

Zero-copy (mmap) operator tier
------------------------------
``ModelHandle.load(path)`` reads the bundle through the repo's one
archive reader, mapped (:func:`repro.hin.cache.read_archive` with
``mapped=True``): operators, their stored transposes, context features
and object features come read-only from the bundle's replica in
``<bundle>.mmap/`` instead of being copied onto the heap, so
**co-located serving workers share one OS-resident copy of the operator
tier**; only the model weights (KBs) are private per process.  The
replica is built on the first load, validated against the bundle's stat
identity and rebuilt when stale; concurrent first loads build it once
per cluster (claim-file dedupe), and a bundle whose replica cannot be
written is served from heap copies.  The heap
:meth:`~repro.api.estimator.ConCHEstimator.load` builds its model and
operators with the same code
(:func:`~repro.api.estimator.conch_bundle_parts`).

Live refresh (delta ingest)
---------------------------
:meth:`ModelHandle.refresh` swaps the whole operator tier — incidence
operators, their transposes, context features — for the artifacts a
:meth:`repro.api.Pipeline.ingest` produced after an edge delta.  The
next generation is built entirely outside the lock and published with a
single pointer swap; every query takes one snapshot up front, so
concurrent readers always see a complete generation (never operators
from one and features from another).  Model weights are untouched:
refresh changes *what the graph looks like*, not what the model learned.

Request semantics (shared by every query path)
----------------------------------------------
- **empty** id arrays return an empty result of the right shape;
- **duplicate** ids are answered per occurrence, in input order;
- ids must be an **integer** array/sequence (``TypeError`` otherwise —
  a float id would silently truncate to the wrong node);
- **out-of-range** ids raise ``IndexError("node ids out of range
  [0, N)")`` — the batched path validates each request *before* the
  union, so one bad request cannot change any other request's answer
  or error.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

import numpy as np
import scipy.sparse as sp

from repro.autograd.tensor import Tensor, no_grad
from repro.obs.trace import TRACER


class _OperatorState:
    """One immutable generation of a handle's operator tier.

    Readers snapshot the whole tier in one pointer read
    (:meth:`ModelHandle._snapshot`), so a concurrent
    :meth:`ModelHandle.refresh` — which builds the next generation
    off-lock and swaps the pointer — can never expose a torn view
    (operators of one generation with context features of another).
    """

    __slots__ = ("operators", "transposed", "context_features", "generation")

    def __init__(self, operators, transposed, context_features, generation):
        self.operators: List[sp.csr_matrix] = operators
        self.transposed: List[Optional[sp.csr_matrix]] = transposed
        self.context_features: List[Optional[np.ndarray]] = context_features
        self.generation = int(generation)


class ModelHandle:
    """A loaded, query-ready ConCH model (see module docstring).

    Build one with :meth:`load` (from a bundle path, memory-mapped) or
    :meth:`from_estimator` (from a fitted
    :class:`~repro.api.estimator.ConCHEstimator`, heap-backed).
    """

    def __init__(self, data, config, model, transposed=None):
        self.data = data
        self.config = config
        self.model = model
        self.model.eval()
        self.use_contexts = bool(config.use_contexts)
        self.num_objects = data.features.shape[0]
        # Row-sliceable cached operators, bundled into one immutable
        # generation (see _OperatorState) so refresh() can swap them
        # atomically under live queries.
        self._refresh_lock = threading.Lock()
        self._state = self._build_state(  # guarded-by: _refresh_lock
            data.metapath_data, transposed=transposed, generation=0
        )
        #: Telemetry of the most recent query: sizes of the induced
        #: subgraph vs. the full graph.
        self.last_query_stats: Dict[str, object] = {}

    def _build_state(
        self, metapath_data, transposed=None, generation=0
    ) -> _OperatorState:
        """Materialize one operator generation from per-meta-path data.

        Incidence transposes answer "which objects touch these contexts"
        by row slicing too; the mapped loader passes them precomputed
        (so they map from disk), otherwise they are materialized here.
        """
        operators: List[sp.csr_matrix] = []
        transposed_out: List[Optional[sp.csr_matrix]] = []
        context_features: List[Optional[np.ndarray]] = []
        for index, m in enumerate(metapath_data):
            if self.use_contexts:
                operator = sp.csr_matrix(m.incidence)
                if transposed is not None and transposed[index] is not None:
                    transposed_out.append(transposed[index])
                else:
                    transposed_out.append(sp.csr_matrix(operator.T))
                context_features.append(m.context_features)
            else:
                operator = sp.csr_matrix(m.neighbor_adj)
                transposed_out.append(None)
                context_features.append(None)
            if operator.shape[0] != self.num_objects:
                raise ValueError(
                    f"operator {index} covers {operator.shape[0]} objects, "
                    f"handle serves {self.num_objects}"
                )
            operators.append(operator)
        return _OperatorState(
            operators, transposed_out, context_features, generation
        )

    def _snapshot(self) -> _OperatorState:
        """The current operator generation (one consistent view)."""
        with self._refresh_lock:
            return self._state

    # Back-compat views over the current generation (tests and examples
    # introspect these; queries snapshot once instead — see _gather).
    @property
    def _operators(self) -> List[sp.csr_matrix]:
        return self._snapshot().operators

    @property
    def _transposed(self) -> List[Optional[sp.csr_matrix]]:
        return self._snapshot().transposed

    @property
    def _context_features(self) -> List[Optional[np.ndarray]]:
        return self._snapshot().context_features

    @property
    def generation(self) -> int:
        """Monotonic operator-tier generation (bumped by refresh)."""
        return self._snapshot().generation

    def refresh(self, data) -> int:
        """Atomically swap in updated operators; returns the generation.

        ``data`` is a :class:`~repro.core.trainer.ConCHData` (e.g.
        ``pipeline.data`` after :meth:`repro.api.Pipeline.ingest`) or a
        bare ``metapath_data`` list.  The next generation is built
        entirely off-lock; the swap itself is one pointer write, and
        every query takes one snapshot up front — readers always see a
        complete generation, never a torn mix.  The object set must be
        unchanged (edge deltas never add nodes); model weights are
        untouched.
        """
        metapath_data = getattr(data, "metapath_data", data)
        current = self._snapshot()
        if len(metapath_data) != len(current.operators):
            raise ValueError(
                f"refresh got {len(metapath_data)} meta-path towers, "
                f"handle serves {len(current.operators)}"
            )
        state = self._build_state(metapath_data)
        with self._refresh_lock:
            state.generation = self._state.generation + 1
            self._state = state
            return state.generation

    # ------------------------------------------------------------- #
    # Constructors
    # ------------------------------------------------------------- #

    @classmethod
    def from_estimator(cls, estimator) -> "ModelHandle":
        """Wrap a fitted ConCH estimator without touching disk."""
        estimator._require_fitted()
        return cls(estimator.data, estimator.config, estimator.trainer.model)

    @classmethod
    def load(cls, path: Union[str, Path]) -> "ModelHandle":
        """Open a serving handle over a saved estimator bundle.

        The bundle's operators and feature matrices are served from its
        read-only memory-mapped replica (built on first load, after
        which every co-located worker shares one OS-resident copy), or
        from heap copies when the replica cannot be written (e.g. a
        read-only bundle directory).
        """
        from repro.api.estimator import conch_bundle_parts, read_bundle

        loaded = read_bundle(Path(path), mapped=True)
        parts = None if loaded is None else conch_bundle_parts(*loaded)
        if parts is None:
            raise ValueError(f"{path} is not a ConCH estimator bundle")
        data, config, model, transposed = parts
        return cls(data, config, model, transposed=transposed)

    # ------------------------------------------------------------- #
    # Request validation
    # ------------------------------------------------------------- #

    def check_ids(self, ids) -> np.ndarray:
        """Validate + normalize one request's node ids (see module docs).

        Every query path — single, batched, server-side — funnels
        through this, so error behavior (and the exact error messages)
        cannot drift between them.
        """
        array = np.asarray(ids).ravel()
        if array.size == 0:
            return np.empty(0, dtype=np.int64)
        if not np.issubdtype(array.dtype, np.integer):
            raise TypeError(
                f"node ids must be integers, got dtype {array.dtype}"
            )
        array = array.astype(np.int64)
        if array.min() < 0 or array.max() >= self.num_objects:
            raise IndexError(
                f"node ids out of range [0, {self.num_objects})"
            )
        return array

    # ------------------------------------------------------------- #
    # Receptive-field gathering (row slices only)
    # ------------------------------------------------------------- #

    def _rows_union(self, matrix: sp.csr_matrix, rows: np.ndarray) -> np.ndarray:
        """Unique column ids touched by a set of rows (pure row slice)."""
        if rows.size == 0:
            return np.empty(0, dtype=np.int64)
        starts = matrix.indptr[rows]
        stops = matrix.indptr[rows + 1]
        chunks = [
            matrix.indices[a:b] for a, b in zip(starts, stops) if b > a
        ]
        if not chunks:
            return np.empty(0, dtype=np.int64)
        return np.unique(np.concatenate(chunks)).astype(np.int64)

    def _gather(self, ids: np.ndarray, state: _OperatorState):
        """The ``2L``-hop ball of ``ids`` across every meta-path tower.

        Operates on one :class:`_OperatorState` snapshot so a concurrent
        refresh cannot mix generations mid-gather.
        """
        num_layers = self.config.num_layers
        objects = np.unique(ids)
        contexts: List[np.ndarray] = [
            np.empty(0, dtype=np.int64) for _ in state.operators
        ]
        for _ in range(num_layers):
            frontier = [objects]
            for index, operator in enumerate(state.operators):
                if self.use_contexts:
                    ctx = self._rows_union(operator, objects)
                    contexts[index] = ctx
                    frontier.append(
                        self._rows_union(state.transposed[index], ctx)
                    )
                else:
                    frontier.append(self._rows_union(operator, objects))
            objects = np.unique(np.concatenate(frontier))
        return objects, contexts

    # ------------------------------------------------------------- #
    # Queries
    # ------------------------------------------------------------- #

    def _sliced_forward(
        self, ids: np.ndarray, state: Optional[_OperatorState] = None
    ) -> np.ndarray:
        ids = self.check_ids(ids)
        if state is None:
            state = self._snapshot()  # one generation for the whole query
        if ids.size == 0:
            return np.empty((0, self.data.num_classes), dtype=np.float64)
        with TRACER.span(
            "handle.sliced_forward",
            attrs={"ids": int(ids.size), "generation": state.generation},
        ):
            return self._sliced_forward_inner(ids, state)

    def _sliced_forward_inner(
        self, ids: np.ndarray, state: "_OperatorState"
    ) -> np.ndarray:
        objects, contexts = self._gather(ids, state)
        operators = []
        context_tensors = []
        for index, operator in enumerate(state.operators):
            if self.use_contexts:
                ctx = contexts[index]
                operators.append(operator[objects][:, ctx])
                context_tensors.append(
                    Tensor(np.asarray(state.context_features[index][ctx]))
                )
            else:
                operators.append(operator[objects][:, objects])
                context_tensors.append(None)
        self.last_query_stats = {
            "query_nodes": int(ids.size),
            "subgraph_objects": int(objects.size),
            "subgraph_contexts": [int(c.size) for c in contexts],
            "total_objects": int(self.num_objects),
            "object_fraction": float(objects.size) / max(self.num_objects, 1),
            "generation": state.generation,
        }
        features = Tensor(np.asarray(self.data.features[objects]))
        self.model.eval()
        with no_grad():
            logits, _ = self.model(features, operators, context_tensors)
        positions = np.searchsorted(objects, ids)
        return logits.data[positions]

    def forward_many(
        self,
        id_arrays: Sequence,
        validated: bool = False,
        return_generation: bool = False,
    ):
        """Logits for many requests through ONE union sliced forward.

        Validates every request first (so a bad request fails the whole
        call before any work — the server isolates requests by
        validating each one at submit instead), unions the ids, runs a
        single receptive-field gather + forward, and scatters each
        request's rows back out in its own input order.  Labels match
        per-request calls bit-exactly, logits to ~1 ulp (see module
        docstring) — the batched equivalence guarantee.

        ``validated=True`` skips the per-array re-validation for callers
        whose arrays already went through :meth:`check_ids` (the server
        validates each request at submit); the union still passes one
        final check inside the sliced forward.

        ``return_generation=True`` returns ``(answers, generation)``
        where ``generation`` is the operator generation the whole batch
        was answered against — the snapshot is taken once up front, so
        the tag is exact even when a concurrent :meth:`refresh` swaps
        generations mid-call.  Serving caches key on it.
        """
        if validated:
            arrays = [np.asarray(ids, dtype=np.int64) for ids in id_arrays]
        else:
            arrays = [self.check_ids(ids) for ids in id_arrays]
        state = self._snapshot()  # one generation for the whole batch
        non_empty = [a for a in arrays if a.size]
        if not non_empty:
            empty = np.empty((0, self.data.num_classes), dtype=np.float64)
            out = [empty.copy() for _ in arrays]
            return (out, state.generation) if return_generation else out
        union = np.unique(np.concatenate(non_empty))
        union_logits = self._sliced_forward(union, state=state)
        self.last_query_stats["batched_requests"] = len(arrays)
        out: List[np.ndarray] = []
        for array in arrays:
            if array.size == 0:
                out.append(
                    np.empty((0, self.data.num_classes), dtype=np.float64)
                )
            else:
                out.append(union_logits[np.searchsorted(union, array)])
        return (out, state.generation) if return_generation else out

    def predict_nodes(self, ids) -> np.ndarray:
        """Predicted labels for the queried node ids (input order kept)."""
        return self._sliced_forward(ids).argmax(axis=1)

    def predict_proba_nodes(self, ids) -> np.ndarray:
        """Per-class probabilities for the queried node ids."""
        from repro.eval.metrics import softmax

        return softmax(self._sliced_forward(ids))

    def predict_nodes_batch(self, id_arrays: Sequence) -> List[np.ndarray]:
        """Labels for many requests via one union forward (see above)."""
        return [
            logits.argmax(axis=1) if logits.size else
            np.empty(0, dtype=np.int64)
            for logits in self.forward_many(id_arrays)
        ]

    def predict_proba_nodes_batch(self, id_arrays: Sequence) -> List[np.ndarray]:
        """Probabilities for many requests via one union forward."""
        from repro.eval.metrics import softmax

        return [softmax(logits) for logits in self.forward_many(id_arrays)]

    def __repr__(self) -> str:
        return (
            f"ModelHandle({self.data.name!r}, objects={self.num_objects}, "
            f"metapaths={len(self._operators)}, "
            f"layers={self.config.num_layers})"
        )
