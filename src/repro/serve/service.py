"""`RoutingService` — the synchronous serving facade.

One object wires the whole serving stack together: the preprocessed
(k,ρ)-graph (built cold, or warm-started from a persisted artifact,
optionally memory-mapped), the engine registry, the caching/coalescing
:class:`~repro.serve.planner.QueryPlanner`, and the shared-memory bulk
path.  It is the embeddable core a network front end calls into — and
that is safe: the planner underneath is thread-safe (striped cache,
single-flight solves), so :mod:`repro.serve.http`'s
``ThreadingHTTPServer`` worker threads all drive one service instance
concurrently::

    svc = RoutingService(graph, k=2, rho=32)        # cold start
    svc.save_artifact("kr.npz")                     # persist once
    ...
    svc = RoutingService.from_artifact("kr.npz",    # every later boot:
                                       expect_graph=graph)  # milliseconds
    svc.route(3, 94).distance                       # cached after 1st query
    svc.batch([(3, 94), KNearest(3, 5), 17])        # one coalesced solve
    with svc.distance_matrix(range(64), n_jobs=8) as dm:   # bulk, zero-copy
        closest = dm.dist.argmin(axis=0)
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from ..core.solver import PreprocessedSSSP
from ..graphs.csr import CSRGraph
from .artifacts import (
    ARTIFACT_VERSION,
    _reject_baked_knobs,
    load_artifact,
    save_artifact,
)
from .obs_bridge import _InstrumentedSurface
from .planner import Nearest, QueryPlanner, Route
from .shm import DistanceMatrix, solve_many_shm
from .surface import _shard_stats

__all__ = ["RoutingService"]


class RoutingService(_InstrumentedSurface):
    """Synchronous query-serving facade over a preprocessed graph.

    Parameters
    ----------
    graph: input graph to preprocess (ignored when ``solver`` is given).
    solver: an existing :class:`PreprocessedSSSP` to serve (e.g. from
        :func:`repro.serve.artifacts.load_solver`).
    k, rho, heuristic, preprocess_jobs: forwarded to
        :func:`~repro.preprocess.build_kr_graph` on a cold start.
    reorder, reorder_seed: locality ordering for the cold-start
        preprocessing (:mod:`repro.graphs.reorder`; ``"rcm"`` is the
        usual winner on road-like graphs).  Invisible to every caller —
        queries and answers stay in the input graph's vertex ids — but
        the kernel's CSR gathers run on the cache-friendly layout.
    engine: engine selector for every query (resolved once).
    cache_capacity: planner LRU size (source rows).
    cache_stripes: lock stripes for the planner cache — the service is
        safe to call from many threads (an HTTP front end's worker
        threads); see :class:`~repro.serve.planner.QueryPlanner` for the
        striping / single-flight model.
    track_parents: record predecessors so :meth:`route` returns paths
        (the default — it is a *routing* service).  Distance-only
        workloads should pass ``False``: it halves cached-row memory
        and, on unit-weight graphs, lets ``engine="auto"`` keep the
        specialized parentless §3.4 engine instead of falling back to
        the general one.
    query_jobs: worker processes for coalesced batch solves.
    """

    def __init__(
        self,
        graph: CSRGraph | None = None,
        *,
        solver: PreprocessedSSSP | None = None,
        k: int = 2,
        rho: int = 32,
        heuristic: str = "dp",
        engine: str = "auto",
        cache_capacity: int = 256,
        cache_stripes: int = 8,
        track_parents: bool = True,
        preprocess_jobs: int = 1,
        query_jobs: int = 1,
        reorder: str = "natural",
        reorder_seed: int = 0,
    ) -> None:
        if solver is None:
            if graph is None:
                raise ValueError("provide either a graph or a solver")
            solver = PreprocessedSSSP(
                graph,
                k=k,
                rho=rho,
                heuristic=heuristic,
                n_jobs=preprocess_jobs,
                reorder=reorder,
                reorder_seed=reorder_seed,
            )
        self._solver = solver
        self._planner = QueryPlanner(
            solver,
            engine=engine,
            capacity=cache_capacity,
            track_parents=track_parents,
            n_jobs=query_jobs,
            stripes=cache_stripes,
        )
        # the one-planner case of the shared instrument()/collector
        self._local_shards = [(0, self._planner, solver)]

    # ------------------------------------------------------------------ #
    # Construction / persistence
    # ------------------------------------------------------------------ #
    @classmethod
    def from_artifact(
        cls,
        path: str | Path,
        *,
        expect_graph: CSRGraph | None = None,
        mmap: bool = False,
        **kwargs,
    ) -> "RoutingService":
        """Warm start: restore the preprocessing from an artifact bundle.

        ``expect_graph`` (recommended) pins the artifact to the graph
        this service is meant to answer for; ``mmap=True`` keeps the
        augmented CSR arrays memory-mapped off the bundle file (the
        near-RAM-size knob — see
        :func:`repro.serve.artifacts.load_artifact`); remaining keyword
        arguments are the serving knobs of the constructor.
        Preprocessing knobs are rejected — the artifact *is* the
        preprocessing, so a ``k``/``rho``/``heuristic`` here would be
        silently ignored, and the caller who wants different ones must
        rebuild and re-save.
        """
        _reject_baked_knobs(cls, kwargs, "artifact fixes the preprocessing", "it")
        pre = load_artifact(path, expect_graph=expect_graph, mmap=mmap)
        solver = PreprocessedSSSP.from_preprocessed(pre, input_graph=expect_graph)
        return cls(solver=solver, **kwargs)

    def save_artifact(self, path: str | Path) -> Path:
        """Persist this service's preprocessing for future warm starts."""
        return save_artifact(path, self._solver.preprocessing)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def distances(self, source: int) -> np.ndarray:
        """All input-graph distances from ``source`` (read-only row)."""
        return self._planner.distances(source)

    def route(self, source: int, target: int) -> Route:
        """Exact distance ``source → target`` plus (when parents are
        tracked) the realizing path in the augmented graph."""
        return self._planner.route(source, target)

    def nearest(self, source: int, k: int) -> Nearest:
        """The ``k`` closest vertices to ``source``."""
        return self._planner.nearest(source, k)

    def batch(self, queries: Sequence) -> list:
        """Mixed batch (query records, ints, or ``(s, t)`` pairs) —
        deduplicated, coalesced onto one solve, answered in order."""
        return self._planner.execute(queries)

    def warm(self, sources: Iterable[int]) -> None:
        """Pre-solve known-hot sources (depots, landmarks) at boot."""
        self._planner.warm(sources)

    def distance_matrix(
        self,
        sources: Iterable[int],
        *,
        track_parents: bool = False,
        n_jobs: int = 1,
    ) -> DistanceMatrix:
        """Bulk path: an (n_sources × n) shared-memory matrix.

        Bypasses the row cache — this is for huge batches (all-pairs
        slices, matrix analytics) where materializing pickled results
        would dominate; use as a context manager to free the segment.
        """
        return solve_many_shm(
            self._solver,
            sources,
            engine=self._planner.engine,
            track_parents=track_parents,
            n_jobs=n_jobs,
        )

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def solver(self) -> PreprocessedSSSP:
        """The underlying preprocessed facade."""
        return self._solver

    def stats(self) -> dict:
        """Planner counters plus preprocessing provenance.

        ``engine`` is the planner's *resolved* engine (what every query
        actually dispatches to); the counter and provenance keys
        (``preferred_engine``, ``reorder``, ``locality``, ``engines``)
        are :func:`repro.serve.surface._shard_stats`, the same helper
        that builds each shard's entry in
        :meth:`repro.serve.router.ShardRouter.stats`.  A single-graph
        service is the one-shard special case, so it also reports
        ``shards: 1``, its artifact version, and a one-entry topology
        table with a zero-size boundary.
        """
        pre = self._solver.preprocessing
        return {
            **_shard_stats(self._planner, self._solver),
            "k": pre.k,
            "rho": pre.rho,
            "heuristic": pre.heuristic,
            "n": self._solver.graph.n,
            "m": self._solver.graph.m,
            "shortcut_edges": pre.new_edges,
            "shards": 1,
            "artifact_version": ARTIFACT_VERSION,
            "topology": {
                "shards": [
                    {
                        "shard": 0,
                        "vertices": self._solver.graph.n,
                        "boundary": 0,
                        "engine": self._planner.engine,
                    }
                ],
                "overlay": {"vertices": 0, "edges": 0},
            },
        }

    def healthz(self) -> dict:
        """Liveness payload (``GET /healthz``): the single-graph service
        is the one-shard special case of the sharded surface."""
        return {
            "status": "ok",
            "shards": 1,
            "artifact_version": ARTIFACT_VERSION,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        s = self.stats()
        return (
            f"RoutingService(n={s['n']}, m={s['m']}, engine={s['engine']!r}, "
            f"{s['cached_rows']}/{s['capacity']} rows cached, "
            f"{s['hits']} hits / {s['misses']} misses)"
        )
