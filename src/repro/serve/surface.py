"""The query-surface protocol every serving front end is written against.

Serving has two implementations of one surface: the single-graph
:class:`~repro.serve.service.RoutingService` and the shard-routed
:class:`~repro.serve.router.ShardRouter`.  The HTTP front
end (and any future async/gRPC front end) is constructed against this
protocol, not a concrete class — sharded serving is a drop-in behind
the same JSON API.

The surface is the contract the planner answer records define:
``distances`` returns a read-only full distance row in *input-graph*
vertex ids, ``route`` a :class:`~repro.serve.planner.Route`,
``nearest`` a :class:`~repro.serve.planner.Nearest`, ``batch`` a list
of those in input order, ``warm`` pre-solves sources, ``stats`` a
JSON-serializable counter/topology snapshot, and ``healthz`` the
liveness payload (status plus shard topology).  Implementations must be
safe to call from many threads — the HTTP server drives one instance
from every worker thread.
"""

from __future__ import annotations

import math
from typing import Iterable, Protocol, Sequence, runtime_checkable

import numpy as np

from ..engine.registry import available_engines, get_engine
from .planner import Nearest, Route

__all__ = ["QuerySurface", "json_finite"]


def json_finite(value) -> float | None:
    """``float(value)``, or ``None`` when it is not finite.

    ``stats()`` payloads and answers are served verbatim as JSON, and
    ``NaN`` / ``Infinity`` are not JSON — unmeasured diagnostics
    (pre-v3 artifacts carry ``nan`` locality) and unreachable route
    distances go through this one helper so every surface agrees on
    ``null``.
    """
    value = float(value)
    return value if math.isfinite(value) else None


def _engine_descriptions() -> dict:
    """The ``engines`` block of a ``stats()`` payload: every registered
    engine name with its description."""
    return {name: get_engine(name).description for name in available_engines()}


def _shard_stats(planner, solver) -> dict:
    """One planner's ``stats()`` core, shared by every surface and shard.

    The planner's counters, the solver's ``queries_answered`` total, and
    the preprocessing provenance: ``preferred_engine`` (the calibrated
    winner, ``""`` when never calibrated), the ``reorder`` ordering,
    its sanitized ``locality`` diagnostic (``null`` when the artifact
    predates it), and the ``engines`` listing.  A remote shard's
    ``/stats`` carries the same keys, so the router reads local and
    remote shards alike.
    """
    pre = solver.preprocessing
    return {
        **planner.stats(),
        "queries_answered": solver.queries_answered,
        "preferred_engine": getattr(pre, "preferred_engine", ""),
        "reorder": getattr(pre, "reorder", "natural"),
        "locality": {
            "before": json_finite(getattr(pre, "locality_before", float("nan"))),
            "after": json_finite(getattr(pre, "locality_after", float("nan"))),
        },
        "engines": _engine_descriptions(),
    }


@runtime_checkable
class QuerySurface(Protocol):
    """Structural protocol for a query-serving backend.

    ``runtime_checkable`` so front ends can fail fast at construction
    (method presence only — signatures are this module's docs).
    """

    def distances(self, source: int) -> np.ndarray:
        """Full distance row from ``source`` (read-only, input ids)."""
        ...

    def route(self, source: int, target: int) -> Route:
        """Exact distance plus (when tracked) a realizing path."""
        ...

    def nearest(self, source: int, k: int) -> Nearest:
        """The ``k`` closest reachable vertices to ``source``."""
        ...

    def batch(self, queries: Sequence) -> list:
        """Mixed query batch, answered in input order."""
        ...

    def warm(self, sources: Iterable[int]) -> None:
        """Pre-solve known-hot sources."""
        ...

    def stats(self) -> dict:
        """JSON-serializable counters + topology snapshot."""
        ...

    def healthz(self) -> dict:
        """Liveness payload: ``status`` plus shard topology summary."""
        ...
