"""Scrape-time bridge from serving counters to metric families.

The planner and the shard router already keep exact counters of their
own (striped LRU hits/misses, stitched-row lookups, single-flight
waits) for ``GET /stats``.  Putting those numbers on ``GET /metrics``
must cost the hot path *nothing*, so instead of double-counting at
every probe, :meth:`_InstrumentedSurface.instrument` — shared by
``RoutingService`` and ``ShardRouter`` — registers a weakly-held
**collector** with the registry; at scrape time the collector snapshots
``stats()`` and this module shapes the snapshot into Prometheus
families.  One scrape therefore always agrees with a simultaneous
``GET /stats`` — they read the same counters.

Series identity: every family carries a ``service`` label (a
process-unique instance tag minted by :func:`next_instance_label`, so
two surfaces sharing the process-global registry never collide) and a
``shard`` label (``"0"`` for the single-graph service — it *is* the
one-shard special case).
"""

from __future__ import annotations

import itertools
import threading

from ..obs.metrics import (
    EngineTelemetry,
    MetricFamily,
    Sample,
    _fmt_bound,
    get_default_registry,
)

__all__ = [
    "backend_families",
    "next_instance_label",
    "planner_cache_families",
    "stitched_cache_families",
]

_INSTANCE_SEQ = itertools.count()
_INSTANCE_LOCK = threading.Lock()

#: (family, type, help, stats key) for every counter and gauge shaped
#: from a ``stats()`` snapshot.  The ``lookups`` key splits into
#: ``outcome="hit"`` / ``"miss"`` series whose sum is the lookup total,
#: matching the caches' own ``hits + misses == lookups`` invariant.
_STATS_FAMILIES = (
    (
        "planner_cache_lookups_total",
        "counter",
        "source-row cache probes by outcome (hit + miss = all lookups)",
        "lookups",
    ),
    ("planner_cache_evictions_total", "counter", "LRU rows evicted", "evictions"),
    ("planner_cached_rows", "gauge", "source rows currently cached", "cached_rows"),
    ("planner_solves_total", "counter", "cache-missing sources solved", "solves"),
    ("planner_batches_total", "counter", "coalesced solve_many fan-outs", "batches"),
    (
        "planner_coalesced_total",
        "counter",
        "batch queries answered from another query's row in the same batch",
        "coalesced",
    ),
    (
        "planner_single_flight_waits_total",
        "counter",
        "concurrent misses that waited on another thread's solve",
        "single_flight_waits",
    ),
    ("planner_inflight_solves", "gauge", "sources being solved right now", "inflight"),
    (
        "router_stitched_lookups_total",
        "counter",
        "stitched full-row cache probes by outcome",
        "lookups",
    ),
    (
        "router_stitched_evictions_total",
        "counter",
        "stitched rows evicted from the router LRU",
        "evictions",
    ),
    ("router_stitched_rows", "gauge", "stitched rows currently cached", "cached_rows"),
    (
        "shard_backend_healthy",
        "gauge",
        "1 while the backend's last request cycle succeeded",
        "healthy",
    ),
    (
        "shard_backend_consecutive_failures",
        "gauge",
        "request cycles failed in a row (0 = healthy)",
        "consecutive_failures",
    ),
    (
        "shard_backend_failures_total",
        "counter",
        "failed request attempts (retries counted individually)",
        "failures_total",
    ),
)

_Labels = tuple[tuple[str, str], ...]


def next_instance_label(prefix: str) -> str:
    """A process-unique ``service`` label value, e.g. ``"service-0"``,
    ``"router-1"`` — minted once per :meth:`instrument` call."""
    with _INSTANCE_LOCK:
        return f"{prefix}-{next(_INSTANCE_SEQ)}"


def _stats_families(
    prefix: str, entries: list[tuple[_Labels, dict]]
) -> list[MetricFamily]:
    """The ``_STATS_FAMILIES`` rows named ``prefix*``, one sample set per
    ``(base labels, stats snapshot)`` entry."""
    fams = []
    for name, kind, help_text, key in _STATS_FAMILIES:
        if not name.startswith(prefix):
            continue
        fam = MetricFamily(name, kind, help_text)
        for base, st in entries:
            if key == "lookups":
                for outcome, count in (("hit", st["hits"]), ("miss", st["misses"])):
                    fam.samples.append(
                        Sample("", base + (("outcome", outcome),), float(count))
                    )
            else:
                fam.samples.append(Sample("", base, float(st[key])))
        fams.append(fam)
    return fams


def planner_cache_families(entries: list[tuple[_Labels, dict]]) -> list[MetricFamily]:
    """Planner-counter families from ``(labels, planner.stats())`` pairs;
    ``labels`` is the base label tuple (``service`` + ``shard``)."""
    return _stats_families("planner_", entries)


def stitched_cache_families(base: _Labels, stitched: dict) -> list[MetricFamily]:
    """The shard router's stitched full-row LRU as metric families."""
    return _stats_families("router_stitched_", [(base, stitched)])


def backend_families(entries: list[tuple[_Labels, object]]) -> list[MetricFamily]:
    """Per-shard-backend health/latency families.

    ``entries`` pairs a base label tuple (``service`` + ``shard`` +
    ``kind``) with a backend exposing ``backend_stats()`` and
    ``fetch_snapshot()`` (:class:`~repro.serve.backends._BaseBackend`).
    The row-fetch histogram renders with cumulative ``le`` buckets like
    any registered histogram, so the scrape parser treats it
    identically.
    """
    fams = _stats_families(
        "shard_backend_", [(base, backend.backend_stats()) for base, backend in entries]
    )
    fetch = MetricFamily(
        "shard_backend_row_fetch_seconds",
        "histogram",
        "row-fetch latency per backend (batched fetches count once)",
    )
    for base, backend in entries:
        bounds, counts, total, count = backend.fetch_snapshot()
        acc = 0
        for bound, c in zip(bounds, counts):
            acc += c
            fetch.samples.append(
                Sample("_bucket", base + (("le", _fmt_bound(bound)),), acc)
            )
        acc += counts[-1]
        fetch.samples.append(Sample("_bucket", base + (("le", "+Inf"),), acc))
        fetch.samples.append(Sample("_sum", base, total))
        fetch.samples.append(Sample("_count", base, count))
    return fams + [fetch]


class _InstrumentedSurface:
    """``instrument()`` and the scrape-time collector of a query surface.

    A surface sets ``_local_shards`` — ``(shard id, planner, solver)``
    for every in-process planner — and may add families of its own in
    :meth:`_surface_families`.  The single-graph service is the
    one-planner case (``shard="0"``); the shard router lists each local
    shard and adds its stitched LRU and per-backend families.
    """

    _obs_prefix = "service"
    _obs_registry = None
    _obs_label = ""
    _local_shards: list

    def instrument(self, registry=None) -> str:
        """Attach this surface to a metrics registry; returns its
        ``service`` label value.

        Two things happen, neither touching the query hot path:

        * one :class:`~repro.obs.metrics.EngineTelemetry` observer is
          installed on every local solver, so every solve folds its
          step/substep/relaxation counts into the per-engine histograms
          (they aggregate across shards — the ``engine`` label already
          distinguishes what matters);
        * a scrape-time collector (held by weak reference — a dropped
          surface silently leaves the scrape) is registered that shapes
          each local planner's ``stats()`` into ``planner_*`` families
          under a process-unique ``service`` label and the planner's
          ``shard`` label, plus the surface's own families and
          ``service_queries_answered_total``.  Remote shards' planner
          counters live on their *own* server's scrape.

        ``registry=None`` uses the process-global default.  Idempotent
        per registry; instrumenting a second registry moves the surface
        (one observer, one label).  The HTTP front end calls this
        automatically for any surface that has it.
        """
        if registry is None:
            registry = get_default_registry()
        if self._obs_registry is registry:
            return self._obs_label
        self._obs_registry = registry
        self._obs_label = next_instance_label(self._obs_prefix)
        telemetry = EngineTelemetry(registry)
        for _shard, _planner, solver in self._local_shards:
            solver.set_observer(telemetry)
        registry.register_collector(self._collect_metrics)
        return self._obs_label

    def _surface_families(self, svc: tuple[str, str]) -> list[MetricFamily]:
        """Families beyond the planners' (none by default)."""
        return []

    def _collect_metrics(self) -> list[MetricFamily]:
        """Scrape-time collector: per-planner counters, the surface's own
        families, and the query total."""
        svc = ("service", self._obs_label)
        fams = planner_cache_families(
            [
                ((svc, ("shard", str(s))), planner.stats())
                for s, planner, _solver in self._local_shards
            ]
        )
        fams.extend(self._surface_families(svc))
        queries = MetricFamily(
            "service_queries_answered_total",
            "counter",
            "SSSP queries answered (the amortization denominator)",
        )
        answered = sum(solver.queries_answered for *_, solver in self._local_shards)
        queries.samples.append(Sample("", (svc,), float(answered)))
        fams.append(queries)
        return fams

