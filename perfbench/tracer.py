"""Outside-in layer timers for the benchmark's serving process.

The traced server (``server.py --trace``) rebinds public callables of
the serving stack with timing wrappers before it boots.  Nothing under
``src/`` changes: every timer sits on a call *into* a layer, at the
name the caller looks it up by (``solve_with_engine`` as bound in
``repro.core.solver``, ``from_arc_arrays``/``dijkstra`` as bound in
``repro.serve.router``, methods on their classes).

Timers accumulate totals only while a window is open (``start`` ..
``stop``), so boot warm-up and the ``/stats`` probes around the timed
phase never count.  The load is one closed-loop client, so requests
never overlap and per-request means are window totals divided by the
number of front-end query requests.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict

#: front-end endpoints that count as timed query requests.
QUERY_ENDPOINTS = frozenset({"distances", "route"})


class LayerTracer:
    """Window-scoped totals of wall time, calls and counts per layer."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._active = False
        self._shard_servers: frozenset[int] = frozenset()
        self._seconds: dict[str, float] = defaultdict(float)
        self._counts: dict[str, int] = defaultdict(int)

    # ------------------------------------------------------------------ #
    def set_shard_servers(self, servers) -> None:
        """Servers whose ``observe_request`` counts as shard-side; every
        other server is the front end."""
        self._shard_servers = frozenset(id(s) for s in servers if s is not None)

    def start(self) -> None:
        with self._lock:
            self._seconds.clear()
            self._counts.clear()
            self._active = True

    def stop(self) -> dict:
        with self._lock:
            self._active = False
            return {"seconds": dict(self._seconds), "counts": dict(self._counts)}

    def _add(self, name: str, seconds: float, counts: dict | None = None) -> None:
        with self._lock:
            if not self._active:
                return
            self._seconds[name] += seconds
            self._counts[name + ".calls"] += 1
            for key, value in (counts or {}).items():
                self._counts[key] += value

    def _wrap(self, name: str, fn, count=None):
        """``fn`` timed under ``name``; ``count(result)`` adds counts."""
        add = self._add

        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            add(name, time.perf_counter() - t0, count(result) if count else None)
            return result

        return timed

    # ------------------------------------------------------------------ #
    def install(self) -> None:
        """Rebind the serving stack's public callables with timers."""
        import repro.core.solver as solver_mod
        import repro.serve.router as router_mod
        from repro.serve.backends import RemoteBackend
        from repro.serve.http import RoutingHTTPServer
        from repro.serve.planner import QueryPlanner
        from repro.serve.router import ShardRouter

        solver_mod.solve_with_engine = self._wrap(
            "engine.solve",
            solver_mod.solve_with_engine,
            lambda res: {
                "engine.steps": res.steps,
                "engine.substeps": res.substeps,
                "engine.relaxations": res.relaxations,
            },
        )
        QueryPlanner.execute = self._wrap("planner.execute", QueryPlanner.execute)
        router_mod.from_arc_arrays = self._wrap(
            "router.overlay_build", router_mod.from_arc_arrays
        )
        router_mod.dijkstra = self._wrap("router.overlay_solve", router_mod.dijkstra)
        ShardRouter.route = self._wrap("router.surface", ShardRouter.route)
        ShardRouter.distances = self._wrap("router.surface", ShardRouter.distances)
        RemoteBackend.source_row = self._wrap(
            "backends.source_row",
            RemoteBackend.source_row,
            lambda row: {"backends.rows": 1, "backends.row_bytes": row.nbytes},
        )
        RemoteBackend.rows = self._wrap(
            "backends.rows",
            RemoteBackend.rows,
            lambda rows: {
                "backends.rows": len(rows),
                "backends.row_bytes": sum(r.nbytes for r in rows),
            },
        )
        RemoteBackend.route = self._wrap("backends.route", RemoteBackend.route)

        observe = RoutingHTTPServer.observe_request

        def observe_request(server, *, endpoint, status, seconds, trace, method):
            if id(server) in self._shard_servers:
                self._add("shard.handler", seconds)
            elif endpoint in QUERY_ENDPOINTS and status == 200:
                self._add("http.handler", seconds)
            return observe(
                server,
                endpoint=endpoint,
                status=status,
                seconds=seconds,
                trace=trace,
                method=method,
            )

        RoutingHTTPServer.observe_request = observe_request
