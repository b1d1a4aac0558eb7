"""The benchmark's serving process.

Warm-starts the serving stack from an artifact the benchmark wrote,
serves it over loopback HTTP, and answers line commands on stdin:

``start``  open a trace window (reply ``{"event": "started"}``)
``stop``   close it (reply ``{"event": "trace", "seconds": {...},
           "counts": {...}}`` — empty unless started with ``--trace``)
``quit``   (or end of input) shut down and exit

The first stdout line is ``{"event": "ready", ...}`` once the server
listens and its boot warm-up is done.  ``--trace`` rebinds the stack's
public callables with timers (:mod:`tracer`) before anything boots.

Run from the repository root::

    python3 perfbench/server.py --mode single --artifact A.npz \
        --graph G.npz --cache 256 --warm 3,17
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _emit(doc: dict) -> None:
    sys.stdout.write(json.dumps(doc) + "\n")
    sys.stdout.flush()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("single", "sharded"), required=True)
    parser.add_argument("--artifact", required=True)
    parser.add_argument("--graph", required=True)
    parser.add_argument("--cache", type=int, required=True)
    parser.add_argument("--warm", default="")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    from repro.graphs.csr import CSRGraph
    from repro.serve import (
        RoutingHTTPServer,
        RoutingService,
        ShardCluster,
        load_sharded_artifact,
    )

    from tracer import LayerTracer

    tracer = LayerTracer()
    if args.trace:
        tracer.install()
    with np.load(args.graph) as arrays:
        graph = CSRGraph(arrays["indptr"], arrays["indices"], arrays["weights"])
    warm = [int(s) for s in args.warm.split(",") if s]

    t0 = time.perf_counter()
    if args.mode == "single":
        service = RoutingService.from_artifact(
            args.artifact, expect_graph=graph, cache_capacity=args.cache
        )
        load_s = time.perf_counter() - t0
        front = RoutingHTTPServer(service).start()
        closer, url, surface = front, front.url, service
    else:
        sharded = load_sharded_artifact(args.artifact, expect_graph=graph)
        load_s = time.perf_counter() - t0
        cluster = ShardCluster(sharded, cache_capacity=args.cache)
        tracer.set_shard_servers(cluster.shard_servers)
        closer, url, surface = cluster, cluster.url, cluster.router
    listen_wall = time.time()
    t0 = time.perf_counter()
    surface.warm(warm)
    warm_s = time.perf_counter() - t0
    try:
        _emit(
            {
                "event": "ready",
                "url": url,
                "listen_wall": listen_wall,
                "load_s": load_s,
                "warm_s": warm_s,
            }
        )
        for line in sys.stdin:
            command = line.strip()
            if command == "start":
                tracer.start()
                _emit({"event": "started"})
            elif command == "stop":
                _emit({"event": "trace", **tracer.stop()})
            elif command == "quit":
                break
    finally:
        closer.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
