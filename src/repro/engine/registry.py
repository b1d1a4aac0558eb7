"""Named engine registry — how solvers are selected at query time.

:class:`repro.core.solver.PreprocessedSSSP` (and anything else that
answers SSSP queries) dispatches by engine *name* through this
registry, so adding a solver variant — a new schedule, a different
data-structure substrate, an accelerator backend — is one
:func:`register_engine` call away from being servable, benchmarkable
and parity-testable with no solver-facade changes.  Every entry shares
one calling convention::

    fn(graph, source, radii, *,
       track_parents=False, track_trace=False, ledger=None,
       obs=None) -> SsspResult

``radii`` may be ignored by engines that do not use per-vertex radii
(∆-stepping, Bellman–Ford); they accept it so one dispatch site serves
all engines.  ``obs`` is an optional per-engine telemetry handle (see
:class:`repro.obs.metrics.BoundEngineTelemetry`): engines built on the
unified driver feed it live per-step observations, others may ignore
it — run-level totals are recorded uniformly by
:func:`solve_with_engine` from the returned result either way.
Plugins may omit ``obs`` from their signature entirely (the
pre-telemetry convention); the dispatcher detects this at registration
and simply skips the live hook for them.

Built-in engines
----------------
``vectorized``    seed-compatible Radius-Stepping (heap schedule).
``bucket``        Radius-Stepping on calendar-queue buckets.
``bst``           the faithful Algorithm-2 treap reference.
``unweighted``    the §3.4 BFS-style specialization (unit weights only).
``dijkstra``      equal-distance batched Dijkstra (``r ≡ 0``).
``delta``         ∆-stepping boundaries in the unified engine.
``delta-star``    ∆*-stepping: floating min+∆ window, light/heavy split.
``rho``           ρ-stepping: the ρ nearest frontier vertices per step.
``bellman-ford``  single-step Bellman–Ford (``r ≡ ∞``).
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Callable

from ..core.result import SsspResult

__all__ = [
    "EngineSpec",
    "available_engines",
    "get_engine",
    "register_engine",
    "solve_with_engine",
]

EngineFn = Callable[..., SsspResult]


@dataclass(frozen=True)
class EngineSpec:
    """One registered engine.

    Attributes
    ----------
    name: registry key (what ``solve(engine=...)`` takes).
    fn: the solver callable (see module docstring for the convention).
    supports_parents: whether ``track_parents=True`` is honoured; the
        dispatcher raises ``ValueError`` up front instead of silently
        returning ``parent=None``.
    description: one-liner for ``available_engines`` listings.
    accepts_obs: whether ``fn`` takes the ``obs`` telemetry keyword —
        detected from its signature at registration, so plugins written
        against the pre-telemetry convention keep working (they still
        get run-level telemetry from the dispatcher, just no live
        per-step hook).
    """

    name: str
    fn: EngineFn
    supports_parents: bool = True
    description: str = ""
    accepts_obs: bool = True


_REGISTRY: dict[str, EngineSpec] = {}


def _accepts_obs(fn: EngineFn) -> bool:
    """Whether ``fn``'s signature admits the ``obs`` keyword."""
    try:
        params = inspect.signature(fn).parameters
    except (TypeError, ValueError):  # uninspectable callables: assume yes
        return True
    return "obs" in params or any(
        p.kind is inspect.Parameter.VAR_KEYWORD for p in params.values()
    )


def register_engine(
    name: str,
    fn: EngineFn,
    *,
    supports_parents: bool = True,
    description: str = "",
    overwrite: bool = False,
) -> EngineSpec:
    """Register ``fn`` under ``name``; returns the spec.

    Re-registering an existing name raises unless ``overwrite=True``
    (guards against plugin name collisions).  ``fn`` may omit the
    ``obs`` keyword (the pre-telemetry plugin convention); the
    dispatcher then skips the live hook for that engine.
    """
    if not name or name == "auto":
        raise ValueError(f"invalid engine name {name!r}")
    if name in _REGISTRY and not overwrite:
        raise ValueError(f"engine {name!r} already registered")
    spec = EngineSpec(
        name=name,
        fn=fn,
        supports_parents=supports_parents,
        description=description,
        accepts_obs=_accepts_obs(fn),
    )
    _REGISTRY[name] = spec
    return spec


def get_engine(name: str) -> EngineSpec:
    """Look up a registered engine; ``ValueError`` lists known names."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown engine {name!r}; registered engines: "
            f"{', '.join(sorted(_REGISTRY))}"
        ) from None


def available_engines() -> tuple[str, ...]:
    """Sorted names of every registered engine."""
    return tuple(sorted(_REGISTRY))


def solve_with_engine(
    name: str,
    graph,
    source: int,
    radii=None,
    *,
    track_parents: bool = False,
    track_trace: bool = False,
    ledger=None,
    obs=None,
) -> SsspResult:
    """Dispatch one query through the registry (shared validation).

    ``obs`` is an optional :class:`~repro.obs.metrics.EngineTelemetry`;
    the engine label is bound here (once per query, not per step) and
    run-level totals are folded in from the result after the solve, so
    every engine gets run telemetry even if it ignores the live hook.
    """
    spec = get_engine(name)
    if track_parents and not spec.supports_parents:
        raise ValueError(f"the {name} engine does not track parents")
    bound = obs.bind(name) if obs is not None else None
    kwargs = {
        "track_parents": track_parents,
        "track_trace": track_trace,
        "ledger": ledger,
    }
    if spec.accepts_obs:
        kwargs["obs"] = bound
    res = spec.fn(graph, source, radii, **kwargs)
    if bound is not None:
        bound.record_run(res)
    return res


# --------------------------------------------------------------------- #
# Built-in engines.  Imports happen inside the adapters: the core solver
# modules import the engine package, so importing them here at module
# load would be circular.
# --------------------------------------------------------------------- #
def _vectorized(graph, source, radii, *, track_parents, track_trace, ledger, obs=None):
    from ..core.radius_stepping import radius_stepping

    return radius_stepping(
        graph,
        source,
        radii,
        track_parents=track_parents,
        track_trace=track_trace,
        ledger=ledger,
        obs=obs,
    )


def _bucket(graph, source, radii, *, track_parents, track_trace, ledger, obs=None):
    from ..core.radius_stepping import as_radii
    from .driver import run_engine
    from .schedules import RadiusBucketSchedule

    return run_engine(
        graph,
        source,
        RadiusBucketSchedule(as_radii(graph, radii)),
        track_parents=track_parents,
        track_trace=track_trace,
        ledger=ledger,
        obs=obs,
        algorithm_name="radius-stepping-bucket",
    )


def _bst(graph, source, radii, *, track_parents, track_trace, ledger, obs=None):
    from ..core.radius_stepping_bst import radius_stepping_bst

    return radius_stepping_bst(
        graph, source, radii, track_trace=track_trace, ledger=ledger
    )


def _unweighted(graph, source, radii, *, track_parents, track_trace, ledger, obs=None):
    from ..core.radius_stepping_unweighted import radius_stepping_unweighted

    return radius_stepping_unweighted(
        graph, source, radii, track_trace=track_trace, ledger=ledger
    )


def _dijkstra(graph, source, radii, *, track_parents, track_trace, ledger, obs=None):
    from .driver import run_engine
    from .schedules import DijkstraSchedule

    return run_engine(
        graph,
        source,
        DijkstraSchedule(),
        track_parents=track_parents,
        track_trace=track_trace,
        ledger=ledger,
        obs=obs,
        algorithm_name="dijkstra-steps",
    )


def _delta(graph, source, radii, *, track_parents, track_trace, ledger, obs=None):
    from .driver import run_engine
    from .schedules import DeltaSchedule

    return run_engine(
        graph,
        source,
        DeltaSchedule(),
        track_parents=track_parents,
        track_trace=track_trace,
        ledger=ledger,
        obs=obs,
        algorithm_name="delta-stepping-engine",
    )


def _delta_star(graph, source, radii, *, track_parents, track_trace, ledger, obs=None):
    from .driver import run_engine
    from .schedules import DeltaStarSchedule

    return run_engine(
        graph,
        source,
        DeltaStarSchedule(),
        track_parents=track_parents,
        track_trace=track_trace,
        ledger=ledger,
        obs=obs,
        algorithm_name="delta-star-stepping",
    )


def _rho(graph, source, radii, *, track_parents, track_trace, ledger, obs=None):
    from .driver import run_engine
    from .schedules import RhoSchedule

    return run_engine(
        graph,
        source,
        RhoSchedule(),
        track_parents=track_parents,
        track_trace=track_trace,
        ledger=ledger,
        obs=obs,
        algorithm_name="rho-stepping",
    )


def _bellman_ford(graph, source, radii, *, track_parents, track_trace, ledger, obs=None):
    from .driver import run_engine
    from .schedules import BellmanFordSchedule

    return run_engine(
        graph,
        source,
        BellmanFordSchedule(),
        track_parents=track_parents,
        track_trace=track_trace,
        ledger=ledger,
        obs=obs,
        algorithm_name="bellman-ford-engine",
    )


register_engine(
    "vectorized",
    _vectorized,
    description="seed-compatible Radius-Stepping (lazy heap schedule)",
)
register_engine(
    "bucket",
    _bucket,
    description="Radius-Stepping on lazy calendar-queue buckets",
)
register_engine(
    "bst",
    _bst,
    supports_parents=False,
    description="faithful Algorithm-2 treap reference (slow; PRAM accounting)",
)
register_engine(
    "unweighted",
    _unweighted,
    supports_parents=False,
    description="§3.4 BFS-style engine (unit-weight graphs only)",
)
register_engine(
    "dijkstra",
    _dijkstra,
    description="equal-distance batched Dijkstra (r = 0)",
)
register_engine(
    "delta",
    _delta,
    description="Delta-stepping boundaries in the unified engine",
)
register_engine(
    "delta-star",
    _delta_star,
    description="Delta*-stepping: floating min+Delta window, light/heavy arc split",
)
register_engine(
    "rho",
    _rho,
    description="rho-stepping: settle the rho nearest frontier vertices per step",
)
register_engine(
    "bellman-ford",
    _bellman_ford,
    description="single-step Bellman-Ford (r = inf)",
)
