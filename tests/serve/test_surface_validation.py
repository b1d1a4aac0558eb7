"""One validator for every query surface: same bad input, same error.

:class:`QueryPlanner`, :class:`RoutingService` and :class:`ShardRouter`
check query vertices and ``k`` through one shared validator, so for any
bad input — negative ids, ids ≥ n, bools, floats, strings, numpy
integers out of range, negative or non-integer ``k`` — all three must
raise the same exception type with the same message, on every entry
point (``distances``/``route``/``nearest``/``batch``/``warm``).
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.serve import KNearest, QueryPlanner, RoutingService, ShardRouter

from tests.helpers import random_connected_graph

N = 36


@pytest.fixture(scope="module")
def surfaces():
    g = random_connected_graph(N, 80, seed=3, weight_high=20)
    service = RoutingService(g, k=1, rho=4, heuristic="full")
    planner = QueryPlanner(service.solver, track_parents=True)
    # the planner's batch entry point is execute()
    planner.batch = planner.execute
    return {
        "planner": planner,
        "service": service,
        "router": ShardRouter(g, n_shards=3, k=1, rho=4, heuristic="full"),
    }


good_vertex = st.integers(0, N - 1)
bad_vertex = st.one_of(
    st.integers(max_value=-1),
    st.integers(min_value=N),
    st.booleans(),
    st.just(np.bool_(True)),
    st.floats(allow_nan=True),
    st.text(max_size=4),
    st.integers(-(2**31), -1).map(np.int64),
    st.integers(N, 2**31 - 1).map(np.int32),
)
bad_k = st.one_of(
    st.integers(max_value=-1),
    st.integers(-(2**31), -1).map(np.int64),
    st.booleans(),
    st.floats(allow_nan=True),
    st.text(max_size=4),
)


def _same_error(surfaces, op: str, *args) -> None:
    errors = {}
    for name, surface in surfaces.items():
        with pytest.raises((TypeError, ValueError)) as info:
            getattr(surface, op)(*args)
        errors[name] = (type(info.value), str(info.value))
    assert len(set(errors.values())) == 1, errors


@given(v=bad_vertex, ok=good_vertex)
def test_bad_vertex_same_error_everywhere(surfaces, v, ok):
    _same_error(surfaces, "distances", v)
    _same_error(surfaces, "route", v, ok)
    _same_error(surfaces, "route", ok, v)
    _same_error(surfaces, "nearest", v, 3)
    _same_error(surfaces, "batch", [v])
    _same_error(surfaces, "batch", [ok, (ok, v)])
    _same_error(surfaces, "batch", [KNearest(v, 2)])
    _same_error(surfaces, "warm", [ok, v])


@given(k=bad_k, ok=good_vertex)
def test_bad_k_same_error_everywhere(surfaces, k, ok):
    _same_error(surfaces, "nearest", ok, k)
    _same_error(surfaces, "batch", [ok, KNearest(ok, k)])
