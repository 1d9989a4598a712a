"""Each submodule's ``__all__`` names exactly the public functions and classes it defines.

Every exception class a submodule or ``_text`` defines is a ``ValueError``:
a failure an input causes has one base, which the CLI catches as it is, and
an int argument past the float range raises no ``OverflowError``.
"""

import importlib
import inspect

import numpy as np
import pytest

import maniflow
from maniflow import manifold, planner

SUBMODULES = [name for name in maniflow.__all__ if not name.startswith("_")]


@pytest.mark.parametrize("name", SUBMODULES)
def test_all_lists_public_definitions(name):
    module = importlib.import_module(f"maniflow.{name}")
    defined = {
        key
        for key, value in vars(module).items()
        if not key.startswith("_")
        and (inspect.isfunction(value) or inspect.isclass(value))
        and value.__module__ == module.__name__
    }
    listed = set(module.__all__)
    assert len(module.__all__) == len(listed), "__all__ repeats a name"
    assert not listed - set(vars(module)), "__all__ names something the module does not define"
    # constants may be listed too; every listed function or class must be defined here
    listed_defs = {key for key in listed if inspect.isfunction(vars(module)[key]) or inspect.isclass(vars(module)[key])}
    assert listed_defs == defined


@pytest.mark.parametrize("name", [*SUBMODULES, "_text"])
def test_exceptions_are_value_errors(name):
    module = importlib.import_module(f"maniflow.{name}")
    errors = {
        key: value
        for key, value in vars(module).items()
        if inspect.isclass(value) and issubclass(value, BaseException) and value.__module__ == module.__name__
    }
    assert {key for key, value in errors.items() if not issubclass(value, ValueError)} == set()


BIG = 10**400  # an int that float() cannot hold


def _edges(connect):
    graph = planner.build_ndm_graph([[0.0], [1.0]], connect, lambda a, b: 1.0)
    return [(u, v) for u, v, _ in graph.edges()]


def _flat_field():
    return manifold.MetricField(manifold.Decoder.linear(np.eye(2)), eps_reg=0.0)


def _shoot(max_iter):
    return manifold.solve_shooting(_flat_field(), [0.0, 0.0], [0.9, 0.4], max_iter=max_iter).tolist()


def _integrate(h):
    return manifold.integrate(manifold.GeodesicHamiltonian(_flat_field()), manifold.PhasePoint(np.zeros(2), np.ones(2)), h, 1)


@pytest.mark.parametrize(
    "call, want",
    [
        (lambda: _edges(("knn", BIG)), lambda: _edges(("knn", 1))),
        (lambda: planner.waypoints([1, 2, 3], BIG), lambda: [1, 3]),
        (lambda: _shoot(BIG), lambda: _shoot(50)),
        (lambda: _edges(("radius", BIG)), f"radius must be a non-negative number, got {BIG!r}"),
        (lambda: _integrate(BIG), f"step size must be finite and non-zero, got {BIG!r}"),
    ],
    ids=["knn-k", "waypoint-stride", "shooting-max-iter", "radius", "step-size"],
)
def test_int_past_the_float_range(call, want):
    """A whole number is the integer it is; a real that float() cannot hold is the function's ValueError.

    Each call used to raise OverflowError from a float() of its argument.
    """
    if isinstance(want, str):
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == want
    else:
        assert call() == want()
