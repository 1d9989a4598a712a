"""Each submodule's ``__all__`` names exactly the public functions and classes it defines.

Every such name, and every public method, classmethod, property or cached
property of a listed class, has a reader beyond its own unit tests.  Every
exception class a submodule or ``_text`` defines is a ``ValueError``: a
failure an input causes has one base, which the CLI catches as it is, and
an int argument past the float range raises no ``OverflowError``.
"""

import ast
import importlib
import inspect
import re
from functools import cached_property
from pathlib import Path

import numpy as np
import pytest

import maniflow
from maniflow import experiments, infophase, manifold, planner, spins, workspace

ROOT = Path(__file__).resolve().parent.parent

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


def _reads(tree) -> set:
    """Names a piece of code reads: loaded names, attributes, and names imported from a module."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
    return found


def _read_names() -> set:
    """Every name that the package, perfbench, the acceptance tests or README reads.

    A read inside a top-level definition or a method counts only once that
    definition is itself read, so a helper that only an unread function
    calls is unread too.  A dunder method is read with its class.  README
    counts what its backticks and code blocks name; docstrings and the unit
    tests count for nothing.  Names match as identifiers, so a local
    variable that shares a public name counts as a read of it.
    """
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    bodies = []  # (name, what its body reads)
    read = set()
    for path in sorted((ROOT / "src" / "maniflow").glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            if not isinstance(stmt, defs):
                read |= _reads(stmt)
                continue
            if isinstance(stmt, ast.ClassDef):
                for member in stmt.body:
                    if isinstance(member, defs):
                        bodies.append((stmt.name if member.name.startswith("__") else member.name, _reads(member)))
                rest = [member for member in stmt.body if not isinstance(member, defs)]
                bodies.append((stmt.name, _reads(ast.Module([*rest, *stmt.decorator_list, *stmt.bases], []))))
            else:
                bodies.append((stmt.name, _reads(stmt)))
    for path in [*sorted((ROOT / "perfbench").glob("*.py")), ROOT / "tests" / "test_acceptance.py"]:
        read |= _reads(ast.parse(path.read_text()))
    for span in re.findall(r"```(.*?)```|`([^`]+)`", (ROOT / "README.md").read_text(), re.S):
        read |= set(re.findall(r"[A-Za-z_]\w*", "".join(span)))
    grown = True
    while grown:
        grown = False
        for name, reads in bodies:
            if name in read and not reads <= read:
                read |= reads
                grown = True
    return read


def test_every_public_name_has_a_reader():
    read = _read_names()
    unread = []
    for module in (importlib.import_module(f"maniflow.{name}") for name in SUBMODULES):
        for key in module.__all__:
            if key not in read:
                unread.append(f"{module.__name__}.{key}")
            value = vars(module)[key]
            if inspect.isclass(value) and value.__module__ == module.__name__:
                for attr, member in vars(value).items():
                    if inspect.isfunction(member) or isinstance(member, (property, classmethod, cached_property)):
                        if not attr.startswith("_") and attr not in read:
                            unread.append(f"{module.__name__}.{key}.{attr}")
    assert unread == []


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


def _one_node_graph():
    graph = planner.WeightedDigraph()
    graph.add_node()
    return graph


def _two_states():
    ws = workspace.WorkspaceGraph()
    ws.add_node("S1", "state")
    ws.add_node("S2", "state")
    return ws


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
        (lambda: _integrate(BIG), f"step size must be finite and non-zero, got {BIG!r}"),
        (
            lambda: manifold.solve_shooting(_flat_field(), [0.0, 0.0], [0.9, 0.4], n_steps=BIG),
            f"n_steps must be a count within the float range, got {BIG!r}",
        ),
        (
            lambda: manifold.loss_geo(_flat_field(), [([0.0, 0.0], [0.9, 0.4])], BIG),
            f"n_steps must be a count within the float range, got {BIG!r}",
        ),
        (
            lambda: infophase.empirical_field([infophase.portrait([[0.5, 0.5], [0.9, 0.1]])], BIG),
            f"bins must be within the float range, got {BIG!r}",
        ),
        (lambda: _one_node_graph().add_edge(0, 0, BIG), f"edge weight on (0, 0) must be finite, got {BIG!r}"),
        (
            lambda: planner.build_ndm_graph([[0.0], [1.0]], ("knn", 1), lambda a, b: BIG),
            f"edge cost between samples 0 and 1 must be finite and non-negative, got {BIG!r}",
        ),
        (
            lambda: _two_states().add_edge("temporal", "S1", "S2", BIG),
            f"edge record {('temporal', 'S1', 'S2', BIG)!r}: t must be finite, got inf",
        ),
        (lambda: spins.BathParams(eta=BIG), "eta must be finite"),
        (lambda: spins.BathParams(gamma=BIG), "gamma must be finite"),
        (lambda: experiments.default_toy_decoder(BIG), f"decoder scale must be finite, got {BIG!r}"),
    ],
    ids=[
        "knn-k",
        "waypoint-stride",
        "shooting-max-iter",
        "step-size",
        "shooting-n-steps",
        "loss-geo-n-steps",
        "field-bins",
        "edge-weight",
        "edge-cost",
        "workspace-t",
        "bath-eta",
        "bath-gamma",
        "toy-decoder-scale",
    ],
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
