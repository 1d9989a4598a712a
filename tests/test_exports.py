"""Each submodule's ``__all__`` names exactly the public functions and classes it defines.

Every such name, and every public method, classmethod, property or cached
property of a listed class, has a reader in code: the package, perfbench
or the acceptance tests.  A property also needs the reason that
``KEPT_PROPERTIES`` gives for it.  Its own unit tests and the README, which
documents names, do not count; a member's reader must read it as an
attribute.  So has every field such a class stores, unless ``KEPT_FIELDS``
says why it stays, and every defaulted parameter of those callables:
some call in the same code passes it, or ``KEPT_DEFAULTS`` says why.
Every exception class a
submodule or ``_text`` defines is a ``ValueError``: a failure an input
causes has one base, which the CLI catches as it is, and an int argument
past the float range raises no ``OverflowError``.
"""

import ast
import dataclasses
import importlib
import inspect
import math
import re
import textwrap
from functools import cached_property
from pathlib import Path

import numpy as np
import pytest

import maniflow
from maniflow import control, experiments, infophase, manifold, planner, spins, workspace

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
    """Names a piece of code reads: loaded names, ``.name`` attributes, and names imported from a module."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found.update((node.attr, f".{node.attr}"))
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
    return found


def _package_files() -> list:
    return sorted((ROOT / "src" / "maniflow").glob("*.py"))


def _reader_files() -> list:
    """The code outside the package whose reads count: perfbench and the acceptance tests."""
    return [*sorted((ROOT / "perfbench").glob("*.py")), ROOT / "tests" / "test_acceptance.py"]


def _read_names() -> set:
    """Every name that the package, perfbench or the acceptance tests read.

    A name read as an attribute appears twice, as ``name`` and as
    ``.name``.  A read inside a top-level definition or a method counts
    only once that definition is itself read, so a helper that only an
    unread function calls is unread too.  A dunder method is read with its
    class.  Docstrings, the README and the unit tests count for nothing.
    """
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    bodies = []  # (name, what its body reads)
    read = set()
    for path in _package_files():
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
    for path in _reader_files():
        read |= _reads(ast.parse(path.read_text()))
    grown = True
    while grown:
        grown = False
        for name, reads in bodies:
            if name in read and not reads <= read:
                read |= reads
                grown = True
    return read


def test_every_public_name_has_a_reader():
    """A top-level name may be read as an identifier; a class member only as an attribute, ``.name``.

    So a local variable or a CSV header that shares a member's name is no
    read of it.
    """
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
                        if not attr.startswith("_") and f".{attr}" not in read:
                            unread.append(f"{module.__name__}.{key}.{attr}")
    assert unread == []


# public properties, each kept for its own reason
KEPT_PROPERTIES = {
    "maniflow.infophase.GridField.count": "perfbench/cli_child.py calls .sum() on it; it goes with ROADMAP item 1b",
    "maniflow.infophase.GridField.occupied": "perfbench/cli_child.py calls .sum() on it; it goes with ROADMAP item 1b",
    "maniflow.manifold.Decoder.latent_dim": "hides the layer layout: layers[0][0].shape[1]",
    "maniflow.manifold.Decoder.ambient_dim": "hides the layer layout: layers[-1][0].shape[0]",
    "maniflow.manifold.PhaseTrajectory.points": (
        "final() returns its last entry, which perfbench/wl_geodesic.py reads, and perfbench/selfcheck.py"
        " corrupts points[-1] to show that the geodesic check catches it"
    ),
}


def test_every_property_has_its_reason():
    """Every public property or cached property of a public class is in ``KEPT_PROPERTIES``.

    A property that renames or copies a value its object already exposes,
    as ``len(adjacency)`` or ``y.shape[-1]``, is a second route to that
    value, so a new one needs a reason here or its readers read the value.
    """
    found = []
    for module in (importlib.import_module(f"maniflow.{name}") for name in SUBMODULES):
        for key in module.__all__:
            value = vars(module)[key]
            if inspect.isclass(value) and value.__module__ == module.__name__:
                for attr, member in vars(value).items():
                    if not attr.startswith("_") and isinstance(member, (property, cached_property)):
                        found.append(f"{module.__name__}.{key}.{attr}")
    assert sorted(found) == sorted(KEPT_PROPERTIES)


# stored fields that no code reads, each kept for its own reason
KEPT_FIELDS = {
    "maniflow.manifold.SingularMetricError.min_eigenvalue": (
        "state a caught failure carries: how far from positive definite the metric at y is"
    ),
    "maniflow.manifold.IntegrationError.drift": "state a caught failure carries: the energy drift up to the failing step",
    "maniflow.manifold.ShootingError.residuals": "state a caught failure carries: the solver's gradient-norm history",
    "maniflow.workspace.WorkspaceNode.label": (
        "perfbench's relax_plan passes a label to each add_node; the field and that parameter go with EdgeCoeffs"
    ),
}


def _stored_fields(cls) -> set:
    """A class's public dataclass fields, or the public attributes its own ``__init__`` stores on ``self``."""
    if dataclasses.is_dataclass(cls):
        names = {field.name for field in dataclasses.fields(cls)}
    elif "__init__" in vars(cls):
        init = ast.parse(textwrap.dedent(inspect.getsource(cls.__init__)))
        names = {
            node.attr
            for node in ast.walk(init)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Store)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        }
    else:
        names = set()
    return {name for name in names if not name.startswith("_")}


def _string_constants() -> set:
    """Every string constant in the package: column names that pick fields out of ``vars()``."""
    return {
        node.value
        for path in _package_files()
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }


def test_every_field_has_a_reader():
    """A stored field of a public class is read as ``.name`` by the package or its readers, or named by a string.

    The files are those ``_read_names`` reads; a string constant counts
    because the table emitters pick their fields out of ``vars()`` by the
    column names in ``experiments._COLUMNS``.  ``KEPT_FIELDS`` lists exactly
    the fields that nothing reads, each with its reason.  The blind spot:
    a read is matched by name, whatever object it is read from, so any
    ``.value`` read hides a field called ``value``.  The Enum ``.value``
    reads in ``workspace.py`` hid ``control.ValueFunction.value`` this way.
    """
    read = _read_names()
    strings = _string_constants()
    unread = []
    for module in (importlib.import_module(f"maniflow.{name}") for name in SUBMODULES):
        for key in module.__all__:
            value = vars(module)[key]
            if inspect.isclass(value) and value.__module__ == module.__name__:
                for field in _stored_fields(value):
                    if f".{field}" not in read and field not in strings:
                        unread.append(f"{module.__name__}.{key}.{field}")
    assert sorted(unread) == sorted(KEPT_FIELDS)


# defaulted parameters that no call passes, each kept for its own reason
KEPT_DEFAULTS = {
    "maniflow.control.hjb_residual(t)": "the residual's time coordinate, not a setting: V(y, t) is scored at any t",
}


def _calls() -> dict:
    """Every call in the package, perfbench and the acceptance tests, by the name it calls (``f`` or ``x.f``)."""
    calls = {}
    for path in [*_package_files(), *_reader_files()]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                calls.setdefault(getattr(node.func, "id", None) or node.func.attr, []).append(node)
    return calls


def _defaulted_parameters():
    """(label, called name, position, name) of each defaulted parameter of a public function, class or method.

    A parameter that cannot be passed by position has position None.  A
    class's parameters are its constructor's, when the class defines one.
    """
    for module in (importlib.import_module(f"maniflow.{name}") for name in SUBMODULES):
        for key in module.__all__:
            value = vars(module)[key]
            if inspect.isfunction(value):
                targets = [(key, key, value, 0)]
            elif inspect.isclass(value) and value.__module__ == module.__name__:
                targets = [(key, key, value.__init__, 1)] if "__init__" in vars(value) else []
                for attr, member in vars(value).items():
                    if not attr.startswith("_") and isinstance(member, classmethod):
                        targets.append((f"{key}.{attr}", attr, member.__func__, 1))
                    elif not attr.startswith("_") and inspect.isfunction(member):
                        targets.append((f"{key}.{attr}", attr, member, 1))
            else:
                continue
            for label, called, function, bound in targets:
                params = list(inspect.signature(function).parameters.values())[bound:]
                positional = [p for p in params if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)]
                for param in params:
                    if param.default is not param.empty:
                        position = positional.index(param) if param in positional else None
                        yield f"{module.__name__}.{label}({param.name})", called, position, param.name


def _passes(call: ast.Call, position, name: str) -> bool:
    """A call passes a parameter by keyword, by position, or through ``*args`` (by position) or ``**kwargs``."""
    if any(keyword.arg in (name, None) for keyword in call.keywords):
        return True
    return position is not None and (
        position < len(call.args) or any(isinstance(arg, ast.Starred) for arg in call.args)
    )


def test_every_defaulted_parameter_has_a_reader():
    """An option needs a caller outside the unit tests: some call of its name in the package or its readers passes it.

    The files are those ``_read_names`` reads.  A call is matched by the name
    it calls, ``f(...)`` or ``x.f(...)``, whatever ``x`` is.  ``KEPT_DEFAULTS``
    lists exactly the parameters that no call passes, each with its reason.
    """
    calls = _calls()
    unread = sorted(
        label
        for label, called, position, name in _defaulted_parameters()
        if not any(_passes(call, position, name) for call in calls.get(called, []))
    )
    assert unread == sorted(KEPT_DEFAULTS)


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


def _integrate(h):
    return manifold.integrate(manifold.GeodesicHamiltonian(_flat_field()), manifold.PhasePoint(np.zeros(2), np.ones(2)), h, 1)


@pytest.mark.parametrize(
    "call, want",
    [
        (lambda: _edges(("knn", BIG)), lambda: _edges(("knn", 1))),
        (lambda: _integrate(BIG), f"step size must be finite and non-zero, got {BIG!r}"),
        (
            lambda: manifold.solve_shooting(_flat_field(), [0.0, 0.0], [0.9, 0.4], n_steps=BIG),
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
        (lambda: experiments.ToyDecoder(BIG), f"decoder scale must be finite, got {BIG!r}"),
        (
            lambda: manifold.MetricField(manifold.Decoder.linear(np.eye(2)), eps_reg=BIG),
            f"eps_reg must be >= 0, got {BIG!r}",
        ),
        (lambda: manifold.Decoder.linear([[BIG]]), "layer 0 weights must be finite"),
        (lambda: manifold.Decoder([([[1.0]], [BIG])]), "layer 0 biases must be finite"),
        (
            lambda: manifold.integrate(
                manifold.GeodesicHamiltonian(_flat_field()), manifold.PhasePoint([BIG, 0.0], [0.0, 0.0]), 0.1, 1
            ),
            "non-finite state or energy at step 0",
        ),
        (lambda: spins.SpinSystem([[1.0]], [[BIG]]), "couplings must be finite"),
        (lambda: planner.build_ndm_graph([[BIG], [0.0]], ("knn", 1), lambda a, b: 1.0), "sample 0 is not finite"),
    ],
    ids=[
        "knn-k",
        "step-size",
        "shooting-n-steps",
        "field-bins",
        "edge-weight",
        "edge-cost",
        "workspace-t",
        "bath-eta",
        "bath-gamma",
        "toy-decoder-scale",
        "eps-reg",
        "decoder-weight",
        "decoder-bias",
        "phase-point",
        "spin-couplings",
        "graph-sample",
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


def _unit_field():
    return manifold.MetricField(manifold.Decoder.linear(np.eye(2)), eps_reg=0.0)


def _start():
    return manifold.PhasePoint(np.zeros(2), np.ones(2))


def _trajectory():
    return manifold.integrate(manifold.GeodesicHamiltonian(_unit_field()), _start(), 0.1, 2)


def _four_spins():
    return spins.SpinSystem(np.eye(4), np.ones((4, 4)) - np.eye(4))


def _path_graph():
    graph = planner.WeightedDigraph()
    for i in range(5):
        graph.add_node()
        if i:
            graph.add_edge(i - 1, i, 1.0)
    return graph


def _rows(portraits):
    return [list(por.rows()) for por in portraits]


_DISTS = [[0.5, 0.5], [0.7, 0.3], [0.9, 0.1], [0.6, 0.4], [0.8, 0.2]]
_NO_COST = control.CostSpec(lambda z: 0.0)


def _still(grad=lambda y, t: [0.0, 0.0], time_partial=lambda y, t: 0.0):
    """V = 0 over R^2, with the derivatives given."""
    return control.ValueFunction(grad, time_partial)


def _hjb(value_fn, y=(0.0, 0.0), t=0.0):
    return control.hjb_residual(_unit_field(), _NO_COST, value_fn, y, t)

# each count argument of the package, as a function of the count n
COUNTS = {
    "integrate-n-steps": lambda n: manifold.integrate(
        manifold.GeodesicHamiltonian(_unit_field()), _start(), 0.1, n
    ).ys.tolist(),
    "deviations-n-steps": lambda n: manifold.empirical_deviations(
        manifold.GeodesicHamiltonian(_unit_field()), _start(), np.ones(4), 0.1, n
    ).tolist(),
    "shooting-n-steps": lambda n: manifold.solve_shooting(_unit_field(), [0.0, 0.0], [0.9, 0.4], n_steps=n).tolist(),
    "field-bins": lambda n: list(infophase.empirical_field([infophase.portrait(_DISTS)], n).rows()),
    "smoothing-window": lambda n: list(infophase.portrait(_DISTS, n).rows()),
    "toy3-steps": lambda n: [vars(report) for report in experiments.toy3_run(steps=n)],
    "rotation-n-portraits": lambda n: _rows(experiments.rotation_portraits(n, 4, 0.1, np.random.default_rng(0))),
    "rotation-steps": lambda n: _rows(experiments.rotation_portraits(2, n, 0.1, np.random.default_rng(0))),
    "knn-k": lambda n: [(u, v) for u, v, _ in planner.build_ndm_graph(np.eye(5), ("knn", n), lambda a, b: 1.0).edges()],
    "gibbs-index": lambda n: spins.gibbs_attention(_four_spins(), n, 1.0).tolist(),
    "path-source": lambda n: planner.shortest_path(_path_graph(), n, 4),
    "path-target": lambda n: planner.shortest_path(_path_graph(), 0, n),
    "dijkstra-source": lambda n: planner.dijkstra(_path_graph(), n),
}


@pytest.mark.parametrize("call", COUNTS.values(), ids=COUNTS.keys())
def test_count_is_a_whole_number(call):
    """A count is an int or a float with no fraction part: 3.0 gives what 3 gives, and 2.5, inf and nan raise.

    A fraction used to be truncated, or to raise TypeError or IndexError,
    and inf an OverflowError; each ValueError names the value it refuses.
    """
    for bad in (2.5, math.inf, math.nan):
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            call(bad)
    np.testing.assert_equal(call(3.0), call(3))


# each real argument that an int past the float range used to turn into an OverflowError, as a function of it
REALS = {
    "decoder-point": lambda x: manifold.Decoder.linear(np.eye(2))([x, 0.0]).tolist(),
    "metric-solve-point": lambda x: _unit_field().solve([x, 0.0], [1.0, 0.0]).tolist(),
    "metric-solve-rhs": lambda x: _unit_field().solve([0.0, 0.0], [x, 0.0]).tolist(),
    "pullback-metric": lambda x: manifold.pullback_metric(_unit_field(), [x, 0.0]).tolist(),
    "geodesic-hamiltonian": lambda x: float(manifold.GeodesicHamiltonian(_unit_field())([0.0, 0.0], [x, 0.0])),
    "shooting-tol": lambda x: manifold.solve_shooting(_unit_field(), [0.0, 0.0], [0.9, 0.4], tol=x).tolist(),
    "shooting-endpoint": lambda x: manifold.solve_shooting(_unit_field(), [0.0, 0.0], [x, 0.4]).tolist(),
    "jacobi-deviation": lambda x: manifold.jacobi_propagate(
        manifold.GeodesicHamiltonian(_unit_field()), _trajectory(), [x, 0.0, 0.0, 0.0]
    ).tolist(),
    "empirical-deviation": lambda x: manifold.empirical_deviations(
        manifold.GeodesicHamiltonian(_unit_field()), _start(), [x, 0.0, 0.0, 0.0], 0.1, 2
    ).tolist(),
    "task-cost": lambda x: control.CostSpec(lambda z: x).potential(np.zeros(2)),
    "value-gradient": lambda x: _hjb(_still(grad=lambda y, t: [x, 0.0])),
    "value-time-partial": lambda x: _hjb(_still(time_partial=lambda y, t: x)),
    "reduced-hamiltonian": lambda x: float(control.ReducedHamiltonian(_unit_field(), _NO_COST)([x, 0.0], [0.0, 0.0])),
    "optimal-control": lambda x: control.optimal_control(_unit_field(), [0.0, 0.0], [x, 0.0]).tolist(),
    "hjb-point": lambda x: _hjb(_still(), [x, 0.0]),
    "hjb-time": lambda x: _hjb(_still(time_partial=lambda y, t: t), t=x),
    "ndm-layer-dt": lambda x: control.ndm_layer(_unit_field(), _NO_COST, _start(), x),
    "running-cost": lambda x: control.running_cost(_unit_field(), _NO_COST, [0.0, 0.0], [x, 0.0]),
    "trajectory-dt": lambda x: control.trajectory_cost(
        _unit_field(), _NO_COST, [([0.0, 0.0], [1.0, 0.0], x), ([0.0, 0.0], [1.0, 0.0], 1.0)]
    ),
    "attention-query": lambda x: spins.attention_couplings([[x]], [[1.0]]).tolist(),
    "lattice-couplings": lambda x: spins.lattice_energy([[0.0, x], [0.0, 0.0]], np.eye(2)),
    "lattice-spins": lambda x: spins.lattice_energy(np.ones((2, 2)), [[x, 0.0], [0.0, 1.0]]),
    "lattice-fields": lambda x: spins.lattice_energy(np.ones((2, 2)), np.eye(2), [[x, 0.0], [0.0, 0.0]]),
    "gibbs-beta": lambda x: spins.gibbs_attention(_four_spins(), 0, x).tolist(),
    "entropy": lambda x: infophase.entropy([x, 0.0]),
    "portrait-series": lambda x: len(infophase.PhasePortrait([x], [0.0])),
    "grid-edge": lambda x: list(infophase.GridField([0.0, x], [0.0, 1.0], [[0.0]], [[0.0]], [[1]]).rows()),
    "readout-point": lambda x: experiments.ToyDecoder().entropy_at(x),
    "quadratic-value": lambda x: experiments.quadratic_value(x),
    "path-node": lambda x: experiments.path_metrics([x, 0.0], experiments.ToyDecoder()).cost,
    "toy3-dt": lambda x: experiments.toy3_run(steps=3, dt=x),
    "toy3-damping": lambda x: experiments.toy3_run(steps=3, damping=x),
    "rotation-dt": lambda x: experiments.rotation_portraits(1, 3, x, np.random.default_rng(0)),
    "oscillator-momentum": lambda x: manifold.integrate(
        experiments.HarmonicOscillator(), manifold.PhasePoint([0.0], [x]), 0.1, 1
    ).ys.tolist(),
}


@pytest.mark.parametrize("call", REALS.values(), ids=REALS.keys())
def test_real_past_the_float_range_is_inf(call):
    """An int past the float range is read as inf: the call raises ValueError, or returns what it returns for inf."""
    try:
        want = call(math.inf)
    except ValueError:
        with pytest.raises(ValueError):
            call(BIG)
    else:
        np.testing.assert_equal(call(BIG), want)
