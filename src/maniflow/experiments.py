"""Toy descent, halving, and oscillator experiments with table emitters.

Three small studies over the scalar potential V(y) = y^2 / 2:

* descent paths from y = 2 to y = 0 (fixed linear schedule, value-halving
  schedule, and a shortest-path route over a latent node set), scored by
  trapezoidal path cost and entropy change of a toy read-out decoder;
* iterative-refinement schedules (three halvings vs six contraction
  ticks of ratio 0.6);
* harmonic-oscillator integration with the staged leapfrog against a
  forward-Euler ablation and a damped leapfrog ablation.

Each table emitter prints the computed values next to the reference
values the runs are validated against; where a reference entry is
inconsistent with its own reported dynamics, the row carries a note and
the derived value is reported.

The toy read-out maps y to three outcomes with logits (g, 0, -g),
g = scale * (1 - |y|/2) clipped at 0; its one setting is the finite
``scale`` (1 by default, ``gap:<scale>`` on the CLI).  For a positive
scale the read-out entropy strictly increases in |y| on [0, 2]: runs
that end closer to the origin shed more entropy per unit cost.

No table and no rotation portrait needs arrays, so none loads numpy: the
read-out's softmax and entropy run over Python floats, table 1's route is
planned on a pure-Python graph, table 3 runs ``_staged``'s kick-drift-kick,
the one ``manifold.integrate`` runs, on ``HarmonicOscillator`` over Python
floats, and ``rotation_portraits`` turns its circles with ``math.cos`` and
``math.sin``.  numpy and ``manifold`` are imported only by a leapfrog run
that diverges, whose error carries arrays, and ``infophase`` only inside
``rotation_portraits``.  The classes are plain ones with hand-written
``__init__``s: the CLI's tables and ``phase --seed`` import this module,
and the standard-library decorator that would write those ``__init__``s
loads ``inspect``, which costs each of those processes more time than its
own work.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from . import _text
from ._numbers import is_count, real
from ._staged import staged

if TYPE_CHECKING:
    import numpy as np

    from .infophase import PhasePortrait

__all__ = [
    "ToyDecoder",
    "parse_decoder_spec",
    "PathMetrics",
    "path_metrics",
    "quadratic_value",
    "toy1_run",
    "toy2_run",
    "OscillatorReport",
    "HarmonicOscillator",
    "toy3_run",
    "rotation_portraits",
    "table_csv",
    "table_markdown",
    "TABLE1_REFERENCE",
    "TABLE2_REFERENCE",
    "TABLE3_REFERENCE",
]


class ToyDecoder:
    """Read-out head mapping a scalar state y to logits (g, 0, -g), g = scale * max(0, 1 - |y|/2).

    The softmax is taken once, over Python floats: the logits are shifted
    by their maximum, exponentiated with ``math.exp`` and divided by their
    left-to-right sum.  ``distribution`` returns those floats, and
    ``entropy_at`` reads them.  A shift that overflows gives -inf and a
    zero probability.  A scale that is not finite raises ``ValueError``.
    """

    def __init__(self, scale: float = 1.0):
        if not math.isfinite(real(scale)):
            raise ValueError(f"decoder scale must be finite, got {scale!r}")
        self.scale = scale

    def distribution(self, y: float) -> list[float]:
        gap = float(self.scale * max(0.0, 1.0 - abs(real(y)) / 2.0))
        logits = [gap, 0.0, -gap]
        top = max(logits)
        weights = [math.exp(v - top) for v in logits]
        total = 0.0
        for w in weights:
            total += w
        return [w / total for w in weights]

    def entropy_at(self, y: float) -> float:
        """-sum p ln p over the read-out at y, summed left to right, with 0 ln 0 = 0."""
        acc = 0.0
        for p in self.distribution(y):
            if p > 0.0:
                acc += p * math.log(p)
        return -acc + 0.0  # + 0.0: a one-hot read-out is 0.0, not -0.0


def parse_decoder_spec(text: str) -> ToyDecoder:
    """CLI decoder selection: ``default`` or ``gap:<scale>``."""
    if text == "default":
        return ToyDecoder()
    if text.startswith("gap:"):
        return ToyDecoder(float(text[len("gap:") :]))
    raise ValueError(f"unknown decoder spec {text!r} (expected 'default' or 'gap:<scale>')")


def quadratic_value(y: float) -> float:
    return 0.5 * real(y) * real(y)


class PathMetrics:
    """Entropy change and trapezoidal cost of a scalar path."""

    def __init__(self, path: tuple[float, ...], u_final: float, delta_u: float, cost: float, efficiency: float):
        self.path = path
        self.u_final = u_final
        self.delta_u = delta_u
        self.cost = cost
        self.efficiency = efficiency


def path_metrics(path, decoder: ToyDecoder) -> PathMetrics:
    """Score a path: delta_u = u_0 - u_T, J = trapezoid of V(y) = y^2 / 2, efficiency = delta_u / J.

    J is summed left to right: builtin ``sum`` compensates a float sum from
    Python 3.12 on, which would move its last bit with the interpreter.
    """
    nodes = [real(y) for y in path]
    if not nodes:
        raise ValueError("path is empty")
    cost = 0.0
    for a, b in zip(nodes[:-1], nodes[1:]):
        cost += 0.5 * (quadratic_value(a) + quadratic_value(b))
    if cost == 0.0:
        raise ValueError("path cost J is zero; efficiency is undefined")
    u_final = decoder.entropy_at(nodes[-1])
    delta_u = decoder.entropy_at(nodes[0]) - u_final
    return PathMetrics(
        path=tuple(nodes),
        u_final=u_final,
        delta_u=delta_u,
        cost=cost,
        efficiency=delta_u / cost,
    )


LINEAR_PATH = (2.0, 1.6, 1.2, 0.8, 0.4, 0.0)
HALVING_PATH_5 = (2.0, 1.0, 0.5, 0.25, 0.125, 0.0625)
HALVING_PATH_3 = (2.0, 1.0, 0.5, 0.25)
# six contraction ticks of ratio 0.6 from 2, each term the previous one times 0.6
CONTRACTION_PATH = (
    2.0,
    2.0 * 0.6,
    2.0 * 0.6 * 0.6,
    2.0 * 0.6 * 0.6 * 0.6,
    2.0 * 0.6 * 0.6 * 0.6 * 0.6,
    2.0 * 0.6 * 0.6 * 0.6 * 0.6 * 0.6,
    2.0 * 0.6 * 0.6 * 0.6 * 0.6 * 0.6 * 0.6,
)
SSSP_NODE_SET = (2.0, 1.6, 1.2, 0.8, 0.4, 0.0, 1.0, 0.5, 0.25, 0.125, 0.0625)


def _sssp_path() -> tuple[float, ...]:
    """The cheapest route from 2 to 0 over the complete digraph on SSSP_NODE_SET.

    The graph is the one ``build_ndm_graph(SSSP_NODE_SET, ("knn", n - 1), cost)``
    gives on these distinct scalars, with its edges added in index order;
    Dijkstra's route does not depend on that order.
    """
    from .planner import WeightedDigraph, shortest_path  # table 1's route alone plans

    graph = WeightedDigraph()
    for _ in SSSP_NODE_SET:
        graph.add_node()
    for i, a in enumerate(SSSP_NODE_SET):
        for j, b in enumerate(SSSP_NODE_SET):
            if i != j:
                graph.add_edge(i, j, 0.5 * (quadratic_value(a) + quadratic_value(b)))
    found = shortest_path(graph, SSSP_NODE_SET.index(2.0), SSSP_NODE_SET.index(0.0))
    assert found is not None, "complete graph cannot be disconnected"
    path, _ = found
    return tuple(SSSP_NODE_SET[i] for i in path)


def toy1_run(decoder: ToyDecoder | None = None) -> dict[str, PathMetrics]:
    """Descent study: linear schedule vs value halving vs shortest path."""
    decoder = decoder or ToyDecoder()
    return {
        "linear": path_metrics(LINEAR_PATH, decoder),
        "hjb_like": path_metrics(HALVING_PATH_5, decoder),
        "sssp": path_metrics(_sssp_path(), decoder),
    }


def toy2_run(decoder: ToyDecoder | None = None) -> dict[str, PathMetrics]:
    """Refinement study: three halvings vs six contraction ticks of ratio 0.6."""
    decoder = decoder or ToyDecoder()
    return {
        "hjb_only": path_metrics(HALVING_PATH_3, decoder),
        "ctm_style": path_metrics(CONTRACTION_PATH, decoder),
    }


class HarmonicOscillator:
    """H(y, p) = (y^2 + p^2) / 2 with analytic partials; ``damping`` adds damping * p to dH/dy.

    H takes arrays; the partials take arrays or Python floats and return p
    itself for dH/dp, so table 3 steps it over floats.
    """

    def __init__(self, damping: float = 0.0):
        self.damping = damping

    def __call__(self, y: np.ndarray, p: np.ndarray) -> float:
        return 0.5 * float(y @ y + p @ p)

    def dy(self, y: np.ndarray, p: np.ndarray) -> np.ndarray:
        return y + self.damping * p

    def dp(self, y: np.ndarray, p: np.ndarray) -> np.ndarray:
        return p


class OscillatorReport:
    """Integrator outcome against the exact oscillator solution."""

    def __init__(
        self,
        method: str,
        final_y: float,
        final_p: float,
        eps_state: float,
        eps_h_max: float,
        final_radius: float,
        note: str = "",
    ):
        self.method = method
        self.final_y = final_y
        self.final_p = final_p
        self.eps_state = eps_state
        self.eps_h_max = eps_h_max
        self.final_radius = final_radius
        self.note = note


def _report(method: str, y_n: float, p_n: float, eps_h_max: float, t_final: float, note: str = "") -> OscillatorReport:
    exact_y, exact_p = math.cos(t_final), -math.sin(t_final)
    report = OscillatorReport(
        method=method,
        final_y=y_n,
        final_p=p_n,
        eps_state=math.hypot(y_n - exact_y, p_n - exact_p),
        eps_h_max=eps_h_max,
        final_radius=math.hypot(y_n, p_n),
        note=note,
    )
    if not all(map(math.isfinite, (y_n, p_n, report.eps_state, report.eps_h_max))):
        raise ValueError(f"{method} run: non-finite final state or energy error")
    return report


def _nodes(method: str, states) -> tuple[float, float, float]:
    """The last node's y and p, and max |H - 1/2| over the nodes, of a run of (y, p, _) nodes from (1, 0).

    H = (y^2 + p^2)/2 is 1/2 at the start.  It keeps the last node and the
    running maximum, not the nodes, so a run takes constant memory.  A
    node whose y, p or energy is not finite raises the IntegrationError
    ``integrate`` raises, its message prefixed with the run's name; a
    running maximum never meets a NaN.
    """
    eps_h_max = 0.0
    for k, (y, p, _) in enumerate(states):
        energy = y * y + p * p
        if not math.isfinite(energy):  # finite exactly when y, p and the energy are
            import numpy as np

            from .manifold import IntegrationError  # only a diverging run needs manifold

            message = f"{method} run: non-finite state or energy at step {k}"
            raise IntegrationError(message, k, np.array([last[0]]), np.array([last[1]]), eps_h_max)
        eps_h_max = max(eps_h_max, abs(0.5 * energy - 0.5))
        last = y, p
    return *last, eps_h_max


def _leapfrog_nodes(method: str, damping: float, h: float, n: int) -> tuple[float, float, float]:
    """``_nodes`` of the n + 1 leapfrog nodes of ``HarmonicOscillator(damping)`` from (1, 0).

    ``integrate``'s stepper over Python floats, so each node is bit-equal
    to its run.
    """
    return _nodes(method, staged(HarmonicOscillator(damping), 1.0, 0.0, h, n, False))


def _euler_nodes(h: float, n: int) -> tuple[float, float, float]:
    """``_nodes`` of the n + 1 forward-Euler nodes of the undamped oscillator from (1, 0)."""

    def states():
        y, p = 1.0, 0.0
        yield y, p, None
        for _ in range(n):
            y, p = y + h * p, p - h * y
            yield y, p, None

    return _nodes("euler", states())


def _span(steps: int, dt: float) -> tuple[int, float, float]:
    """(steps, dt, steps * dt); ValueError unless dt is finite and > 0, steps a count >= 1 and the product finite."""
    h = real(dt)
    if not (math.isfinite(h) and h > 0):
        raise ValueError(f"dt must be finite and > 0, got {dt!r}")
    if not is_count(steps, 1):
        raise ValueError(f"steps must be an integer >= 1, got {steps!r}")
    span = real(steps) * h
    if not math.isfinite(span):
        raise ValueError(f"steps * dt must be finite, got {steps!r} * {dt!r}")
    return int(steps), h, span


def toy3_run(steps: int = 1000, dt: float = 0.1, damping: float = 0.05) -> list[OscillatorReport]:
    """Oscillator study: staged leapfrog vs forward Euler vs damped leapfrog.

    All runs take ``steps`` steps of size ``dt`` from (y, p) = (1, 0);
    the energy error is the maximum deviation of (y^2 + p^2)/2 from 1/2
    over the recorded nodes.  A bad steps, dt or damping, or a steps * dt
    past the float range, raises ValueError; so does a run that diverges,
    an IntegrationError for the leapfrog runs, whose message names the run.
    """
    steps, dt, t_final = _span(steps, dt)
    if not (math.isfinite(real(damping)) and damping >= 0):
        raise ValueError(f"damping must be finite and >= 0, got {damping!r}")

    leap = _report(
        "leapfrog",
        *_leapfrog_nodes("leapfrog", 0.0, dt, steps),
        t_final,
        note="measured energy error ~ h^2/8; reference table lists 1.25e-2 where the "
        "derived value is 1.25e-3 (scale discrepancy flagged)",
    )

    euler = _report(
        "euler",
        *_euler_nodes(dt, steps),
        t_final,
        note="reference energy error 1.05e-1 is inconsistent with the divergent final "
        "state; derived value ~ ((1+h^2)^N - 1)/2 is reported instead",
    )

    damped = _report("damped", *_leapfrog_nodes("damped", real(damping), dt, steps), t_final)

    return [leap, euler, damped]


_ROTATION_CENTER = 2.0
_ROTATION_RADII = (0.3, 1.5)


def rotation_portraits(n_portraits: int, n_steps: int, dt: float, rng) -> list[PhasePortrait]:
    """Sample portraits circling (2, 0) under u_dot = e, e_dot = -(u - 2).

    Each radius is drawn uniformly from [0.3, 1.5), below the center, so
    the entropy coordinate stays non-negative; the rotation is applied
    exactly, so the underlying flow is divergence free.  ``rng`` is any
    object with ``uniform(low, high)``, such as a ``np.random.Generator``;
    the portraits are computed over Python floats.  ``n_steps`` steps of
    size ``dt`` are checked as ``toy3_run`` checks its ``steps`` and ``dt``.
    """
    from .infophase import PhasePortrait  # the phase command's portraits alone need infophase

    n_steps, dt, _ = _span(n_steps, dt)
    if not is_count(n_portraits, 0):
        raise ValueError(f"n_portraits must be an integer >= 0, got {n_portraits!r}")
    portraits = []
    for _ in range(int(n_portraits)):
        r = rng.uniform(*_ROTATION_RADII)
        phase = rng.uniform(0.0, 2.0 * math.pi)
        t = [phase - dt * k for k in range(n_steps + 1)]
        u = [_ROTATION_CENTER + r * c for c in map(math.cos, t)]
        portraits.append(PhasePortrait(u=u, e=[r * s for s in map(math.sin, t)]))
    return portraits


# ---------------------------------------------------------------------------
# table emitters

TABLE1_REFERENCE = {
    "linear": {"u_final": 0.9060, "delta_u": 0.1684, "cost": 3.4000, "efficiency": 0.0495},
    "hjb_like": {"u_final": 0.9146, "delta_u": 0.1598, "cost": 1.6650, "efficiency": 0.0960},
    "sssp": {"u_final": 0.9060, "delta_u": 0.1684, "cost": 1.0000, "efficiency": 0.1684},
}

TABLE2_REFERENCE = {
    "hjb_only": {"final_y": 0.25, "u_final": 0.9393, "delta_u": 0.1351, "cost": 1.6406, "efficiency": 0.0823},
    "ctm_style": {"final_y": 0.0933, "u_final": 0.9187, "delta_u": 0.1556, "cost": 2.1204, "efficiency": 0.0734},
}

TABLE3_REFERENCE = {
    "leapfrog": {"final_y": 0.883, "final_p": 0.469, "eps_state": 0.042, "eps_h_max": 1.25e-2},
    "euler": {"final_y": 94.2, "final_p": 110.0, "eps_state": 1.44e2, "eps_h_max": 1.05e-1},
    "damped": {"final_y": 0.0725, "final_p": 0.0362, "eps_state": 0.919, "eps_h_max": 4.97e-1},
}

_T1_LABELS = {"linear": "linear", "hjb_like": "hjb-like", "sssp": "ndm-sssp"}
_T2_LABELS = {"hjb_only": "hjb-only", "ctm_style": "ctm-style"}


def _path_text(path: tuple[float, ...]) -> str:
    return "->".join(f"{y:g}" for y in path)


# Each table's (leading, computed, trailing) columns.  A row holds the leading
# cells, the computed ones, their reference values (the ``_ref`` columns) and
# the trailing cells.
_COLUMNS = {
    1: (("method", "path"), ("u_final", "delta_u", "cost", "efficiency"), ()),
    2: (("method", "path"), ("final_y", "u_final", "delta_u", "cost", "efficiency"), ()),
    3: (("method",), ("final_y", "final_p", "eps_state", "eps_h_max"), ("note",)),
}


def _path_cells(runs: dict[str, PathMetrics], labels: dict) -> dict[str, dict]:
    """Each run's cells by column name."""
    return {
        key: {**vars(m), "method": labels[key], "path": _path_text(m.path), "final_y": m.path[-1]}
        for key, m in runs.items()
    }


def table_csv(which: int, decoder: ToyDecoder | None = None, **toy3_kwargs) -> str:
    """CSV emitter: computed columns next to their reference counterparts."""
    if which == 1:
        cells, reference = _path_cells(toy1_run(decoder), _T1_LABELS), TABLE1_REFERENCE
    elif which == 2:
        cells, reference = _path_cells(toy2_run(decoder), _T2_LABELS), TABLE2_REFERENCE
    elif which == 3:
        cells, reference = {rep.method: vars(rep) for rep in toy3_run(**toy3_kwargs)}, TABLE3_REFERENCE
    else:
        raise ValueError(f"no such table {which!r}; choose 1, 2, or 3")
    lead, computed, trail = _COLUMNS[which]
    heads = ["cost_J" if c == "cost" else c for c in computed]
    header = [*lead, *heads, *(f"{h}_ref" for h in heads), *trail]
    rows = [
        [
            *(run[c] for c in lead),
            *(run[c] for c in computed),
            *(reference[key][c] for c in computed),
            *(run[c] for c in trail),
        ]
        for key, run in cells.items()
    ]
    return _text.csv(header, rows)


def table_markdown(csv_text: str) -> str:
    """Markdown rendering of a ``table_csv`` text; no cell holds a comma."""
    header, *rows = [line.split(",") for line in csv_text.splitlines()]
    lines = ["| " + " | ".join(header) + " |", "|" + "---|" * len(header)]
    lines += ["| " + " | ".join(row) + " |" for row in rows]
    return "\n".join(lines) + "\n"
