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

The default toy read-out maps y to three outcomes with logits
(g, 0, -g), g = scale * (1 - |y|/2) clipped at 0, making the read-out
entropy strictly increasing in |y| on [0, 2]: runs that end closer to
the origin shed more entropy per unit cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import planner
from ._text import fmt
from .infophase import PhasePortrait, entropy
from .manifold import IntegrationError, PhasePoint, integrate

__all__ = [
    "ToyDecoder",
    "default_toy_decoder",
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


@dataclass
class ToyDecoder:
    """Read-out head mapping a scalar state to logits over n_outcomes."""

    logit_map: Callable[[float], np.ndarray]
    n_outcomes: int

    def __post_init__(self):
        if self.n_outcomes < 2:
            raise ValueError(f"need at least two outcomes, got {self.n_outcomes}")

    def distribution(self, y: float) -> np.ndarray:
        logits = np.asarray(self.logit_map(float(y)), dtype=float)
        if logits.shape != (self.n_outcomes,):
            raise ValueError(f"logit map returned shape {logits.shape}, expected ({self.n_outcomes},)")
        shifted = np.exp(logits - np.max(logits))
        return shifted / np.sum(shifted)

    def entropy_at(self, y: float) -> float:
        return entropy(self.distribution(y))


def default_toy_decoder(scale: float = 1.0) -> ToyDecoder:
    """Three-outcome read-out whose entropy strictly increases in |y| on [0, 2]."""

    def logit_map(y: float) -> np.ndarray:
        gap = scale * max(0.0, 1.0 - abs(y) / 2.0)
        return np.array([gap, 0.0, -gap])

    return ToyDecoder(logit_map=logit_map, n_outcomes=3)


def parse_decoder_spec(text: str) -> ToyDecoder:
    """CLI decoder selection: ``default`` or ``gap:<scale>``."""
    if text == "default":
        return default_toy_decoder()
    if text.startswith("gap:"):
        scale = float(text[len("gap:") :])
        if not math.isfinite(scale):
            raise ValueError(f"decoder scale must be finite, got {text!r}")
        return default_toy_decoder(scale)
    raise ValueError(f"unknown decoder spec {text!r} (expected 'default' or 'gap:<scale>')")


def quadratic_value(y: float) -> float:
    return 0.5 * float(y) * float(y)


@dataclass
class PathMetrics:
    """Entropy change and trapezoidal cost of a scalar path."""

    path: tuple[float, ...]
    u_first: float
    u_final: float
    delta_u: float
    cost: float
    efficiency: float


def path_metrics(path, decoder: ToyDecoder, value_fn: Callable[[float], float] = quadratic_value) -> PathMetrics:
    """Score a path: delta_u = u_0 - u_T, J = trapezoid of value_fn, efficiency = delta_u / J."""
    nodes = [float(y) for y in path]
    if not nodes:
        raise ValueError("path is empty")
    cost = sum(0.5 * (value_fn(a) + value_fn(b)) for a, b in zip(nodes[:-1], nodes[1:]))
    if cost == 0.0:
        raise ValueError("path cost J is zero; efficiency is undefined")
    u_first = decoder.entropy_at(nodes[0])
    u_final = decoder.entropy_at(nodes[-1])
    delta_u = u_first - u_final
    return PathMetrics(
        path=tuple(nodes),
        u_first=u_first,
        u_final=u_final,
        delta_u=delta_u,
        cost=cost,
        efficiency=delta_u / cost,
    )


LINEAR_PATH = (2.0, 1.6, 1.2, 0.8, 0.4, 0.0)
HALVING_PATH_5 = (2.0, 1.0, 0.5, 0.25, 0.125, 0.0625)
HALVING_PATH_3 = (2.0, 1.0, 0.5, 0.25)
SSSP_NODE_SET = (2.0, 1.6, 1.2, 0.8, 0.4, 0.0, 1.0, 0.5, 0.25, 0.125, 0.0625)


def _sssp_path() -> tuple[float, ...]:
    graph = planner.build_ndm_graph(
        SSSP_NODE_SET,
        ("knn", len(SSSP_NODE_SET) - 1),
        lambda a, b: 0.5 * (quadratic_value(a) + quadratic_value(b)),
    )
    found = planner.shortest_path(graph, SSSP_NODE_SET.index(2.0), SSSP_NODE_SET.index(0.0))
    assert found is not None, "complete graph cannot be disconnected"
    path, _ = found
    return tuple(graph.payloads[i] for i in path)


def toy1_run(decoder: ToyDecoder | None = None) -> dict[str, PathMetrics]:
    """Descent study: linear schedule vs value halving vs shortest path."""
    decoder = decoder or default_toy_decoder()
    return {
        "linear": path_metrics(LINEAR_PATH, decoder),
        "hjb_like": path_metrics(HALVING_PATH_5, decoder),
        "sssp": path_metrics(_sssp_path(), decoder),
    }


def contraction_path(start: float, ratio: float, ticks: int) -> tuple[float, ...]:
    out = [float(start)]
    for _ in range(int(ticks)):
        out.append(out[-1] * ratio)
    return tuple(out)


def toy2_run(decoder: ToyDecoder | None = None) -> dict[str, PathMetrics]:
    """Refinement study: three halvings vs six contraction ticks of ratio 0.6."""
    decoder = decoder or default_toy_decoder()
    return {
        "hjb_only": path_metrics(HALVING_PATH_3, decoder),
        "ctm_style": path_metrics(contraction_path(2.0, 0.6, 6), decoder),
    }


class HarmonicOscillator:
    """H(y, p) = (y^2 + p^2) / 2 with analytic partials; ``damping`` adds damping * p to dH/dy."""

    def __init__(self, damping: float = 0.0):
        self.damping = damping

    def __call__(self, y: np.ndarray, p: np.ndarray) -> float:
        return 0.5 * float(y @ y + p @ p)

    def dy(self, y: np.ndarray, p: np.ndarray) -> np.ndarray:
        return y + self.damping * p

    def dp(self, y: np.ndarray, p: np.ndarray) -> np.ndarray:
        return np.asarray(p, dtype=float)


@dataclass
class OscillatorReport:
    """Integrator outcome against the exact oscillator solution."""

    method: str
    final_y: float
    final_p: float
    eps_state: float
    eps_h_max: float
    final_radius: float
    note: str = ""


def _report(method: str, ys, ps, t_final: float, note: str = "") -> OscillatorReport:
    y_n, p_n = float(ys[-1]), float(ps[-1])
    exact_y, exact_p = math.cos(t_final), -math.sin(t_final)
    with np.errstate(over="ignore"):
        energies = 0.5 * (np.asarray(ys) ** 2 + np.asarray(ps) ** 2)
    report = OscillatorReport(
        method=method,
        final_y=y_n,
        final_p=p_n,
        eps_state=math.hypot(y_n - exact_y, p_n - exact_p),
        eps_h_max=float(np.max(np.abs(energies - 0.5))),
        final_radius=math.hypot(y_n, p_n),
        note=note,
    )
    if not all(map(math.isfinite, (y_n, p_n, report.eps_state, report.eps_h_max))):
        raise ValueError(f"{method} run: non-finite final state or energy error")
    return report


def _leapfrog_nodes(method: str, damping: float, h: float, n: int):
    """y and p at the n + 1 leapfrog nodes from (1, 0); IntegrationError naming the run on divergence."""
    try:
        traj = integrate(HarmonicOscillator(damping), PhasePoint([1.0], [0.0]), h, n)
    except IntegrationError as exc:
        raise IntegrationError(f"{method} run: {exc}") from None
    return [pt.y[0] for pt in traj.points], [pt.p[0] for pt in traj.points]


def toy3_run(t_final: float = 100.0, h: float = 0.1, damping: float = 0.05) -> list[OscillatorReport]:
    """Oscillator study: staged leapfrog vs forward Euler vs damped leapfrog.

    All runs start from (y, p) = (1, 0); the energy error is the maximum
    deviation of (y^2 + p^2)/2 from 1/2 over the recorded nodes.  A run
    that diverges raises IntegrationError (leapfrog runs) or ValueError, and
    the message names the run.
    """
    n = int(round(t_final / h))
    if n < 1 or abs(n * h - t_final) > 1e-9:
        raise ValueError(f"t_final {t_final!r} must be an integer multiple of h {h!r}")
    if not (math.isfinite(damping) and damping >= 0):
        raise ValueError(f"damping must be finite and >= 0, got {damping!r}")

    leap = _report(
        "leapfrog",
        *_leapfrog_nodes("leapfrog", 0.0, h, n),
        t_final,
        note="measured energy error ~ h^2/8; reference table lists 1.25e-2 where the "
        "derived value is 1.25e-3 (scale discrepancy flagged)",
    )

    y, p = 1.0, 0.0
    ys, ps = [y], [p]
    for _ in range(n):
        y, p = y + h * p, p - h * y
        ys.append(y)
        ps.append(p)
    euler = _report(
        "euler",
        ys,
        ps,
        t_final,
        note="reference energy error 1.05e-1 is inconsistent with the divergent final "
        "state; derived value ~ ((1+h^2)^N - 1)/2 is reported instead",
    )

    damped = _report("damped", *_leapfrog_nodes("damped", damping, h, n), t_final)

    return [leap, euler, damped]


def rotation_portraits(
    n_portraits: int,
    n_steps: int,
    dt: float,
    rng: np.random.Generator,
    center: float = 2.0,
    radius_range: tuple[float, float] = (0.3, 1.5),
) -> list[PhasePortrait]:
    """Sample portraits circling (center, 0) under u_dot = e, e_dot = -(u - center).

    Radii stay below the center so the entropy coordinate remains
    non-negative; the rotation is applied exactly, so the underlying flow
    is divergence free.
    """
    lo, hi = radius_range
    if not 0 < lo <= hi < center:
        raise ValueError("radius range must satisfy 0 < lo <= hi < center")
    if not math.isfinite(dt * n_steps):
        raise ValueError(f"dt * n_steps must be finite, got {dt!r} * {n_steps!r}")
    portraits = []
    for _ in range(int(n_portraits)):
        r = rng.uniform(lo, hi)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        t = phase - dt * np.arange(n_steps + 1)
        portraits.append(PhasePortrait(u=center + r * np.cos(t), e=r * np.sin(t)))
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


def _path_table_rows(runs: dict[str, PathMetrics], reference: dict, labels: dict, with_final: bool):
    header = ["method", "path"]
    if with_final:
        header.append("final_y")
    header += ["u_final", "delta_u", "cost_J", "efficiency"]
    header += [f"{c}_ref" for c in header[2:]]
    rows = []
    for key, metrics in runs.items():
        ref = reference[key]
        row = [labels[key], _path_text(metrics.path)]
        if with_final:
            row.append(fmt(metrics.path[-1]))
        row += [fmt(metrics.u_final), fmt(metrics.delta_u), fmt(metrics.cost), fmt(metrics.efficiency)]
        if with_final:
            row.append(fmt(ref["final_y"]))
        row += [fmt(ref["u_final"]), fmt(ref["delta_u"]), fmt(ref["cost"]), fmt(ref["efficiency"])]
        rows.append(row)
    return header, rows


def _table3_rows(reports: list[OscillatorReport]):
    header = [
        "method",
        "final_y",
        "final_p",
        "eps_state",
        "eps_h_max",
        "final_y_ref",
        "final_p_ref",
        "eps_state_ref",
        "eps_h_max_ref",
        "note",
    ]
    rows = []
    for rep in reports:
        ref = TABLE3_REFERENCE[rep.method]
        rows.append(
            [
                rep.method,
                fmt(rep.final_y),
                fmt(rep.final_p),
                fmt(rep.eps_state),
                fmt(rep.eps_h_max),
                fmt(ref["final_y"]),
                fmt(ref["final_p"]),
                fmt(ref["eps_state"]),
                fmt(ref["eps_h_max"]),
                rep.note,
            ]
        )
    return header, rows


def table_csv(which: int, decoder: ToyDecoder | None = None, **toy3_kwargs) -> str:
    """CSV emitter: computed columns next to their reference counterparts."""
    if which == 1:
        header, rows = _path_table_rows(toy1_run(decoder), TABLE1_REFERENCE, _T1_LABELS, with_final=False)
    elif which == 2:
        header, rows = _path_table_rows(toy2_run(decoder), TABLE2_REFERENCE, _T2_LABELS, with_final=True)
    elif which == 3:
        header, rows = _table3_rows(toy3_run(**toy3_kwargs))
    else:
        raise ValueError(f"no such table {which!r}; choose 1, 2, or 3")
    lines = [",".join(header)]
    lines += [",".join(str(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def table_markdown(csv_text: str) -> str:
    """Markdown rendering of a ``table_csv`` text; no cell holds a comma."""
    header, *rows = [line.split(",") for line in csv_text.splitlines()]
    lines = ["| " + " | ".join(header) + " |", "|" + "---|" * len(header)]
    lines += ["| " + " | ".join(row) + " |" for row in rows]
    return "\n".join(lines) + "\n"
