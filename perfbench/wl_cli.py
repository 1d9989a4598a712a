"""cli_mix: fresh ``python -m maniflow.cli`` processes, as users run them.

The op list cycles through ``table 1``, ``table 2``, ``table 3``,
``phase --seed S``, ``phase --input DISTS --window 5`` and
``plan GRAPH SRC DST``.  Import dominates every command; ``table 3`` drives
``manifold.integrate`` through the analytic oscillator, ``phase`` exercises
``infophase`` and ``plan`` parses a ~2000-node graph file.  Tables and seeded
portraits are compared with outputs recorded at the seed commit
(``reference.json``); the generated distribution and graph files are
checked against oracles computed here.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import benchenv
from checks import PRINT_RTOL, CheckFailed, bellman_ford, check_route, close, edge_weights, require

OPS_PER_S = 1.35
CYCLE = ("table1", "table2", "table3", "phase_seed", "phase_input", "plan")
LAYER_METRICS = (
    "cli.table1_ms",
    "cli.table2_ms",
    "cli.table3_ms",
    "cli.phase_seed_ms",
    "cli.phase_input_ms",
    "cli.plan_ms",
    "experiments.table_csv.busy_ms",
    "experiments.toy3_run.busy_ms",
    "experiments.rotation_portraits.busy_ms",
    "experiments.share",
    "infophase.portrait.busy_ms",
    "infophase.empirical_field.busy_ms",
    "infophase.fit_info_hamiltonian.busy_ms",
    "infophase.divergence_score.busy_ms",
    "infophase.binned_steps",
    "infophase.occupied_cells",
    "infophase.share",
    "planner.load_graph.busy_ms",
    "planner.shortest_path.busy_ms",
    "planner.share",
)

CHILD = benchenv.BENCH_DIR / "cli_child.py"
OP_TIMEOUT_S = 120.0

N_DISTS = 3000
N_OUTCOMES = 16
WINDOW = 5
FIELD_BINS = 12  # the CLI's grid
N_NODES = 2000
K = 8
# Entropies are ~2.8 and efforts ~1e-3; float64 arithmetic in another order
# moves them by ~1e-15, far below this absolute slack on printed values.
ATOL = 1e-12


def cli_argv(kind: str, arg, files: dict, out_dir: Path) -> list[str]:
    if kind.startswith("table"):
        return ["table", kind[-1], "--out", str(out_dir)]
    if kind == "phase_seed":
        return ["phase", "--seed", str(arg), "--out", str(out_dir)]
    if kind == "phase_input":
        return ["phase", "--input", str(files["dists"]), "--window", str(WINDOW), "--out", str(out_dir)]
    return ["plan", str(files["graph"]), str(arg[0]), str(arg[1])]


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def stdout_values(text: str) -> dict:
    """``key: value`` lines of the CLI's stdout, without the ``wrote`` line."""
    out = {}
    for line in text.splitlines():
        if line.startswith("wrote "):
            continue
        key, sep, value = line.partition(": ")
        require(sep, f"unparsable stdout line {line!r}")
        out[key] = value
    return out


# ---------------------------------------------------------------------------
# generated inputs and their oracles


def make_distributions(rng: np.random.Generator) -> np.ndarray:
    """Softmax of drifting logits under an oscillating temperature.

    Entropy cycles with a period of ~100 steps and an amplitude that wanders
    every 100 steps, so the (u, e) portrait fills a connected region of the
    CLI's 12x12 field instead of tracing a single thin loop.
    """
    z0 = rng.normal(size=N_OUTCOMES)
    drift = np.zeros((N_DISTS, N_OUTCOMES))
    for t in range(1, N_DISTS):
        drift[t] = 0.995 * drift[t - 1] + 0.02 * rng.normal(size=N_OUTCOMES)
    period = rng.uniform(80.0, 120.0)
    phase = rng.uniform(0.0, 2.0 * np.pi)
    knots = 0.1 + 0.8 * rng.uniform(size=N_DISTS // 100 + 2)
    amplitude = np.interp(np.arange(N_DISTS) / 100.0, np.arange(knots.size), knots)
    beta = 1.0 + amplitude * np.sin(2.0 * np.pi * np.arange(N_DISTS) / period + phase)
    logits = beta[:, None] * (z0 + drift)
    p = np.exp(logits - logits.max(axis=1, keepdims=True))
    return p / p.sum(axis=1, keepdims=True)


def _connected(occ: np.ndarray) -> bool:
    """Whether the occupied cells form one 4-connected region."""
    cells = {tuple(c) for c in np.argwhere(occ)}
    stack = [next(iter(cells))]
    seen = set(stack)
    while stack:
        iu, ie = stack.pop()
        for nb in ((iu + 1, ie), (iu - 1, ie), (iu, ie + 1), (iu, ie - 1)):
            if nb in cells and nb not in seen:
                seen.add(nb)
                stack.append(nb)
    return len(seen) == len(cells)


def portrait_oracle(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    logp = np.log(np.where(p > 0, p, 1.0))
    u = -(p * logp).sum(axis=1)
    raw = np.zeros_like(u)
    raw[1:] = u[:-1] - u[1:]
    half = WINDOW // 2
    csum = np.concatenate([[0.0], np.cumsum(raw)])
    idx = np.arange(u.size)
    lo = np.maximum(idx - half, 0)
    hi = np.minimum(idx + half + 1, u.size)
    return u, (csum[hi] - csum[lo]) / (hi - lo)


def field_oracle(u: np.ndarray, e: np.ndarray) -> dict:
    """Mean (du, de) per cell of a regular grid over the step start points."""
    su, se, du, de = u[:-1], e[:-1], np.diff(u), np.diff(e)
    edges = []
    for x in (su, se):
        lo, hi = float(x.min()), float(x.max())
        edges.append(np.linspace(lo, hi, FIELD_BINS + 1))
    iu = np.clip(np.searchsorted(edges[0], su, side="right") - 1, 0, FIELD_BINS - 1)
    ie = np.clip(np.searchsorted(edges[1], se, side="right") - 1, 0, FIELD_BINS - 1)
    cell = iu * FIELD_BINS + ie
    count = np.bincount(cell, minlength=FIELD_BINS**2)
    with np.errstate(invalid="ignore", divide="ignore"):
        vu = np.where(count > 0, np.bincount(cell, du, FIELD_BINS**2) / count, 0.0)
        ve = np.where(count > 0, np.bincount(cell, de, FIELD_BINS**2) / count, 0.0)
    uc = 0.5 * (edges[0][:-1] + edges[0][1:])
    ec = 0.5 * (edges[1][:-1] + edges[1][1:])
    rows = np.column_stack([np.repeat(uc, FIELD_BINS), np.tile(ec, FIELD_BINS), vu, ve, count])

    occ = (count > 0).reshape(FIELD_BINS, FIELD_BINS)
    vu2, ve2 = vu.reshape(occ.shape), ve.reshape(occ.shape)
    inner = occ[1:-1, 1:-1] & occ[:-2, 1:-1] & occ[2:, 1:-1] & occ[1:-1, :-2] & occ[1:-1, 2:]
    div = (vu2[2:, 1:-1] - vu2[:-2, 1:-1]) / (2.0 * (edges[0][1] - edges[0][0]))
    div = div + (ve2[1:-1, 2:] - ve2[1:-1, :-2]) / (2.0 * (edges[1][1] - edges[1][0]))
    score = None
    if inner.any():
        score = float(np.mean(np.abs(div[inner]))) / (float(np.mean(np.hypot(vu2[occ], ve2[occ]))) + 1e-12)
    return {"rows": rows, "divergence_score": score, "fit_available": _connected(occ)}


def knn_edges(points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each node to its K nearest others (uniform random points have no distance ties)."""
    src, dst, weight = [], [], []
    for start in range(0, len(points), 250):
        block = points[start : start + 250]
        dist = np.linalg.norm(block[:, None, :] - points[None, :, :], axis=2)
        dist[np.arange(len(block)), np.arange(start, start + len(block))] = np.inf
        near = np.argpartition(dist, K - 1, axis=1)[:, :K]
        near = np.take_along_axis(near, np.argsort(np.take_along_axis(dist, near, axis=1), axis=1), axis=1)
        src.append(np.repeat(np.arange(start, start + len(block)), K))
        dst.append(near.ravel())
        weight.append(np.take_along_axis(dist, near, axis=1).ravel())
    return np.concatenate(src), np.concatenate(dst), np.concatenate(weight)


def parse_float(text: str, what: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise CheckFailed(f"{what}: cannot parse {text!r}") from None
    require(np.isfinite(value), f"{what} is {text}")
    return value


def parse_csv(path: Path, header: str) -> np.ndarray:
    require(path.is_file(), f"{path.name} was not written")
    lines = path.read_text(encoding="utf-8").splitlines()
    require(lines and lines[0] == header, f"{path.name}: header {lines[:1]!r}, want {header!r}")
    try:
        return np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    except ValueError:
        raise CheckFailed(f"{path.name}: unparsable row") from None


def compare(got: np.ndarray, want: np.ndarray, what: str) -> None:
    require(got.shape == want.shape, f"{what}: shape {got.shape}, want {want.shape}")
    bad = np.abs(got - want) > PRINT_RTOL * np.abs(want) + ATOL
    require(not bad.any(), f"{what}: {int(bad.sum())} values differ from the oracle")


@dataclass
class Out:
    kind: str
    arg: object
    returncode: int
    stdout: str
    stderr: str
    out_dir: Path


class Workload:
    def __init__(self, seed: int, n_ops: int, workdir: Path):
        rng = np.random.default_rng(seed)
        self.workdir = workdir
        self.env = benchenv.child_env()
        self.child_maxrss_kb = 0
        self.reference = json.loads(benchenv.REFERENCE.read_text(encoding="utf-8"))
        phase_seeds = sorted(int(s) for s in self.reference["phase_seed"])

        dists = make_distributions(rng)
        self.files = {"dists": workdir / "dists.txt", "graph": workdir / "graph.txt"}
        np.savetxt(self.files["dists"], dists, fmt="%.17g", header="one distribution per line")
        u, e = portrait_oracle(dists)
        self.portrait = np.column_stack([np.arange(u.size), u, e])
        self.field = field_oracle(u, e)

        points = rng.uniform(size=(N_NODES, 2))
        src, dst, weight = knn_edges(points)
        with open(self.files["graph"], "w", encoding="utf-8", newline="\n") as fh:
            fh.write(f"# {K}-NN graph over {N_NODES} uniform points\nn {N_NODES}\n")
            fh.writelines(f"e {a} {b} {w!r}\n" for a, b, w in zip(src.tolist(), dst.tolist(), weight.tolist()))
        self.weights = edge_weights(src, dst, weight)
        # every plan op leaves one source, so one Bellman-Ford run is the oracle
        origin = int(rng.integers(N_NODES))
        self.distance = bellman_ford(N_NODES, src, dst, weight, origin)

        self.args = []
        for i in range(n_ops):
            kind = CYCLE[i % len(CYCLE)]
            if kind == "phase_seed":
                self.args.append(int(rng.choice(phase_seeds)))
            elif kind == "plan":
                self.args.append((origin, int(rng.integers(N_NODES))))
            else:
                self.args.append(None)

    def fingerprint(self) -> bytes:
        return self.files["dists"].read_bytes() + self.files["graph"].read_bytes() + repr(self.args).encode()

    def kind(self, i: int) -> str:
        return CYCLE[i % len(CYCLE)]

    def run_op(self, i: int, api) -> Out:
        kind, arg = self.kind(i), self.args[i]
        out_dir = self.workdir / f"op{i}"
        argv = cli_argv(kind, arg, self.files, out_dir)
        spans = self.workdir / f"spans{i}.jsonl"
        if api.tracer is None:
            cmd = [sys.executable, "-m", "maniflow.cli", *argv]
        else:
            cmd = [sys.executable, str(CHILD), str(spans), *argv]
        stdout, stderr = self.workdir / f"stdout{i}", self.workdir / f"stderr{i}"
        with open(stdout, "wb") as fo, open(stderr, "wb") as fe:
            proc = subprocess.Popen(cmd, stdout=fo, stderr=fe, env=self.env, cwd=benchenv.ROOT)
            timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.child_maxrss_kb = max(self.child_maxrss_kb, usage.ru_maxrss)
        if api.tracer is not None and spans.exists():
            with open(spans, encoding="utf-8") as fh:
                api.tracer.adopt([json.loads(line) for line in fh])
            spans.unlink()
        out = Out(
            kind,
            arg,
            proc.returncode,
            stdout.read_text(encoding="utf-8", errors="replace"),
            stderr.read_text(encoding="utf-8", errors="replace"),
            out_dir,
        )
        stdout.unlink()
        stderr.unlink()
        return out

    def check(self, i: int, out: Out) -> dict:
        try:
            require(out.returncode == 0, f"{out.kind} exited {out.returncode}: {out.stderr.strip()[-300:]}")
            checker = self._check_table if out.kind.startswith("table") else getattr(self, f"_check_{out.kind}")
            checker(out)
        finally:
            shutil.rmtree(out.out_dir, ignore_errors=True)
        return {}

    def _check_table(self, out: Out) -> None:
        stdout_values(out.stdout)
        for suffix in ("csv", "md"):
            path = out.out_dir / f"{out.kind}.{suffix}"
            require(path.is_file(), f"{path.name} was not written")
            require(sha256(path) == self.reference[out.kind][path.name], f"{path.name} differs from the seed commit's")

    def _check_phase_seed(self, out: Out) -> None:
        want = self.reference["phase_seed"][str(out.arg)]
        values = stdout_values(out.stdout)
        for key in ("divergence_score", "field_fit_residual"):
            require(values.get(key) == want[key], f"{key} {values.get(key)!r}, want {want[key]!r}")
        for name in ("portrait.csv", "field.csv"):
            path = out.out_dir / name
            require(path.is_file() and sha256(path) == want[name], f"seeded {name} differs from the seed commit's")

    def _check_phase_input(self, out: Out) -> None:
        values = stdout_values(out.stdout)
        score, fit = values.get("divergence_score", ""), values.get("field_fit_residual", "")
        want = self.field["divergence_score"]
        if want is None:
            require(score.startswith("unavailable"), f"divergence score {score!r} on a field without interior cells")
        else:
            close(parse_float(score, "divergence score"), want, PRINT_RTOL, "divergence score")
        if self.field["fit_available"]:
            residual = parse_float(fit, "field fit residual")
            require(residual >= 0.0, f"field fit residual {residual!r} is negative")
        else:
            require(fit.startswith("unavailable"), f"fit residual {fit!r} on a disconnected field")
        compare(parse_csv(out.out_dir / "portrait.csv", "t,u,e"), self.portrait, "portrait.csv")
        compare(parse_csv(out.out_dir / "field.csv", "u_center,e_center,vu,ve,count"), self.field["rows"], "field.csv")

    def _check_plan(self, out: Out) -> None:
        source, target = out.arg
        want = float(self.distance[target])
        if out.stdout.strip() == "unreachable":
            require(np.isinf(want), f"plan says unreachable; the oracle finds cost {want!r}")
            return
        values = stdout_values(out.stdout)
        try:
            path = [int(v) for v in values["path"].split(" -> ")]
        except (KeyError, ValueError):
            raise CheckFailed(f"plan printed {values!r}") from None
        cost = parse_float(values.get("cost", ""), "plan cost")
        check_route(path, cost, self.weights, source, target, PRINT_RTOL)
        close(cost, want, PRINT_RTOL, f"plan {source}->{target} against Bellman-Ford")

    def layer_metrics(self, observations: list[dict], n_ops: int) -> dict:
        return {}
