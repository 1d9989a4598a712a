"""Self-checks of the benchmark itself.

Usage: python perfbench/selfcheck.py

1. Every metric the benchmark defines is printed, with its unit, in both
   modes of every workload, and the per-layer metrics of the layers a
   workload calls are non-zero on it.
2. Each output check fails its op when fed a corrupted output, and a
   corrupted expected value makes ``failed_ratio`` > 0 through the runner.
3. Another seed gives other inputs but the same metric set.
4. No benchmark file matches pytest's default test patterns, so tier-1
   collection does not pick the workloads up.
5. Run from a directory holding only BENCHMARK.json and the benchmark, it
   exits non-zero without printing a result.

Runs short op lists (a few ops per workload), so it takes a few minutes.
Exit status 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import benchenv  # first: pins BLAS threads before numpy is imported

import argparse
import contextlib
import copy
import fnmatch
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import run
import wl_cli
import wl_geodesic
import wl_relax
from checks import CheckFailed
from maniflow import manifold
from tracing import Api

SMALL_OPS = {"cli_mix": 6, "geodesic": 3, "relax_plan": 2}
MODULES = {"cli_mix": wl_cli, "geodesic": wl_geodesic, "relax_plan": wl_relax}

# The metrics the issue that defined this benchmark names, with their units.
# failed_ratio is reported as its complement ok_ratio, because a metric that
# reads 0 on a healthy run cannot be compared as a share of its median.
END_TO_END = {
    "setup_s": "s",
    "throughput_ops_s": "ops/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "ok_ratio": "1",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {"busy_ms": "ms", "calls": "count/op", "share": "1"}
PER_LAYER_NAMED = {
    "cli.import_ms": "ms",
    "cli.table1_ms": "ms",
    "cli.table2_ms": "ms",
    "cli.table3_ms": "ms",
    "cli.phase_seed_ms": "ms",
    "cli.phase_input_ms": "ms",
    "cli.plan_ms": "ms",
    "infophase.binned_steps": "count/op",
    "infophase.occupied_cells": "count/op",
    "manifold.leapfrog_steps": "count/op",
    "manifold.metric_solves": "count/op",
    "manifold.shooting_endpoint_err_max": "1",
    "manifold.jacobi_gap_max": "1",
    "manifold.energy_drift_max": "1",
    "planner.edge_cost_calls": "count/op",
    "planner.edges": "count/op",
    "planner.route_found_ratio": "1",
    "spins.norm_err_max": "1",
    "workspace.chain_found_ratio": "1",
    "trace.coverage": "1",
    "trace.overhead_ratio": "1",
}
PER_LAYER_TIMED = [
    "experiments.table_csv.busy_ms",
    "experiments.toy3_run.busy_ms",
    "experiments.rotation_portraits.busy_ms",
    "experiments.share",
    "infophase.portrait.busy_ms",
    "infophase.empirical_field.busy_ms",
    "infophase.fit_info_hamiltonian.busy_ms",
    "infophase.divergence_score.busy_ms",
    "infophase.share",
    "manifold.solve_shooting.busy_ms",
    "manifold.solve_shooting.calls",
    "manifold.integrate.busy_ms",
    "manifold.jacobi_propagate.busy_ms",
    "manifold.empirical_deviations.busy_ms",
    "manifold.share",
    "control.ndm_layer.busy_ms",
    "control.optimal_control.busy_ms",
    "control.trajectory_cost.busy_ms",
    "control.share",
    "planner.build_ndm_graph.busy_ms",
    "planner.shortest_path.busy_ms",
    "planner.shortest_path.calls",
    "planner.load_graph.busy_ms",
    "planner.share",
    "spins.attention_couplings.busy_ms",
    "spins.micro_step.busy_ms",
    "spins.micro_step.calls",
    "spins.two_body_energy.busy_ms",
    "spins.share",
    "workspace.build.busy_ms",
    "workspace.explanation_chain.busy_ms",
    "workspace.share",
]
PER_LAYER = dict(PER_LAYER_NAMED)
PER_LAYER.update({name: PER_LAYER_UNITS[name.rsplit(".", 1)[1]] for name in PER_LAYER_TIMED})

FAILURES: list[str] = []


def verdict(ok: bool, what: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {what}", flush=True)
    if not ok:
        FAILURES.append(what)


def small_run(workload: str, seed: int, trace: int) -> dict:
    """One run of a short op list; returns the final JSON line."""
    args = argparse.Namespace(workload=workload, seed=seed, seconds=1, trace=trace)
    e2e_units, layer_units = run.declared_units()
    module = MODULES[workload]
    workdir = benchenv.WORK / f"selfcheck-{workload}-{seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            run.measure(args, module, SMALL_OPS[workload], workdir, e2e_units, layer_units)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return json.loads(buf.getvalue().strip().splitlines()[-1])


def check_metric_sets() -> None:
    for workload, module in MODULES.items():
        sets = {}
        for seed in (1, 2):
            for trace, want in ((0, END_TO_END), (1, PER_LAYER)):
                result = small_run(workload, seed, trace)
                got = {name: m["unit"] for name, m in result["metrics"].items()}
                sets[(seed, trace)] = got
                if seed == 1:
                    verdict(got == want, f"{workload} trace {trace}: every named metric printed with its unit")
                    finite = all(np.isfinite(m["value"]) for m in result["metrics"].values())
                    clean = finite and result["correct"] and result["failed"] == 0
                    verdict(clean, f"{workload} trace {trace}: finite values, no failed op")
                if seed == 1 and trace == 1:
                    zero = [n for n in module.LAYER_METRICS if not result["metrics"][n]["value"] > 0]
                    verdict(not zero, f"{workload}: metrics of the layers it calls are non-zero {zero or ''}")
                    cover = result["metrics"]["trace.coverage"]["value"]
                    if workload != "cli_mix":
                        verdict(cover >= 0.9, f"{workload}: trace.coverage {cover:.3f} >= 0.9")
        same = sets[(1, 0)] == sets[(2, 0)] and sets[(1, 1)] == sets[(2, 1)]
        verdict(same, f"{workload}: seed 2 gives the metric set of seed 1")
        fp = []
        for seed in (1, 2):
            workdir = benchenv.WORK / f"selfcheck-inputs-{seed}"
            workdir.mkdir(parents=True, exist_ok=True)
            fp.append(module.Workload(seed, SMALL_OPS[workload], workdir).fingerprint())
            shutil.rmtree(workdir, ignore_errors=True)
        verdict(fp[0] != fp[1], f"{workload}: seed 2 generates other inputs than seed 1")


def expect_failure(wl, i: int, out, what: str) -> None:
    try:
        wl.check(i, out)
    except CheckFailed:
        verdict(True, f"corrupted {what} fails its op")
        return
    verdict(False, f"corrupted {what} fails its op")


def expect_counted(wl, corrupt, workload: str) -> None:
    """A corrupted output passed through the runner shows in failed_ratio."""
    honest = wl.run_op

    def corrupted(i, api):
        out = honest(i, api)
        corrupt(out)
        return out

    wl.run_op = corrupted
    res = run.run_pass(wl, 1, Api())
    ratio = len(res.failures) / res.attempted
    verdict(ratio > 0, f"{workload}: a corrupted output through the runner gives failed_ratio {ratio:.3f} > 0")


def fresh(wl, i: int):
    """A new cli_mix op output and the directory of its files."""
    out = wl.run_op(i, Api())
    return out, out.out_dir


def scale_line(stdout: str, prefix: str, factor: float) -> str:
    line = next(line for line in stdout.splitlines() if line.startswith(prefix))
    return stdout.replace(line, f"{prefix}{float(line[len(prefix):]) * factor:.10g}")


def rewrite(path: Path, old: str, new: str) -> None:
    text = path.read_text(encoding="utf-8")
    path.write_text(text.replace(old, new, 1), encoding="utf-8")


def check_cli_corruptions(workdir: Path) -> None:
    wl = wl_cli.Workload(3, 6, workdir)
    kinds = {k: i for i, k in enumerate(wl_cli.CYCLE)}

    out, _ = fresh(wl, kinds["table1"])
    out.returncode = 2
    expect_failure(wl, kinds["table1"], out, "cli exit status")
    out, d = fresh(wl, kinds["table3"])
    rewrite(d / "table3.csv", "leapfrog", "leapfrug")
    expect_failure(wl, kinds["table3"], out, "table 3 csv")
    out, _ = fresh(wl, kinds["phase_seed"])
    out.stdout = scale_line(out.stdout, "divergence_score: ", 1 + 1e-6)
    expect_failure(wl, kinds["phase_seed"], out, "seeded divergence score")
    out, d = fresh(wl, kinds["phase_seed"])
    rewrite(d / "portrait.csv", "\n1,", "\n1,9")
    expect_failure(wl, kinds["phase_seed"], out, "seeded portrait.csv")
    out, d = fresh(wl, kinds["phase_input"])
    lines = (d / "portrait.csv").read_text().splitlines()
    t, u, e = lines[7].split(",")
    lines[7] = f"{t},{float(u) * (1 + 1e-8):.10g},{e}"
    (d / "portrait.csv").write_text("\n".join(lines) + "\n")
    expect_failure(wl, kinds["phase_input"], out, "generated-input portrait value")
    out, d = fresh(wl, kinds["phase_input"])
    lines = (d / "field.csv").read_text().splitlines()
    fields = lines[-1].split(",")
    fields[-1] = str(int(fields[-1]) + 1)
    lines[-1] = ",".join(fields)
    (d / "field.csv").write_text("\n".join(lines) + "\n")
    expect_failure(wl, kinds["phase_input"], out, "generated-input field count")
    out, _ = fresh(wl, kinds["phase_input"])
    out.stdout = out.stdout.replace("field_fit_residual: ", "field_fit_residual: -")
    expect_failure(wl, kinds["phase_input"], out, "field fit residual sign")
    out, _ = fresh(wl, kinds["plan"])
    out.stdout = scale_line(out.stdout, "cost: ", 1 + 1e-8)
    expect_failure(wl, kinds["plan"], out, "plan cost")
    out, _ = fresh(wl, kinds["plan"])
    path_line = next(line for line in out.stdout.splitlines() if line.startswith("path: "))
    nodes = path_line[len("path: ") :].split(" -> ")
    out.stdout = out.stdout.replace(path_line, "path: " + " -> ".join(nodes[::-1]))
    expect_failure(wl, kinds["plan"], out, "plan path")

    wl.reference["table2"]["table2.md"] = "0" * 64
    res = run.run_pass(wl, 6, Api())
    ratio = len(res.failures) / res.attempted
    verdict(ratio > 0, f"cli_mix: a corrupted expected table 2 gives failed_ratio {ratio:.3f} > 0")


def check_geodesic_corruptions() -> None:
    wl = wl_geodesic.Workload(3, 1, None)
    base = wl.run_op(0, Api())
    wl.check(0, base)

    out = copy.deepcopy(base)
    last = out.traj.points[-1]
    out.traj.points[-1] = manifold.PhasePoint(last.y + 1e-6, last.p)
    expect_failure(wl, 0, out, "shooting endpoint")
    out = copy.deepcopy(base)
    out.jac = -out.jac
    expect_failure(wl, 0, out, "propagated deviation sign")
    out = copy.deepcopy(base)
    out.jac = 2.0 * out.jac
    expect_failure(wl, 0, out, "propagated deviation scale")
    out = copy.deepcopy(base)
    out.cost = float("nan")
    expect_failure(wl, 0, out, "trajectory cost")
    out = copy.deepcopy(base)
    y, u, dt = out.records[3]
    out.records[3] = (y, u * np.inf, dt)
    expect_failure(wl, 0, out, "rollout control")

    expect_counted(wl, lambda out: setattr(out, "jac", -out.jac), "geodesic")


def check_relax_corruptions() -> None:
    wl = wl_relax.Workload(3, 1, None)
    base = wl.run_op(0, Api())
    wl.check(0, base)

    out = copy.deepcopy(base)
    out.system.spins[5] *= 1.0 + 1e-6
    expect_failure(wl, 0, out, "spin norm")
    out = copy.deepcopy(base)
    q = next(k for k, r in enumerate(out.routes) if r is not None)
    path, cost = out.routes[q]
    out.routes[q] = (path, cost * (1.0 + 1e-9))
    expect_failure(wl, 0, out, "route cost")
    out = copy.deepcopy(base)
    q = next(k for k, r in enumerate(out.routes) if r is not None and len(r[0]) > 1)
    path, cost = out.routes[q]
    out.routes[q] = (path[::-1], cost)
    expect_failure(wl, 0, out, "route path")
    out = copy.deepcopy(base)
    q = next(k for k, r in enumerate(out.routes[: wl_relax.ORACLE_QUERIES]) if r is not None)
    out.routes[q] = None
    expect_failure(wl, 0, out, "route against Bellman-Ford")
    out = copy.deepcopy(base)
    nodes, cost = out.chain
    out.chain = (nodes[::-1], cost)
    expect_failure(wl, 0, out, "explanation chain")
    out = copy.deepcopy(base)
    out.graph.adjacency[0] = out.graph.adjacency[0][1:]
    expect_failure(wl, 0, out, "k-NN graph")

    expect_counted(wl, lambda out: out.system.spins.__imul__(1.0 + 1e-6), "relax_plan")


def check_tier1_collection() -> None:
    patterns = ("test_*.py", "*_test.py", "conftest.py")
    hits = [p.name for p in benchenv.BENCH_DIR.rglob("*.py") if any(fnmatch.fnmatch(p.name, pat) for pat in patterns)]
    verdict(not hits, f"no benchmark file matches pytest's test patterns {hits or ''}")


def check_bare_directory() -> None:
    bare = benchenv.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(benchenv.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(benchenv.BENCH_DIR, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    try:
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "geodesic", "--seed", "1", "--seconds", "1"],
            cwd=bare,
            capture_output=True,
            text=True,
            timeout=180,
            env={k: v for k, v in benchenv.child_env().items() if k != "PYTHONPATH"},
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    refused = done.returncode != 0 and '"correct"' not in done.stdout
    verdict(refused, f"bare directory: exit {done.returncode}, no result printed")


def main() -> int:
    benchenv.import_maniflow()
    workdir = benchenv.WORK / "selfcheck"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        check_tier1_collection()
        check_bare_directory()
        check_cli_corruptions(workdir)
        check_geodesic_corruptions()
        check_relax_corruptions()
        check_metric_sets()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{len(FAILURES)} self-check(s) failed" if FAILURES else "all self-checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
