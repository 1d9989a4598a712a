"""Alternating parent/change benchmark pairs, summarised into one BENCH_*.json.

Usage (from the root of a checkout)::

    python3 tools/pairs.py PARENT_REF --out BENCH_N.json [--seed0 1]
        [--workloads cli_mix,geodesic,relax_plan] [--claim WORKLOAD:METRIC]

It builds two trees with ``git archive`` in a temporary directory (under
TMPDIR, if set): PARENT_REF, and PARENT_REF with this checkout's ``src/``
in place of its own.  Each of the 10 pairs k = 0..9 runs each tree's own,
unchanged ``perfbench/run.py --workload W --seed SEED0+k --seconds S
--trace 0``, S being BENCHMARK.json's ``run_seconds``, the parent first
for even k and the change first for odd k, one run at a time, with
PYTHONDONTWRITEBYTECODE=1.  Then it fingerprints both trees
(``tools/fingerprint.py``), prints whether each fingerprint is equal on
both, naming any that differs, and writes every run, the fingerprints with
those flags (``fingerprint_equal``), a summary per workload and end-to-end
metric, and the verdict on the claimed metric.  With
``--claim W:M`` it then runs W in 3 more pairs with ``--trace 1``, at
seeds SEED0 to SEED0+2 and in the same alternating order, and writes the
median of each per-layer metric over each tree's traced runs side by
side under ``trace`` (``trace_summary``), so the file shows which layers
a saving sits in; one traced run per tree does not resolve a per-layer
move under about 20%.

The rule (``verdict``): a claim is met when the change is better in at
least 9/10 of the pairs, ties counting for neither side, its median is
better than the parent's by more than the parent's interquartile range
(inclusive quartiles), and no more of its operations fail than the
parent's over all their runs of that workload.  A metric is "worse than
bound" when the change's median is worse than the parent's by more than
the metric's relative bound from BENCHMARK.json, "unresolved" when either
side's (max - min) / median exceeds that bound and not every change run
beats every parent run, and "within bound" otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("cli_mix", "geodesic", "relax_plan")
PAIRS = 10
TRACED_PAIRS = 3


def verdict(parent: list[float], change: list[float], better: str, bound: float, failed=(0, 0)) -> dict:
    """Summary of one metric over pairs (parent[k], change[k]); ``better`` is "higher" or "lower".

    ``failed`` holds the operations that failed over all the parent's and
    all the change's runs; a claim fails when the change's count is higher.
    """
    sign = 1.0 if better == "higher" else -1.0
    gains = [sign * (c - p) for p, c in zip(parent, change, strict=True)]
    won, ties = sum(g > 0 for g in gains), sum(g == 0 for g in gains)
    p_mid, c_mid = statistics.median(parent), statistics.median(change)
    p_iqr, c_iqr = (statistics.quantiles(side, n=4, method="inclusive")[::2] for side in (parent, change))
    gain = sign * (c_mid - p_mid)
    spread = max((max(side) - min(side)) / abs(statistics.median(side) or 1.0) for side in (parent, change))
    every_run_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if -gain > bound * abs(p_mid):
        state = "worse than bound"
    elif spread > bound and not every_run_better:
        state = "unresolved"
    else:
        state = "within bound"
    return {
        "pairs": len(gains),
        "parent_median": p_mid,
        "change_median": c_mid,
        "parent_iqr": p_iqr,
        "change_iqr": c_iqr,
        "change_better_pairs": won,
        "ties": ties,
        "median_gain": gain,
        "relative_change": (c_mid - p_mid) / p_mid if p_mid else 0.0,
        "bound": bound,
        "max_spread": spread,
        "verdict": state,
        "gain_exceeds_parent_iqr": gain > p_iqr[1] - p_iqr[0],
        "claim_met": won >= 0.9 * len(gains) and gain > p_iqr[1] - p_iqr[0] and failed[1] <= failed[0],
    }


def trace_summary(parent: list[dict[str, float]], change: list[dict[str, float]]) -> dict:
    """Each per-layer metric over each tree's traced runs: the runs, both medians and the change between them."""
    out = {}
    for name in parent[0]:
        runs = {"parent": [run[name] for run in parent], "change": [run[name] for run in change]}
        p_mid, c_mid = statistics.median(runs["parent"]), statistics.median(runs["change"])
        out[name] = {
            "parent": p_mid,
            "change": c_mid,
            "relative_change": (c_mid - p_mid) / p_mid if p_mid else None,
            "runs": runs,
        }
    return out


def fingerprint_equal(prints: dict[str, dict[str, str]]) -> dict[str, bool]:
    """Whether each fingerprint is the same on both trees, and ``all``, whether every one is; a missing one differs."""
    flags = {name: sides["parent"] is not None and sides["parent"] == sides["change"] for name, sides in prints.items()}
    return {**flags, "all": all(flags.values())}


def git_output(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


def git_archive(ref: str, dest: Path) -> None:
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", ref], cwd=ROOT, check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def build_trees(ref: str, work: Path) -> dict[str, Path]:
    trees = {"parent": work / "parent", "change": work / "change"}
    for tree in trees.values():
        git_archive(ref, tree)
    shutil.rmtree(trees["change"] / "src")
    shutil.copytree(ROOT / "src", trees["change"] / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return trees


def run_once(tree: Path, workload: str, seed: int, seconds: int, trace: int = 0) -> dict:
    """One ``perfbench/run.py`` run: its end-to-end metrics, or its per-layer ones with ``trace`` 1."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    run = subprocess.run(cmd + ["--trace", str(trace)], cwd=tree, env=env, capture_output=True, text=True, check=True)
    result = json.loads(run.stdout.strip().splitlines()[-1])
    results = tree / ".perfbench_work" / "results"
    details = json.loads((results / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return {
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "attempted": result["attempted"],
        "failed": result["failed"],
        "environment": details["environment"],
    }


def fingerprint(tree: Path) -> dict[str, str]:
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "fingerprint.py"), "--tree", str(tree)],
        capture_output=True, text=True, check=True, env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
    )
    return dict(line.split() for line in run.stdout.splitlines())


def summarise(runs: list[dict], metrics: list[dict]) -> dict:
    sides = {side: [r for r in runs if r["side"] == side] for side in ("parent", "change")}
    out = {
        "pairs": len(sides["parent"]),
        "seeds": sorted({r["seed"] for r in runs}),
        "failed_total": {side: sum(r["failed"] for r in rs) for side, rs in sides.items()},
    }
    failed = (out["failed_total"]["parent"], out["failed_total"]["change"])
    for m in metrics:
        values = {side: [r["metrics"][m["name"]] for r in rs] for side, rs in sides.items()}
        out[m["name"]] = verdict(values["parent"], values["change"], m["better"], m["bound"], failed)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n", 1)[0])
    parser.add_argument("parent_ref")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--claim", help="WORKLOAD:METRIC whose verdict the file states")
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    if set(workloads) - set(WORKLOADS):
        parser.error(f"workloads must be among {','.join(WORKLOADS)}")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics, seconds = benchmark["end_to_end"], benchmark["run_seconds"]
    if args.claim:
        workload, _, metric = args.claim.partition(":")
        if workload not in workloads or metric not in {m["name"] for m in metrics}:
            parser.error(f"--claim {args.claim!r} names no workload run and end-to-end metric")
    with tempfile.TemporaryDirectory() as tmp:
        trees = build_trees(args.parent_ref, Path(tmp))
        runs = {w: [] for w in workloads}
        for k in range(PAIRS):
            seed = args.seed0 + k
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            for w in workloads:  # not the claim's workload, which the report reads below
                for side in order:
                    run = run_once(trees[side], w, seed, seconds)
                    runs[w].append({"seed": seed, "side": side, **run})
                    print(f"{w} seed {seed} {side}: {run['metrics']}", flush=True)
        traced = {"parent": [], "change": []}
        if args.claim:
            for k in range(TRACED_PAIRS):
                for side in ("parent", "change") if k % 2 == 0 else ("change", "parent"):
                    traced[side].append(run_once(trees[side], workload, args.seed0 + k, seconds, trace=1))
        prints = {side: fingerprint(tree) for side, tree in trees.items()}
    names = list(dict.fromkeys([*prints["parent"], *prints["change"]]))
    fingerprints = {name: {side: prints[side].get(name) for side in prints} for name in names}
    equal = fingerprint_equal(fingerprints)
    differ = [name for name in names if not equal[name]]
    print(f"fingerprints differ: {', '.join(differ)}" if differ else f"fingerprints equal: {', '.join(names)}")
    environment = runs[workloads[0]][0]["environment"]
    report = {
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds} --trace 0"
        " with PYTHONDONTWRITEBYTECODE=1",
        "parent_commit": git_output("rev-parse", args.parent_ref),
        "pairing": f"{PAIRS} pairs per workload, seeds {args.seed0}-{args.seed0 + PAIRS - 1}; the parent ran "
        "first in pairs 0, 2, ... and the change first in pairs 1, 3, ...; each side from its own git archive tree",
        "verdict_rule": " ".join(__doc__.split("The rule (``verdict``): ", 1)[1].split()),
        "environment": {k: v for k, v in environment.items() if k not in ("git_commit", "src_sha256")},
        "src_sha256": {r["side"]: r["environment"]["src_sha256"] for r in runs[workloads[0]][:2]},
        "fingerprint": fingerprints,
        "fingerprint_equal": equal,
        "summary": {w: summarise(rs, metrics) for w, rs in runs.items()},
        "runs": {w: [{k: v for k, v in r.items() if k != "environment"} for r in rs] for w, rs in runs.items()},
    }
    if args.claim:
        report["claim"] = args.claim
        report["claim_verdict"] = report["summary"][workload][metric]
        layers = {side: [run["metrics"] for run in side_runs] for side, side_runs in traced.items()}
        report["trace"] = {
            "command": f"python3 perfbench/run.py --workload {workload} --seed S --seconds {seconds} --trace 1"
            f" in {TRACED_PAIRS} pairs after the others, seeds {args.seed0}-{args.seed0 + TRACED_PAIRS - 1},"
            " the parent first in even pairs; each per-layer value is the median of a tree's runs",
            "failed": {side: sum(run["failed"] for run in side_runs) for side, side_runs in traced.items()},
            "per_layer": trace_summary(layers["parent"], layers["change"]),
        }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
