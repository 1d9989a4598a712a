"""Layered benchmark of maniflow: three workloads, end-to-end and per-layer metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload cli_mix|geodesic|relax_plan \
        --seed N --seconds S --trace 0|1

Each workload is a seed-generated list of ops run in a closed loop by one
client in this process (cli_mix: one fresh CLI process per op).  The list
has a fixed length, ``OPS_PER_S * S`` rounded up to at least ``MIN_OPS``
and to whole cycles of the op mix, so a run does the same work whatever
its speed; on the reference host (2 CPUs, 1 BLAS thread) it lasts about S
seconds.

Every time is reported in reference-host seconds (see ``hostspeed.py``):
each measured interval is scaled by a probe kernel timed next to it, which
takes out most of the speed swings of a shared host.  Raw times are kept in
the results file.

``--trace 0`` prints the end-to-end metrics: set-up time (median of
``SETUP_PROBES`` fresh harness processes, each importing maniflow and
generating the inputs, spread over the run), throughput, median and tail
op latency, the share of ops that passed their output checks, and peak
RSS.  ``--trace 1`` runs
the op list untraced, then again with a span around every call into a
public function of the package, and prints the per-layer metrics.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Details (environment, per-kind
latencies, failures, per-layer self times) go to
``.perfbench_work/results/``; spans of traced runs are written there as
JSON lines.  Exit status is 0 whenever a result was printed, and 2 when
the checkout does not hold the package or the benchmark's description.
"""

from __future__ import annotations

import benchenv  # first: pins BLAS threads before numpy is imported

import argparse
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import hostspeed
from tracing import Api, Tracer, aggregate

WORKLOADS = {"cli_mix": "wl_cli", "geodesic": "wl_geodesic", "relax_plan": "wl_relax"}
SETUP_PROBES = 5
IMPORT_PROBES = 5
MIN_OPS = 30
TAIL_SAMPLES = 10
PROBE_TIMEOUT_S = 120.0


@dataclass
class Pass:
    """Outcome of running the op list once."""

    raw_latencies: list[float] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)  # in reference-host seconds
    kinds: list[str] = field(default_factory=list)
    failures: list[tuple[int, str]] = field(default_factory=list)
    observations: list[dict] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def wall_s(self) -> float:
        return sum(self.latencies)

    @property
    def raw_wall_s(self) -> float:
        return sum(self.raw_latencies)

    def p50_by_kind_ms(self) -> dict:
        groups = defaultdict(list)
        for kind, lat in zip(self.kinds, self.latencies):
            groups[kind].append(lat)
        return {kind: 1e3 * statistics.median(v) for kind, v in sorted(groups.items())}


def op_count(module, seconds: int) -> int:
    n = max(MIN_OPS, math.ceil(module.OPS_PER_S * seconds))
    cycle = len(module.CYCLE)
    return cycle * math.ceil(n / cycle)


def tail_percentile(n: int) -> float:
    """Highest percentile with at least TAIL_SAMPLES samples beyond it (never below the median)."""
    return max(50.0, 100.0 * (1.0 - TAIL_SAMPLES / n))


def run_pass(wl, n_ops: int, api: Api, between=None) -> Pass:
    """Run every op; an op fails when it raises or its output check fails.

    ``between(i)``, when given, runs untimed before op i.
    """
    res = Pass()
    for i in range(n_ops):
        if between is not None:
            between(i)
        if api.tracer is not None:
            api.tracer.op = i
        error = None
        before = hostspeed.probe_s()
        start = time.perf_counter()
        try:
            out = wl.run_op(i, api)
        except Exception as exc:  # op boundary: record and go on
            error = f"{type(exc).__name__}: {exc}"
        raw = time.perf_counter() - start
        res.raw_latencies.append(raw)
        res.latencies.append(raw * hostspeed.scale(before, hostspeed.probe_s()))
        res.kinds.append(wl.kind(i))
        if error is None:
            try:
                res.observations.append(wl.check(i, out))
            except Exception as exc:  # a check that crashes fails the op too
                error = f"{type(exc).__name__}: {exc}"
        if error is not None:
            res.failures.append((i, error))
    return res


def _spawn_time_s(cmd: list[str], until_line: bool) -> float:
    """Reference-host seconds from spawning ``cmd`` to its exit, or to its first stdout line."""
    before = hostspeed.probe_s()
    start = time.perf_counter()
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=benchenv.child_env(), cwd=benchenv.ROOT
    )
    try:
        line = proc.stdout.readline() if until_line else b""
        elapsed = time.perf_counter() - start
        rest, err = proc.communicate(timeout=PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or (until_line and line.strip() != b"ready"):
        raise RuntimeError(f"{cmd[1:]} failed ({proc.returncode}): {err.decode(errors='replace').strip()[-500:]}")
    if not until_line:
        elapsed = time.perf_counter() - start
    return elapsed * hostspeed.scale(before, hostspeed.probe_s())


def setup_prober(args, n_ops: int, samples: list[float]):
    """A ``between`` hook that times a fresh set-up before SETUP_PROBES evenly spaced ops.

    Spreading the probes over the run makes their median describe the host
    over the whole run, not over its first seconds.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload, "--seed", str(args.seed)]
    cmd += ["--seconds", str(args.seconds), "--setup-probe"]
    due = {k * n_ops // SETUP_PROBES for k in range(SETUP_PROBES)}

    def between(i: int) -> None:
        if i in due:
            samples.append(_spawn_time_s(cmd, until_line=True))

    return between


def import_samples() -> list[float]:
    cmd = [sys.executable, "-c", "import maniflow.cli"]
    return [_spawn_time_s(cmd, until_line=False) for _ in range(IMPORT_PROBES)]


def metric(value, name: str, units: dict) -> dict:
    return {"value": float(value), "unit": units[name]}


def end_to_end(res: Pass, setups: list[float], wl, units: dict) -> tuple[dict, dict]:
    q = tail_percentile(res.attempted)
    ok = res.attempted - len(res.failures)
    child_rss = getattr(wl, "child_maxrss_kb", 0)
    rss_kb = child_rss or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "setup_s": statistics.median(setups),
        "throughput_ops_s": ok / res.wall_s,
        "op_p50_ms": 1e3 * float(np.percentile(res.latencies, 50)),
        "op_tail_ms": 1e3 * float(np.percentile(res.latencies, q)),
        "ok_ratio": ok / res.attempted,
        "peak_rss_mb": rss_kb / 1024.0,
    }
    detail = {
        "tail_percentile": q,
        "samples": res.attempted,
        "failed_ratio": len(res.failures) / res.attempted,
        "rss_source": "max over child processes" if child_rss else "harness process",
        "setup_samples_s": setups,
        "raw_op_p50_ms": 1e3 * float(np.percentile(res.raw_latencies, 50)),
        "raw_op_tail_ms": 1e3 * float(np.percentile(res.raw_latencies, q)),
        "raw_throughput_ops_s": ok / res.raw_wall_s,
    }
    return {name: metric(v, name, units) for name, v in values.items()}, detail


def per_layer(plain: Pass, traced: Pass, agg: dict, wl, imports: list[float], units: dict) -> dict:
    """Every declared per-layer metric; layers this workload never calls read 0."""
    n = traced.attempted
    # spans are raw times; convert with the traced pass's overall host-speed factor
    speed = traced.wall_s / traced.raw_wall_s
    values = {}
    for name in units:
        head, _, tail = name.rpartition(".")
        if tail == "busy_ms":
            values[name] = 1e3 * speed * agg["names"].get(head, {}).get("busy_s", 0.0) / n
        elif tail == "calls":
            values[name] = agg["names"].get(head, {}).get("calls", 0) / n
        elif tail == "share":
            values[name] = agg["layers"].get(head, {}).get("busy_s", 0.0) / traced.raw_wall_s
        elif name in agg["counts"]:
            values[name] = agg["counts"][name] / n
    values["trace.coverage"] = agg["top_level_s"] / traced.raw_wall_s
    values["trace.overhead_ratio"] = traced.wall_s / plain.wall_s
    values["cli.import_ms"] = 1e3 * statistics.median(imports)
    values.update(wl.layer_metrics(traced.observations, n))
    for kind, p50 in plain.p50_by_kind_ms().items():
        if f"cli.{kind}_ms" in units:
            values[f"cli.{kind}_ms"] = p50
    unknown = set(values) - set(units)
    if unknown:
        raise KeyError(f"metrics not declared in BENCHMARK.json: {sorted(unknown)}")
    return {name: metric(values.get(name, 0.0), name, units) for name in units}


def per_op(totals: dict, n: int) -> dict:
    """Busy and self time in ms per op, and calls per op, of one span name or layer."""
    out = {"busy_ms_per_op": 1e3 * totals["busy_s"] / n, "self_ms_per_op": 1e3 * totals["self_s"] / n}
    if "calls" in totals:
        out["calls_per_op"] = totals["calls"] / n
    return out


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def declared_units() -> tuple[dict, dict]:
    spec = json.loads((benchenv.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        e2e_units, layer_units = declared_units()
        benchenv.import_maniflow()
    except (benchenv.TreeError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # One CPU for the harness and, by inheritance, every child: the host-speed
    # probe then runs where the measured work runs.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    module = importlib.import_module(WORKLOADS[args.workload])
    n_ops = op_count(module, args.seconds)
    workdir = benchenv.WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_probe:
            module.Workload(args.seed, n_ops, workdir)
            print("ready", flush=True)
            return 0
        return measure(args, module, n_ops, workdir, e2e_units, layer_units)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, module, n_ops: int, workdir: Path, e2e_units: dict, layer_units: dict) -> int:
    setups: list[float] = []
    wl = module.Workload(args.seed, n_ops, workdir)
    plain = run_pass(wl, n_ops, Api(), setup_prober(args, n_ops, setups) if args.trace == 0 else None)
    passes = [plain]
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "ops": n_ops, "trace": args.trace}
    report["environment"] = benchenv.environment_record()
    report["p50_by_kind_ms"] = plain.p50_by_kind_ms()
    report["latencies_ms"] = [1e3 * lat for lat in plain.latencies]
    report["raw_latencies_ms"] = [1e3 * lat for lat in plain.raw_latencies]
    results_dir = benchenv.WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace == 0:
        metrics, report["end_to_end"] = end_to_end(plain, setups, wl, e2e_units)
    else:
        tracer = Tracer()
        traced = run_pass(wl, n_ops, Api(tracer))
        passes.append(traced)
        agg = aggregate(tracer.spans)
        metrics = per_layer(plain, traced, agg, wl, import_samples(), layer_units)
        report["layers"] = {k: per_op(v, n_ops) for k, v in agg["layers"].items()}
        report["spans"] = {k: per_op(v, n_ops) for k, v in agg["names"].items()}
        tracer.write(f"{stem}.spans.jsonl")
    failures = [f for p in passes for f in p.failures]
    report["failures"] = [{"op": i, "error": msg} for i, msg in failures]
    report["metrics"] = metrics
    Path(f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")

    print(f"{args.workload}: seed {args.seed}, {n_ops} ops per pass, trace {args.trace}")
    print("environment: " + json.dumps(report["environment"], sort_keys=True))
    if args.trace == 0:
        d = report["end_to_end"]
        print(f"tail is p{d['tail_percentile']:.4g} of {d['samples']} ops; peak RSS from the {d['rss_source']}")
    for i, msg in failures[:10]:
        print(f"FAILED op {i}: {msg}")
    for name, m in metrics.items():
        print(f"  {name:48s} {m['value']:.6g} {m['unit']}")
    attempted = sum(p.attempted for p in passes)
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
