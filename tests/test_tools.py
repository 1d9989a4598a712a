"""The rules of ``tools/fingerprint.py`` and ``tools/pairs.py``, on synthetic numbers."""

import importlib.util
import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


fingerprint, pairs = _load("fingerprint"), _load("pairs")


def _output():
    return [np.array([[0.25, -1.5], [3.0, 1e-300]]), 2.0, np.float64(-0.0), 7, "[([0, 3], 1.5)]", b"\x00a"]


def test_fingerprint_is_a_function_of_the_outputs():
    assert fingerprint.digest(_output()) == fingerprint.digest(iter(_output()))


@pytest.mark.parametrize("index", [(0, 0), (0, 3), 1, 2])
def test_one_ulp_moves_the_fingerprint(index):
    out = _output()
    if isinstance(index, tuple):
        out[0] = out[0].copy()
        out[0].flat[index[1]] = np.nextafter(out[0].flat[index[1]], np.inf)
    else:
        out[index] = np.nextafter(out[index], np.inf)
    assert fingerprint.digest(out) != fingerprint.digest(_output())


def test_every_kind_of_part_is_hashed():
    for index, changed in ((3, 8), (4, "[([0, 3], 1.25)]"), (5, b"\x00b")):
        out = _output()
        out[index] = changed
        assert fingerprint.digest(out) != fingerprint.digest(_output())


PARENT = [100.0 + k for k in range(10)]  # inclusive quartiles 102.25 and 106.75: an IQR of 4.5


@pytest.mark.parametrize(
    "change, better, met",
    [
        ([p + 10.0 for p in PARENT], "higher", True),  # 10/10 pairs, median gain 10 > 4.5
        ([p + 3.0 for p in PARENT], "higher", False),  # 10/10 pairs, but a gain of 3 sits inside the IQR
        ([p + (10.0 if k < 8 else -1.0) for k, p in enumerate(PARENT)], "higher", False),  # 8/10 pairs
        ([p + (10.0 if k < 9 else -1.0) for k, p in enumerate(PARENT)], "higher", True),  # 9/10 pairs
        ([p + (10.0 if k < 9 else 0.0) for k, p in enumerate(PARENT)], "higher", True),  # 9 wins and a tie
        ([p + (10.0 if k < 8 else 0.0) for k, p in enumerate(PARENT)], "higher", False),  # a tie wins nothing
        ([p - 10.0 for p in PARENT], "lower", True),
        ([p + 10.0 for p in PARENT], "lower", False),
    ],
)
def test_claim_needs_nine_of_ten_pairs_and_a_gain_past_the_parent_iqr(change, better, met):
    result = pairs.verdict(PARENT, change, better, 0.25)
    assert result["parent_iqr"] == [102.25, 106.75]
    assert result["claim_met"] is met


def test_claim_fails_when_more_operations_fail():
    # a change that is faster because it drops operations claims nothing
    change = [p + 10.0 for p in PARENT]
    assert pairs.verdict(PARENT, change, "higher", 0.25, failed=(2, 2))["claim_met"] is True
    assert pairs.verdict(PARENT, change, "higher", 0.25, failed=(0, 1))["claim_met"] is False
    assert pairs.verdict(PARENT, change, "higher", 0.25, failed=(3, 1))["claim_met"] is True


def test_summary_passes_each_sides_failures_to_the_claim():
    runs = [
        {"side": side, "seed": k, "failed": int(side == "change" and k == 0), "metrics": {"ops": value}}
        for k, p in enumerate(PARENT)
        for side, value in (("parent", p), ("change", p + 10.0))
    ]
    summary = pairs.summarise(runs, [{"name": "ops", "better": "higher", "bound": 0.25}])
    assert summary["failed_total"] == {"parent": 0, "change": 1}
    assert summary["ops"]["change_better_pairs"] == 10 and summary["ops"]["claim_met"] is False


def test_geodesic_fingerprint_without_jacobi_skips_only_the_deviations(monkeypatch):
    parts = [(np.arange(3.0), False), (np.ones(2), True), (1.5, False)]
    monkeypatch.setattr(fingerprint, "geodesic_parts", lambda: iter(parts))
    monkeypatch.setattr(fingerprint, "fresh_oracle_parts", lambda: iter([np.ones(3)]))
    monkeypatch.setattr(fingerprint, "relax_parts", lambda: iter(()))
    monkeypatch.setattr(fingerprint, "cli_parts", lambda tree: iter(()))
    monkeypatch.setattr(sys, "path", list(sys.path))  # fingerprints puts the tree's perfbench first
    monkeypatch.setitem(sys.modules, "benchenv", types.ModuleType("benchenv"))  # and would pin this process
    out = fingerprint.fingerprints(Path(__file__).resolve().parents[1])
    assert out["geodesic"] == fingerprint.digest(part for part, _ in parts)
    assert out["geodesic_without_jacobi"] == fingerprint.digest([np.arange(3.0), 1.5])
    # the oracle from a fresh point, which run_case's recorded run never takes, has a hash of its own
    assert out["geodesic_fresh_oracle"] == fingerprint.digest([np.ones(3)])
    assert list(out) == ["geodesic", "geodesic_without_jacobi", "geodesic_fresh_oracle", "relax", "cli"]


@pytest.mark.parametrize(
    "parent, change, better, state",
    [
        (PARENT, [0.7 * p for p in PARENT], "higher", "worse than bound"),
        (PARENT, [1.2 * p for p in PARENT], "lower", "within bound"),
        (PARENT, [1.3 * p for p in PARENT], "lower", "worse than bound"),
        ([1.0, 2.0, 1.5, 1.0], [1.1, 1.9, 1.6, 1.05], "higher", "unresolved"),  # spreads past the bound
        ([1.0, 2.0, 1.5, 1.0], [2.1, 2.9, 2.6, 2.05], "higher", "within bound"),  # every change run better
    ],
)
def test_metric_verdicts(parent, change, better, state):
    assert pairs.verdict(parent, change, better, 0.25)["verdict"] == state


def test_trace_summary_sets_each_layer_side_by_side():
    def runs(integrate, ndm_layer):
        return [
            {"manifold.integrate.busy_ms": a, "control.ndm_layer.busy_ms": b, "spins.micro_step.calls": 0.0}
            for a, b in zip(integrate, ndm_layer, strict=True)
        ]

    # one outlying run on each side moves neither median
    parent = runs([2.0, 9.0, 1.9], [1.5, 1.4, 1.6])
    change = runs([1.5, 1.4, 0.1], [1.5, 1.6, 1.4])
    summary = pairs.trace_summary(parent, change)
    assert summary["manifold.integrate.busy_ms"] == {
        "parent": 2.0, "change": 1.4, "relative_change": pytest.approx(-0.3),
        "runs": {"parent": [2.0, 9.0, 1.9], "change": [1.5, 1.4, 0.1]},
    }
    assert summary["control.ndm_layer.busy_ms"]["relative_change"] == 0.0
    assert summary["spins.micro_step.calls"]["relative_change"] is None  # a layer the workload never calls


def test_report_states_the_claimed_workloads_verdict(monkeypatch, tmp_path, capsys):
    # the claim's verdict used to be read from the last workload run, whichever was claimed
    speed = {("geodesic", "parent"): 100.0, ("geodesic", "change"): 120.0}
    traced = []

    def run_once(tree, workload, seed, seconds, trace=0):
        if trace:
            traced.append((tree.name, workload, seed))
            busy = (2.0 if tree.name == "parent" else 1.0) + 0.1 * seed
            return {"metrics": {"manifold.integrate.busy_ms": busy}, "failed": int(seed == 2 and tree.name == "change")}
        value = speed.get((workload, tree.name), 50.0) + seed % 3
        metrics = {m: value for m in ("setup_s", "throughput_ops_s", "op_p50_ms", "op_tail_ms", "peak_rss_mb")}
        return {"metrics": {**metrics, "ok_ratio": 1.0}, "attempted": 10, "failed": 0,
                "environment": {"src_sha256": tree.name, "git_commit": ""}}

    monkeypatch.setattr(pairs, "build_trees", lambda ref, work: {side: work / side for side in ("parent", "change")})
    monkeypatch.setattr(pairs, "run_once", run_once)
    changed = {"relax"}  # the fingerprints that the change tree moves
    monkeypatch.setattr(pairs, "fingerprint", lambda tree: {
        name: name + "'" * (tree.name == "change" and name in changed) for name in ("geodesic", "relax")
    })
    monkeypatch.setattr(pairs, "git_output", lambda *args: "parent")
    out = tmp_path / "BENCH.json"
    assert pairs.main(["HEAD", "--out", str(out), "--claim", "geodesic:throughput_ops_s"]) == 0
    report = json.loads(out.read_text())
    assert report["claim_verdict"] == report["summary"]["geodesic"]["throughput_ops_s"]
    assert report["claim_verdict"]["claim_met"] is True
    assert report["command"].startswith("python3 perfbench/run.py --workload W --seed S --seconds 20 ")
    # three traced pairs of the claimed workload after the others, seeds 1 to 3, alternating which tree runs first
    assert traced == [
        ("parent", "geodesic", 1), ("change", "geodesic", 1),
        ("change", "geodesic", 2), ("parent", "geodesic", 2),
        ("parent", "geodesic", 3), ("change", "geodesic", 3),
    ]
    assert report["trace"]["failed"] == {"parent": 0, "change": 1}
    per_layer = report["trace"]["per_layer"]["manifold.integrate.busy_ms"]
    assert per_layer["parent"] == 2.2 and per_layer["change"] == 1.2
    assert per_layer["runs"] == {"parent": [2.1, 2.2, 2.3], "change": [1.1, 1.2, 1.3]}
    # each fingerprint is flagged equal or not, and the last line printed names any that differs
    assert report["fingerprint"]["relax"] == {"parent": "relax", "change": "relax'"}
    assert report["fingerprint_equal"] == {"geodesic": True, "relax": False, "all": False}
    assert capsys.readouterr().out.splitlines()[-1] == "fingerprints differ: relax"
    changed.clear()
    assert pairs.main(["HEAD", "--out", str(out), "--claim", "geodesic:throughput_ops_s"]) == 0
    assert json.loads(out.read_text())["fingerprint_equal"] == {"geodesic": True, "relax": True, "all": True}
    assert capsys.readouterr().out.splitlines()[-1] == "fingerprints equal: geodesic, relax"
    # a fingerprint that one tree does not print differs
    assert pairs.fingerprint_equal({"cli": {"parent": "c", "change": None}}) == {"cli": False, "all": False}
