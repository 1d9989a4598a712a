"""Result fingerprints of a checkout: the benchmark's in-process workloads and the CLI's outputs.

Usage (from the root of a checkout)::

    python3 tools/fingerprint.py [--tree DIR]

Prints one ``name sha256`` line per fingerprint of the tree DIR (default:
this checkout), computed with DIR's own ``src`` and ``perfbench``:

- ``geodesic``: over the 30 pool queries in pool order, ``run_case``'s
  trajectory ``ys``, ``ps`` and ``energies``, the Jacobi and empirical
  deviations, each rollout record's y and u, then the cost as float64;
- ``geodesic_without_jacobi``: the same parts of the same run without
  the Jacobi deviations;
- ``geodesic_fresh_oracle``: over the 30 pool queries in pool order,
  ``empirical_deviations`` from a fresh ``PhasePoint(y_a, p)`` with
  ``solve_shooting``'s p, so the oracle runs its base point itself where
  ``run_case``'s takes the run ``integrate`` recorded;
- ``relax``: over the 20 ops of ``wl_relax.Workload(7, 20)``, the final
  spins, the energy as float64, each edge as (int64, int64, float64),
  ``repr(routes)`` and ``repr(chain)``;
- ``cli``: exit status, stdout without its ``wrote`` lines, stderr and
  every output file (name and bytes, by name) of ``table 1``-``3``,
  ``phase --seed 0``-``7``, ``phase --input`` on two generated 3000x16
  inputs (``wl_cli.make_distributions`` with this script's seeds 1 and 2)
  at ``--window 1`` and ``5``, and on ``tests/fixtures/distributions.txt``;
  then ``plan`` (which takes no ``--out``) at 4 (src, dst) pairs on a
  2000-node 8-NN graph file written as cli_mix writes its own:
  ``wl_cli.knn_edges`` over ``default_rng(3).uniform(size=(2000, 2))``,
  with the pairs drawn next from the same generator.

A fingerprint hashes floating-point results, whose last bits follow the
CPU's BLAS kernels: compare two trees on one host, never against a number
taken elsewhere.  Each CLI command runs in a fresh process with
PYTHONDONTWRITEBYTECODE=1, so the tree gains no ``__pycache__``.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CLI_INPUT_SEEDS = (1, 2)  # the generated phase --input files; not recorded for fingerprints before this script
CLI_GRAPH_SEED = 3  # the generated plan graph and its (src, dst) pairs


def feed(h, part) -> None:
    """Hash one part: an array's raw bytes, a float as float64, an int as int64, a str as UTF-8, bytes as is."""
    import numpy as np

    if isinstance(part, str):
        h.update(part.encode())
    elif isinstance(part, bytes):
        h.update(part)
    elif isinstance(part, int):
        h.update(np.int64(part).tobytes())
    elif isinstance(part, float):
        h.update(np.float64(part).tobytes())
    else:
        h.update(np.ascontiguousarray(part).tobytes())


def digest(parts) -> str:
    """sha256 over parts in order (``feed``)."""
    h = hashlib.sha256()
    for part in parts:
        feed(h, part)
    return h.hexdigest()


def geodesic_parts():
    """(part, whether it is the Jacobi deviations) over one run of the pool."""
    import wl_geodesic
    from tracing import Api

    api = Api()
    for index in range(len(wl_geodesic.POOL_DIMS)):
        out = wl_geodesic.run_case(wl_geodesic.pool_case(index), api)
        yield from ((part, False) for part in (out.traj.ys, out.traj.ps, out.traj.energies))
        yield out.jac, True
        yield out.emp, False
        for y, u, _ in out.records:
            yield from ((y, False), (u, False))
        yield float(out.cost), False


def fresh_oracle_parts():
    """The empirical deviations of each pool query from a point that no ``integrate`` ran."""
    import wl_geodesic
    from maniflow import manifold

    for index in range(len(wl_geodesic.POOL_DIMS)):
        case = wl_geodesic.pool_case(index)
        field = manifold.MetricField(case.decoder)
        p = manifold.solve_shooting(field, case.y_a, case.y_b, n_steps=wl_geodesic.N_STEPS, tol=wl_geodesic.SHOOT_TOL)
        pt0 = manifold.PhasePoint(case.y_a, p)
        ham = manifold.GeodesicHamiltonian(field)
        yield manifold.empirical_deviations(ham, pt0, case.delta0, wl_geodesic.H, wl_geodesic.N_STEPS)


def relax_parts():
    import wl_relax
    from tracing import Api

    api = Api()
    with tempfile.TemporaryDirectory() as work:
        wl = wl_relax.Workload(7, 20, Path(work))
        for i in range(20):
            out = wl.run_op(i, api)
            yield from (out.system.spins, float(out.energy))
            for u, v, w in out.graph.edges():
                yield from (int(u), int(v), float(w))
            yield from (repr(out.routes), repr(out.chain))


def cli_commands(tree: Path, work: Path) -> list[list[str]]:
    import numpy as np
    import wl_cli

    commands = [["table", str(k)] for k in (1, 2, 3)]
    commands += [["phase", "--seed", str(seed)] for seed in range(8)]
    for seed in CLI_INPUT_SEEDS:
        path = work / f"dists{seed}.txt"
        dists = wl_cli.make_distributions(np.random.default_rng(seed))
        np.savetxt(path, dists, fmt="%.17g", header="one distribution per line")
        commands += [["phase", "--input", str(path), "--window", str(window)] for window in (1, 5)]
    commands.append(["phase", "--input", str(tree / "tests" / "fixtures" / "distributions.txt")])
    rng = np.random.default_rng(CLI_GRAPH_SEED)
    src, dst, weight = wl_cli.knn_edges(rng.uniform(size=(wl_cli.N_NODES, 2)))
    graph = work / "graph.txt"
    with open(graph, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# {wl_cli.K}-NN graph over {wl_cli.N_NODES} uniform points\nn {wl_cli.N_NODES}\n")
        fh.writelines(f"e {a} {b} {w!r}\n" for a, b, w in zip(src.tolist(), dst.tolist(), weight.tolist()))
    pairs = rng.integers(wl_cli.N_NODES, size=(4, 2)).tolist()
    commands += [["plan", str(graph), str(a), str(b)] for a, b in pairs]
    return commands


def cli_parts(tree: Path):
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for k, argv in enumerate(cli_commands(tree, work)):
            out = work / f"out{k}"
            out.mkdir()
            flags = [] if argv[0] == "plan" else ["--out", str(out)]
            run = subprocess.run(
                [sys.executable, "-m", "maniflow.cli", *argv, *flags],
                capture_output=True, text=True, env=env, cwd=work, timeout=300,
            )
            stdout = "".join(line for line in run.stdout.splitlines(True) if not line.startswith("wrote "))
            yield from (run.returncode, stdout, run.stderr)
            for path in sorted(out.iterdir()):
                yield from (path.name, path.read_bytes())


def fingerprints(tree: Path) -> dict[str, str]:
    sys.path.insert(0, str(tree / "perfbench"))
    import benchenv  # noqa: F401  (pins BLAS threads and puts the tree's src first, before numpy loads)

    full, without = hashlib.sha256(), hashlib.sha256()
    for part, jacobi in geodesic_parts():
        feed(full, part)
        if not jacobi:
            feed(without, part)
    return {
        "geodesic": full.hexdigest(),
        "geodesic_without_jacobi": without.hexdigest(),
        "geodesic_fresh_oracle": digest(fresh_oracle_parts()),
        "relax": digest(relax_parts()),
        "cli": digest(cli_parts(tree)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n", 1)[0])
    parser.add_argument("--tree", type=Path, default=ROOT)
    args = parser.parse_args(argv)
    for name, value in fingerprints(args.tree.resolve()).items():
        print(name, value)
    return 0


if __name__ == "__main__":
    sys.exit(main())
