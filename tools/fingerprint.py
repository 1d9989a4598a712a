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
- ``relax``: over the 20 ops of ``wl_relax.Workload(7, 20)``, the final
  spins, the energy as float64, each edge as (int64, int64, float64),
  ``repr(routes)`` and ``repr(chain)``;
- ``cli``: exit status, stdout without its ``wrote`` lines, stderr and
  every output file (name and bytes, by name) of ``table 1``-``3``,
  ``phase --seed 0``-``7``, ``phase --input`` on two generated 3000x16
  inputs (``wl_cli.make_distributions`` with this script's seeds 1 and 2)
  at ``--window 1`` and ``5``, and on ``tests/fixtures/distributions.txt``.

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
    return commands


def cli_parts(tree: Path):
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for k, argv in enumerate(cli_commands(tree, work)):
            out = work / f"out{k}"
            out.mkdir()
            run = subprocess.run(
                [sys.executable, "-m", "maniflow.cli", *argv, "--out", str(out)],
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
