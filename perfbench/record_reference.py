"""Record the outputs that cli_mix and geodesic compare against.

Usage: python perfbench/record_reference.py

Runs ``table 1|2|3`` and ``phase --seed S`` for the recorded seeds through
``python -m maniflow.cli`` on this checkout and writes the sha256 of every
output file, plus the printed divergence score and fit residual, to
``perfbench/reference.json``, together with the Jacobi gap of every case in
the geodesic workload's pool (under a minute).  The committed file was
recorded at the seed commit; re-record only in a change that alters these
outputs on purpose and says why.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import benchenv
import wl_geodesic
from tracing import Api
from wl_cli import sha256, stdout_values

PHASE_SEEDS = range(8)


def run_cli(args: list[str]) -> str:
    done = subprocess.run(
        [sys.executable, "-m", "maniflow.cli", *args],
        env=benchenv.child_env(),
        cwd=benchenv.ROOT,
        capture_output=True,
        text=True,
        check=True,
    )
    return done.stdout


def main() -> int:
    benchenv.check_tree()
    ref: dict = {"phase_seed": {}}
    with tempfile.TemporaryDirectory(dir=benchenv.ROOT) as tmp:
        out = Path(tmp)
        for which in (1, 2, 3):
            run_cli(["table", str(which), "--out", str(out)])
            ref[f"table{which}"] = {name: sha256(out / name) for name in (f"table{which}.csv", f"table{which}.md")}
        for seed in PHASE_SEEDS:
            values = stdout_values(run_cli(["phase", "--seed", str(seed), "--out", str(out)]))
            entry = {name: sha256(out / name) for name in ("portrait.csv", "field.csv")}
            entry.update({key: values[key] for key in ("divergence_score", "field_fit_residual")})
            ref["phase_seed"][str(seed)] = entry
    api = Api()
    ref["geodesic_jacobi_gap"] = {
        str(index): wl_geodesic.jacobi_gap(wl_geodesic.run_case(wl_geodesic.pool_case(index), api))
        for index in range(len(wl_geodesic.POOL_DIMS))
    }
    benchenv.REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {benchenv.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
