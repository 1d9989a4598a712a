"""Command-line front end for the toy experiments and planners.

Commands::

    maniflow table <1|2|3> [--out DIR] [--config FILE] [--steps N] [--dt H] [--damping L] [--decoder SPEC]
    maniflow phase [--out DIR] [--config FILE] [--input FILE] [--seed S] [--steps N] [--dt H] [--window W]
    maniflow plan <graph-file> <src> <dst>

``table`` writes ``tableN.csv`` and ``tableN.md`` into the output
directory.  Only table 3 reads ``--steps``, ``--dt`` and ``--damping``;
only tables 1 and 2 read ``--decoder``.  ``phase`` writes
``portrait.csv`` (columns t,u,e) and ``field.csv`` (columns
u_center,e_center,vu,ve,count; all cells in row-major order) and prints
the divergence score and scalar-field fit residual.  Without ``--input``
it samples portraits from the rotation generator, which reads ``--seed``,
``--steps`` and ``--dt``; with ``--input`` it reads one distribution per
line (whitespace-separated probabilities), and ``--window`` smooths the
effort series.  ``plan`` prints the cheapest path and its cost, or
``unreachable``.

Each command accepts only the options it reads; any other is a usage
error.  ``--config FILE`` holds ``key=value`` lines whose keys are the
command's other long option names; explicit flags win over the config
file.  All reals in outputs are printed with 10 significant digits, '.'
decimal separator, and '\\n' line endings; identical configuration and
seed give byte-identical files.  Exit status is 0 exactly when every
requested output was written, and 2 otherwise: usage errors, unreadable
or malformed input, a non-finite or non-positive ``--dt``, ``--steps``
below 1, a ``--window`` that is not odd and positive, a non-finite or
negative ``--damping``, a non-finite decoder scale, a failed integration,
or a non-finite table entry.  Apart from usage errors, a failure prints
one ``error:`` line on stderr.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import _text, experiments, infophase, planner
from ._text import fmt
from .manifold import IntegrationError, ShootingError, SingularMetricError

_FIELD_BINS = 12
_PHASE_PORTRAITS = 150

# The options each command reads, name -> (type, default, help): the source of
# its flags, its --config keys and their defaults.
_OPTIONS = {
    "table": {
        "out": (str, ".", "output directory (default '.')"),
        "steps": (int, 1000, "table 3: leapfrog steps (default 1000)"),
        "dt": (float, 0.1, "table 3: step size (default 0.1)"),
        "damping": (float, 0.05, "table 3: damping of the damped ablation (default 0.05)"),
        "decoder": (str, "default", "tables 1 and 2: read-out decoder, 'default' or 'gap:<scale>'"),
    },
    "phase": {
        "out": (str, ".", "output directory (default '.')"),
        "input": (str, None, "distribution sequence file (one distribution per line)"),
        "seed": (int, 0, "without --input: RNG seed of the rotation portraits (default 0)"),
        "steps": (int, 200, "without --input: steps per portrait (default 200)"),
        "dt": (float, 0.05, "without --input: time step of the portraits (default 0.05)"),
        "window": (int, 1, "with --input: odd smoothing window for the effort series (default 1)"),
    },
}


def _write_text(path: Path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _load_config(path: str, command: str) -> dict:
    values = {}
    for ln, line in _text.lines(path):
        if "=" not in line:
            raise ValueError(f"config line {ln}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _OPTIONS[command]:
            raise ValueError(f"config line {ln}: unknown key {key!r} for {command}")
        values[key] = _OPTIONS[command][key][0](value.strip())
    return values


def _resolve(args: argparse.Namespace, command: str) -> dict:
    resolved = {key: default for key, (_, default, _) in _OPTIONS[command].items()}
    if args.config:
        resolved.update(_load_config(args.config, command))
    resolved.update({key: getattr(args, key) for key in _OPTIONS[command] if getattr(args, key) is not None})
    if not (math.isfinite(resolved["dt"]) and resolved["dt"] > 0):
        raise ValueError(f"dt must be finite and > 0, got {resolved['dt']!r}")
    if resolved["steps"] < 1:
        raise ValueError(f"steps must be >= 1, got {resolved['steps']!r}")
    if "window" in resolved and (resolved["window"] < 1 or resolved["window"] % 2 == 0):
        raise ValueError(f"window must be an odd integer >= 1, got {resolved['window']!r}")
    return resolved


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="maniflow", description="toy experiment tables, phase portraits, and path planning")
    sub = parser.add_subparsers(dest="command", required=True)

    table = sub.add_parser("table", help="emit an experiment table as CSV and markdown")
    table.add_argument("which", type=int, choices=(1, 2, 3), help="table number")
    phase = sub.add_parser("phase", help="portrait, empirical field, divergence, and field fit")
    for command, command_parser in (("table", table), ("phase", phase)):
        command_parser.add_argument("--config", help="key=value config file; explicit flags win")
        for key, (kind, _, help_text) in _OPTIONS[command].items():
            command_parser.add_argument(f"--{key}", type=kind, help=help_text)

    plan = sub.add_parser("plan", help="cheapest path in a graph file")
    plan.add_argument("graph", help="graph file in the n/e text format")
    plan.add_argument("src", type=int, help="source node index")
    plan.add_argument("dst", type=int, help="target node index")
    return parser


def _cmd_table(args: argparse.Namespace) -> int:
    opts = _resolve(args, "table")
    out_dir = Path(opts["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    decoder = experiments.parse_decoder_spec(opts["decoder"])
    kwargs = {}
    if args.which == 3:
        kwargs = {"t_final": opts["steps"] * opts["dt"], "h": opts["dt"], "damping": opts["damping"]}
    csv_text = experiments.table_csv(args.which, decoder, **kwargs)
    md_text = experiments.table_markdown(csv_text)
    _write_text(out_dir / f"table{args.which}.csv", csv_text)
    _write_text(out_dir / f"table{args.which}.md", md_text)
    print(f"wrote {out_dir / f'table{args.which}.csv'} and {out_dir / f'table{args.which}.md'}")
    return 0


def _portrait_csv(por: infophase.PhasePortrait) -> str:
    lines = ["t,u,e"]
    lines += [f"{t},{fmt(u)},{fmt(e)}" for t, (u, e) in enumerate(zip(por.u, por.e))]
    return "\n".join(lines) + "\n"


def _field_csv(field: infophase.GridField) -> str:
    lines = ["u_center,e_center,vu,ve,count"]
    for iu, uc in enumerate(field.u_centers):
        for ie, ec in enumerate(field.e_centers):
            lines.append(
                f"{fmt(uc)},{fmt(ec)},{fmt(field.vu[iu, ie])},{fmt(field.ve[iu, ie])},{field.count[iu, ie]}"
            )
    return "\n".join(lines) + "\n"


def _read_distributions(path: str) -> list[np.ndarray]:
    dists = []
    for ln, line in _text.lines(path):
        try:
            dists.append(np.array([float(v) for v in line.split()]))
        except ValueError:
            raise ValueError(f"line {ln}: bad probability value") from None
    if not dists:
        raise ValueError(f"no distributions found in {path!r}")
    return dists


def _cmd_phase(args: argparse.Namespace) -> int:
    opts = _resolve(args, "phase")
    out_dir = Path(opts["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    if opts["input"]:
        dists = _read_distributions(opts["input"])
        portraits = [infophase.portrait(dists, smoothing_window=opts["window"])]
    else:
        rng = np.random.default_rng(opts["seed"])
        portraits = experiments.rotation_portraits(_PHASE_PORTRAITS, opts["steps"], opts["dt"], rng)
    _write_text(out_dir / "portrait.csv", _portrait_csv(portraits[0]))
    field = infophase.empirical_field(portraits, _FIELD_BINS, _FIELD_BINS)
    _write_text(out_dir / "field.csv", _field_csv(field))
    try:
        print(f"divergence_score: {fmt(infophase.divergence_score(field))}")
    except infophase.DegenerateFieldError as exc:
        print(f"divergence_score: unavailable ({exc})")
    try:
        _, residual = infophase.fit_info_hamiltonian(field)
        print(f"field_fit_residual: {fmt(residual)}")
    except (infophase.DegenerateFieldError, infophase.FieldFitError) as exc:
        print(f"field_fit_residual: unavailable ({exc})")
    print(f"wrote {out_dir / 'portrait.csv'} and {out_dir / 'field.csv'}")
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    graph = planner.load_graph(args.graph)
    found = planner.shortest_path(graph, args.src, args.dst)
    if found is None:
        print("unreachable")
        return 0
    path, cost = found
    print("path: " + " -> ".join(str(i) for i in path))
    print(f"cost: {fmt(cost)}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "table":
            return _cmd_table(args)
        if args.command == "phase":
            return _cmd_phase(args)
        return _cmd_plan(args)
    except (ValueError, OSError, IntegrationError, ShootingError, SingularMetricError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
