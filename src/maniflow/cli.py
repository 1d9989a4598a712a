"""Command-line front end for the toy experiments and planners.

Commands::

    maniflow table <1|2|3> [--out DIR] [--decoder SPEC] [--steps N] [--dt H] [--damping L]
    maniflow phase [--input FILE] [--out DIR] [--seed S] [--steps N] [--dt H] [--window W]
    maniflow plan <graph-file> <src> <dst>

``table`` writes ``tableN.csv`` and ``tableN.md`` into the output
directory.  ``phase`` writes ``portrait.csv`` (columns t,u,e) and
``field.csv`` (columns u_center,e_center,vu,ve,count; all cells in
row-major order) and prints the divergence score and scalar-field fit
residual; without ``--input`` it samples portraits from the seeded
rotation generator, with ``--input`` it reads one distribution per line
(whitespace-separated probabilities) and ``--window`` smooths the effort
series.  ``plan`` prints the cheapest path and its cost, or
``unreachable``.

Flags may also be supplied through ``--config FILE`` holding ``key=value``
lines (same names as the long flags); explicit flags win over the config
file.  All reals in outputs are printed with 10 significant digits, '.'
decimal separator, and '\\n' line endings; identical configuration and
seed give byte-identical files.  Exit status is 0 exactly when every
requested output was written, and 2 otherwise: usage errors, unreadable
or malformed input, a non-finite or non-positive ``--dt``, ``--steps``
below 1, a ``--window`` that is not odd and positive, a non-finite or
negative ``--damping``, a non-finite decoder scale, or a failed
integration.  Apart from usage errors, a failure prints one ``error:``
line on stderr.
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

_DEFAULTS = {
    "table": {"out": ".", "seed": 0, "steps": 1000, "dt": 0.1, "damping": 0.05, "decoder": "default", "window": 1},
    "phase": {"out": ".", "seed": 0, "steps": 200, "dt": 0.05, "damping": 0.05, "decoder": "default", "window": 1},
}

_CONVERTERS = {
    "out": str,
    "seed": int,
    "steps": int,
    "dt": float,
    "damping": float,
    "decoder": str,
    "window": int,
}


def _write_text(path: Path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _load_config(path: str) -> dict:
    values = {}
    for ln, line in _text.lines(path):
        if "=" not in line:
            raise ValueError(f"config line {ln}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _CONVERTERS:
            raise ValueError(f"config line {ln}: unknown key {key!r}")
        values[key] = _CONVERTERS[key](value.strip())
    return values


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", help="output directory (default '.')")
    parser.add_argument("--config", help="key=value config file; explicit flags win")
    parser.add_argument("--seed", type=int, help="RNG seed for synthetic inputs")
    parser.add_argument("--steps", type=int, help="integration/generator steps")
    parser.add_argument("--dt", type=float, help="step size")
    parser.add_argument("--damping", type=float, help="damping coefficient (table 3)")
    parser.add_argument("--decoder", help="read-out decoder: 'default' or 'gap:<scale>'")
    parser.add_argument("--window", type=int, help="odd smoothing window for effort series")


def _resolve(args: argparse.Namespace, command: str) -> dict:
    config = _load_config(args.config) if args.config else {}
    resolved = dict(_DEFAULTS[command])
    resolved.update(config)
    for key in _CONVERTERS:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            resolved[key] = flag_value
    if not (math.isfinite(resolved["dt"]) and resolved["dt"] > 0):
        raise ValueError(f"dt must be finite and > 0, got {resolved['dt']!r}")
    if resolved["steps"] < 1:
        raise ValueError(f"steps must be >= 1, got {resolved['steps']!r}")
    if resolved["window"] < 1 or resolved["window"] % 2 == 0:
        raise ValueError(f"window must be an odd integer >= 1, got {resolved['window']!r}")
    return resolved


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="maniflow", description="toy experiment tables, phase portraits, and path planning")
    sub = parser.add_subparsers(dest="command", required=True)

    table = sub.add_parser("table", help="emit an experiment table as CSV and markdown")
    table.add_argument("which", type=int, choices=(1, 2, 3), help="table number")
    _add_common_flags(table)

    phase = sub.add_parser("phase", help="portrait, empirical field, divergence, and field fit")
    phase.add_argument("--input", help="distribution sequence file (one distribution per line)")
    _add_common_flags(phase)

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
    md_text = experiments.table_markdown(args.which, decoder, **kwargs)
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
    if args.input:
        dists = _read_distributions(args.input)
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
