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
effort series.  Each option's value is checked by the library function
that reads it, so only in a mode that reads it; a bad row of an
``--input`` file is found before a bad ``--window``.  ``plan`` prints the
cheapest path and its cost, or ``unreachable``.

Each command accepts only the options it reads; any other is a usage
error.  ``--config FILE`` holds ``key=value`` lines whose keys are the
command's other long option names; explicit flags win over the config
file.  All reals in outputs are printed with 10 significant digits, '.'
decimal separator, and '\\n' line endings; identical configuration and
seed give byte-identical files.  Exit status is 0 exactly when every
requested output was written, and 2 otherwise: usage errors, unreadable
or malformed input, a failed integration, a non-finite table entry, a
route whose cost overflows, or, in a mode that reads it, a non-finite or
non-positive ``--dt``, ``--steps`` below 1, a ``--steps`` times ``--dt``
past the float range, a ``--window`` that is not odd and positive, a
non-finite or negative ``--damping`` or a bad ``--decoder``.  Apart
from usage errors, a failure prints one ``error:`` line on stderr and
writes no file: every output is computed before ``--out`` is created.
A bad line of an input file, a graph's included, raises
``_text.FormatError``, whose message starts ``line N: ``, or
``config line N: `` for a config.  Every failure an input causes is a
``ValueError``, so ``main`` catches it with ``OSError`` and converts none.
"""

from __future__ import annotations

import argparse
import importlib
import sys
from pathlib import Path

from . import _text
from ._text import fmt

# The library modules, each imported by the first command that calls it, so
# no command loads what it never runs: table 3 loads ``manifold`` only when
# a run diverges, and only ``phase`` loads ``infophase``.  Only that
# diverging run loads numpy: the tables and ``infophase`` compute over Python
# floats, and ``phase --seed`` draws from ``_rng``'s replica of numpy's
# default generator.
experiments = infophase = planner = None


def _load(name: str) -> None:
    """Import ``maniflow.<name>`` into this module's attribute ``name`` while that is None."""
    if globals()[name] is None:
        globals()[name] = importlib.import_module(f"{__package__}.{name}")


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


def _load_config(path: str, command: str) -> dict:
    values = {}
    for ln, line in _text.lines(path):
        try:
            if "=" not in line:
                raise ValueError(f"expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in _OPTIONS[command]:
                raise ValueError(f"unknown key {key!r} for {command}")
            values[key] = _OPTIONS[command][key][0](value.strip())
        except ValueError as exc:
            raise _text.FormatError.at(ln, exc, "config line") from None
    return values


def _resolve(args: argparse.Namespace, command: str) -> dict:
    resolved = {key: default for key, (_, default, _) in _OPTIONS[command].items()}
    if args.config:
        resolved.update(_load_config(args.config, command))
    resolved.update({key: getattr(args, key) for key in _OPTIONS[command] if getattr(args, key) is not None})
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
    _load("experiments")
    if args.which == 3:
        csv_text = experiments.table_csv(3, steps=opts["steps"], dt=opts["dt"], damping=opts["damping"])
    else:
        csv_text = experiments.table_csv(args.which, experiments.parse_decoder_spec(opts["decoder"]))
    md_text = experiments.table_markdown(csv_text)
    out_dir = Path(opts["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    _text.write(out_dir / f"table{args.which}.csv", csv_text)
    _text.write(out_dir / f"table{args.which}.md", md_text)
    print(f"wrote {out_dir / f'table{args.which}.csv'} and {out_dir / f'table{args.which}.md'}")
    return 0


def _input_portrait(path: str, window: int) -> infophase.PhasePortrait:
    """The portrait of a distribution file; an error about a row names its line."""
    linenos, dists = [], []
    for ln, line in _text.lines(path):
        try:
            dists.append(list(map(float, line.split())))
        except ValueError:
            raise _text.FormatError.at(ln, "bad probability value") from None
        linenos.append(ln)
    if not dists:
        raise ValueError(f"no distributions found in {path!r}")
    try:
        return infophase.portrait(dists, smoothing_window=window)
    except ValueError:
        # the bad row is looked for only now, so a good file is validated once
        for ln, dist in zip(linenos, dists):
            try:
                infophase.entropy(dist)
            except ValueError as exc:
                raise _text.FormatError.at(ln, exc) from None
        raise


def _cmd_phase(args: argparse.Namespace) -> int:
    opts = _resolve(args, "phase")
    _load("infophase")
    if opts["input"]:
        portraits = [_input_portrait(opts["input"], opts["window"])]
    else:
        from ._rng import DefaultRng  # numpy's seeded draws, replayed without numpy

        _load("experiments")
        rng = DefaultRng(opts["seed"])
        portraits = experiments.rotation_portraits(_PHASE_PORTRAITS, opts["steps"], opts["dt"], rng)
    field = infophase.empirical_field(portraits, _FIELD_BINS)
    try:
        report = [f"divergence_score: {fmt(infophase.divergence_score(field))}"]
    except infophase.DegenerateFieldError as exc:
        report = [f"divergence_score: unavailable ({exc})"]
    try:
        _, residual = infophase.fit_info_hamiltonian(field)
        report.append(f"field_fit_residual: {fmt(residual)}")
    except infophase.DegenerateFieldError as exc:
        report.append(f"field_fit_residual: unavailable ({exc})")
    out_dir = Path(opts["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    _text.write(out_dir / "portrait.csv", _text.csv(["t", "u", "e"], portraits[0].rows()))
    _text.write(out_dir / "field.csv", _text.csv(["u_center", "e_center", "vu", "ve", "count"], field.rows()))
    print("\n".join(report))
    print(f"wrote {out_dir / 'portrait.csv'} and {out_dir / 'field.csv'}")
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    _load("planner")
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
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
