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
error.  A flag is its option's exact long name, with no abbreviation,
and takes its value from the next argument or after ``=``
(``--steps=10``); a repeated flag keeps its last value, and ``-h`` or
``--help`` prints the command's usage and options.  ``--config FILE``
holds ``key=value`` lines whose keys are the command's other long option
names; a flag's value and a config value are converted alike, and
explicit flags win over the config file.  All reals in outputs are printed with 10 significant digits, '.'
decimal separator, and '\\n' line endings; identical configuration and
seed give byte-identical files.  Exit status is 0 exactly when every
requested output was written, and 2 otherwise: usage errors, unreadable
or malformed input, a failed integration, a non-finite table entry, a
route whose cost overflows, or, in a mode that reads it, a non-finite or
non-positive ``--dt``, ``--steps`` below 1, a ``--steps`` times ``--dt``
past the float range, a ``phase --steps`` whose 150 portraits pass the
budget of 3,000,000 nodes (``_PHASE_NODES``, checked before anything is
allocated), a ``--window`` that is not odd and positive, a
non-finite or negative ``--damping`` or a bad ``--decoder``.  A
failure, a usage error included, prints one ``error:`` line on stderr
and writes no file: every output is computed before ``--out`` is created.
A bad line of an input file, a graph's included, raises
``_text.FormatError``, whose message starts ``line N: ``, or
``config line N: `` for a config.  Every failure an input causes is a
``ValueError``, so ``main`` catches it with ``OSError`` and converts none.
"""

from __future__ import annotations

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
# the seeded portraits' node budget: 150 portraits of steps + 1 nodes each, about 80 bytes a
# node, so at most 19,999 steps and about 240 MB
_PHASE_NODES = 3_000_000

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


def _resolve(flags: dict, command: str) -> dict:
    resolved = {key: default for key, (_, default, _) in _OPTIONS[command].items()}
    if flags.get("config"):
        resolved.update(_load_config(flags["config"], command))
    resolved.update({key: value for key, value in flags.items() if key != "config"})
    return resolved


# Each command's positional arguments as its usage line shows them, their types, and its summary.
_COMMANDS = {
    "table": ("<1|2|3>", (int,), "emit an experiment table as CSV and markdown"),
    "phase": ("", (), "portrait, empirical field, divergence, and field fit"),
    "plan": ("<graph-file> <src> <dst>", (str, int, int), "cheapest path in a graph file"),
}
_HELP_FLAGS = ("-h", "--help")


def _help(commands) -> str:
    """The usage line, summary and options of each command named."""
    lines = []
    for command in commands:
        args, _, summary = _COMMANDS[command]
        lines += [f"usage: maniflow {command} {args}".rstrip(), f"  {summary}", f"  {'-h, --help':<20}show this help"]
        if command in _OPTIONS:
            lines.append(f"  {'--config FILE':<20}key=value config file; explicit flags win")
            lines += [f"  {f'--{key} {key.upper()}':<20}{text}" for key, (_, _, text) in _OPTIONS[command].items()]
    return "\n".join(lines)


def _converted(kind, text: str, name: str):
    """``kind(text)``, the conversion a config value gets, its ValueError naming the argument."""
    try:
        return kind(text)
    except ValueError as exc:
        raise ValueError(f"argument {name}: {exc}") from None


def _parse(argv: list) -> tuple | None:
    """The command, its flags and its positional values; None once help is printed.

    A flag is its exact long name followed by its value, as the next
    argument or after ``=``; a repeated flag keeps its last value.  A usage
    error raises ValueError.
    """
    if argv[:1] and argv[0] in _HELP_FLAGS:
        print(_help(_COMMANDS))
        return None
    if not argv or argv[0] not in _COMMANDS:
        raise ValueError(f"expected a command, one of {', '.join(_COMMANDS)}" + (f"; got {argv[0]!r}" if argv else ""))
    command, args = argv[0], iter(argv[1:])
    kinds = {"config": str, **{key: kind for key, (kind, _, _) in _OPTIONS[command].items()}} if command in _OPTIONS else {}
    flags, values = {}, []
    for arg in args:
        if arg in _HELP_FLAGS:
            print(_help([command]))
            return None
        if not arg.startswith("--"):
            values.append(arg)
            continue
        key, eq, text = arg[2:].partition("=")
        if key not in kinds:
            raise ValueError(f"unrecognized arguments: {arg}")
        if not eq:
            text = next(args, None)
            if text is None or text.startswith("--"):
                raise ValueError(f"argument --{key}: expected one value")
        flags[key] = _converted(kinds[key], text, f"--{key}")
    names, types = _COMMANDS[command][0].split(), _COMMANDS[command][1]
    if len(values) > len(names):
        raise ValueError(f"unrecognized arguments: {' '.join(values[len(names):])}")
    if len(values) < len(names):
        raise ValueError(f"missing arguments: {' '.join(names[len(values):])}")
    values = [_converted(kind, text, name) for kind, text, name in zip(types, values, names)]
    if command == "table" and values[0] not in (1, 2, 3):
        raise ValueError(f"argument <1|2|3>: expected 1, 2 or 3, got {values[0]}")
    return command, flags, values


def _cmd_table(flags: dict, which: int) -> int:
    opts = _resolve(flags, "table")
    _load("experiments")
    if which == 3:
        csv_text = experiments.table_csv(3, steps=opts["steps"], dt=opts["dt"], damping=opts["damping"])
    else:
        csv_text = experiments.table_csv(which, experiments.parse_decoder_spec(opts["decoder"]))
    md_text = experiments.table_markdown(csv_text)
    out_dir = Path(opts["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    _text.write(out_dir / f"table{which}.csv", csv_text)
    _text.write(out_dir / f"table{which}.md", md_text)
    print(f"wrote {out_dir / f'table{which}.csv'} and {out_dir / f'table{which}.md'}")
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


def _cmd_phase(flags: dict) -> int:
    opts = _resolve(flags, "phase")
    if not opts["input"] and _PHASE_PORTRAITS * (opts["steps"] + 1) > _PHASE_NODES:
        most = _PHASE_NODES // _PHASE_PORTRAITS - 1
        raise ValueError(
            f"argument --steps: {_PHASE_PORTRAITS} portraits of {opts['steps'] + 1} nodes each pass the "
            f"budget of {_PHASE_NODES} nodes; at most {most} steps"
        )
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


def _cmd_plan(path: str, src: int, dst: int) -> int:
    _load("planner")
    graph = planner.load_graph(path)
    found = planner.shortest_path(graph, src, dst)
    if found is None:
        print("unreachable")
        return 0
    path, cost = found
    print("path: " + " -> ".join(str(i) for i in path))
    print(f"cost: {fmt(cost)}")
    return 0


def main(argv=None) -> int:
    try:
        parsed = _parse(sys.argv[1:] if argv is None else list(argv))
        if parsed is None:  # help was printed
            return 0
        command, flags, values = parsed
        if command == "table":
            return _cmd_table(flags, *values)
        if command == "phase":
            return _cmd_phase(flags)
        return _cmd_plan(*values)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
