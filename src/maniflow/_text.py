"""Conventions of the text a command reads or writes: the graph, distribution and config files, and CSV.

Reals a reader sees carry 10 significant digits (``fmt``).
"""


class FormatError(ValueError):
    """A bad line of a text input; ``at(lineno, reason)`` makes its message start ``line N: ``."""
    @classmethod
    def at(cls, lineno: int, reason, what: str = "line") -> "FormatError":
        return cls(f"{what} {lineno}: {reason}")


def lines(path):
    """Yield ``(lineno, line)``, 1-based, for each line left non-empty once its ``#`` comment is cut."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = (raw.split("#", 1)[0] if "#" in raw else raw).strip()
            if line:
                yield lineno, line


def write(path, text: str) -> None:
    """Write the rendered ``text`` as UTF-8, as it is."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def fmt(x: float) -> str:
    """Reals in text outputs carry 10 significant digits."""
    return f"{x:.10g}"


def csv(header, rows) -> str:
    """CSV text: ``header``, then ``rows``, cells comma-joined, ``\\n`` after each line.

    A float cell is written by ``fmt``, any other by ``str``.  Nothing is
    quoted, since no cell holds a comma.  Cells are rendered a column at a
    time, and Python scalars (``.tolist()``) render faster than numpy ones.
    """
    columns = [[fmt(c) if isinstance(c, float) else str(c) for c in column] for column in zip(*rows, strict=True)]
    lines = [",".join(header)]
    lines += [",".join(cells) for cells in zip(*columns)]
    return "\n".join(lines) + "\n"
