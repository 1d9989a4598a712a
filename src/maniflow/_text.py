"""Conventions shared by maniflow's plain-text formats."""


class FormatError(ValueError):
    """A bad line of a text input; ``at(lineno, reason)`` makes its message start ``line N: ``."""
    @classmethod
    def at(cls, lineno: int, reason, what: str = "line") -> "FormatError":
        return cls(f"{what} {lineno}: {reason}")


def lines(path):
    """Yield ``(lineno, line)``, 1-based, for each line left non-empty once its ``#`` comment is cut."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if line:
                yield lineno, line


def write(path, rows) -> None:
    """Write ``rows`` as UTF-8, one ``\\n`` after each; all are rendered before the file is opened."""
    text = "".join(f"{row}\n" for row in rows)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def fmt(x: float) -> str:
    """Reals in text outputs carry 10 significant digits."""
    return f"{x:.10g}"
