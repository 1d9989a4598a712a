"""Conventions shared by maniflow's plain-text formats."""


def lines(path):
    """Yield ``(lineno, line)``, 1-based, for each line left non-empty once its ``#`` comment is cut."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if line:
                yield lineno, line


def fmt(x: float) -> str:
    """Reals in text outputs carry 10 significant digits."""
    return f"{x:.10g}"
