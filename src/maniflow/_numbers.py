"""The package's rules for a number a caller passes; numpy is imported only inside ``floats``.

A real is ``float(x)``, or inf for an int past the float range, which the caller's own
finiteness check rejects.  A count is an int, one past the float range included, or a whole float.
"""

import math


def real(x) -> float:
    """x as a float; inf for an int past the float range."""
    try:
        return float(x)
    except OverflowError:
        return math.inf


def reals(values) -> list:
    """``real`` of each value, as a list, at ``float``'s speed unless an int is past the float range."""
    values = list(values)  # an iterator would be spent by the first pass
    try:
        return list(map(float, values))
    except OverflowError:
        return list(map(real, values))


def floats(values):
    """values as a float array; each int past the float range is inf."""
    import numpy as np

    try:
        return np.asarray(values, dtype=float)
    except OverflowError:
        return np.vectorize(real, otypes=[float])(np.array(values, dtype=object))


def is_count(x, least: int) -> bool:
    """Whether x is a whole number >= least: an int, or a float with no fraction part (so not inf or NaN)."""
    return (isinstance(x, int) or real(x).is_integer()) and x >= least
