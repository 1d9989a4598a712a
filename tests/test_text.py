"""Tests for the shared text conventions: the ``line N:`` error, the file write and the CSV renderer."""

from pathlib import Path

import numpy as np
import pytest

from maniflow import _text, cli, planner

SRC = Path(_text.__file__).parent


def test_text_module_owns_line_prefix_and_file_open():
    owners = sorted(p.name for p in SRC.glob("*.py") if "line {" in p.read_text() or "open(" in p.read_text())
    assert owners == ["_text.py"]


def test_text_is_read_only_where_a_command_reads_it():
    # the graph file (plan), the distribution file (phase --input) and the config
    assert sorted(p.name for p in SRC.glob("*.py") if "_text.lines(" in p.read_text()) == ["cli.py", "planner.py"]


def test_numbers_module_owns_overflow_handling():
    assert sorted(p.name for p in SRC.glob("*.py") if "except OverflowError" in p.read_text()) == ["_numbers.py"]


def test_no_runtime_error_is_raised():
    # a failure an input causes is a ValueError
    assert [p.name for p in SRC.glob("*.py") if "RuntimeError" in p.read_text()] == []


@pytest.mark.parametrize(
    "read, text, message",
    [
        (planner.load_graph, "n 2\n# edges\ne 0 1 x\n", "line 3: could not convert string to float: 'x'"),
        (
            lambda p: cli._load_config(p, "table"),
            "# grid\nsteps=abc\n",
            "config line 2: invalid literal for int() with base 10: 'abc'",
        ),
        (lambda p: cli._input_portrait(p, 1), "0.5 0.5\n0.5 x\n", "line 2: bad probability value"),
    ],
    ids=["graph", "config", "distributions"],
)
def test_bad_line_is_format_error(tmp_path, read, text, message):
    p = tmp_path / "input.txt"
    p.write_text(text)
    with pytest.raises(_text.FormatError) as caught:
        read(p)
    assert str(caught.value) == message


def test_rendered_text_is_written_as_is(tmp_path):
    p = tmp_path / "out.csv"
    _text.write(p, "a,b\n1,2\n")
    assert p.read_bytes() == b"a,b\n1,2\n"


def test_text_module_owns_csv_joins():
    assert sorted(p.name for p in SRC.glob("*.py") if '",".join' in p.read_text()) == ["_text.py"]


@pytest.mark.parametrize(
    "cell, text",
    [
        (-0.0, "-0"),
        (np.inf, "inf"),
        (-np.inf, "-inf"),
        (np.nan, "nan"),
        (5e-324, "4.940656458e-324"),
        (np.float64(0.1) * 3, "0.3"),
        (3, "3"),
        (np.int64(12345678901), "12345678901"),
        ("", ""),
        ("linear", "linear"),
        ("2->1.5", "2->1.5"),
    ],
    ids=["neg-zero", "inf", "neg-inf", "nan", "subnormal", "np-float64", "int", "np-int64", "empty", "label", "path"],
)
def test_csv_cell_rule(cell, text):
    assert _text.csv(["x"], [[cell]]) == f"x\n{text}\n"
    if isinstance(cell, float):
        assert text == _text.fmt(cell)


def test_csv_lines():
    assert _text.csv(["a", "b"], []) == "a,b\n"
    assert _text.csv(["a", "b"], [(1, 0.5), ("x", 2.0)]) == "a,b\n1,0.5\nx,2\n"
    assert _text.csv(["a", "b"], iter([(1, 0.5)])) == "a,b\n1,0.5\n"
    with pytest.raises(ValueError):
        _text.csv(["a", "b"], [(1, 0.5), ("x",)])
