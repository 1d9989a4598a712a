"""Tests for the shared text conventions: the ``line N:`` error and the file write."""

from pathlib import Path

import pytest

from maniflow import _text, cli, manifold, planner, workspace

SRC = Path(_text.__file__).parent


def test_text_module_owns_line_prefix_and_file_open():
    owners = sorted(p.name for p in SRC.glob("*.py") if "line {" in p.read_text() or "open(" in p.read_text())
    assert owners == ["_text.py"]


@pytest.mark.parametrize(
    "read, text, message",
    [
        (planner.load_graph, "n 2\n# edges\ne 0 1 x\n", "line 3: could not convert string to float: 'x'"),
        (
            workspace.load_workspace,
            "node A actor Alice\n\nedge causal A A\n",
            "line 3: causal edge must connect event->event, got actor->actor",
        ),
        (manifold.load_decoder, "decoder linear\nlayer 1 1\n1\nx\n", "line 2: could not convert string to float: 'x'"),
        (
            lambda p: cli._load_config(p, "table"),
            "# grid\nsteps=abc\n",
            "config line 2: invalid literal for int() with base 10: 'abc'",
        ),
        (lambda p: cli._input_portrait(p, 1), "0.5 0.5\n0.5 x\n", "line 2: bad probability value"),
    ],
    ids=["graph", "workspace", "decoder", "config", "distributions"],
)
def test_bad_line_is_format_error(tmp_path, read, text, message):
    p = tmp_path / "input.txt"
    p.write_text(text)
    with pytest.raises(_text.FormatError) as caught:
        read(p)
    assert str(caught.value) == message


def test_write_renders_rows_before_opening(tmp_path):
    def rows():
        yield "first"
        raise ValueError("row 2 cannot be rendered")

    p = tmp_path / "out.txt"
    with pytest.raises(ValueError, match="row 2"):
        _text.write(p, rows())
    assert not p.exists()
