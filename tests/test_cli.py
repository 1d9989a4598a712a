"""Tests for the command-line front end."""

import hashlib
import json
import math
import os
import random
import re
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from maniflow import _rng, cli, experiments, infophase

FIXTURES = Path(__file__).parent / "fixtures"


class TestTableCommand:
    def test_writes_both_files(self, tmp_path, capsys):
        code = cli.main(["table", "1", "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "table1.csv").exists()
        assert (tmp_path / "table1.md").exists()
        assert "wrote" in capsys.readouterr().out

    def test_matches_library_emitter(self, tmp_path):
        cli.main(["table", "2", "--out", str(tmp_path)])
        assert (tmp_path / "table2.csv").read_text() == experiments.table_csv(2)

    def test_deterministic_bytes(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        cli.main(["table", "3", "--out", str(a)])
        cli.main(["table", "3", "--out", str(b)])
        assert (a / "table3.csv").read_bytes() == (b / "table3.csv").read_bytes()
        assert (a / "table3.md").read_bytes() == (b / "table3.md").read_bytes()

    def test_table3_grid_flags(self, tmp_path):
        code = cli.main(
            ["table", "3", "--out", str(tmp_path), "--steps", "10", "--dt", "0.1"]
        )
        assert code == 0
        expected = experiments.table_csv(3, steps=10, dt=0.1, damping=0.05)
        assert (tmp_path / "table3.csv").read_text() == expected

    def test_decoder_flag(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        cli.main(["table", "1", "--out", str(a)])
        cli.main(["table", "1", "--out", str(b), "--decoder", "gap:0.5"])
        assert (a / "table1.csv").read_text() != (b / "table1.csv").read_text()

    def test_bad_decoder_spec(self, tmp_path, capsys):
        code = cli.main(["table", "1", "--out", str(tmp_path), "--decoder", "mlp"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_table_number(self, tmp_path, capsys):
        assert cli.main(["table", "9", "--out", str(tmp_path)]) == 2

    def test_table3_runs_once(self, tmp_path, monkeypatch):
        calls = []
        run = experiments.toy3_run

        def counted(**kwargs):
            calls.append(kwargs)
            return run(**kwargs)

        monkeypatch.setattr(experiments, "toy3_run", counted)
        assert cli.main(["table", "3", "--out", str(tmp_path)]) == 0
        assert len(calls) == 1
        csv_text = (tmp_path / "table3.csv").read_text()
        assert (tmp_path / "table3.md").read_text() == experiments.table_markdown(csv_text)

    def test_other_runtime_error_propagates(self, tmp_path, monkeypatch):
        # only an IntegrationError becomes the one error: line
        def broken(**kwargs):
            raise RuntimeError("not an integration failure")

        monkeypatch.setattr(experiments, "toy3_run", broken)
        with pytest.raises(RuntimeError, match="not an integration failure"):
            cli.main(["table", "3", "--out", str(tmp_path)])
        assert not (tmp_path / "table3.csv").exists()


class TestDeclaredOptions:
    @pytest.mark.parametrize(
        "command, flags",
        [
            ("table", {"--out", "--config", "--steps", "--dt", "--damping", "--decoder"}),
            ("phase", {"--out", "--config", "--input", "--seed", "--steps", "--dt", "--window"}),
        ],
        ids=["table", "phase"],
    )
    def test_help_lists_only_what_it_reads(self, capsys, command, flags):
        assert cli.main([command, "--help"]) == 0
        assert set(re.findall(r"--[a-z]+", capsys.readouterr().out)) - {"--help"} == flags

    @pytest.mark.parametrize(
        "argv",
        [
            ["table", "1", "--seed", "3"],
            ["table", "2", "--window", "3"],
            ["phase", "--damping", "0.1"],
            ["phase", "--decoder", "default"],
        ],
        ids=["table-seed", "table-window", "phase-damping", "phase-decoder"],
    )
    def test_unread_flag_is_usage_error(self, tmp_path, capsys, argv):
        assert cli.main(argv + ["--out", str(tmp_path)]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv, line",
        [(["table", "1"], "seed=3"), (["phase"], "damping=0.1")],
        ids=["table-seed", "phase-damping"],
    )
    def test_unread_config_key_rejected(self, tmp_path, capsys, argv, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        out = tmp_path / "out"
        assert cli.main(argv + ["--out", str(out), "--config", str(cfg)]) == 2
        assert "unknown key" in capsys.readouterr().err
        assert not out.exists()

    def test_phase_config_supplies_input_and_window(self, tmp_path):
        src = FIXTURES / "distributions.txt"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"input={src}\nwindow=3\n")
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert cli.main(["phase", "--out", str(a), "--config", str(cfg)]) == 0
        assert cli.main(["phase", "--out", str(b), "--input", str(src), "--window", "3"]) == 0
        assert (a / "portrait.csv").read_bytes() == (b / "portrait.csv").read_bytes()


class TestOptionChecks:
    @pytest.mark.parametrize(
        "argv, config, error",
        [
            (["table", "1"], "dt=0", ""),
            (["table", "2"], "steps=0", ""),
            (["table", "3"], "decoder=mlp", ""),
            (["phase", "--input", str(FIXTURES / "distributions.txt")], "steps=0", ""),
            (["phase", "--seed", "1"], "window=2", ""),
            (["table", "3"], "dt=0", "error: dt must be finite and > 0, got 0.0\n"),
            (["phase", "--seed", "1"], "dt=0", "error: dt must be finite and > 0, got 0.0\n"),
            (
                ["phase", "--input", str(FIXTURES / "distributions.txt")],
                "window=2",
                "error: window must be an odd integer >= 1, got 2\n",
            ),
        ],
        ids=[
            "table1-dt",
            "table2-steps",
            "table3-decoder",
            "phase-input-steps",
            "phase-seed-window",
            "table3-dt",
            "phase-seed-dt",
            "phase-input-window",
        ],
    )
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_value_checked_only_where_read(self, tmp_path, capsys, argv, config, error, source):
        key, _, value = config.partition("=")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config + "\n")
        extra = [f"--{key}", value] if source == "flag" else ["--config", str(cfg)]
        out = tmp_path / "out"
        assert cli.main(argv + extra + ["--out", str(out)]) == (2 if error else 0)
        assert capsys.readouterr().err == error
        assert out.exists() != bool(error)

    @pytest.mark.parametrize(
        "argv, text, error",
        [
            (["table", "3", "--config"], "steps 10\n", "config line 1: expected key=value, got 'steps 10'"),
            (["table", "3", "--steps", "0"], None, "steps must be an integer >= 1, got 0"),
            (["phase", "--input"], "# no rows\n\n", "no distributions found in {path!r}"),
        ],
        ids=["config-line-without-equals", "table3-steps-zero", "phase-input-comments-only"],
    )
    def test_rejected_with_its_message(self, tmp_path, capsys, argv, text, error):
        path = tmp_path / "input.txt"
        if text is not None:
            path.write_text(text)
            argv = argv + [str(path)]
        out = tmp_path / "out"
        assert cli.main(argv + ["--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {error.format(path=str(path))}\n"
        assert not out.exists()


class TestConfigFile:
    def test_config_supplies_values(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("steps=10\ndt=0.1\n")
        out = tmp_path / "out"
        code = cli.main(["table", "3", "--out", str(out), "--config", str(cfg)])
        assert code == 0
        expected = experiments.table_csv(3, steps=10, dt=0.1, damping=0.05)
        assert (out / "table3.csv").read_text() == expected

    def test_flags_beat_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("steps=10\ndt=0.1\ndamping=0.5\n")
        out = tmp_path / "out"
        cli.main(
            ["table", "3", "--out", str(out), "--config", str(cfg), "--damping", "0.05"]
        )
        expected = experiments.table_csv(3, steps=10, dt=0.1, damping=0.05)
        assert (out / "table3.csv").read_text() == expected

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("velocity=3\n")
        code = cli.main(["table", "1", "--out", str(tmp_path), "--config", str(cfg)])
        assert code == 2
        assert "unknown key" in capsys.readouterr().err

    def test_comments_allowed(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# table grid\n\nsteps=10  # ticks\ndt=0.1\n")
        assert cli.main(["table", "3", "--out", str(tmp_path), "--config", str(cfg)]) == 0

    def test_bad_value_names_its_line(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("steps=abc\n")
        assert cli.main(["table", "3", "--out", str(tmp_path), "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == "error: config line 1: invalid literal for int() with base 10: 'abc'\n"


class TestPhaseCommand:
    def test_synthetic_outputs(self, tmp_path, capsys):
        code = cli.main(["phase", "--out", str(tmp_path), "--seed", "0"])
        assert code == 0
        out = capsys.readouterr().out
        assert (tmp_path / "portrait.csv").exists()
        assert (tmp_path / "field.csv").exists()
        score_line = [l for l in out.splitlines() if l.startswith("divergence_score:")][0]
        assert float(score_line.split(":")[1]) <= 0.1
        fit_line = [l for l in out.splitlines() if l.startswith("field_fit_residual:")][0]
        assert float(fit_line.split(":")[1]) < 1.0

    def test_field_csv_covers_all_cells(self, tmp_path):
        cli.main(["phase", "--out", str(tmp_path), "--seed", "0"])
        rows = (tmp_path / "field.csv").read_text().strip().split("\n")
        assert rows[0] == "u_center,e_center,vu,ve,count"
        assert len(rows) == 1 + 12 * 12

    def test_negative_seed_is_numpys_error(self, tmp_path, capsys):
        with pytest.raises(ValueError, match="^expected non-negative integer$"):
            np.random.default_rng(-1)
        assert cli.main(["phase", "--seed", "-1", "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == "error: expected non-negative integer\n"

    def test_seed_determinism(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        c = tmp_path / "c"
        cli.main(["phase", "--out", str(a), "--seed", "3"])
        cli.main(["phase", "--out", str(b), "--seed", "3"])
        cli.main(["phase", "--out", str(c), "--seed", "4"])
        assert (a / "field.csv").read_bytes() == (b / "field.csv").read_bytes()
        assert (a / "field.csv").read_bytes() != (c / "field.csv").read_bytes()

    def test_input_file_portrait(self, tmp_path, capsys):
        code = cli.main(
            ["phase", "--input", str(FIXTURES / "distributions.txt"), "--out", str(tmp_path)]
        )
        assert code == 0
        rows = (tmp_path / "portrait.csv").read_text().strip().split("\n")
        assert rows[0] == "t,u,e"
        assert len(rows) == 6
        u0 = float(rows[1].split(",")[1])
        np.testing.assert_allclose(u0, np.log(4.0), atol=1e-9)
        # entropies shrink down the file, so efforts are positive after t=0
        efforts = [float(r.split(",")[2]) for r in rows[2:]]
        assert all(e > 0 for e in efforts)

    def test_one_hot_rows_print_zero(self, tmp_path):
        src = tmp_path / "one_hot.txt"
        src.write_text("1 0\n0 1\n")
        assert cli.main(["phase", "--input", str(src), "--out", str(tmp_path)]) == 0
        assert (tmp_path / "portrait.csv").read_text() == "t,u,e\n0,0,0\n1,0,0\n"

    def test_zero_width_cells_are_unavailable(self, tmp_path, capsys):
        # shuffles of one distribution differ in entropy by an ulp or two, so
        # the u edges of the field repeat and a cell has zero width
        rng = random.Random(0)
        dist = [rng.random() for _ in range(16)]
        dist = [p / sum(dist) for p in dist]
        rows = []
        for _ in range(300):
            rng.shuffle(dist)
            rows.append(" ".join(map(repr, dist)))
        src = tmp_path / "shuffles.txt"
        src.write_text("\n".join(rows) + "\n")
        assert cli.main(["phase", "--input", str(src), "--out", str(tmp_path)]) == 0
        report = capsys.readouterr().out.splitlines()[:2]
        assert [line.partition(" (")[0] for line in report] == [
            "divergence_score: unavailable",
            "field_fit_residual: unavailable",
        ]
        assert all("(grid cells have zero width: du = 0.0, " in line for line in report)

    def test_smoothing_window_applied(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        src = str(FIXTURES / "distributions.txt")
        cli.main(["phase", "--input", src, "--out", str(a)])
        cli.main(["phase", "--input", src, "--out", str(b), "--window", "3"])
        assert (a / "portrait.csv").read_text() != (b / "portrait.csv").read_text()

    def test_even_window_fails(self, tmp_path, capsys):
        code = cli.main(
            ["phase", "--input", str(FIXTURES / "distributions.txt"),
             "--out", str(tmp_path), "--window", "2"]
        )
        assert code == 2
        assert "odd" in capsys.readouterr().err

    def test_missing_input_file(self, tmp_path, capsys):
        code = cli.main(["phase", "--input", str(tmp_path / "nope.txt"), "--out", str(tmp_path)])
        assert code == 2


class TestSeedReplica:
    """``_rng.DefaultRng`` replays ``np.random.default_rng(seed).uniform`` bit for bit."""

    @pytest.mark.parametrize("seed", [*range(8), 2**32 - 1, 2**32, 2**64 + 5, 2**128 + 9])
    def test_uniform_draws_are_numpys(self, seed):
        want, got = np.random.default_rng(seed), _rng.DefaultRng(seed)
        for k in range(300):  # the draws rotation_portraits makes, alternately
            low, high = (0.3, 1.5) if k % 2 == 0 else (0.0, 2.0 * math.pi)
            assert got.uniform(low, high) == want.uniform(low, high), k

    def test_negative_seed_raises_numpys_error(self):
        with pytest.raises(ValueError) as want:
            np.random.default_rng(-1)
        with pytest.raises(ValueError) as got:
            _rng.DefaultRng(-1)
        assert str(got.value) == str(want.value)

    def test_seeded_portraits_are_numpys(self):
        args = (12, 30, 0.05)
        mine = experiments.rotation_portraits(*args, _rng.DefaultRng(3))
        numpys = experiments.rotation_portraits(*args, np.random.default_rng(3))
        for a, b in zip(mine, numpys):
            np.testing.assert_array_equal(a.u, b.u)
            np.testing.assert_array_equal(a.e, b.e)


class TestPlanCommand:
    def test_two_hop_route(self, capsys):
        code = cli.main(["plan", str(FIXTURES / "triangle.graph"), "0", "2"])
        assert code == 0
        out = capsys.readouterr().out.strip().split("\n")
        assert out[0] == "path: 0 -> 1 -> 2"
        assert out[1] == "cost: 2"

    def test_unreachable_prints_and_succeeds(self, tmp_path, capsys):
        p = tmp_path / "g.graph"
        p.write_text("n 3\ne 0 1 1.0\n")
        code = cli.main(["plan", str(p), "0", "2"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "unreachable"

    def test_overflowing_route_is_an_error(self, tmp_path, capsys):
        p = tmp_path / "g.graph"
        p.write_text("n 3\ne 0 1 1e308\ne 1 2 1e308\n")
        assert cli.main(["plan", str(p), "0", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: node 2 is reachable from 0, but the route's cost overflows\n"
        assert captured.out == ""

    def test_missing_graph_file(self, tmp_path, capsys):
        code = cli.main(["plan", str(tmp_path / "none.graph"), "0", "1"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_graph_file(self, tmp_path, capsys):
        p = tmp_path / "g.graph"
        p.write_text("n 2\ne 0 1\n")
        code = cli.main(["plan", str(p), "0", "1"])
        assert code == 2


class TestParser:
    def test_missing_command(self, capsys):
        assert cli.main([]) == 2

    def test_unknown_command(self, capsys):
        assert cli.main(["publish"]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["publish"],
            ["table"],
            ["plan", "g.graph", "0"],
            ["table", "1", "2"],
            ["plan", "g.graph", "0", "1", "2"],
            ["table", "9"],
            ["table", "x"],
            ["table", "1", "--seed", "3"],
            ["table", "1", "--ou", "DIR"],
            ["phase", "-x"],
            ["table", "1", "--steps"],
            ["table", "1", "--steps", "--dt", "0.1"],
            ["table", "1", "--steps", "x"],
            ["table", "1", "--steps=x"],
            ["phase", "--seed", "1.5"],
            ["plan", "g.graph", "x", "1"],
        ],
        ids=[
            "no-command",
            "unknown-command",
            "missing-table-number",
            "missing-plan-target",
            "extra-table-positional",
            "extra-plan-positional",
            "table-9",
            "table-x",
            "unknown-flag",
            "flag-prefix",
            "unknown-short-flag",
            "flag-without-value",
            "flag-followed-by-flag",
            "value-does-not-convert",
            "inline-value-does-not-convert",
            "seed-not-an-int",
            "plan-source-not-an-int",
        ],
    )
    def test_usage_error_is_one_line(self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        if argv[:1] in (["table"], ["phase"]):
            argv = argv[:1] + ["--out", "out"] + argv[1:]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    def test_inline_value_equals_separate_value(self, tmp_path):
        # and a repeated flag keeps its last value
        a, b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["table", "3", "--steps", "7", "--steps=10", f"--out={a}"]) == 0
        assert cli.main(["table", "3", "--steps", "10", "--out", str(b)]) == 0
        assert (a / "table3.csv").read_bytes() == (b / "table3.csv").read_bytes()
        assert (a / "table3.csv").read_text() == experiments.table_csv(3, steps=10, dt=0.1, damping=0.05)

    def test_flag_and_config_value_share_one_conversion(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("steps=x\n")
        assert cli.main(["table", "3", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 2
        assert cli.main(["table", "3", "--steps", "x", "--out", str(tmp_path / "b")]) == 2
        reason = "invalid literal for int() with base 10: 'x'"
        assert capsys.readouterr().err == f"error: config line 1: {reason}\nerror: argument --steps: {reason}\n"

    @pytest.mark.parametrize("argv", [["-h"], ["--help"], ["plan", "--help"]], ids=["short", "long", "plan"])
    def test_help_goes_to_stdout(self, capsys, argv):
        assert cli.main(argv) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("usage: maniflow") and captured.err == ""


# values at the edges of each option type: an int past the float range, zero,
# negative, non-finite, huge and subnormal reals, and a decoder gap past them
_BOUNDARY = {
    int: ("0", "-1", str(10**400)),
    float: ("0", "-1", "nan", "inf", "1e308", "5e-324"),
    str: ("gap:inf", "gap:nan", "gap:1e308", "gap:-1e308"),
}
# each mode with each option it reads
_READERS = [
    ("table1", ["table", "1"], "decoder"),
    ("table2", ["table", "2"], "decoder"),
    ("table3", ["table", "3"], "steps"),
    ("table3", ["table", "3"], "dt"),
    ("table3", ["table", "3"], "damping"),
    ("phase-seed", ["phase", "--seed", "1"], "steps"),
    ("phase-seed", ["phase", "--seed", "1"], "dt"),
    ("phase-seed", ["phase"], "seed"),
    ("phase-input", ["phase", "--input", str(FIXTURES / "distributions.txt")], "window"),
]
_SWEEP = [
    pytest.param([*argv, f"--{key}", value], id=f"{mode}-{key}-{'10**400' if len(value) > 20 else value}")
    for mode, argv, key in _READERS
    for value in _BOUNDARY[cli._OPTIONS[argv[0]][key][0]]
]


class TestNumericInput:
    @pytest.mark.parametrize("argv", _SWEEP)
    def test_boundary_value_exits_cleanly(self, tmp_path, capsys, argv):
        # exit 0, or exit 2 with one error: line; never a traceback
        code = cli.main(argv + ["--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert (code, err) == (0, "") or (code == 2 and err.startswith("error: ") and err.count("\n") == 1)

    @pytest.mark.parametrize(
        "argv, written",
        [
            (["table", "3", "--dt", "0"], "table3.csv"),
            (["table", "3", "--dt", "50", "--steps", "200"], "table3.csv"),
            (["table", "3", "--dt", "-0.1"], "table3.csv"),
            (["table", "1", "--decoder", "gap:nan"], "table1.csv"),
            (["phase", "--dt", "nan"], "portrait.csv"),
            (["table", "3", "--damping", "nan"], "table3.csv"),
            (["table", "3", "--damping", "inf"], "table3.csv"),
            (["phase", "--dt", "1e306"], "portrait.csv"),
            (["phase", "--input", str(FIXTURES / "distributions.txt"), "--window", "0"], "portrait.csv"),
            (["phase", "--seed", "-1"], "portrait.csv"),
            (["table", "3", "--damping", "1e300"], "table3.csv"),
            (["table", "3", "--dt", "1", "--steps", "2000"], "table3.csv"),
            (["table", "3", "--dt", "1.5", "--steps", "600", "--damping", "3"], "table3.csv"),
        ],
        ids=[
            "dt-zero",
            "dt-diverges",
            "dt-negative",
            "gap-nan",
            "phase-dt-nan",
            "damping-nan",
            "damping-inf",
            "phase-time-overflows",
            "phase-window-zero",
            "phase-seed-negative",
            "damped-overflows",
            "euler-overflows",
            "damped-diverges",
        ],
    )
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_rejected_with_one_line(self, tmp_path, capsys, argv, written):
        assert cli.main(argv + ["--out", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert captured.out == ""
        assert not (tmp_path / written).exists()

    # gap - (-gap) overflows to inf: the shifted logit is -inf and its weight
    # 0, with no overflow warning on stderr; each run ends on a one-hot
    # read-out, whose entropy prints as 0, not -0
    @pytest.mark.parametrize("scale", ["1e308", "-1e308"])
    @pytest.mark.parametrize("which", ["1", "2"])
    def test_huge_decoder_gap_is_quiet(self, tmp_path, capsys, which, scale):
        assert cli.main(["table", which, "--decoder", f"gap:{scale}", "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().err == ""
        header, *rows = [line.split(",") for line in (tmp_path / f"table{which}.csv").read_text().splitlines()]
        cells = [float(cell) for row in rows for cell in row[2:]]
        assert all(map(math.isfinite, cells))
        assert [row[header.index("u_final")] for row in rows] == ["0"] * len(rows)

    @pytest.mark.parametrize(
        "argv, run",
        [
            (["--dt", "50", "--steps", "200"], "leapfrog"),
            (["--dt", "1", "--steps", "2000"], "euler"),
            (["--damping", "1e300"], "damped"),
            (["--dt", "1.5", "--steps", "600", "--damping", "3"], "damped"),
        ],
        ids=["leapfrog-diverges", "euler-overflows", "damped-overflows", "damped-diverges"],
    )
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_diverging_run_is_named(self, tmp_path, capsys, argv, run):
        assert cli.main(["table", "3", *argv, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {run} run: ")

    def test_bad_row_is_reported_before_bad_window(self, tmp_path, capsys):
        # the rows are scored before the effort series is smoothed
        src = tmp_path / "dists.txt"
        src.write_text("0.5 0.5\n0.5 0.4\n")
        assert cli.main(["phase", "--input", str(src), "--window", "2", "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == "error: line 2: distribution sums to 0.9, expected 1 within 1e-9\n"

    def test_diverging_run_error_text(self, tmp_path, capsys):
        assert cli.main(["table", "3", "--dt", "50", "--steps", "200", "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == "error: leapfrog run: non-finite state or energy at step 46\n"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_euler_overflow_names_its_step(self, tmp_path, capsys):
        # forward Euler's energy grows as (1 + dt^2)^k / 2: at dt 1.02 it first overflows at node 996
        assert cli.main(["table", "3", "--dt", "1.01", "--out", str(tmp_path / "a")]) == 0
        assert cli.main(["table", "3", "--dt", "1.02", "--out", str(tmp_path / "b")]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: euler run: non-finite state or energy at step 996\n"
        assert not (tmp_path / "b").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_nan_distribution_rejected_with_one_line(self, tmp_path, capsys):
        src = tmp_path / "dists.txt"
        src.write_text("0.5 0.5\nnan 0.5 0.5\n0.25 0.75\n")
        assert cli.main(["phase", "--input", str(src), "--out", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert captured.out == ""
        assert not (tmp_path / "portrait.csv").exists()

    @pytest.mark.parametrize(
        "row, message",
        [
            ("nan 0.5 0.5", "sums to nan"),
            ("-0.5 1.5", "negative entries"),
            ("0.5 0.4", "sums to 0.9"),
            ("nan 0.5", "sums to nan"),
        ],
        ids=["nan", "negative", "mis-summed", "nan-among-equal-rows"],
    )
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_bad_distribution_names_its_line(self, tmp_path, capsys, row, message):
        src = tmp_path / "dists.txt"
        src.write_text(f"0.5 0.5\n# the next row is line 3\n{row}\n0.25 0.75\n")
        assert cli.main(["phase", "--input", str(src), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: line 3: ") and message in err
        assert err.count("\n") == 1


class TestFailedCommandWritesNothing:
    @pytest.mark.parametrize(
        "argv",
        [
            ["phase", "--input", "one_row.txt"],
            ["table", "3", "--dt", "50", "--steps", "200"],
            ["table", "3", "--steps", "2", "--dt", "1e308"],
        ],
        ids=["phase-one-row", "table-diverges", "table-time-overflows"],
    )
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_no_out_directory(self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        Path("one_row.txt").write_text("0.5 0.5\n")
        assert cli.main(argv + ["--out", "new"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert not Path("new").exists()


# sha256 of the CLI outputs that must stay byte-identical unless a change of
# results is intended.  Stdout lines that hold the output path are left out.
GOLDEN = [
    (["table", "1"], {
        "table1.csv": "afbe3adc040363fc34a11f84f304160f3145beb263c279fa2d91f7634e485bb2",
        "table1.md": "37ec08471a2a7dee817a6f180f6fc02346c313d90bd074a9697d1c894c0688c3",
    }),
    (["table", "2"], {
        "table2.csv": "924b1a5f5fd16cc1c3635302ad06fa0b7986d59caa297b8b2e6dfa7ef2618e39",
        "table2.md": "2c8025b3b6a4e90114b381c4c90af70b1f6e5336049d6b6a3636da8ff27be2cc",
    }),
    (["table", "3"], {
        "table3.csv": "d5e41b0ff0796a44c554a9fd2b385ff1bc9b979fb7a063c95e1a80107016692d",
        "table3.md": "71326af223b600724d5aeb44ad6b9c73ff2152e726074fba6e961eb6338448e6",
    }),
    (["phase", "--seed", "3"], {
        "portrait.csv": "e90ff7fbf9593e4a9d08939d0c3d700b0cf4f0918fe5988f7f44c22555752daa",
        "field.csv": "693f51e2825caa427cc7c6efdeeee23271ac865fb4456f54f095d93fcb539105",
    }),
    (["phase", "--input", str(FIXTURES / "distributions.txt")], {
        "portrait.csv": "2b51946b1cadc89c5d4842c1e22cde90e04e59fb5e01d097f47b33fff13e9923",
        "field.csv": "ab40d2e3ee13b6fa6e6101239e49fbc796f5ebb1bdb3dc6fff0385f20a47b97b",
    }),
]
# the printed divergence score and field fit residual of ``phase --seed 3``
GOLDEN_PHASE_SEED3_STDOUT = "440a28aef6e718fb6a0a1cb8e9a6c5f9aa72a68b7366c3ded283b22a828defc6"
GOLDEN_PLAN_STDOUT = "68f561418033f567ae07ba0ca760dd1840c3969b35eb0def5d1197fc0ef8d1a5"


class TestGoldenOutputs:
    @pytest.mark.parametrize(
        "argv, digests", GOLDEN, ids=["table1", "table2", "table3", "phase-seed3", "phase-input"]
    )
    def test_output_files(self, tmp_path, capsys, argv, digests):
        assert cli.main(argv + ["--out", str(tmp_path)]) == 0
        assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in digests} == digests

    def test_phase_seed3_stdout(self, tmp_path, capsys):
        assert cli.main(["phase", "--seed", "3", "--out", str(tmp_path)]) == 0
        report = "".join(line for line in capsys.readouterr().out.splitlines(True) if not line.startswith("wrote "))
        assert hashlib.sha256(report.encode()).hexdigest() == GOLDEN_PHASE_SEED3_STDOUT

    def test_plan_stdout(self, capsys):
        assert cli.main(["plan", str(FIXTURES / "triangle.graph"), "0", "2"]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == GOLDEN_PLAN_STDOUT


def _other_interpreters() -> list[tuple[str, dict]]:
    """Every CPython >= 3.11 on PATH that starts and is not this interpreter's version, one per version.

    Each is (executable, variables it starts with).  A pyenv shim (a
    ``python3.N`` in a ``shims`` folder) starts the version pyenv selects,
    if any, and is also tried with ``PYENV_VERSION`` set to each 3.N.*
    installed in the ``versions`` folder beside it: a version that no
    pyenv setting selects starts only so.
    """
    found = {}
    for folder in os.environ.get("PATH", "").split(os.pathsep):
        folder = Path(folder or ".")
        for exe in sorted(folder.glob("python3.[0-9]*")):
            if not re.fullmatch(r"python3\.\d+", exe.name) or int(exe.name[8:]) < 11:
                continue
            pinned = [{}]
            if folder.name == "shims":
                installed = sorted((folder.parent / "versions").glob(f"{exe.name[6:]}.*"))
                pinned += [{"PYENV_VERSION": version.name} for version in installed]
            for pin in pinned:
                try:
                    run = subprocess.run(
                        [str(exe), "-c", "import platform, sys; print(platform.python_implementation(), *sys.version_info[:3])"],
                        env=dict(os.environ, **pin), capture_output=True, text=True, timeout=30,
                    )
                except (OSError, subprocess.TimeoutExpired):  # a broken link or shim does not start
                    continue
                if run.returncode != 0:
                    continue
                name, *version = run.stdout.split()
                version = tuple(map(int, version))
                if name == "CPython" and version != sys.version_info[:3]:
                    found.setdefault(version, (str(exe), pin))
    return list(found.values())


def test_golden_outputs_under_every_other_interpreter(tmp_path):
    # a summation order once differed on 3.12 only: each other CPython on PATH runs the golden commands in a
    # fresh process, which needs no numpy, and must write the same bytes
    interpreters = _other_interpreters()
    if not interpreters:
        pytest.skip("no other CPython >= 3.11 on PATH starts")
    commands = [argv for argv, _ in GOLDEN] + [["phase", "--seed", "3"], ["plan", str(FIXTURES / "triangle.graph"), "0", "2"]]
    code = (
        "import contextlib, hashlib, io, json, sys\n"
        "from pathlib import Path\n"
        "from maniflow import cli\n"
        "digests = []\n"
        f"for k, argv in enumerate({commands!r}):\n"
        f"    out = Path({str(tmp_path)!r}) / sys.argv[1] / str(k)\n"
        "    stdout = io.StringIO()\n"
        "    with contextlib.redirect_stdout(stdout):\n"
        "        assert cli.main(argv if argv[0] == 'plan' else argv + ['--out', str(out)]) == 0, argv\n"
        "    lines = ''.join(line for line in stdout.getvalue().splitlines(True) if not line.startswith('wrote '))\n"
        "    files = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.glob('*')}\n"
        "    digests.append([files, hashlib.sha256(lines.encode()).hexdigest()])\n"
        "print(json.dumps(digests))\n"
    )
    src = str(Path(cli.__file__).parents[1])
    for k, (exe, pin) in enumerate(interpreters):
        env = dict(os.environ, PYTHONPATH=src, **pin)
        run = subprocess.run([exe, "-c", code, str(k)], env=env, capture_output=True, text=True)
        assert run.returncode == 0, (exe, pin, run.stderr)
        digests = json.loads(run.stdout)
        assert [files for files, _ in digests[: len(GOLDEN)]] == [files for _, files in GOLDEN], (exe, pin)
        assert digests[-2][1] == GOLDEN_PHASE_SEED3_STDOUT and digests[-1][1] == GOLDEN_PLAN_STDOUT, (exe, pin)


def _run_capped(argv: list, cap: int) -> subprocess.CompletedProcess:
    """``maniflow`` argv in a child process whose address space the child caps at ``cap`` bytes on itself."""
    src = str(Path(cli.__file__).parents[1])
    return subprocess.run(
        [sys.executable, "-m", "maniflow.cli", *argv],
        env=dict(os.environ, PYTHONPATH=src),
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
        capture_output=True, text=True, timeout=120,
    )


def test_phase_refuses_steps_past_its_node_budget(tmp_path):
    # 150 portraits of 10^8 + 1 nodes each: the command used to fill memory until a MemoryError traceback
    # (exit 1); it now refuses before it allocates, within a 1 GB address space
    run = _run_capped(["phase", "--steps", "100000000", "--out", str(tmp_path / "out")], 1 << 30)
    assert run.returncode == 2 and run.stdout == ""
    assert run.stderr == (
        "error: argument --steps: 150 portraits of 100000001 nodes each pass the budget of 3000000 nodes; "
        "at most 19999 steps\n"
    )
    assert not (tmp_path / "out").exists()


def test_phase_steps_budget_is_the_stated_rule(tmp_path, capsys):
    assert cli.main(["phase", "--steps", "20000", "--out", str(tmp_path / "a")]) == 2
    assert "--steps" in capsys.readouterr().err
    # with --input, --steps is not read
    assert cli.main(["phase", "--input", str(FIXTURES / "distributions.txt"), "--steps", "20000",
                     "--out", str(tmp_path / "b")]) == 0


def test_table3_takes_constant_memory(tmp_path, capsys):
    # each run keeps its last node and the running maximum of its energy error: 200,000 steps of the
    # three runs peaked at 19.3 MB in tracemalloc while the nodes were kept in lists; the digests are
    # those the lists gave
    tracemalloc.start()  # experiments is imported above, so its import is not counted
    try:
        assert cli.main(["table", "3", "--steps", "200000", "--dt", "1e-4", "--out", str(tmp_path)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    digests = {
        "table3.csv": "d49730340a964de61b5e15463aeefa46e0cdf9bc1b97b0c5d92f4153211eb574",
        "table3.md": "c028c50a31726c267eb7491090c543036605a38754d1c6990fac294837c9bd45",
    }
    assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in digests} == digests


def _run_fresh(code: str) -> None:
    src = str(Path(cli.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_import_leaves_scipy_unloaded():
    _run_fresh("import sys, maniflow, maniflow.cli; assert 'scipy' not in sys.modules, 'scipy imported'")


def test_cli_import_loads_only_what_commands_use():
    _run_fresh(
        "import sys, maniflow.cli\n"
        "unused = {'numpy', 'maniflow.experiments', 'maniflow.infophase', 'maniflow.planner'} & set(sys.modules)\n"
        "assert not unused, sorted(unused)\n"
        "unused = {'maniflow.spins', 'maniflow.workspace', 'maniflow.control', 'dataclasses'} & set(sys.modules)\n"
        "assert not unused, sorted(unused)\n"
        "import maniflow\n"
        "assert maniflow.spins.micro_step and maniflow.workspace.explanation_chain\n"
        "from maniflow import control\n"
        "assert control is maniflow.control"
    )


def test_numpy_free_modules_give_out_no_arrays():
    # every value experiments and infophase give out, but a field's count and occupied, is Python numbers
    _run_fresh(
        "import sys\n"
        "from maniflow import experiments, infophase\n"
        "from maniflow._rng import DefaultRng\n"
        "dec = experiments.ToyDecoder()\n"
        "dec.distribution(0.5), dec.entropy_at(0.5), experiments.toy1_run(), experiments.toy2_run()\n"
        "por = infophase.portrait([dec.distribution(y) for y in experiments.LINEAR_PATH], 3)\n"
        "por.u, por.e, list(por.rows())\n"
        "field = infophase.empirical_field(experiments.rotation_portraits(40, 60, 0.05, DefaultRng(0)), 12)\n"
        "infophase.divergence_score(field), infophase.fit_info_hamiltonian(field), list(field.rows())\n"
        "assert 'numpy' not in sys.modules, 'numpy imported'"
    )


NEVER_RUN_BY_THE_CLI = ("maniflow.spins", "maniflow.workspace", "maniflow.control")
# no command builds a dataclass or an argparse parser: importing dataclasses
# (and the inspect it loads) or argparse (and the gettext and locale its
# messages load) would cost a fresh process more than a table's own work
NEVER_LOADED_BY_A_COMMAND = ("dataclasses", "inspect", "argparse", "gettext", "locale")


@pytest.mark.parametrize(
    "argv, unused",
    [
        (["plan", str(FIXTURES / "triangle.graph"), "0", "2"],
         {"numpy", "maniflow.experiments", "maniflow.infophase", "maniflow.manifold"}),
        (["phase", "--input", str(FIXTURES / "distributions.txt"), "--window", "3"],
         {"numpy", "maniflow.experiments", "maniflow.manifold", "maniflow.planner"}),
        (["phase", "--seed", "3"], {"numpy", "maniflow.manifold"}),
        (["table", "1"], {"numpy", "maniflow.infophase", "maniflow.manifold"}),
        (["table", "2"], {"numpy", "maniflow.infophase", "maniflow.manifold", "maniflow.planner"}),
        (["table", "3", "--steps", "10"], {"numpy", "maniflow.infophase", "maniflow.manifold", "maniflow.planner"}),
    ],
    ids=["plan", "phase-input", "phase-seed", "table1", "table2", "table3"],
)
def test_command_loads_only_what_it_runs(tmp_path, argv, unused):
    if argv[0] != "plan":
        argv = argv + ["--out", str(tmp_path)]
    unused = sorted(unused.union(NEVER_RUN_BY_THE_CLI, NEVER_LOADED_BY_A_COMMAND))
    _run_fresh(
        "import sys\n"
        "from maniflow import cli\n"
        f"assert cli.main({argv!r}) == 0\n"
        f"loaded = set({unused!r}) & set(sys.modules)\n"
        "assert not loaded, sorted(loaded)"
    )
