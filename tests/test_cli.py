"""Tests for the command-line front end."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from maniflow import cli, experiments, infophase

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
        expected = experiments.table_csv(3, t_final=1.0, h=0.1, damping=0.05)
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


class TestConfigFile:
    def test_config_supplies_values(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("steps=10\ndt=0.1\n")
        out = tmp_path / "out"
        code = cli.main(["table", "3", "--out", str(out), "--config", str(cfg)])
        assert code == 0
        expected = experiments.table_csv(3, t_final=1.0, h=0.1, damping=0.05)
        assert (out / "table3.csv").read_text() == expected

    def test_flags_beat_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("steps=10\ndt=0.1\ndamping=0.5\n")
        out = tmp_path / "out"
        cli.main(
            ["table", "3", "--out", str(out), "--config", str(cfg), "--damping", "0.05"]
        )
        expected = experiments.table_csv(3, t_final=1.0, h=0.1, damping=0.05)
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


class TestNumericInput:
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
            (["phase", "--window", "0"], "portrait.csv"),
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


def test_import_leaves_scipy_unloaded():
    src = str(Path(cli.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, maniflow, maniflow.cli; assert 'scipy' not in sys.modules, 'scipy imported'"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
