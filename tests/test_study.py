import math

import pytest

from immersedfem import (ConfigError, StudyConfig, emit_table, run_study)
from immersedfem.cli import main, parse_config_file
from immersedfem.study import CSV_HEADER

SMALL = dict(dim=2, min_exp=2, max_exp=3, alphas=(0.0, 0.49))


class TestConfig:
    def test_defaults(self):
        cfg = StudyConfig()
        assert cfg.dim == 2
        assert (cfg.min_exp, cfg.max_exp) == (3, 8)
        assert cfg.center == (0.3, 0.3)
        cfg3 = StudyConfig(dim=3)
        assert (cfg3.min_exp, cfg3.max_exp) == (2, 5)

    def test_alphas_sorted_and_validated(self):
        cfg = StudyConfig(alphas=(0.49, 0.0, 0.2))
        assert cfg.alphas == (0.0, 0.2, 0.49)
        with pytest.raises(ConfigError):
            StudyConfig(alphas=(0.5,))
        with pytest.raises(ConfigError):
            StudyConfig(alphas=(-0.1,))

    def test_rejects_bad_geometry(self):
        with pytest.raises(ConfigError):
            StudyConfig(center=(0.1, 0.5), radius=0.2)
        with pytest.raises(ConfigError):
            StudyConfig(dim=3, center=(0.3, 0.3))

    def test_rejects_bad_levels(self):
        with pytest.raises(ConfigError):
            StudyConfig(min_exp=1, max_exp=3)
        with pytest.raises(ConfigError):
            StudyConfig(min_exp=4, max_exp=3)

    def test_rejects_bad_dim_and_format(self):
        with pytest.raises(ConfigError):
            StudyConfig(dim=4)
        with pytest.raises(ConfigError):
            StudyConfig(fmt="yaml")


class TestRunStudy:
    def test_single_level_has_no_rates(self):
        cfg = StudyConfig(dim=2, min_exp=2, max_exp=2, alphas=(0.0,))
        records = run_study(cfg)
        assert len(records) == 1
        assert records[0].eoc_l2 is None
        assert records[0].eoc_h1 is None

    def test_records_sorted_and_rated(self):
        records = run_study(StudyConfig(**SMALL))
        keys = [(r.n_cells_per_axis, r.alpha) for r in records]
        assert keys == sorted(keys)
        assert len(records) == 4
        fine = [r for r in records if r.n_cells_per_axis == 8]
        assert all(r.eoc_l2 is not None for r in fine)

    def test_weighted_error_smaller_at_higher_alpha(self):
        records = run_study(StudyConfig(**SMALL))
        for n in (4, 8):
            group = {r.alpha: r for r in records if r.n_cells_per_axis == n}
            assert group[0.49].err_l2 <= group[0.0].err_l2
            assert group[0.49].err_h1_semi <= group[0.0].err_h1_semi

    def test_determinism(self):
        csv_a = emit_table(run_study(StudyConfig(**SMALL)), "csv")
        csv_b = emit_table(run_study(StudyConfig(**SMALL)), "csv")
        assert csv_a.encode("utf-8") == csv_b.encode("utf-8")


class TestEmitTable:
    def test_csv_layout(self):
        records = run_study(StudyConfig(**SMALL))
        text = emit_table(records, "csv")
        lines = text.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + len(records)
        first = lines[1].split(",")
        assert first[0] == "2"
        assert first[1] == "4"
        assert first[7] == "" and first[8] == ""  # coarsest level has no rates

    def test_csv_roundtrip_rates(self):
        records = run_study(StudyConfig(**SMALL))
        text = emit_table(records, "csv")
        rows = [line.split(",") for line in text.strip().split("\n")[1:]]
        by_alpha = {}
        for row in rows:
            alpha = float(row[4])
            by_alpha.setdefault(alpha, []).append(row)
        for rows_a in by_alpha.values():
            for coarse, fine in zip(rows_a[:-1], rows_a[1:]):
                expected = math.log2(float(coarse[5]) / float(fine[5]))
                assert abs(float(fine[7]) - expected) <= 1e-12
                expected = math.log2(float(coarse[6]) / float(fine[6]))
                assert abs(float(fine[8]) - expected) <= 1e-12

    def test_markdown_groups_by_alpha(self):
        records = run_study(StudyConfig(**SMALL))
        text = emit_table(records, "markdown")
        assert text.count("## alpha") == 2
        assert "| h | n_dofs |" in text

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            emit_table([], "csv")


class TestCli:
    def test_success_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "table.csv"
        code = main(["--dim", "2", "--min-exp", "2", "--max-exp", "3",
                     "--alphas", "0,0.49", "--out", str(out)])
        assert code == 0
        lines = out.read_text(encoding="utf-8").strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 5

    def test_stdout_default(self, capsys):
        code = main(["--min-exp", "2", "--max-exp", "2", "--alphas", "0"])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.out.startswith(CSV_HEADER)

    def test_markdown_format(self, capsys):
        code = main(["--min-exp", "2", "--max-exp", "2", "--alphas", "0",
                     "--format", "markdown"])
        assert code == 0
        assert "## alpha = 0" in capsys.readouterr().out

    def test_config_error_exit_code(self, capsys):
        assert main(["--dim", "5"]) == 1
        assert main(["--radius", "0.9"]) == 1
        assert main(["--no-such-flag"]) == 1
        captured = capsys.readouterr()
        assert "error" in captured.err

    def test_solver_failure_exit_code(self, capsys):
        # an unreachable tolerance makes CG stagnate and report failure
        code = main(["--min-exp", "4", "--max-exp", "4", "--alphas", "0",
                     "--cg-tol", "1e-30"])
        assert code == 2
        assert "solver failure" in capsys.readouterr().err

    def test_config_file_and_override(self, tmp_path, capsys):
        cfg = tmp_path / "study.cfg"
        cfg.write_text(
            "# study setup\n"
            "dim = 2\n"
            "min_exp = 2\n"
            "max_exp = 4\n"
            "alphas = 0,0.49\n"
            "format = markdown\n",
            encoding="utf-8",
        )
        # flag overrides the file's max_exp and format
        code = main(["--config", str(cfg), "--max-exp", "2", "--format", "csv"])
        assert code == 0
        out = capsys.readouterr().out
        lines = out.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 3  # one level, two alphas

    def test_config_file_errors(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("unknown_key = 3\n", encoding="utf-8")
        assert main(["--config", str(bad)]) == 1
        stale = tmp_path / "stale.cfg"  # the surface rule order is not configurable
        stale.write_text("surface_order = 4\n", encoding="utf-8")
        assert main(["--config", str(stale)]) == 1
        unused = tmp_path / "unused.cfg"  # the layer width never entered the study
        unused.write_text("sigma = 1.5\n", encoding="utf-8")
        assert main(["--config", str(unused)]) == 1
        noisy = tmp_path / "noisy.cfg"
        noisy.write_text("dim 2\n", encoding="utf-8")
        assert main(["--config", str(noisy)]) == 1
        assert main(["--config", str(tmp_path / "missing.cfg")]) == 1

    def test_parse_config_file_types(self, tmp_path):
        cfg = tmp_path / "t.cfg"
        cfg.write_text("dim=3\nradius=0.15\ncenter=0.4,0.4,0.4\nout=x.csv\n",
                       encoding="utf-8")
        values = parse_config_file(str(cfg))
        assert values == {"dim": 3, "radius": 0.15,
                          "center": (0.4, 0.4, 0.4), "out": "x.csv"}
