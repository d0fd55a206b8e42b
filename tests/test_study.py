import csv
import ctypes
import dataclasses
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import element_scatter_stiffness, eliminate
from immersedfem import (ConfigError, ConvergenceRecord, FeSpace, SphericalInterface,
                         StudyConfig, assemble_interface_load, build_uniform_mesh, emit_table,
                         reference_solution, run_study, solve, study, weighted_errors)
from immersedfem.cli import build_parser, main
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
        with pytest.raises(ConfigError):
            StudyConfig(alphas=(0.1, 0.1))
        # these raised TypeError, or for "0" were taken as (0.0,); the ragged
        # list raised numpy's message, which does not name the field
        for alphas in (0.3, None, "0", [[0.1, 0.2]], [0.1, [0.2]]):
            with pytest.raises(ConfigError, match="alphas"):
                StudyConfig(alphas=alphas)

    def test_rejects_bad_geometry(self):
        with pytest.raises(ConfigError):
            StudyConfig(center=(0.1, 0.5), radius=0.2)
        with pytest.raises(ConfigError):
            StudyConfig(dim=3, center=(0.3, 0.3))
        with pytest.raises(ConfigError):
            StudyConfig(center=(math.nan, math.nan))
        with pytest.raises(ConfigError):
            StudyConfig(radius=math.nan)
        # the messages name the field; the length is checked before the
        # interface is built, so a 3D centre in 2D is not a dimension clash
        for bad, field in ((dict(center=(0.3, "a")), "center"),
                           (dict(center=(0.3, 0.3, 0.3)), "center must have 2"),
                           (dict(center=0.3), "center must have 2"),
                           (dict(radius=True), "radius"),
                           (dict(radius=np.array([0.2])), "radius")):
            with pytest.raises(ConfigError, match=field):
                StudyConfig(**bad)

    def test_rejects_bad_levels(self):
        with pytest.raises(ConfigError):
            StudyConfig(min_exp=1, max_exp=3)
        with pytest.raises(ConfigError):
            StudyConfig(min_exp=4, max_exp=3)
        # the levels, the degree and the dimension are integers, not floats
        # or booleans that would fail later inside the study
        for bad in (dict(dim=2.0), dict(degree=1.5), dict(min_exp=2.5), dict(max_exp=3.0),
                    dict(degree=True), dict(dim=3, min_exp=False), dict(max_exp=np.float64(5.0)),
                    dict(degree=np.bool_(True))):
            with pytest.raises(ConfigError, match="must be an integer"):
                StudyConfig(**bad)
        # numpy integers are integers, as for Mesh and FeSpace, and are
        # stored as Python ints
        cfg = StudyConfig(dim=np.int64(3), min_exp=np.int32(2), max_exp=np.int64(5),
                          degree=np.uint8(2))
        assert (cfg.dim, cfg.min_exp, cfg.max_exp, cfg.degree) == (3, 2, 5, 2)
        assert all(type(v) is int for v in (cfg.dim, cfg.min_exp, cfg.max_exp, cfg.degree))

    def test_rejects_bad_dim_and_format(self, capsys):
        with pytest.raises(ConfigError):
            StudyConfig(dim=4)
        # the CLI leaves the range to the config and reports its message
        assert main(["--dim", "4"]) == 1
        assert capsys.readouterr().err == "error: dim must be an integer in [2, 3], got 4\n"
        # the format is the table's, not the study's: emit_table and the
        # CLI's flag check it
        record = ConvergenceRecord(dim=2, n_cells_per_axis=4, h=math.sqrt(2.0) / 4, n_dofs=25,
                                   alpha=0.0, err_l2=1.0, err_h1_semi=1.0)
        with pytest.raises(ValueError, match="format"):
            emit_table([record], "yaml")
        assert main(["--format", "yaml"]) == 1
        assert "invalid choice" in capsys.readouterr().err


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

    def test_matches_direct_solve(self):
        # the weighted errors are those of the discrete solution: a direct
        # solve of every level, refined once, gives the same
        from scipy.sparse.linalg import splu

        config = StudyConfig(dim=2, min_exp=3, max_exp=7)
        records = run_study(config)
        interface = SphericalInterface(config.center, config.radius)
        exact = reference_solution(interface)
        for n_c in (8, 16, 32, 64, 128):
            space = FeSpace(build_uniform_mesh(2, n_c), 1)
            load = assemble_interface_load(space, interface, exact.density)
            matrix, rhs = eliminate(element_scatter_stiffness(space), load, space,
                                    exact.values)
            lu = splu(matrix.tocsc())
            direct = lu.solve(rhs)
            direct += lu.solve(rhs - matrix @ direct)
            errors = weighted_errors(space, direct, exact, interface, config.alphas)
            for r in (r for r in records if r.n_cells_per_axis == n_c):
                assert r.err_l2 == pytest.approx(errors[(r.alpha, 0)], rel=1e-9)
                assert r.err_h1_semi == pytest.approx(errors[(r.alpha, 1)], rel=1e-9)

    def test_determinism(self):
        csv_a = emit_table(run_study(StudyConfig(**SMALL)), "csv")
        csv_b = emit_table(run_study(StudyConfig(**SMALL)), "csv")
        assert csv_a.encode("utf-8") == csv_b.encode("utf-8")


class TestGoldenCsv:
    """Whole study CSVs, frozen: a change that moves any error or rate by
    more than 1e-10 relative shows here."""

    @pytest.mark.parametrize("name, flags", [
        ("dim2-q1-max-exp6.csv", ["--dim", "2", "--max-exp", "6"]),
        ("dim2-q2-max-exp5.csv", ["--dim", "2", "--degree", "2", "--max-exp", "5"]),
        ("dim3-q1-max-exp3.csv", ["--dim", "3", "--max-exp", "3"]),
    ])
    def test_matches_frozen_csv(self, tmp_path, name, flags):
        # whole CSV files frozen from the error pass before its kernels were
        # vectorised over pieces, frames and exponents: every error and rate
        # within 1e-10 relative (ROADMAP aim 1), every other field equal
        out = tmp_path / name
        assert main(flags + ["--out", str(out)]) == 0
        with open(Path(__file__).parent / "golden" / name, newline="", encoding="utf-8") as f:
            want = list(csv.DictReader(f))
        with open(out, newline="", encoding="utf-8") as f:
            got = list(csv.DictReader(f))
        assert len(got) == len(want) and got[0].keys() == want[0].keys()
        measured = ("err_L2_alpha", "err_H1semi_alpha", "eoc_L2", "eoc_H1")
        for row, golden in zip(got, want):
            for key, text in golden.items():
                if key not in measured or text == "":
                    assert row[key] == text, key
                else:
                    assert float(row[key]) == pytest.approx(float(text), rel=1e-10, abs=0.0), key


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

    def test_config_error_exit_code(self, tmp_path, capsys):
        assert main(["--dim", "5"]) == 1
        assert main(["--radius", "0.9"]) == 1
        assert main(["--no-such-flag"]) == 1
        assert main(["--center", "nan,nan"]) == 1
        assert main(["--radius", "nan"]) == 1
        # stale settings: the config file and the layer width are gone, the
        # cut-cell rule has no depth, the error and surface rules have fixed
        # sizes, and the solve is direct with no tolerance to set
        for stale in ("--config", "--sigma", "--cut-depth", "--quad-points",
                      "--surface-order", "--cg-tol"):
            assert main([stale, "4"]) == 1
        assert main(["--alphas", "0.1,0.1"]) == 1
        captured = capsys.readouterr()
        assert "error" in captured.err
        # an unwritable output path is a configuration error too; an empty
        # path names no file, so nothing goes to stdout in its place
        for path in (str(tmp_path / "missing" / "x.csv"), ""):
            code = main(["--min-exp", "2", "--max-exp", "2", "--alphas", "0", "--out", path])
            assert code == 1
            captured = capsys.readouterr()
            assert captured.err.startswith("error: cannot write") and captured.out == ""

    @pytest.mark.parametrize("dim, radius", [("2", "1e-17"), ("3", "1e-200")])
    def test_surface_too_small_for_its_rule(self, dim, radius, capsys):
        # the interface refuses a radius below its floor: one error line, no
        # table, no traceback and no numpy warning (warnings are errors here)
        assert main(["--dim", dim, "--radius", radius, "--max-exp", "3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: radius must be finite and at least")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("dim, max_exp", [("2", "4"), ("3", "3")])
    def test_surface_a_few_ulps_across(self, dim, max_exp, tmp_path, capsys):
        # a surface a few ulps of its centre across (1e-16) or some ten
        # thousand (1e-12) once ran with a load 21-25% low or up to 2.6e-5
        # off; it is refused, and at the floor the study ends with finite
        # errors
        out = tmp_path / "tiny.csv"
        for radius in ("1e-16", "1e-12"):
            assert main(["--dim", dim, "--radius", radius, "--max-exp", max_exp,
                         "--out", str(out)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: radius must be finite and at least")
            assert err.count("\n") == 1
            assert not out.exists()
        assert main(["--dim", dim, "--radius", "1e-8", "--max-exp", max_exp,
                     "--out", str(out)]) == 0
        with open(out, encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        assert rows and all(math.isfinite(float(row[key])) for row in rows
                            for key in ("err_L2_alpha", "err_H1semi_alpha"))

    @pytest.mark.parametrize("flag, value", [("--alphas", "a,b"), ("--center", "0.3,x")])
    def test_bad_number_list_message(self, flag, value, capsys):
        # the message says what the flag takes, not which function parsed it
        assert main([flag, value]) == 1
        err = capsys.readouterr().err
        assert "comma-separated" in err and "_float_tuple" not in err

    def test_solver_failure_exit_code(self, monkeypatch, capsys):
        # a solution off by more than the residual bound allows, or not
        # finite, is a solver failure; the residual is the perturbed vector's
        def perturbed(space, load, g):
            solution, _ = solve(space, load, g)
            interior = np.setdiff1d(np.arange(space.n_dofs), space.boundary_dofs)
            solution[interior[0]] += perturbation
            matrix, rhs = eliminate(element_scatter_stiffness(space), load, space, g)
            return solution, float(np.linalg.norm(rhs - matrix @ solution)
                                   / np.linalg.norm(rhs))

        monkeypatch.setattr(study, "solve", perturbed)
        for perturbation in (1e-6, math.nan):
            code = main(["--min-exp", "4", "--max-exp", "4", "--alphas", "0"])
            assert code == 2
            assert "solver failure" in capsys.readouterr().err

    def test_readme_cli_examples_parse(self, tmp_path, monkeypatch):
        # the fenced sh blocks under "## CLI": the flags file of a heredoc is
        # written, and every ifem-study line is parsed, not run, so a renamed
        # or deleted flag fails here instead of leaving the README stale
        readme = Path(__file__).resolve().parent.parent / "README.md"
        section = readme.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
        blocks = re.findall(r"```sh\n(.*?)```", section.split("\n## ", 1)[0], re.S)
        monkeypatch.chdir(tmp_path)
        for name, text in re.findall(r"cat > (\S+) <<'EOF'\n(.*?)^EOF$", "".join(blocks),
                                     re.S | re.M):
            (tmp_path / name).write_text(text, encoding="utf-8")
        lines = [line for block in blocks for line in block.splitlines()
                 if line.startswith("ifem-study ")]
        assert lines and (tmp_path / "study.args").exists()
        parser = build_parser()
        for line in lines:
            parser.parse_args(shlex.split(line, comments=True)[1:])
        # the flags named in the comments too
        known = set(parser._option_string_actions)
        assert set(re.findall(r"--[a-z][a-z-]*", "".join(blocks))) <= known

    def test_flags_file_and_override(self, tmp_path, capsys):
        flags = tmp_path / "study.args"
        flags.write_text(
            "# study setup\n"
            "--dim 2   # the plane\n"
            "\n"
            "--min-exp 2 --max-exp 4\n"
            "--alphas 0,0.49\n"
            "--format markdown\n",
            encoding="utf-8",
        )
        # flags after the file win over its max-exp and format
        code = main([f"@{flags}", "--max-exp", "2", "--format", "csv"])
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 3  # one level, two alphas
        # and the file's flags win over those before it
        assert main(["--max-exp", "2", f"@{flags}"]) == 0
        assert capsys.readouterr().out.startswith("## alpha = 0")

    def test_flags_file_errors(self, tmp_path, capsys):
        # an unknown flag inside the file: the solve is direct, with no tolerance
        bad = tmp_path / "bad.args"
        bad.write_text("--dim 2\n--cg-tol 1e-12\n", encoding="utf-8")
        assert main([f"@{bad}"]) == 1
        assert "unrecognized arguments: --cg-tol" in capsys.readouterr().err
        assert main([f"@{tmp_path / 'missing.args'}"]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_study_reuses_freed_heap(self, tmp_path):
        # main pins glibc's mmap and trim thresholds, so the freed grid- and
        # block-sized temporaries are reused, not faulted in again: the study
        # adds about 3k minor page faults, and 37k-39k with glibc's dynamic
        # thresholds
        try:
            has_mallopt = hasattr(ctypes.CDLL(None), "mallopt")
        except (OSError, TypeError):
            has_mallopt = False
        if not has_mallopt:
            pytest.skip("the C library has no mallopt")
        code = ("import resource, sys; from immersedfem import cli; "
                "faults = lambda: resource.getrusage(resource.RUSAGE_SELF).ru_minflt; "
                "before = faults(); code = cli.main(sys.argv[1:]); "
                "print(code, faults() - before)")
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", code, "--dim", "2", "--max-exp", "8",
                              "--out", str(tmp_path / "study.csv")],
                             env=env, capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        code, faults = map(int, out.stdout.split())
        assert code == 0 and faults < 10_000

    def test_parser_dests_are_config_fields(self):
        # every flag but the table's format and path lands in a StudyConfig
        # field of the same name, and every field has its flag
        dests = set(vars(build_parser().parse_args([])))
        assert dests - {"fmt", "out"} == {field.name for field in dataclasses.fields(StudyConfig)}

    def test_negative_zero_exponent_prints_as_zero(self, tmp_path, capsys):
        # -0 is the exponent 0: no "-0" in the CSV's alpha column or the
        # markdown heading
        out = tmp_path / "table.csv"
        assert main(["--min-exp", "2", "--max-exp", "3", "--alphas=-0", "--out", str(out)]) == 0
        with open(out, newline="", encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        assert [row["alpha"] for row in rows] == ["0.0000000000000000e+00"] * 2
        assert main(["--min-exp", "2", "--max-exp", "2", "--alphas=-0",
                     "--format", "markdown"]) == 0
        assert capsys.readouterr().out.startswith("## alpha = 0\n")
