import dataclasses
import math

import numpy as np
import pytest

from conftest import element_scatter_stiffness, eliminate
from immersedfem import (ConfigError, FeSpace, SphericalInterface, StudyConfig,
                         assemble_interface_load, build_uniform_mesh, emit_table,
                         immersed_quadrature, layer_source_strength, reference_solution,
                         run_study, solve, study, weighted_errors)
from immersedfem.cli import build_parser, main
from immersedfem.study import CSV_HEADER

SMALL = dict(dim=2, min_exp=2, max_exp=3, alphas=(0.0, 0.49))

# CSV rows (n_c, alpha, err_L2_alpha, err_H1semi_alpha, eoc_L2, eoc_H1) of
# `ifem-study --dim 2 --max-exp 5` and `ifem-study --dim 3 --max-exp 3`
GOLDEN_2D = [
    (8, 0.0, 0.016738924181951387, 0.6463854159457658, None, None),
    (8, 0.1, 0.010960183461734678, 0.42380670292537365, None, None),
    (8, 0.2, 0.0074259883739942745, 0.28787490652524617, None, None),
    (8, 0.3, 0.0051899482221463384, 0.20218256912437432, None, None),
    (8, 0.4, 0.00373518156271933, 0.14671668860707704, None, None),
    (8, 0.49, 0.0028460942258011117, 0.112994779450288, None, None),
    (16, 0.0, 0.007128650120702763, 0.5131734179539176, 1.231505988927009, 0.33294820598012365),
    (16, 0.1, 0.004315718905582269, 0.32078278961599643, 1.3445991412930185, 0.4018096640122461),
    (16, 0.2, 0.0026978428852363783, 0.20682567016090955, 1.4607767242939167, 0.4770267807552773),
    (16, 0.3, 0.0017382935495850872, 0.13734216476268896, 1.5780484115961366, 0.5578840143428742),
    (16, 0.4, 0.0011551357097695284, 0.09402086043973025, 1.6931160174635236, 0.6419801941644637),
    (16, 0.49, 0.0008224584801248346, 0.06874195621835663, 1.790968671295893, 0.716993306453807),
    (32, 0.0, 0.002647855531158549, 0.3742028568259582, 1.428804504334366, 0.4556258689304883),
    (32, 0.1, 0.0014935938266607428, 0.2176974634973613, 1.5308130315397397, 0.5592721434796271),
    (32, 0.2, 0.0008694953373770333, 0.13051239482879268, 1.6335561359517412, 0.6642284300244171),
    (32, 0.3, 0.0005219372728111674, 0.08066656516340548, 1.7357233968039063, 0.7677318769810083),
    (32, 0.4, 0.00032389758902782035, 0.05162562832841142, 1.8344527205352357, 0.8648934480542534),
    (32, 0.49, 0.00021789744788602652, 0.03580343030127892, 1.9162935505795882, 0.9410930899647152),
]
GOLDEN_3D = [
    (4, 0.0, 0.18177424837836598, 3.2347733585566387, None, None),
    (4, 0.1, 0.12562940267531114, 2.3118981615172824, None, None),
    (4, 0.2, 0.08945167881564624, 1.699583835357558, None, None),
    (4, 0.3, 0.06537073405255121, 1.2798012604921045, None, None),
    (4, 0.4, 0.04891670606541689, 0.9844048132323698, None, None),
    (4, 0.49, 0.0383988508314511, 0.7902707138855097, None, None),
    (8, 0.0, 0.056513620475369654, 2.1924236069870613, 1.6854773083295826, 0.5611380605022089),
    (8, 0.1, 0.036698247506533985, 1.4637697721531662, 1.7753910811870253, 0.6593891905753689),
    (8, 0.2, 0.024648931154983334, 1.011334095843727, 1.8595834700548044, 0.7489218548353452),
    (8, 0.3, 0.01707656508125375, 0.7206718997101733, 1.9366270886259451, 0.828505294152905),
    (8, 0.4, 0.012186491049335002, 0.5284649768951634, 2.005044480079259, 0.8974438491981519),
    (8, 0.49, 0.00922022907488288, 0.4089799061999803, 2.0581886361238197, 0.950316982163752),
]


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

    def test_rejects_bad_geometry(self):
        with pytest.raises(ConfigError):
            StudyConfig(center=(0.1, 0.5), radius=0.2)
        with pytest.raises(ConfigError):
            StudyConfig(dim=3, center=(0.3, 0.3))
        with pytest.raises(ConfigError):
            StudyConfig(center=(math.nan, math.nan))
        with pytest.raises(ConfigError):
            StudyConfig(radius=math.nan)

    def test_rejects_bad_levels(self):
        with pytest.raises(ConfigError):
            StudyConfig(min_exp=1, max_exp=3)
        with pytest.raises(ConfigError):
            StudyConfig(min_exp=4, max_exp=3)
        # the levels, the degree and the dimension are integers, not floats
        # or booleans that would fail later inside the study
        for bad in (dict(dim=2.0), dict(degree=1.5), dict(min_exp=2.5), dict(max_exp=3.0),
                    dict(degree=True), dict(dim=3, min_exp=False)):
            with pytest.raises(ConfigError, match="must be an integer"):
                StudyConfig(**bad)

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

    def test_matches_direct_solve(self):
        # the weighted errors are those of the discrete solution: a direct
        # solve of every level, refined once, gives the same
        from scipy.sparse.linalg import splu

        config = StudyConfig(dim=2, min_exp=3, max_exp=7)
        records = run_study(config)
        interface = SphericalInterface(config.center, config.radius)
        exact = reference_solution(interface)
        density = layer_source_strength(interface)
        for n_c in (8, 16, 32, 64, 128):
            space = FeSpace(build_uniform_mesh(2, n_c), 1)
            load = assemble_interface_load(space, immersed_quadrature(interface, space.mesh),
                                           lambda points: density)
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
    """The default studies' CSV, pinned: a change that moves any error or
    rate by more than 1e-9 relative shows here."""

    @pytest.mark.parametrize("flags, golden", [(["--dim", "2", "--max-exp", "5"], GOLDEN_2D),
                                               (["--dim", "3", "--max-exp", "3"], GOLDEN_3D)])
    def test_matches_pinned_table(self, tmp_path, flags, golden):
        out = tmp_path / "study.csv"
        assert main(flags + ["--out", str(out)]) == 0
        lines = out.read_text(encoding="utf-8").strip().split("\n")
        assert lines[0] == CSV_HEADER and len(lines) == 1 + len(golden)
        for line, row in zip(lines[1:], golden):
            fields = line.split(",")
            assert (int(fields[1]), float(fields[4])) == row[:2]
            for text, want in zip(fields[5:], row[2:]):
                if want is None:
                    assert text == ""
                else:
                    assert float(text) == pytest.approx(want, rel=1e-9)


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
        # an unwritable output path is a configuration error too
        code = main(["--min-exp", "2", "--max-exp", "2", "--alphas", "0",
                     "--out", str(tmp_path / "missing" / "x.csv")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")

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
            solution[space.interior_dofs()[0]] += perturbation
            matrix, rhs = eliminate(element_scatter_stiffness(space), load, space, g)
            return solution, float(np.linalg.norm(rhs - matrix @ solution)
                                   / np.linalg.norm(rhs))

        monkeypatch.setattr(study, "solve", perturbed)
        for perturbation in (1e-6, math.nan):
            code = main(["--min-exp", "4", "--max-exp", "4", "--alphas", "0"])
            assert code == 2
            assert "solver failure" in capsys.readouterr().err

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

    def test_parser_dests_are_config_fields(self):
        # every flag lands in a StudyConfig field of the same name
        dests = set(vars(build_parser().parse_args([])))
        assert dests == {field.name for field in dataclasses.fields(StudyConfig)}
