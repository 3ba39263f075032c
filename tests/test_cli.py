"""End-to-end checks of the command-line interface."""

import json

import numpy as np
import pytest

from hughop.cli import main


@pytest.fixture
def config_file(tmp_path):
    cfg = {
        "target": {"target": "gauss", "dim": 3, "scales": "U"},
        "kernels": [
            {"kernel": "hug", "T": 1.0, "B": 5},
            {"kernel": "hop", "lambda": 1.5, "kappa": 0.5},
        ],
        "iterations": 1500,
        "burn_in": 200,
        "seed": 7,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


class TestRun:
    def test_run_writes_outputs_and_prints_summary(self, config_file, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["run", "--config", str(config_file), "--out", str(out)])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["iterations"] == 1300  # post burn-in sweeps
        assert (out / "trace.csv").exists()
        assert (out / "results.jsonl").exists()

    def test_seed_flag_overrides_config(self, config_file, tmp_path):
        outs = []
        for i, seed in enumerate(("41", "41", "42")):
            out = tmp_path / f"o{i}_{seed}"
            assert main(["run", "--config", str(config_file), "--out", str(out), "--seed", seed]) == 0
            outs.append((out / "trace.csv").read_text().splitlines()[2:])
        assert outs[0] == outs[1]
        assert outs[0] != outs[2]

    def test_set_override_dotted_path(self, config_file, capsys):
        code = main(
            ["run", "--config", str(config_file), "--set", "iterations=800",
             "--set", "kernels.1.lambda=3.0"]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["iterations"] == 600

    @pytest.mark.parametrize(
        "path", ["kernels.5.T", "iterations.x", "kernels.a.T", "target.missing.x"]
    )
    def test_unresolved_set_path_is_config_error(self, config_file, capsys, path):
        code = main(["run", "--config", str(config_file), "--set", f"{path}=1"])
        assert code == 1
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ConfigError"
        assert path in record["message"]

    def test_invalid_config_exits_nonzero_with_error_record(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"target": {}, "kernels": [{}], "iterations": -4}))
        code = main(["run", "--config", str(bad)])
        assert code != 0
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ConfigError"
        assert "iterations" in record["message"]

    @pytest.mark.parametrize(
        "command, override, field",
        [
            ("run", {"iterations": None}, "iterations"),
            ("run", {"iterations": [1]}, "iterations"),
            ("run", {"iterations": "abc"}, "iterations"),
            ("run", {"iterations": 2.5}, "iterations"),
            ("run", {"iterations": 5, "burn_in": 10}, "burn_in"),
            ("run", {"seed": None}, "seed"),
            ("run", {"kernels": ["hug"]}, "kernels[0]"),
            ("run", {"kernels": [{"kernel": "hug", "T": None}]}, "kernels[0].T"),
            ("run", {"kernels": [{"kernel": "hug", "B": 2.5}]}, "kernels[0].B"),
            ("run", {"kernels": [{"kernel": "hop", "hessian": "false"}]}, "kernels[0].hessian"),
            ("run", {"kernels": [{"kernel": "hmc", "mass_matrix": [1, None, 1]}]}, "kernels[0]"),
            ("tune", {"grid": [1]}, "grid"),
            ("tune", {"grid": {"kernels.0.T": None}}, "grid"),
            ("run", {"objective": 3}, "objective"),
            ("run", {"objective": "ess_per_fortnight"}, "objective"),
            ("run", {"grid": [1]}, "grid"),
            ("run", {"grid": {"kernels.0.T": []}}, "grid"),
            ("run", {"kernels": [{"kernel": "hug", "mode": "hessian", "eps": 0}]},
             "kernels[0].eps"),
            ("run", {"kernels": [{"kernel": "hug"}, {"kernel": "hop", "hessian": True,
                                                     "eps": -1}]}, "kernels[1].eps"),
            ("run", {"kernels": [{"kernel": "rwm", "local_cov": "hessian", "eps": 0.0}]},
             "kernels[0].eps"),
            # a fixed covariance of the wrong size for the d = 3 target
            ("run", {"kernels": [{"kernel": "hug", "mode": "precond",
                                  "precond_cov": [[1, 0], [0, 1]]}]}, "kernels[0]"),
            ("run", {"kernels": [{"kernel": "rwm", "local_cov": "fixed",
                                  "cov": [[1, 0], [0, 1]]}]}, "kernels[0]"),
        ],
    )
    def test_malformed_value_is_config_error_naming_its_field(
        self, config_file, capsys, command, override, field
    ):
        config_file.write_text(json.dumps({**json.loads(config_file.read_text()), **override}))
        code = main([command, "--config", str(config_file)])
        assert code == 1
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ConfigError"
        assert record["message"].startswith(f"{field}: ")

    def test_missing_config_file(self, capsys):
        code = main(["run", "--config", "/nonexistent/x.json"])
        assert code != 0
        assert "error" in json.loads(capsys.readouterr().err)


class TestTune:
    def test_tune_writes_table(self, tmp_path, capsys):
        cfg = {
            "target": {"target": "gauss", "dim": 3, "scales": "U"},
            "kernels": [{"kernel": "hop", "lambda": 1.0, "kappa": 0.5}],
            "iterations": 1000,
            "seed": 3,
            "grid": {"kernels.0.lambda": [1.0, 2.0]},
            "pilot_iterations": 1200,
            "objective": "ess_per_iteration",
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        out.mkdir()
        code = main(["tune", "--config", str(path), "--out", str(out)])
        assert code == 0
        assert (out / "tune_table.csv").exists()
        best = json.loads((out / "best.json").read_text())
        assert best["best"]["kernels.0.lambda"] in (1.0, 2.0)

    def test_degenerate_first_cell_keeps_every_column(self, config_file, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(
            ["tune", "--config", str(config_file), "--out", str(out),
             "--set", 'grid={"kernels.1.kappa": [-1.0, 0.5]}',
             "--set", "pilot_iterations=1200", "--set", "objective=ess_per_iteration"]
        )
        assert code == 0
        lines = [l for l in (out / "tune_table.csv").read_text().splitlines()
                 if not l.startswith("#")]
        assert lines[0].split(",") == [
            "kernels.1.kappa", "score", "note", "min_ess_x", "ess_logpi",
            "min_ess_x_per_1000", "ess_logpi_per_1000", "wall_time", "acceptance",
        ]
        degenerate = lines[1].split(",")
        assert degenerate[:3] == ["-1", "nan", "kernels[1]: kappa must be positive"]
        assert degenerate[3:] == [""] * 6

    @pytest.mark.parametrize(
        "argv, written",
        [
            (["tune", "--set", 'grid={"kernels.1.lambda": [1.5]}',
              "--set", "pilot_iterations=1200"], "tune_table.csv"),
            (["theorem2", "--dim", "5", "--iters", "200"], "theorem2.json"),
        ],
    )
    def test_out_directory_is_created(self, config_file, tmp_path, capsys, argv, written):
        out = tmp_path / "new" / "dir"
        code = main(argv + ["--config", str(config_file), "--out", str(out)])
        assert code == 0
        assert (out / written).exists()


class TestExperiments:
    def test_theorem2_subcommand(self, capsys):
        code = main(
            ["theorem2", "--dim", "50", "--lam", "2", "--kappa", "1",
             "--iters", "5000", "--seed", "1"]
        )
        assert code == 0
        result = json.loads(capsys.readouterr().out)
        assert abs(result["mean_acceptance"] - result["limit"]) < 0.1

    def test_stability_subcommand(self, tmp_path, capsys):
        code = main(
            ["stability", "--target", '{"target":"gauss","dim":4,"scales":"U"}',
             "--step", "0.1", "--steps", "200", "--out", str(tmp_path)]
        )
        assert code == 0
        result = json.loads(capsys.readouterr().out)
        assert result["steps_recorded"] == 200
        assert (tmp_path / "stability.csv").exists()

    def test_hug_efficiency_subcommand(self, tmp_path, capsys):
        code = main(
            ["hug-efficiency", "--target", '{"target":"gauss","dim":4,"scales":"L"}',
             "--bs", "1,2", "--ts", "1.0", "--reps", "100", "--out", str(tmp_path)]
        )
        assert code == 0
        lines = (tmp_path / "hug_efficiency.csv").read_text().splitlines()
        assert len([l for l in lines if not l.startswith("#")]) == 3  # header + 2 rows

    def test_hop_scaling_subcommand(self, tmp_path, capsys):
        code = main(
            ["hop-scaling", "--target", '{"target":"lg","a":1.0,"scales":"U"}',
             "--dims", "5", "--lams", "1,2", "--kappas", "0.5",
             "--iters", "2000", "--out", str(tmp_path)]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["cells"] == 2
        assert (tmp_path / "hop_scaling.csv").exists()

    @pytest.mark.parametrize("command", ["hug-efficiency", "stability", "hop-scaling"])
    @pytest.mark.parametrize("target", ["[1]", '"lg"', '{"target":"nope"}', '{"scales":"U"}'])
    def test_malformed_target_is_config_error(self, tmp_path, capsys, command, target):
        extra = {
            "hug-efficiency": ["--bs", "1", "--ts", "1.0", "--reps", "2"],
            "stability": ["--step", "0.1", "--steps", "10"],
            "hop-scaling": ["--dims", "3", "--lams", "1", "--kappas", "0.5", "--iters", "200"],
        }[command]
        code = main([command, "--target", target, *extra, "--out", str(tmp_path)])
        assert code == 1
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ConfigError"
        assert record["message"].startswith("--target: ")

    @pytest.mark.parametrize(
        "command, argv, flag",
        [
            ("hug-efficiency", ["--target", '{"target":"lg","a":1,"scales":"U"}'], "--target"),
            ("hug-efficiency", ["--bs", "1,x"], "--bs"),
            ("hug-efficiency", ["--bs", "0"], "--bs"),
            ("hug-efficiency", ["--ts", "1,x"], "--ts"),
            ("hug-efficiency", ["--reps", "-1"], "--reps"),
            ("stability", ["--step", "-1"], "--step"),
            ("hop-scaling", ["--dims", "1,x"], "--dims"),
            ("hop-scaling", ["--lams", "1,x"], "--lams"),
            ("hop-scaling", ["--kappas", "1,x"], "--kappas"),
            ("theorem2", ["--dim", "0"], "--dim"),
            ("theorem2", ["--lam", "-1"], "--lam"),
            ("models", ["spatial", "--grid-rows", "0", "--iterations", "10"], "--grid-rows"),
            ("models", ["spatial", "--grid-cols", "-2"], "--grid-cols"),
            ("models", ["spatial", "--iterations", "-4"], "--iterations"),
            ("models", ["cauchit", "--iterations", "0"], "--iterations"),
        ],
    )
    def test_bad_flag_is_config_error_naming_it(self, tmp_path, capsys, command, argv, flag):
        gauss = '{"target":"gauss","dim":3,"scales":"U"}'
        valid = {
            "hug-efficiency": ["--target", gauss, "--bs", "1", "--ts", "1.0", "--reps", "2"],
            "stability": ["--target", gauss, "--step", "0.1", "--steps", "10"],
            "hop-scaling": ["--target", '{"target":"gauss","scales":"U"}', "--dims", "3",
                            "--lams", "1", "--kappas", "0.5", "--iters", "200"],
            "theorem2": ["--dim", "5", "--iters", "200"],
            "models": [],
        }[command]
        code = main([command, *valid, *argv, "--out", str(tmp_path)])
        assert code == 1
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ConfigError"
        assert record["message"].startswith(f"{flag}: ")

    def test_models_subcommand_smoke(self, tmp_path, capsys):
        code = main(
            ["models", "spatial", "--iterations", "400", "--grid-rows", "3",
             "--grid-cols", "3", "--out", str(tmp_path), "--seed", "1"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["sizes"]["field_dim"] == 9
        assert report["sizes"]["total_dim"] == 11
        assert (tmp_path / "dataset" / "manifest.json").exists()
        assert (tmp_path / "spatial_report.json").exists()

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
