"""Tests for config parsing, CSV tables, and the command-line surface."""

import hashlib
import os
import subprocess
import sys
import textwrap
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import dispmax
from dispmax import cli, directions, kernel, maximal
from dispmax.cli import main
from dispmax.config import (
    ExperimentConfig,
    ResultTable,
    parse_config,
    provenance_block,
    read_csv,
    table_to_csv,
    write_csv,
)
from dispmax.directions import cover_set, make_cantor, make_points
from dispmax.errors import ConfigError
from dispmax.kernel import decay_bound_scan, kernel_value
from dispmax.maximal import convergence_scan, estimate_operator_norm, lq_norm, maximal_function
from dispmax.spectral import DispersionProfile, make_sobolev_data


class TestParseConfig:
    def test_defaults(self):
        cfg = parse_config("")
        assert cfg == ExperimentConfig()
        assert cfg.resolved_sigma() == cfg.q / 4.0

    def test_full_file_with_comments(self):
        text = """
        # experiment parameters
        a = 1.5
        theta = interval:0,0.5   # direction set
        q = 3
        sigma = 0.8
        seed = 42
        k_max = 4
        """
        cfg = parse_config(text)
        assert cfg.a == 1.5
        assert cfg.theta == "interval:0,0.5"
        assert cfg.q == 3.0
        assert cfg.sigma == 0.8
        assert cfg.seed == 42
        assert cfg.k_max == 4

    def test_unknown_key_reports_line_number(self):
        with pytest.raises(ConfigError, match="line 3.*bogus"):
            parse_config("a = 2\nseed = 1\nbogus = 7\n")

    def test_malformed_line_rejected(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("just some words")

    def test_sigma_below_admissible_floor(self):
        with pytest.raises(ConfigError, match="sigma below q/4"):
            parse_config("q = 4\nsigma = 0.6\n")

    def test_q_out_of_range(self):
        with pytest.raises(ConfigError):
            parse_config("q = 9\n")

    @pytest.mark.parametrize("line", ["s = 0", "trials = 0", "x_count = 0", "n_grid = 0",
                                      "half_width = -1", "delta_min = 0"])
    def test_rejects_nonpositive_values(self, line):
        with pytest.raises(ConfigError):
            parse_config(line + "\n")

    @pytest.mark.parametrize("setting", [{"q": 9.0}, {"seed": -1}, {"n_grid": 3},
                                         {"theta": "blob:1"}], ids=["q", "seed", "n_grid", "theta"])
    def test_config_is_checked_when_built(self, setting):
        with pytest.raises(ConfigError):
            ExperimentConfig(**setting)
        with pytest.raises(ConfigError):
            replace(ExperimentConfig(), **setting)

    def test_digest_ignores_output_directory(self):
        a = ExperimentConfig(out="here")
        b = ExperimentConfig(out="there")
        assert a.digest() == b.digest()
        assert a.digest() != ExperimentConfig(seed=1).digest()


class TestResultTable:
    def make_table(self):
        rows = [(2, 0.5), (3, 1.0), (4, 1.0 / 3.0)]
        return ResultTable(names=("k", "value"), rows=rows,
                           provenance={"seed": 0, "experiment": "demo"})

    def test_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            ResultTable(names=("a", "b"), rows=[(1, 1), (2,)], provenance={})

    def test_csv_round_trip(self, tmp_path):
        table = self.make_table()
        path = tmp_path / "t.csv"
        write_csv(table, path)
        back = read_csv(path)
        assert back == table

    def test_numeric_looking_text_reads_back_as_text(self, tmp_path):
        # an all-digit config hash with a leading zero, one that float()
        # reads as inf, and cells whose numbers would print differently
        table = ResultTable(names=("cell", "value"), rows=[("007", 1), ("1e5", 0.5)],
                            provenance={"config_hash": "0012345678901234",
                                        "other_hash": "12e4567890123456"})
        path = tmp_path / "t.csv"
        write_csv(table, path)
        back = read_csv(path)
        assert back == table
        assert back.provenance["config_hash"] == "0012345678901234"
        assert back.column("cell") == ["007", "1e5"]
        # write_csv spells 0.1 as 0.10000000000000001, so a hand-written 0.1
        # is not its output and reads back as the text it is
        path.write_text("# step=0.1\nx,y\n0.1,0.5\n")
        back = read_csv(path)
        assert back.provenance["step"] == "0.1"
        assert back.rows == (("0.1", 0.5),)

    def test_column_follows_csv_order_after_round_trip(self, tmp_path):
        table = ResultTable(names=("z", "a"), rows=[(1, "p"), (2, "q")], provenance={})
        path = tmp_path / "t.csv"
        write_csv(table, path)
        back = read_csv(path)
        assert back.names == ("z", "a")
        assert back.column("z") == [1, 2]
        assert back.column("a") == ["p", "q"]

    def test_csv_format(self, tmp_path):
        table = self.make_table()
        text = table_to_csv(table)
        lines = text.split("\n")
        assert lines[0] == "# experiment=demo"
        assert lines[1] == "# seed=0"
        assert lines[2] == "k,value"
        # floats carry full precision, LF endings only
        assert "0.33333333333333331" in lines[5]
        assert "\r" not in text
        path = tmp_path / "t.csv"
        write_csv(table, path)
        assert path.read_bytes() == text.encode()

    def test_provenance_block(self):
        cfg = ExperimentConfig(seed=9)
        block = provenance_block(cfg, experiment="x")
        assert block["seed"] == 9
        assert block["experiment"] == "x"
        assert block["config_hash"] == cfg.digest()
        assert "tool_version" in block


class TestCli:
    @pytest.mark.parametrize("command", sorted(cli._COMMANDS))
    def test_every_command_parses_every_common_option(self, command):
        common = {"config": "c.cfg", "seed": 3, "out": "o", "a": 1.5, "q": 3.0, "sigma": 0.4,
                  "theta": "cantor:2,0.3,4", "k_min": 1, "k_max": 5, "s": 0.7}
        argv = [command]
        for dest, value in common.items():
            argv += ["--" + dest.replace("_", "-"), str(value)]
        args = vars(cli.build_parser().parse_args(argv))
        assert args.pop("command") == command
        assert {dest: args.pop(dest) for dest in common} == common
        bare = vars(cli.build_parser().parse_args([command]))
        assert {dest: bare[dest] for dest in common} == dict.fromkeys(common)
        # what is left are the command's own options, at their defaults
        assert args == {dest: bare[dest] for dest in args}

    def test_check_succeeds(self, capsys):
        assert main(["check"]) == 0
        assert "check: ok" in capsys.readouterr().out

    def test_cover_writes_table(self, tmp_path, capsys):
        rc = main(["cover", "--theta", "interval:0,1", "--lam", "16",
                   "--sigma", "0.5", "--out", str(tmp_path)])
        assert rc == 0
        table = read_csv(tmp_path / "cover.csv")
        assert table.provenance["count"] == 4
        assert len(table.column("left")) == 4

    def test_dim_writes_table(self, tmp_path):
        rc = main(["dim", "--theta", "cantor:2,0.3333333333333333,8", "--out", str(tmp_path)])
        assert rc == 0
        table = read_csv(tmp_path / "dimension.csv")
        assert abs(table.provenance["beta"] - np.log(2) / np.log(3)) < 0.07

    @pytest.mark.parametrize("command", ["dim", "cover"])
    def test_command_parses_its_theta_once_per_config(self, command, tmp_path, monkeypatch):
        # both paths build one config, from the file's settings and the flags
        calls = []

        def counting_make_cantor(*args):
            calls.append(args)
            return make_cantor(*args)

        monkeypatch.setattr(directions, "make_cantor", counting_make_cantor)
        out = ["--out", str(tmp_path / "out")]
        assert main([command, "--theta", "cantor:2,0.3,5", *out]) == 0
        assert calls == [(2, 0.3, 5)]
        calls.clear()
        cfg = tmp_path / "c.cfg"
        cfg.write_text("theta = cantor:2,0.3,5\n")
        assert main([command, "--config", str(cfg), *out]) == 0
        assert calls == [(2, 0.3, 5)]

    @pytest.mark.parametrize("command, files", [
        ("dim", ["dimension.csv"]),
        ("cover", ["cover.csv"]),
        ("kernel-scan", ["kernel_scan.csv", "kernel_scan.gp", "van_der_corput.csv"]),
        ("evolve", ["evolved.csv"]),
    ])
    def test_one_wrote_line_per_file(self, command, files, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("samples_per_region = 4\nlambda_min_exp = 4\nlambda_max_exp = 5\n")
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
        summary, *wrote = capsys.readouterr().out.splitlines()
        assert not summary.startswith("wrote")
        assert wrote == [f"wrote {out / name}" for name in files]
        assert sorted(p.name for p in out.iterdir()) == sorted(files)

    def test_evolve_round_trips_through_csv(self, tmp_path):
        out1 = tmp_path / "a"
        rc = main(["evolve", "--t", "0.25", "--out", str(out1), "--seed", "3"])
        assert rc == 0
        table = read_csv(out1 / "evolved.csv")
        assert table.names == ("x", "re", "im") and len(table.rows) == 512
        prov = table.provenance
        assert (prov["experiment"], prov["t"], prov["seed"]) == ("evolve", 0.25, 3)
        assert prov["config_hash"] == ExperimentConfig(seed=3, out=str(out1)).digest()
        # the provenance lines are comments to the signal reader
        argv = ["maximal", "--input", str(out1 / "evolved.csv"), "--out", str(tmp_path / "b")]
        assert main(argv) == 0

    @pytest.mark.parametrize("command, stem", [("maximal", "maximal"), ("evolve", "evolved")])
    def test_input_provenance_names_the_file(self, tmp_path, command, stem):
        assert main(["evolve", "--t", "0", "--out", str(tmp_path / "a")]) == 0
        src = tmp_path / "a" / "evolved.csv"
        assert main([command, "--input", str(src), "--seed", "5", "--out", str(tmp_path)]) == 0
        text = (tmp_path / f"{stem}.csv").read_text()
        sha = hashlib.sha256(src.read_bytes()).hexdigest()
        assert f"# input_sha256={sha}\n" in text
        prov = read_csv(tmp_path / f"{stem}.csv").provenance
        # the seed of data the command did not use is not recorded
        assert prov["input_sha256"] == sha and "seed" not in prov
        assert prov["config_hash"] == ExperimentConfig(seed=5).digest()

    def test_norm_scaling_clips_the_cover_to_the_direction_range(self, tmp_path):
        # the k=1 cover of [0, 1] ends in [2^-1/2, 2^1/2], which passes 1
        cfg = tmp_path / "c.cfg"
        cfg.write_text("trials = 1\n")
        argv = ["norm-scaling", "--theta", "interval:0,1", "--k-min", "1", "--k-max", "3",
                "--config", str(cfg), "--out", str(tmp_path)]
        assert main(argv) == 0
        widths = read_csv(tmp_path / "scaling.csv").column("omega_width")
        assert widths[0] == 1.0 - 2.0**-0.5
        assert all(0.0 < w <= 2.0 ** (-k / 2.0) for k, w in zip((1, 2, 3), widths))

    @pytest.mark.parametrize("argv, files", [
        (["cover", "--q", "9"], None),
        (["dim", "--theta", "bogus:1"], None),
        (["dim", "--theta", "interval:0,2"], None),
        (["maximal", "--band", "31"], None),
        (["maximal", "--band", "-1"], None),
        (["cover", "--lam", "1"], None),
        (["evolve", "--t", "nan"], None),
        (["check", "--config", "/nonexistent/dispmax.cfg"], None),
        (["converge", "--s", "-1"], None),
        (["norm-scaling", "--q", "1.5"], None),
        (["norm-scaling", "--k-min", "0"], None),
        (["norm-scaling", "--k-max", "31"], None),
        (["kernel-scan"], {"--config": "samples_per_region = 0"}),
        (["converge"], {"--config": "n_grid = 3"}),
        (["converge"], {"--config": "half_width = -1"}),
        (["dim"], {"--config": "delta_min = 0"}),
        (["dim"], {"--config": "delta_min = 0.5\ndelta_max = 0.1"}),
        (["dim"], {"--config": "n_scales = 2"}),
        (["kernel-scan"], {"--config": "lambda_min_exp = 0"}),
        (["kernel-scan"], {"--config": "lambda_min_exp = 2"}),
        (["kernel-scan"], {"--config": "lambda_min_exp = 7\nlambda_max_exp = 6"}),
        (["maximal", "--input", "/nonexistent/signal.csv"], None),
        (["maximal"], {"--input": "x,y,z\n0,1,0\n1,1,0\n"}),
        (["evolve"], {"--input": "x,re,im\n0,1,0\n"}),
        (["maximal"], {"--input": "x,re,im\n0,1,0\n1,1,0\n2,1,0\n"}),
        (["evolve"], {"--input": "x,re,im\n-2,1,0\n-1,1,0\n3,1,0\n4,1,0\n"}),
        (["evolve"], {"--input": "x,re,im\n0,1,0\n1,1,0\n2,1,0\n3,1,0\n"}),
        (["maximal"], {"--input": "x,re,im\n-2,1,0\n-1,nan,0\n0,1,0\n1,1,0\n"}),
        (["evolve"], {"--input": "x,re,im\n-2,1,0\n-1,1,inf\n0,1,0\n1,1,0\n"}),
        (["maximal"], {"--input": "x,re,im\n-2,1,0\n-1,-inf,0\n0,1,0\n1,1,0\n"}),
        (["maximal", "--a", "inf"], None),
        (["evolve", "--a", "inf"], None),
        (["converge"], {"--config": "a = nan"}),
        (["evolve", "--s", "inf"], None),
        (["converge", "--s", "inf"], None),
        (["kernel-scan"], {"--config": "lambda_max_exp = 1100"}),
        (["kernel-scan"], {"--config": "lambda_min_exp = 1100\nlambda_max_exp = 1200"}),
        (["converge"], {"--config": "scale_max_exp = -2000"}),
        (["cover", "--lam", "inf"], None),
        (["cover", "--sigma", "nan"], None),
        (["kernel-scan", "--sigma", "nan"], None),
        (["maximal", "--theta", "points:0,nan"], None),
        (["maximal", "--theta", "interval:0,nan"], None),
        (["converge", "--seed", "-1"], None),
        (["evolve", "--seed", "-5"], None),
        (["norm-scaling", "--k-min", "2", "--k-max", "3"], None),
        (["maximal"], {"--config": "half_width = 1e308"}),
        (["evolve"], {"--config": "half_width = 1e308"}),
    ], ids=["q-out-of-range", "unknown-theta-kind", "theta-outside-range",
            "band-above-bank", "band-negative", "lam-below-2", "t-nan",
            "missing-config-file", "s-negative", "q-below-estimator-range",
            "k-min-zero", "k-max-above-max-band", "samples-per-region-zero",
            "n-grid-not-power-of-two", "half-width-negative", "delta-min-zero",
            "delta-range-reversed", "n-scales-below-4", "lambda-one",
            "lambda-leaves-v2-empty", "lambda-range-reversed", "missing-input-file",
            "input-wrong-header", "input-single-row", "input-length-not-power-of-two",
            "input-nonuniform-x", "input-x-not-centred",
            "input-non-finite", "input-non-finite-imag", "input-inf-maximal", "a-inf-maximal", "a-inf-evolve",
            "a-nan", "s-inf-evolve", "s-inf-converge", "lambda-max-exp-overflows",
            "lambda-min-exp-overflows", "scale-max-exp-overflows", "lam-inf", "sigma-nan-cover",
            "sigma-nan-kernel-scan", "theta-points-nan", "theta-interval-nan",
            "seed-negative-converge", "seed-negative-evolve", "two-bands",
            "half-width-box-overflows-maximal", "half-width-box-overflows-evolve"])
    def test_config_error_exit_code(self, argv, files, tmp_path, capsys):
        for flag, text in (files or {}).items():
            path = tmp_path / flag.lstrip("-")
            path.write_text(text + "\n")
            argv = argv + [flag, str(path)]
        assert main(argv + ["--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error")
        assert err.count("\n") == 1
        assert not [p for p in tmp_path.iterdir() if p.suffix in (".csv", ".gp")]

    def test_library_checks_raise_config_error(self):
        # the CLI's one except clause maps these to exit 2; callers may catch ValueError
        assert issubclass(ConfigError, ValueError)
        with pytest.raises(ConfigError, match="lambda must be finite"):
            cover_set(make_points([0.0]), np.inf, 0.5)
        with pytest.raises(ConfigError, match="not finite"):
            make_points([0.0, np.nan])
        with pytest.raises(ConfigError, match="nonempty"):
            decay_bound_scan(DispersionProfile.power(2.0), 0.5, [])

    @pytest.mark.parametrize("lam_list, message", [
        ([1.0, 16.0], "got 1.0"), ([np.inf], "got inf"), ([16.0, np.nan], "got nan"),
    ], ids=["below-two", "infinite", "nan-after-a-valid-lambda"])
    def test_decay_scan_refuses_bad_lambda_before_sampling(self, lam_list, message, monkeypatch):
        # these sampled for ~0.56 CPU s and failed, or escaped as a numpy OverflowError
        def refuse(*args):
            raise AssertionError("pairs were sampled before the lambda check")

        monkeypatch.setattr(kernel, "_sample_regions", refuse)
        with pytest.raises(ConfigError, match=f"lambda must be finite and at least 2, {message}"):
            decay_bound_scan(DispersionProfile.power(2.0), 0.5, lam_list)

    @pytest.mark.parametrize("sigma", [np.nan, 0.2, 1.5, np.inf])
    def test_decay_scan_refuses_bad_sigma_before_sampling(self, sigma, monkeypatch):
        # a NaN sigma escaped from the sampler as numpy's OverflowError
        def refuse(*args):
            raise AssertionError("pairs were sampled before the sigma check")

        monkeypatch.setattr(kernel, "_sample_regions", refuse)
        with pytest.raises(ConfigError, match=rf"sigma must lie in \[1/4, 1\], got {sigma}"):
            decay_bound_scan(DispersionProfile.power(2.0), sigma, [16.0])

    @pytest.mark.parametrize("call, message", [
        (lambda p, f: kernel_value(-0.5, -0.25, 16.0, p, 0),
         "density=0 must be an integer of at least 1"),
        (lambda p, f: kernel_value(-0.5, -0.25, 16.0, p, -2), "density=-2 must be"),
        (lambda p, f: kernel_value(-0.5, -0.25, 16.0, p, 2.5), "density=2.5 must be an integer"),
        (lambda p, f: maximal_function(f, make_points([0.0]), p, x_count=0),
         "x_count=0 must be at least 1"),
        (lambda p, f: maximal_function(f, make_points([0.0]), p, x_count=-3),
         "x_count=-3 must be at least 1"),
        (lambda p, f: convergence_scan(f, make_points([0.0]), p, [0.5], x_count=0),
         "x_count=0 must be at least 1"),
        (lambda p, f: convergence_scan(f, make_points([0.0]), p, [0.5], x_count=-3),
         "x_count=-3 must be at least 1"),
        (lambda p, f: decay_bound_scan(p, 0.5, [16.0], samples_per_region=0),
         "samples_per_region=0 must be at least 1"),
        (lambda p, f: lq_norm(np.array([]), 2.0), "needs at least one value"),
        # each of these raised TypeError
        (lambda p, f: maximal_function(f, make_points([0.0]), p, x_count=2.5),
         "^x_count=2.5 must be an integer$"),
        # a band whose grid the resolution rule refuses: the count is checked first
        (lambda p, f: convergence_scan(make_sobolev_data(1.0, 0, half_width=1.0, n=16384),
                                       make_points([0.0]), p, [0.5], x_count=2.5),
         "^x_count=2.5 must be an integer$"),
        (lambda p, f: estimate_operator_norm(2, (0.0, 0.5), 2.0, 0.5, p, trials=1.5),
         "^trials=1.5 must be an integer$"),
        (lambda p, f: decay_bound_scan(p, 0.5, [16.0], samples_per_region=1.5),
         "^samples_per_region=1.5 must be an integer$"),
        (lambda p, f: make_cantor(2, 0.3, 1.5), "^depth=1.5 must be an integer$"),
        # reported as an escaping interval
        (lambda p, f: make_cantor(2.5, 0.3, 2), "^m=2.5 must be an integer$"),
    ], ids=["density-zero", "density-negative", "density-fraction", "maximal-x-count-zero",
            "maximal-x-count-negative", "converge-x-count-zero", "converge-x-count-negative",
            "samples-per-region-zero", "lq-norm-empty", "maximal-x-count-fraction",
            "converge-x-count-fraction-before-grid", "norm-trials-fraction", "samples-per-region-fraction", "cantor-depth-fraction",
            "cantor-m-fraction"])
    def test_bad_count_raises_config_error(self, call, message):
        # each function checks the counts it uses, so a library caller gets the CLI's exit-2 error
        with pytest.raises(ConfigError, match=message):
            call(DispersionProfile.power(2.0), make_sobolev_data(1.0, 0, half_width=8.0, n=16))

    @pytest.mark.parametrize("call, message", [
        # numpy's "expected non-negative integer" ValueError
        (lambda p: make_sobolev_data(1.0, -1), "^seed=-1 must be a nonnegative integer$"),
        (lambda p: estimate_operator_norm(2, (0.0, 0.5), 2.0, 0.5, p, trials=1, seed=-1),
         "^seed=-1 must be a nonnegative integer$"),
        (lambda p: decay_bound_scan(p, 0.5, [16.0], 1, seed=-1),
         "^seed=-1 must be a nonnegative integer$"),
        # ZeroDivisionError
        (lambda p: make_sobolev_data(1.0, 0, half_width=0.0, n=16),
         r"^half_width=0.0: the box width 2\*half_width must be positive and finite$"),
    ] + [
        # OverflowError, ZeroDivisionError, numpy's "Maximum allowed dimension exceeded",
        # and a warning before "half_width=nan is too small"
        (lambda p, h=h: estimate_operator_norm(2, (0.0, 0.5), 2.0, 0.5, p, trials=1, half_width=h),
         rf"^half_width={h}: the box width 2\*half_width must be positive and finite$")
        for h in (-1.0, 0.0, float("inf"), float("nan"))
    ], ids=["sobolev-data-seed", "norm-seed", "decay-scan-seed", "sobolev-data-half-width",
            "norm-half-width-negative", "norm-half-width-zero", "norm-half-width-inf",
            "norm-half-width-nan"])
    def test_bad_seed_or_half_width_raises_config_error_before_any_work(self, call, message,
                                                                       monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("work began before the argument check")

        for module, name in ((np.random, "default_rng"), (maximal, "_scan")):
            monkeypatch.setattr(module, name, refuse)
        with pytest.raises(ConfigError, match=message):
            call(DispersionProfile.power(2.0))

    def test_theta_samples_capped_in_total(self, tmp_path, monkeypatch, capsys):
        # 64 components x 2 samples each = 128 directions, each component's
        # 2 and the 41 t slices under the cap of 100
        monkeypatch.setattr(maximal, "MAX_COUNT", 100)
        cfg = tmp_path / "c.cfg"
        cfg.write_text("n_grid = 16\nhalf_width = 8\n")
        argv = ["converge", "--theta", "cantor:2,0.3333333333333333,6", "--config", str(cfg)]
        assert main(argv + ["--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert err == ("numerical failure: the resolution rule asks for 2 theta samples on each "
                       "of 64 components at band 3.14159, more than 100\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag", ["--a", "--q", "--sigma", "--s"])
    @pytest.mark.parametrize("command", sorted(cli._COMMANDS))
    def test_nan_setting_exit_code(self, command, flag, tmp_path, capsys):
        assert main([command, flag, "nan", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error")
        assert err.count("\n") == 1
        assert not list(tmp_path.iterdir())

    def test_norm_scaling_band_count_checked_before_any_scan(self, tmp_path, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("a scan ran before the k-range check")

        monkeypatch.setattr("dispmax.experiments.estimate_operator_norm", refuse)
        argv = ["norm-scaling", "--k-min", "2", "--k-max", "3", "--out", str(tmp_path)]
        assert main(argv) == 2
        assert "k_max - k_min >= 2" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, setting, message", [
        (["cover", "--sigma", "1.5"], None, "sigma above 1 (sigma=1.5)"),
        (["cover"], "q = abc", "line 1: bad value for 'q'"),
        (["converge"], "scale_min_exp = 30000000",
         "scale_min_exp=30000000: 2^-30000000 underflows float64 to 0"),
        (["kernel-scan"], "lambda_min_exp = -1075", "lambda_min_exp=-1075: 2^-1075 underflows"),
        # the frequency step 2*pi puts no grid point in the P_2 shell [1, 4]
        (["norm-scaling", "--k-min", "2"], "half_width = 0.5",
         "no frequency of the grid of step pi/half_width = 6.28319 lies in the P_2 shell"),
    ], ids=["sigma-above-one", "q-not-a-number", "scale-exp-underflows",
            "lambda-exp-underflows", "norm-scaling-empty-shell"])
    def test_config_error_message(self, argv, setting, message, tmp_path, capsys):
        if setting:
            cfg = tmp_path / "c.cfg"
            cfg.write_text(setting + "\n")
            argv = argv + ["--config", str(cfg)]
        start = time.perf_counter()
        assert main(argv + ["--out", str(tmp_path / "out")]) == 2
        # refused before any list of 2^-e is built: 3*10^7 scales took 8 CPU s and 1.6 GB
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {message}") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_cantor_above_size_cap_fails_at_once(self, tmp_path, capsys):
        # 2^40 intervals; the cap refuses them before building any
        start = time.perf_counter()
        assert main(["check", "--theta", "cantor:2,0.3,40", "--out", str(tmp_path)]) == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert err.startswith("config error") and err.count("\n") == 1
        assert "2^40 intervals, more than 16777216" in err

    def test_numerical_failure_exit_code(self, tmp_path, capsys):
        # the default grid's Nyquist frequency is about 25, below the k=9 shell
        assert main(["maximal", "--band", "9", "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure:")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["evolve", "--a", "1e300"],
        ["maximal", "--a", "1e300"],
        ["converge", "--a", "300"],
    ], ids=["evolve", "maximal", "converge"])
    def test_overflowing_profile_exit_code(self, argv, tmp_path, capsys):
        # a is finite, but |xi|^a overflows on the band of the default grid
        assert main(argv + ["--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: Phi = |xi|^")
        assert err.count("\n") == 1
        assert not (tmp_path / "evolved.csv").exists()

    @pytest.mark.parametrize("argv, message", [
        (["norm-scaling", "--a", "300"], "the resolution rule asks for"),
        (["evolve", "--s", "400"], "H^400 data underflows"),
        (["converge", "--s", "400"], "H^400 data underflows"),
        (["evolve", "--s", "150"], "the H^150 norm overflows"),
        (["evolve", "--s", "12"], "the H^12 norm is rounding noise"),
        (["evolve", "--s", "15"], "the H^15 norm is rounding noise"),
        (["cover", "--theta", "interval:0,1", "--lam", "1e20"],
         "a cover by width-1e-10 intervals may take 1e+10"),
        (["evolve", "--t", "1e308"], "the phase t*Phi(xi) overflows at t = 1e+308"),
    ], ids=["grid-size", "evolve-underflow", "converge-underflow", "evolve-norm-overflow",
            "evolve-norm-noise-s12", "evolve-norm-noise-s15", "cover-size",
            "evolve-phase-overflow"])
    def test_out_of_range_exit_code(self, argv, message, tmp_path, capsys):
        # finite settings whose grid or data leave what float64 or memory holds
        assert main(argv + ["--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"numerical failure: {message}")
        assert err.count("\n") == 1
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [["maximal"], ["maximal", "--band", "2"], ["evolve"]],
                             ids=["maximal", "maximal-band", "evolve"])
    def test_input_whose_transform_overflows_exit_code(self, argv, tmp_path, capsys):
        # finite samples of size 1e308 sum past float64 in the transform; a
        # scan of it would fold NaN cells and report the fold's -1.0, a
        # projection would hand on NaN samples; forward_transform refuses it
        # for the scan, project and evolve alike, without a numpy warning
        x = -8.0 + 0.25 * np.arange(64)
        path = tmp_path / "huge.csv"
        path.write_text("x,re,im\n" + "".join(f"{v!r},1e308,0\n" for v in x.tolist()))
        assert main(argv + ["--input", str(path), "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert err == "numerical failure: the signal's transform overflows float64\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("s", ["1", "9"])
    def test_evolve_norm_above_noise_floor(self, s, tmp_path, capsys):
        # on the default grid the weights lift the transform's rounding noise
        # to 2.8e-7 of the H^9 sum, below the 1e-6 at which evolve refuses
        assert main(["evolve", "--s", s, "--out", str(tmp_path)]) == 0
        out, err = capsys.readouterr()
        path = tmp_path / "evolved.csv"
        assert out.splitlines() == [f"H^{s} norm in = 1.10162", f"wrote {path}"] and not err
        assert path.exists()

    def test_library_warning_is_one_line(self, tmp_path, capsys):
        assert main(["evolve", "--t", "2", "--out", str(tmp_path)]) == 0
        err = capsys.readouterr().err
        assert err == "warning: |t| = 2 > 1 is outside the nominal time window\n"

    @pytest.mark.parametrize("exc, line", [
        (MemoryError("Unable to allocate 8.00 TiB for an array"),
         "numerical failure: Unable to allocate 8.00 TiB for an array\n"),
        (MemoryError(), "numerical failure: out of memory\n"),
    ], ids=["numpy-message", "bare"])
    def test_memory_error_exit_code(self, exc, line, tmp_path, monkeypatch, capsys):
        # stands in for a grid too large to allocate, e.g. n_grid = 2^40
        def refuse(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli, "make_sobolev_data", refuse)
        assert main(["evolve", "--out", str(tmp_path)]) == 3
        assert capsys.readouterr().err == line
        assert not list(tmp_path.iterdir())

    def test_region_sampling_failure_exit_code(self, tmp_path, capsys):
        # at lambda = 2^10 and sigma = 1 region V3 is too thin to fill its quota
        cfg = tmp_path / "thin.cfg"
        cfg.write_text("lambda_min_exp = 10\nlambda_max_exp = 10\n")
        argv = ["kernel-scan", "--sigma", "1", "--config", str(cfg), "--out", str(tmp_path)]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure:")
        assert err.count("\n") == 1

    def test_panel_budget_exit_code(self, tmp_path, capsys):
        # at lambda = 2^15 the first sampled pair's phase needs more than PANEL_LIMIT panels
        cfg = tmp_path / "far.cfg"
        cfg.write_text("lambda_min_exp = 15\nlambda_max_exp = 15\nsamples_per_region = 1\n")
        argv = ["kernel-scan", "--config", str(cfg), "--out", str(tmp_path)]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: panel budget 1000000 exceeded")
        assert err.count("\n") == 1
        assert not [p for p in tmp_path.iterdir() if p.suffix in (".csv", ".gp")]

    def test_unknown_config_key_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("nonsense = 1\n")
        assert main(["check", "--config", str(cfg)]) == 2
        assert "line 1" in capsys.readouterr().err

    def test_env_var_sets_output_directory(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DISPMAX_OUT", str(tmp_path / "envout"))
        rc = main(["cover", "--theta", "point:0.5", "--lam", "16", "--sigma", "0.5"])
        assert rc == 0
        assert (tmp_path / "envout" / "cover.csv").exists()

    def test_flag_overrides_config_file(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("seed = 5\ntheta = point:0\n")
        rc = main(["cover", "--config", str(cfg), "--theta", "points:0,0.5",
                   "--out", str(tmp_path)])
        assert rc == 0
        table = read_csv(tmp_path / "cover.csv")
        assert table.provenance["seed"] == 5
        assert table.provenance["count"] == 2

    def test_outputs_are_byte_identical_across_runs_and_dirs(self, tmp_path):
        args = ["dim", "--theta", "cantor:2,0.25,6", "--seed", "7"]
        out1, out2 = tmp_path / "one", tmp_path / "two"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        b1 = (out1 / "dimension.csv").read_bytes()
        b2 = (out2 / "dimension.csv").read_bytes()
        assert b1 == b2

    def test_cli_runs_without_loading_scipy(self, tmp_path):
        # scipy is a test dependency only. pytest's own process has it loaded
        # already (tests/shell_ceiling.py), so every command runs in a fresh
        # interpreter, on a tiny config.
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text("trials = 1\nscale_min_exp = 2\nlambda_min_exp = 4\n"
                       "lambda_max_exp = 5\nsamples_per_region = 3\n")
        runner = textwrap.dedent("""
            import sys
            from dispmax.cli import main
            for argv in (["check"],
                         ["dim", "--theta", "cantor:2,0.3333333333333333,4"],
                         ["cover", "--theta", "interval:0,1", "--lam", "16"],
                         ["evolve"],
                         ["maximal", "--band", "1"],
                         ["converge"],
                         ["norm-scaling", "--k-min", "1", "--k-max", "3"],
                         ["kernel-scan"]):
                assert main(argv + ["--config", sys.argv[2], "--out", sys.argv[1]]) == 0, argv
            loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
            assert not loaded, loaded
        """)
        src = str(Path(dispmax.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", runner, str(tmp_path), str(cfg)],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        written = {p.name for p in tmp_path.glob("*.csv")}
        assert written == {"dimension.csv", "cover.csv", "evolved.csv", "maximal.csv",
                           "converge.csv", "scaling.csv", "kernel_scan.csv",
                           "van_der_corput.csv"}
