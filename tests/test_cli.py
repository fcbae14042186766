import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from mlmsim import cli
from mlmsim import config as cfgmod
from mlmsim import controller as ctl
from mlmsim import device as dev
from mlmsim import encoder as enc

# Coarse cycle timing so CLI runs stay fast; everything else defaulted.
FAST_CYCLE = {"cycle": {"dt": 4e-6}}


@pytest.fixture
def fast_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(FAST_CYCLE))
    return str(path)


class TestConfigLoading:
    def test_none_and_empty_resolve_to_defaults(self, tmp_path):
        empty = tmp_path / "empty.json"
        empty.write_text("")
        a = cfgmod.load_config(None)
        b = cfgmod.load_config(str(empty))
        assert cfgmod.config_hash(a) == cfgmod.config_hash(b)
        assert a.cycle.dt == 5e-7
        assert a.topology.r_ground == 200.0

    def test_explicit_defaults_hash_like_empty(self, tmp_path):
        base = cfgmod.default_config()
        path = tmp_path / "full.json"
        path.write_text(json.dumps(base.resolved()))
        assert cfgmod.config_hash(cfgmod.load_config(str(path))) == cfgmod.config_hash(base)

    def test_value_change_changes_hash(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"device": {"drift_rate": 1234.0}}))
        assert (cfgmod.config_hash(cfgmod.load_config(str(path)))
                != cfgmod.config_hash(cfgmod.default_config()))

    def test_syntax_error_is_line_anchored(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "device": {\n    "r_on": oops\n  }\n}\n')
        with pytest.raises(cfgmod.ConfigError) as err:
            cfgmod.load_config(str(path))
        assert ":3:" in str(err.value)

    def test_unknown_key_reports_full_path(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"device": {"resistance": 5}}))
        with pytest.raises(cfgmod.ConfigError, match="device.resistance"):
            cfgmod.load_config(str(path))
        # keys of options that no longer exist
        for doc, key in [
            ({"topology": {"wiring": {"read_series_ohms": 50.0}}}, "topology.wiring"),
            ({"encoder": {"logic0_band": [-0.2, 0.004]}}, "encoder.logic0_band"),
            ({"device": {"kind": "linear_drift"}}, "device.kind"),
            ({"topology": {"n_subcells": 3}}, "topology.n_subcells"),
            ({"encoder": {"comparator_rail": 3.0}}, "encoder.comparator_rail"),
            ({"encoder": {"logic_rail": 1.5}}, "encoder.logic_rail"),
            ({"encoder": {"v_th": 0.3}}, "encoder.v_th"),
        ]:
            path.write_text(json.dumps(doc))
            with pytest.raises(cfgmod.ConfigError, match=f"unknown key {key}"):
                cfgmod.load_config(str(path))
            assert cli.main(["sweep", "--config", str(path),
                             "--out", str(tmp_path / "x.csv")]) == 1

    def test_readme_example_config_loads(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
            encoding="utf-8")
        blocks = re.findall(r"```json\n(.*?)```", readme, re.S)
        assert blocks, "README.md has no json block"
        for i, block in enumerate(blocks):
            path = tmp_path / f"readme{i}.json"
            path.write_text(block)
            cfgmod.load_config(str(path))

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"devices": {}}))
        with pytest.raises(cfgmod.ConfigError, match="config.devices"):
            cfgmod.load_config(str(path))

    @pytest.mark.parametrize("doc", [
        {"device": 5}, {"encoder": 5}, {"cycle": None}, {"device": "ab"},
        {"noise": [1]},
    ], ids=["device-int", "encoder-int", "cycle-null", "device-str", "noise-list"])
    def test_section_must_be_an_object(self, tmp_path, doc, capsys):
        (section,) = doc
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(cfgmod.ConfigError, match=f"^{section} must be an object$"):
            cfgmod.load_config(str(path))
        assert cli.main(["encode", "1.3", "--config", str(path)]) == 1
        assert f"{section} must be an object" in capsys.readouterr().err

    def test_invalid_value_carries_section(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"device": {"r_on": -5.0}}))
        with pytest.raises(cfgmod.ConfigError, match="device"):
            cfgmod.load_config(str(path))
        for doc, section in [
            ({"cycle": {"t_write": 1000}}, "cycle"),
            ({"device": {"v_th_neg": 1.0}}, "device"),
            ({"noise": {"rng_seed": 1.5}}, "noise"),
            ({"noise": {"rng_seed": 1.5, "source_noise_sigma": 0.001}}, "noise"),
        ]:
            path.write_text(json.dumps(doc))
            with pytest.raises(cfgmod.ConfigError, match=section):
                cfgmod.load_config(str(path))
            assert cli.main(["sweep", "--config", str(path),
                             "--out", str(tmp_path / "x.csv")]) == 1

    def test_custom_bins_and_wiring(self, tmp_path):
        doc = {
            "encoder": {"bins": [[0.0, 1.4, "012"], [1.5, 3.0, "210"]]},
            "topology": {"r_series": [400, 500, 600], "read_series_ohms": 50.0},
        }
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        sim = cfgmod.load_config(str(path))
        assert len(sim.table.rows) == 2
        assert sim.topology.per_subcell("r_series") == (400.0, 500.0, 600.0)
        assert sim.topology.read_series_ohms == 50.0

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_number_rejected(self, tmp_path, capsys, constant):
        path = tmp_path / "c.json"
        path.write_text('{"cycle": {"t_write": %s}}' % constant)
        with pytest.raises(cfgmod.ConfigError, match=constant):
            cfgmod.load_config(str(path))
        assert cli.main(["sweep", "--config", str(path),
                         "--out", str(tmp_path / "x.csv")]) == 1
        assert constant in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        '{"device": {"drift_rate": 1e400}}',
        '{"topology": {"r_ground": 1e400}}',
        '{"topology": {"r_series": [500, -1e400, 500]}}',
        '{"topology": {"r_ground": 1%s}}' % ("0" * 400),
        '{"encoder": {"comparator_offset": 1e400}}',
        '{"encoder": {"bins": [[0.0, 1e400, "222"]]}}',
    ], ids=["device", "topology", "r_series-entry", "400-digit-integer", "encoder",
            "bin-bound"])
    def test_number_overflowing_a_float_rejected(self, tmp_path, capsys, text):
        path = tmp_path / "c.json"
        path.write_text(text)
        with pytest.raises(cfgmod.ConfigError, match="overflows a float"):
            cfgmod.load_config(str(path))
        assert cli.main(["sweep", "--config", str(path),
                         "--out", str(tmp_path / "x.csv")]) == 1
        assert "overflows a float" in capsys.readouterr().err

    @pytest.mark.parametrize("doc, where", [
        ({"device": {"window_p": True}}, "device.window_p"),
        ({"noise": {"rng_seed": False}}, "noise.rng_seed"),
        ({"cycle": {"dt": True}}, "cycle.dt"),
        ({"topology": {"r_series": [500, True, 500]}}, "topology.r_series[1]"),
        ({"encoder": {"bins": [[0.0, False, "222"]]}}, "encoder.bins[0][1]"),
    ], ids=["window_p", "rng_seed", "dt", "r_series-item", "bin-bound"])
    def test_boolean_rejected(self, tmp_path, capsys, doc, where):
        # JSON true and false would otherwise pass as the numbers 1 and 0
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(cfgmod.ConfigError, match=re.escape(where)):
            cfgmod.load_config(str(path))
        out = tmp_path / "x.csv"
        assert cli.main(["sweep", "--config", str(path), "--out", str(out)]) == 1
        assert where in capsys.readouterr().err
        assert not out.exists()

    def test_missing_file_is_config_error(self):
        with pytest.raises(cfgmod.ConfigError):
            cfgmod.load_config("/nonexistent/config.json")


class TestImport:
    def test_cli_import_leaves_scipy_optimize_unloaded(self):
        import mlmsim

        code = "import sys, mlmsim.cli; print('scipy.optimize' in sys.modules)"
        src = os.path.dirname(os.path.dirname(os.path.abspath(mlmsim.__file__)))
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True, env=env).stdout
        assert out.strip() == "False"


class TestEncodeCommand:
    def test_reference_example(self, capsys):
        assert cli.main(["encode", "1.3"]) == 0
        out = capsys.readouterr().out
        assert "012 -> 0V 2.5V 4V" in out
        assert "quantized 012" in out

    def test_out_of_range_exits_nonzero(self, capsys):
        assert cli.main(["encode", "5.0"]) == 1
        assert "error" in capsys.readouterr().err

    def test_domain_endpoint(self, capsys):
        assert cli.main(["encode", "3.0"]) == 0
        assert "000 -> 0V 0V 0V" in capsys.readouterr().out


class TestSweepCommand:
    def test_outputs_and_reproducibility(self, tmp_path, fast_config, capsys):
        out = tmp_path / "sweep.csv"
        args = ["sweep", "--config", fast_config, "--out", str(out)]
        assert cli.main(args) == 0
        first = out.read_bytes()
        lines = first.decode().strip().splitlines()
        assert lines[0] == "v_in,code,temp_C,trial,v_out"
        assert len(lines) == 62
        v_outs = {line.split(",")[4] for line in lines[1:]}
        assert len(v_outs) == 10
        patterns = (tmp_path / "sweep_patterns.csv").read_bytes()
        manifest = json.loads((tmp_path / "sweep.csv.manifest.json").read_text())
        assert manifest["seed"] == 0
        assert manifest["config_hash"] == cfgmod.config_hash(
            cfgmod.load_config(fast_config))

        assert "peak network source power over the sweep" in capsys.readouterr().out

        assert cli.main(args) == 0
        assert out.read_bytes() == first
        assert (tmp_path / "sweep_patterns.csv").read_bytes() == patterns

    def test_one_simulation_per_sweep(self, tmp_path, fast_config, monkeypatch):
        calls = [0]
        step_array = dev.step_array

        def counting(*args, **kwargs):
            calls[0] += 1
            return step_array(*args, **kwargs)

        monkeypatch.setattr(dev, "step_array", counting)
        assert cli.main(["sweep", "--config", fast_config,
                         "--out", str(tmp_path / "s.csv")]) == 0
        # one reset/write/read cycle at dt = 4 us: 150 + 150 + 50 steps
        assert calls[0] <= 350

    def test_structural_adds_quantized_column(self, tmp_path, fast_config):
        out = tmp_path / "s.csv"
        assert cli.main(["sweep", "--config", fast_config, "--encoder",
                         "structural", "--out", str(out)]) == 0
        header = (tmp_path / "s_patterns.csv").read_text().splitlines()[0]
        assert header.endswith("code_quantized")

    def test_simulation_error_exit_code(self, tmp_path):
        doc = {"device": {"v_th_pos": 0.0, "v_th_neg": 0.0},
               "cycle": {"dt": 4e-6, "v_read": 2.0}}
        path = tmp_path / "loud.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["sweep", "--config", str(path),
                         "--out", str(tmp_path / "x.csv")]) == 2


class TestUnwritableOutput:
    """An output that cannot be written exits 1 with one error line naming it."""

    @pytest.fixture(params=["existing directory", "parent is a file"])
    def bad_path(self, request, tmp_path):
        if request.param == "existing directory":
            path = tmp_path / "taken"
            path.mkdir()
            return str(path)
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        return str(blocker / "sub" / "out.csv")

    @pytest.fixture
    def targets(self, tmp_path):
        # the cell's own levels: the fit starts at zero residual, so it writes
        v_out, _ = ctl.simulate_levels(ctl.make_cell(), ctl.CycleConfig(dt=4e-6))
        path = tmp_path / "targets.csv"
        path.write_text("code,v_out\n" + "\n".join(
            f"{row.code},{float(v)!r}" for row, v in zip(enc.DEFAULT_BIN_TABLE.rows, v_out)))
        return str(path)

    SIMULATIONS = {"sweep": "run_input_sweep", "temp-study": "run_temperature_study",
                   "calibrate": "calibrate"}

    @staticmethod
    def _forbid(monkeypatch, simulation):
        def never(*args, **kwargs):
            raise AssertionError(f"{simulation} ran before the outputs were checked")

        monkeypatch.setattr(ctl, simulation, never)

    @pytest.mark.parametrize("command", ["sweep --out", "sweep --patterns-out",
                                         "temp-study --out", "calibrate --out"])
    def test_exits_1_naming_the_path(self, tmp_path, fast_config, targets, capsys,
                                     monkeypatch, command, bad_path):
        name, flag = command.split()
        self._forbid(monkeypatch, self.SIMULATIONS[name])
        argv = [name, "--config", fast_config, "--out", str(tmp_path / "fine.csv"),
                flag, bad_path]
        if name == "temp-study":
            argv += ["--temps", "20,50", "--trials", "2"]
        elif name == "calibrate":
            argv += ["--targets", targets, "--maxiter", "1", "--restarts", "1"]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {bad_path}: ")
        assert err.count("\n") == 1
        # the check of --out leaves no file behind
        assert not (tmp_path / "fine.csv").exists()
        assert not (tmp_path / "fine.csv.manifest.json").exists()

    def test_unwritable_manifest_found_first(self, tmp_path, fast_config, capsys,
                                             monkeypatch):
        self._forbid(monkeypatch, "run_input_sweep")
        out = tmp_path / "s.csv"
        (tmp_path / "s.csv.manifest.json").mkdir()
        assert cli.main(["sweep", "--config", fast_config, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: cannot write {out}.manifest.json: ")
        assert not out.exists()

    def test_check_leaves_an_existing_output_unchanged(self, tmp_path, fast_config,
                                                       bad_path):
        out = tmp_path / "kept.csv"
        out.write_text("earlier run\n")
        assert cli.main(["sweep", "--config", fast_config, "--out", str(out),
                         "--patterns-out", bad_path]) == 1
        assert out.read_text() == "earlier run\n"

    @pytest.mark.parametrize("patterns_out, manifest", [
        ("s.csv", "s.csv"), ("./s.csv", "s.csv"), ("sub/../s.csv", "s.csv"),
        ("s.csv.manifest.json", "s.csv.manifest.json")])
    def test_outputs_sharing_a_file_rejected(self, tmp_path, fast_config, capsys,
                                             monkeypatch, patterns_out, manifest):
        self._forbid(monkeypatch, "run_input_sweep")
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        assert cli.main(["sweep", "--config", fast_config, "--out", "s.csv",
                         "--patterns-out", patterns_out]) == 1
        err = capsys.readouterr().err
        assert err == (f"error: {manifest} and {patterns_out} are the same file; "
                       "give each output its own path\n")
        assert sorted(os.listdir(tmp_path)) == ["config.json", "sub"]


class TestTempStudyCommand:
    def test_zero_noise_stdev_column(self, tmp_path, fast_config):
        out = tmp_path / "stats.csv"
        assert cli.main(["temp-study", "--config", fast_config, "--temps",
                         "20,50", "--trials", "2", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "code,temp_C,mean_V,stdev_V"
        assert len(lines) == 21
        assert all(float(line.split(",")[3]) == 0.0 for line in lines[1:])

    def test_seeded_run_reproducible(self, tmp_path):
        doc = {"cycle": {"dt": 4e-6}, "noise": {"source_noise_sigma": 1e-3}}
        cfg = tmp_path / "noisy.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "stats.csv"
        args = ["temp-study", "--config", str(cfg), "--temps", "20",
                "--trials", "3", "--seed", "5", "--out", str(out)]
        assert cli.main(args) == 0
        first = out.read_bytes()
        assert cli.main(args) == 0
        assert out.read_bytes() == first

    def test_drift_check_printed(self, tmp_path, fast_config, capsys):
        assert cli.main(["temp-study", "--config", fast_config, "--temps",
                         "20,50", "--trials", "2",
                         "--out", str(tmp_path / "s.csv")]) == 0
        assert "1% bound" in capsys.readouterr().out

    def test_drift_is_relative_to_the_mean_magnitude(self, tmp_path, capsys):
        # a negative read gives negative levels, and their drift is still
        # (max - min) / |mean|, not a negative number that reads as none
        doc = {"cycle": {"dt": 4e-6, "v_read": -0.05}, "noise": {"source_noise_sigma": 1e-3}}
        cfg = tmp_path / "negative.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "s.csv"
        assert cli.main(["temp-study", "--config", str(cfg), "--temps", "20,50",
                         "--trials", "2", "--out", str(out)]) == 0
        printed = re.search(r"drift across temperatures: ([0-9.]+)%", capsys.readouterr().out)
        means = {}
        with open(out, newline="", encoding="utf-8") as handle:
            for row in csv.DictReader(handle):
                means.setdefault(row["code"], []).append(float(row["mean_V"]))
        assert all(m < 0 for values in means.values() for m in values)
        want = max((max(v) - min(v)) / abs(sum(v) / len(v)) for v in means.values())
        assert want > 1e-3
        # printed to 1e-6 of the mean, from means the CSV rounds to 10 digits
        assert float(printed.group(1)) / 100 == pytest.approx(want, abs=1e-6)

    def test_one_temperature_gives_no_drift_verdict(self, tmp_path, fast_config, capsys):
        out = tmp_path / "s.csv"
        assert cli.main(["temp-study", "--config", fast_config, "--temps", "20",
                         "--trials", "2", "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert f"wrote 10 rows to {out}" in printed
        assert "needs two or more temperatures" in printed
        assert "bound" not in printed and "%" not in printed
        assert len(out.read_text().strip().splitlines()) == 11

    @pytest.mark.parametrize("temps", ["inf,20", "nan,20", "-300,20", "20,20", ""])
    def test_invalid_temperature_rejected(self, tmp_path, fast_config, capsys, temps):
        out = tmp_path / "s.csv"
        assert cli.main(["temp-study", "--config", fast_config, f"--temps={temps}",
                         "--trials", "2", "--out", str(out)]) == 1
        assert "temperature" in capsys.readouterr().err
        assert not out.exists()

    def test_below_absolute_zero_names_the_input(self, tmp_path, fast_config, capsys):
        out = tmp_path / "s.csv"
        assert cli.main(["temp-study", "--config", fast_config, "--temps=-300",
                         "--trials", "2", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "-300" in err and "-26.85" not in err
        assert not out.exists()

    def test_too_few_trials_rejected(self, tmp_path, fast_config):
        assert cli.main(["temp-study", "--config", fast_config, "--trials", "1",
                         "--out", str(tmp_path / "s.csv")]) == 1

    def test_study_over_row_limit_rejected(self, tmp_path, fast_config, capsys,
                                           monkeypatch):
        def no_simulation(*args, **kwargs):
            raise AssertionError("a study over the row limit reached the simulation")

        monkeypatch.setattr(ctl, "_run_batch", no_simulation)
        out = tmp_path / "s.csv"
        trials = ctl.MAX_BATCH_ROWS // 10 + 1
        assert cli.main(["temp-study", "--config", fast_config, "--temps", "20",
                         "--trials", str(trials), "--out", str(out)]) == 1
        assert "row limit" in capsys.readouterr().err
        assert not out.exists()

    def test_non_positive_temperature_factor_rejected(self, tmp_path, capsys):
        path = tmp_path / "cold_coeff.json"
        path.write_text(json.dumps({"device": {"temp_coeff": -0.01}, **FAST_CYCLE}))
        out = tmp_path / "s.csv"
        assert cli.main(["temp-study", "--config", str(path), "--temps", "20,150",
                         "--trials", "2", "--out", str(out)]) == 1
        assert "temperature factor" in capsys.readouterr().err
        assert not out.exists()

    def test_seed_flag_overrides_config(self, tmp_path, fast_config, monkeypatch):
        args = ["temp-study", "--config", fast_config, "--temps", "20",
                "--trials", "2", "--out", str(tmp_path / "stats.csv")]
        manifest = tmp_path / "stats.csv.manifest.json"
        assert cli.main(args + ["--seed", "77"]) == 0
        assert json.loads(manifest.read_text())["seed"] == 77
        # the environment is no seed source: without the flag the config's 0 stands
        monkeypatch.setenv("MLMSIM_SEED", "77")
        assert cli.main(args) == 0
        assert json.loads(manifest.read_text())["seed"] == 0


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [["temp-study", "--trials", "abc"],
                                      ["sweep", "--bogus"],
                                      ["temp-study", "--temps", "-10,20"]])
    def test_usage_error_exits_1(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == cli.EXIT_DOMAIN
        err = capsys.readouterr().err
        assert err.startswith("usage: mlmsim")
        assert "error:" in err


class TestCalibrateCommand:
    def test_missing_targets_file(self, tmp_path, fast_config):
        assert cli.main(["calibrate", "--config", fast_config, "--targets",
                         str(tmp_path / "nope.csv"),
                         "--out", str(tmp_path / "fit.json")]) == 1

    def test_nan_target_rejected(self, tmp_path, fast_config, capsys):
        targets = tmp_path / "targets.csv"
        targets.write_text("code,v_out\n222,3.3e-4\n000,nan\n")
        out = tmp_path / "fit.json"
        assert cli.main(["calibrate", "--config", fast_config, "--targets",
                         str(targets), "--out", str(out), "--restarts", "1"]) == 1
        assert "finite and nonzero" in capsys.readouterr().err
        assert not out.exists()

    def test_duplicate_target_code_rejected(self, tmp_path, fast_config, capsys):
        targets = tmp_path / "targets.csv"
        targets.write_text("code,v_out\n222,4e-4\n222,0.02\n000,0.014\n")
        out = tmp_path / "fit.json"
        assert cli.main(["calibrate", "--config", fast_config, "--targets",
                         str(targets), "--out", str(out), "--restarts", "1"]) == 1
        assert "target code 222 is given more than once" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("maxiter", ["0", "-3"])
    def test_maxiter_below_one_rejected(self, tmp_path, fast_config, capsys, maxiter):
        targets = tmp_path / "targets.csv"
        targets.write_text("code,v_out\n222,3.3e-4\n000,1.4e-2\n")
        out = tmp_path / "fit.json"
        assert cli.main(["calibrate", "--config", fast_config, "--targets",
                         str(targets), "--out", str(out), "--restarts", "1",
                         f"--maxiter={maxiter}"]) == 1
        assert f"maxiter must be at least 1, got {maxiter}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text, message", [
        ("code,v_out\n222\n", ":2: expected code,v_out"),
        ("code,v_out\n222,3.3e-4x\n000,1.4e-2\n", ":2: v_out '3.3e-4x' is not a number"),
        ("# levels\n222,3.3e-4\n000,1.4e-2x\n", ":3: v_out '1.4e-2x' is not a number"),
    ], ids=["one-column", "bad-number", "bad-number-after-comment"])
    def test_bad_targets_row_rejected(self, tmp_path, fast_config, capsys, text, message):
        targets = tmp_path / "targets.csv"
        targets.write_text(text)
        out = tmp_path / "fit.json"
        assert cli.main(["calibrate", "--config", fast_config, "--targets",
                         str(targets), "--out", str(out), "--restarts", "1"]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_quick_calibration_writes_report(self, tmp_path, capsys):
        from mlmsim import controller as ctl
        from mlmsim import encoder as enc

        cell = ctl.make_cell()
        fast = ctl.CycleConfig(dt=4e-6)
        v_out, _ = ctl.simulate_levels(cell, fast)
        targets = tmp_path / "targets.csv"
        targets.write_text("code,v_out\n" + "\n".join(
            f"{row.code},{v:.9e}"
            for row, v in zip(enc.DEFAULT_BIN_TABLE.rows, v_out)))
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"cycle": {"dt": 4e-6},
                                   "device": {"drift_rate": 1600.0}}))
        out = tmp_path / "fit.json"
        assert cli.main(["calibrate", "--config", str(cfg), "--targets",
                         str(targets), "--out", str(out), "--restarts", "1",
                         "--maxiter", "60", "--seed", "2"]) == 0
        report = json.loads(out.read_text())
        assert report["residual_best"] < report["residual_initial"]
        assert len(report["per_code"]) == 10
        assert "improvement" in capsys.readouterr().out


class TestGoldenOutputs:
    """Data outputs keep the bytes of the files under tests/data.

    A change that moves a result on purpose regenerates them with
      mlmsim sweep --out tests/data/sweep.csv
      mlmsim temp-study --config <{"noise": {"source_noise_sigma": 1e-3}}> \\
          --temps 20,50 --trials 2 --seed 3 --out tests/data/temp_study_1mV.csv
    and deletes the manifests those leave beside them.
    """

    DATA = Path(__file__).resolve().parent / "data"

    def test_default_sweep(self, tmp_path):
        assert cli.main(["sweep", "--out", str(tmp_path / "sweep.csv")]) == 0
        for name in ("sweep.csv", "sweep_patterns.csv"):
            assert (tmp_path / name).read_bytes() == (self.DATA / name).read_bytes(), name

    def test_noisy_temp_study(self, tmp_path):
        config = tmp_path / "noise.json"
        config.write_text(json.dumps({"noise": {"source_noise_sigma": 1e-3}}))
        out = tmp_path / "temp_study_1mV.csv"
        assert cli.main(["temp-study", "--config", str(config), "--temps", "20,50",
                         "--trials", "2", "--seed", "3", "--out", str(out)]) == 0
        assert out.read_bytes() == (self.DATA / out.name).read_bytes()
