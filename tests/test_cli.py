import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import floatlab
from floatlab import cli


@pytest.fixture
def small_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "grid": {"n_side": 48},
        "time": {"dt": 0.05, "T_max": 20.0},
        "seed": 3,
    }))
    return path


class TestConfig:
    def test_defaults_load_without_file(self):
        cfg = cli.load_config(None)
        assert cfg["params"] == {"a": 1.0, "mu": 1.0}
        assert cfg["grid"]["n_side"] == 100
        cli.validate_config(cfg)

    def test_sections_merge(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"grid": {"n_side": 64}, "seed": 9}))
        cfg = cli.load_config(path)
        assert cfg["grid"]["n_side"] == 64
        assert cfg["grid"]["L"] == 20.0
        assert cfg["seed"] == 9

    @pytest.mark.parametrize("patch", [
        {"params": {"a": -1.0}},
        {"grid": {"n_side": 0}},
        {"grid": {"L": 0.5}},
        {"grid": {"sponge_width": 50.0}},
        {"time": {"dt": -0.1}},
        {"time": {"scheme": "leapfrog"}},
        {"sweep": {"theta": 2.0}},
        {"lqr": {"method": "shooting"}},
    ])
    def test_invalid_configs_exit_two(self, tmp_path, patch):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(patch))
        code = cli.main(["--config", str(path), "--out", str(tmp_path), "spectrum"])
        assert code == 2

    @pytest.mark.parametrize("text", [
        '{"grid": {"n_side": "100"}}',
        '[{"grid": {"n_side": 50}}]',
        '{"time": {"dt": NaN}}',
        '{"time": {"T_max": Infinity}}',
        '{"grid": {"n_sides": 50}}',
    ])
    def test_malformed_configs_exit_two(self, tmp_path, capsys, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        code = cli.main(["--config", str(path), "--out", str(tmp_path), "spectrum"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("patch", [
        {"grid": {"n_side": 24}, "time": {"dt": 0.2}},
        {"time": {"T_max": 100.0}},
        {"grid": {"n_side": 24}, "time": {"dt": 0.1, "T_max": 50.0}},
    ])
    def test_benchmark_overrides_accepted(self, tmp_path, patch):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(patch))
        cli.validate_config(cli.load_config(path))

    def test_missing_config_file_exits_two(self, tmp_path):
        code = cli.main(["--config", str(tmp_path / "nope.json"),
                         "--out", str(tmp_path), "spectrum"])
        assert code == 2


class TestSpectrumCommand:
    def test_outputs_and_left_half_plane(self, tmp_path, small_config):
        out = tmp_path / "out"
        assert cli.main(["--config", str(small_config), "--out", str(out),
                         "spectrum"]) == 0
        with open(out / "spectrum.csv") as fh:
            rows = list(csv.DictReader(fh))
        off = [r for r in rows if r["source"] == "eig_sponge_off"]
        assert len(off) == 4 * 48 - 1
        assert max(float(r["re"]) for r in off) <= 1e-8
        singular_rows = [r for r in rows if r["source"] == "singular_set"]
        assert len(singular_rows) <= 4
        summary = json.loads((out / "spectrum.json").read_text())
        assert summary["max_re_sponge_off"] <= 1e-8


class TestSimulateCommand:
    def test_energy_column_monotone(self, tmp_path, small_config):
        out = tmp_path / "out"
        assert cli.main(["--config", str(small_config), "--out", str(out),
                         "simulate", "--z0", "bump:amplitude=0.3",
                         "--controller", "none"]) == 0
        data = np.genfromtxt(out / "trajectory.csv", delimiter=",", names=True)
        energy = data["E"]
        assert np.all(np.diff(energy) <= 1e-10 * energy[0])
        balance = json.loads((out / "energy_balance.json").read_text())
        assert balance["max_defect"] < 1e-2

    def test_incompatible_preset_exits_three(self, tmp_path, small_config):
        code = cli.main(["--config", str(small_config), "--out", str(tmp_path),
                         "simulate", "--z0", "heave:G0=1", "--controller", "none"])
        assert code == 3

    def test_alpha_controller(self, tmp_path, small_config):
        out = tmp_path / "out"
        assert cli.main(["--config", str(small_config), "--out", str(out),
                         "simulate", "--z0", "heave", "--controller",
                         "alpha:0.5"]) == 0
        data = np.genfromtxt(out / "trajectory.csv", delimiter=",", names=True)
        assert np.any(data["u"] != 0.0)


class TestLqrCommand:
    def test_artifacts_and_optimality(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"grid": {"n_side": 40},
                                   "time": {"dt": 0.05, "T_max": 120.0}}))
        out = tmp_path / "out"
        assert cli.main(["--config", str(cfg), "--out", str(out), "lqr",
                         "--z0", "heave"]) == 0
        from floatlab.linalg import load_matrix
        p = load_matrix(out / "riccati.bin")
        assert p.shape == (159, 159)
        assert np.abs(p - p.T).max() <= 1e-10
        with open(out / "compare.csv") as fh:
            rows = list(csv.DictReader(fh))
        optimal = next(r for r in rows if r["controller"] == "optimal")
        others = [float(r["J"]) for r in rows if r["controller"] != "optimal"]
        assert float(optimal["J"]) <= min(others) * (1 + 1e-6)
        report = json.loads((out / "lqr.json").read_text())
        assert report["relative_gap"] <= 0.02
        assert report["optimal_is_best"] is True


class TestVerifyCommand:
    def test_pass_and_determinism(self, tmp_path, small_config):
        out1, out2 = tmp_path / "v1", tmp_path / "v2"
        assert cli.main(["--config", str(small_config), "--out", str(out1),
                         "--seed", "5", "verify"]) == 0
        assert cli.main(["--config", str(small_config), "--out", str(out2),
                         "--seed", "5", "verify"]) == 0
        assert (out1 / "verify.json").read_bytes() == (out2 / "verify.json").read_bytes()
        report = json.loads((out1 / "verify.json").read_text())
        assert report["all_passed"] is True
        assert len(report["suites"]) == 10

    def test_fault_injection_fails(self, tmp_path, small_config, capsys):
        code = cli.main(["--config", str(small_config), "--out", str(tmp_path),
                         "verify", "--inject-fault", "m_inverse"])
        assert code == 1
        assert "coupling_matrix" in capsys.readouterr().err


class TestResolventCheckCommand:
    def test_report_passes_at_default_resolution(self, tmp_path):
        out = tmp_path / "out"
        assert cli.main(["--out", str(out), "--seed", "11",
                         "resolvent-check"]) == 0
        report = json.loads((out / "resolvent.json").read_text())
        assert report["pass"] is True
        assert report["worst_relative_defect"] <= 5e-3


class TestPresetGrammar:
    def test_parse_with_arguments(self):
        from floatlab import discretization as dz
        from floatlab.spectral import PhysicalParams
        grid = dz.default_grid(PhysicalParams(1.0, 1.0), n_side=16)
        st = cli._parse_z0(grid, "bump:center=6,width=1.5,amplitude=0.4")
        assert math.isclose(st.h_right.max(), 0.4, rel_tol=1e-2)

    def test_unknown_preset_exits_two(self, tmp_path, small_config):
        code = cli.main(["--config", str(small_config), "--out", str(tmp_path),
                        "simulate", "--z0", "vortex", "--controller", "none"])
        assert code == 2


class TestImportCost:
    def test_cli_import_leaves_scipy_signal_unloaded(self):
        # lqr and simulate never filter; only the uniform half-line path does
        src = str(Path(floatlab.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        probe = "import sys, floatlab.cli; print('scipy.signal' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", probe], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"
