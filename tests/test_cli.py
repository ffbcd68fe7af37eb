import contextlib
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import floatlab
from floatlab import cli
from floatlab import discretization as dz
from floatlab import dynamics as dyn
from floatlab import lqr as lqr_mod
from floatlab import verification as vf
from floatlab.errors import CompatibilityViolation, InvalidGeometry
from floatlab.spectral import PhysicalParams


@pytest.fixture
def small_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "grid": {"n_side": 48},
        "time": {"dt": 0.05, "T_max": 20.0},
        "seed": 3,
    }))
    return path


#: Values that a patch writes over a config key: right and wrong types,
#: non-finite and out-of-range numbers, and integers beyond every float.
PATCH_VALUES = st.one_of(
    st.floats(), st.integers(), st.sampled_from([0, -1, 1e-300, 1e308, 10 ** 400]),
    st.booleans(), st.none(), st.text(max_size=4), st.lists(st.integers(), max_size=2),
    st.sampled_from(list(dyn.SCHEMES) + list(lqr_mod.METHODS)),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2))


@st.composite
def config_patch(draw):
    """A user document: known keys over DEFAULT_CONFIG, at times an unknown key or section."""
    patch = {}
    for _ in range(draw(st.integers(1, 3))):
        section = draw(st.sampled_from(sorted(cli.DEFAULT_CONFIG)))
        default = cli.DEFAULT_CONFIG[section]
        if isinstance(default, dict) and draw(st.booleans()):
            key = draw(st.one_of(st.sampled_from(sorted(default)), st.text(max_size=3)))
            patch.setdefault(section, {})
            if isinstance(patch[section], dict):
                patch[section][key] = draw(PATCH_VALUES)
        else:
            patch[section] = draw(PATCH_VALUES)
    if draw(st.booleans()):
        patch[draw(st.text(max_size=5))] = draw(PATCH_VALUES)
    return patch


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
        {"sweep": {"theta": 2.0}},  # no such section: an unknown key
        {"lqr": {"method": "shooting"}},
        {"seed": -1},
    ])
    def test_invalid_configs_exit_two(self, tmp_path, capsys, patch):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(patch))
        code = cli.main(["--config", str(path), "--out", str(tmp_path), "spectrum"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and err.count("\n") == 1

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

    def test_geometry_rules_are_the_constructors(self):
        # the CLI states no geometry rule of its own: each message is the
        # one PhysicalParams or build_grid raises
        for patch, error in (({"params": {"mu": 0.0}}, ValueError),
                             ({"grid": {"n_side": 7}}, InvalidGeometry),
                             ({"grid": {"L": 1.0}}, InvalidGeometry),
                             ({"grid": {"sponge_width": -1.0}}, InvalidGeometry),
                             ({"grid": {"sponge_strength": -1.0}}, InvalidGeometry)):
            cfg = cli.load_config()
            for section, values in patch.items():
                cfg[section].update(values)
            with pytest.raises(error) as raised:
                cli.validate_config(cfg)
            with pytest.raises(error, match=re.escape(str(raised.value))):
                dz.build_grid(PhysicalParams(**cfg["params"]), **cfg["grid"])

    @pytest.mark.parametrize("verb", ["spectrum", "resolvent-check", "simulate", "lqr", "verify"])
    @pytest.mark.parametrize("patch, message", [
        # a negative strength makes the sponge a source of energy
        ({"grid": {"sponge_strength": -1.0}}, "sponge_strength=-1.0 must be non-negative"),
        # no Newton-Kleinman step can meet a tolerance of 0: it would run to MAX_ITER
        ({"lqr": {"tol": 0.0}}, "lqr.tol must be positive"),
        ({"lqr": {"tol": -1e-9}}, "lqr.tol must be positive")])
    def test_every_verb_rejects_before_any_work(self, tmp_path, capsys, monkeypatch, verb,
                                                patch, message):
        def refuse(*args):
            raise AssertionError("assembled before the configuration was checked")
        monkeypatch.setattr(cli.dz, "assemble", refuse)
        path = tmp_path / "c.json"
        path.write_text(json.dumps(patch))
        assert cli.main(["--config", str(path), "--out", str(tmp_path / "out"), verb]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and err.count("\n") == 1
        assert message in err
        assert not (tmp_path / "out").exists()

    def test_negative_seed_option_is_a_configuration_error(self, tmp_path, capsys):
        # numpy's generators take no negative seed; the config check says
        # so before any verb draws from one
        code = cli.main(["--seed", "-1", "--out", str(tmp_path / "out"), "resolvent-check"])
        assert code == 2
        assert capsys.readouterr().err == "configuration error: seed must be non-negative\n"
        assert not (tmp_path / "out").exists()

    @settings(max_examples=200, deadline=None)
    @given(patch=config_patch())
    @example(patch={"grid": 0.0, "\n": 0.0})
    @example(patch={"grid": {"L": 10 ** 400}})
    @example(patch={"params": {"a": 25.0}})
    @example(patch={"grid": {"sponge_width": 19.0}, "params": {"a": 1}})
    def test_fuzzed_config_passes_or_exits_two(self, patch):
        # a rejected patch ends in exit 2 and one configuration-error line,
        # never a traceback or exit 1; accepted patches run no verb here
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "c.json"
            path.write_text(json.dumps(patch))
            try:
                cli.validate_config(cli.load_config(path))
            except Exception:  # rejected: main must say so in one line
                pass
            else:
                return
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = cli.main(["--config", str(path), "--out", str(Path(tmp) / "out"),
                                 "spectrum"])
            assert code == 2
            assert err.getvalue().startswith("configuration error: ")
            assert err.getvalue().count("\n") == 1
            assert not (Path(tmp) / "out").exists()

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
        text = (out / "energy_balance.json").read_text()
        assert text.endswith("}\n")
        assert json.loads(text)["max_defect"] < 1e-2

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

    def test_open_loop_writes_positive_zero_inputs(self, tmp_path):
        # u = -K z with K = 0 is +0.0, never printed as -0.000e+00
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"grid": {"n_side": 24},
                                   "time": {"dt": 0.05, "T_max": 20.0}}))
        out = tmp_path / "out"
        assert cli.main(["--config", str(cfg), "--out", str(out),
                         "simulate", "--z0", "bump", "--controller", "none"]) == 0
        lines = (out / "trajectory.csv").read_text().splitlines()
        assert lines[0].split(",")[-1] == "u" and len(lines) > 2
        u = [line.split(",")[-1] for line in lines[1:]]
        assert not any(value.startswith("-") for value in u)
        assert all(float(value) == 0.0 for value in u)


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

    def test_scheme_reaches_the_cost_table(self, tmp_path):
        tables = []
        for scheme in dyn.SCHEMES:
            cfg = tmp_path / f"{scheme}.json"
            cfg.write_text(json.dumps({"grid": {"n_side": 16}, "time": {"scheme": scheme}}))
            out = tmp_path / scheme
            assert cli.main(["--config", str(cfg), "--out", str(out), "lqr",
                             "--z0", "heave"]) == 0
            tables.append((out / "compare.csv").read_text())
        assert tables[0] != tables[1]

    def test_sign_method_reports_its_steps(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"grid": {"n_side": 24}, "time": {"dt": 0.2},
                                   "lqr": {"method": "hamiltonian_sign"}}))
        out = tmp_path / "out"
        assert cli.main(["--config", str(cfg), "--out", str(out), "lqr",
                         "--z0", "heave"]) == 0
        report = json.loads((out / "lqr.json").read_text())
        assert report["method"] == "hamiltonian_sign"
        assert 1 <= report["iterations"] <= 12


#: The verification suites each acceptance criterion from 1 to 11 asserts on.
CRITERION_SUITES = {1: {"coupling_matrix"}, 2: {"branch_cut"}, 3: {"halfline_operators"},
                    4: {"halfline_operators"}, 5: {"resolvent_consistency"},
                    6: {"sector"}, 7: {"sector"}, 8: {"discretization", "boundary_matrix"},
                    9: {"dynamics"}, 10: {"lqr"}, 11: {"dynamics"}}


class TestVerifyCommand:
    @pytest.fixture(scope="class")
    def report(self, tmp_path_factory):
        # byte determinism of the report is criterion 12's pair of runs
        out = tmp_path_factory.mktemp("verify")
        assert cli.main(["--out", str(out), "--seed", "5", "verify"]) == 0
        return json.loads((out / "verify.json").read_text())

    def test_pass_reports_every_suite(self, report):
        assert report["all_passed"] is True
        assert len(report["suites"]) == 11

    def test_every_criterion_has_a_suite(self, report):
        names = {suite["name"] for suite in report["suites"]}
        assert sorted(CRITERION_SUITES) == list(range(1, 12))
        for criterion, suites in CRITERION_SUITES.items():
            assert suites <= names, criterion

    def test_fault_injection_fails(self, tmp_path, small_config, capsys, monkeypatch):
        # the injected fault lives in the coupling suite; the others need not run
        monkeypatch.setattr(vf, "run_all_suites", lambda params, seed, fault:
                            [vf.suite_coupling_matrix(fault=fault)])
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


#: The documented preset grammar: each preset's keys.
PRESET_KEYS = {"rest": [], "heave": ["H0", "G0"],
               "bump": ["center", "width", "amplitude"],
               "flow": ["center", "width", "amplitude"], "vortex": []}


@st.composite
def preset_spec(draw):
    """Preset strings: real keys with numbers, and at times one bogus key or value."""
    name = draw(st.sampled_from(sorted(PRESET_KEYS)))
    number = st.one_of(st.sampled_from(["0", "-1", "1e-300", "1e308"]),
                       st.floats(allow_nan=False, allow_infinity=False).map(repr))
    key = st.sampled_from(PRESET_KEYS[name] or ["H0"])
    items = draw(st.lists(st.builds("{}={}".format, key, number), max_size=3))
    if draw(st.booleans()):
        bogus_key = st.one_of(st.sampled_from(["H0", "width", "foo"]), st.text(max_size=3))
        bogus_value = st.one_of(st.sampled_from(["1", "nan", "inf", ""]), st.text(max_size=6))
        items.insert(draw(st.integers(0, len(items))),
                     draw(st.builds("{}={}".format, bogus_key, bogus_value)))
    return ":".join([name, ",".join(items)]) if items else name


class TestPresetGrammar:
    def test_parse_with_arguments(self):
        grid = dz.default_grid(PhysicalParams(1.0, 1.0), n_side=16)
        state = cli._parse_z0(grid, "bump:center=6,width=1.5,amplitude=0.4")
        assert math.isclose(state.h_right.max(), 0.4, rel_tol=1e-2)

    def test_unknown_preset_exits_two(self, tmp_path, small_config):
        code = cli.main(["--config", str(small_config), "--out", str(tmp_path),
                        "simulate", "--z0", "vortex", "--controller", "none"])
        assert code == 2

    @pytest.mark.parametrize("spec", ["heave:foo=1", "bump:H0=1", "rest:H0=1", "heave:H0"])
    def test_bad_key_or_value_exits_two(self, tmp_path, capsys, spec):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"grid": {"n_side": 24}}))
        code = cli.main(["--config", str(cfg), "--out", str(tmp_path),
                         "simulate", "--z0", spec, "--controller", "none"])
        assert code == 2
        err = capsys.readouterr().err
        name, _, item = spec.partition(":")
        assert err.count("\n") == 1
        assert repr(name) in err and repr(item.partition("=")[0]) in err

    @settings(max_examples=200, deadline=None)
    @given(spec=preset_spec())
    @example(spec="bump:center=1e308,width=1e-300")
    def test_grammar_never_raises_anything_else(self, spec):
        grid = dz.build_grid(PhysicalParams(1.0, 1.0), 20.0, 16)
        try:
            state = cli._parse_z0(grid, spec)
        except (ValueError, CompatibilityViolation):
            return
        assert isinstance(state, dz.State)


@st.composite
def controller_spec(draw):
    """Controller strings: the documented forms, near misses and noise."""
    number = st.one_of(st.sampled_from(["0", "-1", "1e308", "nan", "inf", "-inf", "", "1:2"]),
                       st.floats().map(repr), st.text(max_size=6))
    return draw(st.one_of(
        st.sampled_from(["none", "lqr", "alpha", "alphabet", "alpha:", "None", " lqr"]),
        st.builds("alpha:{}".format, number),
        st.builds("{}:{}".format, st.sampled_from(["none", "lqr", "alph", "alphas"]), number),
        st.text(max_size=8)))


class TestControllerGrammar:
    @pytest.mark.parametrize("spec", ["alpha:nan", "alpha:inf", "alphabet"])
    def test_bad_controller_exits_two(self, tmp_path, capsys, small_config, spec):
        out = tmp_path / "out"
        code = cli.main(["--config", str(small_config), "--out", str(out),
                         "simulate", "--controller", spec])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid argument: ") and err.count("\n") == 1
        assert not list(out.iterdir())

    @settings(max_examples=200, deadline=None)
    @given(spec=controller_spec())
    @example(spec="alpha")
    @example(spec="alpha:-2.5")
    def test_grammar_accepts_exactly_the_documented_forms(self, spec):
        # none, lqr, alpha or alpha:<finite number>, the number read as
        # the preset grammar reads one
        name, colon, value = spec.partition(":")
        try:
            number = float(value)
        except ValueError:
            number = math.nan
        documented = spec in ("none", "lqr", "alpha") or (
            name == "alpha" and colon == ":" and math.isfinite(number))
        try:
            parsed = cli._parse_controller(spec)
        except ValueError:
            assert not documented
            return
        assert documented
        assert parsed == (spec if name != "alpha" else number if colon else 1.0)


def child_env():
    """Environment of a child interpreter that imports this checkout's floatlab."""
    src = str(Path(floatlab.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def run_cli(tmp_path, *args, config=None):
    """The CLI in a child process: RuntimeWarnings stay warnings there, as for a user."""
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(config or {"grid": {"n_side": 16}, "time": {"T_max": 50.0}}))
    return subprocess.run([sys.executable, "-m", "floatlab.cli", "--config", str(cfg),
                           "--out", str(tmp_path / "out"), *args],
                          env=child_env(), capture_output=True, text=True)


class TestNumericalFailure:
    @pytest.mark.parametrize("args", [("lqr", "--z0", "heave:H0=1e300"),
                                      ("simulate", "--z0", "bump:amplitude=1e200")])
    def test_overflow_exits_two_and_writes_no_json(self, tmp_path, args):
        # the parent wrote Infinity and NaN into lqr.json and energy_balance.json
        done = run_cli(tmp_path, *args)
        assert done.returncode == 2
        assert done.stderr.startswith("numerical failure: ") and done.stderr.count("\n") == 1
        assert not list((tmp_path / "out").glob("*.json"))

    @pytest.mark.parametrize("config", [{"grid": {"L": 1e300}}, {"params": {"mu": 1e300}},
                                        {"params": {"a": 1e-200}}],
                             ids=["L=1e300", "mu=1e300", "a=1e-200"])
    def test_python_float_error_exits_two(self, tmp_path, config):
        # Python floats raise OverflowError or ZeroDivisionError, which
        # np.errstate does not turn into FloatingPointError
        done = run_cli(tmp_path, "spectrum", config=config)
        assert done.returncode == 2
        assert done.stderr.startswith("numerical failure: ") and done.stderr.count("\n") == 1
        assert not list((tmp_path / "out").iterdir())

    def test_failed_simulate_writes_no_artifact(self, tmp_path):
        # the march finishes and the energy audit overflows; the parent had
        # written trajectory.csv by then
        done = run_cli(tmp_path, "simulate", "--z0", "bump:amplitude=1e154")
        assert done.returncode == 2
        assert done.stderr.startswith("numerical failure: ") and done.stderr.count("\n") == 1
        assert not list((tmp_path / "out").iterdir())

    def test_jump_mismatch_exits_two_and_writes_nothing(self, tmp_path, capsys, monkeypatch):
        # a jump map that misses the march it stands for by 1e-6
        free_power = dyn.Stepper._free_power
        monkeypatch.setattr(dyn.Stepper, "_free_power",
                            lambda self, basis: (1.0 + 1e-6) * free_power(self, basis))
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"grid": {"n_side": 16}, "time": {"T_max": 50.0}}))
        out = tmp_path / "out"
        assert cli.main(["--config", str(cfg), "--out", str(out), "simulate"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: the jump to step 64 misses the march")
        assert err.count("\n") == 1
        assert not (out / "trajectory.csv").exists()
        assert not (out / "energy_balance.json").exists()

    def test_failed_lqr_writes_no_artifact(self, tmp_path):
        # the cost march overflows after the Riccati solve has succeeded
        done = run_cli(tmp_path, "lqr", "--z0", "heave:H0=1e300")
        assert done.returncode == 2
        assert done.stderr.startswith("numerical failure: ")
        for name in ("riccati.bin", "gains.csv", "compare.csv", "lqr.json"):
            assert not (tmp_path / "out" / name).exists()

    @pytest.mark.parametrize("verb", ["spectrum", "simulate"])
    def test_failed_allocation_exits_two(self, tmp_path, verb, capsys, monkeypatch):
        # {"grid": {"n_side": 1000000}} asks numpy for 116 TiB; uncaught, that
        # is a traceback and exit code 1, which means a failed verification
        def refuse(grid):
            raise MemoryError("Unable to allocate 116. TiB for an array with shape "
                              "(3999999, 3999999) and data type float64")

        monkeypatch.setattr(dz, "assemble", refuse)
        out = tmp_path / "out"
        assert cli.main(["--out", str(out), verb]) == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: Unable to allocate") and err.count("\n") == 1
        assert not list(out.iterdir())


class TestHorizonOfNoStep:
    # round(T / dt) == 0 marches no step: simulate used to warn of an empty
    # mean and fail in the audit, and lqr to price no step and exit 0
    @pytest.mark.parametrize("verb, config", [
        ("simulate", {"grid": {"n_side": 16}, "time": {"T_max": 0.005}}),
        ("lqr", {"grid": {"n_side": 16}, "time": {"dt": 1000}})])
    def test_exits_two_and_writes_nothing(self, tmp_path, verb, config):
        done = run_cli(tmp_path, verb, config=config)
        assert done.returncode == 2
        assert done.stderr.startswith("invalid argument: ") and done.stderr.count("\n") == 1
        assert not list((tmp_path / "out").iterdir())

    def test_library_marches_refuse_it(self):
        system = dz.assemble(dz.default_grid(PhysicalParams(1.0, 1.0), n_side=16))
        z0 = dz.heave_state(system.grid)
        with pytest.raises(ValueError, match="shorter than half a step"):
            dyn.simulate_adaptive(system, z0, 0.02, 0.009)
        with pytest.raises(ValueError, match="shorter than half a step"):
            dyn.feedback_costs(system, z0, system.C, 0.009, 0.02, "trapezoidal")


class TestOutputError:
    @pytest.mark.parametrize("inside", [False, True])
    def test_out_that_is_a_file_exits_two(self, tmp_path, capsys, inside):
        # --out naming a file, or a directory under one
        blocker = tmp_path / "taken"
        blocker.write_text("")
        out = blocker / "out" if inside else blocker
        assert cli.main(["--out", str(out), "spectrum"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("output error: ") and err.count("\n") == 1
        assert blocker.read_text() == ""

    def test_unwritable_artifact_exits_two(self, tmp_path, capsys):
        out = tmp_path / "out"
        (out / "resolvent.csv").mkdir(parents=True)  # the artifact's path is taken
        assert cli.main(["--out", str(out), "resolvent-check"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("output error: ") and err.count("\n") == 1


class TestRepeatedCalls:
    def test_verbs_in_one_process_write_what_fresh_processes_write(self, tmp_path):
        # the benchmark's calling pattern: one parser serves every verb of
        # the process
        here, fresh = tmp_path / "here", tmp_path / "fresh"
        assert cli.main(["--out", str(here / "simulate"), "simulate", "--z0", "flow",
                         "--controller", "alpha:2"]) == 0
        for name, argv in (("spectrum", ["spectrum"]),
                           ("resolvent", ["--seed", "3", "resolvent-check"])):
            assert cli.main(["--out", str(here / name), *argv]) == 0
            subprocess.run([sys.executable, "-m", "floatlab.cli", "--out", str(fresh / name),
                            *argv], env=child_env(), check=True)
            files = sorted(p.name for p in (fresh / name).iterdir())
            assert files == sorted(p.name for p in (here / name).iterdir())
            for file in files:
                assert (here / name / file).read_bytes() == (fresh / name / file).read_bytes()


class TestImportCost:
    # importing scipy.sparse, scipy.linalg and scipy.sparse.linalg costs about
    # 0.4 s and 32 MB (0.3 s and 22 MB for scipy.sparse alone); a verb loads
    # scipy only where it calls it, so a top-level scipy import fails here
    @staticmethod
    def loaded_after(steps, names):
        """For each step of a fresh interpreter, which of ``names`` are in sys.modules after it."""
        probe = ["import json, sys", "seen = []"]
        for step in steps:
            probe += [step, f"seen.append([n for n in {names!r} if n in sys.modules])"]
        probe.append("print(json.dumps(seen))")
        out = subprocess.run([sys.executable, "-c", "\n".join(probe)], env=child_env(),
                             capture_output=True, text=True, check=True)
        return json.loads(out.stdout.splitlines()[-1])

    def test_cli_import_leaves_scipy_unloaded(self):
        assert self.loaded_after(["import floatlab.cli"], ["scipy"]) == [[]]

    def test_build_and_half_line_work_leave_scipy_unloaded(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"grid": {"n_side": 24}}))
        argv = ["--config", str(cfg), "--out", str(tmp_path / "out")]
        steps = [
            "import numpy as np\nfrom floatlab import cli, discretization as dz, resolvent as rv",
            "_, grid, _ = cli._build(cli.load_config())\ndz.preset_state(grid, 'heave')",
            f"assert cli.main({argv + ['resolvent-check']!r}) == 0",
            # the mirror split of the eigenvalues is slot arithmetic on numpy
            f"assert cli.main({argv + ['spectrum']!r}) == 0",
            # the energy forms are slots and weights, sampled on numpy alone
            "\n".join(["from floatlab import dynamics as dyn",
                       "z = np.ones((grid.layout.dim, 4))",
                       "dyn._sample(z, dz.assemble(grid), dz.quadratic_forms(grid))"]),
            "\n".join(["grid = np.linspace(1.0, 20.0, 9501)",
                       "phi = rv.HalfLineFunction('right', grid, np.exp(1.0 - grid))",
                       "rv.helmholtz_particular('right', 0.7 + 2.3j, phi)"]),
        ]
        assert self.loaded_after(steps, ["scipy"]) == [[]] * len(steps)
