import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hamfam.cli import main, parse_complex, parse_n_range, parse_params, UsageError


def run(argv):
    return main(list(argv))


class TestParsers:
    @pytest.mark.parametrize("text,value", [
        ("1", 1 + 0j),
        ("-2.5", -2.5 + 0j),
        ("1+2i", 1 + 2j),
        ("1-0.5i", 1 - 0.5j),
        ("3i", 3j),
        ("i", 1j),
        ("-i", -1j),
        ("2+i", 2 + 1j),
    ])
    def test_complex_literals(self, text, value):
        assert parse_complex(text) == value

    def test_bad_complex(self):
        with pytest.raises(UsageError):
            parse_complex("one")

    def test_params(self):
        got = parse_params("a=1,e1=2+i,e2=-0.5")
        assert got == {"a": 1 + 0j, "e1": 2 + 1j, "e2": -0.5 + 0j}

    def test_params_empty(self):
        assert parse_params("") == {}

    def test_params_bad(self):
        with pytest.raises(UsageError):
            parse_params("a:1")

    def test_n_range(self):
        assert parse_n_range("2..5") == [2, 3, 4, 5]
        assert parse_n_range("7") == [7]


class TestVerify:
    def test_autonomous5_passes(self, capsys):
        assert run(["verify", "--family", "autonomous5"]) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out and "[FAIL]" not in out

    def test_general_range(self, capsys):
        assert run(["verify", "--family", "general", "--n", "2..4"]) == 0
        out = capsys.readouterr().out
        assert out.count("second-order form equivalence") == 3

    def test_nonautonomous_passes(self, capsys):
        assert run(["verify", "--family", "nonautonomous3"]) == 0
        out = capsys.readouterr().out
        assert "s-nonauto[z]" in out and "s-nonauto[z^7]" in out

    @pytest.mark.parametrize("mutate", ["ode", "map", "hamiltonian"])
    def test_mutation_fails(self, mutate, capsys):
        assert run(["verify", "--family", "autonomous5",
                    "--mutate", mutate]) == 1
        out = capsys.readouterr().out
        assert "[FAIL]" in out
        assert "residual =" in out

    def test_n_out_of_range(self, capsys):
        assert run(["verify", "--family", "general", "--n", "99"]) == 2

    def test_n_limit_passes(self, capsys):
        assert run(["verify", "--family", "general", "--n", "64"]) == 0
        out = capsys.readouterr().out
        assert "general:64" in out and "[FAIL]" not in out

    @pytest.mark.parametrize("n,message", [
        ("65", "outside the supported range 2..64"),
        ("60..65", "outside the supported range 2..64"),
        ("1..3", "outside the supported range 2..64"),
        ("abc", "n 'abc' is not of the form 'n' or 'lo..hi'"),
        ("2..x", "n '2..x' is not of the form 'n' or 'lo..hi'"),
        # an open end is no range, not the range of its one bound
        ("2..", "n '2..' is not of the form 'n' or 'lo..hi'"),
        ("..5", "n '..5' is not of the form 'n' or 'lo..hi'")],
        ids=["65", "60..65", "1..3", "abc", "2..x", "2..", "..5"])
    def test_n_past_limit(self, n, message, capsys):
        # the range is checked before any system is built or certified
        assert run(["verify", "--family", "general", "--n", n]) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""

    def test_empty_n_range(self, capsys):
        # an empty range would otherwise report all_pass over no checks
        assert run(["verify", "--family", "general", "--n", "5..3"]) == 2
        captured = capsys.readouterr()
        assert "empty n range" in captured.err and captured.out == ""

    @pytest.mark.parametrize("family,n", [("autonomous5", "2..4"),
                                          ("nonautonomous3", "3")])
    def test_n_needs_general(self, family, n, capsys):
        # --n selects nothing outside the general family
        assert run(["verify", "--family", family, "--n", n]) == 2
        captured = capsys.readouterr()
        assert "--n applies only to --family general" in captured.err
        assert captured.out == ""

    def test_report_written(self, tmp_path):
        report = tmp_path / "verify.json"
        assert run(["verify", "--family", "autonomous5",
                    "--out", str(report)]) == 0
        doc = json.loads(report.read_text())
        assert doc["schema"] == 1
        assert doc["all_pass"] is True
        assert "generated_at" in doc["metadata"]

    def test_report_payload_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(["verify", "--family", "nonautonomous3", "--out", str(a)])
        run(["verify", "--family", "nonautonomous3", "--out", str(b)])
        da, db = json.loads(a.read_text()), json.loads(b.read_text())
        da.pop("metadata"), db.pop("metadata")
        assert da == db


class TestIntegrate:
    def test_writes_csv_and_summary(self, tmp_path, capsys):
        csv = tmp_path / "traj.csv"
        summary = tmp_path / "summary.json"
        rc = run(["integrate", "--family", "autonomous5",
                  "--params", "a=1,e1=1,e2=1", "--q0", "1", "--p0", "0.3",
                  "--t1", "0.05", "--out", str(csv),
                  "--summary-out", str(summary)])
        assert rc == 0
        header = csv.read_text().splitlines()[0]
        assert header == "t,re_q,im_q,re_p,im_p,re_H,im_H,drift"
        doc = json.loads(summary.read_text())
        assert doc["termination"] == "completed"
        assert doc["drift"] < 1e-8

    def test_summary_metadata_holds_run_statistics(self, tmp_path, capsys):
        # a general:4 orbit whose run to its blow-up rejects steps
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            assert run(["integrate", "--family", "general:4",
                        "--params", "a=0.3067,e1=-1.707,e2=-0.6642,"
                        "e3=0.3004", "--q0", "-0.9307", "--p0", "-1.4827",
                        "--t1", "0.5", "--tol", "1e-6",
                        "--method", "adaptive-rk45",
                        "--summary-out", str(path)]) == 0
        a, b = (json.loads(path.read_text()) for path in paths)
        meta = a.pop("metadata")
        b.pop("metadata")
        assert a == b
        assert a["termination"] == "blow-up"
        assert meta["steps_attempted"] == a["steps"] + meta["steps_rejected"]
        assert meta["steps_rejected"] >= 1
        assert meta["field_evals"] == 6 * meta["steps_attempted"]
        assert 0 < meta["min_step"] < 1e-3
        assert a["t_final"] < meta["t_star"] < 0.2605
        assert abs(meta["exponent"] - 1 / 2) < 0.02
        assert f"t*: {meta['t_star']:.10g}" in capsys.readouterr().out

    def test_run_without_blowup_locates_nothing(self, tmp_path):
        summary = tmp_path / "summary.json"
        assert run(["integrate", "--family", "autonomous5",
                    "--params", "a=1,e1=1,e2=1", "--p0", "0.3",
                    "--t1", "0.05", "--method", "adaptive-rk45",
                    "--summary-out", str(summary)]) == 0
        meta = json.loads(summary.read_text())["metadata"]
        assert meta["t_star"] is None and meta["exponent"] is None

    def test_sweep_reports_order(self, tmp_path):
        summary = tmp_path / "sweep.json"
        rc = run(["integrate", "--family", "autonomous5",
                  "--params", "a=1,e1=1,e2=1", "--p0", "0.3", "--t1", "0.03",
                  "--sweep", "1e-2,5e-3,2.5e-3",
                  "--summary-out", str(summary)])
        assert rc == 0
        doc = json.loads(summary.read_text())
        assert 3.7 <= doc["measured_order"] <= 4.3

    @pytest.mark.parametrize("t1,sweep", [("0", "1e-2,5e-3,2.5e-3"),
                                          ("0.05", "1e-2,1e-2,1e-2")],
                             ids=["zero-span", "equal-h"])
    def test_coinciding_sweep_solutions_are_usage_error(self, t1, sweep,
                                                        capsys):
        assert run(["integrate", "--family", "autonomous5",
                    "--params", "a=1,e1=1,e2=1", "--t1", t1,
                    "--sweep", sweep]) == 2
        assert "error: no order from (h, error) pairs" in \
            capsys.readouterr().err

    def test_sweep_into_blowup_is_usage_error(self, capsys):
        # the flow from q0 = 1 blows up at t* = 0.16164, before t1
        assert run(["integrate", "--family", "autonomous5",
                    "--params", "a=1,e1=1,e2=1", "--t1", "0.2",
                    "--sweep", "1e-2,5e-3,2.5e-3"]) == 2
        assert "error: sweep run at h=0.01 ended with overflow" in \
            capsys.readouterr().err

    def test_two_value_sweep_is_usage_error(self, capsys):
        assert run(["integrate", "--family", "autonomous5",
                    "--params", "a=1,e1=1,e2=1", "--t1", "0.03",
                    "--sweep", "1e-2,5e-3"]) == 2
        assert "error: a sweep needs at least three h values, got 2" in \
            capsys.readouterr().err

    def test_repeated_param_is_usage_error(self, capsys):
        assert run(["integrate", "--family", "nonautonomous3",
                    "--params", "a1=1,a2=1,a3=1,a1=2", "--t1", "0.01"]) == 2
        assert "parameter 'a1' is given twice" in capsys.readouterr().err

    def test_missing_params(self):
        assert run(["integrate", "--family", "autonomous5",
                    "--params", "a=1", "--t1", "0.01"]) == 2

    def test_unknown_param(self, capsys):
        assert run(["integrate", "--family", "autonomous5",
                    "--params", "a=1,e1=1,e2=1,zz=3", "--t1", "0.01"]) == 2
        assert "unknown ['zz']" in capsys.readouterr().err

    def test_general_without_n(self, capsys):
        # general:<n> is the one name of each general system
        assert run(["integrate", "--family", "general",
                    "--params", "a=1", "--t1", "0.01"]) == 2
        assert "unknown family 'general'" in capsys.readouterr().err
        for command in (["integrate"], ["symmetry", "--map", "s-auto"]):
            with pytest.raises(SystemExit) as raised:
                run(command + ["--family", "general", "--n", "5"])
            assert raised.value.code == 2
            assert "unrecognized arguments: --n 5" in capsys.readouterr().err

    def test_family_without_integer_n(self, capsys):
        assert run(["integrate", "--family", "general:abc",
                    "--params", "a=1", "--t1", "0.01"]) == 2
        assert "error: family 'general:abc' is not of the form " \
            "'general:<n>' with an integer n" in capsys.readouterr().err

    def test_start_where_H_overflows(self, capsys):
        # p^2 q^30 = 2e314 at q0 = 3e10 and p0 = 1
        params = ",".join(["a=1"] + [f"e{i}=1" for i in range(1, 30)])
        assert run(["integrate", "--family", "general:30",
                    "--params", params, "--q0", "3e10", "--p0", "1",
                    "--t1", "1e-9", "--h", "1e-12"]) == 2
        captured = capsys.readouterr()
        assert "error: H is not finite at the start state " \
            "q0 = (30000000000+0j)" in captured.err and captured.out == ""

    @pytest.mark.parametrize("method", ["fixed-rk4", "adaptive-rk45"])
    def test_start_where_H_is_nan(self, method, capsys):
        # (1e308+1e308j)**5 is NaN in both parts, with no part infinite
        assert run(["integrate", "--family", "autonomous5",
                    "--params", "a=1,e1=1,e2=1", "--q0", "1e308+1e308i",
                    "--t1", "0.01", "--method", method]) == 2
        captured = capsys.readouterr()
        assert "error: H is not finite at the start state " \
            "q0 = (1e+308+1e+308j)" in captured.err and captured.out == ""

    def test_step_that_cannot_advance_t(self, capsys):
        # the spacing of floats at 1e6 is 1.16e-10: 1e6 + 1e-11 == 1e6
        assert run(["integrate", "--family", "autonomous5",
                    "--params", "a=1,e1=1,e2=1", "--t0", "1e6",
                    "--t1", "1000000.0001", "--h", "1e-11"]) == 2
        captured = capsys.readouterr()
        assert "error: h = 1e-11 cannot advance t" in captured.err
        assert captured.out == ""

    def test_immediate_singularity(self, capsys):
        # q = 0 is a regular point: a start at or next to it completes
        for q0 in ("1e-12", "0"):
            assert run(["integrate", "--family", "autonomous5",
                        "--params", "a=1,e1=1,e2=1", "--q0", q0,
                        "--t1", "0.01"]) == 0
            assert capsys.readouterr().out.startswith(
                "termination: completed")

    @pytest.mark.parametrize("flag", ["--q0", "--p0"])
    def test_non_finite_start_is_usage_error(self, flag, capsys):
        assert run(["integrate", "--family", "autonomous5",
                    "--params", "a=1,e1=1,e2=1", flag, "nan",
                    "--t1", "0.01"]) == 2
        captured = capsys.readouterr()
        assert "error: start state must be finite" in captured.err
        assert captured.out == ""

    def test_zero_step_is_usage_error(self):
        # as a subprocess with a timeout, so a step that never advances
        # fails the test instead of hanging it
        src = Path(__file__).resolve().parent.parent / "src"
        done = subprocess.run(
            [sys.executable, "-m", "hamfam.cli", "integrate", "--family",
             "autonomous5", "--params", "a=1,e1=1,e2=1", "--h", "0"],
            env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True,
            text=True, timeout=60)
        assert done.returncode == 2
        assert "h must be finite and positive" in done.stderr


def test_exact_work_does_not_import_numpy():
    # numpy is imported only where a trajectory is made or checked
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import sys\n"
            "from hamfam import certificate_battery, make_system\n"
            "from hamfam.cli import main\n"
            "certificate_battery(make_system('autonomous5'))\n"
            "assert 'numpy' not in sys.modules, 'battery'\n"
            "assert main(['verify', '--family', 'autonomous5']) == 0\n"
            "assert 'numpy' not in sys.modules, 'verify'\n"
            "assert main(['symmetry', '--family', 'autonomous5', '--map',\n"
            "             's-auto', '--params', 'a=1,e1=1,e2=1']) == 0\n"
            "assert 'numpy' not in sys.modules, 'symmetry'\n")
    done = subprocess.run([sys.executable, "-c", code],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


class TestSymmetry:
    def test_autonomous_map_point(self, capsys):
        rc = run(["symmetry", "--family", "autonomous5", "--map", "s-auto",
                  "--params", "a=1,e1=1,e2=1", "--q0", "2", "--p0", "0"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "(q, p, t) ->" in out
        assert "a=-1" in out

    def test_nonautonomous_trajectory_check(self, tmp_path, capsys):
        report = tmp_path / "sym.json"
        rc = run(["symmetry", "--family", "nonautonomous3",
                  "--map", "s-nonauto", "--branch", "1",
                  "--params", "a1=1,a2=1,a3=1", "--q0", "1", "--p0", "-1.5",
                  "--t1", "0.05", "--check-trajectory", "--out", str(report)])
        assert rc == 0
        doc = json.loads(report.read_text())
        assert doc["trajectory_residual"] <= 1e-5
        assert doc["trajectory_termination"] == "completed"
        assert doc["trajectory_samples"] == 51

    def test_vacuous_trajectory_check_fails(self, tmp_path, capsys):
        # the run overflows before a third sample, so no central difference
        # exists: the check must not read as a zero residual
        report = tmp_path / "sym.json"
        rc = run(["symmetry", "--family", "autonomous5", "--map", "s-auto",
                  "--params", "a=1,e1=1,e2=1", "--q0", "100", "--p0", "1",
                  "--t1", "0.05", "--check-trajectory", "--out", str(report)])
        assert rc == 1
        out = capsys.readouterr().out
        assert "trajectory check not run" in out and "overflow" in out
        assert "trajectory residual" not in out
        doc = json.loads(report.read_text())
        assert doc["trajectory_residual"] is None
        assert doc["trajectory_termination"] == "overflow"
        assert doc["trajectory_samples"] < 3

    def test_missing_params(self, capsys):
        assert run(["symmetry", "--family", "autonomous5", "--map", "s-auto",
                    "--params", "a=1"]) == 2
        assert "unbound ['e1', 'e2']" in capsys.readouterr().err

    def test_repeated_param_is_usage_error(self, capsys):
        assert run(["symmetry", "--family", "autonomous5", "--map", "s-auto",
                    "--params", "a=1,e1=1,a=2,e2=1"]) == 2
        assert "parameter 'a' is given twice" in capsys.readouterr().err

    @pytest.mark.parametrize("extra", [[], ["--check-trajectory"]])
    def test_map_of_other_family(self, extra, capsys):
        assert run(["symmetry", "--family", "autonomous5",
                    "--map", "s-nonauto", "--params", "a=1,e1=1,e2=1",
                    *extra]) == 2
        assert "map of nonautonomous3" in capsys.readouterr().err

    def test_singular_point_rejected(self, capsys):
        assert run(["symmetry", "--family", "nonautonomous3",
                    "--map", "s-nonauto", "--params", "a1=1,a2=1,a3=1",
                    "--q0", "0"]) == 2
        captured = capsys.readouterr()
        assert "error: s-nonauto(branch=1) has no finite image at " \
            "(0j, 0j, 0j)" in captured.err and captured.out == ""

    @pytest.mark.parametrize("family,params,q0", [
        ("autonomous5", "a=1,e1=1,e2=1", "nan"),
        ("general:64", ",".join(["a=1"] + [f"e{i}=1" for i in range(1, 64)]),
         "1e-5")], ids=["nan", "overflow"])
    def test_point_without_finite_image(self, family, params, q0, capsys):
        # NaN maps to NaN; on general:64 the shear's q^-64 overflows
        assert run(["symmetry", "--family", family, "--map", "s-auto",
                    "--params", params, "--q0", q0]) == 2
        captured = capsys.readouterr()
        assert "has no finite image at" in captured.err
        assert captured.out == ""

    def test_point_next_to_zero_maps(self, capsys):
        # q0 = 1e-9 maps p to about 1e45: a finite image
        assert run(["symmetry", "--family", "autonomous5", "--map", "s-auto",
                    "--params", "a=1,e1=1,e2=1", "--q0", "1e-9"]) == 0
        assert "9.999999999999993e+44+0i" in capsys.readouterr().out

    def test_shear_has_one_branch(self, capsys):
        assert run(["symmetry", "--family", "autonomous5", "--map", "s-auto",
                    "--branch", "3", "--params", "a=1,e1=1,e2=1"]) == 2
        assert "the shear has branch 1 only, not 3" in capsys.readouterr().err

    def test_unknown_map(self):
        assert run(["symmetry", "--family", "autonomous5",
                    "--map", "nope"]) == 2

    @pytest.mark.parametrize("name", ["s-auto:7", "s-autoXYZ"])
    def test_shear_of_other_n(self, name, capsys):
        assert run(["symmetry", "--family", "general:5", "--map", name,
                    "--params", "a=1,e1=1,e2=1,e3=1,e4=1"]) == 2
        captured = capsys.readouterr()
        assert f"unknown map {name!r}" in captured.err
        assert captured.out == ""


class TestConfig:
    def test_config_supplies_defaults(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[integrate]\n"
                       "family = autonomous5\n"
                       "params = a=1,e1=1,e2=1\n"
                       "p0 = 0.3\n"
                       "t1 = 0.05\n")
        summary = tmp_path / "s.json"
        rc = run(["integrate", "--config", str(cfg),
                  "--summary-out", str(summary)])
        assert rc == 0
        assert json.loads(summary.read_text())["termination"] == "completed"

    def test_cli_flag_beats_config(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[verify]\nfamily = autonomous5\nmutate = ode\n")
        # explicit flag overrides the config's family, mutate still applies
        assert run(["verify", "--config", str(cfg)]) == 1
        assert run(["verify", "--family", "nonautonomous3", "--config",
                    str(cfg)]) == 1

    @staticmethod
    def _symmetry_config(tmp_path, check_trajectory):
        cfg = tmp_path / "sym.ini"
        cfg.write_text("[symmetry]\n"
                       "family = nonautonomous3\n"
                       "map = s-nonauto\n"
                       "params = a1=1,a2=1,a3=1\n"
                       "q0 = 1\n"
                       "p0 = -1.5\n"
                       "t1 = 0.05\n"
                       f"check_trajectory = {check_trajectory}\n")
        return cfg

    @pytest.mark.parametrize("value,checked", [("true", True), ("yes", True),
                                               ("false", False), ("0", False)])
    def test_boolean_switch(self, tmp_path, value, checked):
        cfg = self._symmetry_config(tmp_path, value)
        report = tmp_path / "sym.json"
        assert run(["symmetry", "--config", str(cfg), "--out",
                    str(report)]) == 0
        doc = json.loads(report.read_text())
        assert ("trajectory_residual" in doc) == checked

    def test_bad_boolean(self, tmp_path, capsys):
        cfg = self._symmetry_config(tmp_path, "maybe")
        assert run(["symmetry", "--config", str(cfg)]) == 2
        assert "check_trajectory = 'maybe' is not a boolean" \
            in capsys.readouterr().err

    def test_missing_config(self):
        assert run(["verify", "--family", "autonomous5",
                    "--config", "/nonexistent.ini"]) == 2

    def test_config_without_path(self, capsys):
        assert run(["verify", "--family", "autonomous5", "--config"]) == 2
        assert "--config needs a path" in capsys.readouterr().err

    def test_config_equals_path(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[integrate]\n"
                       "family = autonomous5\n"
                       "params = a=1,e1=1,e2=1\n"
                       "p0 = 0.3\n"
                       "t1 = 0.05\n")
        summary = tmp_path / "s.json"
        # --family is required, so this passes only if the file is read
        assert run(["integrate", f"--config={cfg}",
                    "--summary-out", str(summary)]) == 0
        assert json.loads(summary.read_text())["termination"] == "completed"
