"""Tests for the command-line front end."""

import json
import math

import pytest

from hopfsurf.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip().startswith("{") else out)


class TestInvariantsCommand:
    def test_case_b2(self, capsys):
        code, doc = run_cli(capsys, "invariants", "--a-re", "2", "--b-re", "-4")
        assert code == 0
        assert doc["schema"] == 1
        assert doc["case_tag"] == "CaseB2"
        assert doc["rho"] == 2.0
        assert doc["tau"] == -0.5
        assert doc["nu"] == 2

    def test_case_a(self, capsys):
        code, doc = run_cli(capsys, "invariants", "--a-re", "2", "--b-re", "3")
        assert code == 0
        assert doc["case_tag"] == "CaseA"

    def test_declared_mode(self, capsys):
        code, doc = run_cli(capsys, "invariants", "--a-re", "2", "--b-re",
                            "-4", "--mode", "declared", "--p", "1", "--q",
                            "2", "--l", "2", "--m", "-1")
        assert code == 0
        assert doc["case_tag"] == "CaseB2"

    def test_invalid_multiplier_exit_code(self, capsys):
        code = main(["invariants", "--a-re", "0.5", "--b-re", "3"])
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestReduceAndFlow:
    def test_reduce(self, capsys):
        code, doc = run_cli(capsys, "reduce", "--a-re", "2", "--b-re", "4",
                            "--z-re", "6", "--w-re", "20")
        assert code == 0
        assert doc["rep_z"] == [1.5, 0.0]
        assert doc["rep_w"] == [1.25, 0.0]
        assert doc["lift_index"] == 2

    @pytest.mark.parametrize("z_re", ["inf", "-inf", "nan"])
    def test_reduce_non_finite_exit_2(self, capsys, z_re):
        code = main(["reduce", "--a-re", "2", "--b-re", "4",
                     f"--z-re={z_re}", "--w-re=1"])
        assert code == 2
        err = capsys.readouterr().err.strip()
        assert err == f"error: coordinate z = ({z_re}+0j) is not finite"

    def test_reduce_extreme_moduli(self, capsys):
        # rep_w underflows to 0 off the tori; u is read off the input
        code, doc = run_cli(capsys, "reduce", "--a-re", "2", "--b-re", "4",
                            "--z-re=1e300", "--w-re=1e-300")
        assert code == 0
        assert doc["lift_index"] == 996
        assert doc["rep_z"] == [1.4932217896051503, 0.0]
        assert doc["rep_w"] == [0.0, 0.0]
        assert not doc["on_Ta"]
        assert doc["u"] == pytest.approx(300 * math.log(10) * 1.5 / math.log(2))

    def test_flow_unit_field_one_step(self, capsys):
        code, doc = run_cli(capsys, "flow", "--a-re", "2", "--b-re", "4",
                            "--unit-field", "--z-re", "1", "--w-re", "1",
                            "--t-re", "1")
        assert code == 0
        assert doc["rep_z"] == pytest.approx([2.0, 0.0])


class TestFiberAndClassify:
    def test_fiber_finite(self, capsys):
        code, doc = run_cli(capsys, "fiber", "--a-re", "2", "--b-re", "-4",
                            "--unit-field", "--z-prime-re", "1.5", "--n",
                            "64")
        assert code == 0
        assert doc["count"] == 2

    def test_classify_orbit(self, capsys):
        code, doc = run_cli(capsys, "classify", "--a-re", "2", "--b-re", "3",
                            "--what", "orbit", "--unit-field")
        assert code == 0
        assert doc["tag"] == "LeviFlatHypersurface"

    def test_classify_domain(self, capsys):
        code, doc = run_cli(capsys, "classify", "--a-re", "2", "--b-re", "3",
                            "--what", "domain", "--domain", "level-band",
                            "--k1", "0.5", "--k2", "2")
        assert code == 0
        assert doc["theorem_type"] == "A1"
        assert doc["status"] == "NotStein"


class TestBoundaryCommands:
    def test_tangency(self, capsys):
        code, doc = run_cli(capsys, "tangency", "--a-re", "2", "--b-re", "3",
                            "--domain", "sub-level", "--k", "1",
                            "--unit-field", "--n-samples", "10")
        assert code == 0
        assert doc["tangential"] is True

    def test_levi_scan(self, capsys):
        code, doc = run_cli(capsys, "levi-scan", "--a-re", "2", "--b-re",
                            "3", "--domain", "level-band", "--k1", "0.5",
                            "--k2", "2", "--n-samples", "20")
        assert code == 0
        assert doc["pseudoconvex_at_samples"] is True

    def test_diamond(self, capsys):
        code, doc = run_cli(capsys, "diamond", "--p0", "[[2,0,1],[0,2,1]]")
        assert code == 0
        assert doc["found"] is True
        assert doc["p0_value"] > 0

    def test_sweep_cover(self, capsys):
        code, doc = run_cli(capsys, "sweep-cover", "--p0",
                            "[[2,0,1],[0,2,1]]")
        assert code == 0
        assert doc["r_prime"] > 0


class TestRobinCommands:
    def test_robin_ball(self, capsys):
        code, doc = run_cli(capsys, "robin", "--shape", "ball", "--radius",
                            "1", "--center", "1", "0", "1", "0", "--pole",
                            "1", "0", "1", "0", "--n-walks", "500")
        assert code == 0
        assert doc["lambda_hat"] == -1.0

    def test_robin_seed_default_is_deterministic(self, capsys):
        args = ("robin", "--shape", "half-space", "--normal", "0", "0", "1",
                "0", "--pole", "1", "0", "1", "0", "--n-walks", "2000")
        _, d1 = run_cli(capsys, *args)
        _, d2 = run_cli(capsys, *args)
        assert d1["lambda_hat"] == d2["lambda_hat"]

    def test_robin_pole_outside_is_input_error(self, capsys):
        code = main(["robin", "--shape", "ball", "--radius", "1", "--center",
                     "1", "0", "1", "0", "--pole", "9", "9", "9", "9"])
        assert code == 2

    @pytest.mark.parametrize("flags", [
        ["--block-size", "0"], ["--block-size", "-3"],
        ["--pole", "nan", "0", "0", "0"], ["--eps-shell", "nan"],
        ["--eps-shell", "-1"], ["--r-max-factor", "0"],
        ["--c-weight", "nan"],
    ])
    def test_robin_bad_wos_input_exit_2(self, capsys, flags):
        code = main(["robin", "--shape", "half-space", "--normal", "0", "0",
                     "1", "0", "--pole", "1", "0", "1", "0", "--n-walks",
                     "100", *flags])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    def test_nemirovskii_verify(self, capsys):
        code, doc = run_cli(capsys, "nemirovskii-verify", "--a-re", "2",
                            "--b-re", "4", "--n-samples", "200")
        assert code == 0
        assert doc["forward_failures"] == 0
        assert doc["backward_failures"] == 0

    def test_nemirovskii_verify_defaults_pinned(self, capsys):
        code, doc = run_cli(capsys, "nemirovskii-verify", "--a-re", "2",
                            "--b-re", "4")
        assert code == 0
        assert doc["n_forward"] == doc["n_backward"] == 10000
        assert doc["shell_inner_count"] == 4171
        assert doc["shell_outer_count"] == 5829

    @pytest.mark.parametrize("argv", [
        ["nemirovskii-verify", "--a-re", "2", "--b-re", "4",
         "--n-samples=-5"],
        ["nemirovskii-verify", "--a-re", "2", "--b-re", "4",
         "--n-samples", "0"],
        ["tangency", "--a-re", "2", "--b-re", "3", "--domain", "level-band",
         "--k1", "0.5", "--k2", "2", "--unit-field", "--n-samples", "0"],
        ["levi-scan", "--a-re", "2", "--b-re", "3", "--domain",
         "level-band", "--k1", "0.5", "--k2", "2", "--n-samples", "0"],
    ])
    def test_bad_sample_count_exit_2(self, capsys, argv):
        code = main(argv)
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        n = argv[-1].removeprefix("--n-samples=")
        assert captured.err == f"error: n_samples must be >= 1, got {n}\n"

    @pytest.mark.parametrize("n", ["0", "-2"])
    def test_bad_w_sample_count_exit_2(self, capsys, n):
        code = main(["sweep-cover", "--p0", "[[2,0,1],[0,2,1]]",
                     f"--n-w-samples={n}"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: n_w_samples must be >= 1, got {n}\n"

    @pytest.mark.parametrize("cmd", [
        ["tangency", "--unit-field"], ["levi-scan"]])
    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_bad_tol_exit_2(self, capsys, cmd, tol):
        code = main([*cmd, "--a-re", "2", "--b-re", "3", "--domain",
                     "level-band", "--k1", "0.5", "--k2", "2",
                     f"--tol={tol}"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: tol must be finite and >= 0, "
                                f"got {float(tol)}\n")


    @pytest.mark.parametrize("argv, message", [
        (["invariants", "--a-re", "2", "--b-re", "4", "--tol", "nan"],
         "tol must be finite and >= 0, got nan"),
        (["invariants", "--a-re", "2", "--b-re", "4", "--tol=-1"],
         "tol must be finite and >= 0, got -1.0"),
        (["reduce", "--a-re", "2", "--b-re", "inf", "--z-re", "1",
          "--w-re", "1"], "multiplier b = (inf+0j) is not finite"),
        (["classify", "--a-re", "2", "--b-re", "3", "--what", "orbit",
          "--alpha-re", "nan", "--beta-re", "1"],
         "field alpha = (nan+0j) is not finite"),
        (["fiber", "--a-re", "2", "--b-re", "3", "--unit-field",
          "--z-prime-re", "nan"], "fiber base z' = (nan+0j) is not finite"),
    ])
    def test_non_finite_input_exit_2(self, capsys, argv, message):
        # a NaN tol used to exit 0 with invalid JSON; the non-finite values
        # failed late with "cannot convert float NaN to integer"
        code = main(argv)
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


class TestParsing:
    def test_missing_subcommand_usage_error(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_domain_rejected(self):
        with pytest.raises(SystemExit):
            main(["classify", "--a-re", "2", "--b-re", "3", "--what",
                  "domain", "--domain", "pretzel"])


_BAND = ["--a-re", "2", "--b-re", "3", "--domain", "level-band", "--k1", "0.5",
         "--k2", "2"]


class TestNegativeValues:
    # a value that starts with "-" may follow its flag as a separate token,
    # with the same result as the "--flag=value" spelling
    @pytest.mark.parametrize("argv, flag, value", [
        (["tangency", *_BAND, "--unit-field", "--n-samples", "10"],
         "--t-grid", "-0.5,0.5"),
        (["psh-check", *_BAND, "--direction", "0,0,1,0", "--grid-n", "4",
          "--n-walks", "256"], "--anchor", "-1,0,1,0"),
        (["boundary-exp", *_BAND, "--n-walks", "256"], "--anchor",
         "-1.5,0,1.5,0"),
        (["robin", "--shape", "ball", "--radius", "1", "--pole", "0", "0",
          "0", "0", "--n-walks", "256"], "--offset", "-1e-3"),
    ])
    def test_separate_token(self, capsys, argv, flag, value):
        code, doc = run_cli(capsys, *argv, flag, value)
        assert code == 0
        assert run_cli(capsys, *argv, f"{flag}={value}") == (0, doc)


class TestDomainFlags:
    @pytest.mark.parametrize("argv, message", [
        (["classify", "--what", "domain", "--domain", "level-band",
          "--k1", "0.5"], "level-band needs --k1 and --k2"),
        (["classify", "--what", "domain"], "--what domain needs --domain"),
        (["tangency", "--domain", "sub-level", "--unit-field"],
         "sub-level needs --k"),
        (["levi-scan", "--domain", "super-level"], "super-level needs --k"),
        (["levi-scan", "--domain", "nemirovskii", "--A", "1"],
         "nemirovskii needs --A and --B"),
    ])
    def test_missing_flag_exit_2(self, capsys, argv, message):
        code = main(argv + ["--a-re", "2", "--b-re", "4"])
        assert code == 2
        assert capsys.readouterr().err.strip() == f"error: {message}"

    @pytest.mark.parametrize("domain_flags, theorem_type", [
        (["--domain", "sub-level", "--k", "1.5"], "A2prime"),
        (["--domain", "super-level", "--k", "1.5"], "A2doubleprime"),
        (["--domain", "nemirovskii", "--A", "1", "--B", "0.5"],
         "NemirovskiiStein"),
    ])
    def test_classify_each_kind(self, capsys, domain_flags, theorem_type):
        code, doc = run_cli(capsys, "classify", "--a-re", "2", "--b-re", "4",
                            "--what", "domain", *domain_flags)
        assert code == 0
        assert doc["theorem_type"] == theorem_type
