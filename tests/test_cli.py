"""Tests for the command-line front end."""

import json
import math
import warnings

import pytest

from hopfsurf import cli
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

    def test_fiber_huge_field_ratio_exit_2(self, capsys):
        code = main(["fiber", "--a-re", "2", "--b-re", "3", "--alpha-re",
                     "1e-300", "--beta-re", "1", "--z-prime-re", "1.5",
                     "--n", "10"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == ("error: fiber log-modulus or angle at (n, k) "
                                "= (0, 0) is out of floating-point range\n")

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
        assert doc["violation"] is None

    def test_diamond_violation_in_json_not_stderr(self, capsys):
        code = main(["diamond", "--p0", "[[2,0,-1],[0,2,-1]]"])
        captured = capsys.readouterr()
        assert code == 0
        assert json.loads(captured.out)["violation"] == [0.3, 0.0]
        assert captured.err == ""

    def test_sweep_cover(self, capsys):
        code, doc = run_cli(capsys, "sweep-cover", "--p0",
                            "[[2,0,1],[0,2,1]]")
        assert code == 0
        assert doc["r_prime"] > 0

    @pytest.mark.parametrize("argv, message", [
        # the first, second and fourth exited 1 with "internal error: (34,
        # 'Numerical result out of range')"; the third printed
        # "p0_value": Infinity after numpy overflow warnings
        (["diamond", "--p0", "[[16,0,1.0],[0,2,1.0]]", "--r1", "1e20"],
         "the model overflows on |z| <= r1 = 1e+20"),
        (["diamond", "--p0", "[[2,0,1.0]]", "--r1", "1e300"],
         "the model overflows on |z| <= r1 = 1e+300"),
        (["diamond", "--p0", "[[1,1,1.0]]", "--r1", "1e300"],
         "the model overflows on |z| <= r1 = 1e+300"),
        (["sweep-cover", "--p0", "[[2,0,1],[0,2,1]]", "--r1", "1e200"],
         "the model overflows on |z| <= r1 = 1e+200"),
        (["diamond", "--p0", "[]"], "p0 is identically zero"),
        # b = 1e70 exited 0 with 1 forward and 8 backward failures after
        # RuntimeWarnings, and b = 1e150 named a w = (inf+infj) never given
        *([["nemirovskii-verify", "--a-re", "2", "--b-re", b,
            "--n-samples", "100"],
           f"the sampled check needs log b <= 141.422 (b <= 2.62e+61), "
           f"got b = {float(b)}"] for b in ("1e65", "1e70", "1e150")),
        # d/dx of 1e308 x^3 is inf: this named r1 as the overflow
        (["diamond", "--p0", "[[3,0,1e308],[1,2,-1e308]]", "--r1", "1e-10"],
         "the p0 coefficient 1e+308 of x^3 y^0 has the derivative "
         "coefficient inf"),
        (["sweep-cover", "--p0", "[[2,0,1]]", "--p1", "[[0,2,1e308]]"],
         "the p1 coefficient 1e+308 of x^0 y^2 has the derivative "
         "coefficient inf"),
    ])
    def test_out_of_range_exit_2(self, capsys, argv, message):
        # a warning raised as an error would exit 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == f"error: {message}\n"

    def test_nemirovskii_verify_near_the_multiplier_bound(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, doc = run_cli(capsys, "nemirovskii-verify", "--a-re", "2",
                                "--b-re", "1e60")
        assert code == 0
        assert doc["forward_failures"] == doc["backward_failures"] == 0


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

    def test_robin_infinite_escape_radius_exit_2(self, capsys):
        # r_max_factor * d0 = 1e308 * 2 overflows: this used to exit 0 and
        # print "r_max": Infinity, which is not JSON
        code = main(["robin", "--shape", "half-space", "--normal", "0", "0",
                     "1", "0", "--pole", "1", "0", "2", "0", "--n-walks",
                     "100", "--r-max-factor", "1e308"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: escape radius r_max_factor * d0 = "
                                "1e+308 * 2.0 is not finite\n")

    @pytest.mark.parametrize("scale", ["1e200", "1e-170"])
    def test_robin_extreme_normal_walks(self, capsys, scale):
        # the squared norm of (1e200, 1e200, 0, 0) overflowed, and every
        # walk was truncated; (1e-170, 1e-170, 0, 0) was "zero"
        args = ("--offset", "-1", "--pole", "1", "0", "1", "0", "--n-walks",
                "2000")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, doc = run_cli(capsys, "robin", "--shape", "half-space",
                                "--normal", scale, scale, "0", "0", *args)
        _, unit = run_cli(capsys, "robin", "--shape", "half-space",
                          "--normal", "1", "1", "0", "0", *args)
        assert code == 0
        assert doc["truncated_walks"] == 0
        # the pole is 1 + 1/sqrt(2) from the wall
        assert doc["lambda_hat"] == pytest.approx(unit["lambda_hat"],
                                                  rel=1e-9)

    def test_robin_far_wall_escapes_only_past_r_max(self, capsys):
        # |pos - pole|^2 overflowed in the escape test: this used to exit 0
        # with every walk escaped, after numpy overflow warnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, doc = run_cli(capsys, "robin", "--shape", "half-space",
                                "--normal", "0", "0", "1", "0", "--offset",
                                "1e200", "--pole", "0", "0", "1.5e200", "0",
                                "--n-walks", "200")
        assert code == 0
        assert doc["escaped_walks"] < 200
        assert capsys.readouterr().err == ""

    def test_robin_huge_ball_exit_2(self, capsys):
        # its squared diameter overflows: this used to exit 0 with
        # lambda_hat = -1e8, and NaN, not JSON, under --c-weight 1e300
        code = main(["robin", "--shape", "ball", "--radius", "1e300",
                     "--center", "0", "0", "0", "0", "--pole", "0", "0", "0",
                     "0", "--n-walks", "10", "--c-weight", "1e300"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: radius must be at most 6.7e+153, "
                                "got 1e+300\n")

    @pytest.mark.parametrize("cmd", [
        ["boundary-exp", "--anchor", "1.2,0,1.2,0"],
        ["psh-check", "--anchor", "1.2,0,1.2,0", "--direction", "0,0,1,0"]])
    @pytest.mark.parametrize("flag, message", [
        ("--seed=-1", "seed must be an integer >= 0, got -1"),
        ("--n-walks=0", "n_walks must be >= 1, got 0")])
    def test_bad_budget_exit_2(self, capsys, cmd, flag, message):
        # a negative seed used to print numpy's "expected non-negative
        # integer"
        code = main([cmd[0], *_BAND, *cmd[1:], flag])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("argv", [
        ["nemirovskii-verify", "--a-re", "2", "--b-re", "4"],
        ["tangency", "--a-re", "2", "--b-re", "3", "--domain", "level-band",
         "--k1", "0.5", "--k2", "2", "--unit-field"],
        ["levi-scan", "--a-re", "2", "--b-re", "3", "--domain",
         "level-band", "--k1", "0.5", "--k2", "2"],
        ["sweep-cover", "--p0", "[[2,0,1],[0,2,1]]"]])
    def test_bad_seed_exit_2(self, capsys, argv):
        # these used to print numpy's "expected non-negative integer"
        code = main([*argv, "--seed=-1"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: seed must be an integer >= 0, "
                                "got -1\n")

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
        # k = inf exited 1 on an empty list, k2 = inf printed "tangential",
        # A = nan classified as Stein and A = inf printed a NaN
        (["levi-scan", "--a-re", "2", "--b-re", "3", "--domain",
          "super-level", "--k", "inf"], "need a finite k > 0"),
        (["tangency", "--a-re", "2", "--b-re", "3", "--domain", "sub-level",
          "--k", "inf", "--unit-field"], "need a finite k > 0"),
        (["tangency", "--a-re", "2", "--b-re", "3", "--domain", "level-band",
          "--k1", "0.5", "--k2", "inf", "--unit-field"],
         "need 0 < k1 < k2, both finite"),
        (["classify", "--a-re", "2", "--b-re", "4", "--what", "domain",
          "--domain", "nemirovskii", "--A", "nan", "--B", "0"],
         "(A, B) must be finite and nonzero"),
        (["levi-scan", "--a-re", "2", "--b-re", "4", "--domain",
          "nemirovskii", "--A", "inf", "--B", "0"],
         "(A, B) must be finite and nonzero"),
        (["invariants", "--a-re", "2", "--b-re", "4", "--mode", "declared",
          "--p", "1", "--q", "2", "--l", "2"],
         "declare both l and m, or neither"),
        (["diamond", "--p0", "[[1,1,1.0]]", "--r1", "inf"],
         "r1 must be finite and > 0, got inf"),
        (["diamond", "--p0", "[[1,1,1.0]]", "--r1", "nan"],
         "r1 must be finite and > 0, got nan"),
        (["sweep-cover", "--p0", "[[2,0,1],[0,2,1]]", "--r1", "inf"],
         "r1 must be finite and > 0, got inf"),
        # was "math domain error", from math.cos
        (["robin", "--shape", "product-half-plane", "--theta", "inf",
          "--pole", "1", "0", "1", "0"], "theta must be finite, got inf"),
    ])
    def test_non_finite_input_exit_2(self, capsys, argv, message):
        # a NaN tol used to exit 0 with invalid JSON; the non-finite values
        # failed late with "cannot convert float NaN to integer"
        code = main(argv)
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


class TestFloatRangeEdges:
    """Inputs whose intermediate values leave the float range exit 0 or 2,
    with nothing on stderr on exit 0; each of these exited 1 or warned."""

    @pytest.mark.parametrize("flags", [
        # log k = 1055.7: math.exp overflowed ("math range error")
        ["--domain", "sub-level", "--k", "1e300", "--anchor", "1e100,0,1,0"],
        # log k = -825.5: k underflowed to 0 and numpy warned
        ["--domain", "super-level", "--k", "1e-300", "--anchor",
         "1e-100,0,1e-100,0"]])
    def test_boundary_exp_brackets_the_distance(self, capsys, flags):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["boundary-exp", "--a-re", "2", "--b-re", "3",
                         *flags, "--n-walks", "64"])
        captured = capsys.readouterr()
        assert (code, captured.err) == (0, "")
        doc = json.loads(captured.out)
        row = dict(zip(doc["columns"], doc["rows"][0]))
        # each curve runs along a coordinate axis: distance 1
        assert row["dist_lower"] <= 1.0 <= row["dist_upper"]

    @pytest.mark.parametrize("flags, code", [
        (["--b-re", "3", "--domain", "sub-level", "--k", "1e-300"], 0),
        (["--b-re", "1e300", "--domain", "level-band", "--k1", "0.5",
          "--k2", "2"], 0),
        # min_levi was nan and pseudoconvex_at_samples false
        (["--a-re", "1e300", "--b-re", "1e300", "--domain", "level-band",
          "--k1", "0.5", "--k2", "2"], 2)])
    def test_levi_scan_exits_0_or_2(self, capsys, flags, code):
        argv = ["levi-scan", "--a-re", "2", *flags, "--n-samples", "5"]
        assert main(argv) == code
        captured = capsys.readouterr()
        if code == 0:
            doc = json.loads(captured.out)
            assert math.isfinite(doc["min_levi"])
            assert doc["pseudoconvex_at_samples"]
        else:
            assert captured.err.endswith("is nan: out of the float range\n")

    @pytest.mark.parametrize("terms, got", [
        ("[[1.5,0,1.0],[0,2,1.0]]", "(1.5, 0)"),
        ("[[true,0,1]]", "(True, 0)")])
    def test_diamond_rejects_non_integer_exponents(self, capsys, terms, got):
        # both were read as x and exited 0
        assert main(["diamond", "--p0", terms]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", f"error: bad polynomial terms {terms!r}: exponents must be "
                f"integers, got {got}\n")


class TestParsing:
    def test_missing_subcommand_usage_error(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_domain_rejected(self):
        with pytest.raises(SystemExit):
            main(["classify", "--a-re", "2", "--b-re", "3", "--what",
                  "domain", "--domain", "pretzel"])

    def test_internal_error_exit_1(self, capsys, monkeypatch):
        # an error that is not a ValueError is a defect, not bad input
        def handler(ns):
            raise RuntimeError("handler failed")

        parser = cli.build_parser()
        parse = parser.parse_args

        def parse_args(argv):
            ns = parse(argv)
            ns.handler = handler
            return ns

        monkeypatch.setattr(parser, "parse_args", parse_args)
        code = main(["invariants", "--a-re", "2", "--b-re", "4"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert captured.err == "internal error: handler failed\n"


_BAND = ["--a-re", "2", "--b-re", "3", "--domain", "level-band", "--k1", "0.5",
         "--k2", "2"]


class TestPshCheckInputs:
    @pytest.mark.parametrize("radius", ["nan", "inf", "-0.1"])
    def test_bad_disk_radius_exit_2(self, capsys, radius):
        # nan and inf used to fail late on a "coordinate is not finite"
        # message; a negative radius was accepted
        code = main(["psh-check", *_BAND, "--anchor", "1.2,0,1.2,0",
                     "--direction", "0,0,1,0", "--n-walks", "256",
                     f"--disk-radius={radius}"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: disk_radius must be finite and >= 0, "
                                f"got {float(radius)}\n")


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
