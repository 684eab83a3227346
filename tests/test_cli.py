import argparse
import hashlib
import json
import math
import os
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import fctk
from fctk.cli import build_parser, main
from fctk.fuss_catalan import FussCatalanDist


README = Path(__file__).resolve().parents[1] / "README.md"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parser_is_built_once(capsys):
    parser = build_parser()
    run_cli(capsys, "fc", "moment", "--r", "2", "--k", "3")
    assert build_parser() is parser


def test_poly_eval(capsys):
    code, out, _ = run_cli(capsys, "poly", "--r", "1", "--nu", "0", "--n", "1", "--eval-x", "1")
    assert code == 0
    assert out.strip() == "0"


def test_poly_coeff_json(capsys):
    code, out, _ = run_cli(capsys, "poly", "--r", "1", "--nu", "0", "--n", "0")
    assert code == 0
    data = json.loads(out)
    assert data == {"r": 1, "nu": [0], "n": 0, "coeffs": ["1"]}


def test_poly_rational_input(capsys):
    code, out, _ = run_cli(
        capsys, "poly", "--r", "1", "--nu", "0", "--n", "2", "--eval-x", "1/2"
    )
    assert code == 0
    assert out.strip() == "1/8"  # 1 - 2/2 + (1/2)(1/4)
    code, out, _ = run_cli(
        capsys, "poly", "--r", "1", "--nu", "0", "--n", "2", "--eval-x", "0.5"
    )
    assert out.strip() == "1/8"


def test_poly_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["poly", "--r", "1", "--nu", "zzz", "--n", "1"])
    assert exc.value.code == 2


def test_zeros_csv(capsys):
    code, out, _ = run_cli(capsys, "zeros", "--r", "1", "--nu", "0", "--n", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "index,lo,hi,mid"
    assert len(lines) == 3
    mids = [float(line.split(",")[3]) for line in lines[1:]]
    assert mids[0] == pytest.approx((2 - math.sqrt(2)) / 2, abs=1e-9)
    assert mids[1] == pytest.approx((2 + math.sqrt(2)) / 2, abs=1e-9)


def test_zeros_ks(capsys):
    code, out, _ = run_cli(capsys, "zeros", "--r", "1", "--nu", "0", "--n", "40", "--ks")
    assert code == 0
    assert 0.0 <= float(out.strip()) <= 1.0


def test_fc_cdf_value(capsys):
    code, out, _ = run_cli(capsys, "fc", "cdf", "--r", "1", "--x", "2")
    assert code == 0
    assert float(out) == pytest.approx(0.5 + 1 / math.pi, abs=1e-12)


def test_fc_moment(capsys):
    code, out, _ = run_cli(capsys, "fc", "moment", "--r", "2", "--k", "3")
    assert code == 0
    assert out.strip() == "12"
    code, out, _ = run_cli(capsys, "fc", "moment", "--r", "2", "--k", "3", "--quadrature")
    assert float(out) == pytest.approx(12.0, rel=1e-10)


def test_fc_identity(capsys):
    code, out, _ = run_cli(capsys, "fc", "identity", "--r", "1", "--k", "1")
    assert code == 0
    data = json.loads(out)
    assert data["rhs"] == "2"
    assert data["lhs"] == pytest.approx(2.0, rel=1e-9)


def test_fc_sample_deterministic(capsys):
    code, out1, _ = run_cli(capsys, "fc", "sample", "--r", "2", "--count", "5", "--seed", "9")
    assert code == 0
    assert len(out1.strip().splitlines()) == 5
    _, out2, _ = run_cli(capsys, "fc", "sample", "--r", "2", "--count", "5", "--seed", "9")
    assert out1 == out2


def test_fc_density_grid(capsys):
    code, out, _ = run_cli(capsys, "fc", "density", "--r", "1", "--grid", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x,value"
    assert len(lines) == 4


def test_fc_missing_argument_is_usage_error(capsys):
    # each action takes only the options it reads, and they follow the action
    for argv in (
        "quantile --r 1",
        "sample --r 2",
        "cdf --r 1",
        "cdf --r 1 --x 2 --seed 3",
        "quantile --r 1 --p 0.5 --k 3",
        "density --r 1 --x 1 --grid 3",
        "cdf --r 1 --grid 0",
        "cdf --r 1 --grid -3",
        "--r 1 cdf --x 2",
    ):
        with pytest.raises(SystemExit) as exc:
            main(["fc", *argv.split()])
        assert exc.value.code == 2, argv


def test_fc_quantile_keeps_the_rational_p(capsys):
    # the double nearest 1 - 1e-17 is 1.0, and 1 - p of the double
    # 0.9999999999999999 is not 1e-16
    for text in ("0.99999999999999999", "0.9999999999999999"):
        code, out, _ = run_cli(capsys, "fc", "quantile", "--r", "1", "--p", text)
        assert code == 0
        assert float(out) == FussCatalanDist(1).quantile(Fraction(text))
        assert 4.0 - 1e-9 < float(out) < 4.0


def test_fig1_small(capsys):
    code, out, _ = run_cli(capsys, "fig1", "--count", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "phi,F_tilde,c_n"
    assert len(lines) == 4
    first = [float(v) for v in lines[1].split(",")]
    assert first[0] == pytest.approx(0.5 * math.pi / 4)
    assert abs(first[1] - first[2]) < 0.25


# SHA-256 of `fctk fig1` at its defaults: a change to the normalized
# polynomial, its evaluation kernel or the mpmath assembly that moves one
# byte of the CSV fails here.  The path is mpmath and integer arithmetic
# only, so no libm or BLAS enters the bytes.
FIG1_DEFAULT_SHA256 = "27190cea4df82146938e20dc7b45247423a6aca31f8feb711209b53c4eb5f13a"


def test_fig1_default_csv_is_byte_identical(capsys):
    code, out, _ = run_cli(capsys, "fig1")
    assert code == 0
    assert len(out.splitlines()) == 201
    assert hashlib.sha256(out.encode()).hexdigest() == FIG1_DEFAULT_SHA256


def test_fig1_clamps_window(capsys):
    code, out, err = run_cli(
        capsys, "fig1", "--r", "1", "--nu", "0", "--n", "10",
        "--phi-lo", "0", "--phi-hi", "0.3", "--count", "2",
    )
    assert code == 0
    meta = json.loads(err)
    assert meta["clamped"] is True
    assert meta["phi_lo"] > 0


@pytest.mark.parametrize(
    "argv",
    [
        ("fig1", "--phi-lo", "nan"),
        ("fig1", "--phi-hi", "NaN"),
        ("oracle", "msp", "--r", "2", "--nu", "0,0", "--n", "5", "--phi", "nan"),
        ("oracle", "hmax", "--r", "2", "--phi=-nan"),
    ],
)
def test_nan_angle_is_usage_error(capsys, argv):
    # nan is no angle to clamp: exit 2 with no clamp line before the usage
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "clamped" not in err
    assert "must not be nan" in err


def test_infinite_angles_still_clamp(capsys):
    code, out, err = run_cli(
        capsys, "fig1", "--r", "1", "--nu", "0", "--n", "10",
        "--phi-lo=-inf", "--phi-hi", "inf", "--count", "2",
    )
    assert code == 0
    meta = json.loads(err)
    assert meta == {"clamped": True, "phi_lo": 1e-9, "phi_hi": math.pi / 2 - 1e-9}
    code, out, _ = run_cli(capsys, "oracle", "hmax", "--r", "2", "--phi", "inf", "--m", "64")
    assert code == 0
    assert json.loads(out)["clamped"] is True


def test_oracle_contour(capsys):
    code, out, _ = run_cli(
        capsys, "oracle", "contour", "--r", "1", "--nu", "0", "--n", "3",
        "--x", "2", "--m", "256",
    )
    assert code == 0
    data = json.loads(out)
    assert data["rel_error"] < 1e-10
    assert data["exact"] == "1"


def test_oracle_hmax(capsys):
    code, out, _ = run_cli(capsys, "oracle", "hmax", "--r", "2", "--phi", "0.4", "--m", "256")
    assert code == 0
    data = json.loads(out)
    assert data["distance"] <= data["cell_diagonal"]


def test_oracle_msp(capsys):
    code, out, _ = run_cli(
        capsys, "oracle", "msp", "--r", "1", "--nu", "0", "--n", "50", "--phi", "0.785"
    )
    assert code == 0
    assert json.loads(out)["rel_diff"] < 1e-10


def test_oracle_guard_is_usage_error(capsys):
    # each probe takes only the options it reads, and contour and msp need the model
    for argv in (
        "contour --r 3 --nu 0,0,0 --n 2 --x 1 --m 4",
        "contour --r 1 --nu 0 --n 3 --m 256",
        "contour --r 2 --x 2",
        "msp --r 1 --n 50 --phi 0.785",
        "msp --r 1 --nu 0 --n 50 --phi 0.785 --m 64",
        "hmax --r 2 --phi 0.4 --m 64 --nu 1",
    ):
        with pytest.raises(SystemExit) as exc:
            main(["oracle", *argv.split()])
        assert exc.value.code == 2, argv


def test_oracle_contour_large_grid(capsys):
    # 2048^3 nominal nodes: the convolution sums cost 2 * 2048^2
    code, out, _ = run_cli(
        capsys, "oracle", "contour", "--r", "3", "--nu", "0,0,0", "--n", "2",
        "--x", "1", "--m", "2048",
    )
    assert code == 0
    assert json.loads(out)["rel_error"] < 1e-10


def test_computational_failure_is_exit_1(capsys):
    # parseable but out-of-domain values surface as error JSON with exit 1
    code, out, err = run_cli(capsys, "fc", "quantile", "--r", "1", "--p", "2")
    assert code == 1
    assert json.loads(err)["error"] == "DomainError"
    # x_star(5)^300 is past the double range
    code, out, err = run_cli(capsys, "fc", "identity", "--r", "5", "--k", "300")
    assert (code, out) == (1, "")
    assert json.loads(err)["error"] == "DomainError"
    # seeds are integers in [0, 2^64)
    code, out, err = run_cli(
        capsys, "rmt", "--r", "1", "--nu", "0", "--n", "5", "--trials", "1", "--seed", "-1"
    )
    assert (code, out) == (1, "")
    assert json.loads(err)["error"] == "DomainError"


def test_rmt_summary(capsys):
    args = ["rmt", "--r", "1", "--nu", "0", "--n", "40", "--trials", "4", "--seed", "7"]
    code, out1, _ = run_cli(capsys, *args)
    assert code == 0
    data = json.loads(out1)
    assert list(data) == ["r", "nu", "n", "trials", "seed", "ks", "moments"]
    assert 0 <= data["ks"] <= 1
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_rmt_zero_trials_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["rmt", "--r", "1", "--nu", "0", "--n", "10", "--trials", "0"])
    assert exc.value.code == 2


def test_rmt_zero_degree_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["rmt", "--r", "1", "--nu", "0", "--n", "0", "--trials", "1"])
    assert exc.value.code == 2


def test_usage_errors_after_parsing_print_the_command_usage(capsys):
    for argv, usage in (
        (["zeros", "--r", "1", "--nu", "0,0", "--n", "3"], "usage: fctk zeros "),
        (["rmt", "--r", "1", "--nu", "0", "--n", "10", "--trials", "0"], "usage: fctk rmt "),
        (["fig1", "--count", "0"], "usage: fctk fig1 "),
        (["oracle", "msp", "--r", "2", "--nu", "0", "--n", "5", "--phi", "0.4"],
         "usage: fctk oracle msp "),
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert capsys.readouterr().err.startswith(usage), argv


def test_fig1_nonpositive_sizes_usage(capsys):
    for flag, value in (("--count", "0"), ("--n", "0")):
        with pytest.raises(SystemExit) as exc:
            main(["fig1", flag, value])
        assert exc.value.code == 2


def test_zeros_zero_tol_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["zeros", "--r", "1", "--nu", "0", "--n", "5", "--tol", "0"])
    assert exc.value.code == 2


def test_hmax_small_grid_usage(capsys):
    # verify_h_max needs m >= 64; contour accepts m = 32
    for m in ("8", "32", "63"):
        with pytest.raises(SystemExit) as exc:
            main(["oracle", "hmax", "--r", "2", "--phi", "0.4", "--m", m])
        assert exc.value.code == 2
    code, out, _ = run_cli(capsys, "oracle", "hmax", "--r", "2", "--phi", "0.4", "--m", "64")
    assert code == 0 and json.loads(out)["argmax"]
    code, _, _ = run_cli(
        capsys, "oracle", "contour", "--r", "1", "--nu", "0", "--n", "2", "--x", "1", "--m", "32"
    )
    assert code == 0


def _leaf_parsers(parser, path=()):
    subparsers = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subparsers:
        yield path, parser
    for action in subparsers:
        for name, child in action.choices.items():
            yield from _leaf_parsers(child, (*path, name))


def test_every_leaf_parser_has_a_handler_and_help(capsys):
    leaves = dict(_leaf_parsers(build_parser()))
    assert len(leaves) >= 13  # poly, zeros, fig1, rmt, six fc actions, three oracle probes
    for path, leaf in leaves.items():
        assert callable(leaf.get_default("handler")), path
        with pytest.raises(SystemExit) as exc:
            main([*path, "--help"])
        assert exc.value.code == 0, path
        assert capsys.readouterr().out.startswith(f"usage: fctk {' '.join(path)} "), path


def _other_required_args(leaf, skip):
    # every required option but `skip`, and the first option of each
    # required group, each given "1", a valid value for all of them
    argv = []
    for action in leaf._actions:
        if action.required and action.option_strings and skip not in action.option_strings:
            argv += [action.option_strings[0], "1"]
    for group in leaf._mutually_exclusive_groups:
        if group.required:
            argv += [group._group_actions[0].option_strings[0], "1"]
    return argv


def test_every_leaf_rejects_r_below_one_as_a_usage_error(capsys):
    guarded = 0
    for path, leaf in _leaf_parsers(build_parser()):
        if "--r" not in leaf._option_string_actions:
            continue
        guarded += 1
        for r in ("0", "-1"):
            argv = [*path, *_other_required_args(leaf, "--r"), "--r", r]
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2, argv
            err = capsys.readouterr().err
            assert f"argument --r: must be >= 1, got {r}" in err, argv
            assert "Traceback" not in err, argv
    assert guarded >= 13


def test_unwritable_output_path_is_a_usage_error(tmp_path, capsys):
    missing = tmp_path / "missing" / "x"
    for argv, usage in (
        (["fc", "density", "--r", "2", "--grid", "1", "--out", str(missing)],
         "usage: fctk fc density "),
        (["rmt", "--r", "1", "--nu", "0", "--n", "3", "--trials", "1",
          "--values-out", str(missing)], "usage: fctk rmt "),
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert captured.err.startswith(usage), argv
        assert str(missing) in captured.err and "Traceback" not in captured.err, argv
    assert not missing.parent.exists()


def test_out_file(tmp_path, capsys):
    target = tmp_path / "table.csv"
    code, out, _ = run_cli(
        capsys, "fc", "cdf", "--r", "1", "--grid", "2", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("x,value\n")


def run_child(*argv):
    # the child imports the package under test, installed or not
    src = os.path.dirname(os.path.dirname(fctk.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_console_entry_point():
    proc = run_child("-m", "fctk", "fc", "moment", "--r", "1", "--k", "4")
    assert proc.returncode == 0
    assert proc.stdout.strip() == "14"


def test_scipy_integrate_imported_on_first_use():
    probe = run_child("-c", "import sys, fctk, fctk.cli; print('scipy.integrate' in sys.modules)")
    assert probe.stdout.strip() == "False"
    proc = run_child("-m", "fctk", "fc", "moment", "--r", "2", "--k", "3", "--quadrature")
    assert proc.returncode == 0
    assert float(proc.stdout) == pytest.approx(12, rel=1e-9)


def test_readme_command_lines_run(capsys):
    # every `fctk ...` line of README's Command line section exits 0, and
    # a comment that is a JSON object is the line's output, floats to 1e-12
    section = README.read_text().split("## Command line", 1)[1].split("\n## ", 1)[0]
    lines = [line for line in section.splitlines() if line.startswith("fctk ")]
    assert len(lines) >= 10
    for line in lines:
        command, _, comment = line.partition("#")
        code, out, err = run_cli(capsys, *shlex.split(command)[1:])
        assert code == 0, (line, err)
        if comment.strip().startswith("{"):
            assert json.loads(out) == pytest.approx(json.loads(comment), rel=1e-12), line
