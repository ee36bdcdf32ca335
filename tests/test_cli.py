"""Command-line surface: parsing gates, exit codes, artifact reproducibility."""

import argparse
import subprocess
import sys

import pytest

from cylmaps.cli import build_parser, main
from cylmaps.measures import TEST_FUNCTIONS


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_lyap_reference_output(capsys):
    code, out = run_cli(["lyap", "--family", "kan", "--epsilon", "0.5",
                         "--k", "3", "--nodes", "4096"], capsys)
    assert code == 0
    assert out.startswith("lyap ")
    fields = dict(tok.split("=") for tok in out.split()[1:])
    assert abs(float(fields["lyap0"]) + 0.069336464) < 1e-6
    assert abs(float(fields["lyap1"]) + 0.069336464) < 1e-6
    assert fields["sum_sign"] == "-1"


def test_usage_error_on_bad_epsilon():
    proc = subprocess.run([sys.executable, "-m", "cylmaps", "lyap",
                           "--epsilon", "1.5"], capture_output=True, text=True)
    assert proc.returncode == 2
    assert "epsilon" in proc.stderr


def test_usage_error_on_unknown_subcommand():
    proc = subprocess.run([sys.executable, "-m", "cylmaps", "frobnicate"],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert "lyap" in proc.stderr  # usage text lists the valid subcommands


def test_usage_error_on_unknown_flag():
    proc = subprocess.run([sys.executable, "-m", "cylmaps", "lyap",
                           "--frobnicate", "1"], capture_output=True, text=True)
    assert proc.returncode == 2


@pytest.mark.parametrize("family", ["kan", "inverse-kan", "fractional-linear"])
@pytest.mark.parametrize("profile", ["cosine:abc", "step:", "step:1,x", "wave:1"])
def test_usage_error_on_malformed_profile(profile, family, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["lyap", "--family", family, "--profile", profile])
    assert exit_info.value.code == 2
    assert repr(profile) in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["basins", "--k", "4", "--width", "8", "--height", "8"],
    ["walk", "--t0", "nan"],
    ["walk", "--t0", "inf"],
    ["basins", "--width", "32", "--height", "32", "--delta", "1e-17"],
    ["separator", "--angles", "20", "--delta", "1e-17"],
    ["lyap", "--family", "fractional-linear", "--epsilon", "0.3"],
], ids=["basins-even-k", "walk-nan", "walk-inf", "basins-delta", "separator-delta",
        "fractional-linear-epsilon"])
def test_usage_error_on_refused_input(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["intermingle", "separator", "histogram", "jacobian-check",
                                     "birkhoff", "walk", "arcsine", "equidist"])
def test_usage_error_on_negative_seed(command, capsys):
    # refused while parsing, before any numpy generator can raise ValueError
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--seed", "-1"])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert f"cylmaps {command}: error: argument --seed" in err
    assert "Traceback" not in err


def test_basins_writes_ppm(tmp_path, capsys):
    out = tmp_path / "b.ppm"
    code, text = run_cli(["basins", "--width", "32", "--height", "16",
                          "--max-iter", "400", "--out", str(out)], capsys)
    assert code == 0
    assert text.startswith("basins frac0=")
    data = out.read_bytes()
    assert data.startswith(b"P6\n32 16\n255\n")
    assert len(data) == len(b"P6\n32 16\n255\n") + 3 * 32 * 16


def test_walk_csv_reproducible(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        code, _ = run_cli(["walk", "--n", "20000", "--seed", "5",
                           "--every", "100", "--out", str(path)], capsys)
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    header = a.read_text().splitlines()[0]
    assert header == "n,a_over_n,b_over_n,c_over_n"


def test_intermingle_seeded(tmp_path, capsys):
    out = tmp_path / "probe.csv"
    code, text = run_cli(["intermingle", "--boxes", "10", "--samples", "50",
                          "--max-iter", "1500", "--seed", "3",
                          "--out", str(out)], capsys)
    assert code == 0
    assert "both=" in text
    assert out.read_text().splitlines()[0].startswith("boxes_total,")


def test_histogram_command(capsys):
    code, out = run_cli(["histogram", "--n", "30000", "--burn-in", "500",
                         "--bins-x", "8", "--bins-y", "8"], capsys)
    assert code == 0
    assert "max_rel_dev=" in out


def test_separator_command(capsys):
    code, out = run_cli(["separator", "--angles", "20", "--max-iter", "3000"], capsys)
    assert code == 0
    assert "functional_eq=" in out


def test_arcsine_command(capsys):
    code, out = run_cli(["arcsine", "--walks", "100", "--n", "2000"], capsys)
    assert code == 0
    assert out.count("arcsine eps=") == 2


def test_equidist_rational_and_pi(capsys):
    code, out = run_cli(["equidist", "--modulus", "2", "--n", "50000"], capsys)
    assert code == 0
    assert "cyclic_support=True" in out
    code, out = run_cli(["equidist", "--modulus", "pi", "--n", "50000"], capsys)
    assert code == 0
    assert "cyclic_support=False" in out


def test_backward_command(capsys):
    code, out = run_cli(["backward", "--steps", "100"], capsys)
    assert code == 0
    assert "final_y=" in out
    assert float(dict(t.split("=") for t in out.split()[1:])["final_y"]) > 0.999


def test_birkhoff_command(capsys):
    code, out = run_cli(["birkhoff", "--chi", "y", "--n", "50000"], capsys)
    assert code == 0
    value = float(out.split("average=")[1])
    assert abs(value - 0.5) < 0.05


def test_birkhoff_chi_choices_are_the_named_test_functions():
    (subs,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    (chi,) = [a for a in subs.choices["birkhoff"]._actions if a.dest == "chi"]
    assert tuple(chi.choices) == tuple(TEST_FUNCTIONS)


def test_selftest_prints_a_verdict_per_time_bound(monkeypatch, capsys):
    import cylmaps.cli as cli
    from cylmaps.selftest import CheckResult, TimeBound

    slow = CheckResult("slow_host", True, "value=1", 2.0,
                       (TimeBound("elapsed", 2.0, 1.0), TimeBound("core", 0.5, 1.0)))
    wrong = CheckResult("wrong_number", False, "value=2", 0.1, (TimeBound("elapsed", 0.1, 1.0),))
    assert not slow.passed and not wrong.passed
    assert CheckResult("fine", True, "", 0.1, (TimeBound("elapsed", 0.1, 1.0),)).passed
    monkeypatch.setattr(cli, "run_selftest", lambda: ([slow, wrong], {}))
    code, out = run_cli(["selftest"], capsys)
    assert code == 1
    lines = out.splitlines()
    assert "selftest [PASS] slow_host: value=1 (2.00s)" in lines
    assert "selftest [FAIL] slow_host elapsed took 2s, bound < 1s" in lines
    assert "selftest [PASS] slow_host core took 0.5s, bound < 1s" in lines
    assert "selftest [FAIL] wrong_number: value=2 (0.10s)" in lines
    assert "selftest [PASS] wrong_number elapsed took 0.1s, bound < 1s" in lines
    assert lines[-1] == "selftest FAILED: slow_host, wrong_number"
