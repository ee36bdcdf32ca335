"""Command-line surface: the library's refusals, exit codes, artifact reproducibility."""

import argparse
import hashlib
import subprocess
import sys
import time

import pytest

from artifact_pins import ARTIFACT_SHA256
from cylmaps import cli
from cylmaps.cli import build_parser, main
from cylmaps.measures import TEST_FUNCTIONS


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_lyap_reference_output(capsys):
    code, out = run_cli(["lyap", "--family", "kan", "--profile", "cosine:0.5",
                         "--k", "3", "--nodes", "4096"], capsys)
    assert code == 0
    assert out.startswith("lyap ")
    fields = dict(tok.split("=") for tok in out.split()[1:])
    assert abs(float(fields["lyap0"]) + 0.069336464) < 1e-6
    assert abs(float(fields["lyap1"]) + 0.069336464) < 1e-6
    assert fields["sum_sign"] == "-1"
    assert fields["nodes"] == "4096"


@pytest.mark.parametrize("nodes", [["--nodes", "20"], []])
def test_lyap_reports_the_nodes_a_step_profile_uses(nodes, capsys):
    # a step profile is integrated exactly at its k = 3 digit midpoints
    code, out = run_cli(["lyap", "--family", "kan", "--profile", "step:0.5,-0.5,0",
                         "--k", "3"] + nodes, capsys)
    assert code == 0
    assert dict(tok.split("=") for tok in out.split()[1:])["nodes"] == "3"


@pytest.mark.parametrize("family", ["kan", "inverse-kan"])
def test_usage_error_on_cosine_amplitude_outside_the_unit_interval(family):
    proc = subprocess.run([sys.executable, "-m", "cylmaps", "lyap", "--family", family,
                           "--profile", "cosine:1.5"], capture_output=True, text=True)
    assert proc.returncode == 2
    assert "sup|p|" in proc.stderr


def test_profile_is_the_only_spelling_of_the_amplitude(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["lyap", "--epsilon", "0.5"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --epsilon" in capsys.readouterr().err


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
    ["walk", "--values", "1", "--n", "10"],
    ["equidist", "--values", "1"],
    ["arcsine", "--values", "1"],
    ["equidist", "--modulus", "1e400"],
    ["equidist", "--modulus", "1e-320", "--n", "1000"],
    ["equidist", "--modulus", "1e-300", "--n", "1000"],
], ids=["basins-even-k", "walk-nan", "walk-inf", "basins-delta", "separator-delta",
        "walk-one-value", "equidist-one-value", "arcsine-one-value", "equidist-huge-modulus",
        "equidist-modulus-overflows-t-over-L", "equidist-modulus-leaves-no-fraction-bits"])
def test_usage_error_on_refused_input(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["intermingle", "separator", "histogram", "jacobian-check",
                                     "birkhoff", "walk", "arcsine", "equidist"])
def test_usage_error_on_negative_seed(command, capsys):
    # refused by the library's seed rule, before any numpy generator can raise ValueError
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--seed", "-1"])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "cylmaps: error: seed must be None or a non-negative integer, got -1" in err
    assert "Traceback" not in err


def _subparsers():
    (subs,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return subs.choices


#: every integer flag of every subcommand, with a value below the least the library takes
_INT_FLAGS = {
    "lyap": {"--k": 1, "--nodes": 15},
    "basins": {"--k": 1, "--width": 0, "--height": 0, "--max-iter": -1},
    "intermingle": {"--k": 1, "--boxes": 0, "--samples": 0, "--max-iter": -1, "--seed": -1},
    "separator": {"--k": 1, "--angles": -1, "--max-iter": -1, "--seed": -1},
    "histogram": {"--k": 1, "--n": 1000, "--bins-x": 0, "--bins-y": 0, "--burn-in": -1,
                  "--seed": -1},
    "jacobian-check": {"--k": 1, "--points": 0, "--seed": -1},
    "birkhoff": {"--k": 1, "--n": 1000, "--burn-in": -1, "--seed": -1},
    "walk": {"--n": 0, "--seed": -1, "--every": 0},
    "arcsine": {"--n": 0, "--walks": 0, "--seed": -1},
    "equidist": {"--n": -1, "--bins": 1, "--seed": -1},
    "backward": {"--k": 2, "--steps": -1},
    "selftest": {},
}

#: float flags at NaN and out of range
_FLOAT_FLAGS = {
    ("histogram", "birkhoff", "backward"): {"--x0": ["nan", "1.0", "-0.1", "inf"],
                                           "--y0": ["nan", "1.5", "-0.1", "0.0"]},
    ("backward",): {"--x-star": ["nan", "inf", "-inf", "1.25"]},
    ("basins", "intermingle", "separator"): {"--delta": ["nan", "0.5", "0.0", "-1e-6", "1e-17"]},
    ("separator",): {"--tol": ["nan", "0.0", "-1e-3"]},
    ("intermingle",): {"--box-side": ["nan", "0.5", "0.0", "-0.1"]},
    ("walk",): {"--threshold": ["nan", "-1.0"]},
}


def test_the_refusal_table_names_every_integer_flag():
    for command, sub in _subparsers().items():
        flags = {a.option_strings[0] for a in sub._actions if a.type is int}
        assert flags == set(_INT_FLAGS[command]), command


def _refused_argv():
    for command, flags in _INT_FLAGS.items():
        for flag, below in flags.items():
            for value in dict.fromkeys([str(below), "-1", "1.5"]):
                yield pytest.param([command, flag, value], id=f"{command} {flag} {value}")
    for commands, flags in _FLOAT_FLAGS.items():
        for command in commands:
            for flag, values in flags.items():
                # --flag=value: argparse reads a separate -inf or -1e-6 as an option
                for value in values:
                    yield pytest.param([command, f"{flag}={value}"], id=f"{command} {flag} {value}")


@pytest.mark.parametrize("argv", _refused_argv())
def test_every_refusal_exits_2_before_any_report(argv, tmp_path, capsys):
    out = tmp_path / "out"
    if argv[1] == "--every":  # the stride is read where the table is written
        argv = argv + ["--out", str(out)]
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    captured = capsys.readouterr()
    assert exit_info.value.code == 2
    assert "error:" in captured.err and "Traceback" not in captured.err
    assert "expected one argument" not in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("argv, error", [
    ("walk --threshold nan", "threshold must be >= 0"),
    ("walk --threshold -1", "threshold must be >= 0"),
    ("equidist --bins 1", "bin count must be an integer >= 2, got 1"),
    ("equidist --modulus 1e400", "modulus must be positive and finite, got inf"),
    # the stride is read only where the table is written, so only with --out
    ("walk --every 0 --out {out}", "downsampling stride must be an integer >= 1, got 0"),
])
def test_walk_inputs_are_refused_before_the_walk_is_built(argv, error, tmp_path, monkeypatch,
                                                          capsys):
    def no_walk(*args, **kwargs):
        raise AssertionError("the walk was built before the refusal")
    monkeypatch.setattr(cli, "simulate_walk", no_walk)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exit_info:
        main(argv.format(out=out).split())
    captured = capsys.readouterr()
    assert exit_info.value.code == 2
    assert captured.err == f"cylmaps: error: {error}\n"
    assert captured.out == ""
    assert not out.exists()


#: the --out file of a subcommand at its defaults is this selftest artifact
_DEFAULT_ARTIFACTS = {"basins": "basins.ppm", "intermingle": "intermingle.csv",
                      "separator": "separator.csv", "histogram": "histogram.csv",
                      "walk": "walk_ratios.csv", "arcsine": "arcsine.csv"}


@pytest.mark.parametrize("command", [c for c in _INT_FLAGS if c != "selftest"])
def test_every_subcommand_runs_at_its_defaults(command, tmp_path, capsys):
    artifact = _DEFAULT_ARTIFACTS.get(command)
    out = tmp_path / "out"
    code, text = run_cli([command] + (["--out", str(out)] if artifact else []), capsys)
    assert code == 0
    lines = text.splitlines()
    # arcsine prints one line per eps, and a written artifact adds one
    assert len(lines) == (2 if command == "arcsine" else 1) + (artifact is not None)
    assert all(line.startswith(command + " ") for line in lines)
    if artifact:
        assert hashlib.sha256(out.read_bytes()).hexdigest() == ARTIFACT_SHA256[artifact]


def _report(out):
    return dict(tok.split("=", 1) for tok in out.split()[1:] if "=" in tok)


@pytest.mark.parametrize("argv, want", [pytest.param(argv, want, id=argv) for argv, want in [
    ("basins --max-iter 0", {"frac0": "0.0", "frac1": "0.0", "undecided": "1.0"}),
    ("intermingle --max-iter 0", {"both": "0", "undecided": "100"}),
    ("separator --max-iter 0", {"decided": "0/200", "functional_eq": "0/0"}),
    ("separator --angles 0", {"decided": "0/0", "functional_eq": "0/0"}),
    ("equidist --n 0", {"cdf_deviation": repr(1.0 - 1.0 / 256.0)}),
    ("backward --steps 0", {"final_x": "0.1", "final_y": "0.5"}),
]])
def test_inputs_the_library_answers(argv, want, capsys):
    code, out = run_cli(argv.split(), capsys)
    assert code == 0
    got = _report(out)
    assert {key: got[key] for key in want} == want


def test_a_marked_angle_outside_the_unit_interval_is_read_mod_1(capsys):
    _, inside = run_cli(["backward", "--x-star", "0.5"], capsys)
    code, outside = run_cli(["backward", "--x-star", "1.5"], capsys)
    assert code == 0
    assert outside == inside.replace("x_star=0.5", "x_star=1.5")


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
    (chi,) = [a for a in _subparsers()["birkhoff"]._actions if a.dest == "chi"]
    assert tuple(chi.choices) == tuple(TEST_FUNCTIONS)


def test_selftest_prints_a_verdict_per_time_bound(monkeypatch, capsys):
    from cylmaps.selftest import CheckResult, TimeBound

    # a bound reads the thread's CPU seconds: a stalled part (wall 3s) passes
    slow = CheckResult("slow_host", True, "value=1", 2.0,
                       (TimeBound("elapsed", 2.5, 2.0, 1.0), TimeBound("core", 3.0, 0.5, 1.0)))
    wrong = CheckResult("wrong_number", False, "value=2", 0.1,
                        (TimeBound("elapsed", 0.1, 0.1, 1.0),))
    assert not slow.passed and not wrong.passed
    assert CheckResult("fine", True, "", 0.1, (TimeBound("elapsed", 0.1, 0.1, 1.0),)).passed
    monkeypatch.setattr(cli, "run_selftest", lambda: ([slow, wrong], {}))
    code, out = run_cli(["selftest"], capsys)
    assert code == 1
    lines = out.splitlines()
    assert "selftest [PASS] slow_host: value=1 (2.00s)" in lines
    assert "selftest [FAIL] slow_host elapsed took 2s cpu (2.5s wall), bound < 1s cpu" in lines
    assert "selftest [PASS] slow_host core took 0.5s cpu (3s wall), bound < 1s cpu" in lines
    assert "selftest [FAIL] wrong_number: value=2 (0.10s)" in lines
    assert "selftest [PASS] wrong_number elapsed took 0.1s cpu (0.1s wall), bound < 1s cpu" in lines
    assert lines[-1] == "selftest FAILED: slow_host, wrong_number"


def _burn(seconds):
    """Compute, not sleep, for this many CPU seconds of the thread."""
    start = time.thread_time()
    while time.thread_time() - start < seconds:
        sum(range(1000))


@pytest.mark.parametrize("check,callee,label,limit", [
    ("check_exponent_oracle", "transverse_exponent_quadrature", "core", 0.1),
    ("check_jacobian_branch_sum", "jacobian_max_defect", "elapsed", 0.1),
    ("check_backward_orbit", "backward_orbit_toward", "elapsed", 0.01),
])
def test_cpu_burned_inside_a_timed_part_fails_its_bound(check, callee, label, limit,
                                                        monkeypatch):
    from cylmaps import selftest

    real = getattr(selftest, callee)

    def burned(*args, **kwargs):
        _burn(limit)
        return real(*args, **kwargs)

    monkeypatch.setattr(selftest, callee, burned)
    result = getattr(selftest, check)()
    (bound,) = [b for b in result.bounds if b.label == label]
    assert result.correct and not bound.passed and not result.passed
    assert bound.cpu_seconds >= limit


def test_a_stall_inside_a_timed_part_passes_its_bound(monkeypatch):
    from cylmaps import selftest

    real = selftest.backward_orbit_toward

    def stalled(*args, **kwargs):
        time.sleep(0.03)  # off the CPU: a descheduled thread spends no CPU time
        return real(*args, **kwargs)

    monkeypatch.setattr(selftest, "backward_orbit_toward", stalled)
    (bound,) = selftest.check_backward_orbit().bounds
    assert bound.wall_seconds >= 0.03 > bound.limit
    assert bound.passed
