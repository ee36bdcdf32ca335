"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criteria 1-10 call the packaged checks directly (the same code the CLI
``selftest`` subcommand runs); criterion 11 exercises the CLI end to end
and compares artifacts byte for byte across repeated and multi-threaded
runs.  Run with ``pytest -s tests/test_acceptance.py`` to see the lines.
"""

import filecmp
import hashlib
import subprocess
import sys
from pathlib import Path

from cylmaps import selftest


def _report(result):
    line = f"[{'PASS' if result.correct else 'FAIL'}] {result.name}: {result.detail}"
    for b in result.bounds:  # a slow host fails a bound, not the numbers
        line += f"; [{'PASS' if b.passed else 'FAIL'}] {b.label} {b.seconds:.3g}s < {b.limit:g}s"
    print(line)
    assert result.passed, line


def test_c01_exponent_oracle():
    _report(selftest.check_exponent_oracle())


def test_c02_schwarzian_identities():
    _report(selftest.check_schwarzian_identities())


def test_c03_cross_ratio_monotonicity():
    _report(selftest.check_cross_ratio_monotonicity())


def test_c04_jacobian_branch_sum():
    _report(selftest.check_jacobian_branch_sum())


def test_c05_intermingled_basins():
    artifacts = {}
    _report(selftest.check_intermingled_basins(artifacts))
    # pinned across versions: every class the raster and the probe read goes
    # into these, so a classifier that moves one bit fails here
    assert {name: hashlib.sha256(data).hexdigest() for name, data in artifacts.items()} == {
        "basins.ppm": "614638fd6571f11dc732a0d659d6ef8cc1ee7c0b4af8dc203923191701cc25d0",
        "fractions.csv": "330e5c5e2a2e9e8abee7d2fed78793d48b1807a1d54daea76471bbf1dcc20f6f",
        "intermingle.csv": "8346d554f085de58daf36b2078795b1c3a716b67a5f1561f59873e7a2451ac5a",
    }


def test_c06_backward_orbit():
    _report(selftest.check_backward_orbit())


def test_c07_separator():
    artifacts = {}
    _report(selftest.check_separator(artifacts))
    # pinned across versions: every bracket end is a classified rung
    assert (hashlib.sha256(artifacts["separator.csv"]).hexdigest()
            == "dd0da76d8ee4d7e4bc6176690e784c67fd4c6b0ddc01bef4adaf642e6497e394")


def test_c08_asymptotic_measure():
    artifacts = {}
    result = selftest.check_asymptotic_measure(artifacts)
    _report(result)
    # pinned across versions: every orbit bit of c08 goes into these two, so
    # an orbit loop that moves one bit fails here; re-pin, with a note, only
    # for a change meant to move the orbits
    assert (hashlib.sha256(artifacts["histogram.csv"]).hexdigest()
            == "1e1a0ee98e51a0e32053798adba571076a456cc9a36a6cd9a8d2c7becce3e45e")
    assert result.detail == ("max_rel_dev=0.0578 <y>=0.5020 <y^2>=0.3355 "
                             "<cos>=-0.00039 kan_interior=0.0000")


def test_c09_random_walk():
    artifacts = {}
    _report(selftest.check_random_walk(artifacts))
    # pinned across versions: the walks behind these read the walk digit
    # stream, so a change to that stream fails here; re-pin, with a note,
    # only for a change meant to move the digits
    assert {name: hashlib.sha256(data).hexdigest() for name, data in artifacts.items()} == {
        "walk_ratios.csv": "c1c957e4117f948a6ae763b14c1e2fafe8393b77b83a2ad1d44410d85195ddd9",
        "arcsine.csv": "3173d06956298efbe37df7d2bf35c83bc2a41bfd0a232e277fe133a0b0448e0d",
    }


def test_c10_equidistribution():
    artifacts = {}
    _report(selftest.check_equidistribution(artifacts))
    # pinned across versions, as c09's walk artifacts are
    assert (hashlib.sha256(artifacts["equidist.csv"]).hexdigest()
            == "a55ed9c9d2134d784d304ebb2c97cf84b1c0198c5f5e24b0be7a2163dc392408")


def _run_selftest_cli(out_dir: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "cylmaps", "selftest", "--out-dir", str(out_dir)],
        capture_output=True, text=True, timeout=600)


def test_c11_selftest_determinism(tmp_path):
    first, second = tmp_path / "first", tmp_path / "second"
    for out_dir in (first, second):
        proc = _run_selftest_cli(out_dir)
        assert proc.returncode == 0, f"{out_dir.name} selftest failed:\n{proc.stdout}\n{proc.stderr}"
    names = sorted(p.name for p in first.iterdir())
    assert names, "selftest produced no artifacts"
    assert sorted(p.name for p in second.iterdir()) == names
    match, mismatch, errors = filecmp.cmpfiles(first, second, names, shallow=False)
    assert not mismatch and not errors, f"artifacts differ across reruns: {mismatch or errors}"
    print(f"[PASS] selftest_determinism: {len(names)} artifacts byte-identical across reruns")
