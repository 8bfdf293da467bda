"""`verify --suite all --degree-max 2` certificates, compared byte for byte
with the files under tests/golden/.  A change that renames, adds, drops or
reorders a certificate row, or alters a status, domain or counterexample,
shows up as a diff to these files."""

from pathlib import Path

import pytest

from quasicyc import cli

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("preset, extra, name", [
    ("octonion", (), "octonion"),
    ("z2_trivial", (), "z2_trivial"),
    ("torus", ("--window", "1"), "torus_window1"),
])
def test_certificate_matches_golden(capsys, monkeypatch, preset, extra, name):
    monkeypatch.delenv("SOURCE_DATE_EPOCH", raising=False)
    argv = ["verify", "--preset", preset, "--suite", "all", "--degree-max", "2", *extra]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{name}.json").read_text()
