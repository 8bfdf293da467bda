"""`verify --suite all --degree-max 2` certificates, compared byte for byte
with the files under tests/golden/.  A change that renames, adds, drops or
reorders a certificate row, or alters a status, domain or counterexample,
shows up as a diff to these files.  z5_table_preset.json is the preset of
the fourth case."""

from pathlib import Path

import pytest

from quasicyc import cli

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("preset, extra, name", [
    ("octonion", (), "octonion"),
    ("z2_trivial", (), "z2_trivial"),
    ("torus", ("--window", "1"), "torus_window1"),
    # the table twist of test_units: 1 + zeta_5 and -zeta_5^2 are units
    # but no monomials, so R_F, phi_F and P^-1 invert cyclotomic Scalars
    pytest.param(str(GOLDEN / "z5_table_preset.json"), (), "z5_table", id="z5_table"),
])
def test_certificate_matches_golden(capsys, monkeypatch, preset, extra, name):
    monkeypatch.delenv("SOURCE_DATE_EPOCH", raising=False)
    argv = ["verify", "--preset", preset, "--suite", "all", "--degree-max", "2", *extra]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{name}.json").read_text()
