"""`verify --suite all --degree-max 2` certificates and `cohomology
--degree-max 2` reports, compared byte for byte with the files under
tests/golden/.  A change that renames, adds, drops or reorders a certificate
row, or alters a status, domain, counterexample or cohomology dimension,
shows up as a diff to these files.  z5_table_preset.json is the preset of
the fourth certificate case."""

from pathlib import Path

import pytest

from quasicyc import cli

GOLDEN = Path(__file__).parent / "golden"
Z5_TABLE = str(GOLDEN / "z5_table_preset.json")


@pytest.mark.parametrize("preset, extra, name", [
    ("octonion", (), "octonion"),
    ("z2_trivial", (), "z2_trivial"),
    ("torus", ("--window", "1"), "torus_window1"),
    # the table twist of test_units: 1 + zeta_5 and -zeta_5^2 are units
    # but no monomials, so R_F, phi_F and P^-1 invert cyclotomic Scalars
    pytest.param(Z5_TABLE, (), "z5_table", id="z5_table"),
])
def test_certificate_matches_golden(capsys, monkeypatch, preset, extra, name):
    monkeypatch.delenv("SOURCE_DATE_EPOCH", raising=False)
    argv = ["verify", "--preset", preset, "--suite", "all", "--degree-max", "2", *extra]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{name}.json").read_text()


# the twisted z5_table rows hold Scalar entries P(t) c P^-1(t') that are no
# unit monomials, so elimination meets non-unit pivots
@pytest.mark.parametrize("twisted", [False, True], ids=["plain", "twisted"])
@pytest.mark.parametrize("which", ["hh", "hc"])
@pytest.mark.parametrize("preset, name", [("octonion", "octonion"), (Z5_TABLE, "z5_table")],
                         ids=["octonion", "z5_table"])
def test_cohomology_matches_golden(capsys, preset, name, which, twisted):
    argv = ["cohomology", "--preset", preset, "--which", which, "--degree-max", "2"]
    assert cli.main(argv + ["--twisted"] * twisted) == 0
    golden = GOLDEN / f"cohomology_{name}_{which}{'_twisted' * twisted}.json"
    assert capsys.readouterr().out == golden.read_text()
