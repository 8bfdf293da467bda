import json
import tracemalloc

import pytest

from quasicyc import cli
from quasicyc.calculus import character_closed
from quasicyc.cyclic import MAX_FILE_DIM, CyclicCochain, full_tuples
from quasicyc.presets import FieldError, builtin, from_dict
from quasicyc.scalars import Scalar, Unit
from quasicyc.twist import transport


def run(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_character_octonion(capsys):
    rc, out, _ = run(capsys, "character", "--preset", "octonion", "--args", "uvw,u,v,w")
    assert rc == 0
    assert out == "-8\n"


def test_character_octonion_closed_and_twisted_routes(capsys):
    for extra in ([], ["--closed-form"], ["--twisted"], ["--closed-form", "--twisted"]):
        rc, out, _ = run(
            capsys, "character", "--preset", "octonion", "--args", "uvw,u,v,w", *extra
        )
        assert rc == 0
        # transport prefactor is +1 at this tuple, all four routes agree
        assert out == "-8\n"


def test_character_torus_twisted(capsys):
    rc, out, _ = run(
        capsys, "character", "--preset", "torus", "--args", "u^-1*v^-1,u,v", "--twisted"
    )
    assert rc == 0
    assert out == "q^-1\n"
    rc, out, _ = run(
        capsys, "character", "--preset", "torus",
        "--args", "u^-1*v^-1,u,v", "--twisted", "--closed-form",
    )
    assert rc == 0
    assert out == "q^-1\n"


@pytest.mark.parametrize("coords, names", [
    ("(1,1,0),(1,0,0),(0,1,0),(0,0,1)", "uv,u,v,w"),
    ("(1,1,1),(1,0,0),(0,1,0),(0,0,1)", "uvw,u,v,w"),
    ("uvw, (1,0,0) ,v,(0,0,1)", "uvw,u,v,w"),
])
def test_character_args_in_coordinate_form(capsys, coords, names):
    for extra in ([], ["--twisted"], ["--closed-form"]):
        by_coords = run(capsys, "character", "--preset", "octonion", "--args", coords, *extra)
        by_names = run(capsys, "character", "--preset", "octonion", "--args", names, *extra)
        assert by_coords == by_names and by_coords[0] == 0


def test_character_args_on_a_rank_4_group(tmp_path, capsys):
    # past rank 3 the generators have no names: the coordinate form is the only one
    path = write_preset(tmp_path, {
        "name": "z2_4", "group": {"cyclic_orders": [2, 2, 2, 2]}, "scalars": "cyclotomic",
        "cochain_F": {"expr": "i1*j2 + i3*j4", "base": "root_of_unity", "order": 2},
        "calculus": {"kind": "characters",
                     "weights": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]},
    })
    args = "(1,1,1,1),(1,0,0,0),(0,1,0,0),(0,0,1,0),(0,0,0,1)"
    for extra in ([], ["--twisted"], ["--closed-form"]):
        assert run(capsys, "character", "--preset", path, "--args", args, *extra) == (0, "16\n", "")


def test_character_off_support_is_zero(capsys):
    rc, out, _ = run(capsys, "character", "--preset", "octonion", "--args", "u,u,v,w")
    assert rc == 0
    assert out == "0\n"


def test_table_untwisted_vs_twisted(capsys):
    rc, plain, _ = run(capsys, "table", "--preset", "octonion")
    assert rc == 0
    rows = [line.split("\t") for line in plain.strip().splitlines()]
    assert rows[0][0] == "."
    assert len(rows) == 9 and all(len(r) == 9 for r in rows)
    assert "-" not in plain

    rc, twisted, _ = run(capsys, "table", "--preset", "octonion", "--twisted")
    assert rc == 0
    trows = [line.split("\t") for line in twisted.strip().splitlines()]
    labels = trows[0][1:]
    u, v = labels.index("u"), labels.index("v")
    # u.u = -e, u.v = -u*v, v.u = u*v
    assert trows[u + 1][u + 1] == "-e"
    assert trows[u + 1][v + 1] == "-u*v"
    assert trows[v + 1][u + 1] == "u*v"


def test_table_torus_window(capsys):
    rc, out, _ = run(capsys, "table", "--preset", "torus", "--twisted")
    assert rc == 0
    rows = out.strip().splitlines()
    assert len(rows) == 10
    assert "(q)*" in out


def test_verify_certificate_shape_and_determinism(capsys):
    args = ("verify", "--preset", "z2_trivial", "--suite", "all", "--degree-max", "2")
    rc, out, err = run(capsys, *args)
    assert rc == 0
    assert err == ""
    cert = json.loads(out)
    assert cert["preset"] == "z2_trivial"
    assert cert["suite"] == "all"
    assert cert["seed"] == 0
    assert cert["timestamp"] == "1970-01-01T00:00:00Z"
    assert all(r["status"] != "fail" for r in cert["identities"])
    names = {r["name"] for r in cert["identities"]}
    for prefix in ("cochain.", "algebra.", "calculus.", "cyclic."):
        assert any(n.startswith(prefix) for n in names)
    assert "transport_intertwines_b" in names

    rc2, out2, _ = run(capsys, *args)
    assert rc2 == 0 and out2 == out


@pytest.mark.parametrize("preset, window, domain", [
    ("octonion", (), "exhaustive"),
    ("torus", ("--window", "2"), "window(2)"),
])
def test_law_rows_carry_their_domain(capsys, preset, window, domain):
    args = ("verify", "--preset", preset, "--suite", "algebra", *window)
    rc, out, _ = run(capsys, *args)
    assert rc == 0
    rows = json.loads(out)["identities"]
    assert len(rows) == 3 and all(r["domain"] == domain for r in rows)
    rc2, out2, _ = run(capsys, *args)
    assert rc2 == 0 and out2 == out


@pytest.mark.parametrize("preset", ["octonion", "torus", "z2_trivial"])
def test_verify_all_row_names_are_unique(capsys, preset):
    rc, out, _ = run(
        capsys, "verify", "--preset", preset, "--suite", "all", "--degree-max", "1",
        "--window", "1",
    )
    assert rc == 0
    rows = json.loads(out)["identities"]
    names = [r["name"] for r in rows]
    assert len(names) == len(set(names))
    suites = ("cochain.", "algebra.", "calculus.", "cyclic.")
    assert all("domain" in r for r in rows
               if r["name"].startswith(suites) and not r["status"].startswith("skipped"))
    assert "cochain.unital" in names and "cochain.phi_unital" in names
    if preset != "torus":
        # lambda^{k+1} = id is decided once, by the pointwise suite
        assert "cyclic.lambda_order" in names and "cyclic.mixed_lambda_order" not in names


def test_verify_single_suite_torus_skips_finite_only_checks(capsys):
    rc, out, _ = run(
        capsys, "verify", "--preset", "torus", "--suite", "cyclic",
        "--degree-max", "1", "--window", "2",
    )
    assert rc == 0
    cert = json.loads(out)
    by_name = {r["name"]: r["status"] for r in cert["identities"]}
    assert by_name["cyclic.mixed_complex"] == "skipped: needs a finite group"
    assert by_name["cyclic.periodicity"] == "skipped: needs a finite group"


def test_verify_failure_exits_1_with_counterexample(capsys, monkeypatch):
    def broken(pre, args):
        return [{
            "name": "cochain.unital",
            "status": "fail",
            "counterexample": "((0,), (1,))",
        }]

    monkeypatch.setitem(cli._SUITE_FNS, "cochain", broken)
    rc, out, err = run(
        capsys, "verify", "--preset", "z2_trivial", "--suite", "cochain",
    )
    assert rc == 1
    cert = json.loads(out)
    assert cert["identities"][0]["status"] == "fail"
    assert "FAILED cochain.unital at ((0,), (1,))" in err


def test_cohomology_report(capsys, tmp_path):
    rc, out, _ = run(
        capsys, "cohomology", "--preset", "z2_trivial", "--which", "hh",
        "--degree-max", "2", "--twisted",
    )
    assert rc == 0
    rep = json.loads(out)
    assert rep["which"] == "hh"
    assert rep["twisted"] is True
    assert rep["field"] == "Q"
    assert [r["degree"] for r in rep["rows"]] == [0, 1, 2]
    assert all("dim" in r for r in rep["rows"])
    # a character of order 4 puts the ranks over Q(zeta_4)
    rc, out, _ = run(capsys, "cohomology", "--preset", _z4_preset(tmp_path), "--which", "hc",
                     "--degree-max", "1")
    assert rc == 0
    assert json.loads(out)["field"] == "Q(zeta_4)"


def _z4_preset(tmp_path):
    path = tmp_path / "z4.json"
    path.write_text(json.dumps({
        "name": "z4", "group": {"cyclic_orders": [4]}, "scalars": "cyclotomic",
        "cochain_F": {"expr": "i1*j1", "base": "root_of_unity", "order": 4},
        "calculus": {"kind": "characters", "weights": [[1]]},
    }))
    return str(path)


@pytest.mark.parametrize("argv", [
    ("cohomology", "--preset", "octonion", "--which", "hh", "--degree-max", "7"),
    ("cohomology", "--preset", "z2_trivial", "--which", "hc", "--degree-max", str(10**9)),
    ("verify", "--preset", "octonion", "--suite", "cyclic", "--degree-max", "5"),
    ("verify", "--preset", "octonion", "--suite", "cochain", "--degree-max", str(10**9)),
], ids=["cohomology_octonion_7", "cohomology_huge", "verify_octonion_5", "verify_huge"])
def test_degree_max_beyond_the_file_bound_exits_2(capsys, monkeypatch, argv):
    # rejected before any row or table is built: the commands never start
    def never(*_, **__):
        raise AssertionError("built before the degree was checked")

    monkeypatch.setattr(cli, "cohomology_dims", never)
    for suite in cli._SUITE_FNS:
        monkeypatch.setitem(cli._SUITE_FNS, suite, never)
    rc, out, err = run(capsys, *argv)
    assert (rc, out) == (2, "")
    assert "--degree-max" in err and f"> {MAX_FILE_DIM}" in err


def test_degree_max_bound_keeps_the_documented_commands():
    octonion, z2 = builtin("octonion"), builtin("z2_trivial")
    cli._check_degree_max(octonion, 3, 2)  # README: verify --suite all --degree-max 3
    cli._check_degree_max(octonion, 5, 1)  # |G|^6 = MAX_FILE_DIM itself
    cli._check_degree_max(z2, 3, 2)  # the benchmark's largest CLI degree
    cli._check_degree_max(builtin("torus"), 10**9, 2)  # windows, not cochain spaces
    with pytest.raises(ValueError, match="--degree-max 6"):
        cli._check_degree_max(octonion, 6, 1)


def test_twist_subcommand_round_trip(tmp_path, capsys):
    pre = builtin("octonion")
    phi = CyclicCochain(pre.group, pre.ribbon_weight(), 3, [
        character_closed(pre.calculus(), "general", t) for t in full_tuples(pre.group, 3)
    ])
    src = tmp_path / "phi.json"
    dst = tmp_path / "phi_F.json"
    src.write_text(json.dumps(phi.to_json()))

    rc, out, _ = run(capsys, "twist", "--preset", "octonion",
                     "--in", str(src), "--out", str(dst))
    assert rc == 0
    moved = CyclicCochain.from_json(json.loads(dst.read_text()))
    assert moved == transport(phi, pre.cochain())


def test_usage_errors_exit_2(capsys):
    # --args splits only at commas outside parentheses, and an open one stays an error
    assert run(capsys, "character", "--preset", "octonion", "--args", "(1,0") == (
        2, "", "error: unbalanced coordinate form: '(1'\n"
    )
    assert cli.main(["character", "--preset", "no_such", "--args", "e"]) == 2
    assert cli.main(["character", "--preset", "octonion", "--args", "z9,u"]) == 2
    assert cli.main(["verify", "--preset", "octonion"]) == 2
    assert cli.main(["frobnicate"]) == 2
    assert cli.main([]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["verify", "--preset", "torus", "--suite", "cochain", "--window", "-1"],
    ["verify", "--preset", "octonion", "--suite", "cyclic", "--degree-max", "-1"],
])
def test_negative_bounds_exit_2(capsys, argv):
    rc, out, err = run(capsys, *argv)
    assert rc == 2
    assert out == ""
    assert "must be >= 0, got -1" in err


@pytest.mark.parametrize("suite", ["all", "cochain", "cyclic"])
def test_window_zero_on_a_free_group_exits_2(capsys, suite):
    # window(0) holds only the identity: every row would pass over it alone
    rc, out, err = run(
        capsys, "verify", "--preset", "torus", "--suite", suite,
        "--window", "0", "--degree-max", "1",
    )
    assert rc == 2
    assert out == ""
    assert "--window" in err


def test_window_zero_on_a_finite_group_is_ignored(capsys):
    args = ("verify", "--preset", "octonion", "--suite", "algebra")
    rc, out, _ = run(capsys, *args, "--window", "0")
    assert rc == 0
    rows = json.loads(out)["identities"]
    assert rows and all(r["status"] == "pass" and r["domain"] == "exhaustive" for r in rows)
    _, default, _ = run(capsys, *args)
    assert json.loads(default)["identities"] == rows


def test_root_of_unity_order_zero_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "name": "bad", "group": {"cyclic_orders": [2]}, "scalars": "cyclotomic",
        "cochain_F": {"expr": "i1*j1", "base": "root_of_unity", "order": 0},
        "calculus": {"kind": "characters", "weights": [[1]]},
    }))
    rc, _, err = run(capsys, "verify", "--preset", str(path), "--suite", "cochain")
    assert rc == 2
    assert "N must be >= 1" in err


def test_twist_group_mismatch_exits_2(tmp_path, capsys):
    z2 = builtin("z2_trivial")
    phi = CyclicCochain.basis(z2.group, z2.ribbon_weight(), 1, 0)
    src = tmp_path / "phi.json"
    src.write_text(json.dumps(phi.to_json()))
    rc = cli.main(["twist", "--preset", "octonion",
                   "--in", str(src), "--out", str(tmp_path / "out.json")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


Z2_PRESET = {
    "name": "z2_expr", "group": {"cyclic_orders": [2]}, "scalars": "cyclotomic",
    "cochain_F": {"expr": "i1*j1", "base": "root_of_unity", "order": 2},
    "calculus": {"kind": "characters", "weights": [[1]]},
}


def write_preset(tmp_path, data):
    path = tmp_path / "preset.json"
    path.write_text(json.dumps(data))
    return str(path)


@pytest.mark.parametrize("expr, rc", [
    ("+".join(["i1*j1"] * 2000), 0),
    ("(" * 1000 + "i1*j1" + ")" * 1000, 2),
], ids=["2000_summands", "1000_parentheses"])
def test_deep_expression_exits_2(tmp_path, capsys, expr, rc):
    # only parentheses nest: a long sum is read by a loop, and F = (-1)^(2000 i1 j1) = 1
    path = write_preset(tmp_path, {**Z2_PRESET, "cochain_F": {**Z2_PRESET["cochain_F"], "expr": expr}})
    got, out, err = run(capsys, "verify", "--preset", path, "--suite", "cochain")
    assert got == rc
    if rc:
        assert out == ""
        assert "nests too deeply" in err
    else:
        assert err == ""
        rows = json.loads(out)["identities"]
        assert rows and all(r["status"] in ("pass", "holds") for r in rows)


@pytest.mark.parametrize("expr", ["i1*j\u00b2", "i1*j\u0661"], ids=["superscript_two", "arabic_indic_one"])
def test_non_ascii_digit_in_expression_exits_2(tmp_path, capsys, expr):
    path = write_preset(tmp_path, {**Z2_PRESET, "cochain_F": {**Z2_PRESET["cochain_F"], "expr": expr}})
    rc, out, err = run(capsys, "verify", "--preset", path, "--suite", "cochain")
    assert (rc, out) == (2, "")
    assert err == f"error: at offset 4: expected digit, found {expr[4]!r}\n"


@pytest.mark.parametrize("text", ["(\u0661,0,0)", "u^\u0662", "(1_1,0,0)"],
                         ids=["arabic_indic_one", "arabic_indic_power", "underscore"])
def test_non_ascii_digit_in_character_args_exits_2(tmp_path, capsys, text):
    path = write_preset(tmp_path, {
        "name": "z4_3", "group": {"cyclic_orders": [4, 4, 4]}, "scalars": "cyclotomic",
        "cochain_F": {"expr": "i1*j2", "base": "root_of_unity", "order": 4},
        "calculus": {"kind": "characters", "weights": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]},
    })
    assert run(capsys, "character", "--preset", path, "--args", "(1,1,1),u,(0,1,0),w")[0] == 0
    rc, out, err = run(capsys, "character", "--preset", path, "--args", f"(1,1,1),{text},(0,1,0),w")
    assert (rc, out) == (2, "")
    assert err.startswith("error: bad ") and repr(text) in err


def _without(d, key):
    return {k: v for k, v in d.items() if k != key}


@pytest.mark.parametrize("data, message", [
    (_without(Z2_PRESET, "scalars"), "preset field 'scalars' is missing"),
    ({**Z2_PRESET, "group": [2]}, "preset field 'group' must be an object, got list"),
    (
        {**Z2_PRESET, "cochain_F": {**Z2_PRESET["cochain_F"], "order": "2"}},
        "preset field 'cochain_F.order' must be an integer, got str",
    ),
    ([Z2_PRESET], "a preset must be a JSON object, got list"),
    (
        {**Z2_PRESET, "cochain_F": _without(Z2_PRESET["cochain_F"], "order")},
        "preset field 'cochain_F.order' is missing",
    ),
    (
        {**Z2_PRESET, "group": {"cyclic_orders": ["2"]}},
        "preset field 'group.cyclic_orders[0]' must be an integer, got str",
    ),
    (
        {**Z2_PRESET, "calculus": {"kind": "characters", "weights": [1]}},
        "preset field 'calculus.weights[0]' must be a list, got int",
    ),
    (
        {**Z2_PRESET, "calculus": {"kind": "characters", "weights": [[True]]}},
        "preset field 'calculus.weights[0][0]' must be an integer, got bool",
    ),
    ({**Z2_PRESET, "ribbon": [1, "0"]}, "preset field 'ribbon[1]' must be an integer, got str"),
    (
        {**Z2_PRESET, "cochain_F": {"table": [[[0], [0]]]}},
        "preset field 'cochain_F.table[0]' must be a [g, h, scalar] triple",
    ),
    (
        {**Z2_PRESET, "cochain_F": {"table": [[[0], ["1"], "1"]]}},
        "preset field 'cochain_F.table[0][1][0]' must be an integer, got str",
    ),
    (
        {**Z2_PRESET, "cochain_F": {"table": [[[0], [1], 1]]}},
        "preset field 'cochain_F.table[0][2]' must be a string, got int",
    ),
    (
        {**Z2_PRESET, "cochain_F": {"table": [[[1], [1], "1/0"]]}},
        "preset field 'cochain_F.table[0][2]' divides by zero: '1/0'",
    ),
    (
        {**Z2_PRESET, "cochain_F": {"table": [[[1], [1], "abc"]]}},
        "preset field 'cochain_F.table[0][2]' is not a scalar: Invalid literal for Fraction: 'abc'",
    ),
    (
        {**Z2_PRESET, "cochain_F": {"table": [[[1], [1], "Q(zeta_9240): 1"]]}},
        "preset field 'cochain_F.table[0][2]' is not a scalar: "
        "Q(zeta_9240) is outside Q(zeta_1) .. Q(zeta_512)",
    ),
    (
        {**Z2_PRESET, "cochain_F": {"table": [[[1], [1], "Q(zeta_4): z"]]}},
        "preset field 'cochain_F.table[0][2]' is not a scalar: "
        "Q(zeta_4) where Q(zeta_2) is expected",
    ),
    (
        {**Z2_PRESET, "cochain_F": {**Z2_PRESET["cochain_F"], "order": 9240}},
        "preset field 'cochain_F.order' must be at most 512, got 9240",
    ),
    (
        {**Z2_PRESET, "cochain_order": 1000, "cochain_F": {"table": [[[1], [1], "1"]]}},
        "preset field 'cochain_order' must be at most 512, got 1000",
    ),
], ids=["no_scalars", "group_list", "order_string", "top_level_list", "no_order",
        "order_entry_string", "weight_not_list", "weight_entry_bool", "ribbon_entry_string",
        "table_row_pair", "table_coordinate_string", "table_scalar_int",
        "table_scalar_zero_division", "table_scalar_unparsed", "table_scalar_order_too_large",
        "table_scalar_other_field", "order_too_large", "table_order_too_large"])
def test_malformed_preset_json_exits_2(tmp_path, capsys, data, message):
    path = write_preset(tmp_path, data)
    rc, out, err = run(capsys, "verify", "--preset", path, "--suite", "cochain")
    assert rc == 2
    assert out == ""
    assert err == f"error: {message}\n"


OCT_COCHAIN = {
    "group": {"cyclic_orders": [2, 2, 2], "free_rank": 0}, "chi": [1, 1, 1], "degree": 2,
    "entries": [[[[1, 0, 0], [0, 1, 0]], "5"]],
}


@pytest.mark.parametrize("data, message", [
    (
        {**OCT_COCHAIN, "entries": [[[[1, 0, 0]], "5"]]},
        "cochain field 'entries[0][0]' must list 2 elements",
    ),
    (
        {**OCT_COCHAIN, "entries": [[[[1, 0, 0], [0, 1, 0], [0, 0, 1]], "5"]]},
        "cochain field 'entries[0][0]' must list 2 elements",
    ),
    (_without(OCT_COCHAIN, "degree"), "cochain field 'degree' is missing"),
    (
        {**OCT_COCHAIN, "entries": [[[[1, 0, 0], [0, 1, 0]], 5]]},
        "cochain field 'entries[0][1]' must be a string, got int",
    ),
    ([OCT_COCHAIN], "a cochain must be a JSON object, got list"),
    ({**OCT_COCHAIN, "degree": -1}, "cochain field 'degree' must be >= 0, got -1"),
    (
        {**OCT_COCHAIN, "entries": OCT_COCHAIN["entries"] + [[[[3, 0, 0], [0, 1, 2]], "1"]]},
        "cochain field 'entries[1]' repeats the tuple of entries[0]",
    ),
    (
        {**OCT_COCHAIN, "entries": [[[[1, 0], [0, 1, 0]], "5"]]},
        "cochain field 'entries[0][0][0]' must have 3 coordinates",
    ),
    (
        {**OCT_COCHAIN, "entries": [[[[1, 0, 0], [0, 1, 0]]]]},
        "cochain field 'entries[0]' must be a [tail, scalar] pair",
    ),
    ({**OCT_COCHAIN, "chi": ["1", 1, 1]}, "cochain field 'chi[0]' must be an integer, got str"),
    (
        {**OCT_COCHAIN, "entries": [[[[1, 0, 0], [0, 1, 0]], "1/0"]]},
        "cochain field 'entries[0][1]' divides by zero: '1/0'",
    ),
    (
        {**OCT_COCHAIN, "entries": [[[[1, 0, 0], [0, 1, 0]], "abc"]]},
        "cochain field 'entries[0][1]' is not a scalar: Invalid literal for Fraction: 'abc'",
    ),
    (
        {**OCT_COCHAIN, "degree": 12, "entries": []},
        "cochain field 'degree' 12 on a group of order 8 exceeds |G|^max(degree, 2) <= 262144",
    ),
    (
        {**OCT_COCHAIN, "entries": [[[[1, 0, 0], [0, 1, 0]], "Q(zeta_4620): 1"]]},
        "cochain field 'entries[0][1]' is not a scalar: "
        "Q(zeta_4620) is outside Q(zeta_1) .. Q(zeta_512)",
    ),
], ids=["short_tail", "long_tail", "no_degree", "scalar_int", "top_level_list",
        "negative_degree", "repeated_tuple", "coordinate_count", "entry_single",
        "chi_entry_string", "scalar_zero_division", "scalar_unparsed", "degree_too_large",
        "scalar_order_too_large"])
def test_malformed_cochain_json_exits_2(tmp_path, capsys, data, message):
    src, dst = tmp_path / "phi.json", tmp_path / "out.json"
    src.write_text(json.dumps(data))
    rc, out, err = run(capsys, "twist", "--preset", "octonion", "--in", str(src),
                       "--out", str(dst))
    assert rc == 2
    assert out == ""
    assert err == f"error: {message}\n"
    assert not dst.exists()


@pytest.mark.parametrize("orders, degree", [([2, 2, 2], 12), ([2, 2, 2], 10**9), ([600], 0)])
def test_oversized_cochain_file_is_rejected_before_allocating(orders, degree):
    data = {"group": {"cyclic_orders": orders}, "chi": [0] * len(orders),
            "degree": degree, "entries": []}
    tracemalloc.start()
    try:
        with pytest.raises(FieldError, match=f"<= {MAX_FILE_DIM}$"):
            CyclicCochain.from_json(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_closed_form_follows_the_calculus_not_the_name(tmp_path, capsys):
    # a preset named "octonion" on Z2^2 takes the general closed form
    path = write_preset(tmp_path, {
        "name": "octonion", "group": {"cyclic_orders": [2, 2]}, "scalars": "cyclotomic",
        "cochain_F": {"expr": "i1*j2", "base": "root_of_unity", "order": 2},
        "calculus": {"kind": "characters", "weights": [[1, 0], [0, 1]]},
    })
    for extra in ([], ["--closed-form"]):
        rc, out, err = run(capsys, "character", "--preset", path, "--args", "uv,u,v", *extra)
        assert (rc, out, err) == (0, "4\n", "")


def test_twisted_closed_form_is_the_prefactor_times_the_closed_form(tmp_path, capsys):
    # the derivations kind takes P(t) from the preset's twist, not the torus's
    path = write_preset(tmp_path, {
        "name": "torus_q2", "group": {"free_rank": 2}, "scalars": "laurent",
        "cochain_F": {"expr": "2*i1*j2", "base": "laurent"},
        "calculus": {"kind": "derivations"},
    })
    for args, value in (("u^-1*v^-1,u,v", "1"), ("u^-2*v^-1,u,u*v", "q^-2")):
        for extra in ([], ["--closed-form"]):
            rc, out, err = run(
                capsys, "character", "--preset", path, "--args", args, "--twisted", *extra
            )
            assert (rc, out, err) == (0, f"{value}\n", "")


@pytest.mark.parametrize("N, text, expect", [
    (3, "Q(zeta_3): z^-1", Unit.root_of_unity(3, 2)),
    (8, "Q(zeta_8): 2*z^-3 + z^11", Scalar.cyclotomic(8, [0, -2, 0, 1])),
    (3, "Q(zeta_3): z^3000000", Scalar.one()),
], ids=["negative", "negative_and_past_N", "huge"])
def test_file_scalars_read_exponents_mod_N(N, text, expect):
    table = [[[g], [h], text if g and h else "1"] for g in range(N) for h in range(N)]
    pre = from_dict({**Z2_PRESET, "group": {"cyclic_orders": [N]},
                     "cochain_F": {"table": table}})
    assert pre.cochain().value((1,), (1,)) == expect
    phi = CyclicCochain.from_json({"group": {"cyclic_orders": [N]}, "chi": [0], "degree": 1,
                                   "entries": [[[[1]], text]]})
    assert phi.value(((N - 1,), (1,))) == expect


@pytest.mark.parametrize("preset, window, pointwise", [
    ("octonion", (), "exhaustive"),
    ("torus", ("--window", "2"), "window(2) x60"),
])
def test_twist_rows_carry_their_domain(capsys, preset, window, pointwise):
    args = ("verify", "--preset", preset, "--suite", "twist", "--degree-max", "2", *window)
    rc, out, _ = run(capsys, *args)
    assert rc == 0
    rows = json.loads(out)["identities"]
    for r in rows:
        if r["name"] == "transport_intertwines_b":
            if preset == "torus":
                assert r["status"].startswith("skipped") and "domain" not in r
            else:
                assert r["domain"] == "exact: every cochain, degrees <= 2"
        else:
            assert r["domain"] == pointwise, r["name"]
    assert {r["name"] for r in rows if r.get("domain") == pointwise} >= {
        "conjugated_face_face", "character_transport", "direct_faces_degree_2",
        "direct_lambda_degree_2",
    }
    rc2, out2, _ = run(capsys, *args)
    assert rc2 == 0 and out2 == out


def test_parser_is_built_once_and_prints_as_a_fresh_one(capsys):
    calls = [
        ("verify", "--preset", "octonion", "--suite", "bogus"),
        *(("verify", "--preset", name, "--suite", "all", "--degree-max", "1", "--window", "1")
          for name in ("octonion", "torus", "z2_trivial")),
        ("cohomology", "--preset", "octonion", "--which", "hc"),
    ]
    cli._build_parser.cache_clear()
    shared = [run(capsys, *argv) for argv in calls]
    assert cli._build_parser.cache_info().misses == 1
    fresh = []
    for argv in calls:
        cli._build_parser.cache_clear()
        fresh.append(run(capsys, *argv))
    assert shared == fresh
    assert [rc for rc, _, _ in shared] == [2, 0, 0, 0, 0]
    assert "invalid choice" in shared[0][2]


# -- input that every command rejects ---------------------------------------------


def test_deeply_nested_json_exits_2(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    dst = tmp_path / "out.json"
    for argv, kind in (
        (("verify", "--preset", str(deep), "--suite", "cochain"), "preset"),
        (("twist", "--preset", "octonion", "--in", str(deep), "--out", str(dst)), "cochain"),
    ):
        rc, out, err = run(capsys, *argv)
        assert rc == 2
        assert out == ""
        assert err == f"error: {kind} file {str(deep)!r} nests too deeply to parse\n"
    assert not dst.exists()


Z2_TABLE = [[[g], [h], "1"] for g in (0, 1) for h in (0, 1)]


@pytest.mark.parametrize("repeat", [[[1], [1], "-1"], [[3], [1], "-1"]],
                         ids=["exact", "after_reduction"])
def test_repeated_table_pair_exits_2(tmp_path, capsys, repeat):
    path = write_preset(tmp_path, {**Z2_PRESET, "cochain_F": {"table": Z2_TABLE + [repeat]}})
    rc, out, err = run(capsys, "table", "--preset", path, "--twisted")
    assert (rc, out) == (2, "")
    assert err == "error: preset field 'cochain_F.table[4]' repeats 'cochain_F.table[3]'\n"


@pytest.mark.parametrize("calculus, message", [
    ({"kind": "banana"}, "unknown calculus kind 'banana'"),
    ({"kind": "characters", "weights": [[1, 0, 1]]},
     "preset field 'calculus.weights[0]' has 3 entries, torsion rank is 1"),
    ({"kind": "derivations"}, "derivations kind needs a torsion-free group"),
], ids=["unknown_kind", "weight_length", "derivations_on_finite"])
@pytest.mark.parametrize("argv", [("table",), ("verify", "--suite", "cochain")],
                         ids=["table", "verify_cochain"])
def test_malformed_calculus_exits_2_on_every_command(tmp_path, capsys, calculus, message, argv):
    path = write_preset(tmp_path, {**Z2_PRESET, "calculus": calculus})
    rc, out, err = run(capsys, argv[0], "--preset", path, *argv[1:])
    assert (rc, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("fields, path, entries", [
    ({"calculus": {"kind": "characters", "weights": [[1], [1, 1]]}}, "calculus.weights[1]", 2),
    ({"ribbon": [1, 0, 1]}, "ribbon", 3),
    ({"ribbon": []}, "ribbon", 0),
], ids=["second_weight", "ribbon", "empty_ribbon"])
def test_weight_of_the_wrong_length_names_its_field(tmp_path, capsys, fields, path, entries):
    preset = write_preset(tmp_path, {**Z2_PRESET, **fields})
    rc, out, err = run(capsys, "verify", "--preset", preset, "--suite", "algebra")
    assert (rc, out) == (2, "")
    assert err == f"error: preset field {path!r} has {entries} entries, torsion rank is 1\n"
