import json
import sys

import pytest

from wittkit.cli import main

from test_laws import strip_timing


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out.strip(), out.err.strip()


def test_witt_teich(capsys):
    code, out, _ = run(capsys, "witt", "teich", "2", "--set", "{1,2,3}", "--ring", "Z",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["coords"] == {"1": 2, "2": 0, "3": 0}


def test_basis_teich_text(capsys):
    code, out, _ = run(capsys, "basis", "teich", "2", "--set", "{1,2,3}")
    assert code == 0
    assert out == "2·V1 + 1·V2 + 2·V3"


def test_drwz_dlog(capsys):
    code, out, _ = run(capsys, "drwz", "dlog", "--set", "div8")
    assert code == 0
    assert out == "1·dV2η([1]) + 2·dV4η([1]) + 4·dV8η([1])"


def test_witt_add_round_trip(capsys):
    x = json.dumps({"set": [1, 2], "base": "Z", "coords": {"1": 1, "2": 0}})
    code, out, _ = run(capsys, "witt", "add", x, x, "--format", "json")
    assert code == 0
    assert json.loads(out)["coords"] == {"1": 2, "2": -1}
    # output parses back in as input
    # negation is not coordinatewise: second coordinate is -a2 - a1^2
    code, out2, _ = run(capsys, "witt", "neg", out, "--format", "json")
    assert code == 0
    assert json.loads(out2)["coords"] == {"1": -2, "2": -3}


def test_witt_ghost_and_back(capsys):
    x = json.dumps({"set": [1, 2], "base": "Z", "coords": {"1": 2, "2": -1}})
    code, out, _ = run(capsys, "witt", "ghost", x, "--format", "json")
    assert code == 0
    ghost = json.loads(out)
    assert ghost["values"] == {"1": 2, "2": 2}
    code, out2, _ = run(capsys, "witt", "from-ghost", out, "--format", "json")
    assert code == 0
    assert json.loads(out2)["coords"] == {"1": 2, "2": -1}


def test_frob_versch_restrict(capsys):
    x = json.dumps({"set": [1, 2, 4], "base": "Z", "coords": {"1": 1, "2": 2, "4": 3}})
    code, out, _ = run(capsys, "witt", "frob", "2", x, "--format", "json")
    assert code == 0
    assert json.loads(out)["set"] == [1, 2]
    y = json.dumps({"set": [1, 2], "base": "Z", "coords": {"1": 5, "2": 1}})
    code, out, _ = run(capsys, "witt", "versch", "2", y, "--set", "{1,2,4}", "--format", "json")
    assert code == 0
    assert json.loads(out)["coords"] == {"1": 0, "2": 5, "4": 1}
    code, out, _ = run(capsys, "witt", "restrict", "{1,2}", x, "--format", "json")
    assert code == 0
    assert json.loads(out)["coords"] == {"1": 1, "2": 2}


def test_basis_conversions(capsys):
    b = json.dumps({"set": [1, 2], "coeffs": {"2": 1}})
    code, out, _ = run(capsys, "basis", "to", b, "--format", "json")
    assert code == 0
    assert json.loads(out)["coords"] == {"1": 0, "2": 1}
    code, out2, _ = run(capsys, "basis", "from", out, "--format", "json")
    assert code == 0
    assert json.loads(out2)["coeffs"] == {"2": 1}


def test_delta_verb(capsys):
    x = json.dumps({"set": [1, 2, 4], "base": "Z", "coords": {"1": 2, "2": 1, "4": 0}})
    code, out, _ = run(capsys, "delta", x, "--target", "{1,2}", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["base"] == "W({1,2,4},Z)"


def test_gamma_verbs(capsys):
    x = json.dumps({"set": [1, 2], "base": "Z", "coords": {"1": 1, "2": -1}})
    code, out, _ = run(capsys, "gamma", x, "--precision", "2", "--format", "json")
    assert code == 0
    series = json.loads(out)
    assert series["value"] == [1, 1, 0]
    code, out2, _ = run(capsys, "gamma-inv", out, "--length", "2", "--format", "json")
    assert code == 0
    assert json.loads(out2)["coords"] == {"1": 1, "2": -1}


def test_gamma_inverse_reads_a_square_zero_element(capsys):
    # sz(Z) is series(Z,2): (1, 5) is 1 + 5t = gamma((5)) mod t^2
    code, out, _ = run(capsys, "gamma-inv", '{"spec":"sz(Z)","value":[1,5]}', "--length", "1")
    assert (code, out) == (0, "(5)")


def test_ptypical_verbs(capsys):
    x = json.dumps({"set": [1, 2, 3, 4, 6, 12], "base": "Q",
                    "coords": {"1": "1", "2": "0", "3": "2", "4": "0", "6": "0", "12": "1"}})
    code, out, _ = run(capsys, "ptypical", "decompose", x, "--prime", "2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert set(data) == {"1", "3"}
    code, out, _ = run(capsys, "ptypical", "tau", "--prime", "2", "--length", "2",
                       "--value", "3", "--format", "json")
    assert code == 0
    assert json.loads(out)["coords"] == {"1": 1, "2": 1}


def test_drwz_verbs(capsys):
    x = json.dumps({"set": [1, 2, 4], "deg0": {"2": 1}, "deg1": {}})
    code, out, _ = run(capsys, "drwz", "d", x, "--format", "json")
    assert code == 0
    assert json.loads(out)["deg1"] == {"2": 1}
    code, out2, _ = run(capsys, "drwz", "mul", x, out, "--format", "json")
    assert code == 0
    assert json.loads(out2)["deg1"] == {"4": 2}
    code, out, _ = run(capsys, "drwz", "frob", "2", out, "--format", "json")
    assert code == 0
    code, out, _ = run(capsys, "drwz", "table", "--set", "div4", "--format", "json")
    assert code == 0
    assert "mul" in json.loads(out)


def test_laws_verb(capsys):
    code, out, _ = run(capsys, "laws", "check", "--suite", "wittring", "--set", "div6",
                       "--trials", "10", "--seed", "3", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True and report["seed"] == 3


def test_laws_json_flag_is_format_json(capsys, monkeypatch):
    monkeypatch.setattr("wittkit.laws.time.monotonic", lambda: 0.0)  # elapsed_s reads 0
    args = ("laws", "check", "--suite", "wittring", "--set", "div4", "--trials", "5")
    printed = []
    for spelling in (("--json",), ("--format", "json")):
        assert main([*args, *spelling]) == 0
        printed.append(capsys.readouterr().out)
    assert printed[0] == printed[1] and json.loads(printed[0])["passed"] is True


def test_laws_seed_reproducible(capsys):
    args = ("laws", "check", "--suite", "wittcomplex", "--set", "div8",
            "--trials", "20", "--seed", "11", "--json")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert strip_timing(json.loads(out1)) == strip_timing(json.loads(out2))


def test_cache_warm(capsys, tmp_path):
    path = str(tmp_path / "cache.txt")
    code, out, _ = run(capsys, "cache", "warm", "--up-to", "4", "--cache", path,
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["entries"] == 12
    assert open(path).readline().startswith("# wittkit")


def test_domain_error_exit_code(capsys):
    x = json.dumps({"set": [1, 2], "base": "Z", "coords": {"1": 1, "2": 0}})
    y = json.dumps({"set": [1], "base": "Z", "coords": {"1": 1}})
    code, _, err = run(capsys, "witt", "add", x, y)
    assert code == 1
    assert err.startswith("SetMismatch")


def test_usage_error_exit_code(capsys):
    assert run(capsys, "witt")[0] == 2
    assert run(capsys, "nonsense")[0] == 2


def test_ceiling_env(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("WITTKIT_CEILING", "4")
    code, _, err = run(capsys, "cache", "warm", "--up-to", "6",
                       "--cache", str(tmp_path / "c.txt"))
    assert code == 1
    assert err.startswith("CeilingExceeded")


def test_wrong_shape_json_is_a_named_error(capsys):
    code, _, err = run(capsys, "witt", "add", "{}", "{}")
    assert code == 1
    assert err.startswith("SpecMismatch:")
    code, _, err = run(capsys, "witt", "ghost", "[1]")
    assert code == 1
    assert err.startswith("SpecMismatch:")
    partial = json.dumps({"set": [1, 2], "base": "Z", "values": {"1": 3}})
    code, _, err = run(capsys, "witt", "from-ghost", partial)
    assert code == 1
    assert err.startswith("SpecMismatch:")


@pytest.mark.parametrize("coord", [1.5, True, "x"])
def test_z_coordinates_must_be_json_integers(capsys, coord):
    x = json.dumps({"set": [1, 2], "base": "Z", "coords": {"1": coord, "2": 1}})
    code, out, err = run(capsys, "witt", "ghost", x)
    assert (code, out) == (1, "")
    assert err.startswith("SpecMismatch:")


def test_modular_coordinates_must_be_json_integers(capsys):
    x = json.dumps({"set": [1, 2], "base": "Z/9", "coords": {"1": 1.5, "2": 1}})
    code, _, err = run(capsys, "witt", "ghost", x)
    assert code == 1
    assert err.startswith("SpecMismatch:")


def test_q_coordinates_keep_their_string_form(capsys):
    x = json.dumps({"set": [1, 2], "base": "Q", "coords": {"1": "1/2", "2": 1}})
    code, out, _ = run(capsys, "witt", "ghost", x)
    assert (code, out) == (0, "<1/2, 9/4>")


@pytest.mark.parametrize("ring", ["Z/abc", "series(Z,abc)", "Z/1.5", "series(Z/2,)"])
def test_ring_spec_numbers_must_be_integers(capsys, ring):
    code, _, err = run(capsys, "witt", "teich", "2", "--set", "{1,2}", "--ring", ring)
    assert code == 1
    assert err.startswith("SpecMismatch:")


@pytest.mark.parametrize("coeff", [1.5, False, "2"])
def test_basis_coefficients_must_be_json_integers(capsys, coeff):
    x = json.dumps({"set": [1, 2], "coeffs": {"1": coeff}})
    code, _, err = run(capsys, "basis", "to", x)
    assert code == 1
    assert err.startswith("SpecMismatch:")


@pytest.mark.parametrize("degree", ["deg0", "deg1"])
@pytest.mark.parametrize("coeff", [1.5, True, "1"])
def test_drwz_coefficients_must_be_json_integers(capsys, degree, coeff):
    data = {"set": [1, 2], "deg0": {}, "deg1": {}}
    data[degree]["2"] = coeff
    code, _, err = run(capsys, "drwz", "d", json.dumps(data))
    assert code == 1
    assert err.startswith("SpecMismatch:")


@pytest.mark.parametrize("ring", ["series(Z,3)", "sz(Z)", "Z[x]", "W({1,2},Z)"])
def test_composite_ring_values_must_have_their_json_shape(capsys, ring):
    code, out, err = run(capsys, "witt", "teich", "2", "--set", "{1,2}", "--ring", ring)
    assert (code, out) == (1, "")
    assert err.startswith("SpecMismatch:")


@pytest.mark.parametrize("argv", [
    ("basis", "to", "{}"),
    ("basis", "to", '{"set": [1, 2], "coeffs": [1]}'),
    ("drwz", "d", "{}"),
])
def test_basis_and_graded_json_must_have_their_shape(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("SpecMismatch:")


def test_results_past_the_digit_limit_print_in_full(capsys):
    # coordinate 1 of the product is a*b, past the 4300-digit int->str limit
    a, b = 10**2999 + 7, 3 * 10**2999 + 1
    x = json.dumps({"set": [1, 2], "base": "Z", "coords": {"1": a, "2": 2}})
    y = json.dumps({"set": [1, 2], "base": "Z", "coords": {"1": b, "2": 5}})
    limit = sys.get_int_max_str_digits()
    results = [run(capsys, "witt", "mul", x, y, "--format", fmt) for fmt in ("json", "text")]
    assert sys.get_int_max_str_digits() == limit
    assert [(code, err) for code, _, err in results] == [(0, ""), (0, "")]
    product = (a * b, a * a * 5 + 2 * b * b + 2 * 2 * 5)
    sys.set_int_max_str_digits(0)
    try:
        assert json.loads(results[0][1])["coords"] == {"1": product[0], "2": product[1]}
        assert results[1][1] == f"({product[0]}, {product[1]})"
    finally:
        sys.set_int_max_str_digits(limit)
