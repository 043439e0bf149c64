import json

from wittkit.cli import main


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


def test_laws_seed_reproducible(capsys):
    args = ("laws", "check", "--suite", "wittcomplex", "--set", "div8",
            "--trials", "20", "--seed", "11", "--json")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    r1, r2 = json.loads(out1), json.loads(out2)
    r1.pop("elapsed_s"), r2.pop("elapsed_s")
    assert r1 == r2


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
