"""Every malformed argument of every CLI verb ends as a named error.

The cases are generated from the verb table `cli.VERBS`: each JSON or
spec argument of each verb is replaced, one at a time, by a malformed
value.  `main` must return 1 or 2 with a line `<Name>: ...` on stderr,
where Name is a WittkitError subclass or BadJson, and nothing may
escape.  Set and ring sizes stay small (at most 64).
"""

import contextlib
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from wittkit import errors
from wittkit.cli import VERBS, main
from wittkit.rings import PRECISION_BUDGET

JSON_ARGS = {"x", "y", "value", "series"}
SET_ARGS = {"--set", "--target", "target"}
RING_ARGS = {"--ring", "--base"}
OTHER_ARGS = {"n", "m", "--precision", "--length", "--prime", "--value", "--suite", "--trials",
              "--seed", "--json", "--strategy", "--up-to", "--cache"}

V2 = json.dumps({"set": [1, 2], "base": "Z", "coords": {"1": 1, "2": 0}})
B2 = json.dumps({"set": [1, 2], "coeffs": {"2": 1}})
D2 = json.dumps({"set": [1, 2], "deg0": {"2": 1}, "deg1": {}})

# one valid invocation per verb, as values by argument
VALID = {
    "witt add": {"x": V2, "y": V2},
    "witt mul": {"x": V2, "y": V2},
    "witt neg": {"x": V2},
    "witt ghost": {"x": V2},
    "witt from-ghost": {"x": json.dumps({"set": [1, 2], "base": "Z", "values": {"1": 1, "2": 1}})},
    "witt teich": {"value": '"1/2"', "--set": "{1,2}", "--ring": "Q"},
    "witt frob": {"n": "2", "x": V2},
    "witt versch": {"n": "2", "x": V2, "--set": "div4"},
    "witt restrict": {"target": "{1}", "x": V2},
    "basis teich": {"m": "2", "--set": "{1,2}"},
    "basis to": {"x": B2},
    "basis from": {"x": V2},
    "delta": {"x": V2, "--target": "{1}"},
    "gamma": {"x": V2, "--precision": "2"},
    "gamma-inv": {"series": json.dumps({"spec": "series(Z,3)", "value": [1, 1, 0]}), "--length": "2"},
    "ptypical decompose": {"x": V2, "--prime": "2"},
    "ptypical tau": {"--prime": "2", "--length": "2"},
    "drwz mul": {"x": D2, "y": D2},
    "drwz d": {"x": D2},
    "drwz frob": {"n": "2", "x": D2},
    "drwz versch": {"n": "2", "x": D2, "--set": "div4"},
    "drwz dlog": {"--set": "div4"},
    "drwz eta": {"x": B2},
    "drwz restrict": {"target": "{1}", "x": D2},
    "drwz table": {"--set": "div2"},
    "laws check": {"--suite": "comonad", "--set": "div4", "--target": "div2", "--base": "Z",
                   "--trials": "2"},
    "cache warm": {"--up-to": "2"},
}

BIG = "1" * 4400  # past the default limit for integer string conversion
BAD_JSON = ["", "{", "[1,", "nan", "null", "[]", "{}", "[1]", '"x"', BIG,
            '{"set": 3}', '{"set": [2], "base": "Z", "coords": {}}',
            '{"set": [1, 2], "base": "Q", "coords": {"1": "x", "2": 1}}',
            '{"set": [1, 2], "base": "Q", "coords": {"1": "1/0", "2": 1}}',
            '{"set": [1, 2], "base": "Z", "coords": {"1": ' + BIG + ', "2": 1}}',
            '{"spec": 3, "value": [1]}', '{"spec": "Z]", "value": 1}',
            "[" * 100_000]
BAD_SETS = ["x", "div", "divabc", "div0", "div-4", "div" + BIG, "seg", "seg1.5", "seg-1",
            "{1,,2}", "{1,2", "{0}", "{2}", "{" + BIG + "}", "ptyp(4,2)", "ptyp(2,)"]
BAD_RINGS = ["", "R", "Z]", "[x]", "Z[x", "Z/", "Z/abc", "Z/0", "Z/-3", "Z/" + BIG, "sz(",
             "series(Z)", "series(Z,abc)", "series(Z," + BIG + ")", "W(div2)", "W(junk,Z)"]


def _name(verb) -> str:
    return " ".join(verb.path)


def _argv(verb, values) -> list[str]:
    """Options as --flag=value, then "--" and any positionals, so no value reads as a flag."""
    options, positionals = [], []
    for flags, _ in verb.args:
        flag = flags[0]
        if flag in values:
            if flag.startswith("--"):
                options.append(f"{flag}={values[flag]}")
            else:
                positionals.append(values[flag])
    return [*verb.path, *options, *(["--", *positionals] if positionals else [])]


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _named_error(code, out, err) -> bool:
    name = err.split(":", 1)[0]
    named = name == "BadJson" or (
        isinstance(getattr(errors, name, None), type)
        and issubclass(getattr(errors, name), errors.WittkitError)
    )
    return code in (1, 2) and named and out == ""


def test_every_verb_has_a_valid_case_and_known_arguments():
    assert {_name(v) for v in VERBS} == set(VALID)
    for verb in VERBS:
        for flags, _ in verb.args:
            assert flags[0] in JSON_ARGS | SET_ARGS | RING_ARGS | OTHER_ARGS, (_name(verb), flags)


@pytest.mark.parametrize("verb", VERBS, ids=_name)
def test_valid_case_runs(monkeypatch, tmp_path, verb):
    monkeypatch.setenv("WITTKIT_CACHE", str(tmp_path / "cache.txt"))
    code, out, err = _run(_argv(verb, VALID[_name(verb)]))
    assert (code, err) == (0, "")
    assert out


@pytest.mark.parametrize("verb", VERBS, ids=_name)
def test_malformed_arguments_are_named_errors(verb):
    valid = VALID[_name(verb)]
    failures = []
    for arg in valid:
        bad = BAD_JSON if arg in JSON_ARGS else BAD_SETS if arg in SET_ARGS else (
            BAD_RINGS if arg in RING_ARGS else [])
        for value in bad:
            result = _run(_argv(verb, {**valid, arg: value}))
            if not _named_error(*result):
                failures.append((arg, value[:40], result[0], result[2][:200]))
    assert failures == []


RING_SPECS = st.sampled_from(["Z", "Q", "Z/8", "Z/1", "series(Z,3)", "sz(Z)", "Z[x]", "W({1,2},Z)"])
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-64, 64), st.floats(-1e6, 1e6),
    st.sampled_from(["", "x", "1/2", "1/0"]), RING_SPECS,
)
KEYS = st.sampled_from(["set", "base", "coords", "values", "coeffs", "deg0", "deg1", "spec",
                        "value", "1", "2", "3", "4"])
JUNK = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(KEYS, inner, max_size=6),
    max_leaves=16,
)
# objects of the serialized shapes, with junk where the values go
FIELDS = st.dictionaries(st.sampled_from(["1", "2", "3", "4", "x"]), SCALARS, max_size=4)
SHAPED = st.fixed_dictionaries(
    {"set": st.sampled_from([[], [1], [1, 2], [1, 3], [1, 2, 4], [2], [1, 1]])},
    optional={"base": RING_SPECS | SCALARS, "coords": FIELDS, "values": FIELDS, "coeffs": FIELDS,
              "deg0": FIELDS, "deg1": FIELDS, "spec": RING_SPECS | SCALARS, "value": JUNK},
)
JSON_CASES = [(v, arg) for v in VERBS for arg in VALID[_name(v)] if arg in JSON_ARGS]


@settings(max_examples=300, deadline=None)
@given(case=st.sampled_from(JSON_CASES),
       junk=st.one_of(JUNK.map(json.dumps), SHAPED.map(json.dumps), st.text(max_size=12)))
def test_junk_json_never_escapes(case, junk):
    verb, arg = case
    code, out, err = _run(_argv(verb, {**VALID[_name(verb)], arg: junk}))
    assert code == 0 or _named_error(code, out, err), (code, err[:200])


ONE_PLUS_T = json.dumps({"spec": "series(Z,3)", "value": [1, 1, 0]})
# gamma and gamma-inv work mod t^(n+1); their errors name the n given
GAMMA_BOUNDS = {
    "gamma-precision-negative": (("gamma", V2, "--precision", "-1"),
                                 "WittkitError: precision must be >= 0: -1"),
    "gamma-precision-at-budget": (("gamma", V2, "--precision", str(PRECISION_BUDGET)),
                                  f"BudgetExceeded: precision {PRECISION_BUDGET} exceeds the budget "
                                  f"{PRECISION_BUDGET - 1}"),
    "gamma-inv-length-at-budget": (("gamma-inv", ONE_PLUS_T, "--length", str(PRECISION_BUDGET)),
                                   f"BudgetExceeded: length {PRECISION_BUDGET} exceeds the budget "
                                   f"{PRECISION_BUDGET - 1}"),
}


@pytest.mark.parametrize("env, argv, name, code", [
    ({}, ("witt", "teich", "1" * 4301, "--set", "{1}"), "BadJson", 2),
    ({}, ("witt", "ghost", '{"set":[1,2],"base":"Q","coords":{"1":"x","2":1}}'), "SpecMismatch", 1),
    ({}, ("witt", "ghost", '{"set":[1,2],"base":"Q","coords":{"1":[1],"2":1}}'), "SpecMismatch", 1),
    ({}, ("witt", "ghost", '{"set":[1,2],"base":"Q","coords":{"1":"1/0","2":1}}'), "SpecMismatch", 1),
    ({}, ("gamma-inv", "{}", "--length", "2"), "SpecMismatch", 1),
    ({}, ("gamma-inv", "[]", "--length", "2"), "SpecMismatch", 1),
    ({}, ("gamma-inv", '{"spec":3,"value":[1]}', "--length", "2"), "SpecMismatch", 1),
    ({}, ("basis", "teich", "2", "--set", "divabc"), "InvalidTruncationSet", 1),
    ({}, ("basis", "teich", "2", "--set", "div"), "InvalidTruncationSet", 1),
    ({}, ("basis", "teich", "2", "--set", "seg1.5"), "InvalidTruncationSet", 1),
    ({}, ("witt", "teich", "2", "--set", "{1}", "--ring", "Z]"), "SpecMismatch", 1),
    ({"WITTKIT_CEILING": "abc"}, ("cache", "warm", "--up-to", "2"), "CeilingExceeded", 1),
    ({}, ("laws", "check", "--suite", "comonad", "--set", "div4", "--target", "div8"),
     "NotSubset", 1),
    ({}, ("witt", "from-ghost", '{"set":[1,2],"base":"Z","values":{"1":' + "3" * 3000 + ',"2":2}}'),
     "NotInGhostImage", 1),
    ({}, ("laws", "check", "--suite", "wittring", "--set", "div4", "--trials", "0"),
     "WittkitError", 1),
    ({}, ("witt", "teich", '[[[["x",1]],2],[[["x",1]],3]]', "--set", "{1}", "--ring", "Z[x]"),
     "SpecMismatch", 1),
    ({}, ("witt", "ghost", '{"set":[1,2],"base":"Z","coords":{"1":1,"2":0,"3":9,"zz":1}}'), "SpecMismatch", 1),
    ({}, ("witt", "from-ghost", '{"set":[1,2],"base":"Z","values":{"1":1,"2":1,"02":1}}'), "SpecMismatch", 1),
    ({}, ("basis", "to", '{"set":[1,2],"coeffs":{"3":5,"1":1}}'), "SpecMismatch", 1),
    ({}, ("drwz", "d", '{"set":[1,2],"deg0":{},"deg1":{"7":1}}'), "SpecMismatch", 1),
    ({}, ("drwz", "d", '{"set":[1,2],"deg0":{"1":1},"deg1":{"x":1}}'), "SpecMismatch", 1),
    ({}, ("laws", "check", "--suite", "wittcomplex", "--set", "div6", "--base", "Z/8"),
     "SpecMismatch", 1),
    ({}, ("laws", "check", "--suite", "wittcomplex", "--set", "div6", "--base", "Q"),
     "SpecMismatch", 1),
    ({}, ("laws", "check", "--suite", "wittcomplex", "--set", "div6", "--target", "div2"),
     "SpecMismatch", 1),
    ({}, ("laws", "check", "--suite", "wittring", "--set", "div4", "--target", "div2"),
     "SpecMismatch", 1),
    *(({}, argv, line.split(":")[0], 1) for argv, line in GAMMA_BOUNDS.values()),
], ids=["json-integer-digits", "q-text", "q-list", "q-zero-denominator", "series-empty-object",
        "series-list", "series-spec-number", "set-divabc", "set-div", "set-seg1.5",
        "ring-bracket", "ceiling-env", "comonad-target-above-set", "from-ghost-huge-remainder",
        "trials-zero", "poly-repeated-monomial", "coords-outside-set", "ghost-values-not-decimal",
        "coeffs-outside-set", "deg1-outside-set", "deg1-not-a-number", "wittcomplex-base-z8",
        "wittcomplex-base-q", "wittcomplex-target", "wittring-target", *GAMMA_BOUNDS])
def test_boundary_regressions(monkeypatch, tmp_path, env, argv, name, code):
    monkeypatch.setenv("WITTKIT_CACHE", str(tmp_path / "cache.txt"))
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    result = _run(list(argv))
    assert result[0] == code and result[1] == ""
    assert result[2].startswith(f"{name}:")


@pytest.mark.parametrize("argv, line", GAMMA_BOUNDS.values(), ids=GAMMA_BOUNDS)
def test_gamma_errors_name_the_value_given(argv, line):
    assert _run(list(argv)) == (1, "", line + "\n")


PRIME = str(2**61 - 1)  # its primality test by trial division takes minutes


def z8_vector(n):
    """A vector over Z/8 on the divisors of n, as JSON."""
    members = [d for d in range(1, n + 1) if n % d == 0]
    return json.dumps({"set": members, "base": "Z/8", "coords": {str(d): d % 8 for d in members}})


# prod:60 may have 73155^2 terms; prod:96 is above the default weight ceiling 64,
# and its family also holds prod:48, past the term budget
UNIVERSAL_DIV60 = ("witt", "mul", z8_vector(60), z8_vector(60), "--strategy", "universal")
# prod:64 passes the term budget but not the work budget
UNIVERSAL_DIV64 = ("witt", "mul", z8_vector(64), z8_vector(64), "--strategy", "universal")
UNIVERSAL_DIV96 = ("witt", "mul", z8_vector(96), z8_vector(96), "--strategy", "universal")


@pytest.mark.parametrize("argv", [
    ("basis", "teich", "2", "--set", "div" + "1" * 20),
    ("basis", "teich", "2", "--set", "seg" + "1" * 20),
    ("basis", "teich", "2", "--set", "{1,2," + "1" * 20 + "}"),
    ("basis", "teich", "2", "--set", f"ptyp({PRIME},2)"),
    ("basis", "teich", "2", "--set", "ptyp(2,1000000000000)"),
    ("witt", "ghost", '{"set":[1],"base":"Q","coords":{"1":"1e999999999"}}'),
    ("ptypical", "tau", "--prime", PRIME, "--length", "1"),
    ("ptypical", "decompose", V2, "--prime", PRIME),
    ("laws", "check", "--suite", "wittring", "--set", "div4", "--trials", "1" * 20),
    UNIVERSAL_DIV60,
    UNIVERSAL_DIV64,
    UNIVERSAL_DIV96,
    ("witt", "teich", "[1,2]", "--set", "{1,2}", "--ring", f"series(Z,{PRECISION_BUDGET + 1})"),
    ("gamma", V2, "--precision", str(PRECISION_BUDGET + 1)),
    ("gamma-inv", json.dumps({"spec": "series(Z,3)", "value": [1, 1, 0]}),
     "--length", str(PRECISION_BUDGET + 1)),
    ("drwz", "table", "--set", "seg2000"),
    ("laws", "check", "--suite", "wittcomplex", "--set", "seg1000"),
    ("laws", "check", "--suite", "comonad", "--set", "seg32"),
    ("laws", "check", "--suite", "comonad", "--set", "div720", "--target", "div24"),
    ("laws", "check", "--suite", "comonad", "--set", "seg32", "--target", "seg16", "--base", "Q"),
    ("laws", "check", "--suite", "comonad", "--set", "seg16", "--target", "seg8", "--base", "series(Z,3)"),
    ("laws", "check", "--suite", "comonad", "--set", "div24", "--target", "div12", "--base", "Z[x]"),
    ("laws", "check", "--suite", "comonad", "--set", "seg32", "--target", "seg16"),
    ("laws", "check", "--suite", "wittring", "--set", "seg300", "--trials", "1"),
    ("laws", "check", "--suite", "wittring", "--set", "seg24", "--base", "Q"),
], ids=["div-large", "seg-large", "member-large", "ptyp-large-prime", "ptyp-long",
        "q-exponent", "tau-large-prime", "decompose-large-prime", "trials-large",
        "universal-div60", "universal-div64", "universal-div96",
        "series-precision", "gamma-precision", "gamma-inv-length",
        "drwz-table-large", "wittcomplex-large", "comonad-large", "comonad-deep",
        "comonad-q", "comonad-series", "comonad-poly", "comonad-trials", "wittring-large", "wittring-q"])
def test_budgets_fail_fast(argv, tmp_path):
    # in a subprocess, so that an input past its budget that hangs fails the
    # test by the timeout instead of hanging the suite
    cache = tmp_path / "cache.txt"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path), WITTKIT_CACHE=str(cache))
    done = subprocess.run([sys.executable, "-m", "wittkit.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout) == (1, "")
    name = "CeilingExceeded" if argv == UNIVERSAL_DIV96 else "BudgetExceeded"
    assert done.stderr.startswith(f"{name}:")
    assert not cache.exists()  # refused before any polynomial was computed


def test_a_closed_pipe_ends_quietly(tmp_path):
    # as `wittkit drwz table --set div24 | head -1` when head has exited: no reader is
    # left, so the first write fails; stdout's fd is pointed at devnull, so no
    # traceback is printed, at the write or at the flush on exit
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path), WITTKIT_CACHE=str(tmp_path / "cache.txt"))
    for argv in (["drwz", "table", "--set", "div24"], ["basis", "teich", "3", "--set", "div2"]):
        proc = subprocess.Popen([sys.executable, "-m", "wittkit.cli", *argv], env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        proc.stdout.close()
        stderr = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(timeout=60), stderr) == (1, b"")
