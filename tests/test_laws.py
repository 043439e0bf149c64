import hashlib
import json

import pytest

from wittkit.drwz import DrwComplex
from wittkit.errors import BudgetExceeded
from wittkit.laws import (
    SUITE_BUDGET,
    check_comonad,
    check_witt_complex,
    check_witt_ring,
    comonad_work,
    wittring_work,
)
from wittkit.rings import ModularRing, SeriesRing, Z
from wittkit.truncation import divisors_of, parse_truncation_set, truncation_set
from wittkit.universal import PolySource, UnivPolyKey
from wittkit.witt import WittOps


def strip_timing(data):
    """A report's JSON without its wall times, the report's own and each law's."""
    if isinstance(data, dict):
        return {k: strip_timing(v) for k, v in data.items() if k != "elapsed_s"}
    if isinstance(data, list):
        return [strip_timing(v) for v in data]
    return data


class CurlyKilled(DrwComplex):
    def _curly(self, m, n):
        return 0


class WrongCrt(DrwComplex):
    def _crt_value(self, m, n):
        return 0


class SumMutated(PolySource):
    """Drops the cross term of the second addition polynomial."""

    def universal_poly(self, key):
        poly = super().universal_poly(key)
        if key == UnivPolyKey("sum", 2):
            ring = poly.ring
            fixed = ring.add(poly.value, ring.mul(ring.var("a1"), ring.var("b1")))
            return type(poly)(ring, fixed)
        return poly


def test_complex_suite_passes():
    report = check_witt_complex(divisors_of(12), trials=80, seed=7)
    assert report.passed, report.summary()
    assert len(report.results) >= 15


def test_suite_is_deterministic():
    a = check_witt_complex(divisors_of(8), trials=40, seed=13)
    b = check_witt_complex(divisors_of(8), trials=40, seed=13)
    assert [
        (r.name, r.passed, r.checked, r.counterexample) for r in a.results
    ] == [(r.name, r.passed, r.checked, r.counterexample) for r in b.results]


def test_singleton_set_reduces_to_ring_laws():
    report = check_witt_complex(truncation_set([1]), trials=20, seed=7)
    assert report.passed, report.summary()


def test_curly_mutation_caught_by_axiom_iv():
    report = check_witt_complex(divisors_of(12), trials=40, seed=7, ops=CurlyKilled())
    assert not report.passed
    failed = {r.name for r in report.failures()}
    assert "axiom-iv" in failed
    axiom_iv = next(r for r in report.results if r.name == "axiom-iv")
    assert axiom_iv.counterexample and "| 2 |" in axiom_iv.counterexample


def test_crt_mutation_caught():
    report = check_witt_complex(divisors_of(12), trials=40, seed=7, ops=WrongCrt())
    assert not report.passed
    assert {r.name for r in report.failures()} & {"axiom-i-leibniz", "graded-associativity"}


def test_sum_mutation_caught():
    ops = WittOps(source=SumMutated(), strategy="universal")
    ring_report = check_witt_ring(divisors_of(8), Z, trials=20, seed=7, ops=ops)
    assert not ring_report.passed
    comonad_report = check_comonad(divisors_of(8), divisors_of(4), Z, trials=15, seed=7, ops=ops)
    assert not comonad_report.passed


def test_delta_mutation_breaks_coassociativity():
    class DeltaMutated(PolySource):
        def universal_poly(self, key):
            poly = super().universal_poly(key)
            if key.op == "delta" and key.param == 2 and key.index == 2:
                ring = poly.ring
                return type(poly)(ring, ring.add(poly.value, ring.one))
            return poly

    ops = WittOps(source=DeltaMutated(), strategy="universal")
    report = check_comonad(divisors_of(8), divisors_of(4), Z, trials=15, seed=7, ops=ops)
    assert not report.passed
    assert {r.name for r in report.failures()} & {
        "coassociativity",
        "ghost-components-are-frobenius",
    }


def test_comonad_suite_passes_small():
    report = check_comonad(divisors_of(4), divisors_of(2), Z, trials=25, seed=7)
    assert report.passed, report.summary()


def test_comonad_trivial_target():
    report = check_comonad(divisors_of(8), truncation_set([1]), Z, trials=10, seed=7)
    assert report.passed, report.summary()


@pytest.mark.parametrize("S", ["{}", "div4"])
def test_comonad_empty_target_has_no_counit_to_check(S):
    S = parse_truncation_set(S)
    report = check_comonad(S, truncation_set([]), Z, trials=3, seed=7)
    assert report.passed, report.summary()
    assert {r.name: r.checked for r in report.results}["counit"] == 0


def test_the_suite_budget_counts_the_trials():
    # criterion 02 and 08, and the ring and comonad runs of the cli_mix benchmark
    for ring in (Z, ModularRing(8), ModularRing(9), SeriesRing(ModularRing(2), 3)):
        assert wittring_work(divisors_of(12), ring, 200) <= SUITE_BUDGET
    assert wittring_work(divisors_of(24), ModularRing(8), 16) <= SUITE_BUDGET
    assert comonad_work(divisors_of(8), divisors_of(4), Z, 100) <= SUITE_BUDGET
    # seg16 with target seg8 takes about 0.13 s per trial over Z, and the ring
    # suite on seg64 about 3.5 s at 50 trials and 10 s at 200
    seg8, seg16, seg64 = map(parse_truncation_set, ("seg8", "seg16", "seg64"))
    assert comonad_work(seg16, seg8, Z, 10) <= SUITE_BUDGET < comonad_work(seg16, seg8, Z, 100)
    with pytest.raises(BudgetExceeded):
        check_comonad(seg16, seg8, Z, trials=100)
    with pytest.raises(BudgetExceeded):
        check_witt_ring(seg64, Z, trials=200)


def test_witt_ring_suite_on_modular_base():
    report = check_witt_ring(divisors_of(6), ModularRing(9), trials=40, seed=7)
    assert report.passed, report.summary()


def test_witt_ring_suite_universal_strategy():
    report = check_witt_ring(
        divisors_of(6),
        ModularRing(8),
        trials=25,
        seed=7,
        ops=WittOps(strategy="universal"),
    )
    assert report.passed, report.summary()


def test_report_json_shape():
    report = check_witt_ring(divisors_of(4), Z, trials=10, seed=3)
    data = report.to_json()
    assert data["suite"] == "wittring"
    assert data["passed"] is True
    keys = {"name", "passed", "checked", "counterexample", "elapsed_s"}
    assert all(keys <= set(law) for law in data["laws"])
    assert all(r.elapsed_s >= 0 for r in report.results)
    assert sum(r.elapsed_s for r in report.results) <= report.elapsed_s


def test_failure_carries_counterexample():
    report = check_witt_complex(divisors_of(12), trials=40, seed=7, ops=CurlyKilled())
    for r in report.failures():
        assert r.counterexample


def test_reports_are_pinned():
    # pins every checked count and counterexample text, passing and failing
    S12, S8, S4 = divisors_of(12), divisors_of(8), divisors_of(4)
    mutated = WittOps(source=SumMutated(), strategy="universal")
    reports = [
        check_witt_complex(S12, trials=40, seed=7),
        check_witt_complex(S12, trials=40, seed=7, ops=CurlyKilled()),
        check_witt_complex(S12, trials=40, seed=7, ops=WrongCrt()),
        check_witt_ring(divisors_of(6), ModularRing(9), trials=40, seed=7),
        check_witt_ring(S8, Z, trials=20, seed=7, ops=mutated),
        check_comonad(S8, S4, Z, trials=15, seed=7),
        check_comonad(S8, S4, Z, trials=15, seed=7, ops=mutated),
    ]
    data = [strip_timing(r.to_json()) for r in reports]
    digest = hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()
    assert digest == "8b9cc0360a2f13b3634da32b98879e618490d8e576a3e749171e4ecce0769a2a"


def test_the_shared_default_complex_never_serves_a_mutant():
    # without ops the suite runs on the module's default complex, whose rows
    # outlive the run; mutants in between must neither read nor change them
    S12 = divisors_of(12)
    plain, wrong, killed, again = [
        check_witt_complex(S12, trials=40, seed=7, ops=ops)
        for ops in (None, WrongCrt(), CurlyKilled(), None)
    ]
    assert plain.passed and again.passed, again.summary()
    assert strip_timing(again.to_json()) == strip_timing(plain.to_json())
    assert not wrong.passed and not killed.passed
    assert "axiom-iv" in {r.name for r in killed.failures()}
    assert {r.name for r in wrong.failures()} & {"axiom-i-leibniz", "graded-associativity"}


def test_each_complex_reads_only_its_own_tables():
    # three instances in a row over one set: if the structure constants of
    # one served another, the passing and the failing verdicts would mix
    S = divisors_of(24)
    killed = check_witt_complex(S, trials=5, seed=7, ops=CurlyKilled())
    plain = check_witt_complex(S, trials=5, seed=7)
    wrong = check_witt_complex(S, trials=5, seed=7, ops=WrongCrt())
    assert plain.passed, plain.summary()
    assert "axiom-iv" in {r.name for r in killed.failures()}
    assert {r.name for r in wrong.failures()} & {"axiom-i-leibniz", "graded-associativity"}
    assert [r.counterexample for r in killed.results] != [r.counterexample for r in wrong.results]
