"""Executable law suites for the graded complex, the comonad, and ring laws.

Each suite runs a fixed list of named laws over all generators plus a
seeded pool of random elements and returns a LawReport.

A law only states identities: it is a generator that yields checks.  A
check is one comparison ``(lhs, rhs, label, *context)``, or a list of
them when one check states several identities.  The runner is the one
place that compares, and exact equality is its only oracle: it counts
one check per yield, stops at the first unequal pair and records
``label | context...`` as the law's counterexample, so a counterexample
names the identity and its inputs.  It also times each law: a law's
``elapsed_s`` appears in its JSON entry and in the summary line.
Failures never raise: an exception inside a law is itself recorded as a
counterexample, so deliberately broken implementations can be exercised.

The suites accept the implementation as a parameter (a DrwComplex for
the graded complex, a WittOps bundle for the comonad and ring suites),
which is how mutation tests plug in sabotaged variants.  Without one,
the complex suite runs on drwz.DEFAULT, the instance behind the module's
functions, so the rows it compiles serve every later run in the process.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field
from math import gcd, isqrt, lcm

from .drwz import (
    DEFAULT,
    DrwComplex,
    DrwElement,
    crt_bracket,
    curly,
    drw_add,
    drw_eta,
    drw_scalar_mul,
    drw_zero,
)
from .errors import BudgetExceeded, NotSubset, WittkitError
from .numtheory import bezout
from .rings import Q, Construction, PolynomialRing, Ring, SeriesRing, Z
from .truncation import TruncationSet
from .witt import (
    WittOps,
    WittRing,
    WittVector,
    ghost,
    restrict,
    teichmuller,
    verschiebung,
    witt_add,
    witt_mul,
    witt_one,
    witt_scalar_mul,
    witt_zero,
)
from .wittint import (
    BasisWittInt,
    basis_generator,
    basis_mul,
    basis_zero,
    frobenius_basis,
    teich_basis,
    verschiebung_basis,
)

# a suite builds a pool of this many random elements before any check runs
TRIALS_BUDGET = 10**4
# check_witt_complex refuses sets with more members: at one trial seg16
# takes about 0.25 s and seg32 about 1.1 s
COMPLEX_BUDGET = 32
# The comonad and ring suites refuse a call past this work bound, trials
# included (`comonad_work`, `wittring_work`): at one trial over Z the comonad
# suite on seg32 with target seg16 (40,960) takes about 0.8 s, every pair
# measured above 50,000 took 0.7-10 s, most over 1.1 s, and its time grows
# with the trials (71 s at 200).
SUITE_BUDGET = 50_000
# The ring suite checks |S|^2 F/V relations whatever the trials, and a few
# ring operations per trial, each about |S| * isqrt(max(S)): over Z, the calls
# past 0.25 s took 0.9-3.7 us per unit of |S|^2 * isqrt(max(S)) * (|S| +
# trials) (seg32 to seg100 at 1 and 50 trials), and the comonad suite 30-60 us
# per unit and trial, so the ring suite counts its units 1/16 times
WITTRING_SCALE = 16
# The factor of a ring (`ring_factor`).  Fractions grow faster than integers:
# at one trial 28 comonad pairs took 7-22x their time over Z when the ring
# computes in Q, and those of work bound 1,920 or less took at most 1.14 s
# there, those above 2,000 from 0.99 s (2,016) to 27 s (seg32 with target
# seg16), so such a ring counts 25 times (the ring suite took 8-32x)
Q_FACTOR = 25
# A series payload is k base elements, and its products cost about k^2/2 base
# products: at one trial over series(Z,k) for k = 2, 3, 6, 12, 24, 48 the
# comonad pairs under 50,000 / (k*(k + 40)/4) took at most 0.91 s and those
# above it from 0.72 s to 22 s (seg32 with target seg16 over sz(Z)), so
# series(R,k) counts k*(k + SERIES_WIDTH)/4 times R (the ring suite took
# 16-22x over series(Z/2,3), counted 32 times)
SERIES_WIDTH = 40
# A polynomial's degree grows with the index of its coordinate, so its cost grows
# with max(S) itself: at one trial over Z[x] (36 comonad pairs) those counted at
# most 50,000 with 20*isqrt(max(S)) took at most 1.05 s, those above from 0.2 s
# to 25 s and more (div720 with target {1}); over Z[x,y] (10 pairs) a second
# variable took about 5 times as long, so a polynomial ring in v variables
# counts POLY_FACTOR * 5^(v-1) * isqrt(max(S)) times its base
POLY_FACTOR = 20


@dataclass
class LawResult:
    name: str
    passed: bool
    checked: int
    counterexample: str | None = None
    elapsed_s: float = 0.0


@dataclass
class LawReport:
    suite: str
    set_members: tuple[int, ...]
    trials: int
    seed: int
    elapsed_s: float = 0.0
    results: list[LawResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def failures(self) -> list[LawResult]:
        return [r for r in self.results if not r.passed]

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "set": list(self.set_members),
            "trials": self.trials,
            "seed": self.seed,
            "elapsed_s": round(self.elapsed_s, 4),
            "passed": self.passed,
            "laws": [
                {
                    "name": r.name,
                    "passed": r.passed,
                    "checked": r.checked,
                    "counterexample": r.counterexample,
                    "elapsed_s": round(r.elapsed_s, 4),
                }
                for r in self.results
            ],
        }

    def summary(self) -> str:
        lines = [f"suite {self.suite} over {{{','.join(map(str, self.set_members))}}}"]
        for r in self.results:
            mark = "pass" if r.passed else "FAIL"
            lines.append(f"  [{mark}] {r.name} ({r.checked} checks, {r.elapsed_s:.3f}s)")
            if r.counterexample:
                lines.append(f"         {r.counterexample}")
        lines.append(f"  => {'all laws hold' if self.passed else 'LAWS VIOLATED'} "
                     f"({self.elapsed_s:.2f}s, seed {self.seed})")
        return "\n".join(lines)


class _Runner:
    def __init__(self, suite: str, S: TruncationSet, trials: int, seed: int):
        if trials < 1:
            raise WittkitError(f"trials must be at least 1, got {trials}")
        if trials > TRIALS_BUDGET:
            raise BudgetExceeded(f"trials exceed the budget {TRIALS_BUDGET}")
        self.report = LawReport(suite, S.members, trials, seed)
        self._t0 = time.monotonic()

    def run(self, name: str, law):
        t0 = time.monotonic()
        checked = 0
        counterexample = None
        try:
            for check in law():
                checked += 1
                comparisons = check if isinstance(check, list) else [check]
                failed = next((c for c in comparisons if c[0] != c[1]), None)
                if failed:
                    counterexample = " | ".join(map(str, failed[2:]))  # label | context
                    break
        except Exception as exc:  # a broken implementation may throw
            counterexample = f"exception: {type(exc).__name__}: {exc}"
        self.report.results.append(
            LawResult(name, counterexample is None, checked, counterexample, time.monotonic() - t0)
        )

    def done(self) -> LawReport:
        self.report.elapsed_s = time.monotonic() - self._t0
        return self.report


# --------------------------------------------------------------------------
# graded-complex suite
# --------------------------------------------------------------------------


def _random_basis(S: TruncationSet, rng: random.Random) -> BasisWittInt:
    return BasisWittInt(S, tuple(rng.randint(-9, 9) for _ in S))


def _random_drw(S: TruncationSet, rng: random.Random) -> DrwElement:
    deg0 = _random_basis(S, rng)
    deg1 = tuple(rng.randrange(n) for n in S.members)
    return DrwElement(S, deg0, deg1)


def _drw_generators(S: TruncationSet, ops: DrwComplex) -> list[DrwElement]:
    gens = [drw_eta(basis_generator(S, n)) for n in S.members]
    gens += [ops.d(drw_eta(basis_generator(S, n))) for n in S.members]
    return gens


def check_witt_complex(
    S: TruncationSet,
    trials: int = 200,
    seed: int = 7,
    ops: DrwComplex | None = None,
) -> LawReport:
    """Axioms of the graded complex plus its derived identities over S."""
    if len(S) > COMPLEX_BUDGET:
        raise BudgetExceeded(f"{len(S)} members exceed the wittcomplex budget {COMPLEX_BUDGET}")
    ops = ops or DEFAULT
    rng = random.Random(seed)
    runner = _Runner("wittcomplex", S, trials, seed)
    pool = [_random_drw(S, rng) for _ in range(trials)]
    gens = _drw_generators(S, ops)
    some = pool[: max(8, trials // 25)] + gens
    members = S.members

    def assoc(x, y, z):
        return ops.mul(ops.mul(x, y), z), ops.mul(x, ops.mul(y, z)), "assoc", x, y, z

    def law_assoc():
        for x, y in [(rng.choice(gens), rng.choice(gens)) for _ in range(len(gens) * 2)]:
            yield assoc(x, y, rng.choice(pool))
        for _ in range(trials):
            yield assoc(rng.choice(pool), rng.choice(pool), rng.choice(pool))

    def law_comm():
        for _ in range(trials):
            x, y = rng.choice(pool), rng.choice(pool)
            yield ops.mul(x, y), ops.mul(y, x), "comm", x, y

    def law_distr():
        for _ in range(trials):
            x, y, z = rng.choice(pool), rng.choice(pool), rng.choice(pool)
            lhs = ops.mul(x, drw_add(y, z))
            rhs = drw_add(ops.mul(x, y), ops.mul(x, z))
            yield lhs, rhs, "distr", x, y, z

    def law_unit():
        one = drw_eta(basis_generator(S, 1)) if members else drw_zero(S)
        for x in pool[:20] + gens:
            yield ops.mul(one, x), x, "unit", x

    def leibniz(x, y):
        return ops.d(ops.mul(x, y)), drw_add(ops.mul(ops.d(x), y), ops.mul(x, ops.d(y)))

    def law_leibniz():
        for _ in range(trials):
            x, y = rng.choice(pool), rng.choice(pool)
            x0, y0 = drw_eta(x.deg0), drw_eta(y.deg0)
            yield *leibniz(x0, y0), "leibniz", x0, y0
        for m in members:
            for n in members:
                lhs, rhs = leibniz(drw_eta(basis_generator(S, m)), drw_eta(basis_generator(S, n)))
                yield lhs, rhs, "leibniz-gen", f"V{m}", f"V{n}", lhs, rhs

    def law_dd():
        dlog = ops.dlog_minus_one(S)
        for x in some:
            yield ops.d(ops.d(x)), ops.mul(dlog, ops.d(x)), "dd=dlog*d", x

    def law_fv_group():
        for m in members:
            for n in members:
                for x in some[:6]:
                    lhs = ops.frobenius(m, ops.frobenius(n, x))
                    yield lhs, ops.frobenius(m * n, x), "FmFn=Fmn", m, n, x
                U = S.quotient(m * n)
                if U.members:
                    y = _random_drw(U, rng)
                    via = ops.verschiebung(n, ops.verschiebung(m, y, S.quotient(n)), S)
                    yield via, ops.verschiebung(m * n, y, S), "VnVm=Vnm", n, m, y
        for n in members:
            T = S.quotient(n)
            for _ in range(6):
                y = _random_drw(T, rng)
                lhs = ops.frobenius(n, ops.verschiebung(n, y, S))
                yield lhs, drw_scalar_mul(n, y), "FnVn=n", n, y
        for x in some[:6]:
            yield [
                (ops.frobenius(1, x), x, "F1=V1=id", x),
                (ops.verschiebung(1, x, S), x, "F1=V1=id", x),
            ]

    def law_fv_coprime():
        for m in members:
            for n in members:
                if gcd(m, n) != 1:
                    continue
                T = S.quotient(n)
                for _ in range(4):
                    y = _random_drw(T, rng)
                    lhs = ops.frobenius(m, ops.verschiebung(n, y, S))
                    rhs = ops.verschiebung(n, ops.frobenius(m, y), S.quotient(m))
                    yield lhs, rhs, "FmVn=VnFm", m, n, y

    def law_eta_fv():
        for n in members:
            for _ in range(4):
                b = _random_basis(S, rng)
                yield ops.frobenius(n, drw_eta(b)), drw_eta(frobenius_basis(n, b)), "F-eta", n, b
                bt = _random_basis(S.quotient(n), rng)
                lhs = ops.verschiebung(n, drw_eta(bt), S)
                yield lhs, drw_eta(verschiebung_basis(n, bt, S)), "V-eta", n, bt

    def law_frobenius_mult():
        for n in members:
            for _ in range(6):
                x, y = rng.choice(pool), rng.choice(pool)
                lhs = ops.frobenius(n, ops.mul(x, y))
                rhs = ops.mul(ops.frobenius(n, x), ops.frobenius(n, y))
                yield lhs, rhs, "Fn ring map", n, x, y

    def law_projection():
        for n in members:
            T = S.quotient(n)
            for _ in range(6):
                x = rng.choice(pool)
                y = _random_drw(T, rng)
                lhs = ops.mul(x, ops.verschiebung(n, y, S))
                rhs = ops.verschiebung(n, ops.mul(ops.frobenius(n, x), y), S)
                yield lhs, rhs, "projection", n, x, y

    def law_axiom_iv():
        for n in members:
            T = S.quotient(n)
            dlog_T = ops.dlog_minus_one(T)
            for _ in range(8):
                y = _random_drw(T, rng)
                lhs = ops.frobenius(n, ops.d(ops.verschiebung(n, y, S)))
                rhs = drw_add(ops.d(y), drw_scalar_mul(n - 1, ops.mul(dlog_T, y)))
                yield lhs, rhs, "FndVn", n, y, lhs, rhs

    def law_axiom_v():
        for n in [m for m in members if m <= 6]:
            T = S.quotient(n)
            for a in range(-3, 4):
                lhs = ops.frobenius(n, ops.d(drw_eta(teich_basis(a, S))))
                teich_T = teich_basis(a, T)
                rhs = ops.mul(drw_eta(teich_T ** (n - 1)), ops.d(drw_eta(teich_T)))
                yield lhs, rhs, "Fn d[a]", n, a, lhs, rhs

    def law_dF_nFd():
        for n in members:
            for _ in range(6):
                x = rng.choice(pool)
                lhs = ops.d(ops.frobenius(n, x))
                yield lhs, drw_scalar_mul(n, ops.frobenius(n, ops.d(x))), "dFn=nFnd", n, x

    def law_Vd_ndV():
        for n in members:
            T = S.quotient(n)
            for _ in range(6):
                y = _random_drw(T, rng)
                lhs = ops.verschiebung(n, ops.d(y), S)
                yield lhs, drw_scalar_mul(n, ops.d(ops.verschiebung(n, y, S))), "Vnd=ndVn", n, y

    def law_FdV_bezout():
        for m in members:
            for n in members:
                c = gcd(m, n)
                i, j = bezout(m, n, c)
                T = S.quotient(n)
                dlog_m = ops.dlog_minus_one(S.quotient(m))
                for i2, j2 in [(i, j), (i + n // c, j - m // c)]:
                    for _ in range(3):
                        y = _random_drw(T, rng)
                        lhs = ops.frobenius(m, ops.d(ops.verschiebung(n, y, S)))
                        mid = ops.verschiebung(n // c, y, S.quotient(c))
                        fv = ops.frobenius(m // c, mid)
                        fvd = ops.frobenius(
                            m // c, ops.verschiebung(n // c, ops.d(y), S.quotient(c))
                        )
                        rhs = drw_add(
                            drw_add(drw_scalar_mul(i2, ops.d(fv)), drw_scalar_mul(j2, fvd)),
                            drw_scalar_mul(c - 1, ops.mul(dlog_m, fv)),
                        )
                        yield lhs, rhs, "FmdVn three-term", m, n, i2, j2, y, lhs, rhs

    def law_dlog():
        dlog = ops.dlog_minus_one(S)
        zero = drw_zero(S)
        yield ops.mul(dlog, dlog), zero, "dlog^2", dlog
        yield ops.d(dlog), zero, "d dlog", dlog
        yield drw_scalar_mul(2, dlog), zero, "2 dlog", dlog
        for n in members:
            yield ops.frobenius(n, dlog), ops.dlog_minus_one(S.quotient(n)), "Fn dlog", n

    def law_dgideal():
        # products of generators must match the independent expansion
        memset = set(members)
        for m in members:
            for n in members:
                got = ops.mul(
                    drw_eta(basis_generator(S, m)),
                    ops.d(drw_eta(basis_generator(S, n))),
                )
                raw = {}
                l = lcm(m, n)
                if l in memset:
                    raw[l] = crt_bracket(m, n)
                if curly(m, n):
                    r = 1
                    while (2**r) * l in memset:
                        raw[(2**r) * l] = 2 ** (r - 1) * l
                        r += 1
                expansion = DrwElement(S, basis_zero(S), [raw.get(k, 0) for k in members])
                yield got, expansion, "VmdVn expansion", m, n, got, expansion
        for n in members:
            lhs = drw_scalar_mul(n, ops.d(drw_eta(basis_generator(S, n))))
            yield lhs, drw_zero(S), "n dVn = 0", n

    def law_eta_ring():
        for _ in range(trials // 2):
            a, b = _random_basis(S, rng), _random_basis(S, rng)
            lhs = ops.mul(drw_eta(a), drw_eta(b))
            yield lhs, drw_eta(basis_mul(a, b)), "eta multiplicative", a, b

    def law_restrict_d():
        subsets = [S.quotient(n) for n in members]
        for _ in range(trials // 2):
            x = rng.choice(pool)
            T = rng.choice(subsets)
            yield ops.restrict(T, ops.d(x)), ops.d(ops.restrict(T, x)), "R commutes with d", T, x

    runner.run("graded-associativity", law_assoc)
    runner.run("graded-commutativity", law_comm)
    runner.run("distributivity", law_distr)
    runner.run("unit", law_unit)
    runner.run("axiom-i-leibniz", law_leibniz)
    runner.run("axiom-i-dd", law_dd)
    runner.run("axiom-ii-group", law_fv_group)
    runner.run("axiom-ii-coprime-commute", law_fv_coprime)
    runner.run("axiom-ii-eta", law_eta_fv)
    runner.run("axiom-iii-frobenius-multiplicative", law_frobenius_mult)
    runner.run("axiom-iii-projection", law_projection)
    runner.run("axiom-iv", law_axiom_iv)
    runner.run("axiom-v", law_axiom_v)
    runner.run("relation-dF-nFd", law_dF_nFd)
    runner.run("relation-Vd-ndV", law_Vd_ndV)
    runner.run("relation-FdV-bezout", law_FdV_bezout)
    runner.run("relation-dlog", law_dlog)
    runner.run("ideal-generators-vanish", law_dgideal)
    runner.run("eta-ring-map", law_eta_ring)
    runner.run("restriction-commutes-with-d", law_restrict_d)
    return runner.done()


# --------------------------------------------------------------------------
# comonad suite
# --------------------------------------------------------------------------


def _random_witt(S: TruncationSet, ring: Ring, rng: random.Random) -> WittVector:
    return WittVector(S, ring, tuple(ring.sample(rng) for _ in S))


def ring_factor(ring: Ring, root: int) -> int:
    """How many times a suite's work counts over `ring` against Z, for sets with isqrt(max) = `root`.

    1 over Z and Z/m and Q_FACTOR over Q; a series or polynomial ring
    multiplies its base's factor by its own (see the constants).
    """
    factor = 1
    while isinstance(ring, Construction):
        if isinstance(ring, SeriesRing):
            factor *= ring.precision * (ring.precision + SERIES_WIDTH) // 4
        elif isinstance(ring, PolynomialRing):
            factor *= POLY_FACTOR * 5 ** (len(ring.variables) - 1) * root
        ring = ring.base
    if ring == Q:
        factor *= Q_FACTOR
    return factor


def comonad_work(S: TruncationSet, T: TruncationSet, ring: Ring = Z, trials: int = 1) -> int:
    """|T| * max(T) * |S| * isqrt(max(S)) per trial, times the factor of `ring`: the nested maps run over
    W_T(W_S(A)), and their integers grow with the members, so this orders the suite's measured
    times where |S| alone does not."""
    root = isqrt(max(S.members, default=0))
    return ring_factor(ring, root) * len(T) * max(T.members, default=0) * len(S) * root * trials


def wittring_work(S: TruncationSet, ring: Ring = Z, trials: int = 1) -> int:
    """|S|^2 * isqrt(max(S)) * (|S| + trials) / WITTRING_SCALE, times the factor of `ring`."""
    n, root = len(S), isqrt(max(S.members, default=0))
    return ring_factor(ring, root) * n * n * root * (n + trials) // WITTRING_SCALE


def _refuse_past_budget(suite: str, work: int, S: TruncationSet, ring: Ring):
    if work > SUITE_BUDGET:
        raise BudgetExceeded(f"the {suite} suite over {len(S)} members over {ring} has the work bound "
                             f"{work}, above the budget {SUITE_BUDGET}")


def check_comonad(
    S: TruncationSet,
    T: TruncationSet,
    ring: Ring = Z,
    trials: int = 100,
    seed: int = 7,
    ops: WittOps | None = None,
) -> LawReport:
    """Counit laws, coassociativity, and multiplicativity of the comonad map.

    The comparisons respect the truncation bookkeeping: the coordinate of
    the nested vector at (e in T, n in S) carries information exactly
    when e*n lies in S, and the three-level coassociativity coordinate
    (u, t, n) exactly when u*t*n lies in S.  Outside that range both
    sides are padding.
    """
    if not T <= S:
        raise NotSubset(f"comonad target {T} must be contained in {S}")
    _refuse_past_budget("comonad", comonad_work(S, T, ring, trials), S, ring)
    ops = ops or WittOps()
    rng = random.Random(seed)
    runner = _Runner("comonad", S, trials, seed)
    pool = [_random_witt(S, ring, rng) for _ in range(trials)]
    nested_ring = WittRing(ring, S)

    def law_counit():
        if 1 not in T:  # T is empty: W_T(W_S) has no coordinate at 1, so no counit
            return
        for x in pool:
            first = WittVector(S, ring, ops.delta(x, T).coord(1))
            yield first, x, "counit", x, first

    def law_coordinatewise_counit():
        for x in pool:
            d = ops.delta(x, T)
            taken = WittVector(T, ring, tuple(d.coord(e)[0] for e in T.members))
            yield taken, restrict(x, T), "W(counit)", x, taken

    def law_ghost_frobenius():
        for x in pool[: max(10, trials // 5)]:
            g = ghost(ops.delta(x, T))
            for e in T.members:
                lifted = restrict(WittVector(S, ring, g.value(e)), S.quotient(e))
                yield lifted, ops.frobenius(e, x), "ghost(delta) = F", e, x

    def law_ring_hom():
        for _ in range(trials):
            x, y = rng.choice(pool), rng.choice(pool)
            for op_name, base_op, nested_op in (
                ("add", ops.add, witt_add),
                ("mul", ops.mul, witt_mul),
            ):
                lhs = ops.delta(base_op(x, y), T)
                dx, dy = ops.delta(x, T), ops.delta(y, T)
                rhs = nested_op(dx, dy, ops.strategy, ops.source)
                for e in T.members:
                    le = WittVector(S, ring, lhs.coord(e))
                    re = WittVector(S, ring, rhs.coord(e))
                    Se = S.quotient(e)
                    yield restrict(le, Se), restrict(re, Se), f"delta {op_name} hom", e, x, y

    def law_coassociativity():
        for x in pool[: max(6, trials // 16)]:
            d1 = ops.delta(x, T)  # in W_T(W_S)
            # left side: apply delta to each coordinate
            left = {}
            for e in T.members:
                coord = WittVector(S, ring, d1.coord(e))
                left[e] = ops.delta(coord, T)  # in W_T(W_S)
            # right side: delta of the nested vector over its own base
            right = ops.delta(d1, T)  # in W_T(W_T(W_S))
            # both routes carry honest data at (u, t, n) exactly when
            # u*t lies in T and u*t*n lies in S; beyond that the zero
            # padding of the two nestings differs by construction
            for u in T.members:
                for t in T.members:
                    if u * t not in T:
                        continue
                    for n in S.members:
                        if u * t * n not in S:
                            continue
                        lv = left[u].coord(t)[S.index(n)]
                        rv = right.coord(u)[T.index(t)][S.index(n)]
                        yield lv, rv, "coassociativity", u, t, n, x, lv, rv

    def law_teichmuller():
        for a in range(-5, 6):
            t = teichmuller(ring.of_int(a), S, ring)
            d = ops.delta(t, T)
            tt = teichmuller(t.coords, T, nested_ring)
            yield d, tt, "delta([a]) = [[a]]", a, d, tt

    runner.run("counit", law_counit)
    runner.run("coordinatewise-counit", law_coordinatewise_counit)
    runner.run("ghost-components-are-frobenius", law_ghost_frobenius)
    runner.run("comonad-map-is-ring-hom", law_ring_hom)
    runner.run("coassociativity", law_coassociativity)
    runner.run("teichmuller-nests", law_teichmuller)
    return runner.done()


# --------------------------------------------------------------------------
# ring-law suite for W_S(A)
# --------------------------------------------------------------------------


def check_witt_ring(
    S: TruncationSet,
    ring: Ring = Z,
    trials: int = 200,
    seed: int = 7,
    ops: WittOps | None = None,
) -> LawReport:
    """Commutative-ring laws in W_S(A), ghost homomorphism and F/V relations."""
    _refuse_past_budget("wittring", wittring_work(S, ring, trials), S, ring)
    ops = ops or WittOps()
    rng = random.Random(seed)
    runner = _Runner("wittring", S, trials, seed)
    pool = [_random_witt(S, ring, rng) for _ in range(trials)]
    zero = witt_zero(S, ring)
    one = witt_one(S, ring)

    def law_abelian():
        for _ in range(trials):
            x, y, z = rng.choice(pool), rng.choice(pool), rng.choice(pool)
            yield [
                (ops.add(x, y), ops.add(y, x), "add comm", x, y),
                (ops.add(ops.add(x, y), z), ops.add(x, ops.add(y, z)), "add assoc", x, y, z),
                (ops.add(x, zero), x, "add zero", x),
                (ops.add(x, ops.neg(x)), zero, "add inverse", x),
            ]

    def law_mult():
        for _ in range(trials):
            x, y, z = rng.choice(pool), rng.choice(pool), rng.choice(pool)
            yield [
                (ops.mul(x, y), ops.mul(y, x), "mul comm", x, y),
                (ops.mul(ops.mul(x, y), z), ops.mul(x, ops.mul(y, z)), "mul assoc", x, y, z),
                (ops.mul(x, one), x, "mul one", x),
                (ops.mul(x, ops.add(y, z)), ops.add(ops.mul(x, y), ops.mul(x, z)),
                 "distributivity", x, y, z),
            ]

    def law_ghost_hom():
        if not ring.torsion_free:
            return
        for _ in range(trials):
            x, y = rng.choice(pool), rng.choice(pool)
            gx, gy = ghost(x), ghost(y)
            gsum = ghost(ops.add(x, y))
            gprod = ghost(ops.mul(x, y))
            checks = []
            for n in S.members:
                gxn, gyn = gx.value(n), gy.value(n)
                checks.append((gsum.value(n), ring.add(gxn, gyn), "ghost additive", n, x, y))
                checks.append((gprod.value(n), ring.mul(gxn, gyn), "ghost multiplicative", n, x, y))
            gneg = ghost(ops.neg(x))
            checks += [(gneg.value(n), ring.neg(gx.value(n)), "ghost negation", n, x)
                       for n in S.members]
            yield checks

    def law_coordinate_sum():
        for x in pool[: trials // 2]:
            acc = witt_zero(S, ring)
            for n in S.members:
                t = teichmuller(x.coord(n), S.quotient(n), ring)
                acc = ops.add(acc, verschiebung(n, t, S))
            yield acc, x, "x = sum Vn[x_n]", x, acc

    def law_fv_relations():
        for m in S.members:
            for n in S.members:
                x = rng.choice(pool)
                T = S.quotient(n)
                if not T.members:
                    continue
                y = _random_witt(T, ring, rng)
                checks = [
                    (ops.frobenius(n, verschiebung(n, y, S)), witt_scalar_mul(n, y),
                     "FnVn = n", n, y),
                    (ops.mul(x, verschiebung(n, y, S)),
                     verschiebung(n, ops.mul(ops.frobenius(n, x), y), S), "projection", n, x, y),
                ]
                if gcd(m, n) == 1:
                    checks.append((ops.frobenius(m, verschiebung(n, y, S)),
                                   verschiebung(n, ops.frobenius(m, y), S.quotient(m)),
                                   "FmVn = VnFm", m, n, y))
                yield checks

    def law_teich_mult():
        for _ in range(trials // 4):
            a, b = ring.sample(rng), ring.sample(rng)
            lhs = ops.mul(teichmuller(a, S, ring), teichmuller(b, S, ring))
            rhs = teichmuller(ring.mul(a, b), S, ring)
            yield lhs, rhs, "[a][b] = [ab]", ring.format(a), ring.format(b)

    runner.run("abelian-group", law_abelian)
    runner.run("multiplicative-monoid-distributivity", law_mult)
    runner.run("ghost-homomorphism", law_ghost_hom)
    runner.run("coordinate-decomposition", law_coordinate_sum)
    runner.run("frobenius-verschiebung-relations", law_fv_relations)
    runner.run("teichmuller-multiplicative", law_teich_mult)
    return runner.done()


SUITES = {
    "wittcomplex": check_witt_complex,
    "comonad": check_comonad,
    "wittring": check_witt_ring,
}


def report_to_json_text(report: LawReport) -> str:
    return json.dumps(report.to_json(), indent=2)
