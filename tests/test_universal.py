import sys
import threading
from fractions import Fraction

import pytest

from wittkit.errors import CacheCorrupt, CeilingExceeded, MissingVariable
from wittkit.rings import ModularRing, PolynomialRing, Q, RingElement, Z
from wittkit.universal import (
    PolySource,
    UnivPolyKey,
    parse_key,
    poly_from_text,
    poly_to_text,
    specialize,
)


@pytest.fixture(scope="module")
def src():
    return PolySource()


def _named(poly):
    ring = poly.ring
    return {
        tuple((ring.variables[v], e) for v, e in mono): c for mono, c in poly.value.items()
    }


def test_ghost_poly(src):
    assert _named(src.ghost_poly(1)) == {(("a1", 1),): 1}
    assert _named(src.ghost_poly(2)) == {(("a1", 2),): 1, (("a2", 1),): 2}
    assert _named(src.ghost_poly(4)) == {
        (("a1", 4),): 1,
        (("a2", 2),): 2,
        (("a4", 1),): 4,
    }
    assert _named(src.ghost_poly(2, "b")) == {(("b1", 2),): 1, (("b2", 1),): 2}


def test_low_degree_values(src):
    assert _named(src.universal_poly(UnivPolyKey("sum", 1))) == {
        (("a1", 1),): 1,
        (("b1", 1),): 1,
    }
    assert _named(src.universal_poly(UnivPolyKey("sum", 2))) == {
        (("a2", 1),): 1,
        (("b2", 1),): 1,
        (("a1", 1), ("b1", 1)): -1,
    }
    assert _named(src.universal_poly(UnivPolyKey("prod", 2))) == {
        (("a1", 2), ("b2", 1)): 1,
        (("a2", 1), ("b1", 2)): 1,
        (("a2", 1), ("b2", 1)): 2,
    }
    assert _named(src.universal_poly(UnivPolyKey("neg", 2))) == {
        (("a1", 2),): -1,
        (("a2", 1),): -1,
    }
    assert _named(src.universal_poly(UnivPolyKey("frob", 1, 2))) == {
        (("a1", 2),): 1,
        (("a2", 1),): 2,
    }
    assert _named(src.universal_poly(UnivPolyKey("frob", 2, 2))) == {
        (("a4", 1),): 2,
        (("a2", 2),): -1,
        (("a1", 2), ("a2", 1)): -2,
    }
    assert _named(src.universal_poly(UnivPolyKey("delta", 1, 2))) == {(("a2", 1),): 1}


def _ghost_of_family(src, op, n, ring):
    """Substitute the family polynomials into the ghost sum at level n."""
    acc = ring.zero
    for d in range(1, n + 1):
        if n % d == 0:
            fd = src.universal_poly(UnivPolyKey(op, d))
            embedded = ring.convert_from(fd.value, fd.ring)
            acc = ring.add(acc, ring.scalar_mul(d, ring.pow(embedded, n // d)))
    return acc


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 8, 12])
def test_ghost_identities(src, n):
    ring = PolynomialRing(Z, [f"a{d}" for d in range(1, n + 1) if n % d == 0]
                          + [f"b{d}" for d in range(1, n + 1) if n % d == 0])
    wa = ring.convert_from(src.ghost_poly(n, "a").value, src.ghost_poly(n, "a").ring)
    wb = ring.convert_from(src.ghost_poly(n, "b").value, src.ghost_poly(n, "b").ring)
    assert _ghost_of_family(src, "sum", n, ring) == ring.add(wa, wb)
    assert _ghost_of_family(src, "prod", n, ring) == ring.mul(wa, wb)
    assert _ghost_of_family(src, "neg", n, ring) == ring.neg(wa)


@pytest.mark.parametrize("m,n", [(m, n) for m in (1, 2, 3, 4, 6) for n in (1, 2, 3, 4)
                                 if m * n <= 24])
def test_frobenius_ghost_identity(src, m, n):
    ring = PolynomialRing(Z, [f"a{d}" for d in range(1, m * n + 1) if (m * n) % d == 0])
    acc = ring.zero
    for d in range(1, n + 1):
        if n % d == 0:
            fd = src.universal_poly(UnivPolyKey("frob", d, m))
            acc = ring.add(acc, ring.scalar_mul(d, ring.pow(ring.convert_from(fd.value, fd.ring), n // d)))
    w = src.ghost_poly(m * n, "a")
    assert acc == ring.convert_from(w.value, w.ring)


@pytest.mark.parametrize("e,n", [(e, n) for e in (1, 2, 3, 4) for n in (1, 2, 3, 4)
                                 if e * n <= 16])
def test_delta_ghost_identity(src, e, n):
    # summing d * delta_{e,d}^(n/d) over d|n recovers the Frobenius coordinate f_{n,e}
    ring = PolynomialRing(Z, [f"a{d}" for d in range(1, e * n + 1) if (e * n) % d == 0])
    acc = ring.zero
    for d in range(1, n + 1):
        if n % d == 0:
            dd = src.universal_poly(UnivPolyKey("delta", d, e))
            acc = ring.add(acc, ring.scalar_mul(d, ring.pow(ring.convert_from(dd.value, dd.ring), n // d)))
    f = src.universal_poly(UnivPolyKey("frob", e, n))
    assert acc == ring.convert_from(f.value, f.ring)


def test_zero_constant_terms(src):
    for key in [UnivPolyKey("sum", 6), UnivPolyKey("prod", 6), UnivPolyKey("neg", 6),
                UnivPolyKey("frob", 3, 2), UnivPolyKey("delta", 2, 2)]:
        poly = src.universal_poly(key)
        assert () not in poly.value


def test_specialize(src):
    s2 = src.universal_poly(UnivPolyKey("sum", 2))
    val = specialize(
        s2,
        {"a1": RingElement(Z, 1), "a2": RingElement(Z, 0),
         "b1": RingElement(Z, 1), "b2": RingElement(Z, 0)},
        Z,
    )
    assert val == RingElement(Z, -1)
    p2 = src.universal_poly(UnivPolyKey("prod", 2))
    val = specialize(
        p2,
        {"a1": RingElement(Z, 1), "a2": RingElement(Z, 0),
         "b1": RingElement(Z, 0), "b2": RingElement(Z, 1)},
        Z,
    )
    assert val == RingElement(Z, 1)
    # zero constant term: the all-zero assignment evaluates to zero
    zeros = {v: RingElement(Q, Fraction(0)) for v in ("a1", "a2", "b1", "b2")}
    assert specialize(s2, zeros, Q) == RingElement(Q, Fraction(0))
    with pytest.raises(MissingVariable):
        specialize(s2, {"a1": RingElement(Z, 1)}, Z)


def test_ceiling():
    tiny = PolySource(ceiling=4)
    tiny.universal_poly(UnivPolyKey("sum", 4))
    with pytest.raises(CeilingExceeded):
        tiny.universal_poly(UnivPolyKey("sum", 5))
    with pytest.raises(CeilingExceeded):
        tiny.universal_poly(UnivPolyKey("frob", 3, 2))
    with pytest.raises(CeilingExceeded):
        PolySource(ceiling=1000)


def test_text_round_trip(src):
    for key in [UnivPolyKey("sum", 12), UnivPolyKey("prod", 8), UnivPolyKey("neg", 6),
                UnivPolyKey("frob", 2, 3), UnivPolyKey("delta", 2, 4)]:
        poly = src.universal_poly(key)
        back = poly_from_text(poly_to_text(poly), poly.ring)
        assert back.value == poly.value
    assert parse_key("frob:2:3") == UnivPolyKey("frob", 3, 2)
    assert parse_key("sum:7") == UnivPolyKey("sum", 7)


def test_disk_cache_round_trip(tmp_path):
    path = str(tmp_path / "cache.txt")
    first = PolySource(cache_path=path)
    keys = [UnivPolyKey("sum", 6), UnivPolyKey("prod", 6), UnivPolyKey("frob", 2, 2),
            UnivPolyKey("delta", 2, 2)]
    originals = {k: first.universal_poly(k) for k in keys}
    second = PolySource(cache_path=path)
    fresh = PolySource()
    for k in keys:
        assert second._memo[k].value == originals[k].value
        assert second.universal_poly(k).value == fresh.universal_poly(k).value


def test_corrupt_cache(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("not a cache\n")
    with pytest.raises(CacheCorrupt):
        PolySource(cache_path=str(path))
    path.write_text("# wittkit universal polynomial cache v1\nsum:2\tgarbage!!\n")
    with pytest.raises(CacheCorrupt):
        PolySource(cache_path=str(path))


def test_shared_source_under_threads():
    # more threads than cores, switching often, on a source none of them has warmed
    shared = PolySource()
    reference = PolySource()
    keys = [UnivPolyKey(op, n) for op in ("sum", "prod") for n in (4, 6)]
    targets = [ModularRing(8), ModularRing(9)]
    jobs = []
    for i, key in enumerate(keys * 2):
        target = targets[i % 2]
        poly = reference.universal_poly(key)
        values = {name: (j * 5 + i) % 7 for j, name in enumerate(poly.ring.variables)}
        want = poly.ring.evaluate(poly.value, values, target)
        jobs.append((key, values, target, want))
    errors = []

    def worker(offset):
        try:
            for _ in range(4):
                for key, values, target, want in jobs[offset:] + jobs[:offset]:
                    assert shared.evaluate(key, values, target) == want
        except BaseException as exc:  # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors[0]

