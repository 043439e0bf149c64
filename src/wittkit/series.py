"""The additive change of coordinates between Witt vectors and power series.

gamma sends (a_n) to the product over n in S of (1 - a_n*t^n)^(-1), a
series with constant term 1; it turns Witt addition into series
multiplication.  For an initial-segment set {1, ..., n} the map is
invertible from series known mod t^(n+1): the coefficients are peeled
off one degree at a time.
"""

from __future__ import annotations

from .errors import NotAUnit, SpecMismatch, UnsupportedRing
from .rings import RingElement, SeriesRing
from .truncation import initial_segment
from .witt import WittVector


def gamma(x: WittVector, precision: int) -> RingElement:
    """The series prod (1 - a_n t^n)^(-1) mod t^(precision+1)."""
    ring = SeriesRing(x.ring, precision + 1)
    base = x.ring
    out = ring.one
    for n in x.tset.members:
        a = x.coord(n)
        if base.is_zero(a):
            continue
        # geometric series: (1 - a t^n)^(-1) = sum a^k t^(nk)
        coeffs = [base.zero] * (precision + 1)
        power = base.one
        for k in range(0, precision // n + 1):
            coeffs[n * k] = power
            power = base.mul(power, a)
        out = ring.mul(tuple(coeffs), out)  # the sparse factor first
    return RingElement(ring, out)


def gamma_inverse(f: RingElement, length: int) -> WittVector:
    """The unique vector over {1, ..., length} with gamma(x) = f mod t^(length+1)."""
    ring = f.ring
    if not isinstance(ring, SeriesRing):
        raise SpecMismatch(f"gamma_inverse needs a series, got {ring}")
    S = initial_segment(length)
    work = SeriesRing(ring.base, length + 1)
    if ring.precision < length + 1:
        raise UnsupportedRing(
            f"need the series mod t^{length + 1}, have precision {ring.precision}"
        )
    base = ring.base
    if f.value[0] != base.one:
        raise NotAUnit("gamma_inverse requires constant term 1")
    h = work.from_coefficients(f.value)
    coords = []
    for j in range(1, length + 1):
        a_j = h[j]
        coords.append(a_j)
        if not base.is_zero(a_j):
            # multiply h by (1 - a_j t^j)
            factor = [base.zero] * (length + 1)
            factor[0] = base.one
            factor[j] = base.neg(a_j)
            h = work.mul(tuple(factor), h)  # the sparse factor first
    return WittVector(S, base, tuple(coords))
