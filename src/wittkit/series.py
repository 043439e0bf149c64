"""The additive change of coordinates between Witt vectors and power series.

gamma sends (a_n) to the product over n in S of (1 - a_n*t^n)^(-1), a
series with constant term 1; it turns Witt addition into series
multiplication.  Dividing g by 1 - a*t^n is the recurrence
g_i <- g_i + a*g_(i-n), run upward in place so that g_(i-n) is already
divided.  For an initial-segment set {1, ..., n} the map is invertible
from series known mod t^(n+1): the coefficients are peeled off one
degree at a time, a_j being the coefficient of t^j once the lower
factors are gone, and multiplying by 1 - a_j*t^j is
h_i <- h_i - a_j*h_(i-j), run downward so that h_(i-j) is not yet
multiplied.
"""

from __future__ import annotations

from .errors import BudgetExceeded, NotAUnit, SpecMismatch, UnsupportedRing, WittkitError
from .rings import PRECISION_BUDGET, RingElement, SeriesRing
from .truncation import initial_segment
from .witt import WittVector


def _series_mod_next(base, n: int, name: str) -> SeriesRing:
    """Series over `base` mod t^(n+1), the bounds checked on n, named `name`."""
    if n < 0:
        raise WittkitError(f"{name} must be >= 0: {n}")
    if n >= PRECISION_BUDGET:
        raise BudgetExceeded(f"{name} {n} exceeds the budget {PRECISION_BUDGET - 1}")
    return SeriesRing(base, n + 1)


def gamma(x: WittVector, precision: int) -> RingElement:
    """The series prod (1 - a_n t^n)^(-1) mod t^(precision+1)."""
    ring = _series_mod_next(x.ring, precision, "precision")
    base = x.ring
    g = list(ring.one)
    for n in x.tset.members:
        a = x.coord(n)
        if not base.is_zero(a):
            for i in range(n, precision + 1):  # g_{i-n} already divided
                g[i] = base.add(g[i], base.mul(a, g[i - n]))
    return RingElement(ring, tuple(g))


def gamma_inverse(f: RingElement, length: int) -> WittVector:
    """The unique vector over {1, ..., length} with gamma(x) = f mod t^(length+1)."""
    ring = f.ring
    if not isinstance(ring, SeriesRing):
        raise SpecMismatch(f"gamma_inverse needs a series, got {ring}")
    S = initial_segment(length)
    work = _series_mod_next(ring.base, length, "length")
    if ring.precision < length + 1:
        raise UnsupportedRing(
            f"need the series mod t^{length + 1}, have precision {ring.precision}"
        )
    base = ring.base
    if f.value[0] != base.one:
        raise NotAUnit("gamma_inverse requires constant term 1")
    h = list(work.from_coefficients(f.value))
    coords = []
    for j in range(1, length + 1):
        a_j = h[j]
        coords.append(a_j)
        if not base.is_zero(a_j):
            for i in range(length, j - 1, -1):  # h_{i-j} not yet multiplied
                h[i] = base.sub(h[i], base.mul(a_j, h[i - j]))
    return WittVector(S, base, tuple(coords))
