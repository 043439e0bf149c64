"""p-typical decomposition and the length-n identification over F_p.

Over a base where every k in S prime to p is invertible, W_S(A) splits
into orthogonal pieces cut out by idempotents e_k indexed by I(S) = {k
in S : p does not divide k}; the piece at k is isomorphic to the
p-typical ring over the set S/k intersected with the p-powers.

For the prime field F_p, the ring of p-typical vectors of length n is
identified with Z/p^n by sending k to the k-fold sum of the Teichmuller
unit; tau_iso tabulates this bijection and exposes both directions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import BudgetExceeded, NotInvertible, SetMismatch, WittkitError
from .rings import ModularRing, Ring
from .truncation import TruncationSet, p_typical, require_prime, truncation_set
from .witt import (
    WittRing,
    WittVector,
    frobenius,
    restrict,
    verschiebung,
    witt_add,
    witt_mul,
    witt_one,
    witt_scalar_mul,
    witt_zero,
)

TAU_BUDGET = 10**4


def _invertible(k: int, ring: Ring) -> bool:
    try:
        ring.exact_div(ring.one, k)
        return True
    except WittkitError:
        return False


def prime_to_p_part(S: TruncationSet, p: int) -> list[int]:
    """I(S): the members of S not divisible by p."""
    return [k for k in S.members if k % p != 0]


def _one_over_k_v(k: int, y: WittVector, S: TruncationSet) -> WittVector:
    """(1/k) * V_k(y) as a vector over S, for y over S/k."""
    return WittVector(S, y.ring, ring_exact_div_coordinates(verschiebung(k, y, S), k))


def ring_exact_div_coordinates(x: WittVector, k: int) -> tuple:
    """Divide x by k inside W_S(A), via the ambient WittRing."""
    wr = WittRing(x.ring, x.tset)
    try:
        return wr.exact_div(x.coords, k)
    except WittkitError as exc:
        raise NotInvertible(f"{k} is not invertible in W({x.tset},{x.ring}): {exc}") from exc


def idempotents(S: TruncationSet, p: int, ring: Ring) -> dict[int, WittVector]:
    """The orthogonal idempotents e_k, k in I(S), over a base where I(S) is invertible."""
    require_prime(p)
    I = prime_to_p_part(S, p)
    for k in I:
        if not _invertible(k, ring):
            raise NotInvertible(f"{k} is not a unit in {ring}")
    return {k: _idempotent(k, I, S, ring) for k in I}


def _idempotent(k: int, I: list[int], S: TruncationSet, ring: Ring) -> WittVector:
    """(1/k)V_k[1] times (1/k)V_k[1] - (1/kl)V_kl[1] for every l > 1 in I.

    The first factor is idempotent and fixes each of the others, as
    (1/k)V_k[1] * (1/kl)V_kl[1] = (1/kl)V_kl[1]; every kl is a unit.
    """
    def one_over_v_one(j):
        return _one_over_k_v(j, witt_one(S.quotient(j), ring), S)

    e_k = first = one_over_v_one(k)
    for l in I:
        if l != 1:
            e_k = witt_mul(e_k, witt_add(first, witt_scalar_mul(-1, one_over_v_one(k * l))))
    return e_k


def ptypical_component_set(S: TruncationSet, p: int, k: int) -> TruncationSet:
    """S/k intersected with the powers of p."""
    members = [d for d in S.quotient(k).members if _is_p_power(d, p)]
    return truncation_set(members)


def _is_p_power(d: int, p: int) -> bool:
    while d % p == 0:
        d //= p
    return d == 1


def ptypical_projection(k: int, x: WittVector, p: int, e_k: WittVector) -> WittVector:
    """Project onto the k-th p-typical component: restrict o F_k on x * e_k."""
    cut = witt_mul(x, e_k)
    return restrict(frobenius(k, cut), ptypical_component_set(x.tset, p, k))


def ptypical_section(k: int, y: WittVector, S: TruncationSet, p: int, e_k: WittVector) -> WittVector:
    """Back into W_S(A)e_k: zero-pad to S/k, apply (1/k)V_k, cut by e_k."""
    ring = y.ring
    T = S.quotient(k)
    if not ptypical_component_set(S, p, k) == y.tset:
        raise SetMismatch(f"component lives over {y.tset}")
    padded = WittVector(
        T, ring, tuple(y.coord(n) if n in y.tset else ring.zero for n in T.members)
    )
    return witt_mul(_one_over_k_v(k, padded, S), e_k)


def reassemble(components: dict[int, WittVector], S: TruncationSet, p: int, ring: Ring) -> WittVector:
    """Sum of the sections, inverse to projecting onto every component."""
    idems = idempotents(S, p, ring)
    acc = witt_zero(S, ring)
    for k, y in components.items():
        acc = witt_add(acc, ptypical_section(k, y, S, p, idems[k]))
    return acc


# --------------------------------------------------------------------------
# W_n(F_p) = Z/p^n
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class TauIso:
    """The additive-Teichmuller bijection Z/p^n <-> W_n(F_p)."""

    p: int
    n: int
    forward: tuple[WittVector, ...]

    @property
    def modulus(self) -> int:
        return self.p**self.n

    def to_witt(self, k: int) -> WittVector:
        return self.forward[k % self.modulus]

    def to_int(self, x: WittVector) -> int:
        return self._backward[x.coords]

    @cached_property
    def _backward(self) -> dict:
        return {v.coords: k for k, v in enumerate(self.forward)}


def tau_iso(p: int, n: int) -> TauIso:
    """Tabulate k -> k*[1] on W over {1, p, ..., p^(n-1)} of F_p.

    The map is verified to be a bijection; additivity/multiplicativity
    are left to the law suites.
    """
    require_prime(p)
    if n > TAU_BUDGET.bit_length() or p**n > TAU_BUDGET:  # the first test keeps p**n small
        raise BudgetExceeded(f"p^n = {p}^{n} exceeds the enumeration budget {TAU_BUDGET}")
    size = p**n
    S = p_typical(p, n)
    ring = ModularRing(p)
    one = witt_one(S, ring)
    table = [witt_zero(S, ring)]
    for _ in range(size - 1):
        table.append(witt_add(table[-1], one))
    seen = {v.coords for v in table}
    if len(seen) != size:
        raise NotInvertible("internal error: k -> k*[1] failed to be injective")
    return TauIso(p, n, tuple(table))
