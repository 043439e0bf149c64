"""Finite truncation sets: divisor-closed sets of positive integers.

A truncation set S indexes every Witt construction in this package.  The
quotient S/n = {d : nd in S} is again a truncation set, as are the three
standard families: all divisors of N, the initial segment {1, ..., n},
and the p-typical set {1, p, ..., p^(n-1)}.

Only finite sets are representable.  The empty set is allowed and indexes
the zero ring.  A set is refused with BudgetExceeded, before any divisor
search on it, when a member (or the prime of a p-typical set) exceeds
MEMBER_BUDGET or it has more than SIZE_BUDGET members: the divisor search
takes time in the square root of each member.

Sets are interned: equal members give the identical object, so sets
compare and hash by identity, and tables keyed by a set pay nothing for
the key.
"""

from __future__ import annotations

import re
from threading import Lock
from weakref import WeakValueDictionary

from .errors import BudgetExceeded, InvalidTruncationSet, NotPrime
from .numtheory import divisors, is_prime

MEMBER_BUDGET = 10**6
SIZE_BUDGET = 10**4


def _check_budget(largest: int, size: int):
    if largest > MEMBER_BUDGET:
        raise BudgetExceeded(f"{largest} exceeds the member budget {MEMBER_BUDGET}")
    if size > SIZE_BUDGET:
        raise BudgetExceeded(f"{size} members exceed the size budget {SIZE_BUDGET}")


def require_prime(p: int):
    """NotPrime unless p is prime; BudgetExceeded, before the test, past MEMBER_BUDGET."""
    _check_budget(p, 0)
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")


class Immutable:
    """Slots written once, by the constructor through object.__setattr__; assignment raises.

    The base of the interned sets here and of the value classes of the
    V-basis (wittint.BasisWittInt) and of the graded complex
    (drwz.DrwElement).
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set {name}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name}")


class TruncationSet(Immutable):
    """A divisor-closed finite set of positive integers, sorted ascending.

    Sets are interned: every construction with the same members returns
    the one live object, so equality and hash are those of identity and
    cost one pointer comparison.  The table holds the sets weakly; a miss
    validates the members under a lock, so threads that build the same
    new set get one object.  Copies and pickles come back as that object.
    The member set, the position map and the quotients are kept with the
    set.  Sets are immutable: assignment raises.
    """

    __slots__ = ("members", "_memberset", "_position", "_quotients", "__weakref__")

    def __new__(cls, members: tuple[int, ...]):
        members = tuple(members)
        got = _INTERNED.get(members)
        if got is None:
            with _INTERN_LOCK:
                got = _INTERNED.get(members)
                if got is None:
                    got = _INTERNED[members] = cls._validated(members)
        return got

    @classmethod
    def _validated(cls, mem: tuple[int, ...]) -> TruncationSet:
        if list(mem) != sorted(set(mem)):
            raise InvalidTruncationSet(f"members must be strictly increasing: {mem}")
        if mem and mem[0] < 1:
            raise InvalidTruncationSet(f"members must be positive: {mem[0]}")
        if mem:
            _check_budget(mem[-1], len(mem))
        memberset = frozenset(mem)
        for n in mem:
            if not memberset.issuperset(divisors(n)):
                raise InvalidTruncationSet(f"{n} in set but a divisor of it is missing")
        self = object.__new__(cls)
        object.__setattr__(self, "members", mem)
        object.__setattr__(self, "_memberset", memberset)
        object.__setattr__(self, "_position", {n: i for i, n in enumerate(mem)})
        object.__setattr__(self, "_quotients", {})
        return self

    def __reduce__(self):
        return TruncationSet, (self.members,)

    def __repr__(self) -> str:
        return f"TruncationSet(members={self.members!r})"

    def __contains__(self, n: int) -> bool:
        return n in self._memberset

    def __iter__(self):
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __le__(self, other: TruncationSet) -> bool:
        return self._memberset <= other._memberset

    def __str__(self) -> str:
        return "{" + ",".join(str(n) for n in self.members) + "}"

    def quotient(self, n: int) -> TruncationSet:
        """The set S/n = {d : n*d in S}."""
        got = self._quotients.get(n)
        if got is None:
            if n < 1:
                raise InvalidTruncationSet(f"quotient index must be positive: {n}")
            got = TruncationSet(tuple(m // n for m in self.members if m % n == 0))
            got = self._quotients.setdefault(n, got)
        return got

    def index(self, n: int) -> int:
        """Position of n in the member list."""
        return self._position[n]


_INTERNED = WeakValueDictionary()  # members -> the one live set
_INTERN_LOCK = Lock()
EMPTY = TruncationSet(())


def truncation_set(members) -> TruncationSet:
    """Validating constructor from any iterable of integers."""
    return TruncationSet(tuple(sorted(set(members))))


def divisors_of(N: int) -> TruncationSet:
    """All divisors of N."""
    if N < 1:
        raise InvalidTruncationSet(f"N must be positive: {N}")
    _check_budget(N, 1)
    return TruncationSet(divisors(N))


def initial_segment(n: int) -> TruncationSet:
    """The set {1, 2, ..., n}; {} for n = 0."""
    if n < 0:
        raise InvalidTruncationSet(f"segment length must be >= 0: {n}")
    _check_budget(n, n)
    return TruncationSet(tuple(range(1, n + 1)))


def p_typical(p: int, n: int) -> TruncationSet:
    """The set {1, p, ..., p^(n-1)} of p-powers below p^n."""
    require_prime(p)
    if n < 0:
        raise InvalidTruncationSet(f"length must be >= 0: {n}")
    members = [1] if n else []
    while len(members) < n:  # at most log_p(MEMBER_BUDGET) + 1 steps
        members.append(members[-1] * p)
        _check_budget(members[-1], len(members))
    return TruncationSet(tuple(members))


_SET_RE = re.compile(r"^\{([\d,\s]*)\}$")
_PTYP_RE = re.compile(r"^ptyp\((\d+),(\d+)\)$")


def parse_truncation_set(text: str) -> TruncationSet:
    """Parse "div24", "seg16", "ptyp(2,4)", or an explicit "{1,2,3,6}"."""
    text = text.strip()

    def number(digits: str) -> int:
        try:
            return int(digits)
        except ValueError:
            raise InvalidTruncationSet(f"cannot parse truncation set: {text!r}") from None

    if text.startswith("div"):
        return divisors_of(number(text[3:]))
    if text.startswith("seg"):
        return initial_segment(number(text[3:]))
    m = _PTYP_RE.match(text)
    if m:
        return p_typical(number(m.group(1)), number(m.group(2)))
    m = _SET_RE.match(text)
    if m:
        body = m.group(1).strip()
        if not body:
            return EMPTY
        return truncation_set(number(part) for part in body.split(","))
    raise InvalidTruncationSet(f"cannot parse truncation set: {text!r}")
