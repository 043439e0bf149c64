"""Exact arithmetic for big Witt vectors over arbitrary commutative rings,
with the fully explicit graded de Rham-Witt complex of the integers and
executable law suites for its axioms.

Cache events (an interrupted cache entry skipped or cut away) are logged
as warnings on the "wittkit" logger, which prints nothing unless the
application configures logging."""

from .errors import WittkitError
from .rings import (
    ModularRing,
    PolynomialRing,
    Q,
    RingElement,
    SeriesRing,
    SquareZeroRing,
    Z,
    element_from_json,
    element_to_json,
    exact_div,
    parse_ring,
    series_inverse,
)
from .truncation import (
    TruncationSet,
    divisors_of,
    initial_segment,
    p_typical,
    parse_truncation_set,
    truncation_set,
)
from .numtheory import mobius
from .universal import PolySource, UnivPolyKey, ghost_poly, specialize, universal_poly
from .witt import (
    GhostVector,
    WittRing,
    WittVector,
    delta,
    delta_component,
    frobenius,
    from_ghost,
    ghost,
    restrict,
    square_zero_split,
    teichmuller,
    verschiebung,
    witt_add,
    witt_mul,
    witt_neg,
    witt_of_int,
    witt_one,
    witt_scalar_mul,
    witt_zero,
)
from .wittint import (
    BasisWittInt,
    FormalOneForm,
    basis_mul,
    divided_frobenius_form,
    from_coords,
    frobenius_basis,
    restrict_basis,
    teich_basis,
    to_coords,
    verschiebung_basis,
)
from .series import gamma, gamma_inverse
from .ptypical import idempotents, ptypical_projection, reassemble, tau_iso
from .drwz import (
    DrwComplex,
    DrwElement,
    crt_bracket,
    curly,
    dlog_minus_one,
    drw_d,
    drw_eta,
    drw_frobenius,
    drw_mul,
    drw_restrict,
    drw_verschiebung,
)
from .laws import LawReport, LawResult, check_comonad, check_witt_complex, check_witt_ring

__version__ = "0.1.0"
