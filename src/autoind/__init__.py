"""Exact-arithmetic lifting calculus for GL(n) over unramified cyclic extensions.

Layers, from bottom to top:

* :mod:`autoind.arith` — coordinates (roots of unity times rational q-powers)
  and their exact group ring with cyclotomic coefficients.
* :mod:`autoind.satake` — Satake parameters over the base field and over
  cyclic algebras; the induction and base-change maps with their fibers.
* :mod:`autoind.hecke` — spherical Hecke algebras as symmetric Laurent
  polynomials; transfer homomorphisms pinned down by evaluation identities.
* :mod:`autoind.reps` — symbolic segment/Speh/unitary/elliptic calculus over
  abstract cuspidal atoms, with lifting maps and Galois-orbit fibers.
* :mod:`autoind.adelic` — synthetic global layer: places, discrete data,
  the global lift, rigidity, Euler-factor identities and separation.
* :mod:`autoind.verify` — seeded property suites; :mod:`autoind.cli` — the
  JSON command-line front end.
"""

from .arith import Coordinate, Cyclo, QCyclo
from .satake import (
    CyclicAlgebra,
    SatakeParam,
    SphericalRepE,
    ai_fiber,
    bc_fiber,
    bc_map,
    check_ia_bc_compat,
    delta_map,
    param_of_unramified_character,
    x_of,
)
from .hecke import (
    SymLaurent,
    TensorSym,
    ai_transfer,
    bc_transfer,
    constant_term,
    from_power_sums,
    satake_eval,
    to_power_sums,
)
from .reps import (
    CuspidalAtom,
    Elliptic,
    EssDiscrete,
    Product,
    Speh,
    TwistedPair,
    fiber_unitary,
    is_generic,
    lift_unitary,
    specialize,
)
from .adelic import (
    GlobalDiscrete,
    InducedGlobal,
    LocalRSFactor,
    Place,
    Verdict,
    check_global_compat,
    global_ai_lift,
    lemma46_local_identity,
    rigidity_check,
    rs_local_factor,
    separate,
)

__version__ = "0.1.0"
