"""Exact-arithmetic lifting calculus for GL(n) over unramified cyclic extensions.

Layers, from bottom to top:

* :mod:`autoind.values` — coordinates (roots of unity times rational q-powers),
  the immutable records, the JSON readers and ``CyclicAlgebra`` (satake re-exports it).
* :mod:`autoind.arith` — the cyclotomic kernel: the coordinates' exact group
  ring with cyclotomic coefficients, loaded only by the Hecke layer and verify.
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

The package root exports nothing else: import from the layer modules, as in
``from autoind.satake import delta_map``.
"""

__version__ = "0.1.0"
