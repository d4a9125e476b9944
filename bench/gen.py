"""Seeded input generators for the autoind benchmark.

The distributions mirror the pool builders of ``autoind.verify``
(``random_coordinate``, ``random_symlaurent``, ``random_spherical``, ...),
but they live here so that an edit to ``verify.py`` cannot silently change a
workload.  Every generator returns plain data (ints and tuples); the
workloads build library objects from it inside the timed op, so the program
receives only what the benchmark generated.

Conventions for the plain data:

* a coordinate is ``(a, n, p, q)``: ``e^(2 pi i a/n) * q^(p/q)``;
* a coefficient is ``(num, den, k, o)``: ``num/den * zeta_o^k``;
* a symmetric Laurent polynomial is ``(nvars, shift, ((lam, coef), ...))``.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd, lcm

# ---------------------------------------------------------------------------
# Leaf draws (mirroring autoind.verify)


def coordinate(rng: random.Random, max_order: int = 24, qspan: int = 3):
    """Mirror of ``verify.random_coordinate``."""
    n = rng.randint(1, max_order)
    a = rng.randrange(n)
    return (a, n, rng.randint(-qspan * 2, qspan * 2), rng.choice((1, 2)))


def coefficient(rng: random.Random):
    """Mirror of ``verify.random_qcyclo``."""
    num, den = rng.randint(-5, 5) or 1, rng.choice((1, 2, 3))
    if rng.random() < 0.3:
        o = rng.choice((2, 3, 4, 6))
        return (num, den, rng.randrange(o), o)
    return (num, den, 0, 1)


def symlaurent(rng: random.Random, n: int, maxdeg: int = 6):
    """Mirror of ``verify.random_symlaurent``."""
    terms = {}
    for _ in range(rng.randint(1, 3)):
        deg = rng.randint(0, maxdeg)
        parts = []
        while deg > 0 and len(parts) < n:
            p = rng.randint(1, deg)
            parts.append(p)
            deg -= p
        lam = tuple(sorted(parts, reverse=True)) + (0,) * (n - len(parts))
        terms[lam] = coefficient(rng)
    shift = rng.randint(0, 2)
    return (n, shift, tuple(sorted(terms.items())))


def divisor(rng: random.Random, d: int) -> int:
    return rng.choice([r for r in range(1, d + 1) if d % r == 0])


def algebra(rng: random.Random, d: int):
    """Mirror of ``verify.random_algebra``: ``(d, r, s)``."""
    r = divisor(rng, d)
    return (d, r, d // r)


# ---------------------------------------------------------------------------
# Re-rolling values while keeping the shape
#
# The cost of a transfer identity is set by its shape: the algebra, the
# partitions of f, and the orders of the roots of unity involved (they fix
# the cyclotomic conductors).  A heavy case costs a thousand times a light
# one, so drawing shapes afresh per seed would make throughput a lottery.
# hecke-transfer therefore draws its shapes once from a fixed stream and
# lets the seed draw the values: numerators coprime to each order, q-powers
# and rational coefficients.


def _unit(rng: random.Random, o: int) -> int:
    return rng.choice([a for a in range(o) if gcd(a, o) == 1]) if o > 1 else 0


def _order(a: int, n: int) -> int:
    return n // gcd(a, n)


def reroll_coordinate(rng: random.Random, c, qspan: int = 3):
    o = _order(c[0], c[1])
    return (_unit(rng, o), o, rng.randint(-qspan * 2, qspan * 2), rng.choice((1, 2)))


def reroll_coefficient(rng: random.Random, c):
    o = _order(c[2], c[3])
    return (rng.randint(-5, 5) or 1, rng.choice((1, 2, 3)), _unit(rng, o), o)


def reroll_symlaurent(rng: random.Random, f):
    n, shift, terms = f
    return (n, shift, tuple((lam, reroll_coefficient(rng, c)) for lam, c in terms))


def conductor_bound(s: int, coords, laurents) -> int:
    """lcm of every root-of-unity order an identity can meet (after s-th roots)."""
    out = s
    for a, n, _, _ in coords:
        out = lcm(out, _order(a, n) * s)
    for _, _, terms in laurents:
        for _, (_, _, k, o) in terms:
            out = lcm(out, _order(k, o))
    return out


# ---------------------------------------------------------------------------
# hecke-transfer: crit2 / crit3 oracle instances

HECKE_MAX_CONDUCTOR = 420


def ai_instance(rng: random.Random):
    """Mirror of one ``verify.crit2_hecke_oracle`` case.

    Returns ``("ai", (d, r, s), blocks, f)``; ``blocks`` holds r blocks of m
    coordinates and f has ``m * d`` variables.
    """
    d = rng.choice((2, 3))
    alg = algebra(rng, d)
    m = rng.randint(1, 6 // d)
    f = symlaurent(rng, m * d)
    blocks = tuple(tuple(coordinate(rng, 12) for _ in range(m)) for _ in range(alg[1]))
    return ("ai", alg, blocks, f)


def bc_instance(rng: random.Random):
    """Mirror of one ``verify.crit3_bc_oracle`` case: ``("bc", alg, y, factors)``."""
    d = rng.choice((2, 3))
    alg = algebra(rng, d)
    n = rng.randint(1, 3)
    y = tuple(coordinate(rng, 12) for _ in range(n))
    factors = tuple(symlaurent(rng, n, maxdeg=4) for _ in range(alg[1]))
    return ("bc", alg, y, factors)


def instance_conductor(case) -> int:
    kind, alg, coords, laurents = case
    if kind == "ai":
        return conductor_bound(alg[2], [c for b in coords for c in b], [laurents])
    return conductor_bound(1, coords, laurents)


def hecke_shapes(count: int):
    """The fixed shape schedule: ai and bc cases alternating.

    Drawn from a fixed stream, so it is the same for every seed; cases whose
    conductor bound exceeds ``HECKE_MAX_CONDUCTOR`` are redrawn (the stated
    input size).
    """
    rng = random.Random("hecke-transfer:shapes")
    out = []
    while len(out) < count:
        case = (ai_instance if len(out) % 2 == 0 else bc_instance)(rng)
        if instance_conductor(case) <= HECKE_MAX_CONDUCTOR:
            out.append(case)
    return out


def reroll_instance(rng: random.Random, case):
    kind, alg, coords, laurents = case
    if kind == "ai":
        blocks = tuple(tuple(reroll_coordinate(rng, c) for c in b) for b in coords)
        return (kind, alg, blocks, reroll_symlaurent(rng, laurents))
    y = tuple(reroll_coordinate(rng, c) for c in coords)
    return (kind, alg, y, tuple(reroll_symlaurent(rng, f) for f in laurents))


# ---------------------------------------------------------------------------
# lift-global: satake maps and fibers, reps square and genericity, adelic
#
# Atom and datum labels carry a serial string that is unique within the
# process, so a label names one atom (verify draws labels at random from
# 10^6 values, so its pools can reuse one).


def spherical(rng: random.Random, alg, m: int, max_order: int = 24):
    """Mirror of ``verify.random_spherical``: r blocks of m coordinates."""
    return tuple(
        tuple(coordinate(rng, max_order) for _ in range(m)) for _ in range(alg[1])
    )


def satake_maps_instance(rng: random.Random):
    """crit1 / crit4 pool: ``(alg, blocks)`` with d in {2,3,4,6}, m <= 3."""
    alg = algebra(rng, rng.choice((2, 3, 4, 6)))
    return (alg, spherical(rng, alg, rng.randint(1, 3)))


def ai_fiber_instance(rng: random.Random):
    """crit5 ai pool: ``(alg, blocks)`` with d in {2,3,4}, rank <= 4."""
    d = rng.choice((2, 3, 4))
    alg = algebra(rng, d)
    m = max(1, min(rng.randint(1, 2), 4 // d))
    return (alg, spherical(rng, alg, m, max_order=8))


def bc_fiber_instance(rng: random.Random):
    """crit5 bc pool: ``(alg, y)`` with d in {2,3,4}, rank <= 3."""
    alg = algebra(rng, rng.choice((2, 3, 4)))
    return (alg, tuple(coordinate(rng, 8) for _ in range(rng.randint(1, 3))))


def unramified_atom(rng: random.Random, d: int, uid: str):
    """Atom as ``(uid, side, size, d, orbit, payload)``, payload a coordinate or None."""
    return (uid, "E", 1, d, d, coordinate(rng, max_order=12))


def unitary_product(rng: random.Random, d: int, serial: str, max_rank: int = 6):
    """Mirror of ``verify.random_unitary_product``.

    A factor is ``("speh", atom, k, twist, q)`` or ``("pair", atom, k, twist,
    q, alpha)``; twists and alpha are ``(num, den)``.
    """
    factors = []
    rank = 0
    while rank < max_rank and (not factors or rng.random() < 0.7):
        atom = unramified_atom(rng, d, f"x{serial}.{len(factors)}")
        budget = max_rank - rank
        if budget >= 2 and rng.random() < 0.3:
            q = rng.randint(1, budget // 2)
            twist = (rng.randint(-2, 2), 2)
            alpha = (1, rng.choice((3, 4, 5)))
            factors.append(("pair", atom, 1, twist, q, alpha))
            rank += 2 * q
        else:
            q = rng.randint(1, budget)
            twist = (rng.randint(-2, 2), 2)
            factors.append(("speh", atom, 1, twist, q))
            rank += q
    return tuple(factors)


def symbolic_product(rng: random.Random, d: int, serial: str):
    """Mirror of ``verify.random_symbolic_product`` (payload-free atoms).

    Adds ``("elliptic", atom, k, levi, translate)`` to the factor kinds.
    """
    factors = []
    for i in range(rng.randint(1, 3)):
        r = divisor(rng, d)
        atom = (f"s{serial}.{i}", "E", rng.randint(1, 2), d, r, None)
        kind = rng.random()
        k = rng.randint(1, 3)
        if kind < 0.4:
            factors.append(("speh", atom, k, (rng.randint(-1, 1), 1), rng.randint(1, 3)))
        elif kind < 0.6:
            factors.append(("pair", atom, k, (0, 1), rng.randint(1, 2), (1, 3)))
        else:
            levi = rng.choice(compositions(k))
            factors.append(("elliptic", atom, k, levi, rng.randrange(d // r)))
    return tuple(factors)


def compositions(k: int):
    """All 2^(k-1) compositions of k, in lex order."""
    if k == 0:
        return [()]
    return [(first,) + rest for first in range(1, k + 1) for rest in compositions(k - first)]


def global_discrete(rng: random.Random, d: int, r: int, places, label: str, m0=None, q=None):
    """Mirror of ``verify.random_global_discrete``: sigma^g-stable local data.

    ``places`` is a tuple of ``(label, f)``; returns ``(label, d, r, q,
    {place: blocks})``.
    """
    g = d // r
    m0 = m0 or rng.randint(1, 2)
    q = q or rng.randint(1, 2)
    locals_ = {}
    for v, f in places:
        e = d // f
        p = gcd(e, g)
        base = [tuple(coordinate(rng, 12) for _ in range(m0)) for _ in range(p)]
        locals_[v] = tuple(base[i % p] for i in range(e))
    return (label, d, r, q, locals_)


def _blocks(blocks):
    return [sorted((Fraction(a, n) % 1, Fraction(p, q)) for a, n, p, q in b) for b in blocks]


def _translate_of(locals_, other, j):
    """Whether the j-th Galois translate of ``locals_`` equals ``other`` at every place."""
    for v, blocks in locals_.items():
        mine = _blocks(blocks)
        j_v = j % len(mine)
        if mine[j_v:] + mine[:j_v] != _blocks(other[v]):
            return False
    return True


def adelic_instance(rng: random.Random, nplaces: int, serial: str):
    """crit9 / crit10 pool over ``nplaces`` places.

    Returns ``(d, places, delta, l, j, other, lemma)``: delta and other are
    E-side data on the same places with equal shapes, ``j`` the Galois
    translate for the separation check, and ``lemma`` one crit9 Euler-factor
    instance ``(core, l, l_p, d)`` per place.
    """
    d = rng.choice((2, 3, 4))
    r = divisor(rng, d)
    places = tuple((f"v{i}", divisor(rng, d)) for i in range(nplaces))
    delta = global_discrete(rng, d, r, places, f"L{serial}")
    l = rng.randint(1, 3)
    j = rng.randrange(d)
    # other must differ from every Galois translate of delta, or separate()
    # rightly finds them equal; with rank-1 data a collision is not rare
    while True:
        other = global_discrete(rng, d, r, places, f"M{serial}", m0=len(delta[4][places[0][0]][0]), q=delta[3])
        if not any(_translate_of(delta[4], other[4], k) for k in range(d)):
            break
    lemma = []
    for _ in places:
        ld = rng.randint(1, 4)
        l_lp = (rng.randint(1, 4), rng.randint(1, 4))
        g = gcd(*l_lp)
        core = tuple(coordinate(rng, 8) for _ in range(rng.randint(1, max(1, 8 * g // max(l_lp)))))
        lemma.append((core, l_lp[0], l_lp[1], ld))
    return (d, places, delta, l, j, other, tuple(lemma))
