"""Seeded property suites: randomized oracles for every library invariant.

Each seeded criterion is a check of one case, run by ``_seeded``: it seeds
the one generator, loops over the cases and returns a :class:`PropertyResult`
whose failure detail names the seed and the case index, so the failure can be
replayed.  The CLI `verify` verb and the acceptance tests both call the
criteria directly, so the pass/fail logic lives in exactly one place.

All comparisons are exact (Coordinate / QCyclo equality); there are no
tolerances anywhere.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import gcd
from typing import List

from .arith import QCyclo
from .values import ONE, Coordinate, Record, primitive_root, set_field
from .satake import (
    CyclicAlgebra,
    SatakeParam,
    SphericalRepE,
    ai_fiber,
    bc_fiber,
    bc_map,
    delta_map,
)
from .hecke import SymLaurent, ai_transfer, bc_transfer, satake_eval
from .reps import (
    CuspidalAtom,
    Elliptic,
    EssDiscrete,
    Product,
    Speh,
    TwistedPair,
    compositions,
    fiber_unitary,
    is_generic,
    lift_unitary,
    specialize,
)
from .adelic import (
    GlobalDiscrete,
    InducedGlobal,
    Place,
    check_global_compat,
    global_ai_lift,
    lemma46_local_identity,
    rigidity_check,
    separate,
)


class PropertyResult(Record):
    __slots__ = ("name", "cases", "passed", "detail")

    def __init__(self, name: str, cases: int, passed: bool, detail: str = ""):
        set_field(self, "name", name)
        set_field(self, "cases", cases)
        set_field(self, "passed", passed)
        set_field(self, "detail", detail)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        tail = f"  ({self.detail})" if self.detail else ""
        return f"{status} {self.name} [{self.cases} cases]{tail}"


# ---------------------------------------------------------------------------
# Pool builders


def _divisors(d: int) -> list:
    return [k for k in range(1, d + 1) if d % k == 0]


def random_coordinate(rng: random.Random, max_order: int = 24) -> Coordinate:
    n = rng.randint(1, max_order)
    a = rng.randrange(n)
    qexp = Fraction(rng.randint(-6, 6), rng.choice((1, 2)))
    return Coordinate.of(Fraction(a, n), qexp)


def random_spherical(
    rng: random.Random, algebra: CyclicAlgebra, m: int, max_order: int = 24
) -> SphericalRepE:
    blocks = tuple(
        SatakeParam(tuple(random_coordinate(rng, max_order) for _ in range(m)))
        for _ in range(algebra.r)
    )
    return SphericalRepE(algebra, blocks)


def random_algebra(rng: random.Random, d: int) -> CyclicAlgebra:
    r = rng.choice(_divisors(d))
    return CyclicAlgebra(d, r, d // r)


def random_qcyclo(rng: random.Random) -> QCyclo:
    c = QCyclo.rational(Fraction(rng.randint(-5, 5) or 1, rng.choice((1, 2, 3))))
    if rng.random() < 0.3:
        n = rng.choice((2, 3, 4, 6))
        c = c * QCyclo.from_coordinate(Coordinate.of(Fraction(rng.randrange(n), n)))
    return c


def random_symlaurent(rng: random.Random, n: int, maxdeg: int = 6) -> SymLaurent:
    terms = {}
    for _ in range(rng.randint(1, 3)):
        deg = rng.randint(0, maxdeg)
        parts = []
        while deg > 0 and len(parts) < n:
            p = rng.randint(1, deg)
            parts.append(p)
            deg -= p
        lam = tuple(sorted(parts, reverse=True)) + (0,) * (n - len(parts))
        terms[lam] = random_qcyclo(rng)
    shift = rng.randint(0, 2)
    return SymLaurent(n, shift, terms)


def random_unramified_atom(rng: random.Random, d: int, uid: str) -> CuspidalAtom:
    return CuspidalAtom(uid, "E", 1, d, d, random_coordinate(rng, max_order=12))


def random_unitary_product(rng: random.Random, d: int) -> Product:
    """Unramified unitary product over E of total rank <= 6."""
    factors = []
    rank = 0
    i = 0
    while rank < 6 and (not factors or rng.random() < 0.7):
        atom = random_unramified_atom(rng, d, f"x{rng.randrange(10**6)}.{i}")
        i += 1
        budget = 6 - rank
        if budget >= 2 and rng.random() < 0.3:
            q = rng.randint(1, budget // 2)
            twist = Fraction(rng.randint(-2, 2), 2)
            alpha = Fraction(1, rng.choice((3, 4, 5)))
            f = TwistedPair(Speh(EssDiscrete(atom, 1, twist), q), alpha)
        else:
            q = rng.randint(1, budget)
            twist = Fraction(rng.randint(-2, 2), 2)
            f = Speh(EssDiscrete(atom, 1, twist), q)
        factors.append(f)
        rank += f.rank
    return Product(tuple(factors))


def random_symbolic_product(rng: random.Random, d: int) -> Product:
    """Symbolic (payload-free) unitary product mixing all factor kinds."""
    factors = []
    for i in range(rng.randint(1, 3)):
        r = rng.choice(_divisors(d))
        atom = CuspidalAtom(f"s{rng.randrange(10**6)}.{i}", "E", rng.randint(1, 2), d, r)
        kind = rng.random()
        k = rng.randint(1, 3)
        if kind < 0.4:
            factors.append(Speh(EssDiscrete(atom, k, Fraction(rng.randint(-1, 1))), rng.randint(1, 3)))
        elif kind < 0.6:
            factors.append(
                TwistedPair(Speh(EssDiscrete(atom, k), rng.randint(1, 2)), Fraction(1, 3))
            )
        else:
            levi = rng.choice(list(compositions(k)))
            factors.append(Elliptic(atom, k, levi, rng.randrange(max(atom.g, 1))))
    return Product(tuple(factors))


def random_places(rng: random.Random, d: int, count: int = None) -> tuple:
    count = count or rng.randint(1, 3)
    out = []
    for i in range(count):
        out.append(Place(f"v{i}", d, rng.choice(_divisors(d))))
    return tuple(out)


def random_global_discrete(
    rng: random.Random, d: int, r: int, places, m0: int = None, q: int = None
) -> GlobalDiscrete:
    """E-side discrete datum with sigma^g-stable local data at every place."""
    g = d // r
    m0 = m0 or rng.randint(1, 2)
    q = q or rng.randint(1, 2)
    locals_ = {}
    for v in places:
        p = gcd(v.e, g)
        base = [
            SatakeParam(tuple(random_coordinate(rng, 12) for _ in range(m0)))
            for _ in range(p)
        ]
        blocks = tuple(base[i % p] for i in range(v.e))
        locals_[v.label] = SphericalRepE(v.algebra, blocks)
    return GlobalDiscrete(f"L{rng.randrange(10**6)}", "E", d, r, q, places, locals_)


# ---------------------------------------------------------------------------
# The runner of every seeded criterion


def _seeded(name: str, seed: int, cases: int, check) -> PropertyResult:
    """Run ``check(rng, i)`` for i < cases on one generator seeded with ``seed``.

    A check draws its case from ``rng`` and returns a short failure tag, or
    None when the case holds.  The first failure ends the run and names its
    seed and case index: the same seed and case count replay it.
    """
    rng = random.Random(seed)
    for i in range(cases):
        tag = check(rng, i)
        if tag:
            return PropertyResult(name, i + 1, False, f"seed {seed}, case {i}: {tag}")
    return PropertyResult(name, cases, True)


# ---------------------------------------------------------------------------
# Criterion 1: the lifting map does not depend on the choice of roots


def crit1_delta_well_defined(seed: int, cases: int) -> PropertyResult:
    def check(rng, i):
        d = rng.choice((2, 3, 4, 6))
        alg = random_algebra(rng, d)
        m = rng.randint(1, 3)
        y = random_spherical(rng, alg, m)
        ref = delta_map(y)
        s = alg.s
        base = [c.root(s) for c in y.flatten().coords]
        mu = primitive_root(s)
        for choice in itertools.product(range(s), repeat=len(base)):
            roots = [mu**j * t for j, t in zip(choice, base)]
            spread = [alg.zeta**j * t for j in range(s) for t in roots]
            if SatakeParam(tuple(spread)) != ref:
                return f"roots {choice}"

    return _seeded("delta well-definedness", seed, cases, check)


# ---------------------------------------------------------------------------
# Criteria 2/3: transfer homomorphisms against the substitution oracle


def crit2_hecke_oracle(seed: int, cases: int) -> PropertyResult:
    def check(rng, i):
        d = rng.choice((2, 3))
        alg = random_algebra(rng, d)
        m = rng.randint(1, 6 // d)
        n = m * d
        f = random_symlaurent(rng, n)
        y = random_spherical(rng, alg, m, max_order=12)
        lhs = satake_eval(f, delta_map(y))
        rhs = satake_eval(ai_transfer(f, alg), y.flatten())
        if lhs != rhs:
            return "oracle"

    return _seeded("induction transfer oracle", seed, cases, check)


def crit3_bc_oracle(seed: int, cases: int) -> PropertyResult:
    def check(rng, i):
        d = rng.choice((2, 3))
        alg = random_algebra(rng, d)
        n = rng.randint(1, 3)
        y = SatakeParam(tuple(random_coordinate(rng, 12) for _ in range(n)))
        factors = [random_symlaurent(rng, n, maxdeg=4) for _ in range(alg.r)]
        z = bc_map(y, alg)
        lhs = QCyclo.rational(1)
        for g, b in zip(factors, z.blocks):
            lhs = lhs * satake_eval(g, b)
        rhs = satake_eval(bc_transfer(factors, alg), y)
        if lhs != rhs:
            return "oracle"

    return _seeded("base-change transfer oracle", seed, cases, check)


# ---------------------------------------------------------------------------
# Criterion 4: central character of the lift


def crit4_central_character(seed: int, cases: int) -> PropertyResult:
    def check(rng, i):
        d = rng.choice((2, 3, 4, 6))
        alg = random_algebra(rng, d)
        m = rng.randint(1, 3)
        y = random_spherical(rng, alg, m)
        lhs = delta_map(y).central_character()
        c = m * alg.r * (alg.s * (alg.s - 1) // 2)
        rhs = alg.zeta**c * y.flatten().central_character()
        if lhs != rhs:
            return "central character"

    return _seeded("central-character identity", seed, cases, check)


# ---------------------------------------------------------------------------
# Criterion 5: fibers against brute-force enumeration


def _brute_ai_fiber(pi: SatakeParam, alg: CyclicAlgebra):
    cands = sorted({c**alg.s for c in pi.coords})
    m = pi.rank // alg.d
    out = set()
    block_choices = list(itertools.combinations_with_replacement(cands, m))
    for blocks in itertools.product(block_choices, repeat=alg.r):
        y = SphericalRepE(alg, tuple(SatakeParam(b) for b in blocks))
        if delta_map(y) == pi:
            out.add(y)
    return out


def _brute_bc_fiber(z: SphericalRepE):
    alg = z.algebra
    block = z.blocks[0]
    cands = sorted(
        {primitive_root(alg.s) ** j * c.root(alg.s) for c in block.coords for j in range(alg.s)}
    )
    out = set()
    for coords in itertools.combinations_with_replacement(cands, block.rank):
        y = SatakeParam(coords)
        if bc_map(y, alg) == z:
            out.add(y)
    return out


def crit5_fibers(seed: int, cases: int) -> PropertyResult:
    """Cases below ``max(1, cases // 2)`` check ai fibers, the rest bc fibers."""
    per = max(1, cases // 2)

    def check(rng, i):
        d = rng.choice((2, 3, 4))
        alg = random_algebra(rng, d)
        if i < per:
            m = max(1, min(rng.randint(1, 2), 4 // d))
            y = random_spherical(rng, alg, m, max_order=8)
            pi = delta_map(y)
            fib = ai_fiber(pi, alg)
            if y not in fib or fib != _brute_ai_fiber(pi, alg):
                return "ai fiber"
        else:
            n = rng.randint(1, 3)
            y = SatakeParam(tuple(random_coordinate(rng, 8) for _ in range(n)))
            z = bc_map(y, alg)
            fib = bc_fiber(z)
            if y not in fib or fib != _brute_bc_fiber(z):
                return "bc fiber"

    return _seeded("fiber enumeration", seed, 2 * per, check)


# ---------------------------------------------------------------------------
# Criteria 6/7: specialization consistency


def crit6_trivial_chain() -> PropertyResult:
    n = 0
    for d in (1, 2, 3, 4):
        for m in (1, 2, 3, 4):
            atom = CuspidalAtom(f"triv:{d}", "E", 1, d, d, ONE)
            tau = Product((Speh(EssDiscrete(atom, 1), m),))
            n += 1
            if specialize(lift_unitary(tau)) != delta_map(specialize(tau)):
                return PropertyResult("trivial-character chain", n, False, f"d={d} m={m}")
    return PropertyResult("trivial-character chain", n, True)


def crit7_consistency_square(seed: int, cases: int) -> PropertyResult:
    def check(rng, i):
        d = rng.choice((2, 3, 4))
        tau = random_unitary_product(rng, d)
        if specialize(lift_unitary(tau)) != delta_map(specialize(tau)):
            return "square"

    return _seeded("specialization square", seed, cases, check)


# ---------------------------------------------------------------------------
# Criterion 8: elliptic combinatorics


def crit8_elliptic(kmax: int = 5) -> PropertyResult:
    n = 0
    for d, r in ((2, 1), (2, 2), (4, 2), (6, 3)):
        atom = CuspidalAtom(f"ell:{d}.{r}", "E", 1, d, r)
        for k in range(1, kmax + 1):
            levis = list(compositions(k))
            if len(levis) != 2 ** (k - 1):
                return PropertyResult("elliptic combinatorics", n, False, f"count k={k}")
            images = [lift_unitary(Elliptic(atom, k, lv)) for lv in levis]
            seen = set()
            for im in images:
                key = tuple((f.k, f.levi, f.translate) for f in im.factors)
                seen.add(key)
            if len(seen) != len(levis):
                return PropertyResult("elliptic combinatorics", n, False, f"injectivity k={k}")
            square = [
                im
                for im in images
                if all(f.is_square_integrable() for f in im.factors)
            ]
            if len(square) != 1:
                return PropertyResult("elliptic combinatorics", n, False, f"sq-int k={k}")
            n += len(levis)
    return PropertyResult("elliptic combinatorics", n, True)


# ---------------------------------------------------------------------------
# Criterion 9: separation lemma shadow


def crit9_lemma46(seed: int, cases: int) -> PropertyResult:
    def check(rng, i):
        d = rng.randint(1, 4)
        l = rng.randint(1, 4)
        l_p = rng.randint(1, 4)
        g = gcd(l, l_p)
        # l copies of delta and l_p of delta_p must agree as one multiset, so
        # both are repetitions of a common core; ranks stay <= 8
        core_size = rng.randint(1, max(1, 8 * g // max(l, l_p)))
        core = [random_coordinate(rng, 8) for _ in range(core_size)]
        delta = SatakeParam(tuple(core * (l_p // g)))
        delta_p = SatakeParam(tuple(core * (l // g)))
        if not lemma46_local_identity(delta, l, delta_p, l_p, d):
            return "identity"

    return _seeded("Euler-factor identity", seed, cases, check)


def crit9_separate(seed: int, cases: int) -> PropertyResult:
    def check(rng, i):
        d = rng.choice((2, 3, 4))
        r = rng.choice(_divisors(d))
        places = random_places(rng, d)
        delta = random_global_discrete(rng, d, r, places)
        l = rng.randint(1, 3)
        Pi = InducedGlobal((delta,) * l)
        j = rng.randrange(d)
        twisted = InducedGlobal((delta.translated(j),) * l)
        v = separate(Pi, twisted)
        if v.distinct or v.l != l:
            return "twist"
        if delta.translated(v.gamma) != delta.translated(j):
            return "gamma"
        # a fresh draw can be a Galois translate of delta (common at one place
        # with rank-1 blocks): check the verdict against a rotation of the blocks
        other = random_global_discrete(rng, d, r, places, m0=delta.cusp_rank, q=delta.q)
        v2 = separate(Pi, InducedGlobal((other,) * l))
        pairs = [(delta.cusp_locals[k].blocks, other.cusp_locals[k].blocks) for k in delta.cusp_locals]
        translate = any(
            all(a[t % len(a) :] + a[: t % len(a)] == b for a, b in pairs) for t in range(d)
        )
        if v2.distinct == translate:
            return "distinct"

    return _seeded("separation verdicts", seed, cases, check)


# ---------------------------------------------------------------------------
# Criterion 10: global compatibility


def crit10_compat(seed: int, cases: int) -> PropertyResult:
    def check(rng, i):
        d = rng.choice((2, 3, 4))
        r = rng.choice((1, d))
        places = random_places(rng, d)
        Pi = random_global_discrete(rng, d, r, places)
        try:
            if not check_global_compat(Pi):
                return "compat"
        except Exception as exc:
            return repr(exc)
        lift = global_ai_lift(Pi)
        for v in places:
            if lift.local(v) != delta_map(Pi.local(v)):
                return f"lift at {v.label}"
        # a Galois translate has the same lift; j from i keeps the draws of later cases
        if not rigidity_check(lift, global_ai_lift(Pi.translated(1 + i % (d - 1)))):
            return "rigidity"

    return _seeded("global compatibility", seed, cases, check)


# ---------------------------------------------------------------------------
# Criterion 11: genericity


def crit11_genericity(seed: int, cases: int) -> PropertyResult:
    def check(rng, i):
        d = rng.choice((2, 3, 4, 6))
        tau = random_symbolic_product(rng, d)
        if is_generic(tau) != is_generic(lift_unitary(tau)):
            return "genericity"
        pi = lift_unitary(tau)
        for fib in fiber_unitary(pi, tau):
            if lift_unitary(fib) != pi:
                return "fiber"

    return _seeded("genericity equivalence", seed, cases, check)


# ---------------------------------------------------------------------------
# Suites: (criterion, default case count); None marks a criterion with fixed
# inputs, called with no arguments.


SUITES = {
    "satake": ((crit1_delta_well_defined, 100), (crit4_central_character, 100), (crit5_fibers, 60)),
    "hecke": ((crit2_hecke_oracle, 50), (crit3_bc_oracle, 50)),
    "reps": (
        (crit6_trivial_chain, None),
        (crit7_consistency_square, 60),
        (crit8_elliptic, None),
        (crit11_genericity, 60),
    ),
    "global": ((crit9_lemma46, 200), (crit9_separate, 60), (crit10_compat, 60)),
}


def run_suite(name: str, seed: int = 0, cases: int = None) -> List[PropertyResult]:
    """Run the suite ``name``, or every suite for ``"all"``; ``cases``
    overrides each seeded criterion's default count."""
    return [
        fn() if default is None else fn(seed=seed, cases=default if cases is None else cases)
        for key in (SUITES if name == "all" else (name,))
        for fn, default in SUITES[key]
    ]
