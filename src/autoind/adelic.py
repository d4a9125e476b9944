"""Synthetic global layer: finite place sets with unramified local data.

A "global field" here is nothing but a finite list of places, each carrying
the residue degree f_v of the degree-d cyclic extension above it; the local
picture at v is the cyclic algebra with e_v = d/f_v factors.  A discrete
datum u(Lambda, q) stores its cuspidal local parameters at every place and
derives the Speh local components by the staircase construction.  The global
lifting map, rigidity, the Euler-factor identity and the separation argument
are then all placewise-checkable statements.

The Galois generator acts at a place by rotating the e_v local blocks; the
twist character acts by the place's root of unity zeta_v of order f_v.  The
global lift reads its F-side datum off the E-side blocks, in closed form;
separation searches the Galois translates, which act at v modulo e_v.
"""

from __future__ import annotations

from collections import Counter
from math import gcd, lcm
from typing import Dict, Optional, Tuple

from .values import Coordinate, CyclicAlgebra, Record, json_int, set_field
from .errors import BadOrbit, HypothesisViolated, LocalMismatch, PlaceSetMismatch, ShapeError, check_parts
from .satake import SatakeParam, SphericalRepE, check_ia_bc_compat, delta_map, staircase


class _LocalAlgebra:
    """The slot of a place's local algebra, outside the fields of :class:`Place`,
    so its equality, hash, repr, copy and pickle go by (label, d, f) alone."""

    __slots__ = ("algebra",)


class Place(Record, _LocalAlgebra):
    """A place of the base field: residue degree f of the extension above it.
    Its local algebra ``CyclicAlgebra(d, e, f)`` is built once, by the constructor."""

    __slots__ = ("label", "d", "f")

    def __init__(self, label: str, d: int, f: int):
        if f < 1 or d % f:
            raise BadOrbit(f"residue degree {f} does not divide d={d}")
        set_field(self, "label", label)
        set_field(self, "d", d)
        set_field(self, "f", f)
        set_field(self, "algebra", CyclicAlgebra(d, d // f, f))

    @property
    def e(self) -> int:
        """Number of places above: blocks of the local algebra."""
        return self.d // self.f

    @property
    def zeta(self) -> Coordinate:
        return self.algebra.zeta

    def to_json(self):
        return {"label": self.label, "f": self.f}

    @classmethod
    def all_from_json(cls, doc) -> Tuple[int, Tuple["Place", ...]]:
        """d and the places of a global document ``{"d": d, "places": [..]}``."""
        d = json_int(doc["d"], "d")
        return d, tuple(cls(p["label"], d, json_int(p["f"], "f")) for p in doc["places"])


def _staircase(y: SatakeParam, q: int, qscale: int) -> SatakeParam:
    """Replace every coordinate c of y by the staircase of c of length q; more
    than ``MAX_PARTS`` coordinates are refused before any is built."""
    check_parts(q * y.rank, "coordinates")
    return SatakeParam(tuple(x for c in y.coords for x in staircase(c, q, qscale)))


class GlobalDiscrete(Record):
    """Discrete datum u(Lambda, q) (side E) or u(rho, q) (side F).

    ``orbit`` is the Galois-stabilizer cardinality r(Lambda) on the E side
    and the twist-orbit cardinality x(rho) on the F side.  ``cusp_locals``
    maps place labels to the cuspidal local parameter; :meth:`local` builds
    the Speh component.  ``translate`` indexes a Galois translate (E) or a
    twist translate (F).
    """

    __slots__ = ("label", "side", "d", "orbit", "q", "places", "cusp_locals", "translate")

    def __init__(self, label: str, side: str, d: int, orbit: int, q: int,
                 places: Tuple[Place, ...], cusp_locals: Dict[str, object], translate: int = 0):
        if side not in ("E", "F"):
            raise ValueError("side must be 'E' or 'F'")
        if orbit < 1 or d % orbit:
            raise BadOrbit(f"orbit {orbit} does not divide d={d}")
        if q < 1:
            raise ValueError("q must be >= 1")
        if not places:
            raise PlaceSetMismatch("the place set is empty")
        set_field(self, "label", label)
        set_field(self, "side", side)
        set_field(self, "d", d)
        set_field(self, "orbit", orbit)
        set_field(self, "q", q)
        set_field(self, "places", places)
        set_field(self, "cusp_locals", cusp_locals)
        set_field(self, "translate", translate)
        for v in places:
            if v.label not in cusp_locals:
                raise PlaceSetMismatch(f"no local datum at place {v.label!r}")
            self._validate_local(v)

    def _validate_local(self, v: Place):
        z = self.cusp_locals[v.label]
        if self.side == "E":
            if not isinstance(z, SphericalRepE) or z.algebra != v.algebra:
                raise LocalMismatch(v.label, "local datum has the wrong algebra")
            # the stabilizer of cardinality r is generated by sigma^g
            if z.rotate(self.g) != z:
                raise LocalMismatch(v.label, f"local datum not stable under sigma^{self.g}")
        else:
            if not isinstance(z, SatakeParam):
                raise LocalMismatch(v.label, "expected a parameter over F")
            if z.twist(v.zeta**self.orbit) != z:
                raise LocalMismatch(v.label, "local datum not stable under the order-x twist")

    @property
    def g(self) -> int:
        return self.d // self.orbit

    @property
    def cusp_rank(self) -> int:
        v = self.places[0]
        z = self.cusp_locals[v.label]
        return z.block_rank if self.side == "E" else z.rank

    def translated(self, j: int) -> "GlobalDiscrete":
        """The translate by j more: validation does not read the translate."""
        return self._derive(translate=self.translate + j)

    def cusp_local(self, v: Place):
        """Cuspidal local parameter, with the translate applied."""
        z = self.cusp_locals[v.label]
        if self.side == "E":
            return z.rotate(self.translate % v.e)
        j = self.translate % v.f
        return z.twist(v.zeta**j) if j else z

    def local(self, v: Place):
        """Local component of the Speh datum at v: staircases of length q."""
        z = self.cusp_local(v)
        if self.side == "E":
            return SphericalRepE(z.algebra, tuple(_staircase(b, self.q, v.f) for b in z.blocks))
        return _staircase(z, self.q, 1)

    def sort_key(self):
        return (self.label, self.translate, self.q, self.orbit)

    def __eq__(self, other):
        if other is self:
            return True
        if not isinstance(other, GlobalDiscrete):
            return NotImplemented
        # label, side, d, orbit, q and places first, then the translated local data
        if self._values(self)[:6] != self._values(other)[:6]:
            return False
        return all(self.cusp_local(v) == other.cusp_local(v) for v in self.places)

    def __hash__(self):
        raise TypeError("GlobalDiscrete is not hashable")

    def to_json(self):
        key = "blocks" if self.side == "E" else "coords"
        return {
            "label": self.label,
            "side": self.side,
            "q": self.q,
            "translate": self.translate,
            "r" if self.side == "E" else "x": self.orbit,
            "locals": {v.label: {key: self.cusp_locals[v.label].to_json()[key]} for v in self.places},
        }

    @classmethod
    def from_json(cls, doc, d: int, places: Tuple[Place, ...]) -> "GlobalDiscrete":
        """The datum over the places of its global document; ``locals`` holds
        the cuspidal ``blocks`` (side E) or ``coords`` (side F) at each place."""
        side = doc.get("side", "E")
        orbit = json_int(doc["r"], "r") if "r" in doc else json_int(doc["x"], "x")
        locals_ = {}
        for v in places:
            raw = doc["locals"][v.label]
            if side == "E":
                blocks = tuple(
                    SatakeParam(tuple(Coordinate.from_json(c) for c in b)) for b in raw["blocks"]
                )
                locals_[v.label] = SphericalRepE(v.algebra, blocks)
            else:
                locals_[v.label] = SatakeParam.from_json(raw)
        q = json_int(doc.get("q", 1), "q")
        translate = json_int(doc.get("translate", 0), "translate")
        return cls(doc["label"], side, d, orbit, q, places, locals_, translate)


class InducedGlobal(Record):
    """Parabolically induced product of discrete data, in canonical order."""

    __slots__ = ("factors",)

    def __init__(self, factors: Tuple[GlobalDiscrete, ...]):
        if not factors:
            raise ShapeError("empty induced product")
        if len({f.side for f in factors}) > 1:
            raise ShapeError("factors must live on one side")
        if len({f.places for f in factors}) > 1:
            raise PlaceSetMismatch("factors must share the place set")
        set_field(self, "factors", tuple(sorted(factors, key=lambda f: f.sort_key())))

    @property
    def side(self) -> str:
        return self.factors[0].side

    @property
    def places(self) -> Tuple[Place, ...]:
        return self.factors[0].places

    def local(self, v: Place):
        parts = [f.local(v) for f in self.factors]
        if self.side == "F":
            return SatakeParam(tuple(c for p in parts for c in p.coords))
        blocks = tuple(
            SatakeParam(tuple(c for p in parts for c in p.blocks[i].coords))
            for i in range(v.e)
        )
        return SphericalRepE(v.algebra, blocks)

    def to_json(self):
        return {
            "d": self.factors[0].d,
            "places": [v.to_json() for v in self.places],
            "factors": [f.to_json() for f in self.factors],
        }

    @classmethod
    def isotypic_from_json(cls, doc, d: int, places: Tuple[Place, ...]) -> "InducedGlobal":
        """Delta^l from ``{"rep": Delta, "l": l}``; l is 1 when absent."""
        rep = GlobalDiscrete.from_json(doc["rep"], d, places)
        l = json_int(doc.get("l", 1), "l")
        check_parts(l, "factors")
        return cls((rep,) * l)


# ---------------------------------------------------------------------------
# Global lifting


def global_ai_lift(Pi: GlobalDiscrete) -> InducedGlobal:
    """The r-fold twisted product lifting a discrete datum over E.

    Builds the F-side discrete delta placewise off Pi's cuspidal blocks, with
    no search.  At v (e blocks of degree f, zeta of order f) the blocks repeat
    with period p = gcd(g, e), and delta's datum holds, for each coordinate c
    of the first p blocks, zeta^(h j) top(c) for j < f/h, h = gcd(r, f),
    top(c) the greatest f-th root of c (the roots are one <zeta>-coset).  Each class
    mod h occurs r/h times among the twists zeta^i, i < r, so the r twists
    hold each coset r/h = e/p times, as the lifting map does.  It then
    verifies placewise, on the cuspidal data, that the induced local datum
    equals the lifting map of Pi's local datum; so the work does not grow
    with the Speh length q.
    """
    if Pi.side != "E":
        raise ShapeError("global lift is defined on E-side data")
    r = Pi.orbit
    check_parts(r, "factors")
    cusp_locals: Dict[str, SatakeParam] = {}
    lifted = []  # each place's lifted cuspidal datum, for the coherence check
    for v in Pi.places:
        y = Pi.cusp_local(v)
        lifted.append(delta_map(y))  # refuses m d past MAX_PARTS: the tops cost m p f <= m d
        coset = [v.zeta**i for i in range(v.f)]
        firsts = (c for b in y.blocks[: gcd(Pi.g, v.e)] for c in b.coords)
        tops = [max(c.roots(v.f)) for c in firsts]
        cusp_locals[v.label] = SatakeParam(tuple(z * t for t in tops for z in coset[:: gcd(r, v.f)]))
    delta = GlobalDiscrete(f"ai:{Pi.label}", "F", Pi.d, r, Pi.q, Pi.places, cusp_locals)
    out = InducedGlobal(tuple(delta.translated(i) for i in range(r)))
    for v, image in zip(Pi.places, lifted):
        # delta_map commutes with the staircase, injective on multisets: same as the Speh check
        cusp = SatakeParam(tuple(c for f in out.factors for c in f.cusp_local(v).coords))
        if cusp != image:
            raise LocalMismatch(v.label, "placewise lift coherence failed")
    return out


def rigidity_check(a: InducedGlobal, b: InducedGlobal) -> bool:
    """Local Satake data agree at every stored place (the model's isomorphism)."""
    if a.places != b.places:
        raise PlaceSetMismatch("place sets differ")
    return all(a.local(v) == b.local(v) for v in a.places)


# ---------------------------------------------------------------------------
# The Euler-factor identity of the separation lemma


def _packed(*params: SatakeParam):
    """N and each multiset as int counts ``{t N + i: count}``, t the q-numerator over
    R and i the root index mod N, N and R the lcms of all their q and zeta
    denominators: injective at fixed (N, R)."""
    n = lcm(*(c.n for x in params for c in x.coords))
    r = lcm(*(c.r for x in params for c in x.coords))
    return n, [Counter(c.p * (r // c.r) * n + c.a * (n // c.n) for c in x.coords) for x in params]


def _quotients(a: dict, b: dict, n: int) -> dict:
    """Every quotient x/y of packed x in a and y in b, by int subtraction (plus n
    where the root index would go below 0): m*k for each distinct pair."""
    out = {}
    xs = [(x, x % n, m) for x, m in a.items()]
    for y, k in b.items():
        i = y % n
        for x, j, m in xs:
            key = x - y + n if j < i else x - y
            out[key] = out.get(key, 0) + m * k
    return out


def lemma46_local_identity(
    delta: SatakeParam, l: int, delta_p: SatakeParam, l_p: int, d: int
) -> bool:
    """Local shadow of the separation lemma's Euler-factor identity.

    Requires l copies of delta and l_p copies of delta_p to agree as one
    multiset; then d*l_p copies of the (delta_p, delta) inverse roots must
    equal d*l copies of the (delta, delta) inverse roots.  Both multisets are
    packed once as ints (:func:`_packed`), so both sides are counted over the
    distinct values by int subtraction, one per distinct pair.

    Under the hypothesis the counts of delta_p are l/l_p times those of delta, so
    the identity follows and the verdict is never False: :func:`_quotients` is
    guarded only by ``test_packed_quotients_are_the_packed_list_of_all_quotients``.
    """
    n, (a, b) = _packed(delta, delta_p)
    if _scaled(a, l) != _scaled(b, l_p):
        raise HypothesisViolated("l copies of delta and l' of delta' differ")
    return _scaled(_quotients(b, a, n), d * l_p) == _scaled(_quotients(a, a, n), d * l)


def _scaled(counts: dict, k: int) -> dict:
    """The multiset with every multiplicity multiplied by k."""
    return {c: m * k for c, m in counts.items()}


# ---------------------------------------------------------------------------
# Separation


class Verdict(Record):
    __slots__ = ("distinct", "l", "gamma")

    def __init__(self, distinct: bool, l: Optional[int] = None, gamma: Optional[int] = None):
        set_field(self, "distinct", distinct)
        set_field(self, "l", l)
        set_field(self, "gamma", gamma)

    def to_json(self):
        return {"distinct": self.distinct, "l": self.l, "gamma": self.gamma}


def separate(Pi: InducedGlobal, Pi_p: InducedGlobal) -> Verdict:
    """Decide whether two isotypic products share their twisted weak lift.

    Both inputs must be of the shape Delta^l (all factors equal).  The verdict
    is the translate search alone: not distinct exactly when l = l', q = q'
    and some sigma^gamma Delta (gamma least) has the cuspidal data of Delta'
    at every place.  Equal lifts follow, as the lifting map flattens rotated
    blocks.  sigma^gamma acts at v through gamma mod e_v, and the gammas that
    match at v form a coset j_v + P_v Z, P_v the period of the blocks there,
    found by one linear search of the doubled blocks (a string search, one
    character per block); the least gamma solves the congruences gamma = j_v
    mod P_v.  The Euler-factor identity is checked apart, by
    ``verify.crit9_lemma46``.
    """
    for p in (Pi, Pi_p):
        if p.side != "E":
            raise ShapeError("separation argument applies to E-side products")
        if any(f != p.factors[0] for f in p.factors[1:]):
            raise ShapeError("input is not of the shape Delta^l")
    if Pi.places != Pi_p.places:
        raise PlaceSetMismatch("place sets differ")
    delta, delta_p = Pi.factors[0], Pi_p.factors[0]
    l = len(Pi.factors)
    if l != len(Pi_p.factors) or delta.q != delta_p.q:
        return Verdict(distinct=True)
    gamma, modulus = 0, 1
    for v in Pi.places:
        ids = {}  # one character per distinct block: a rotation by j matches at j
        z, target = ("".join(chr(ids.setdefault(b, len(ids))) for b in f.cusp_local(v).blocks)
                     for f in (delta, delta_p))
        z += z[:-1]  # the rotations of the blocks, each e_v long
        first = z.find(target)
        if first < 0:
            return Verdict(distinct=True)
        second = z.find(target, first + 1)
        gamma, modulus = _crt(gamma, modulus, first, second - first if second > 0 else v.e)
        if gamma is None:
            return Verdict(distinct=True)
    return Verdict(distinct=False, l=l, gamma=gamma)


def _crt(a: int, m: int, b: int, n: int):
    """The least x >= 0 with x = a mod m and x = b mod n, and lcm(m, n); x is
    None when the two congruences have no common solution."""
    g = gcd(m, n)
    if (b - a) % g:
        return None, None
    t = (b - a) // g * pow(m // g, -1, n // g) % (n // g)
    return a + m * t, m * (n // g)


# ---------------------------------------------------------------------------
# Compatibility of the two lifting maps


def check_global_compat(Pi: GlobalDiscrete) -> bool:
    """Base change of the lift matches the Galois-spread product, placewise, on
    the cuspidal data: both maps commute with the staircase, so q adds no work."""
    if Pi.side != "E":
        raise ShapeError("compatibility check is defined on E-side data")
    for v in Pi.places:
        ok, report = check_ia_bc_compat(Pi.cusp_local(v))
        if not ok:
            raise LocalMismatch(v.label, f"composite identity failed: {report}")
    return True
