"""Symbolic lifting calculus over abstract cuspidal atoms.

Cuspidal representations enter the lifting statements only through a handful
of attributes: the rank of their group, the twist-orbit cardinality x (over
F) or Galois-stabilizer cardinality r (over E), and, when unramified, the
value of the underlying character at a uniformizer.  An atom records exactly
these, so segments, Speh representations, unitary products and elliptic
representations become finite symbolic expressions and the lifting maps
become computable functions.  A twist nu^c and a complementary-series exponent
alpha are kept as q-only Coordinates q^c and q^alpha, which order by value.

The lift of a discrete datum with stabilizer r over a degree-d field
extension is the r-fold product of twist-translates (exponents 0..r-1) of a
single F-side datum; fibers are Galois orbits, enumerated factorwise.

A :class:`Product` is a multiset of factors of three kinds (:class:`Speh`,
:class:`TwistedPair`, :class:`Elliptic`), which share one protocol: ``atom``,
``translated(j)``, ``lift()``, ``is_generic()``, ``coords(qscale, d)`` and
``to_json()``.  The maps below run factor by factor and never ask the kind.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations_with_replacement, islice, product
from math import comb, prod
from typing import Optional, Tuple

from .values import Coordinate, Record, _reduced, json_int, json_pair, primitive_root, set_field
from .errors import MAX_PARTS, BadOrbit, NoProvenance, NotUnramified, ShapeError, check_parts


class CuspidalAtom(Record):
    """Opaque cuspidal label with the attributes the lifting maps consume.

    ``orbit`` is x (twist-orbit size) on the F side and r (Galois-stabilizer
    size) on the E side; both divide d.  ``payload`` marks an unramified
    atom: the value of its character at a uniformizer.  Unramified characters
    are Galois-stable, so a payload forces size 1 and (on the E side) full
    stabilizer.
    """

    __slots__ = ("uid", "side", "size", "d", "orbit", "payload")

    def __init__(self, uid: str, side: str, size: int, d: int, orbit: int,
                 payload: Optional[Coordinate] = None):
        if side not in ("E", "F"):
            raise ValueError("side must be 'E' or 'F'")
        if size < 1 or d < 1:
            raise ValueError("size and d must be >= 1")
        if orbit < 1 or d % orbit:
            raise BadOrbit(f"orbit cardinality {orbit} does not divide d={d}")
        if payload is not None:
            if size != 1:
                raise NotUnramified("unramified payload requires a rank-1 atom")
            if side == "E" and orbit != d:
                raise NotUnramified("unramified atoms over E are Galois-stable (r = d)")
        set_field(self, "uid", uid)
        set_field(self, "side", side)
        set_field(self, "size", size)
        set_field(self, "d", d)
        set_field(self, "orbit", orbit)
        set_field(self, "payload", payload)

    @property
    def g(self) -> int:
        """Orbit complement: Galois-orbit size (E side) or d/x (F side)."""
        return self.d // self.orbit

    @property
    def translates(self) -> int:
        """Modulus of translate indices: x twist-translates (F) or g Galois translates (E)."""
        return self.orbit if self.side == "F" else self.g

    def to_json(self):
        doc = {"id": self.uid, "side": self.side, "size": self.size, "d": self.d}
        doc["r" if self.side == "E" else "x"] = self.orbit
        if self.payload is not None:
            doc["payload"] = self.payload.to_json()
        return doc

    @classmethod
    def from_json(cls, doc) -> "CuspidalAtom":
        key = "r" if "r" in doc else "x"
        size, d, orbit = (json_int(doc[k], k) for k in ("size", "d", key))
        payload = Coordinate.from_json(doc["payload"]) if "payload" in doc else None
        return cls(doc["id"], doc["side"], size, d, orbit, payload)


def _q_power(c) -> Coordinate:  # q^c from an int or Fraction c, or from q^c itself
    if isinstance(c, Coordinate) and c.n > 1:
        raise ValueError("a twist or an alpha must be a power of q")
    return c if isinstance(c, Coordinate) else Coordinate(0, c)


def _translated(x, j: int):  # Speh and Elliptic: the translate index moves by j
    return x._derive(translate=(x.translate + j) % x.atom.translates)


def _speh(atom: CuspidalAtom, k: int, twist, translate: int, q: int) -> "Speh":
    """The one builder of a Speh datum: checks k and q, reads the twist as q^c
    and reduces the translate.  ``Speh``, ``EssDiscrete``, copy and pickle call it."""
    if k < 1:
        raise ValueError("segment length must be >= 1")
    if q < 1:
        raise ValueError("Speh parameter q must be >= 1")
    x = object.__new__(Speh)
    set_field(x, "atom", atom)
    set_field(x, "k", k)
    set_field(x, "twist", _q_power(twist))
    set_field(x, "translate", translate % atom.translates)
    set_field(x, "q", q)
    return x


def EssDiscrete(atom: CuspidalAtom, k: int, twist=0, translate: int = 0) -> "Speh":
    """The segment delta of length k over the atom, twisted by nu^c (``twist``
    is c, or q^c), as its Speh datum u(delta, 1) = delta.  ``translate`` indexes
    a twist-translate (F side, mod x) or Galois translate (E side, mod g)."""
    return _speh(atom, k, twist, translate, 1)


class Speh(Record):
    """u(delta, q): Langlands quotient of the length-q staircase of the segment
    delta, which has length k over the atom, twist q^c and a translate index."""

    __slots__ = ("atom", "k", "twist", "translate", "q")

    def __new__(cls, base: "Speh", q: int):
        if base.q != 1:
            raise ValueError("the base of a Speh datum is a segment (q = 1)")
        return _speh(base.atom, base.k, base.twist, base.translate, q)

    __reduce__ = lambda self: (_speh, self._values(self))  # copy and pickle by the fields

    @property
    def rank(self) -> int:
        return self.atom.size * self.k * self.q

    def twisted(self, t: Coordinate) -> "Speh":  # by nu^c more, for t = q^c
        return self._derive(twist=self.twist * t)

    translated = _translated

    def lift(self):
        """The r twist-translates of the same Speh datum over the paired atom."""
        return _translates(self)

    def is_generic(self) -> bool:
        return self.q == 1

    def coords(self, qscale: int, d: int) -> tuple:
        """Satake coordinates of the spherical member; ``qscale`` is the
        residue degree of the side, applied to q-exponents."""
        xi = self.atom.payload
        if xi is None:
            raise NotUnramified(f"atom {self.atom.uid!r} carries no unramified payload")
        if self.k != 1:
            raise NotUnramified("segments of length > 1 are not spherical")
        if self.atom.side == "F" and self.translate:
            xi = xi * primitive_root(d) ** self.translate
        # nu^c multiplies by q^(-c), scaled by the residue degree of the side
        xi = xi * self.twist ** -qscale
        from .satake import staircase  # the lift verbs never get here
        return tuple(staircase(xi, self.q, qscale))

    def to_json(self):
        return {"kind": "speh", "atom": self.atom.to_json(), "k": self.k,
                "twist": [self.twist.p, self.twist.r], "translate": self.translate, "q": self.q}

    def sort_key(self):
        return (0, self.atom.side, self.atom.uid, self.k, self.twist, self.translate, self.q)


class TwistedPair(Record):
    """u(delta, q; alpha): complementary-series pair nu^alpha u x nu^-alpha u; alpha is q^alpha."""

    __slots__ = ("base", "alpha")

    def __init__(self, base: Speh, alpha):
        alpha = _q_power(alpha)
        if not 0 < 2 * alpha.p < alpha.r:
            raise ValueError("alpha must lie in (0, 1/2)")
        set_field(self, "base", base)
        set_field(self, "alpha", alpha)

    @property
    def atom(self) -> CuspidalAtom:
        return self.base.atom

    @property
    def rank(self) -> int:
        return 2 * self.base.rank

    def _halves(self) -> tuple:
        """nu^alpha u and nu^-alpha u: lift and Satake data go half by half."""
        return (self.base.twisted(self.alpha), self.base.twisted(self.alpha.inverse()))

    def translated(self, j: int) -> "TwistedPair":
        return self._derive(base=self.base.translated(j))

    def lift(self):
        return (f for half in self._halves() for f in half.lift())

    def is_generic(self) -> bool:
        return self.base.is_generic()

    def coords(self, qscale: int, d: int) -> tuple:
        return tuple(c for half in self._halves() for c in half.coords(qscale, d))

    def to_json(self):
        return dict(self.base.to_json(), kind="pair", alpha=[self.alpha.p, self.alpha.r])

    def sort_key(self):
        return (1,) + self.base.sort_key() + (self.alpha,)


class Elliptic(Record):
    """Elliptic datum u~(atom, k; levi).

    ``levi`` is a composition of k; actual block sizes are levi entries times
    the atom size.  There are exactly 2^(k-1) compositions; levi == (k,) is
    the essentially square-integrable corner.
    """

    __slots__ = ("atom", "k", "levi", "translate")

    def __init__(self, atom: CuspidalAtom, k: int, levi: Tuple[int, ...], translate: int = 0):
        if k < 1:
            raise ValueError("segment length must be >= 1")
        levi = tuple(levi)
        if sum(levi) != k or any(p < 1 for p in levi):
            raise ValueError(f"{levi} is not a composition of {k}")
        set_field(self, "atom", atom)
        set_field(self, "k", k)
        set_field(self, "levi", levi)
        set_field(self, "translate", translate % atom.translates)

    def is_square_integrable(self) -> bool:
        return self.levi == (self.k,)

    is_generic = is_square_integrable

    translated = _translated

    def lift(self):
        """Same composition over the paired atom.

        The Levi block sizes multiply by g through the atom size, so the
        normalized composition of k is unchanged; the square-integrable corner
        (levi = (k,)) maps to the square-integrable corner.
        """
        return _translates(self)

    def coords(self, qscale: int, d: int) -> tuple:
        if self.k != 1:
            raise NotUnramified("elliptic data of length > 1 have no spherical member")
        return EssDiscrete(self.atom, 1, translate=self.translate).coords(qscale, d)

    def to_json(self):
        return {"kind": "elliptic", "atom": self.atom.to_json(), "k": self.k,
                "levi": list(self.levi), "translate": self.translate}

    def sort_key(self):
        return (2, self.atom.side, self.atom.uid, self.k, self.levi, self.translate)


class Product(Record):
    """Canonically sorted multiset of factors (Speh, TwistedPair or Elliptic)."""

    __slots__ = ("factors",)

    def __init__(self, factors: Tuple):
        set_field(self, "factors", tuple(sorted(factors, key=lambda f: f.sort_key())))

    def to_json(self):
        return {"kind": "product", "factors": [f.to_json() for f in self.factors]}


def _factors(x) -> tuple:
    """The factors of a Product; a single factor stands for itself."""
    return x.factors if isinstance(x, Product) else (x,)


def compositions(k: int):
    """All 2^(k-1) compositions of k, in lex order."""
    if k == 0:
        yield ()
        return
    for first in range(1, k + 1):
        for rest in compositions(k - first):
            yield (first,) + rest


# ---------------------------------------------------------------------------
# Atom pairing


def pair_atom(atom: CuspidalAtom) -> CuspidalAtom:
    """The F-side cuspidal atom paired with an E-side one.

    Size multiplies by the Galois-orbit cardinality g; the twist-orbit size of
    the image is the stabilizer size r of the source; an unramified payload
    maps to its canonical d-th root.
    """
    if atom.side != "E":
        raise ShapeError("pairing is defined on E-side atoms")
    payload = atom.payload.root(atom.d) if atom.payload is not None else None
    return CuspidalAtom(f"ai:{atom.uid}", "F", atom.size * atom.g, atom.d, atom.orbit, payload)


# ---------------------------------------------------------------------------
# Lifting maps


def _translates(x):
    """The lift of a Speh or Elliptic datum x: its r translates i < r over the
    paired atom, lazily.  The translate index of x is dropped: Galois translates
    share a lift, which is what makes the fibers Galois orbits."""
    if x.atom.side != "E":
        raise ShapeError("lifting is defined on E-side data")
    atomF = pair_atom(x.atom)
    return (x._derive(atom=atomF, translate=i) for i in range(x.atom.orbit))


def lift_unitary(tau) -> Product:
    """Factorwise lift of a unitary product (or a single factor); preserves
    genericity.  The factors come lazily, so a lift of more than ``MAX_PARTS``
    factors is refused after building one more than that."""
    lifted = tuple(islice((f for x in _factors(tau) for f in x.lift()), MAX_PARTS + 1))
    check_parts(len(lifted), "factors")
    return Product(lifted)


# ---------------------------------------------------------------------------
# Fibers


def fiber_unitary(pi: Product, source: Product) -> set[Product]:
    """All E-side products lifting to pi: an orbit of n source factors under Galois
    translates takes a multiset of n of its g translates, prod C(g + n - 1, n)
    members in all; past ``MAX_PARTS`` factors in all, none is built."""
    factors = _factors(source)
    orbits = Counter(frozenset(f.translated(j) for j in range(f.atom.g)) for f in factors)
    check_parts(prod(comb(len(o) + n - 1, n) for o, n in orbits.items()) * len(factors), "factors")
    if lift_unitary(source) != pi:
        raise NoProvenance("the given product is not a lift of the given source")
    picks = [combinations_with_replacement(tuple(o), n) for o, n in orbits.items()]
    return {Product(tuple(f for part in choice for f in part)) for choice in product(*picks)}


# ---------------------------------------------------------------------------
# Genericity and specialization


def is_generic(x) -> bool:
    """Generic = every unitary building block has q = 1; elliptic data are
    generic exactly at the square-integrable corner."""
    return all(f.is_generic() for f in _factors(x))


def specialize(x):
    """Satake datum of a spherical expression.

    E-side products give a :class:`SphericalRepE` over the degree-d field
    extension (residue-degree scale d on q-exponents); F-side products give a
    plain :class:`SatakeParam`.
    """
    factors = _factors(x)
    if not factors:
        raise ShapeError("cannot specialize an empty product")
    shapes = {(f.atom.side, f.atom.d) for f in factors}
    if len(shapes) > 1:
        raise ShapeError("factors must share one side and one extension degree")
    ((side, d),) = shapes
    qscale = d if side == "E" else 1
    from .satake import CyclicAlgebra, SatakeParam, SphericalRepE  # the lift verbs need none
    param = SatakeParam(tuple(c for f in factors for c in f.coords(qscale, d)))
    if side == "F":
        return param
    return SphericalRepE(CyclicAlgebra.field(d), (param,))


# ---------------------------------------------------------------------------
# JSON expression trees


def factor_from_json(doc):
    """Parse one factor, or a product of factors; products do not nest."""
    kind = doc.get("kind")
    if kind == "product":
        if any(x.get("kind") == "product" for x in doc["factors"]):
            raise ValueError("a product cannot be a factor of a product")
        return Product(tuple(factor_from_json(x) for x in doc["factors"]))
    if kind not in ("speh", "pair", "elliptic"):
        raise ShapeError(f"unknown expression kind {kind!r}")
    atom = CuspidalAtom.from_json(doc["atom"])
    k, translate = json_int(doc["k"], "k"), json_int(doc.get("translate", 0), "translate")
    if kind == "elliptic":
        return Elliptic(atom, k, tuple(json_int(p, "levi") for p in doc["levi"]), translate)
    twist = _reduced(0, 1, *json_pair(doc.get("twist", [0, 1]), "twist"))
    speh = _speh(atom, k, twist, translate, json_int(doc.get("q", 1), "q"))
    if kind == "speh":
        return speh
    return TwistedPair(speh, _reduced(0, 1, *json_pair(doc["alpha"], "alpha")))
