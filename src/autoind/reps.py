"""Symbolic lifting calculus over abstract cuspidal atoms.

Cuspidal representations enter the lifting statements only through a handful
of attributes: the rank of their group, the twist-orbit cardinality x (over
F) or Galois-stabilizer cardinality r (over E), and, when unramified, the
value of the underlying character at a uniformizer.  An atom records exactly
these, so segments, Speh representations, unitary products and elliptic
representations become finite symbolic expressions and the lifting maps
become computable functions.

The lift of a discrete datum with stabilizer r over a degree-d field
extension is the r-fold product of twist-translates (exponents 0..r-1) of a
single F-side datum; fibers are Galois orbits, enumerated factorwise.

A :class:`Product` is a multiset of factors of three kinds (:class:`Speh`,
:class:`TwistedPair`, :class:`Elliptic`), which share one protocol: ``atom``,
``translated(j)``, ``lift()``, ``is_generic()``, ``coords(qscale, d)`` and
``to_json()``.  The maps below run factor by factor and never ask the kind.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice, product
from typing import Optional, Tuple

from .arith import Coordinate, Record, json_fraction, json_int, primitive_root, set_field
from .errors import BadOrbit, NoProvenance, NotUnramified, ShapeError
from .satake import (
    MAX_PARTS,
    CyclicAlgebra,
    SatakeParam,
    SphericalRepE,
    check_parts,
    param_of_unramified_character,
)


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


class EssDiscrete(Record):
    """Essentially square-integrable datum: segment of length k, twisted by nu^twist.

    ``translate`` indexes a twist-translate (F side, mod x) or Galois
    translate (E side, mod g) of the atom.
    """

    __slots__ = ("atom", "k", "twist", "translate")

    def __init__(self, atom: CuspidalAtom, k: int, twist: Fraction = Fraction(0),
                 translate: int = 0):
        if k < 1:
            raise ValueError("segment length must be >= 1")
        translate %= atom.translates
        set_field(self, "atom", atom)
        set_field(self, "k", k)
        set_field(self, "twist", Fraction(twist))
        set_field(self, "translate", translate)

    @property
    def rank(self) -> int:
        return self.atom.size * self.k

    def sort_key(self):
        return (self.atom.side, self.atom.uid, self.k, self.twist, self.translate)


class Speh(Record):
    """u(base, q): Langlands quotient of the length-q staircase of the base."""

    __slots__ = ("base", "q")

    def __init__(self, base: EssDiscrete, q: int):
        if q < 1:
            raise ValueError("Speh parameter q must be >= 1")
        set_field(self, "base", base)
        set_field(self, "q", q)

    @property
    def atom(self) -> CuspidalAtom:
        return self.base.atom

    @property
    def rank(self) -> int:
        return self.base.rank * self.q

    def twisted(self, c) -> "Speh":
        b = self.base
        return Speh(EssDiscrete(b.atom, b.k, b.twist + Fraction(c), b.translate), self.q)

    def translated(self, j: int) -> "Speh":
        b = self.base
        return Speh(EssDiscrete(b.atom, b.k, b.twist, b.translate + j), self.q)

    def lift(self):
        """The r twist-translates of the same Speh datum over the paired atom."""
        b = self.base
        return _translates(b.atom, lambda a, i: Speh(EssDiscrete(a, b.k, b.twist, i), self.q))

    def is_generic(self) -> bool:
        return self.q == 1

    def coords(self, qscale: int, d: int) -> tuple:
        """Satake coordinates of the spherical member; ``qscale`` is the
        residue degree of the side, applied to q-exponents."""
        b, xi = self.base, self.atom.payload
        if xi is None:
            raise NotUnramified(f"atom {b.atom.uid!r} carries no unramified payload")
        if b.k != 1:
            raise NotUnramified("segments of length > 1 are not spherical")
        if b.atom.side == "F" and b.translate:
            xi = xi * primitive_root(d) ** b.translate
        # nu^c multiplies by q^(-c), scaled by the residue degree of the side
        xi = xi * Coordinate.of(0, -b.twist * qscale)
        return param_of_unramified_character(xi, self.q, qscale).coords

    def to_json(self):
        b = self.base
        twist = [b.twist.numerator, b.twist.denominator]
        return {"kind": "speh", "atom": b.atom.to_json(), "k": b.k, "twist": twist,
                "translate": b.translate, "q": self.q}

    def sort_key(self):
        return (0,) + self.base.sort_key() + (self.q,)


class TwistedPair(Record):
    """u(delta, q; alpha): complementary-series pair nu^alpha u x nu^-alpha u."""

    __slots__ = ("base", "alpha")

    def __init__(self, base: Speh, alpha: Fraction):
        alpha = Fraction(alpha)
        if not 0 < alpha < Fraction(1, 2):
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
        return (self.base.twisted(self.alpha), self.base.twisted(-self.alpha))

    def translated(self, j: int) -> "TwistedPair":
        return TwistedPair(self.base.translated(j), self.alpha)

    def lift(self):
        return (f for half in self._halves() for f in half.lift())

    def is_generic(self) -> bool:
        return self.base.is_generic()

    def coords(self, qscale: int, d: int) -> tuple:
        return tuple(c for half in self._halves() for c in half.coords(qscale, d))

    def to_json(self):
        alpha = [self.alpha.numerator, self.alpha.denominator]
        return dict(self.base.to_json(), kind="pair", alpha=alpha)

    def sort_key(self):
        return (1,) + self.base.sort_key() + (self.alpha,)


class Elliptic(Record):
    """Elliptic datum u~(atom, k; levi).

    ``levi`` is a composition of k; actual block sizes are levi entries times
    the atom size (see :meth:`levi_sizes`).  There are exactly 2^(k-1)
    compositions; levi == (k,) is the essentially square-integrable corner.
    """

    __slots__ = ("atom", "k", "levi", "translate")

    def __init__(self, atom: CuspidalAtom, k: int, levi: Tuple[int, ...], translate: int = 0):
        levi = tuple(levi)
        if sum(levi) != k or any(p < 1 for p in levi):
            raise ValueError(f"{levi} is not a composition of {k}")
        set_field(self, "atom", atom)
        set_field(self, "k", k)
        set_field(self, "levi", levi)
        set_field(self, "translate", translate % atom.translates)

    @property
    def rank(self) -> int:
        return self.atom.size * self.k

    def levi_sizes(self) -> Tuple[int, ...]:
        return tuple(m * self.atom.size for m in self.levi)

    def is_square_integrable(self) -> bool:
        return self.levi == (self.k,)

    is_generic = is_square_integrable

    def translated(self, j: int) -> "Elliptic":
        return Elliptic(self.atom, self.k, self.levi, self.translate + j)

    def lift(self):
        """Same composition over the paired atom.

        The Levi block sizes multiply by g through the atom size, so the
        normalized composition of k is unchanged; the square-integrable corner
        (levi = (k,)) maps to the square-integrable corner.
        """
        return _translates(self.atom, lambda atomF, i: Elliptic(atomF, self.k, self.levi, i))

    def coords(self, qscale: int, d: int) -> tuple:
        if self.k != 1:
            raise NotUnramified("elliptic data of length > 1 have no spherical member")
        return Speh(EssDiscrete(self.atom, 1, translate=self.translate), 1).coords(qscale, d)

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

    @property
    def rank(self) -> int:
        return sum(f.rank for f in self.factors)

    def sort_key(self):
        return tuple(f.sort_key() for f in self.factors)

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


def _translates(atom: CuspidalAtom, make):
    """The r factors ``make(atomF, i)``, i < r, over the paired atom atomF, lazily.

    The translate index of the source is dropped: Galois translates share a
    lift, which is what makes the fibers Galois orbits.
    """
    if atom.side != "E":
        raise ShapeError("lifting is defined on E-side data")
    atomF = pair_atom(atom)
    return (make(atomF, i) for i in range(atom.orbit))


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
    """All E-side products lifting to pi: factorwise Galois translates of source."""
    if lift_unitary(source) != pi:
        raise NoProvenance("the given product is not a lift of the given source")
    translates = [[f.translated(j) for j in range(f.atom.g)] for f in _factors(source)]
    return {Product(choice) for choice in product(*translates)}


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
    twist = json_fraction(doc.get("twist", [0, 1]), "twist")
    speh = Speh(EssDiscrete(atom, k, twist, translate), json_int(doc.get("q", 1), "q"))
    if kind == "speh":
        return speh
    return TwistedPair(speh, json_fraction(doc["alpha"], "alpha"))
