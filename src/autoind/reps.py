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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Optional, Tuple

from .arith import Coordinate, primitive_root
from .errors import BadOrbit, NoProvenance, NotUnramified, ShapeError
from .satake import CyclicAlgebra, SatakeParam, SphericalRepE, param_of_unramified_character


@dataclass(frozen=True)
class CuspidalAtom:
    """Opaque cuspidal label with the attributes the lifting maps consume.

    ``orbit`` is x (twist-orbit size) on the F side and r (Galois-stabilizer
    size) on the E side; both divide d.  ``payload`` marks an unramified
    atom: the value of its character at a uniformizer.  Unramified characters
    are Galois-stable, so a payload forces size 1 and (on the E side) full
    stabilizer.
    """

    uid: str
    side: str
    size: int
    d: int
    orbit: int
    payload: Optional[Coordinate] = None

    def __post_init__(self):
        if self.side not in ("E", "F"):
            raise ValueError("side must be 'E' or 'F'")
        if self.size < 1 or self.d < 1:
            raise ValueError("size and d must be >= 1")
        if self.orbit < 1 or self.d % self.orbit:
            raise BadOrbit(
                f"orbit cardinality {self.orbit} does not divide d={self.d}"
            )
        if self.payload is not None:
            if self.size != 1:
                raise NotUnramified("unramified payload requires a rank-1 atom")
            if self.side == "E" and self.orbit != self.d:
                raise NotUnramified(
                    "unramified atoms over E are Galois-stable (r = d)"
                )

    @property
    def g(self) -> int:
        """Orbit complement: Galois-orbit size (E side) or d/x (F side)."""
        return self.d // self.orbit

    def to_json(self):
        doc = {"id": self.uid, "side": self.side, "size": self.size, "d": self.d}
        doc["r" if self.side == "E" else "x"] = self.orbit
        if self.payload is not None:
            doc["payload"] = self.payload.to_json()
        return doc

    @classmethod
    def from_json(cls, doc) -> "CuspidalAtom":
        orbit = doc["r"] if "r" in doc else doc["x"]
        payload = Coordinate.from_json(doc["payload"]) if "payload" in doc else None
        return cls(doc["id"], doc["side"], doc["size"], doc["d"], orbit, payload)


@dataclass(frozen=True)
class EssDiscrete:
    """Essentially square-integrable datum: segment of length k, twisted by nu^twist.

    ``translate`` indexes a twist-translate (F side, mod x) or Galois
    translate (E side, mod g) of the atom.
    """

    atom: CuspidalAtom
    k: int
    twist: Fraction = Fraction(0)
    translate: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("segment length must be >= 1")
        mod = self.atom.orbit if self.atom.side == "F" else self.atom.g
        object.__setattr__(self, "translate", self.translate % mod)
        object.__setattr__(self, "twist", Fraction(self.twist))

    @property
    def rank(self) -> int:
        return self.atom.size * self.k

    def sort_key(self):
        return (self.atom.side, self.atom.uid, self.k, self.twist, self.translate)


@dataclass(frozen=True)
class Speh:
    """u(base, q): Langlands quotient of the length-q staircase of the base."""

    base: EssDiscrete
    q: int

    def __post_init__(self):
        if self.q < 1:
            raise ValueError("Speh parameter q must be >= 1")

    @property
    def rank(self) -> int:
        return self.base.rank * self.q

    def twisted(self, c) -> "Speh":
        b = self.base
        return Speh(EssDiscrete(b.atom, b.k, b.twist + Fraction(c), b.translate), self.q)

    def sort_key(self):
        return (0,) + self.base.sort_key() + (self.q,)


@dataclass(frozen=True)
class TwistedPair:
    """u(delta, q; alpha): complementary-series pair nu^alpha u x nu^-alpha u."""

    base: Speh
    alpha: Fraction

    def __post_init__(self):
        a = Fraction(self.alpha)
        if not 0 < a < Fraction(1, 2):
            raise ValueError("alpha must lie in (0, 1/2)")
        object.__setattr__(self, "alpha", a)

    @property
    def rank(self) -> int:
        return 2 * self.base.rank

    def sort_key(self):
        return (1,) + self.base.sort_key() + (self.alpha,)


@dataclass(frozen=True)
class Elliptic:
    """Elliptic datum u~(atom, k; levi).

    ``levi`` is a composition of k; actual block sizes are levi entries times
    the atom size (see :meth:`levi_sizes`).  There are exactly 2^(k-1)
    compositions; levi == (k,) is the essentially square-integrable corner.
    """

    atom: CuspidalAtom
    k: int
    levi: Tuple[int, ...]
    translate: int = 0

    def __post_init__(self):
        levi = tuple(self.levi)
        if sum(levi) != self.k or any(p < 1 for p in levi):
            raise ValueError(f"{levi} is not a composition of {self.k}")
        object.__setattr__(self, "levi", levi)
        mod = self.atom.orbit if self.atom.side == "F" else self.atom.g
        object.__setattr__(self, "translate", self.translate % mod)

    @property
    def rank(self) -> int:
        return self.atom.size * self.k

    def levi_sizes(self) -> Tuple[int, ...]:
        return tuple(m * self.atom.size for m in self.levi)

    def is_square_integrable(self) -> bool:
        return self.levi == (self.k,)

    def sort_key(self):
        return (2, self.atom.side, self.atom.uid, self.k, self.levi, self.translate)


@dataclass(frozen=True)
class Product:
    """Canonically sorted multiset of factors (Speh, TwistedPair or Elliptic)."""

    factors: Tuple

    def __post_init__(self):
        object.__setattr__(
            self, "factors", tuple(sorted(self.factors, key=lambda f: f.sort_key()))
        )

    @property
    def rank(self) -> int:
        return sum(f.rank for f in self.factors)

    def sort_key(self):
        return tuple(f.sort_key() for f in self.factors)


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
    return CuspidalAtom(
        uid=f"ai:{atom.uid}",
        side="F",
        size=atom.size * atom.g,
        d=atom.d,
        orbit=atom.orbit,
        payload=payload,
    )


# ---------------------------------------------------------------------------
# Lifting maps


def _translates(atom: CuspidalAtom, make) -> Product:
    """The r-fold product ``make(atomF, i)``, i < r, over the paired atom atomF.

    The translate index of the source is dropped: Galois translates share a
    lift, which is what makes the fibers Galois orbits.
    """
    if atom.side != "E":
        raise ShapeError("lifting is defined on E-side data")
    atomF = pair_atom(atom)
    return Product(tuple(make(atomF, i) for i in range(atom.orbit)))


def lift_discrete(dE: EssDiscrete) -> Product:
    """Lift of a discrete datum: the r-fold product of twist-translates."""
    return lift_speh(Speh(dE, 1))


def lift_speh(uE: Speh) -> Product:
    b = uE.base
    return _translates(
        b.atom, lambda atomF, i: Speh(EssDiscrete(atomF, b.k, b.twist, i), uE.q)
    )


def lift_unitary(tau) -> Product:
    """Factorwise lift of a unitary product; preserves genericity."""
    if not isinstance(tau, Product):
        tau = Product((tau,))
    out = []
    for f in tau.factors:
        if isinstance(f, Speh):
            out.extend(lift_speh(f).factors)
        elif isinstance(f, TwistedPair):
            lifted = lift_speh(f.base)
            out.extend(p.twisted(f.alpha) for p in lifted.factors)
            out.extend(p.twisted(-f.alpha) for p in lifted.factors)
        elif isinstance(f, Elliptic):
            out.extend(lift_elliptic(f).factors)
        else:
            raise ShapeError(f"cannot lift factor of type {type(f).__name__}")
    return Product(tuple(out))


def lift_elliptic(e: Elliptic) -> Product:
    """Lift of an elliptic datum: same composition over the paired atom.

    The Levi block sizes multiply by g through the atom size, so the
    normalized composition of k is unchanged; the square-integrable corner
    (levi = (k,)) maps to the square-integrable corner.
    """
    return _translates(e.atom, lambda atomF, i: Elliptic(atomF, e.k, e.levi, i))


# ---------------------------------------------------------------------------
# Fibers


def _galois_translated(factor, j: int):
    if isinstance(factor, Speh):
        b = factor.base
        return Speh(EssDiscrete(b.atom, b.k, b.twist, b.translate + j), factor.q)
    if isinstance(factor, TwistedPair):
        return TwistedPair(_galois_translated(factor.base, j), factor.alpha)
    if isinstance(factor, Elliptic):
        return Elliptic(factor.atom, factor.k, factor.levi, factor.translate + j)
    raise ShapeError(f"cannot translate factor of type {type(factor).__name__}")


def _factor_atom(factor) -> CuspidalAtom:
    if isinstance(factor, Speh):
        return factor.base.atom
    if isinstance(factor, TwistedPair):
        return factor.base.base.atom
    if isinstance(factor, Elliptic):
        return factor.atom
    raise ShapeError(f"unknown factor type {type(factor).__name__}")


def fiber_unitary(pi: Product, source: Product) -> set[Product]:
    """All E-side products lifting to pi: factorwise Galois translates of source."""
    if lift_unitary(source) != pi:
        raise NoProvenance("the given product is not a lift of the given source")
    translates = [
        [_galois_translated(f, j) for j in range(_factor_atom(f).g)] for f in source.factors
    ]
    return {Product(choice) for choice in product(*translates)}


# ---------------------------------------------------------------------------
# Genericity and specialization


def is_generic(x) -> bool:
    """Generic = every unitary building block has q = 1; elliptic data are
    generic exactly at the square-integrable corner."""
    if isinstance(x, Product):
        return all(is_generic(f) for f in x.factors)
    if isinstance(x, Speh):
        return x.q == 1
    if isinstance(x, TwistedPair):
        return x.base.q == 1
    if isinstance(x, Elliptic):
        return x.is_square_integrable()
    raise ShapeError(f"unknown factor type {type(x).__name__}")


def _factor_coords(factor, qscale: int, d: int) -> list[Coordinate]:
    if isinstance(factor, TwistedPair):
        return _factor_coords(factor.base.twisted(factor.alpha), qscale, d) + _factor_coords(
            factor.base.twisted(-factor.alpha), qscale, d
        )
    if isinstance(factor, Elliptic):
        if factor.k != 1:
            raise NotUnramified("elliptic data of length > 1 have no spherical member")
        factor = Speh(EssDiscrete(factor.atom, 1, Fraction(0), factor.translate), 1)
    if not isinstance(factor, Speh):
        raise ShapeError(f"cannot specialize factor of type {type(factor).__name__}")
    b = factor.base
    if b.atom.payload is None:
        raise NotUnramified(f"atom {b.atom.uid!r} carries no unramified payload")
    if b.k != 1:
        raise NotUnramified("segments of length > 1 are not spherical")
    xi = b.atom.payload
    if b.atom.side == "F" and b.translate:
        xi = xi * primitive_root(d) ** b.translate
    # nu^c multiplies by q^(-c), scaled by the residue degree of the side
    xi = xi * Coordinate.of(0, -b.twist * qscale)
    return list(param_of_unramified_character(xi, factor.q, qscale).coords)


def specialize(x):
    """Satake datum of a spherical expression.

    E-side products give a :class:`SphericalRepE` over the degree-d field
    extension (residue-degree scale d on q-exponents); F-side products give a
    plain :class:`SatakeParam`.
    """
    if not isinstance(x, Product):
        x = Product((x,))
    if not x.factors:
        raise ShapeError("cannot specialize an empty product")
    sides = {_factor_atom(f).side for f in x.factors}
    ds = {_factor_atom(f).d for f in x.factors}
    if len(sides) > 1 or len(ds) > 1:
        raise ShapeError("factors must share one side and one extension degree")
    side, d = sides.pop(), ds.pop()
    qscale = d if side == "E" else 1
    coords = []
    for f in x.factors:
        coords.extend(_factor_coords(f, qscale, d))
    if side == "F":
        return SatakeParam(tuple(coords))
    return SphericalRepE(CyclicAlgebra.field(d), (SatakeParam(tuple(coords)),))


# ---------------------------------------------------------------------------
# JSON expression trees


def factor_to_json(f):
    if isinstance(f, Speh):
        b = f.base
        return {
            "kind": "speh",
            "atom": b.atom.to_json(),
            "k": b.k,
            "twist": [b.twist.numerator, b.twist.denominator],
            "translate": b.translate,
            "q": f.q,
        }
    if isinstance(f, TwistedPair):
        doc = factor_to_json(f.base)
        doc["kind"] = "pair"
        doc["alpha"] = [f.alpha.numerator, f.alpha.denominator]
        return doc
    if isinstance(f, Elliptic):
        return {
            "kind": "elliptic",
            "atom": f.atom.to_json(),
            "k": f.k,
            "levi": list(f.levi),
            "translate": f.translate,
        }
    if isinstance(f, Product):
        return {"kind": "product", "factors": [factor_to_json(x) for x in f.factors]}
    raise ShapeError(f"cannot serialize {type(f).__name__}")


def factor_from_json(doc):
    kind = doc.get("kind")
    if kind == "product":
        return Product(tuple(factor_from_json(x) for x in doc["factors"]))
    if kind in ("speh", "pair"):
        atom = CuspidalAtom.from_json(doc["atom"])
        tw = doc.get("twist", [0, 1])
        base = EssDiscrete(
            atom, doc["k"], Fraction(tw[0], tw[1]), doc.get("translate", 0)
        )
        speh = Speh(base, doc.get("q", 1))
        if kind == "pair":
            a = doc["alpha"]
            return TwistedPair(speh, Fraction(a[0], a[1]))
        return speh
    if kind == "elliptic":
        atom = CuspidalAtom.from_json(doc["atom"])
        return Elliptic(atom, doc["k"], tuple(doc["levi"]), doc.get("translate", 0))
    raise ShapeError(f"unknown expression kind {kind!r}")
