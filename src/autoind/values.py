"""The value group (roots of unity) x q^Q, the records, the JSON readers and :class:`CyclicAlgebra`.

A :class:`Coordinate` is one Satake eigenvalue ``e^{2 pi i a/n} q^(p/r)``, kept as four
normalised ints; ``q`` is formal (transcendental, ``q > 1``) and the unramified twist
``nu`` multiplies by ``q^{-1}``.  Every layer builds on this module.  No floats and no
``fractions``: :func:`json_int` and :func:`json_pair` read JSON numbers as ints.
"""

from __future__ import annotations

from math import gcd, lcm
from operator import attrgetter


def json_int(value, name: str) -> int:
    """A JSON int; floats and bools are refused."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an int, got {value!r}")
    return value


def json_pair(pair, name: str) -> tuple:
    """A JSON pair ``[numerator, denominator]`` of ints as ``(num, den)``, den > 0:
    a zero den is refused, a negative one changes both signs."""
    num, den = (json_int(x, name) for x in pair)
    if not den:
        raise ValueError(f"{name} has denominator 0")
    return (num, den) if den > 0 else (-num, -den)


class Record:
    """Base of the immutable records: the fields are a subclass's ``__slots__``,
    each set once by its constructor with :data:`set_field`.  Equality and the
    hash go by the exact class and the field tuple; copy and pickle call the
    constructor, or the builder it calls, on the fields again."""

    __slots__ = ()

    def __init_subclass__(cls):
        get = attrgetter(*cls.__slots__)
        cls._values = staticmethod(get if len(cls.__slots__) > 1 else lambda x: (get(x),))

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot change {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __reduce__(self):
        return type(self), self._values(self)

    def _derive(self, **changes):
        """A copy with the named fields changed, past the constructor's checks."""
        out = object.__new__(type(self))
        for k, v in zip(self.__slots__, self._values(self)):
            set_field(out, k, changes.get(k, v))
        return out

    def __repr__(self):
        fields = ", ".join(f"{k}={v!r}" for k, v in zip(self.__slots__, self._values(self)))
        return f"{type(self).__name__}({fields})"


set_field = object.__setattr__  # the one way a Record's __init__ sets a field


def _fraction(num: int, den: int):  # imports fractions on the first call: no verb makes one
    from fractions import Fraction
    return Fraction(num, den)


class Coordinate(Record):
    """One eigenvalue ``e^{2 pi i a/n} * q^(p/r)``: four immutable ints with n, r >= 1,
    0 <= a < n and gcd(a, n) = gcd(p, r) = 1, so equality and the hash are the
    int tuple's and each operation takes an lcm or a gcd per part.
    ``Coordinate(zeta, qexp)`` takes ints or Fractions (``zeta`` mod 1), which
    ``zeta`` and ``qexp`` give back as Fractions.  The total order, on
    ``(qexp, n, a)``, is only used for canonical multiset sorting.
    """

    __slots__ = ("a", "n", "p", "r")

    def __new__(cls, zeta, qexp):
        n = zeta.denominator
        return _reduced(zeta.numerator % n, n, qexp.numerator, qexp.denominator)

    zeta = property(lambda self: _fraction(self.a, self.n))
    qexp = property(lambda self: _fraction(self.p, self.r))

    def __eq__(self, other):  # Record's, without building the two field tuples
        if other.__class__ is not Coordinate:
            return NotImplemented
        return self.p == other.p and self.a == other.a and self.r == other.r and self.n == other.n

    __hash__ = lambda self: hash((self.a, self.n, self.p, self.r))

    def __mul__(self, other: "Coordinate") -> "Coordinate":
        n, r = lcm(self.n, other.n), lcm(self.r, other.r)
        a = (self.a * (n // self.n) + other.a * (n // other.n)) % n
        return _reduced(a, n, self.p * (r // self.r) + other.p * (r // other.r), r)

    def inverse(self) -> "Coordinate":
        return _reduced(-self.a % self.n, self.n, -self.p, self.r)

    def __pow__(self, k: int) -> "Coordinate":
        return _reduced(self.a * k % self.n, self.n, self.p * k, self.r)

    def root(self, k: int) -> "Coordinate":
        """Canonical k-th root, the first of :meth:`roots`: both exponents over k."""
        return next(self.roots(k))

    def roots(self, k: int):
        """The k k-th roots, lazily: the canonical one times ``(j/k, 0)`` for j < k,
        which is ((a + j n)/(n k), p/(r k)) with 0 <= a + j n < n k."""
        if k < 1:
            raise ValueError("root index must be >= 1")
        a, n, p, rk = self.a, self.n, self.p, self.r * k
        return (_reduced(a + j * n, n * k, p, rk) for j in range(k))

    def torsion_order(self):
        """Multiplicative order, or None if the q-part is nontrivial."""
        return None if self.p else self.n

    def __lt__(self, other: "Coordinate"):
        x, y = self.p * other.r, other.p * self.r
        return x < y or (x == y and (self.n, self.a) < (other.n, other.a))

    def to_json(self):
        return {"zeta": [self.a, self.n], "qexp": [self.p, self.r]}

    @classmethod
    def from_json(cls, doc) -> "Coordinate":
        (a, n), (p, r) = json_pair(doc["zeta"], "zeta"), json_pair(doc["qexp"], "qexp")
        return _reduced(a % n, n, p, r)

    of = classmethod(lambda cls, zeta=0, qexp=0: cls(zeta, qexp))
    __reduce__ = lambda self: (_reduced, self._values(self))  # copy and pickle by the ints

    def __repr__(self):
        return f"Coordinate({self.zeta}, {self.qexp})"


_new = object.__new__
_set_a, _set_n, _set_p, _set_r = (Coordinate.__dict__[k].__set__ for k in Coordinate.__slots__)


def _reduced(a: int, n: int, p: int, r: int) -> Coordinate:
    """The coordinate of (a/n, p/r) for n, r >= 1, 0 <= a < n, set by the slot setters."""
    g, h = gcd(a, n), gcd(p, r)
    c = _new(Coordinate)
    _set_a(c, a // g)
    _set_n(c, n // g)
    _set_p(c, p // h)
    _set_r(c, r // h)
    return c


ONE = Coordinate(0, 0)


def primitive_root(s: int) -> Coordinate:
    """The canonical primitive s-th root of unity ``(1/s, 0)``, for s >= 1."""
    return _reduced(1 % s, s, 0, 1)


class CyclicAlgebra(Record):
    """Extension datum: degree d = r*s, r field factors of degree s each.

    ``zeta`` is the twist root kappa(pi_F), of exact multiplicative order s.
    r = 1 is the field case; s = 1 the split algebra (zeta = 1).
    """

    __slots__ = ("d", "r", "s", "zeta")

    def __init__(self, d: int, r: int, s: int, zeta: Coordinate = None):
        if d != r * s or r < 1 or s < 1:
            raise ValueError(f"need d = r*s, got d={d}, r={r}, s={s}")
        if zeta is None:
            zeta = primitive_root(s)
        if zeta.torsion_order() != s:
            raise ValueError(f"zeta must have exact order s={s}")
        set_field(self, "d", d)
        set_field(self, "r", r)
        set_field(self, "s", s)
        set_field(self, "zeta", zeta)

    @classmethod
    def field(cls, d: int, zeta: Coordinate = None) -> "CyclicAlgebra":
        return cls(d, 1, d, zeta)

    @classmethod
    def split(cls, r: int) -> "CyclicAlgebra":
        return cls(r, r, 1)

    def to_json(self):
        return {"d": self.d, "r": self.r, "s": self.s, "zeta": self.zeta.to_json()["zeta"]}

    @classmethod
    def from_json(cls, doc) -> "CyclicAlgebra":
        zeta = Coordinate.from_json({"zeta": doc["zeta"], "qexp": [0, 1]}) if "zeta" in doc else None
        return cls(*(json_int(doc[k], k) for k in "drs"), zeta)
