"""The immutable records of satake, hecke, reps, adelic and verify: frozen fields,
equality and hashing by the exact class and the field tuple, a repr that names
the fields, and the constructor calls the library makes."""

import copy
import pickle
from fractions import Fraction as F

import pytest

from autoind.adelic import GlobalDiscrete, InducedGlobal, Place, Verdict
from autoind.arith import QCyclo
from autoind.hecke import SymLaurent
from autoind.reps import CuspidalAtom, Elliptic, EssDiscrete, Product, Speh, TwistedPair, _speh
from autoind.satake import CyclicAlgebra, SatakeParam, SphericalRepE
from autoind.values import Coordinate, Record, primitive_root
from autoind.verify import PropertyResult
from test_global import LocalRSFactor  # a record that only the tests define

X, Y = Coordinate.of(F(1, 3), 1), Coordinate.of(0, F(1, 2))
PARAM = SatakeParam((X, Y))
ATOM = CuspidalAtom("a", "E", 1, 4, 2)  # two Galois translates
SPEH = Speh(EssDiscrete(ATOM, 1, F(1, 2), translate=1), 2)
PLACE = Place("v", 2, 1)
LOCALS = {"v": SphericalRepE(PLACE.algebra, (PARAM, PARAM))}
DELTA = GlobalDiscrete("L", "E", 2, 2, 1, (PLACE,), LOCALS)

RECORDS = {
    "Coordinate": X,
    "CyclicAlgebra": CyclicAlgebra(4, 2, 2),
    "SatakeParam": PARAM,
    "SphericalRepE": SphericalRepE(CyclicAlgebra.field(2), (PARAM,)),
    "CuspidalAtom": CuspidalAtom("u", "E", 1, 2, 2, X),
    "Speh": SPEH,
    "TwistedPair": TwistedPair(SPEH, F(1, 3)),
    "Elliptic": Elliptic(ATOM, 3, (1, 2), translate=1),
    "Product": Product((SPEH, Elliptic(ATOM, 1, (1,)))),
    "Place": PLACE,
    "GlobalDiscrete": DELTA,
    "InducedGlobal": InducedGlobal((DELTA, DELTA.translated(1))),
    "LocalRSFactor": LocalRSFactor((Y, X)),
    "Verdict": Verdict(distinct=False, l=1, gamma=0),
    "PropertyResult": PropertyResult("p", 3, False, "seed 0, case 2: tag"),
    "SymLaurent": SymLaurent(2, 0, {(1, 1): QCyclo.rational(1)}),
}
# these hold a dict: a GlobalDiscrete its local data, a SymLaurent its terms
UNHASHABLE = {"GlobalDiscrete", "InducedGlobal", "SymLaurent"}
# a SymLaurent names the class and counts the terms; a Coordinate shows
# its two Fractions, Coordinate(1/3, 1)
HAND_REPR = {"Coordinate", "SymLaurent"}


def fields(x) -> tuple:
    return tuple(getattr(x, k) for k in type(x).__slots__)


@pytest.mark.parametrize("name", RECORDS)
def test_fields_cannot_be_set_or_deleted(name):
    x = RECORDS[name]
    before = fields(x)
    for key in (*type(x).__slots__, "other"):
        with pytest.raises(AttributeError):
            setattr(x, key, 1)
        with pytest.raises(AttributeError):
            delattr(x, key)
    assert fields(x) == before


@pytest.mark.parametrize("name", RECORDS)
def test_equality_and_hash_go_by_class_and_fields(name):
    x = RECORDS[name]
    for twin in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert twin == x and not twin != x and type(twin) is type(x)
        assert twin is not x
        if name not in UNHASHABLE:
            assert hash(twin) == hash(x) == hash(fields(x))
    assert x != fields(x) and (x == fields(x)) is False
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(x)


def test_equal_fields_in_another_class_are_unequal():
    coords = tuple(sorted((X, Y)))
    assert fields(PARAM) == fields(LocalRSFactor(coords))
    assert PARAM != LocalRSFactor(coords) and len({PARAM, LocalRSFactor(coords)}) == 2
    assert SatakeParam((Y, X)) == PARAM and SatakeParam((X,)) != PARAM


@pytest.mark.parametrize("name", RECORDS)
def test_repr_names_the_class_and_its_fields(name):
    x = RECORDS[name]
    text = repr(x)
    assert text.startswith(f"{name}(") and text.endswith(")")
    for key in type(x).__slots__:
        assert f"{key}={getattr(x, key)!r}" in text or name in HAND_REPR


def test_repr_of_a_small_record():
    assert repr(Verdict(distinct=True)) == "Verdict(distinct=True, l=None, gamma=None)"
    assert repr(Place("v", 4, 2)) == "Place(label='v', d=4, f=2)"


def test_keyword_calls_and_defaults():
    alg = CyclicAlgebra(6, 2, 3)
    assert alg.zeta == primitive_root(3) and alg == CyclicAlgebra(6, 2, 3, primitive_root(3))
    assert CyclicAlgebra.field(2).zeta == primitive_root(2)
    base = EssDiscrete(ATOM, 1, translate=3)
    assert (base.twist, base.translate) == (Coordinate(0, 0), 1) and type(base.twist) is Coordinate
    assert EssDiscrete(ATOM, 2) == EssDiscrete(ATOM, 2, F(0), 0)
    assert Verdict(distinct=True).to_json() == {"distinct": True, "l": None, "gamma": None}
    assert Verdict(distinct=False, l=2, gamma=5).to_json() == {"distinct": False, "l": 2,
                                                                "gamma": 5}
    assert PropertyResult("p", 3, True).detail == ""
    assert Elliptic(ATOM, 2, [1, 1]).levi == (1, 1) and Elliptic(ATOM, 2, [2]).translate == 0
    kw = GlobalDiscrete(label="L", side="E", d=2, orbit=2, q=1, places=(PLACE,),
                        cusp_locals=LOCALS)
    assert kw == DELTA and kw.translate == 0


def test_derived_records_are_validated_and_normalised():
    # a reps twist, translate or lift copies the validated fields with
    # Record._derive; a translate is still reduced modulo the atom's translates
    assert SPEH.translated(3).translate == 0
    assert SPEH.twisted(Coordinate(0, 1)).twist == Coordinate(0, F(3, 2))
    assert Elliptic(ATOM, 2, (2,)).translated(5).translate == 1
    # GlobalDiscrete keeps its own equality, on the local data as translated:
    # its two blocks are equal, so every translate equals it
    assert DELTA.translated(3).translate == 3 and DELTA.translated(3) == DELTA
    with pytest.raises(ValueError):
        Speh(EssDiscrete(ATOM, 1), 0)
    with pytest.raises(ValueError):
        TwistedPair(SPEH, F(1, 2))
    # a twist or an alpha is q^c: an int or a Fraction c, or a q-only Coordinate
    assert Speh(EssDiscrete(ATOM, 1, Coordinate(0, F(1, 2)), 1), 2) == SPEH
    assert TwistedPair(SPEH, Coordinate(0, F(1, 3))) == RECORDS["TwistedPair"]
    for bad in (X, primitive_root(2)):
        with pytest.raises(ValueError):
            EssDiscrete(ATOM, 1, bad)
        with pytest.raises(ValueError):
            TwistedPair(SPEH, bad)
    with pytest.raises(ValueError):
        CyclicAlgebra(4, 2, 2, primitive_root(4))


def test_a_segment_is_the_speh_datum_with_q_one():
    assert Speh.__slots__ == ("atom", "k", "twist", "translate", "q")
    for k, c, j in ((1, 0, 0), (2, F(1, 2), 1), (3, F(-2, 3), 5), (1, Coordinate(0, 2), 3)):
        delta = EssDiscrete(ATOM, k, c, j)
        assert type(delta) is Speh and delta.q == 1
        assert delta == Speh(EssDiscrete(ATOM, k, c, j), 1)
        assert Speh(delta, 3).q == 3 and fields(Speh(delta, 3))[:4] == fields(delta)[:4]
    # u(delta, q) is built on a segment, not on another Speh datum
    with pytest.raises(ValueError):
        Speh(Speh(EssDiscrete(ATOM, 1), 2), 3)


def test_a_speh_datum_copies_and_pickles_through_its_builder():
    assert SPEH.__reduce__() == (_speh, fields(SPEH))
    for twin in (copy.copy(SPEH), copy.deepcopy(SPEH), pickle.loads(pickle.dumps(SPEH))):
        assert twin == SPEH and fields(twin) == fields(SPEH)
    # the builder checks what it rebuilds and reduces the translate
    assert _speh(ATOM, 1, F(1, 2), 3, 2) == SPEH
    for k, q in ((0, 1), (1, 0)):
        with pytest.raises(ValueError):
            _speh(ATOM, k, 0, 0, q)


def test_a_twist_translate_or_lifted_factor_derives_one_record(monkeypatch):
    derived = []
    derive = Record._derive
    monkeypatch.setattr(Record, "_derive", lambda x, **kw: derived.append(type(x)) or derive(x, **kw))
    SPEH.twisted(Y)
    SPEH.translated(1)
    assert derived == [Speh, Speh]
    for x in (SPEH, Elliptic(ATOM, 2, (1, 1))):
        derived.clear()
        assert len(list(x.lift())) == ATOM.orbit == len(derived)
        assert derived == [type(x)] * ATOM.orbit
