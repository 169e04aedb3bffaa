"""Value semantics of the public types: constructor signatures, the
fields that equality and hashing use, the order in which a quaternion
datum sorts its places, read-only fields, reprs and pickling."""

import inspect
import pickle

import pytest

from heckebound.arith import QuadraticCharacter
from heckebound.bounds import BoundReport, final_bound
from heckebound.numberfield import (
    FieldSpec,
    Place,
    QuaternionData,
    ShimuraSetting,
    resolve_ramification,
    validate_setting,
)

R5 = FieldSpec(5)
RAM = ((11, 1), (11, 1))


def _datum():
    # a fresh datum each call: equal to every other one, with its own per-level memo
    return QuaternionData(R5, resolve_ramification(R5, list(RAM)), 2)


def _fields_of(value, names):
    return tuple(getattr(value, name) for name in names)


SETTING_FIELDS = ("quaternion", "level", "p", "places_over_p", "delta_prime_at_p")
REPORT_FIELDS = ("setting", "zeta_values", "constant", "level_group_order", "mass",
                 "irr_count", "dim_bound", "final_bound", "asymptotic_exponent")


@pytest.mark.parametrize("cls, params", [
    (QuadraticCharacter, [("discriminant", inspect.Parameter.empty)]),
    (FieldSpec, [("discriminant", inspect.Parameter.empty)]),
    (Place, [("residue_prime", inspect.Parameter.empty),
             ("residue_degree", inspect.Parameter.empty), ("index", 0), ("ramified", False)]),
    (QuaternionData, [(name, inspect.Parameter.empty)
                      for name in ("field", "ramified_places", "m")]),
    (ShimuraSetting, [(name, inspect.Parameter.empty) for name in SETTING_FIELDS[:3]]),
    (BoundReport, [(name, inspect.Parameter.empty) for name in REPORT_FIELDS]),
])
def test_constructor_signatures(cls, params):
    got = inspect.signature(cls).parameters.values()
    assert [(p.name, p.default) for p in got] == params
    assert all(p.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD for p in got)


def test_settings_compare_on_datum_level_and_p_only():
    a, b = _datum(), _datum()
    assert a is not b and a == b and hash(a) == hash(b)
    s, t = validate_setting(a, 3, 19), validate_setting(b, 3, 19)
    assert final_bound(s).constant is not final_bound(t).constant
    assert s == t and hash(s) == hash(t)
    assert hash(s) == hash((s.quaternion, 3, 19))
    assert s != validate_setting(a, 3, 29)
    assert s != validate_setting(a, 4, 19)
    assert s.__eq__(a) is NotImplemented
    assert len({s, t, validate_setting(b, 3, 29)}) == 2


def test_setting_built_directly_is_the_validated_setting():
    # the constructor derives the places over p itself
    datum = _datum()
    for level, p in ((3, 19), (3, 2), (4, 7), (6, 29)):
        direct, checked = ShimuraSetting(datum, level, p), validate_setting(datum, level, p)
        assert direct == checked and hash(direct) == hash(checked)
        assert repr(direct) == repr(checked)
        assert _fields_of(direct, SETTING_FIELDS) == _fields_of(checked, SETTING_FIELDS)
        assert final_bound(direct).constant is final_bound(checked).constant


def test_datum_compares_on_field_places_and_m():
    a = _datum()
    final_bound(validate_setting(a, 3, 19))  # fills a's per-level memo
    b = _datum()
    assert a == b and hash(a) == hash((R5, a.ramified_places, 2))
    assert a != QuaternionData(R5, a.ramified_places, 1)
    assert a != QuaternionData(FieldSpec(8), (), 2)
    # the places are kept sorted, whatever order they were given in
    places = a.ramified_places
    assert QuaternionData(R5, places[::-1], 2).ramified_places == places


def test_reports_compare_on_every_field():
    r = final_bound(validate_setting(_datum(), 3, 19))
    s = final_bound(validate_setting(_datum(), 3, 19))
    assert r is not s and r == s and hash(r) == hash(s)
    assert hash(r) == hash(_fields_of(r, REPORT_FIELDS))
    assert r != final_bound(validate_setting(_datum(), 3, 29))
    changed = BoundReport(*_fields_of(r, REPORT_FIELDS)[:-1], r.asymptotic_exponent + 1)
    assert r != changed
    assert r.__eq__(r.setting) is NotImplemented


def test_distinct_types_with_equal_fields_differ():
    assert FieldSpec(5) != QuadraticCharacter(5)
    assert FieldSpec(5).__eq__(QuadraticCharacter(5)) is NotImplemented
    assert FieldSpec(5) != 5 and Place(7, 1) != (7, 1, 0, False)
    assert hash(FieldSpec(5)) == hash(QuadraticCharacter(5)) == hash((5,))
    # the field's character is derived once, on construction, and is not a field
    assert R5.quadratic_character is R5.quadratic_character == QuadraticCharacter(5)
    assert FieldSpec(1).quadratic_character is None
    assert FieldSpec._fields == ("discriminant",)
    assert hash(Place(7, 1, 1)) == hash((7, 1, 1, False))


def test_place_ordering_is_by_prime_degree_index_then_ramified():
    # the one order that stays is the datum's: its ramified places sorted
    # by residue prime, residue degree, index, then ramified; over Q(sqrt5)
    # 2 and 7 are inert, 5 ramifies, and 11 and 19 split (one place over
    # 19 makes the count even, as a datum requires)
    chain = (Place(2, 2), Place(5, 1, ramified=True), Place(7, 2), Place(11, 1),
             Place(11, 1, index=1), Place(19, 1))
    assert QuaternionData(R5, chain[::-1], 1).ramified_places == chain
    # places themselves compare for equality only
    with pytest.raises(TypeError):
        Place(7, 1) < Place(5, 1)
    with pytest.raises(TypeError):
        sorted(chain[::-1])


@pytest.mark.parametrize("value, names", [
    (QuadraticCharacter(5), ("discriminant",)),
    (FieldSpec(5), ("discriminant", "degree", "quadratic_character")),
    (Place(7, 1), ("residue_prime", "residue_degree", "index", "ramified")),
    (_datum(), ("field", "ramified_places", "m")),
])
def test_read_only_values_refuse_assignment(value, names):
    before = hash(value)
    for name in names:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert hash(value) == before


def test_reprs():
    assert repr(FieldSpec(1)) == "FieldSpec(Q)"
    assert repr(R5) == "FieldSpec(Q(sqrt(5)))"
    assert repr(QuadraticCharacter(8)) == "QuadraticCharacter(8)"
    assert repr(Place(7, 1)) == "Place(7^1,0)"
    assert repr(Place(11, 1, index=1)) == "Place(11^1,1)"
    assert repr(Place(5, 1, ramified=True)) == "Place(5^1,r)"
    assert repr((Place(7, 1),)) == "(Place(7^1,0),)"
    datum = _datum()
    datum.zeta_values  # the cached value is not part of the repr
    datum_text = ("QuaternionData(field=FieldSpec(Q(sqrt(5))), "
                  "ramified_places=(Place(11^1,0), Place(11^1,1)), m=2)")
    assert repr(datum) == datum_text
    s = validate_setting(datum, 3, 19)
    setting_text = (
        f"ShimuraSetting(quaternion={datum_text}, level=3, p=19, "
        "places_over_p=(Place(19^1,0), Place(19^1,1)), "
        "delta_prime_at_p=(Place(19^1,0), Place(19^1,1)))"
    )
    assert repr(s) == setting_text
    r = final_bound(s)
    assert repr(r) == (
        f"BoundReport(setting={setting_text}, "
        "zeta_values=(Fraction(1, 30), Fraction(1, 60)), "
        f"constant={r.constant!r}, level_group_order={r.level_group_order}, "
        f"mass={r.mass}, irr_count={r.irr_count}, dim_bound={r.dim_bound}, "
        f"final_bound={r.final_bound}, asymptotic_exponent=13)"
    )


def test_values_survive_pickling():
    s = validate_setting(_datum(), 3, 19)
    for value in (QuadraticCharacter(5), R5, Place(11, 1, 1), s.quaternion, s, final_bound(s)):
        copy = pickle.loads(pickle.dumps(value))
        assert copy == value and type(copy) is type(value)
        assert repr(copy) == repr(value)
    assert R5.__reduce__() == (FieldSpec, (5,))
    assert pickle.loads(pickle.dumps(R5)).quadratic_character == QuadraticCharacter(5)
    assert pickle.loads(pickle.dumps(FieldSpec(1))).quadratic_character is None


def test_place_residue_cardinality_is_derived_and_not_compared():
    # q_v is a slot filled on construction: equality, hash, pickle and
    # repr read the four fields alone, and q_v cannot be assigned
    for v, q in ((Place(7, 2), 49), (Place(11, 1, index=1), 11),
                 (Place(5, 1, ramified=True), 5)):
        assert v.residue_cardinality == q
        assert v == Place(v.residue_prime, v.residue_degree, v.index, v.ramified)
        assert hash(v) == hash((v.residue_prime, v.residue_degree, v.index, v.ramified))
        assert v.__reduce__() == (Place, (v.residue_prime, v.residue_degree, v.index,
                                          v.ramified))
        copy = pickle.loads(pickle.dumps(v))
        assert copy == v and copy.residue_cardinality == q
        with pytest.raises(AttributeError):
            v.residue_cardinality = q + 1
        with pytest.raises(AttributeError):
            del v.residue_cardinality
        assert v.residue_cardinality == q
    assert repr(Place(7, 2)) == "Place(7^2,0)"
    assert "residue_cardinality" not in Place._fields
