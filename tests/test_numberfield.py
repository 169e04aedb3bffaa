import itertools
from functools import partial

import pytest

from heckebound.arith import is_prime, kronecker
from heckebound.bounds import final_bound
from heckebound.numberfield import (
    FieldSpec,
    Place,
    QuaternionData,
    SettingError,
    resolve_ramification,
    split_prime,
    validate_setting,
)

Q = FieldSpec.rationals()
R5 = FieldSpec.real_quadratic(5)
R8 = FieldSpec.real_quadratic(8)
# the least strong pseudoprime to the bases 2..37: is_prime is a proof below it
PSI_12 = 318_665_857_834_031_151_167_461


def simple_quaternion(fld, m=1, ram=()):
    return QuaternionData(field=fld, ramification=list(ram), m=m)


def test_split_prime_examples():
    places = split_prime(Q, 7)
    assert len(places) == 1 and places[0].residue_degree == 1
    assert places[0].residue_cardinality == 7

    places = split_prime(R5, 2)
    assert len(places) == 1 and places[0].residue_degree == 2
    assert places[0].residue_cardinality == 4

    places = split_prime(R5, 11)
    assert len(places) == 2
    assert all(v.residue_degree == 1 and v.residue_cardinality == 11 for v in places)
    assert places[0] != places[1]

    places = split_prime(R5, 5)
    assert len(places) == 1 and places[0].ramified
    assert places[0].residue_degree == 1


def test_split_prime_degree_sum():
    for fld in (Q, R5, R8, FieldSpec.real_quadratic(13)):
        for ell in range(2, 60):
            if not is_prime(ell):
                continue
            total = sum(
                (2 if v.ramified else 1) * v.residue_degree
                for v in split_prime(fld, ell)
            )
            assert total == fld.degree, (fld, ell)


def test_split_prime_matches_character():
    for fld in (R5, R8, FieldSpec.real_quadratic(12)):
        for ell in (2, 3, 5, 7, 11, 13, 17, 19, 23):
            places = split_prime(fld, ell)
            chi = kronecker(fld.discriminant, ell)
            if chi == 1:
                assert len(places) == 2
            elif chi == -1:
                assert len(places) == 1 and places[0].residue_degree == 2
            else:
                assert len(places) == 1 and places[0].ramified


def test_split_prime_rejects_composite():
    with pytest.raises(ValueError):
        split_prime(Q, 6)


def test_validate_basic_rational():
    s = validate_setting(simple_quaternion(Q, m=2), 3, 5)
    assert len(s.places_over_p) == 1
    assert s.places_over_p[0].residue_degree == 1
    assert s.delta_prime_at_p == s.places_over_p  # odd residue degree
    assert s.delta_prime_away == ()
    assert s.degree == 1 and s.m == 2


def test_validate_inert_quadratic():
    s = validate_setting(simple_quaternion(R5), 3, 2)
    assert len(s.places_over_p) == 1
    assert s.places_over_p[0].residue_degree == 2
    assert s.delta_prime_at_p == ()


def test_validate_split_quadratic():
    s = validate_setting(simple_quaternion(R5), 3, 11)
    assert len(s.places_over_p) == 2
    assert s.delta_prime_at_p == s.places_over_p


@pytest.mark.parametrize(
    "quaternion,level,p,code",
    [
        (partial(simple_quaternion, Q), 2, 5, "level_too_small"),
        (partial(simple_quaternion, Q), 3, 4, "p_not_prime"),
        (partial(simple_quaternion, Q), 10, 5, "p_divides_level"),
        (partial(simple_quaternion, R5), 3, 5, "p_ramified_in_field"),
        (partial(simple_quaternion, R5), 5, 2, "level_not_coprime"),
        (partial(simple_quaternion, Q, ram=[(3, 1), (7, 1)]), 21, 5, "level_not_coprime"),
        (partial(simple_quaternion, Q, ram=[(3, 1), (7, 1)]), 5, 7, "p_in_ramification_set"),
        (partial(simple_quaternion, Q, ram=[(3, 2), (7, 1)]), 5, 11, "residue_degree_mismatch"),
        (partial(simple_quaternion, Q), 10**12 + 1, 5, "level_too_large"),
        (partial(simple_quaternion, Q), 3, PSI_12, "p_too_large"),  # passes is_prime
        pytest.param(partial(simple_quaternion, Q), 3, 10**4000, "p_too_large",
                     id="p-has-4001-digits"),
        (partial(simple_quaternion, Q), 10**12 + 1, PSI_12, "level_too_large"),
    ],
)
def test_validate_distinct_error_codes(quaternion, level, p, code):
    # the quaternion is built inside the check: some codes are raised by
    # QuaternionData itself, before validate_setting sees the setting
    with pytest.raises(SettingError) as err:
        validate_setting(quaternion(), level, p)
    assert err.value.code == code


def test_largest_prime_below_psi_12_validates():
    s = validate_setting(simple_quaternion(Q), 3, PSI_12 - 20)
    assert s.p == PSI_12 - 20


def test_quaternion_invariants():
    with pytest.raises(SettingError) as err:
        QuaternionData(Q, [(3, 1)], 1)
    assert err.value.code == "odd_ramification_set"
    with pytest.raises(SettingError) as err:
        QuaternionData(Q, [], 0)
    assert err.value.code == "m_not_positive"


@pytest.mark.parametrize("fld,pairs", [
    (Q, [(3, 1), (3, 1)]),  # one place over 3
    (R5, [(7, 2), (7, 2)]),  # 7 is inert: one place
    (R5, [(11, 1), (11, 1), (11, 1), (19, 1)]),  # 11 splits: two places
    (R5, [(5, 1), (5, 1)]),  # 5 ramifies: one place
], ids=["rational", "inert", "split", "ramified"])
def test_a_pair_listed_more_often_than_its_places_is_a_degree_mismatch(fld, pairs):
    # each entry takes an unused place, so the datum never holds one twice
    with pytest.raises(SettingError) as err:
        QuaternionData(fld, pairs, 1)
    assert err.value.code == "residue_degree_mismatch"
    assert str(err.value).startswith(f"no unused place over {pairs[0][0]} ")


def test_the_entries_are_checked_before_the_datum():
    # resolve_ramification's codes come first, then those on m and the count
    for fld, pairs, m, code in (
        (Q, [(4, 1)], 0, "ramified_prime_not_prime"),
        (Q, [(4, 1), (7, 1)], 0, "ramified_prime_not_prime"),
        (R5, [(7, 2), (7, 2)], 1, "residue_degree_mismatch"),
        (R5, [(7, 1)], 0, "residue_degree_mismatch"),
        (Q, [(3, 1)], 0, "m_not_positive"),
        (Q, [(3, 1)], 51, "m_too_large"),
    ):
        with pytest.raises(SettingError) as err:
            QuaternionData(fld, pairs, m)
        assert err.value.code == code, (fld, pairs, m)


@pytest.mark.parametrize("disc,limit", [
    (1, 50),  # d*m^2 <= 2500
    (5, 35),  # d*m^2 <= 2500 for a quadratic field
    (2609, 35),  # both caps meet
    (199997, 4),  # D*m^2 <= 3 200 000 at the largest discriminant
])
def test_m_limit_per_field(disc, limit):
    fld = FieldSpec(disc)
    assert QuaternionData(fld, [], limit).m == limit
    with pytest.raises(SettingError) as err:
        QuaternionData(fld, [], limit + 1)
    assert err.value.code == "m_too_large"
    assert str(err.value) == (
        f"module rank m must be <= {limit} for this field, got {limit + 1}"
    )
    # every ramified place must be a place of the field, checked once here
    with pytest.raises(SettingError) as err:
        QuaternionData(Q, [(3, 2), (7, 1)], 1)
    assert err.value.code == "residue_degree_mismatch"
    with pytest.raises(SettingError) as err:
        QuaternionData(Q, [(4, 1), (9, 1)], 1)
    assert err.value.code == "ramified_prime_not_prime"


def test_quaternion_datum_does_not_depend_on_the_order_of_its_places():
    pairs = [(2, 2), (3, 2), (11, 1), (11, 1)]
    places = (Place(2, 2), Place(3, 2), Place(11, 1, index=0), Place(11, 1, index=1))
    data = {QuaternionData(R5, order, 1) for order in itertools.permutations(pairs)}
    assert len(data) == 1
    (datum,) = data
    assert datum.ramified_places == places
    s = validate_setting(QuaternionData(R5, pairs[::-1], 1), 7, 13)
    assert s.quaternion == datum
    assert s.delta_prime_away == places


def test_ramified_primes_from_psi_12_on_are_refused():
    # psi_12 passes all twelve bases of is_prime without being prime
    assert is_prime(PSI_12)
    for ell in (PSI_12, PSI_12 + 2):
        with pytest.raises(SettingError) as err:
            resolve_ramification(Q, [(ell, 1), (7, 1)])
        assert err.value.code == "ramified_prime_too_large"
        assert str(err.value) == f"ramification entry must be < {PSI_12}, got {ell}"
        with pytest.raises(SettingError) as err:
            QuaternionData(Q, [(7, 1), (ell, 1)], 1)
        assert err.value.code == "ramified_prime_too_large"
        assert str(err.value) == f"ramification entry must be < {PSI_12}, got {ell}"
        with pytest.raises(ValueError, match=f"^ell must be < {PSI_12}, got {ell}$") as err:
            split_prime(Q, ell)
        assert err.value.code == "prime_too_large"
    assert resolve_ramification(Q, [(PSI_12 - 20, 1), (7, 1)])[0].residue_prime == PSI_12 - 20
    assert split_prime(Q, PSI_12 - 20) == [Place(PSI_12 - 20, 1)]


def test_resolve_ramification_recomputes_splitting():
    places = resolve_ramification(R5, [(2, 2), (3, 2)])
    assert [v.residue_cardinality for v in places] == [4, 9]
    with pytest.raises(SettingError) as err:
        resolve_ramification(R5, [(2, 1)])  # 2 is inert: f must be 2
    assert err.value.code == "residue_degree_mismatch"
    # both places over a split prime, selected by repetition
    both = resolve_ramification(R5, [(11, 1), (11, 1)])
    assert len(set(both)) == 2
    with pytest.raises(SettingError):
        resolve_ramification(R5, [(11, 1), (11, 1), (11, 1)])


def test_validate_idempotent():
    s = validate_setting(simple_quaternion(R5, m=2), 4, 7)
    again = validate_setting(s.quaternion, s.level, s.p)
    assert again == s
    assert again.places_over_p == s.places_over_p
    assert again.delta_prime_at_p == s.delta_prime_at_p
    assert again.delta_prime_away == s.delta_prime_away


def test_primes_of_one_datum_share_one_level_data():
    quaternion = simple_quaternion(R5, m=2, ram=[(11, 1), (11, 1)])
    # what validation reads is the datum's own, fixed when it is built
    assert quaternion.ramified_primes == {11}
    assert quaternion.bad_product == 5 * 11 * 11
    s7, s13 = validate_setting(quaternion, 6, 7), validate_setting(quaternion, 6, 13)
    assert not quaternion._levels  # validation builds no per-level part
    # the bound's per-level part is built on the first record and shared
    c7 = final_bound(s7).constant
    assert list(quaternion._levels) == [6]
    assert final_bound(s13).constant is c7
    # another level, or an equal datum built afresh, has its own
    assert final_bound(validate_setting(quaternion, 7, 13)).constant is not c7
    fresh = simple_quaternion(R5, m=2, ram=[(11, 1), (11, 1)])
    assert fresh == quaternion
    assert final_bound(validate_setting(fresh, 6, 7)).constant is not c7


def test_delta_prime_parity_partition():
    for fld in (Q, R5, R8):
        for p in (2, 3, 7, 11, 13):
            try:
                s = validate_setting(simple_quaternion(fld), 3, p)
            except SettingError:
                continue
            for v in s.places_over_p:
                if v in s.delta_prime_at_p:
                    assert v.residue_degree % 2 == 1
                else:
                    assert v.residue_degree % 2 == 0


def test_field_spec_validation():
    for disc in (9, 1):  # a square; the rationals' discriminant
        with pytest.raises(SettingError) as err:
            FieldSpec.real_quadratic(disc)
        assert err.value.code == "bad_discriminant"
    assert FieldSpec.real_quadratic(8).degree == 2
    assert Q.degree == 1
    assert FieldSpec.real_quadratic(199_997).degree == 2
    # the limit is checked before the squarefree test, whose trial
    # division would not finish on an 18-digit prime
    for disc in (200_001, 10**18 + 9):
        with pytest.raises(SettingError) as err:
            FieldSpec.real_quadratic(disc)
        assert err.value.code == "disc_too_large"

