from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import heckebound.bounds as bounds_mod
import heckebound.numberfield as numberfield_mod
from heckebound.arith import (
    InternalCheckError,
    is_fundamental_discriminant,
    is_prime,
    zeta_special_value,
)
from heckebound.bounds import (
    asymptotic_check,
    asymptotic_exponent,
    bound_constant,
    detect_p_degree,
    final_bound,
    siegel_bound,
    superspecial_mass,
)
from heckebound.groups import dim_bound, irr_count, level_group_order
from heckebound.numberfield import (
    FieldSpec,
    QuaternionData,
    SettingError,
    ShimuraSetting,
    resolve_ramification,
    split_prime,
    validate_setting,
)

Q = FieldSpec.rationals()
R5 = FieldSpec.real_quadratic(5)
R8 = FieldSpec.real_quadratic(8)


def setting(fld, m, level, p, ram=()):
    places = resolve_ramification(fld, list(ram))
    return validate_setting(QuaternionData(fld, places, m), level, p)


def sweep(fld, m, level, pmax, ram=()):
    out = []
    for p in range(2, pmax + 1):
        try:
            out.append(setting(fld, m, level, p, ram))
        except SettingError:
            pass
    return out


def test_bound_constant_values():
    assert bound_constant(setting(Q, 1, 3, 5)) == Fraction(1, 24)
    assert bound_constant(setting(Q, 2, 3, 5)) == Fraction(1, 5760)
    assert bound_constant(setting(R5, 1, 3, 2)) == Fraction(1, 120)


def test_bound_constant_with_away_ramification():
    # away factors (q^i + (-1)^i) for each ramified place
    s = setting(Q, 1, 5, 11, ram=[(2, 1), (3, 1)])
    assert bound_constant(s) == Fraction(1, 24) * (2 - 1) * (3 - 1)


def test_mass_values():
    assert superspecial_mass(setting(Q, 1, 3, 5)) == 8
    assert superspecial_mass(setting(Q, 1, 3, 2)) == 2
    # |GSp_4(Z/3)| * (2-1)(2^2+1) / 5760
    assert superspecial_mass(setting(Q, 2, 3, 2)) == 103680 * 5 // 5760
    assert superspecial_mass(setting(R5, 1, 3, 2)) == 60
    assert superspecial_mass(setting(Q, 1, 5, 7, ram=[(2, 1), (3, 1)])) == 240


def test_mass_m2_pinned_by_enumerated_symplectic_order():
    # |GSp_4(Z/3)| = phi(3) * |Sp_4(F_3)| with the symplectic order taken
    # from the brute-force count, not the closed form
    from heckebound.oracle import count_symplectic_matrices

    gsp4_mod3 = 2 * count_symplectic_matrices(2, 3)
    assert superspecial_mass(setting(Q, 2, 3, 2)) * 5760 == gsp4_mod3 * 5


def test_final_bound_values():
    r = final_bound(setting(Q, 1, 3, 5))
    assert (r.mass, r.irr_count, r.dim_bound, r.final_bound) == (8, 24, 1, 192)
    r = final_bound(setting(Q, 1, 3, 2))
    assert (r.mass, r.irr_count, r.dim_bound, r.final_bound) == (2, 3, 1, 6)
    assert r.asymptotic_exponent == 3


def grid_settings():
    out = []
    ram_choices = {
        1: [[], [(11, 1), (13, 1)]],
        5: [[], [(7, 2), (13, 2)], [(11, 1), (11, 1)]],
        8: [[], [(7, 1), (7, 1)]],
    }
    for fld in (Q, R5, R8):
        for m in (1, 2, 3):
            for level in (3, 4, 5):
                for p in (2, 3, 5, 7, 11, 13, 17, 19, 23):
                    for ram in ram_choices[fld.discriminant]:
                        try:
                            out.append(setting(fld, m, level, p, ram))
                        except SettingError:
                            pass
    return out


def test_factorization_identity_on_grid():
    grid = grid_settings()
    assert len(grid) >= 50
    for s in grid:
        r = final_bound(s)
        assert r.final_bound == r.mass * r.irr_count * r.dim_bound
        assert r.mass == superspecial_mass(s)
        assert r.irr_count == irr_count(s)
        assert r.dim_bound == dim_bound(s)


def test_mass_positive_integral_on_grid():
    for s in grid_settings():
        mass = superspecial_mass(s)
        assert mass >= 1
        assert bound_constant(s) > 0


def test_siegel_equality():
    for m in (1, 2, 3):
        for level in (3, 4, 5):
            for p in (2, 3, 5, 7, 11, 13):
                if level % p == 0:
                    continue
                r = final_bound(setting(Q, m, level, p))
                assert siegel_bound(m, level, p) == r.final_bound, (m, level, p)


def test_non_integer_count_is_an_internal_fault(monkeypatch):
    # a level group order of 1/7 leaves every count a proper fraction
    s = setting(Q, 1, 3, 5)
    monkeypatch.setattr(bounds_mod, "level_group_order", lambda _: Fraction(1, 7))
    tail = ", not a positive integer$"
    with pytest.raises(InternalCheckError, match="^superspecial mass came out 1/42" + tail):
        superspecial_mass(s)
    with pytest.raises(InternalCheckError, match="^final bound came out 4/7" + tail):
        final_bound(s)
    monkeypatch.setattr(bounds_mod, "sp_order", lambda m, q: 0)
    with pytest.raises(InternalCheckError, match="^Siegel bound came out 0" + tail):
        siegel_bound(1, 3, 5)


def test_factorization_identity_violation_is_an_internal_fault(monkeypatch):
    # one irreducible too many: mass * irr * dim no longer equals the bound
    real = bounds_mod.irr_count
    monkeypatch.setattr(bounds_mod, "irr_count", lambda s: real(s) + 1)
    with pytest.raises(
        InternalCheckError, match=r"^factorization identity violated: bound 192 != "
    ):
        final_bound(setting(Q, 1, 3, 5))


def test_non_positive_constant_is_an_internal_fault(monkeypatch):
    # zeta_F(-1) with its sign flipped turns C_B negative
    real = numberfield_mod.zeta_special_value
    monkeypatch.setattr(
        numberfield_mod, "zeta_special_value",
        lambda fld, j: -real(fld, j) if j == 1 else real(fld, j),
    )
    s = setting(Q, 2, 3, 5)
    assert s.quaternion.zeta_values[0] == Fraction(1, 12)
    with pytest.raises(InternalCheckError, match=r"^bound constant -1/5760 is not positive$"):
        bound_constant(s)
    with pytest.raises(InternalCheckError, match="is not positive$"):
        final_bound(s)


def test_siegel_validation():
    with pytest.raises(SettingError):
        siegel_bound(1, 2, 5)
    with pytest.raises(SettingError):
        siegel_bound(1, 3, 6)
    with pytest.raises(SettingError):
        siegel_bound(1, 10, 5)
    with pytest.raises(SettingError) as err:
        siegel_bound(1, 10**18 + 3, 5)
    assert err.value.code == "level_too_large"
    psi_12 = 318_665_857_834_031_151_167_461  # a strong pseudoprime to 2..37
    assert siegel_bound(1, 3, psi_12 - 20) > 0  # the largest prime below it
    with pytest.raises(SettingError) as err:
        siegel_bound(1, 3, psi_12)
    assert err.value.code == "p_too_large"


def test_siegel_rank_checks_are_the_datums():
    # the rank cap over Q is the datum's, so both routes accept the same m
    # with the same codes, rank before level and prime
    for m, code in ((0, "m_not_positive"), (51, "m_too_large")):
        for level, p in ((3, 5), (2, 6)):  # (2, 6) fails two later checks
            with pytest.raises(SettingError) as err:
                siegel_bound(m, level, p)
            assert err.value.code == code
        with pytest.raises(SettingError) as err:
            QuaternionData(Q, (), m)
        assert err.value.code == code
    assert siegel_bound(50, 3, 5) == final_bound(setting(Q, 50, 3, 5)).final_bound


def test_asymptotic_check_true_cases():
    assert asymptotic_check(sweep(Q, 1, 3, 97))
    assert asymptotic_check(sweep(Q, 2, 3, 97))
    assert asymptotic_check(sweep(R5, 1, 3, 97))
    assert asymptotic_exponent(1, 2) == 7


def test_asymptotic_check_requires_sample():
    with pytest.raises(ValueError):
        asymptotic_check(sweep(Q, 1, 3, 5))  # only p = 2, 5
    with pytest.raises(ValueError):
        asymptotic_check([setting(Q, 1, 3, 5), setting(Q, 1, 3, 2), setting(Q, 1, 3, 7)])


def test_asymptotic_check_rejects_mixed_inputs():
    mixed = sweep(Q, 1, 3, 30)[:2] + sweep(Q, 2, 3, 30)[2:4]
    with pytest.raises(ValueError):
        asymptotic_check(mixed)


def test_asymptotic_check_detects_wrong_exponent():
    # feeding m = 2 reports under an m = 1 exponent must fail the slope test
    samples = sweep(Q, 2, 3, 60)
    exp_wrong = asymptotic_exponent(1, 1)
    reports = [final_bound(s) for s in samples]
    violated = any(
        r2.final_bound * r1.setting.p ** (exp_wrong + 1)
        >= r1.final_bound * r2.setting.p ** (exp_wrong + 1)
        for r1, r2 in zip(reports, reports[1:])
    )
    assert violated


def test_asymptotic_check_fails_on_each_condition(monkeypatch):
    samples = sweep(Q, 1, 3, 97)
    assert asymptotic_check(samples)
    real = bounds_mod.final_bound
    top = samples[-1].p

    def scaled(factor):
        def wrapped(s):
            report = real(s)
            report.final_bound *= factor(s.p)
            return report
        return wrapped

    # times p: every bound past p = 5 is above the cap constant * p^E
    monkeypatch.setattr(bounds_mod, "final_bound", scaled(lambda p: p))
    assert not asymptotic_check(samples)
    # times p / top: each bound stays below its cap, but the growth degree is E + 1
    monkeypatch.setattr(bounds_mod, "final_bound", scaled(lambda p: Fraction(p, top)))
    assert not asymptotic_check(samples)


def test_detect_p_degree():
    assert detect_p_degree(sweep(Q, 1, 3, 13)) == 3
    assert detect_p_degree(sweep(Q, 2, 3, 29)) == 7
    split_primes = [11, 19, 29, 31, 41, 59, 61]
    split = [setting(R5, 1, 3, p) for p in split_primes]
    assert detect_p_degree(split) == 5


def test_detect_p_degree_interpolation_is_exact():
    # more sample points than the degree needs must not change the answer
    assert detect_p_degree(sweep(Q, 1, 3, 43)) == 3


def test_zeta_values_in_report():
    r = final_bound(setting(Q, 2, 3, 5))
    assert r.zeta_values == (Fraction(-1, 12), Fraction(1, 120))


def test_grid_covers_all_fields_and_ramifications():
    grid = grid_settings()
    discs = {s.field.discriminant for s in grid}
    assert discs == {1, 5, 8}
    assert any(s.delta_prime_away for s in grid)
    assert any(len(s.delta_prime_away) == 2 for s in grid)
    assert any(
        len({v.residue_prime for v in s.delta_prime_away}) == 1
        and len(s.delta_prime_away) == 2
        for s in grid
    )


# Random settings far off the fixed grids: p <= 10^12, m <= 6, N <= 200,
# discriminant <= 500.

_DISCS_TO_500 = [d for d in range(5, 501) if is_fundamental_discriminant(d)]
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


@st.composite
def _random_datum(draw):
    level = draw(st.integers(3, 200))
    disc = draw(st.one_of(
        st.just(1),
        st.sampled_from([d for d in _DISCS_TO_500 if gcd(d, level) == 1]),
    ))
    fld = FieldSpec(disc)
    places = [
        v for ell in _SMALL_PRIMES if gcd(ell, level * disc) == 1
        for v in split_prime(fld, ell)
    ]
    ram = ()
    if draw(st.booleans()) and len(places) >= 2:
        ram = tuple(draw(st.lists(st.sampled_from(places), min_size=2, max_size=2,
                                  unique=True)))
    return QuaternionData(fld, ram, draw(st.integers(1, 6))), level


def _next_settings(datum, level, start, count, degree_one=False):
    """The first count valid settings at primes p >= start; with
    degree_one, only primes whose places all have residue degree 1."""
    out, p = [], start
    while len(out) < count:
        try:
            s = validate_setting(datum, level, p)
        except SettingError:
            pass
        else:
            if not degree_one or all(v.residue_degree == 1 for v in s.places_over_p):
                out.append(s)
        p += 1
    return out


# the slowest example, Q(sqrt(497)) at m = 6 from p = 10^12, interpolates
# through 87 bounds in well under a second
@settings(max_examples=50, deadline=None)
@given(_random_datum(), st.one_of(st.integers(2, 10**4), st.integers(2, 10**12)))
def test_random_settings_satisfy_the_exact_identities(datum_and_level, start):
    datum, level = datum_and_level
    s = _next_settings(datum, level, start, 1)[0]
    r = final_bound(s)
    assert r.final_bound == superspecial_mass(s) * irr_count(s) * dim_bound(s)
    if s.field.is_rational and not s.delta_prime_away:
        assert siegel_bound(s.m, level, s.p) == r.final_bound

    d, m = s.degree, s.m
    exponent = d * m * m + d * m + 1
    samples = _next_settings(datum, level, start, exponent + 2, degree_one=True)
    assert detect_p_degree(samples) == exponent


# the examples: Q(sqrt5) at p = 2 (inert, the algebra ramified at both
# places over 11) and at p = 11 (split), and Q at p = 5
@settings(max_examples=50, deadline=None)
@given(_random_datum(), st.integers(2, 10**6))
@example((QuaternionData(R5, resolve_ramification(R5, [(11, 1), (11, 1)]), 2), 3), 2)
@example((QuaternionData(R5, (), 3), 3), 11)
@example((QuaternionData(Q, (), 2), 3), 5)
def test_mass_and_closed_form_are_the_per_place_products(datum_and_level, start):
    # the paper's p-products, each place's factor read from its own residue
    # degree f: (q+1) and prod_j (q^j + (-1)^j) at odd f, (q-1) and
    # prod_j (q^j + 1) at even f; a sign error made in both the mass and
    # the closed form keeps final = mass * irr * dim, so this pins each
    datum, level = datum_and_level
    s = _next_settings(datum, level, start, 1)[0]
    p, d, m = s.p, datum.field.degree, datum.m
    center = products = 1
    for v in s.places_over_p:
        q, odd = v.residue_cardinality, v.residue_degree % 2
        center *= q + 1 if odd else q - 1
        for j in range(1, m + 1):
            products *= q**j + ((-1) ** j if odd else 1)
    scale = bound_constant(s) * level_group_order(s)
    assert superspecial_mass(s) == scale * products
    closed = p ** (d * (m + 2) * (m - 1) // 2) * (p - 1) * center * products
    assert final_bound(s).final_bound == scale * closed


def _direct_bound_constant(datum):
    # the formula term by term: one Fraction product per local factor
    d, m = datum.field.degree, datum.m
    value = Fraction((-1) ** (d * m * (m + 1) // 2), 2 ** (m * d))
    for i in range(1, m + 1):
        value *= zeta_special_value(datum.field, i)
        for v in datum.ramified_places:
            value *= Fraction(v.residue_cardinality**i + (-1) ** i)
    return value


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from((1, 5, 8, 13)),
    st.lists(st.sampled_from(range(40)), max_size=24, unique=True),
    st.integers(1, 5),
)
def test_bound_constant_is_the_direct_product(disc, picks, m):
    # random ramification sets of the places over the primes below 100
    fld = FieldSpec(disc)
    places = [v for ell in range(2, 100) if is_prime(ell) and disc % ell
              for v in split_prime(fld, ell)]
    ram = [places[k % len(places)] for k in picks]
    ram = tuple(dict.fromkeys(ram))[: len(set(ram)) // 2 * 2]
    datum = QuaternionData(fld, ram, m)
    p = next(q for q in range(101, 200) if is_prime(q) and disc % q)
    constant = bound_constant(ShimuraSetting(datum, 3, p))
    assert constant == _direct_bound_constant(datum) > 0

