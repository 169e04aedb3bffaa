"""Acceptance suite: one test per criterion, every comparison exact.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion; timed criteria assert their runtime budget.
"""

import csv
import io
import json
import time
from fractions import Fraction

from heckebound.arith import bernoulli, von_staudt_clausen_denominator, zeta_special_value
from heckebound.bounds import (
    asymptotic_check,
    asymptotic_exponent,
    bound_constant,
    detect_p_degree,
    final_bound,
    siegel_bound,
    superspecial_mass,
)
from heckebound.cli import main as cli_main
from heckebound.groups import (
    dim_bound,
    gl_order,
    irr_count,
    level_group_order,
    sp_order,
    unitary_order,
)
from heckebound.numberfield import (
    FieldSpec,
    QuaternionData,
    SettingError,
    validate_setting,
)
from heckebound.oracle import (
    count_symplectic_matrices,
    enumerate_gl,
    enumerate_gsp_modn,
    enumerate_similitude_product,
    enumerate_unitary,
    p_regular_class_count,
    sylow_p_order,
)

Q = FieldSpec.rationals()
R5 = FieldSpec.real_quadratic(5)
R8 = FieldSpec.real_quadratic(8)


def setting(fld, m, level, p, ram=()):
    return validate_setting(QuaternionData(fld, list(ram), m), level, p)


def prime_sweep(fld, m, level, pmax, ram=()):
    out = []
    for p in range(2, pmax + 1):
        try:
            out.append(setting(fld, m, level, p, ram))
        except SettingError:
            pass
    return out


def criterion_grid():
    """F in {Q, Q(sqrt5), Q(sqrt8)}, m <= 3, N in {3,4,5}, p <= 23,
    ramification either empty or a two-place set away from p*N."""
    ram_choices = {
        1: [[], [(11, 1), (13, 1)]],
        5: [[], [(7, 2), (13, 2)], [(11, 1), (11, 1)]],
        8: [[], [(7, 1), (7, 1)]],
    }
    grid = []
    for fld in (Q, R5, R8):
        for m in (1, 2, 3):
            for level in (3, 4, 5):
                for p in (2, 3, 5, 7, 11, 13, 17, 19, 23):
                    for ram in ram_choices[fld.discriminant]:
                        try:
                            grid.append(setting(fld, m, level, p, ram))
                        except SettingError:
                            pass
    return grid


# instances for the Carter / Sylow cross-checks; each residual group has
# at most 100000 elements and characteristic at most 7
CROSS_CHECK_INSTANCES = [
    (Q, 1, 3, 2), (Q, 1, 4, 3), (Q, 1, 3, 5), (Q, 1, 3, 7),
    (Q, 2, 3, 2), (Q, 2, 4, 3), (Q, 2, 3, 5), (Q, 2, 3, 7),
    (Q, 3, 3, 2),
    (R5, 1, 3, 2), (R5, 1, 4, 3), (R5, 1, 3, 7),
    (R5, 2, 3, 2), (R5, 2, 4, 3),
    (R8, 1, 5, 3), (R8, 1, 3, 7),
]


def _report(number: int, elapsed: float, detail: str):
    print(f"ACCEPTANCE {number}: PASS ({elapsed:.2f}s) {detail}")


def test_criterion_01_eichler_regression():
    t0 = time.monotonic()
    report = final_bound(setting(Q, 1, 3, 5))
    assert report.mass == 8
    assert report.irr_count == 24
    assert report.dim_bound == 1
    assert report.final_bound == 192
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    _report(1, elapsed, "mass=8 irr=24 dim=1 bound=192 at (Q, m=1, N=3, p=5)")


def test_criterion_02_zeta_table():
    t0 = time.monotonic()
    for j in range(1, 7):
        assert zeta_special_value(Q, j) == -bernoulli(2 * j) / (2 * j)
    for n in range(2, 41, 2):
        assert bernoulli(n).denominator == von_staudt_clausen_denominator(n)
    assert zeta_special_value(R5, 1) == Fraction(1, 30)
    assert zeta_special_value(R5, 2) == Fraction(1, 60)
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    _report(2, elapsed, "zeta table j<=6, von Staudt-Clausen n<=40, quadratic values")


def test_criterion_03_order_formula_oracle_equivalence():
    t0 = time.monotonic()
    shapes = [(m, q) for m in (1, 2) for q in (2, 3, 4, 5)] + [(3, 2)]
    for m, q in shapes:
        assert enumerate_gl(m, q).order == gl_order(m, q), ("GL", m, q)
        assert enumerate_unitary(m, q).order == unitary_order(m, q), ("U", m, q)
        assert count_symplectic_matrices(m, q) == sp_order(m, q), ("Sp", m, q)
    for level in (3, 4, 5, 6):
        s = setting(Q, 1, level, 7)
        assert enumerate_gsp_modn(1, level).order == level_group_order(s), level
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    _report(3, elapsed, "GL/U/Sp orders and GSp(Z/N) orders match enumeration")


def test_criterion_04_carter_cross_check():
    t0 = time.monotonic()
    checked = []
    for fld, m, level, p in CROSS_CHECK_INSTANCES:
        s = setting(fld, m, level, p)
        group = enumerate_similitude_product(s)
        assert group.order <= 100_000, (fld.discriminant, m, p)
        assert p_regular_class_count(group, p) == irr_count(s), (
            fld.discriminant, m, p,
        )
        checked.append((fld.degree, m, p, group.order))
    # the required coverage
    covered = {(d, m, p) for d, m, p, _ in checked}
    for p in (2, 3, 5, 7):
        assert (1, 1, p) in covered
    for p in (2, 3):
        assert (1, 2, p) in covered
        assert (2, 1, p) in covered
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    _report(4, elapsed, f"irr_count equals p-regular classes on {len(checked)} instances")


def test_criterion_05_sylow_cross_check():
    t0 = time.monotonic()
    for fld, m, level, p in CROSS_CHECK_INSTANCES:
        s = setting(fld, m, level, p)
        group = enumerate_similitude_product(s)
        assert sylow_p_order(group, p) == dim_bound(s), (fld.discriminant, m, p)
    elapsed = time.monotonic() - t0
    _report(5, elapsed, "dim_bound equals the enumerated p-Sylow order")


def test_criterion_06_factorization_identity():
    t0 = time.monotonic()
    grid = criterion_grid()
    assert len(grid) >= 50, f"grid has only {len(grid)} validated settings"
    for s in grid:
        report = final_bound(s)
        assert report.final_bound == report.mass * report.irr_count * report.dim_bound
    elapsed = time.monotonic() - t0
    _report(6, elapsed, f"bound = mass * irr * dim on {len(grid)} settings")


def test_criterion_07_siegel_equality():
    t0 = time.monotonic()
    count = 0
    for m in (1, 2, 3):
        for level in (3, 4, 5):
            for p in (2, 3, 5, 7, 11, 13):
                if level % p == 0:
                    continue
                report = final_bound(setting(Q, m, level, p))
                assert siegel_bound(m, level, p) == report.final_bound, (m, level, p)
                count += 1
    elapsed = time.monotonic() - t0
    _report(7, elapsed, f"independent Siegel-case formula agrees on {count} tuples")


def test_criterion_08_mass_positive_integral():
    t0 = time.monotonic()
    grid = criterion_grid()
    for s in grid:
        mass = superspecial_mass(s)  # raises unless a positive integer
        assert mass >= 1
        assert bound_constant(s) > 0
    elapsed = time.monotonic() - t0
    _report(8, elapsed, f"mass is a positive integer on all {len(grid)} settings")


def test_criterion_09_asymptotic_exponent():
    t0 = time.monotonic()
    # degree detection through d*m^2 + d*m + 2 primes, all residue degrees 1
    exp11 = asymptotic_exponent(1, 1)
    samples = prime_sweep(Q, 1, 3, 13)[: exp11 + 2]
    assert len(samples) == exp11 + 2
    assert detect_p_degree(samples) == exp11

    exp12 = asymptotic_exponent(1, 2)
    samples = prime_sweep(Q, 2, 3, 29)[: exp12 + 2]
    assert len(samples) == exp12 + 2
    assert detect_p_degree(samples) == exp12

    exp21 = asymptotic_exponent(2, 1)
    split_primes = [11, 19, 29, 31, 41, 59, 61]  # split in Q(sqrt 5)
    samples = [setting(R5, 1, 3, p) for p in split_primes][: exp21 + 2]
    assert len(samples) == exp21 + 2
    assert detect_p_degree(samples) == exp21

    assert asymptotic_check(prime_sweep(Q, 1, 3, 200))
    assert asymptotic_check(prime_sweep(Q, 2, 3, 200))
    assert asymptotic_check(prime_sweep(R5, 1, 3, 200))
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    _report(9, elapsed, "detected degrees 3/7/5 and bounded growth up to p=200")


def test_criterion_10_cli_determinism(tmp_path):
    t0 = time.monotonic()
    doc = {
        "field": {"kind": "rational"},
        "quaternion_ramification": [],
        "m": 2,
        "N": 3,
        "p_sweep": {"from": 2, "to": 30},
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))

    outputs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        assert cli_main([str(cfg), "--output", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]

    csv_out = tmp_path / "a.csv"
    assert cli_main([str(cfg), "--format", "csv", "--output", str(csv_out)]) == 0
    records = {r["input"]["p"]: r for r in json.loads(outputs[0])}
    rows = list(csv.DictReader(io.StringIO(csv_out.read_text())))
    assert len(rows) == len(records)
    for row in rows:
        rec = records[int(row["p"])]
        if "error" in rec:
            assert row["error_code"] == rec["error"]["code"]
            continue
        for key in ("C_B", "level_group_order", "mass", "irr_count",
                    "dim_bound", "final_bound"):
            assert row[key] == rec[key]
        assert row["zeta_F"] == ";".join(rec["zeta_F"])
    elapsed = time.monotonic() - t0
    _report(10, elapsed, "byte-identical reruns; JSON and CSV payloads agree")
