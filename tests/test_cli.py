import csv
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import heckebound
import heckebound.arith as arith_mod
import heckebound.bounds as bounds_mod
import heckebound.groups as groups_mod
import heckebound.oracle as oracle_mod
from heckebound.arith import is_prime
from heckebound.bounds import bound_constant, final_bound
from heckebound.cli import (
    EXIT_ALL_FAILED,
    EXIT_CONFIG,
    EXIT_FAULT,
    EXIT_OK,
    ConfigError,
    compute_records,
    main,
    parse_config,
    render_csv,
    render_json,
)
from heckebound.numberfield import (
    FieldSpec,
    QuaternionData,
    SettingError,
    resolve_ramification,
    split_prime,
    validate_setting,
)

SIEGEL_DOC = {
    "field": {"kind": "rational"},
    "quaternion_ramification": [],
    "m": 1,
    "N": 3,
    "p": 5,
}

SWEEP_DOC = {
    "field": {"kind": "rational"},
    "quaternion_ramification": [],
    "m": 1,
    "N": 3,
    "p_sweep": {"from": 2, "to": 20},
}


def run_cli(tmp_path, doc, *args):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out.txt"
    status = main([str(cfg), "--output", str(out), *args])
    return status, out.read_text()


def test_single_record_values(tmp_path):
    status, text = run_cli(tmp_path, SIEGEL_DOC)
    assert status == EXIT_OK
    records = json.loads(text)
    assert len(records) == 1
    rec = records[0]
    assert rec["final_bound"] == "192"
    assert rec["mass"] == "8"
    assert rec["irr_count"] == "24"
    assert rec["dim_bound"] == "1"
    assert rec["C_B"] == "1/24"
    assert rec["zeta_F"] == ["-1/12"]
    assert rec["level_group_order"] == "48"
    assert rec["asymptotic_exponent"] == 3
    assert rec["input"]["p"] == 5
    assert rec["delta_prime"]["at_p"] == [{"prime": 5, "residue_degree": 1}]


def test_sweep_skips_invalid_primes(tmp_path):
    status, text = run_cli(tmp_path, SWEEP_DOC)
    assert status == EXIT_OK
    records = json.loads(text)
    by_p = {r["input"]["p"]: r for r in records}
    assert sorted(by_p) == [2, 3, 5, 7, 11, 13, 17, 19]
    assert by_p[3]["error"]["code"] == "p_divides_level"
    assert by_p[5]["final_bound"] == "192"


def test_output_deterministic(tmp_path):
    _, first = run_cli(tmp_path, SWEEP_DOC)
    _, second = run_cli(tmp_path, SWEEP_DOC)
    assert first == second
    _, csv_first = run_cli(tmp_path, SWEEP_DOC, "--format", "csv")
    _, csv_second = run_cli(tmp_path, SWEEP_DOC, "--format", "csv")
    assert csv_first == csv_second


def test_json_and_csv_payloads_agree(tmp_path):
    _, json_text = run_cli(tmp_path, SWEEP_DOC)
    _, csv_text = run_cli(tmp_path, SWEEP_DOC, "--format", "csv")
    records = {r["input"]["p"]: r for r in json.loads(json_text)}
    rows = list(csv.DictReader(io.StringIO(csv_text)))
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
        assert row["asymptotic_exponent"] == str(rec["asymptotic_exponent"])
        at_p = ";".join(
            f"{v['prime']}^{v['residue_degree']}"
            for v in rec["delta_prime"]["at_p"]
        )
        assert row["delta_prime_at_p"] == at_p


def test_rationals_in_output_are_reduced(tmp_path):
    doc = dict(SWEEP_DOC, m=2)
    _, text = run_cli(tmp_path, doc)
    for rec in json.loads(text):
        if "error" in rec:
            continue
        for token in rec["zeta_F"] + [rec["C_B"]]:
            num, den = map(int, token.split("/"))
            assert den > 0
            from math import gcd

            assert gcd(abs(num), den) == 1


def test_config_errors_name_the_field():
    with pytest.raises(ConfigError, match="field"):
        parse_config({"m": 1, "N": 3, "p": 5})
    with pytest.raises(ConfigError, match="'m'"):
        parse_config({"field": {"kind": "rational"}, "N": 3, "p": 5})
    bad_sweep = {k: v for k, v in SIEGEL_DOC.items() if k != "p"}
    bad_sweep["p_sweep"] = {"from": 5, "to": 3}
    with pytest.raises(ConfigError, match="endpoints"):
        parse_config(bad_sweep)
    bad_sweep["p_sweep"] = {"from": 1, "to": 4}
    with pytest.raises(ConfigError, match="endpoints"):
        parse_config(bad_sweep)
    with pytest.raises(ConfigError, match="exactly one"):
        parse_config({"field": {"kind": "rational"}, "m": 1, "N": 3})
    with pytest.raises(ConfigError, match="kind"):
        parse_config(dict(SIEGEL_DOC, field={"kind": "cubic"}))
    with pytest.raises(ConfigError, match="residue_degree"):
        parse_config(dict(SIEGEL_DOC, quaternion_ramification=[{"prime": 3}]))
    with pytest.raises(ConfigError, match="top level must be a JSON object"):
        parse_config([SIEGEL_DOC])
    with pytest.raises(ConfigError, match="'m' must be of type int"):
        parse_config(dict(SIEGEL_DOC, m="1"))
    with pytest.raises(ConfigError, match="'N' must be of type int"):
        parse_config(dict(SIEGEL_DOC, N=True))
    with pytest.raises(ConfigError, match="quaternion_ramification: must be a list"):
        parse_config(dict(SIEGEL_DOC, quaternion_ramification={"prime": 3}))
    entries = [{"prime": 7, "residue_degree": 1}, 13]
    with pytest.raises(ConfigError, match=r"ramification\[1\]: must be an object"):
        parse_config(dict(SIEGEL_DOC, quaternion_ramification=entries))


def test_exit_code_on_bad_config(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{not json")
    assert main([str(cfg)]) == EXIT_CONFIG
    cfg.write_text(json.dumps({"field": {"kind": "rational"}, "m": 1, "N": 3}))
    assert main([str(cfg)]) == EXIT_CONFIG
    assert main(["/nonexistent/config.json"]) == EXIT_CONFIG


def test_exit_code_when_all_records_fail(tmp_path):
    doc = dict(SIEGEL_DOC, p=3)  # p | N
    status, text = run_cli(tmp_path, doc)
    assert status == EXIT_ALL_FAILED
    records = json.loads(text)
    assert records[0]["error"]["code"] == "p_divides_level"


def test_oracle_check_inline(tmp_path):
    status, text = run_cli(tmp_path, SIEGEL_DOC, "--oracle-check")
    assert status == EXIT_OK
    rec = json.loads(text)[0]
    assert rec["oracle"] == {"verified": True}

    big = dict(SIEGEL_DOC, p=11)  # characteristic beyond the table fields
    status, text = run_cli(tmp_path, big, "--oracle-check")
    assert status == EXIT_OK
    rec = json.loads(text)[0]
    assert rec["oracle"]["verified"] is False
    assert "skipped" in rec["oracle"]


def test_oracle_check_csv_cells(tmp_path):
    doc = dict(SWEEP_DOC, p_sweep={"from": 2, "to": 13})
    status, text = run_cli(tmp_path, doc, "--format", "csv", "--oracle-check")
    assert status == EXIT_OK
    cells = {int(row["p"]): row["oracle"] for row in csv.DictReader(io.StringIO(text))}
    # p = 3 divides the level; 11 and 13 exceed the oracle's field tables
    assert cells == {2: "true", 3: "", 5: "true", 7: "true",
                     11: "skipped", 13: "skipped"}


def test_oracle_disagreement_exits_with_fault_code(tmp_path, monkeypatch):
    real = oracle_mod.irr_count
    monkeypatch.setattr(oracle_mod, "irr_count", lambda s: real(s) + 1)
    status, text = run_cli(tmp_path, SIEGEL_DOC, "--oracle-check")
    assert status == EXIT_FAULT
    assert json.loads(text)[0]["oracle"] == {"verified": False}


def test_oracle_fault_exits_with_fault_code(tmp_path, monkeypatch, capsys):
    # a zero "identity" is not a group element: the oracle's own check fires
    monkeypatch.setattr(oracle_mod, "mat_identity", lambda m: ((0,) * m,) * m)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(SIEGEL_DOC))
    assert main([str(cfg), "--oracle-check"]) == EXIT_FAULT
    assert "identity not in element set" in capsys.readouterr().err


def test_integer_literal_past_digit_limit_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(
        '{"field": {"kind": "rational"}, "m": 1, "N": 3, "p": 1' + "0" * 4999 + "}"
    )
    assert main([str(cfg)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_config_from_standard_input(tmp_path, monkeypatch, capsys):
    _, from_file = run_cli(tmp_path, SIEGEL_DOC)
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(SIEGEL_DOC)))
    assert main(["-"]) == EXIT_OK
    assert capsys.readouterr().out == from_file


def test_non_utf8_config_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_bytes(b"\xff\xfe{")
    assert main([str(cfg)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error: ")


def test_bound_past_digit_limit_renders(tmp_path):
    doc = {"field": {"kind": "rational"}, "m": 30, "N": 3, "p": 1000000007}
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    status, text = run_cli(tmp_path, doc)
    assert status == EXIT_OK
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
    rec = json.loads(text)[0]
    assert len(rec["final_bound"]) > 4300
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        product = int(rec["mass"]) * int(rec["irr_count"]) * int(rec["dim_bound"])
        assert int(rec["final_bound"]) == product
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def test_quadratic_field_config(tmp_path):
    doc = {
        "field": {"kind": "real_quadratic", "disc": 5},
        "quaternion_ramification": [{"prime": 7, "residue_degree": 2},
                                    {"prime": 13, "residue_degree": 2}],
        "m": 1,
        "N": 3,
        "p": 2,
    }
    status, text = run_cli(tmp_path, doc)
    assert status == EXIT_OK
    rec = json.loads(text)[0]
    assert rec["delta_prime"]["away"] == [
        {"prime": 7, "residue_degree": 2},
        {"prime": 13, "residue_degree": 2},
    ]
    assert int(rec["final_bound"]) == int(rec["mass"]) * int(rec["irr_count"]) * int(
        rec["dim_bound"]
    )


def test_render_helpers_round_trip():
    config = parse_config(SIEGEL_DOC)
    records, status = compute_records(config)
    assert status == EXIT_OK
    assert json.loads(render_json(records)) == records
    rows = list(csv.DictReader(io.StringIO(render_csv(records))))
    assert rows[0]["final_bound"] == "192"


@pytest.mark.parametrize(
    "argv",
    [
        ["GL", "2", "6"],  # 6 is not a prime power
        ["U", "2", "11"],  # characteristic above the oracle's field tables
        ["GL", "3", "7"],  # candidate space past the enumeration budget
        ["GSp_modN", "1", "1"],  # level below 2
        ["GSp_modN", "0", "3"],  # empty matrices
        ["GL", "-1", "2"],
        ["GL", "0", "2"],
        ["U", "0", "2"],
        ["Sp", "0", "3"],
        ["GL", "2", "3", "--classes-mod", "0"],  # --classes-mod takes a prime
        ["GL", "2", "3", "--classes-mod", "-3"],
        ["GL", "2", "3", "--classes-mod", "4"],
    ],
)
def test_oracle_subcommand_bad_input_is_a_usage_error(argv, capsys):
    assert main(["oracle", *argv]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_oracle_subcommand_counts_p_regular_classes(capsys):
    # GL_2(F_3) in its defining characteristic: 3 * 2 = 6 classes
    assert main(["oracle", "GL", "2", "3", "--classes-mod", "3"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out) == {
        "descriptor": "GL_2(F_3)", "order": 48, "p_regular_classes": 6,
    }


@pytest.mark.parametrize("argv", [["SL", "2", "2"], ["nope", "1", "2"]])
def test_oracle_subcommand_unknown_kind_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["oracle", *argv])
    assert exc.value.code == EXIT_CONFIG
    assert "invalid choice" in capsys.readouterr().err


def test_unwritable_output_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(SIEGEL_DOC))
    # a path in a missing directory, then a directory itself
    for target in (tmp_path / "missing" / "x.json", tmp_path):
        assert main([str(cfg), "--output", str(target)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: cannot write output: ")


def test_p_independent_work_happens_once_per_run(monkeypatch):
    calls = []
    sp_calls = []
    real = arith_mod.generalized_bernoulli
    real_sp = groups_mod.sp_order

    def counted(n, chi):
        calls.append(n)
        return real(n, chi)

    def counted_sp(m, q):
        sp_calls.append((m, q))
        return real_sp(m, q)

    monkeypatch.setattr(arith_mod, "generalized_bernoulli", counted)
    monkeypatch.setattr(groups_mod, "sp_order", counted_sp)
    groups_mod._level_group_order.cache_clear()
    doc = {
        "field": {"kind": "real_quadratic", "disc": 5},
        "m": 2,
        "N": 3,
        "p_sweep": {"from": 2, "to": 50},
    }
    records, status = compute_records(parse_config(doc))
    assert status == EXIT_OK
    assert sum("error" not in r for r in records) == 13
    assert sorted(calls) == [2, 4]
    # |G(Z/3Z)| once per run: 3 is inert in Q(sqrt5), one place over 3
    assert sp_calls == [(2, 9)]

    # C_B once per quaternion datum, whatever the prime
    quaternion = QuaternionData(FieldSpec(5), (), 2)
    s1 = validate_setting(quaternion, 3, 7)
    s2 = validate_setting(quaternion, 3, 11)
    assert bound_constant(s1) is bound_constant(s2)


def test_level_past_limit_is_a_coded_error_not_a_hang(tmp_path):
    doc = dict(SWEEP_DOC, N=1000000000000000003)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    env = dict(os.environ, PYTHONPATH=str(Path(heckebound.__file__).parents[1]))
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "heckebound.cli", str(cfg)],
        capture_output=True, text=True, env=env, timeout=30,
    )
    elapsed = time.perf_counter() - start
    assert done.returncode == EXIT_ALL_FAILED
    assert elapsed < 2
    records = json.loads(done.stdout)
    assert [r["input"]["p"] for r in records] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert {r["error"]["code"] for r in records} == {"level_too_large"}


def test_disc_past_limit_is_a_coded_error_not_a_hang(tmp_path):
    doc = {
        "field": {"kind": "real_quadratic", "disc": 1000000000000000009},
        "m": 1,
        "N": 3,
        "p": 5,
    }
    with pytest.raises(ConfigError) as err:
        parse_config(doc)
    assert err.value.__cause__.code == "disc_too_large"
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    env = dict(os.environ, PYTHONPATH=str(Path(heckebound.__file__).parents[1]))
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "heckebound.cli", str(cfg)],
        capture_output=True, text=True, env=env, timeout=30,
    )
    elapsed = time.perf_counter() - start
    assert done.returncode == EXIT_CONFIG
    assert elapsed < 2
    assert done.stdout == ""
    assert done.stderr.splitlines() == [
        "error: field.disc: discriminant must be <= 200000, "
        "got 1000000000000000009"
    ]


def test_ramification_error_is_recorded_for_every_prime(tmp_path, capsys):
    doc = dict(
        SWEEP_DOC,
        quaternion_ramification=[{"prime": 4, "residue_degree": 1},
                                 {"prime": 7, "residue_degree": 1}],
    )
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    assert main([str(cfg), "-v"]) == EXIT_ALL_FAILED
    captured = capsys.readouterr()
    records = json.loads(captured.out)
    assert [r["input"]["p"] for r in records] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert {r["error"]["code"] for r in records} == {"ramified_prime_not_prime"}
    skipped = [line for line in captured.err.splitlines() if "skipped" in line]
    assert len(skipped) == len(records)


_FIELDS = (1, 5, 8, 13)


@st.composite
def _sweep_configs(draw):
    disc = draw(st.sampled_from(_FIELDS))
    fld = FieldSpec(disc)
    places = [v for ell in (2, 3, 5, 7, 11, 13) for v in split_prime(fld, ell)]
    ram = draw(
        st.one_of(
            st.just([]),
            st.lists(st.sampled_from(places), min_size=2, max_size=2, unique=True),
        )
    )
    lo = draw(st.integers(2, 200))
    doc = {
        "field": (
            {"kind": "rational"}
            if disc == 1
            else {"kind": "real_quadratic", "disc": disc}
        ),
        "quaternion_ramification": [
            {"prime": v.residue_prime, "residue_degree": v.residue_degree}
            for v in ram
        ],
        "m": draw(st.integers(1, 3)),
        "N": draw(st.integers(3, 12)),
        "p_sweep": {"from": lo, "to": lo + draw(st.integers(0, 39))},
    }
    return doc


@settings(max_examples=50, deadline=None)
@given(_sweep_configs())
def test_shared_datum_matches_fresh_per_prime_records(doc):
    config = parse_config(doc)
    records, _ = compute_records(config)
    lo, hi = config.sweep
    assert [r["input"]["p"] for r in records] == [
        p for p in range(lo, hi + 1) if is_prime(p)
    ]
    for record in records:
        p = record["input"]["p"]
        # a fresh reference: nothing cached by the run above is reused
        groups_mod._level_group_order.cache_clear()
        bounds_mod._bound_constant.cache_clear()
        try:
            quaternion = QuaternionData(
                config.field,
                resolve_ramification(config.field, config.ramification),
                config.m,
            )
            report = final_bound(validate_setting(quaternion, config.level, p))
        except SettingError as exc:
            assert record["error"]["code"] == exc.code
            continue
        assert "error" not in record
        assert record["zeta_F"] == [
            f"{z.numerator}/{z.denominator}" for z in report.zeta_values
        ]
        assert record["C_B"] == (
            f"{report.constant.numerator}/{report.constant.denominator}"
        )
        for key in ("level_group_order", "mass", "irr_count", "dim_bound",
                    "final_bound"):
            assert record[key] == str(getattr(report, key))
