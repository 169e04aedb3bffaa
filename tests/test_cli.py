import contextlib
import csv
import gc
import io
import itertools
import json
import os
import random
import resource
import subprocess
import sys
import time
from fractions import Fraction
from math import gcd, isqrt
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import heckebound
import heckebound.arith as arith_mod
import heckebound.bounds as bounds_mod
import heckebound.cli as cli_mod
import heckebound.groups as groups_mod
import heckebound.numberfield as numberfield_mod
import heckebound.oracle as oracle_mod
from heckebound.arith import is_prime
from heckebound.bounds import final_bound
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


# Reference renderer for the differential tests: each record as a dict of
# documents, laid out by json.dumps(..., indent=2) and csv.writer.


def _ref_frac(x):
    return f"{x.numerator}/{x.denominator}"


def _ref_place_doc(v):
    doc = {"prime": v.residue_prime, "residue_degree": v.residue_degree}
    if v.index:
        doc["index"] = v.index
    if v.ramified:
        doc["ramified"] = True
    return doc


def _ref_input_echo(config, p):
    if config.field.is_rational:
        field_doc = {"kind": "rational"}
    else:
        field_doc = {"kind": "real_quadratic", "disc": config.field.discriminant}
    return {
        "field": field_doc,
        "quaternion_ramification": [
            {"prime": ell, "residue_degree": f} for ell, f in config.ramification
        ],
        "m": config.m,
        "N": config.level,
        "p": p,
    }


def _trial_division_prime(n):
    # a sweep's reference primes: is_prime answers from the window the
    # sweep itself sieved, so it would check the sweep against itself
    return n > 1 and all(n % d for d in range(2, isqrt(n) + 1))


def _reference_primes(config):
    if config.sweep is None:
        return [config.single_p]
    lo, hi = config.sweep
    return [p for p in range(lo, hi + 1) if _trial_division_prime(p)]


def reference_documents(config, verdict=None):
    """The document of each record of config's run, each built on its
    own: a fresh datum (with no per-level values and no zeta values kept
    by an earlier prime), then validate_setting and final_bound at its
    prime, and verdict(setting, irr_count, dim_bound) on the report's
    counts, when given, for the oracle cell."""
    docs = []
    for p in _reference_primes(config):
        echo = _ref_input_echo(config, p)
        try:
            quaternion = QuaternionData(config.field, config.ramification, config.m)
            setting = validate_setting(quaternion, config.level, p)
            report = final_bound(setting)
        except SettingError as exc:
            docs.append({
                "input": echo,
                "error": {"code": exc.code, "message": str(exc)},
            })
            continue
        doc = {
            "input": echo,
            "zeta_F": [_ref_frac(z) for z in report.zeta_values],
            "C_B": _ref_frac(report.constant),
            "level_group_order": str(report.level_group_order),
            "mass": str(report.mass),
            "irr_count": str(report.irr_count),
            "dim_bound": str(report.dim_bound),
            "final_bound": str(report.final_bound),
            "asymptotic_exponent": report.asymptotic_exponent,
            "delta_prime": {
                "at_p": [_ref_place_doc(v) for v in setting.delta_prime_at_p],
                "away": [_ref_place_doc(v) for v in setting.delta_prime_away],
            },
        }
        if verdict is not None:
            doc["oracle"] = verdict(setting, report.irr_count, report.dim_bound)
        docs.append(doc)
    return docs


def _ref_places_csv(places):
    return ";".join(f"{v['prime']}^{v['residue_degree']}" for v in places)


def reference_json(docs):
    return json.dumps(docs, indent=2) + "\n"


def reference_csv(docs):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["p", "error_code", "zeta_F", "C_B", "level_group_order",
                     "mass", "irr_count", "dim_bound", "final_bound",
                     "asymptotic_exponent", "delta_prime_at_p",
                     "delta_prime_away", "oracle"])
    for doc in docs:
        if "error" in doc:
            writer.writerow([doc["input"]["p"], doc["error"]["code"]] + [""] * 11)
            continue
        verdict = doc.get("oracle")
        if verdict is None:
            oracle_cell = ""
        elif verdict.get("skipped"):
            oracle_cell = "skipped"
        else:
            oracle_cell = str(verdict["verified"]).lower()
        writer.writerow([
            doc["input"]["p"], "", ";".join(doc["zeta_F"]), doc["C_B"],
            doc["level_group_order"], doc["mass"], doc["irr_count"],
            doc["dim_bound"], doc["final_bound"], doc["asymptotic_exponent"],
            _ref_places_csv(doc["delta_prime"]["at_p"]),
            _ref_places_csv(doc["delta_prime"]["away"]),
            oracle_cell,
        ])
    return buf.getvalue()


def run_cli(tmp_path, doc, *args):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out.txt"
    status = main([str(cfg), "--output", str(out), *args])
    return status, out.read_text()


def rendered_records(config, oracle_check=False, verbose=False):
    """The documents of a run's records, as the CLI writes them in JSON,
    and its exit status."""
    texts, status = compute_records(config, cli_mod._JsonText(config), oracle_check, verbose)
    return json.loads(render_json(texts)), status


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


def test_sweep_width_is_capped_before_the_window_is_sieved(tmp_path, capsys):
    widest = dict(SWEEP_DOC, p_sweep={"from": 2, "to": 300_001})
    assert parse_config(widest).sweep == (2, 300_001)
    with pytest.raises(ConfigError, match="^p_sweep: .* at most 300000 integers, got 300001$"):
        parse_config(dict(SWEEP_DOC, p_sweep={"from": 2, "to": 300_002}))
    cfg = tmp_path / "config.json"
    for hi in (3_000_000, 10**18):
        cfg.write_text(json.dumps(dict(SWEEP_DOC, p_sweep={"from": 2, "to": hi})))
        with mock.patch.object(cli_mod, "primes_between", side_effect=AssertionError):
            assert main([str(cfg)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: p_sweep: the window may span at most 300000 integers, got {hi - 1}"
        ]


def test_sweep_width_shrinks_with_m_before_the_window_is_sieved(tmp_path, capsys):
    # from m = 3 the window is 1 200 000 // m^2 integers: 480 at m = 50
    lo = 10**18
    widest = dict(SWEEP_DOC, m=50, p_sweep={"from": lo, "to": lo + 479})
    assert parse_config(widest).sweep == (lo, lo + 479)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(dict(SWEEP_DOC, m=50, p_sweep={"from": lo, "to": lo + 480})))
    with mock.patch.object(cli_mod, "primes_between", side_effect=AssertionError):
        assert main([str(cfg)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: p_sweep: the window may span at most 480 integers at m = 50, got 481"
    ]
    # the benchmark windows: 10^5 wide at m = 2 and 6 000 wide at m = 3; above
    # m = 50 every record is m_too_large, so the m <= 2 width holds
    for m, width in ((2, 300_000), (3, 133_333), (3, 6_000), (51, 300_000)):
        doc = dict(SWEEP_DOC, m=m, p_sweep={"from": 2, "to": width + 1})
        assert parse_config(doc).sweep == (2, width + 1)
    with pytest.raises(ConfigError, match="^p_sweep: .* 133333 integers at m = 3, got 133334$"):
        parse_config(dict(SWEEP_DOC, m=3, p_sweep={"from": 2, "to": 133_335}))


def test_sweep_ending_at_psi_12_is_refused_before_the_window_is_sieved(tmp_path, capsys):
    psi_12 = 318_665_857_834_031_151_167_461
    below = dict(SWEEP_DOC, p_sweep={"from": psi_12 - 1000, "to": psi_12 - 1})
    assert parse_config(below).sweep == (psi_12 - 1000, psi_12 - 1)
    cfg = tmp_path / "config.json"
    for lo, hi in ((psi_12 - 1000, psi_12), (10**1000, 10**1000 + 2999)):
        cfg.write_text(json.dumps(dict(SWEEP_DOC, p_sweep={"from": lo, "to": hi})))
        with mock.patch.object(cli_mod, "primes_between", side_effect=AssertionError):
            assert main([str(cfg)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: p_sweep: 'to' must be below psi_12 = {psi_12}"
        ]


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
    # the enumeration side disagrees: one p-regular class too many
    real = oracle_mod.p_regular_class_count
    monkeypatch.setattr(oracle_mod, "p_regular_class_count", lambda g, p: real(g, p) + 1)
    status, text = run_cli(tmp_path, SIEGEL_DOC, "--oracle-check")
    assert status == EXIT_FAULT
    assert json.loads(text)[0]["oracle"] == {"verified": False}


def test_oracle_checks_the_counts_the_record_prints(tmp_path, monkeypatch):
    # the irr_count and final_bound columns doubled after bounds checked
    # them: final = mass * irr * dim still holds, so only the oracle, which
    # compares its enumeration with the printed counts, can see it
    real = cli_mod.final_bounds

    def doubled(setting, ps):
        masses, irrs, dims, bounds = real(setting, ps)
        return masses, [2 * c for c in irrs], dims, [2 * b for b in bounds]

    monkeypatch.setattr(cli_mod, "final_bounds", doubled)
    status, text = run_cli(tmp_path, SIEGEL_DOC, "--oracle-check")
    assert status == EXIT_FAULT
    (record,) = json.loads(text)
    assert (record["irr_count"], record["final_bound"]) == ("48", "384")
    assert record["oracle"] == {"verified": False}


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


def test_deeply_nested_config_is_a_config_error(tmp_path, monkeypatch, capsys):
    deep = "[" * 200_000
    cfg = tmp_path / "config.json"
    cfg.write_text(deep)
    monkeypatch.setattr(sys, "stdin", io.StringIO(deep))
    for source in (str(cfg), "-"):
        assert main([source]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cannot parse config: ")
        assert captured.err.count("\n") == 1


@pytest.mark.parametrize("doc, line", [
    # a misspelt key would otherwise leave the algebra unramified
    ({"field": {"kind": "rational"}, "m": 1, "N": 5, "p": 7,
      "quaternion_ramificaton": [{"prime": 2, "residue_degree": 1},
                                 {"prime": 3, "residue_degree": 1}]},
     "config: unknown field 'quaternion_ramificaton'"),
    (dict(SIEGEL_DOC, field={"kind": "rational", "disc": 5}),
     "field: unknown field 'disc'"),
    (dict(SIEGEL_DOC, field={"kind": "real_quadratic", "disc": 5, "degree": 2}),
     "field: unknown field 'degree'"),
    (dict(SIEGEL_DOC, quaternion_ramification=[
        {"prime": 2, "residue_degree": 1},
        {"prime": 3, "residue_degree": 1, "index": 1},
    ]), "quaternion_ramification[1]: unknown field 'index'"),
    (dict(SWEEP_DOC, p_sweep={"from": 2, "to": 20, "step": 2}),
     "p_sweep: unknown field 'step'"),
])
def test_unknown_config_field_is_refused(tmp_path, monkeypatch, capsys, doc, line):
    with pytest.raises(ConfigError) as exc:
        parse_config(doc)
    assert str(exc.value) == line
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
    for source in (str(cfg), "-"):
        assert main([source]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {line}"]


@pytest.mark.parametrize("text, key", [
    # the last value would win: this ran unramified and exited 0
    ('{"field": {"kind": "rational"}, "quaternion_ramification": '
     '[{"prime": 2, "residue_degree": 1}, {"prime": 3, "residue_degree": 1}], '
     '"quaternion_ramification": [], "m": 1, "N": 5, "p": 7}', "quaternion_ramification"),
    ('{"field": {"kind": "real_quadratic", "disc": 5, "disc": 8}, '
     '"m": 1, "N": 3, "p": 7}', "disc"),
    ('{"field": {"kind": "rational"}, "quaternion_ramification": [{"prime": 2, '
     '"residue_degree": 1}, {"prime": 3, "prime": 5, "residue_degree": 1}], '
     '"m": 1, "N": 7, "p": 11}', "prime"),
    ('{"field": {"kind": "rational"}, "m": 1, "N": 3, '
     '"p_sweep": {"from": 2, "to": 20, "to": 5}}', "to"),
])
def test_repeated_config_key_is_refused(tmp_path, monkeypatch, capsys, text, key):
    cfg = tmp_path / "config.json"
    cfg.write_text(text)
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    for source in (str(cfg), "-"):
        assert main([source]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: repeated key {key!r}"]


def _shuffled(items):
    items = list(items)
    random.Random(0).shuffle(items)
    return items


@pytest.mark.parametrize("order", [reversed, _shuffled], ids=["descending", "shuffled"])
def test_many_ramification_entries_resolve_in_linear_time(tmp_path, order):
    # 20 000 distinct ramified primes over Q, away from N = 3 and p = 5;
    # a list scan for the used places made this a run of minutes, and a
    # shuffled order is what a sort by pairwise comparisons pays for
    primes = arith_mod.primes_between(7, 250_000)[:20_000]
    assert len(primes) == 20_000
    pairs = [(ell, 1) for ell in order(primes)]
    assert resolve_ramification(FieldSpec(1), pairs) == tuple(
        numberfield_mod.Place(ell, 1) for ell, _ in pairs
    )
    doc = dict(SIEGEL_DOC, quaternion_ramification=[
        {"prime": ell, "residue_degree": f} for ell, f in pairs
    ])
    start = time.perf_counter()
    status, text = run_cli(tmp_path, doc)
    elapsed = time.perf_counter() - start
    assert status == EXIT_OK
    (record,) = json.loads(text)
    assert "error" not in record
    assert len(record["delta_prime"]["away"]) == 20_000
    assert elapsed < 8, elapsed


def test_datum_sorts_its_places_with_one_key_each(monkeypatch):
    # Place._key builds the tuple equality and hashing read; the datum
    # sorts by one attrgetter key per place and never calls it, so the
    # calls counted here are the hashes alone
    primes = arith_mod.primes_between(7, 20_000)[:2_000]
    pairs = [(ell, 1) for ell in _shuffled(primes)]
    calls = [0]
    real = numberfield_mod.Place._key

    def counted(self):
        calls[0] += 1
        return real(self)

    monkeypatch.setattr(numberfield_mod.Place, "_key", counted)
    datum = QuaternionData(FieldSpec(1), pairs, 1)
    assert [v.residue_prime for v in datum.ramified_places] == primes
    # the hashes of resolve_ramification's used set: one lookup and one add
    assert calls[0] <= 2 * len(primes), calls[0]


def test_field_discriminant_is_proven_once(monkeypatch):
    # FieldSpec builds its character, the one proof that D is fundamental;
    # the zeta values read it and do not prove D again
    calls = []
    real = arith_mod.factorize

    def counted(n):
        calls.append(n)
        return real(n)

    monkeypatch.setattr(arith_mod, "factorize", counted)
    doc = dict(SIEGEL_DOC, field={"kind": "real_quadratic", "disc": 5}, m=3, p=7)
    records, status = rendered_records(parse_config(doc))
    assert status == EXIT_OK and len(records[0]["zeta_F"]) == 3
    assert calls == [5]


def test_each_ramification_entry_is_proven_once():
    # the datum's places come from resolve_ramification, which proves each
    # entry; the datum does not prove them again
    primes = arith_mod.primes_between(7, 2_000)[:200]
    ram = [{"prime": ell, "residue_degree": 1} for ell in primes]
    counts = []
    for doc in (SIEGEL_DOC, dict(SIEGEL_DOC, quaternion_ramification=ram)):
        arith_mod.primes_between(2, 3)  # keep no window that holds the entries
        config = parse_config(doc)
        (records, status), calls = _profiled_calls(
            (arith_mod.is_prime,), lambda: rendered_records(config)
        )
        assert status == EXIT_OK
        counts.append(calls["is_prime"])
    assert counts[1] - counts[0] == len(primes)


def test_each_swept_prime_is_proven_once(monkeypatch):
    # past (10^5 + 1)^2 the sieve proves its survivors by Miller-Rabin;
    # validation reads that proof from the kept window and adds no
    # modular power
    doc = dict(SWEEP_DOC, p_sweep={"from": 10**11, "to": 10**11 + 600})
    config = parse_config(doc)
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return pow(*args)

    monkeypatch.setattr(arith_mod, "pow", counted, raising=False)
    arith_mod.primes_between(2, 3)
    primes = arith_mod.primes_between(*config.sweep)
    sieve_calls, calls[0] = calls[0], 0
    arith_mod.primes_between(2, 3)
    records, status = rendered_records(config)
    assert status == EXIT_OK
    assert [r["input"]["p"] for r in records] == primes and len(primes) > 20
    assert 0 < calls[0] <= sieve_calls


def _profiled_calls(functions, run):
    """run(), returning the number of calls to each of functions, however
    the caller reached it."""
    codes = {f.__code__: f.__qualname__ for f in functions}
    counts = dict.fromkeys(codes.values(), 0)

    def hook(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            counts[codes[frame.f_code]] += 1

    sys.setprofile(hook)
    try:
        result = run()
    finally:
        sys.setprofile(None)
    return result, counts


def test_run_where_every_record_fails_builds_no_level_part():
    # Q(sqrt5) ramified at both places over 11: at N = 22 every p up to 30
    # fails validation, so nothing of the bound is computed
    doc = {
        "field": {"kind": "real_quadratic", "disc": 5},
        "quaternion_ramification": [{"prime": 11, "residue_degree": 1}] * 2,
        "m": 2,
        "N": 22,
        "p_sweep": {"from": 2, "to": 30},
    }
    watched = (bounds_mod.bound_constant, groups_mod.level_group_order,
               arith_mod.zeta_special_value)
    config = parse_config(doc)
    (records, status), counts = _profiled_calls(watched, lambda: rendered_records(config))
    assert status == EXIT_ALL_FAILED
    assert [(r["input"]["p"], r["error"]["code"]) for r in records] == [
        (2, "p_divides_level"), (3, "level_not_coprime"), (5, "p_ramified_in_field"),
        (7, "level_not_coprime"), (11, "p_divides_level"),
    ] + [(p, "level_not_coprime") for p in (13, 17, 19, 23, 29)]
    assert counts == {"bound_constant": 0, "level_group_order": 0,
                      "zeta_special_value": 0}
    # at N = 6 the same datum builds the part once, on its first record
    config = parse_config(dict(doc, N=6))
    (records, status), counts = _profiled_calls(watched, lambda: rendered_records(config))
    assert status == EXIT_OK
    assert counts == {"bound_constant": 1, "level_group_order": 1,
                      "zeta_special_value": 2}


def _one_irreducible_too_many(monkeypatch, at=lambda p: True):
    # the irr_count column of the shape path, one too high at the primes
    # `at` picks: final = mass * irr * dim breaks there
    real = bounds_mod._irr_column
    monkeypatch.setattr(
        bounds_mod, "_irr_column",
        lambda s, ps, *cards: [c + at(p) for c, p in zip(real(s, ps, *cards), ps)],
    )


@pytest.mark.parametrize("oracle_check", [False, True], ids=["plain", "oracle"])
def test_rendered_sweep_builds_one_setting_and_report_per_shape(oracle_check):
    # Q(sqrt13) up to 20 000: split and inert primes, and the error records
    # of p = 2 and 3 (they divide N) and 13 (it ramifies in the field); a
    # rendered sweep builds a setting and a report for one skeleton per
    # shape, and none per record; with the oracle, which reads a setting,
    # it builds one setting per passing prime and still no report per record
    doc = {"field": {"kind": "real_quadratic", "disc": 13}, "m": 2, "N": 6,
           "p_sweep": {"from": 2, "to": 20_000}}
    config = parse_config(doc)
    watched = (numberfield_mod.ShimuraSetting.__init__, bounds_mod.BoundReport.__init__)
    # the verdict is fixed, so the oracle's own cost stays out of the test
    with mock.patch.object(oracle_mod, "verify_setting_with_oracle",
                           lambda setting, irr, dim: dict(_VERDICTS[0])):
        (records, status), counts = _profiled_calls(
            watched, lambda: rendered_records(config, oracle_check)
        )
    assert status == EXIT_OK and len(records) > 2_000
    assert {r["error"]["code"] for r in records if "error" in r} == {
        "p_divides_level", "p_ramified_in_field"}
    passing = [r for r in records if "error" not in r]
    assert {len(r["delta_prime"]["at_p"]) for r in passing} == {0, 2}
    assert all(("oracle" in r) == oracle_check for r in passing)
    assert counts["BoundReport.__init__"] <= 2
    if oracle_check:
        assert counts["ShimuraSetting.__init__"] == len(passing)
    else:
        assert counts["ShimuraSetting.__init__"] <= 2


@pytest.mark.parametrize("flip", ["irr_count", "zeta"])
def test_broken_exact_identity_exits_with_fault_code(tmp_path, monkeypatch, capsys, flip):
    if flip == "irr_count":
        _one_irreducible_too_many(monkeypatch)
        message = "internal fault: factorization identity violated: bound 192 != "
    else:
        real_zeta = numberfield_mod.zeta_special_value
        monkeypatch.setattr(
            numberfield_mod, "zeta_special_value",
            lambda fld, j: -real_zeta(fld, j) if j == 1 else real_zeta(fld, j),
        )
        message = "internal fault: bound constant -1/24 is not positive\n"
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(SIEGEL_DOC))
    assert main([str(cfg)]) == EXIT_FAULT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(message) and captured.err.count("\n") == 1


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
    texts, status = compute_records(config, cli_mod._JsonText(config))
    assert status == EXIT_OK
    assert json.loads(render_json(texts)) == reference_documents(config)
    rows, status = compute_records(config, cli_mod._CsvText())
    assert status == EXIT_OK
    rows = list(csv.DictReader(io.StringIO(render_csv(rows))))
    assert rows[0]["final_bound"] == "192"


_DATUM_FAILS_DOC = dict(
    SWEEP_DOC,
    quaternion_ramification=[{"prime": 4, "residue_degree": 1},
                             {"prime": 7, "residue_degree": 1}],
)

# windows at the edges of the streamed rendering: records are rendered as
# they are produced, and the shared cells are built at the first report
_EDGE_WINDOWS = {
    # p = 2 and 3 divide N: the first two records are errors
    "errors_first": (dict(SWEEP_DOC, N=6, p_sweep={"from": 2, "to": 40}), ()),
    "no_prime": (dict(SWEEP_DOC, p_sweep={"from": 24, "to": 28}), ()),
    # the datum fails, so every record is its error
    "datum_fails": (_DATUM_FAILS_DOC, ()),
    "oracle_check": (dict(SWEEP_DOC, p_sweep={"from": 2, "to": 7}), ("--oracle-check",)),
    # over Q(sqrt5), 11, 19, 29, 31, 41 and 59 split and the other p != 5
    # are inert; p = 5 ramifies in the field
    "quadratic_split_inert": (
        {"field": {"kind": "real_quadratic", "disc": 5}, "m": 2, "N": 3,
         "p_sweep": {"from": 2, "to": 60}},
        (),
    ),
    "quadratic_ramified": (
        {"field": {"kind": "real_quadratic", "disc": 5},
         "quaternion_ramification": [{"prime": 11, "residue_degree": 1},
                                     {"prime": 19, "residue_degree": 1}],
         "m": 1, "N": 4, "p_sweep": {"from": 5, "to": 31}},
        (),
    ),
}


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("name", sorted(_EDGE_WINDOWS))
def test_streamed_output_matches_the_reference_layout(tmp_path, capsys, name, fmt):
    doc, flags = _EDGE_WINDOWS[name]
    config = parse_config(doc)
    oracle_check = "--oracle-check" in flags
    records, status = rendered_records(config, oracle_check)
    docs = reference_documents(
        config, oracle_mod.verify_setting_with_oracle if oracle_check else None
    )
    want = reference_json(docs) if fmt == "json" else reference_csv(docs)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    assert main([str(cfg), "--format", fmt, *flags]) == status
    assert capsys.readouterr().out == want
    if name == "errors_first":
        assert ["error" not in r for r in records[:3]] == [False, False, True]
    elif name == "no_prime":
        assert records == [] and status == EXIT_ALL_FAILED
        assert want == ("[]\n" if fmt == "json" else want.splitlines()[0] + "\n")
    elif name == "datum_fails":
        assert status == EXIT_ALL_FAILED
        assert {r["error"]["code"] for r in records} == {"ramified_prime_not_prime"}
    elif name == "oracle_check":
        assert status == EXIT_OK
        assert [r["oracle"] for r in records if "error" not in r] == [{"verified": True}] * 3
    elif name == "quadratic_split_inert":
        at_p = {len(r["delta_prime"]["at_p"]) for r in records if "error" not in r}
        assert at_p == {0, 2}


# a CLI run with every csv.writer's writerow counted, the count on stderr;
# the spy is in place before heckebound.cli is imported
_CSV_SPY = """
import csv, sys
rows = []
real_writer = csv.writer

def counting_writer(*args, **kwargs):
    writer = real_writer(*args, **kwargs)

    class Counted:
        def writerow(self, row):
            rows.append(row)
            return writer.writerow(row)

    return Counted()

csv.writer = counting_writer
from heckebound.cli import main
status = main(sys.argv[1:])
print(len(rows), file=sys.stderr)
sys.exit(status)
"""


def test_csv_writer_calls_do_not_grow_with_the_records(tmp_path):
    # a row fills the skeleton of its shape; csv.writer lays out only the
    # header and one skeleton per shape: each count of places over p, and
    # the error rows
    doc = {"field": {"kind": "real_quadratic", "disc": 5}, "m": 2, "N": 6,
           "p_sweep": {"from": 2, "to": 200}}
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    env = dict(os.environ, PYTHONPATH=str(Path(heckebound.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", _CSV_SPY, str(cfg), "--format", "csv"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == EXIT_OK, done.stderr
    config = parse_config(doc)
    assert done.stdout == reference_csv(reference_documents(config))
    records, _ = rendered_records(config)
    errors = [r for r in records if "error" in r]
    at_p = {len(r["delta_prime"]["at_p"]) for r in records if "error" not in r}
    # p = 2 and 3 divide N and 5 ramifies in the field; split and inert p
    assert len(errors) == 3 and at_p == {0, 2}
    assert len(records) - len(errors) == 43
    calls = int(done.stderr.splitlines()[-1])
    assert calls == 1 + len(at_p) + 1


def test_json_encoder_builds_do_not_grow_with_the_error_records(tmp_path, monkeypatch, capsys):
    # json.dumps(..., indent=2) builds the pure-Python encoder's closures
    # (_make_iterencode) on every call; a record fills the skeleton of its
    # shape, so the encoder is built once per skeleton: each count of
    # places over p, and the error records
    doc = {"field": {"kind": "real_quadratic", "disc": 13}, "m": 2, "N": 6,
           "p_sweep": {"from": 2, "to": 2000}}
    builds = [0]
    real = json.encoder._make_iterencode

    def counted(*args, **kwargs):
        builds[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(json.encoder, "_make_iterencode", counted)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    assert main([str(cfg)]) == EXIT_OK
    calls = builds[0]
    out = capsys.readouterr().out
    records = json.loads(out)
    errors = [r for r in records if "error" in r]
    at_p = {len(r["delta_prime"]["at_p"]) for r in records if "error" not in r}
    # p = 2 and 3 divide N and 13 ramifies in the field; split and inert p
    assert len(errors) == 3 and at_p == {0, 2}
    assert calls == len(at_p) + 1
    assert out == reference_json(reference_documents(parse_config(doc)))


def _setting_errors():
    return {id(o) for o in gc.get_objects() if isinstance(o, SettingError)}


def test_error_records_hold_no_traceback_and_no_cycle():
    # a caught SettingError's traceback holds the frame of compute_records,
    # whose locals hold the error and every text: kept with it, the whole
    # result is cyclic garbage that only the collector frees, so with the
    # collector off the error outlives the run; a per-prime error is still
    # held by that frame when it is the window's last record
    for doc in (dict(SWEEP_DOC, N=6), dict(SWEEP_DOC, N=6, p_sweep={"from": 2, "to": 3}),
                _DATUM_FAILS_DOC):
        config = parse_config(doc)
        gc.collect()
        gc.disable()
        try:
            before = _setting_errors()
            records, _ = rendered_records(config)
            assert any("error" in r for r in records)
            del records
            assert not _setting_errors() - before
        finally:
            gc.enable()


@pytest.mark.parametrize("to_file", [False, True])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_fault_mid_sweep_leaves_no_output(tmp_path, monkeypatch, capsys, fmt, to_file):
    # one irreducible too many at p = 53, the sixteenth prime of the
    # window's one shape, breaks final = mass * irr * dim
    _one_irreducible_too_many(monkeypatch, lambda p: p == 53)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(dict(SWEEP_DOC, p_sweep={"from": 2, "to": 100})))
    target = tmp_path / "out.txt"
    flags = ["--format", fmt] + (["--output", str(target)] if to_file else [])
    assert main([str(cfg), *flags]) == EXIT_FAULT
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("internal fault: factorization identity violated")
    assert not target.exists()


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_identity_is_checked_at_every_prime_of_every_shape(tmp_path, monkeypatch, capsys, fmt):
    # Q(sqrt5) over 2..2000 has split and inert primes; the identity breaks
    # at one inert prime in the middle of its bucket alone, so a check that
    # reads only the first record of each shape lets the run through
    doc = {"field": {"kind": "real_quadratic", "disc": 5}, "m": 2, "N": 3,
           "p_sweep": {"from": 2, "to": 2000}}
    primes = [p for p in arith_mod.primes_between(2, 2000) if p not in (3, 5)]
    inert = [p for p in primes if split_prime(FieldSpec(5), p)[0].residue_degree == 2]
    bad = inert[len(inert) // 2]
    # both shapes have records, and bad is not the first of its bucket
    assert 0 < len(inert) < len(primes) and inert[0] < bad
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    assert main([str(cfg), "--format", fmt]) == EXIT_OK
    capsys.readouterr()
    _one_irreducible_too_many(monkeypatch, lambda p: p == bad)
    assert main([str(cfg), "--format", fmt]) == EXIT_FAULT
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("internal fault: factorization identity violated")


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


def test_oracle_classes_mod_from_psi_12_on_names_the_limit(capsys):
    # psi_12 passes all twelve bases of is_prime, so it cannot be proven prime
    psi_12 = 318_665_857_834_031_151_167_461
    assert main(["oracle", "GL", "2", "3", "--classes-mod", str(psi_12)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: --classes-mod must be < {psi_12}, got {psi_12}\n"
    )


def test_oracle_subcommand_counts_p_regular_classes(capsys):
    # GL_2(F_3) in its defining characteristic: 3 * 2 = 6 classes
    assert main(["oracle", "GL", "2", "3", "--classes-mod", "3"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out) == {
        "descriptor": "GL_2(F_3)", "order": 48, "p_regular_classes": 6,
    }


@pytest.mark.parametrize("argv,what", [
    (["GL", "30000", "2"], "GL_30000(F_2)"),
    (["GL", "300000", "2"], "GL_300000(F_2)"),
    (["Sp", "100000", "2"], "Sp_200000(F_2) basis tree"),
    (["GSp_modN", "100000", "3"], "GSp_200000(Z/3)"),
    (["U", "1000000000", "2"], "U_1000000000(F_2)"),
])
def test_oracle_subcommand_past_budget_exits_before_building_the_power(argv, what):
    # the candidate count q^(m^2) etc. is decided from its exponent: 2^(9*10^10)
    # for GL 300000 2 would be about 11 GB as an int, so the child gets 1 GiB
    # of address space and a regression fails fast with a MemoryError
    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

    env = dict(os.environ, PYTHONPATH=str(Path(heckebound.__file__).parents[1]))
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "heckebound.cli", "oracle", *argv],
        capture_output=True, text=True, env=env, timeout=10, preexec_fn=limit_memory,
    )
    elapsed = time.perf_counter() - start
    assert done.returncode == EXIT_CONFIG
    assert elapsed < 1
    assert done.stdout == ""
    assert done.stderr.splitlines() == [
        f"error: {what}: candidate space exceeds the 10000000 budget"
    ]


@pytest.mark.parametrize("kind", ["GL", "U", "Sp"])
def test_oracle_subcommand_large_field_order_exits_before_factoring(kind):
    # the field-order limit comes before factorizing q, which for a prime
    # q near 10^18 would take about 10^9 trial divisions
    env = dict(os.environ, PYTHONPATH=str(Path(heckebound.__file__).parents[1]))
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "heckebound.cli", "oracle", kind, "1",
         "1000000000000000003"],
        capture_output=True, text=True, env=env, timeout=10,
    )
    elapsed = time.perf_counter() - start
    assert done.returncode == EXIT_CONFIG
    assert elapsed < 1
    assert done.stdout == ""
    assert done.stderr.splitlines() == ["error: field order must be at most 49"]


@pytest.mark.parametrize("argv", [["GL", "1", "0"], ["GL", "1", "-3"], ["U", "1", "0"],
                                  ["Sp", "1", "0"], ["GL", "1", "1"]])
def test_oracle_subcommand_field_order_below_2_is_not_a_prime_power(argv, capsys):
    # q < 2 is refused before factorizing, which takes positive integers only
    assert main(["oracle", *argv]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {argv[2]} is not a prime power"]


@pytest.mark.parametrize("q", ["8", "49"])
def test_oracle_subcommand_unitary_names_the_quadratic_extension(q, capsys):
    # q is within the field-order limit, F_{q^2} is not
    assert main(["oracle", "U", "1", q]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: U_1(F_{q}) needs F_{int(q) ** 2}, past the field-order limit 49"
    ]


@pytest.mark.parametrize("argv", [["SL", "2", "2"], ["nope", "1", "2"]])
def test_oracle_subcommand_unknown_kind_exits_2(argv, capsys):
    # main returns argparse's usage error as its status, raising nothing
    assert main(["oracle", *argv]) == EXIT_CONFIG
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


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("doc, argv", [
    # a short text fails at the flush, a long one (past stdout's buffer) in
    # the write itself
    (SIEGEL_DOC, []),
    (dict(SWEEP_DOC, p_sweep={"from": 2, "to": 3000}), ["--format", "csv"]),
    (None, ["oracle", "GL", "2", "3"]),
])
def test_failed_write_to_stdout_is_a_config_error(tmp_path, doc, argv):
    # stdout buffered, as it is without PYTHONUNBUFFERED: an unflushed text
    # would fail at interpreter exit, with exit 120 and an "Exception
    # ignored" report instead of the documented exit codes
    if doc is not None:
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(doc))
        argv = [str(cfg), *argv]
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(Path(heckebound.__file__).parents[1])
    with open("/dev/full", "w") as full:
        done = subprocess.run(
            [sys.executable, "-m", "heckebound.cli", *argv],
            stdout=full, stderr=subprocess.PIPE, text=True, env=env, timeout=60,
        )
    assert done.returncode == EXIT_CONFIG, done.stderr
    lines = done.stderr.splitlines()
    assert len(lines) == 1, done.stderr
    assert lines[0].startswith("error: cannot write output: ")


@pytest.mark.parametrize("doc, argv", [
    (SIEGEL_DOC, []),
    (None, ["oracle", "GL", "2", "3"]),
])
def test_closed_stdout_is_a_config_error(tmp_path, doc, argv):
    # with descriptor 1 closed at start-up sys.stdout is None: the output
    # cannot be written, which is no internal fault
    if doc is not None:
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(doc))
        argv = [str(cfg), *argv]
    env = dict(os.environ, PYTHONPATH=str(Path(heckebound.__file__).parents[1]))
    done = subprocess.run(
        ["sh", "-c", 'exec "$@" >&-', "sh", sys.executable, "-m", "heckebound.cli", *argv],
        stderr=subprocess.PIPE, text=True, env=env, timeout=60,
    )
    assert done.returncode == EXIT_CONFIG, done.stderr
    lines = done.stderr.splitlines()
    assert len(lines) == 1, done.stderr
    assert lines[0].startswith("error: cannot write output: ")


_USAGE_ERRORS = {
    "unknown-flag": ["--bogus"],
    "no-config": [],
    "oracle-kind": ["oracle", "XX", "1", "2"],
    "oracle-int": ["oracle", "GL", "x", "2"],
}


@pytest.mark.parametrize("name", sorted(_USAGE_ERRORS))
def test_usage_error_returns_the_config_code(capsys, name):
    # argparse's own lines, through main's exit path: a returned status,
    # not a SystemExit raised out of main
    argv = _USAGE_ERRORS[name]
    assert main(argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    prog = "heckebound oracle" if argv[:1] == ["oracle"] else "heckebound"
    lines = captured.err.splitlines()
    assert captured.out == ""
    assert lines[0].startswith(f"usage: {prog} [-h]")
    assert lines[-1].startswith(f"{prog}: error: ")


@pytest.mark.parametrize("argv", [["--help"], ["oracle", "--help"]], ids=["run", "oracle"])
def test_help_is_the_output_of_a_run(capsys, argv):
    assert main(argv) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.err == ""
    if argv == ["--help"]:
        assert captured.out == cli_mod._build_parser().format_help()
    else:
        assert captured.out.startswith("usage: heckebound oracle [-h]")
        assert "--classes-mod P" in captured.out


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [["--help"], ["oracle", "--help"]], ids=["run", "oracle"])
def test_help_to_a_full_device_is_an_output_error(argv):
    # stdout buffered: argparse's help used to sit unflushed when it raised
    # SystemExit(0), and failed at interpreter exit with exit 120
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(Path(heckebound.__file__).parents[1])
    with open("/dev/full", "w") as full:
        done = subprocess.run(
            [sys.executable, "-m", "heckebound.cli", *argv],
            stdout=full, stderr=subprocess.PIPE, text=True, env=env, timeout=60,
        )
    assert done.returncode == EXIT_CONFIG, done.stderr
    lines = done.stderr.splitlines()
    assert len(lines) == 1, done.stderr
    assert lines[0].startswith("error: cannot write output: ")


def _cli_under(shell_redirect, argv, cwd):
    """The CLI as its own process, its descriptors redirected by sh."""
    env = dict(os.environ, PYTHONPATH=str(Path(heckebound.__file__).parents[1]))
    return subprocess.run(
        ["sh", "-c", f'exec "$@" {shell_redirect}', "sh", sys.executable, "-m",
         "heckebound.cli", *argv],
        capture_output=True, env=env, cwd=cwd, timeout=60,
    )


@pytest.mark.parametrize("argv, status", [
    (["sweep.json", "-v"], EXIT_OK),
    (["sweep.json", "-v", "--output", "out.json"], EXIT_OK),
    (["missing.json"], EXIT_CONFIG),
    (["oracle", "GL", "2", "1"], EXIT_CONFIG),
    (["errors.json", "-v"], EXIT_ALL_FAILED),  # p = 2 and 3 both divide N = 6
], ids=["sweep", "sweep-to-file", "missing-config", "oracle-bad-input", "all-errors"])
def test_stderr_that_takes_nothing_changes_no_exit_code_or_output(tmp_path, argv, status):
    # stderr is best effort: on a full device or closed, its lines are
    # dropped, and the exit code and output are those of a run whose
    # stderr is open
    (tmp_path / "sweep.json").write_text(
        json.dumps(dict(SWEEP_DOC, m=2, p_sweep={"from": 2, "to": 30})))
    (tmp_path / "errors.json").write_text(
        json.dumps(dict(SWEEP_DOC, m=2, N=6, p_sweep={"from": 2, "to": 3})))
    written = tmp_path / "out.json"

    def outcome(redirect):
        written.unlink(missing_ok=True)
        done = _cli_under(redirect, argv, tmp_path)
        output = written.exists() and written.read_bytes()
        return (done.returncode, done.stdout, output), done.stderr

    expected, open_stderr = outcome("")
    assert open_stderr and expected[0] == status
    assert bool(expected[1] or expected[2]) == (status != EXIT_CONFIG)
    redirects = ["2>&-"] + (["2>/dev/full"] if os.path.exists("/dev/full") else [])
    for redirect in redirects:
        assert outcome(redirect)[0] == expected, redirect


def test_closed_stdin_is_a_config_error(tmp_path):
    # with descriptor 0 closed at start-up sys.stdin is None: the config
    # cannot be read, which is no internal fault
    done = _cli_under("<&-", ["-"], tmp_path)
    assert done.returncode == EXIT_CONFIG, done.stderr
    assert done.stdout == b""
    lines = done.stderr.decode().splitlines()
    assert len(lines) == 1, lines
    assert lines[0].startswith("error: cannot read config: ")


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
    doc = {
        "field": {"kind": "real_quadratic", "disc": 5},
        "m": 2,
        "N": 3,
        "p_sweep": {"from": 2, "to": 50},
    }
    config = parse_config(doc)
    records, status = rendered_records(config)
    assert status == EXIT_OK
    assert sum("error" not in r for r in records) == 13
    assert sorted(calls) == [2, 4]
    # |G(Z/3Z)| once per run: 3 is inert in Q(sqrt5), one place over 3
    assert sp_calls == [(2, 9)]

    # C_B once per quaternion datum, whatever the prime
    quaternion = QuaternionData(FieldSpec(5), (), 2)
    s1 = validate_setting(quaternion, 3, 7)
    s2 = validate_setting(quaternion, 3, 11)
    assert final_bound(s1).constant is final_bound(s2).constant


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


def test_ramified_prime_from_psi_12_on_is_a_coded_error(tmp_path, capsys):
    psi_12 = 318_665_857_834_031_151_167_461
    doc = dict(
        SIEGEL_DOC,
        quaternion_ramification=[{"prime": psi_12, "residue_degree": 1},
                                 {"prime": 7, "residue_degree": 1}],
    )
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    assert main([str(cfg)]) == EXIT_ALL_FAILED
    (record,) = json.loads(capsys.readouterr().out)
    assert record["error"] == {
        "code": "ramified_prime_too_large",
        "message": f"ramification entry must be < {psi_12}, got {psi_12}",
    }


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
    records, _ = rendered_records(config)
    lo, hi = config.sweep
    assert [r["input"]["p"] for r in records] == [
        p for p in range(lo, hi + 1) if _trial_division_prime(p)
    ]
    for record in records:
        p = record["input"]["p"]
        # a fresh reference: a new datum starts with no per-level values,
        # so nothing cached by the run above is reused
        try:
            quaternion = QuaternionData(config.field, config.ramification, config.m)
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


_VERDICTS = (
    {"verified": True},
    {"verified": False},
    {"verified": False,
     "skipped": 'linear factor over Place(7^2,0): more than the "100000" limit'},
    # text that looks like a placeholder or a format field: a renderer may
    # split or format its skeletons, never a cell's content
    {"verified": False,
     "skipped": 'slot \x1f, escaped \\u001f, %s, {0}, back\\slash, "quoted",\n'
                'next line, Äbel'},
)


@settings(max_examples=60, deadline=None)
@given(
    _sweep_configs(),
    st.booleans(),
    st.lists(st.sampled_from(_VERDICTS), min_size=1, max_size=5),
    st.booleans(),
)
@example(dict(SWEEP_DOC, p_sweep={"from": 24, "to": 28}), False, [_VERDICTS[0]], False)
@example(dict(SWEEP_DOC, N=6, p_sweep={"from": 2, "to": 3}), True, [_VERDICTS[2]], True)
def test_renderers_match_the_reference_layout(doc, oracle_check, verdicts, verbose):
    # the verdicts are fixed, so the oracle's own cost stays out of the test:
    # the primes of the window take them in turn, each the same verdict in
    # the run and in the reference
    config = parse_config(doc)
    at = dict(zip(_reference_primes(config), itertools.cycle(verdicts)))

    def verdict(setting, irr, dim):
        return dict(at[setting.p])

    docs = reference_documents(config, verdict if oracle_check else None)
    with mock.patch.object(oracle_mod, "verify_setting_with_oracle", verdict):
        texts = compute_records(config, cli_mod._JsonText(config), oracle_check, verbose)[0]
        assert render_json(texts) == reference_json(docs)
        rows = compute_records(config, cli_mod._CsvText(), oracle_check, verbose)[0]
        assert render_csv(rows) == reference_csv(docs)


def test_unexpected_exception_is_an_internal_fault(tmp_path, monkeypatch, capsys):
    def broken(setting):
        raise ZeroDivisionError("division by zero")

    monkeypatch.setattr(cli_mod, "final_bound", broken)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(SIEGEL_DOC))
    assert main([str(cfg)]) == EXIT_FAULT
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("internal fault: ZeroDivisionError: division by zero")


def test_m_past_limit_is_a_coded_error_not_a_slow_record(tmp_path):
    # m = 400 at p = 5 took 11 s, nearly all of it writing the bound out
    doc = dict(SIEGEL_DOC, m=400)
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
    [record] = json.loads(done.stdout)
    assert record["error"] == {
        "code": "m_too_large",
        "message": "module rank m must be <= 50 for this field, got 400",
    }


# Validation codes against an in-test transcription of the eight per-p
# checks, in their documented order.  The reference works from the
# datum's field and ramification pairs alone.

_PSI_12 = 318_665_857_834_031_151_167_461
_CODE_FIELDS = (1, 5, 8, 12, 13, 17, 21, 24)
_SMALL_PRIMES = [q for q in range(2, 1000) if is_prime(q)]


def _reference_code(fld, pairs, level, p):
    if level < 3:
        return "level_too_small"
    if level > 10**12:
        return "level_too_large"
    if p >= _PSI_12:
        return "p_too_large"
    if not is_prime(p):
        return "p_not_prime"
    if level % p == 0:
        return "p_divides_level"
    if fld.discriminant % p == 0:
        return "p_ramified_in_field"
    if any(ell == p for ell, _ in pairs):
        return "p_in_ramification_set"
    bad = fld.discriminant
    for ell, _ in pairs:
        bad *= ell
    if gcd(level, bad) != 1:
        return "level_not_coprime"
    return None


def _disc_primes(fld):
    return [ell for ell in _SMALL_PRIMES if fld.discriminant % ell == 0]


def _small_places(fld):
    return [v for ell in (2, 3, 5, 7, 11, 13) for v in split_prime(fld, ell)]


@st.composite
def _datum_and_level(draw):
    fld = FieldSpec(draw(st.sampled_from(_CODE_FIELDS)))
    places = draw(st.lists(st.sampled_from(_small_places(fld)), max_size=4, unique=True))
    # as pairs: two pairs (ell, 1) give both places over a split ell
    ram = [(v.residue_prime, v.residue_degree) for v in places[: len(places) // 2 * 2]]
    bad_primes = sorted({ell for ell, _ in ram} | set(_disc_primes(fld)))
    shared = (
        st.builds(lambda ell, k: ell * k, st.sampled_from(bad_primes), st.integers(1, 60))
        if bad_primes else st.integers(3, 400)
    )
    # hypothesis favours the first branches of one_of: valid levels lead
    level = draw(st.one_of(
        st.integers(3, 400),
        shared,
        st.integers(-3, 2),
        st.integers(10**12 - 3, 10**12 + 3),
        st.integers(10**12 + 4, 10**18),
    ))
    return fld, ram, level


def _primes_to_try(draw, fld, ram, level):
    small_level = [q for q in range(2, 60) if level > 0 and level % q == 0]
    return draw(st.one_of(
        st.sampled_from([q for q in _SMALL_PRIMES if q < 200]),
        st.sampled_from([ell for ell, _ in ram] or [2]),
        st.integers(-2, 200),
        st.sampled_from(_disc_primes(fld) or [3]),
        st.sampled_from(small_level or [5]),
        st.integers(10**9, 10**9 + 200),
        st.sampled_from((_PSI_12 - 2, _PSI_12, _PSI_12 + 1, 2**89 - 1)),
    ))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_validation_codes_follow_the_documented_order(data):
    fld, ram, level = data.draw(_datum_and_level())
    p = _primes_to_try(data.draw, fld, ram, level)
    want = _reference_code(fld, ram, level, p)
    try:
        setting = validate_setting(QuaternionData(fld, ram, 2), level, p)
    except SettingError as exc:
        assert exc.code == want, (fld, ram, level, p)
    else:
        assert want is None, (fld, ram, level, p)
        assert setting.places_over_p == tuple(split_prime(fld, p))


@settings(max_examples=80, deadline=None)
@given(_datum_and_level(), st.integers(-2, 300), st.integers(0, 40))
def test_sweep_error_records_follow_the_documented_order(datum, lo, width):
    fld, ram, level = datum
    lo = max(lo, 2)
    doc = {
        "field": (
            {"kind": "rational"}
            if fld.is_rational
            else {"kind": "real_quadratic", "disc": fld.discriminant}
        ),
        "quaternion_ramification": [
            {"prime": ell, "residue_degree": f} for ell, f in ram
        ],
        "m": 1,
        "N": level,
        "p_sweep": {"from": lo, "to": lo + width},
    }
    config = parse_config(doc)
    records, status = rendered_records(config)
    ps = [r["input"]["p"] for r in records]
    assert ps == [p for p in range(lo, lo + width + 1) if _trial_division_prime(p)]
    codes = [r["error"]["code"] if "error" in r else None for r in records]
    assert codes == [_reference_code(fld, ram, level, p) for p in ps]
    if records:
        assert status == (EXIT_OK if None in codes else EXIT_ALL_FAILED)


# Random run descriptions through main: a documented exit code, no
# traceback, and a bounded run (m <= 6, N <= 200, windows <= 200 wide).

_MAIN_WALL_BOUND_S = 5.0
_WRONG_TYPES = (None, True, "3", 2.5, [], {})


@st.composite
def _run_documents(draw):
    # mostly well-formed documents, with at most one corruption: a wrong
    # type, a missing or an extra key, a bad field, or a top level that is
    # not an object
    disc = draw(st.sampled_from(_CODE_FIELDS * 3 + ("any",)))
    if disc == "any":
        disc = draw(st.integers(-5, 600))
    fld_doc = (
        {"kind": "rational"} if disc == 1
        else {"kind": "real_quadratic", "disc": disc}
    )
    ram_kind = draw(st.sampled_from(("none", "none", "places", "places", "any")))
    ram = []
    if ram_kind == "places" and disc in _CODE_FIELDS:
        places = _small_places(FieldSpec(disc))
        ram = [(v.residue_prime, v.residue_degree) for v in draw(
            st.lists(st.sampled_from(places), min_size=2, max_size=2, unique=True)
        )]
    elif ram_kind == "any":
        ram = draw(st.lists(st.tuples(st.integers(-3, 40), st.integers(0, 3)), max_size=4))
    doc = {
        "field": fld_doc,
        "quaternion_ramification": [
            {"prime": ell, "residue_degree": f} for ell, f in ram
        ],
        "m": draw(st.sampled_from((1, 1, 2, 2, 3, 4, 5, 6, 0, -1))),
        "N": draw(st.integers(3, 200) if draw(st.integers(0, 4)) else st.integers(-5, 2)),
    }
    if draw(st.booleans()):
        lo = draw(st.one_of(st.integers(2, 400), st.integers(-5, 10**6)))
        doc["p_sweep"] = {"from": lo, "to": lo + draw(st.integers(-3, 199))}
    else:
        doc["p"] = draw(st.one_of(
            st.sampled_from(_SMALL_PRIMES), st.integers(2, 10**4),
            st.integers(10**17, 10**18), st.just(_PSI_12),
        ))
    corruption = draw(st.sampled_from(
        ("none",) * 6 + ("type", "missing", "extra", "field", "top")
    ))
    if corruption == "type":
        doc[draw(st.sampled_from(sorted(doc)))] = draw(st.sampled_from(_WRONG_TYPES))
    elif corruption == "missing":
        del doc[draw(st.sampled_from(sorted(doc)))]
    elif corruption == "extra":
        doc["p" if "p_sweep" in doc else "p_sweep"] = {"from": 2, "to": 30}
    elif corruption == "field":
        doc["field"] = draw(st.sampled_from(
            ({"kind": "cubic"}, {"kind": "real_quadratic"}, {}, [], {"kind": 5})
        ))
    elif corruption == "top":
        return draw(st.sampled_from(([], 3, "config", None)))
    return doc


@settings(max_examples=150, deadline=None)
@given(_run_documents(), st.sampled_from(((), ("--format", "csv"))))
def test_random_run_documents_exit_with_a_documented_code(doc, flags):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with mock.patch.object(sys, "stdin", io.StringIO(json.dumps(doc))), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["-", *flags])
    elapsed = time.perf_counter() - start
    assert code in (EXIT_OK, EXIT_ALL_FAILED, EXIT_CONFIG, EXIT_FAULT)
    assert "Traceback" not in err.getvalue()
    assert elapsed < _MAIN_WALL_BOUND_S, (doc, elapsed)


# The shape path against a reference computed record by record: the
# checks by _reference_code, the bound over Q unramified by siegel_bound,
# and otherwise by the closed forms written out here from the field's
# places over p, its zeta values and the factorization of N.

_SHAPE_FIELDS = (1, 5, 8, 12, 13, 17, 21, 24, 28, 29, 33, 37, 40, 41, 44, 53, 56, 57, 60)
_PRIMES_PAST_A_MILLION = [q for q in range(10**6, 10**6 + 1000) if _trial_division_prime(q)]


def _reference_counts(fld, places, m, level, p):
    """(mass, irr_count, dim_bound, final_bound) at one valid record."""
    d = fld.degree
    constant = Fraction((-1) ** (d * m * (m + 1) // 2), 2 ** (m * d))
    for i in range(1, m + 1):
        constant *= arith_mod.zeta_special_value(fld, i)
        for v in places:
            constant *= v.residue_cardinality**i + (-1) ** i
    order = 1
    for ell, a in arith_mod.factorize(level):
        order *= ell ** (a - 1) * (ell - 1)
        for w in split_prime(fld, ell):
            qw = w.residue_cardinality
            order *= groups_mod.sp_order(m, qw) * qw ** ((a - 1) * (2 * m * m + m))
    over_p = split_prime(fld, p)
    eps = (-1) ** over_p[0].residue_degree
    mass_factor = bound_factor = 1
    irr = p ** (d * (m - 1)) * (p - 1)
    for v in over_p:
        q = v.residue_cardinality
        irr *= q - eps
        bound_factor *= q - eps
        for j in range(1, m + 1):
            mass_factor *= q**j + eps**j
            bound_factor *= q**j + eps**j
    bound = constant * order * p ** (d * (m + 2) * (m - 1) // 2) * (p - 1) * bound_factor
    if fld.is_rational and not places:
        assert bound == bounds_mod.siegel_bound(m, level, p)
    mass = constant * order * mass_factor
    assert mass.denominator == 1 and bound.denominator == 1
    return int(mass), irr, p ** (d * m * (m - 1) // 2), int(bound)


def _shape_run(rng):
    """A run description for the shape path, from a seeded random.Random:
    its choices are uniform, where hypothesis's own draws favour the
    first of each list."""
    fld = FieldSpec(rng.choice(_SHAPE_FIELDS))
    # mostly an even count of ramified places and a level coprime to them
    # and to D, so that most runs have records of every shape
    ram = rng.sample(_small_places(fld), rng.choice((0, 2, 4, 0, 2, 4, 1, 3)))
    bad = fld.discriminant
    for v in ram:
        bad *= v.residue_prime
    levels = range(3, 2001)
    if rng.random() < 0.8:
        levels = [n for n in levels if gcd(n, bad) == 1]
    doc = {
        "field": (
            {"kind": "rational"} if fld.is_rational
            else {"kind": "real_quadratic", "disc": fld.discriminant}
        ),
        "quaternion_ramification": [
            {"prime": v.residue_prime, "residue_degree": v.residue_degree} for v in ram
        ],
        "m": rng.randint(1, 4),
        "N": rng.choice(levels),
    }
    start = rng.choice(("two", "million", "single"))
    if start == "single":
        doc["p"] = rng.choice(_SMALL_PRIMES + _PRIMES_PAST_A_MILLION)
    else:
        lo = 2 if start == "two" else rng.randint(10**6 - 500, 10**6 + 500)
        doc["p_sweep"] = {"from": lo, "to": lo + rng.randint(0, 399)}
    return doc


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**64))
def test_shape_path_matches_a_record_by_record_reference(seed):
    doc = _shape_run(random.Random(seed))
    config = parse_config(doc)
    fld = config.field
    places = resolve_ramification(fld, config.ramification)
    records, status = rendered_records(config)
    if config.sweep is None:
        primes = [config.single_p]
    else:
        primes = [p for p in range(config.sweep[0], config.sweep[1] + 1)
                  if _trial_division_prime(p)]
    assert [r["input"]["p"] for r in records] == primes
    for p, r in zip(primes, records):
        if len(places) % 2:
            want_code = "odd_ramification_set"
        else:
            want_code = _reference_code(fld, config.ramification, config.level, p)
        got = (r["error"]["code"] if "error" in r else None,)
        if "error" not in r:
            got += tuple(int(r[key]) for key in
                         ("mass", "irr_count", "dim_bound", "final_bound"))
        want = (want_code,)
        if want_code is None:
            want += _reference_counts(fld, places, config.m, config.level, p)
        assert got == want, (doc, p)
    codes = ["error" not in r for r in records]
    if records:
        assert status == (EXIT_OK if any(codes) else EXIT_ALL_FAILED)
    docs = reference_documents(config)
    for flags, want in (((), reference_json(docs)), (("--format", "csv"), reference_csv(docs))):
        out = io.StringIO()
        with mock.patch.object(sys, "stdin", io.StringIO(json.dumps(doc))), \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(["-", *flags])
        assert code == status
        assert out.getvalue() == want
