"""Batch front end: read a JSON run description, compute one bound
report per prime, and emit deterministic JSON or CSV.

Exit codes: 0 at least one record succeeded and no internal fault;
1 every record failed validation; 2 the configuration did not parse,
the --output path could not be written, or `heckebound oracle` got
input it cannot enumerate (including a --classes-mod that is not a
prime); 3 an exact internal identity was violated (implementation
fault).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction

from .arith import is_prime
from .bounds import BoundReport, InternalCheckError, final_bound
from .numberfield import (
    FieldSpec,
    Place,
    QuaternionData,
    SettingError,
    resolve_ramification,
    validate_setting,
)
from . import oracle as oracle_mod

EXIT_OK = 0
EXIT_ALL_FAILED = 1
EXIT_CONFIG = 2
EXIT_FAULT = 3


class ConfigError(ValueError):
    """The run description is malformed; the message names the field."""


@dataclass
class RunConfig:
    field: FieldSpec
    ramification: list[tuple[int, int]]
    m: int
    level: int
    single_p: int | None
    sweep: tuple[int, int] | None

    def primes(self) -> list[int]:
        if self.single_p is not None:
            return [self.single_p]
        lo, hi = self.sweep
        return [p for p in range(lo, hi + 1) if is_prime(p)]


def _require(doc: dict, key: str, kind, where: str = "config"):
    if key not in doc:
        raise ConfigError(f"{where}: missing required field {key!r}")
    value = doc[key]
    if kind is int and isinstance(value, bool) or not isinstance(value, kind):
        raise ConfigError(
            f"{where}: field {key!r} must be of type {kind.__name__}"
        )
    return value


def parse_config(doc) -> RunConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config: top level must be a JSON object")

    field_doc = _require(doc, "field", dict)
    kind = _require(field_doc, "kind", str, "field")
    if kind == "rational":
        fld = FieldSpec.rationals()
    elif kind == "real_quadratic":
        disc = _require(field_doc, "disc", int, "field")
        try:
            fld = FieldSpec.real_quadratic(disc)
        except SettingError as exc:
            raise ConfigError(f"field.disc: {exc}") from exc
    else:
        raise ConfigError(
            f"field.kind: unsupported kind {kind!r}; totally real fields of "
            "degree > 2 are not supported (their zeta values at negative odd "
            "integers would need the Siegel-Klingen construction)"
        )

    ram_doc = doc.get("quaternion_ramification", [])
    if not isinstance(ram_doc, list):
        raise ConfigError("quaternion_ramification: must be a list")
    ramification = []
    for i, entry in enumerate(ram_doc):
        where = f"quaternion_ramification[{i}]"
        if not isinstance(entry, dict):
            raise ConfigError(f"{where}: must be an object")
        ramification.append(
            (
                _require(entry, "prime", int, where),
                _require(entry, "residue_degree", int, where),
            )
        )

    m = _require(doc, "m", int)
    level = _require(doc, "N", int)

    has_p = "p" in doc
    has_sweep = "p_sweep" in doc
    if has_p == has_sweep:
        raise ConfigError("config: exactly one of 'p' and 'p_sweep' must be set")
    single_p = None
    sweep = None
    if has_p:
        single_p = _require(doc, "p", int)
    else:
        sweep_doc = _require(doc, "p_sweep", dict)
        lo = _require(sweep_doc, "from", int, "p_sweep")
        hi = _require(sweep_doc, "to", int, "p_sweep")
        if lo < 2 or hi < lo:
            raise ConfigError(
                "p_sweep: endpoints must satisfy 2 <= from <= to"
            )
        sweep = (lo, hi)

    return RunConfig(
        field=fld,
        ramification=ramification,
        m=m,
        level=level,
        single_p=single_p,
        sweep=sweep,
    )


def _frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _place_doc(v: Place) -> dict:
    doc = {"prime": v.residue_prime, "residue_degree": v.residue_degree}
    if v.index:
        doc["index"] = v.index
    if v.ramified:
        doc["ramified"] = True
    return doc


def _input_echo(config: RunConfig, p: int) -> dict:
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


def _report_record(config: RunConfig, report: BoundReport) -> dict:
    setting = report.setting
    return {
        "input": _input_echo(config, setting.p),
        "zeta_F": [_frac_str(z) for z in report.zeta_values],
        "C_B": _frac_str(report.constant),
        "level_group_order": str(report.level_group_order),
        "mass": str(report.mass),
        "irr_count": str(report.irr_count),
        "dim_bound": str(report.dim_bound),
        "final_bound": str(report.final_bound),
        "asymptotic_exponent": report.asymptotic_exponent,
        "delta_prime": {
            "at_p": [_place_doc(v) for v in setting.delta_prime_at_p],
            "away": [_place_doc(v) for v in setting.delta_prime_away],
        },
    }


def _error_record(config: RunConfig, p: int, exc: SettingError) -> dict:
    return {
        "input": _input_echo(config, p),
        "error": {"code": exc.code, "message": str(exc)},
    }


def compute_records(
    config: RunConfig, oracle_check: bool = False, verbose: bool = False
) -> tuple[list[dict], int]:
    """All records in ascending p, plus the process exit status; with
    oracle_check a completed oracle check that disagrees is a fault.

    Records are independent of one another, so a sweep could be computed
    concurrently; they are emitted in ascending p either way.
    """
    records = []
    successes = 0
    fault = False
    # the quaternion datum and its zeta tuple do not depend on p; an error
    # in the datum is recorded for every prime, ahead of the per-p checks
    quaternion, quaternion_error = None, None
    try:
        quaternion = QuaternionData(
            field=config.field,
            ramified_places=resolve_ramification(config.field, config.ramification),
            m=config.m,
        )
    except SettingError as exc:
        quaternion_error = exc
    for p in config.primes():
        if verbose:
            print(f"computing p = {p} ...", file=sys.stderr)
        error = quaternion_error
        if error is None:
            try:
                setting = validate_setting(quaternion, config.level, p)
            except SettingError as exc:
                error = exc
        if error is not None:
            if verbose:
                print(f"  skipped: {error}", file=sys.stderr)
            records.append(_error_record(config, p, error))
            continue
        record = _report_record(config, final_bound(setting))
        if oracle_check:
            verdict = record["oracle"] = oracle_mod.verify_setting_with_oracle(setting)
            if not verdict["verified"] and "skipped" not in verdict:
                fault = True
        records.append(record)
        successes += 1
    if fault:
        return records, EXIT_FAULT
    if successes == 0:
        return records, EXIT_ALL_FAILED
    return records, EXIT_OK


_CSV_COLUMNS = [
    "p",
    "error_code",
    "zeta_F",
    "C_B",
    "level_group_order",
    "mass",
    "irr_count",
    "dim_bound",
    "final_bound",
    "asymptotic_exponent",
    "delta_prime_at_p",
    "delta_prime_away",
    "oracle",
]


def _places_csv(places: list[dict]) -> str:
    return ";".join(f"{v['prime']}^{v['residue_degree']}" for v in places)


def render_json(records: list[dict]) -> str:
    return json.dumps(records, indent=2) + "\n"


def render_csv(records: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CSV_COLUMNS)
    for record in records:
        if "error" in record:
            row = [record["input"]["p"], record["error"]["code"]] + [""] * 11
        else:
            oracle_result = record.get("oracle")
            if oracle_result is None:
                oracle_cell = ""
            elif oracle_result.get("skipped"):
                oracle_cell = "skipped"
            else:
                oracle_cell = str(oracle_result["verified"]).lower()
            row = [
                record["input"]["p"],
                "",
                ";".join(record["zeta_F"]),
                record["C_B"],
                record["level_group_order"],
                record["mass"],
                record["irr_count"],
                record["dim_bound"],
                record["final_bound"],
                record["asymptotic_exponent"],
                _places_csv(record["delta_prime"]["at_p"]),
                _places_csv(record["delta_prime"]["away"]),
                oracle_cell,
            ]
        writer.writerow(row)
    return buf.getvalue()


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heckebound",
        description="Exact upper bounds for counts of mod-p Hecke "
        "eigensystems on totally indefinite quaternionic settings.",
    )
    parser.add_argument(
        "config",
        help="path to a JSON run description ('-' reads standard input)",
    )
    parser.add_argument(
        "--format", choices=("json", "csv"), default="json", help="output format"
    )
    parser.add_argument(
        "--oracle-check",
        action="store_true",
        help="cross-validate each record against the enumeration oracle "
        "when the instance is small enough",
    )
    parser.add_argument(
        "--output", default=None, help="write to this path instead of stdout"
    )
    parser.add_argument(
        "-v", "--verbose", action="store_true",
        help="report per-prime progress on stderr",
    )
    return parser


def _run_oracle_subcommand(argv: list[str]) -> int:
    # ad-hoc verification of the enumeration side on its own
    enumerators = {"GL": oracle_mod.enumerate_gl, "U": oracle_mod.enumerate_unitary,
                   "Sp": oracle_mod.enumerate_sp,
                   "GSp_modN": oracle_mod.enumerate_gsp_modn}
    parser = argparse.ArgumentParser(prog="heckebound oracle")
    parser.add_argument("kind", choices=enumerators)
    parser.add_argument("m", type=int)
    parser.add_argument("q", type=int, help="field size, or the level for GSp_modN")
    parser.add_argument("--classes-mod", type=int, default=None, metavar="P",
                        help="also report the number of P-regular classes")
    args = parser.parse_args(argv)
    if args.classes_mod is not None and not is_prime(args.classes_mod):
        print(f"error: --classes-mod must be a prime, got {args.classes_mod}",
              file=sys.stderr)
        return EXIT_CONFIG
    try:
        group = enumerators[args.kind](args.m, args.q)
        out = {"descriptor": group.descriptor, "order": group.order}
        if args.classes_mod is not None:
            out["p_regular_classes"] = oracle_mod.p_regular_class_count(
                group, args.classes_mod
            )
    except (ValueError, oracle_mod.StateSpaceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(json.dumps(out, indent=2))
    return EXIT_OK


@contextmanager
def _unlimited_int_digits():
    """Lift Python's int<->str digit limit (3.10.7 and later) for the
    block: a bound can have far more than the default 4300 digits."""
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    if get_limit is None:
        yield
        return
    previous = get_limit()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(previous)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "oracle":
        return _run_oracle_subcommand(argv[1:])
    args = _build_parser().parse_args(argv)

    try:
        if args.config == "-":
            raw = sys.stdin.read()
        else:
            with open(args.config, "r", encoding="utf-8") as handle:
                raw = handle.read()
        doc = json.loads(raw)
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except json.JSONDecodeError as exc:
        print(f"error: config is not valid JSON: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as exc:  # bad UTF-8, or an over-long integer literal
        print(f"error: cannot parse config: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        config = parse_config(doc)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    with _unlimited_int_digits():
        try:
            records, status = compute_records(config, args.oracle_check, args.verbose)
        except InternalCheckError as exc:
            print(f"internal fault: {exc}", file=sys.stderr)
            return EXIT_FAULT
        text = render_json(records) if args.format == "json" else render_csv(records)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"error: cannot write output: {exc}", file=sys.stderr)
            return EXIT_CONFIG
    else:
        sys.stdout.write(text)
    return status


if __name__ == "__main__":
    sys.exit(main())
