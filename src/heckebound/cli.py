"""Batch front end: read a JSON run description, compute one bound
report per prime, and emit deterministic JSON or CSV.

Exit codes: 0 at least one record succeeded and no internal fault;
1 every record failed validation; 2 the configuration did not parse,
the --output path could not be written, or `heckebound oracle` got
input it cannot enumerate (including a --classes-mod that is not a
prime below psi_12); 3 an exact internal identity was violated, or any
other exception escaped (implementation fault).  The output text is
built in memory and written once at the end, so an exception raised
during the run, or an unwritable --output, leaves stdout empty.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from contextlib import contextmanager
from fractions import Fraction

from .arith import primes_between
from .bounds import BoundReport, InternalCheckError, final_bound
from .numberfield import (
    _PSI_12,
    _proven_prime,
    FieldSpec,
    Place,
    QuaternionData,
    SettingError,
    validate_setting,
)

EXIT_OK = 0
EXIT_ALL_FAILED = 1
EXIT_CONFIG = 2
EXIT_FAULT = 3


class ConfigError(ValueError):
    """The run description is malformed; the message names the field."""


class RunConfig:
    """A parsed run description: one datum, one level, and either one
    prime or a window of candidates to sieve."""

    __slots__ = ("field", "ramification", "m", "level", "single_p", "sweep")

    def __init__(
        self,
        field: FieldSpec,
        ramification: list[tuple[int, int]],
        m: int,
        level: int,
        single_p: int | None,
        sweep: tuple[int, int] | None,
    ):
        self.field = field
        self.ramification = ramification
        self.m = m
        self.level = level
        self.single_p = single_p
        self.sweep = sweep

    def primes(self) -> list[int]:
        if self.single_p is not None:
            return [self.single_p]
        return primes_between(*self.sweep)


def _require(doc: dict, key: str, kind, where: str = "config"):
    if key not in doc:
        raise ConfigError(f"{where}: missing required field {key!r}")
    value = doc[key]
    if kind is int and isinstance(value, bool) or not isinstance(value, kind):
        raise ConfigError(
            f"{where}: field {key!r} must be of type {kind.__name__}"
        )
    return value


def _refuse_unknown(doc: dict, known: tuple[str, ...], where: str) -> None:
    # a misspelt optional field would otherwise be read as absent
    for key in doc:
        if key not in known:
            raise ConfigError(f"{where}: unknown field {key!r}")


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    # json.loads keeps a repeated key's last value, so a second, empty
    # quaternion_ramification would otherwise leave the algebra unramified
    seen = set()
    for key, _ in pairs:
        if key in seen:
            raise ConfigError(f"repeated key {key!r}")
        seen.add(key)
    return dict(pairs)


def parse_config(doc) -> RunConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config: top level must be a JSON object")
    _refuse_unknown(
        doc, ("field", "quaternion_ramification", "m", "N", "p", "p_sweep"), "config"
    )

    field_doc = _require(doc, "field", dict)
    kind = _require(field_doc, "kind", str, "field")
    if kind == "rational":
        _refuse_unknown(field_doc, ("kind",), "field")
        fld = FieldSpec.rationals()
    elif kind == "real_quadratic":
        _refuse_unknown(field_doc, ("kind", "disc"), "field")
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
        _refuse_unknown(entry, ("prime", "residue_degree"), where)
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
        _refuse_unknown(sweep_doc, ("from", "to"), "p_sweep")
        lo = _require(sweep_doc, "from", int, "p_sweep")
        hi = _require(sweep_doc, "to", int, "p_sweep")
        if lo < 2 or hi < lo:
            raise ConfigError(
                "p_sweep: endpoints must satisfy 2 <= from <= to"
            )
        # the window is sieved in one bytearray and every record is held
        # until the end; 300 000 integers keep an m = 2 run under 5 s and 120 MB
        # (the widest windows from 2, from 10^18 and below psi_12, ramified or
        # not, peak at 1.4 s and 113 MB, measured from a 13 MB launcher
        # process on 2 cores, Python 3.11).
        # A record's cost grows with m, so from m = 3 the window is 1 200 000
        # // m^2 integers (the widest from 10^18 measured under 1 s up to
        # m = 50); above m = 50 every record is the datum's m_too_large
        scaled = 3 <= m <= 50
        width = 1_200_000 // m**2 if scaled else 300_000
        if hi - lo >= width:
            at_m = f" at m = {m}" if scaled else ""
            raise ConfigError(
                f"p_sweep: the window may span at most {width} integers{at_m}, "
                f"got {hi - lo + 1}"
            )
        if hi >= _PSI_12:
            # every p from psi_12 on is p_too_large; sieving there would
            # spend the run in Miller-Rabin tests for those records
            raise ConfigError(f"p_sweep: 'to' must be below psi_12 = {_PSI_12}")
        sweep = (lo, hi)

    return RunConfig(
        field=fld,
        ramification=ramification,
        m=m,
        level=level,
        single_p=single_p,
        sweep=sweep,
    )


class Record:
    """The outcome at one prime: a bound report or the validation error,
    plus the oracle verdict when the run cross-checks."""

    __slots__ = ("p", "report", "error", "oracle")

    def __init__(
        self,
        p: int,
        report: BoundReport | None = None,
        error: SettingError | None = None,
        oracle: dict | None = None,
    ):
        self.p = p
        self.report = report
        self.error = error
        self.oracle = oracle


def compute_records(
    config: RunConfig, oracle_check: bool = False, verbose: bool = False
) -> tuple[list[Record], int]:
    """All records in ascending p, plus the process exit status; with
    oracle_check a completed oracle check that disagrees is a fault.

    The quaternion datum is built once per run, with the ramified primes
    and discriminant product that validation reads; the bound's per-level
    part (C_B, |G(Z/NZ)| and the growth exponent) is built on the first
    record that passes validation, and the zeta values with it.  Both are
    shared by every record.  Each prime adds only the checks on N and p,
    one gcd for level_not_coprime, its places and p-factors."""
    records = []
    successes = 0
    fault = False
    if oracle_check:
        from . import oracle as oracle_mod
    # an error in the datum does not depend on p: it is recorded for every
    # prime, ahead of the per-p checks
    quaternion, quaternion_error = None, None
    try:
        quaternion = QuaternionData.from_ramification(
            config.field, config.ramification, config.m
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
            records.append(Record(p, error=error))
            continue
        report = final_bound(setting)
        verdict = None
        if oracle_check:
            verdict = oracle_mod.verify_setting_with_oracle(setting)
            if not verdict["verified"] and "skipped" not in verdict:
                fault = True
        records.append(Record(p, report=report, oracle=verdict))
        successes += 1
    if fault:
        return records, EXIT_FAULT
    if successes == 0:
        return records, EXIT_ALL_FAILED
    return records, EXIT_OK


# Rendering.  The text of a record that does not depend on p is built once
# per run, from the first report; each record adds only its own fields.


def _frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _json_at(value, depth: int) -> str:
    """json.dumps(value, indent=2) as it reads nested depth levels deep."""
    return json.dumps(value, indent=2).replace("\n", "\n" + "  " * depth)


def _places_json(places: tuple[Place, ...]) -> str:
    # a place list three levels deep, as _json_at(..., 3) lays it out
    if not places:
        return "[]"
    items = []
    for v in places:
        item = (f'{{\n          "prime": {v.residue_prime},'
                f'\n          "residue_degree": {v.residue_degree}')
        if v.index:
            item += f',\n          "index": {v.index}'
        if v.ramified:
            item += ',\n          "ramified": true'
        items.append(item + "\n        }")
    return "[\n        " + ",\n        ".join(items) + "\n      ]"


def _places_csv(places: tuple[Place, ...]) -> str:
    return ";".join(f"{v.residue_prime}^{v.residue_degree}" for v in places)


def render_json(config: RunConfig, records: list[Record]) -> str:
    """The records as json.dumps(..., indent=2) would lay out their
    documents, with the shared text built once."""
    if not records:
        return "[]\n"
    if config.field.is_rational:
        field_doc = {"kind": "rational"}
    else:
        field_doc = {"kind": "real_quadratic", "disc": config.field.discriminant}
    echo = _json_at(
        {
            "field": field_doc,
            "quaternion_ramification": [
                {"prime": ell, "residue_degree": f} for ell, f in config.ramification
            ],
            "m": config.m,
            "N": config.level,
        },
        2,
    )
    # the echo without its closing brace, then p
    head = '  {\n    "input": ' + echo.rpartition("\n")[0] + ',\n      "p": '
    first = next((r.report for r in records if r.report is not None), None)
    if first is not None:
        zeta_text = _json_at([_frac_str(z) for z in first.zeta_values], 2)
        before_mass = (
            f'\n    }},\n    "zeta_F": {zeta_text},'
            f'\n    "C_B": "{_frac_str(first.constant)}",'
            f'\n    "level_group_order": "{first.level_group_order}",'
            '\n    "mass": "'
        )
        before_at_p = (
            f'",\n    "asymptotic_exponent": {first.asymptotic_exponent},'
            '\n    "delta_prime": {\n      "at_p": '
        )
        away = _places_json(first.setting.delta_prime_away)
        after_at_p = f',\n      "away": {away}\n    }}'
    parts = []
    for r in records:
        if r.error is not None:
            parts.append(
                f'{head}{r.p}\n    }},\n    "error": {{'
                f'\n      "code": {json.dumps(r.error.code)},'
                f'\n      "message": {json.dumps(str(r.error))}\n    }}\n  }}'
            )
            continue
        report = r.report
        text = (
            f'{head}{r.p}{before_mass}{report.mass}",'
            f'\n    "irr_count": "{report.irr_count}",'
            f'\n    "dim_bound": "{report.dim_bound}",'
            f'\n    "final_bound": "{report.final_bound}'
            f'{before_at_p}{_places_json(report.setting.delta_prime_at_p)}{after_at_p}'
        )
        if r.oracle is not None:
            text += f',\n    "oracle": {_json_at(r.oracle, 2)}'
        parts.append(text + "\n  }")
    return "[\n" + ",\n".join(parts) + "\n]\n"


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


def render_csv(records: list[Record]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CSV_COLUMNS)
    first = next((r.report for r in records if r.report is not None), None)
    if first is not None:
        zeta_cell = ";".join(_frac_str(z) for z in first.zeta_values)
        constant_cell = _frac_str(first.constant)
        away_cell = _places_csv(first.setting.delta_prime_away)
    error_padding = [""] * (len(_CSV_COLUMNS) - 2)
    for r in records:
        if r.error is not None:
            writer.writerow([r.p, r.error.code] + error_padding)
            continue
        if r.oracle is None:
            oracle_cell = ""
        elif r.oracle.get("skipped"):
            oracle_cell = "skipped"
        else:
            oracle_cell = str(r.oracle["verified"]).lower()
        report = r.report
        writer.writerow([
            r.p,
            "",
            zeta_cell,
            constant_cell,
            first.level_group_order,
            report.mass,
            report.irr_count,
            report.dim_bound,
            report.final_bound,
            first.asymptotic_exponent,
            _places_csv(report.setting.delta_prime_at_p),
            away_cell,
            oracle_cell,
        ])
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
    from . import oracle as oracle_mod

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
    try:
        if args.classes_mod is not None and not _proven_prime(
            args.classes_mod, "--classes-mod", "classes_mod_too_large"
        ):
            raise ValueError(f"--classes-mod must be a prime, got {args.classes_mod}")
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
    try:
        if argv and argv[0] == "oracle":
            return _run_oracle_subcommand(argv[1:])
        return _run(_build_parser().parse_args(argv))
    except InternalCheckError as exc:
        print(f"internal fault: {exc}", file=sys.stderr)
        return EXIT_FAULT
    except Exception as exc:
        # any other exception is an implementation fault too: one line
        # naming it and where it was raised, no traceback, no output
        tb = exc.__traceback__
        while tb.tb_next is not None:
            tb = tb.tb_next
        where = os.path.basename(tb.tb_frame.f_code.co_filename)
        print(
            f"internal fault: {type(exc).__name__}: {exc} ({where}:{tb.tb_lineno})",
            file=sys.stderr,
        )
        return EXIT_FAULT


def _run(args: argparse.Namespace) -> int:
    try:
        if args.config == "-":
            raw = sys.stdin.read()
        else:
            with open(args.config, "r", encoding="utf-8") as handle:
                raw = handle.read()
        doc = json.loads(raw, object_pairs_hook=_unique_keys)
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except json.JSONDecodeError as exc:
        print(f"error: config is not valid JSON: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, RecursionError) as exc:
        # bad UTF-8, an over-long integer literal, or nesting past the
        # recursion limit
        print(f"error: cannot parse config: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        config = parse_config(doc)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    with _unlimited_int_digits():
        records, status = compute_records(config, args.oracle_check, args.verbose)
        if args.format == "json":
            text = render_json(config, records)
        else:
            text = render_csv(records)
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
