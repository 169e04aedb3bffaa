"""Batch front end: read a JSON run description, compute the bound at
every prime, and emit deterministic JSON or CSV.  The primes that pass
validation are computed a shape at a time (the splitting of p in F),
as integer columns, and rendered straight to their text: each fills the
skeleton of its shape, and each error the run's one error skeleton,
which json.dumps or csv.writer lays out; csv (imported by CSV runs
only) lays out the header too.

Exit codes, which main alone decides: 0 at least one record succeeded
and no internal fault; 1 every record failed validation; 2 a
ConfigError: the configuration could not be read (a closed stdin too)
or did not parse, the output (stdout or --output) could not be written,
or `heckebound oracle` got input it cannot enumerate (including a
--classes-mod that is not a prime below psi_12), or argparse refused the
arguments (its usage lines go to stderr); 3 an exact internal identity
was violated, or any other exception escaped (implementation fault).
main writes the output text once, at the end, so an exception raised
during the run, or an unwritable --output, leaves stdout empty; --help
is such an output too.  stderr is best effort: a line it cannot take is
dropped.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager, suppress
from fractions import Fraction
from itertools import repeat
from operator import add

from .arith import primes_between
from .bounds import BoundReport, InternalCheckError, final_bound, final_bounds
from .numberfield import (
    _PSI_12,
    _proven_prime,
    FieldSpec,
    Place,
    QuaternionData,
    SettingError,
    ShimuraSetting,
    check_setting,
    splitting,
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
        # the window is sieved in one bytearray and every record's text is
        # held until the end; 300 000 integers keep an m = 2 run under 5 s and
        # 120 MB (the widest windows from 2, from 10^18 and below psi_12,
        # ramified or not, peak at 1.8 s and 97 MB, medians of five runs
        # measured from a 14 MB launcher process on 2 cores, Python 3.11).
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


def compute_records(
    config: RunConfig,
    render: _RecordText,
    oracle_check: bool = False,
    verbose: bool = False,
) -> tuple[list[str], int]:
    """The text of each record by render, a _RecordText, in ascending p,
    plus the process exit status; with oracle_check a completed oracle
    check that disagrees is a fault.  render_json or render_csv puts the
    texts together.

    A run goes a shape at a time.  The quaternion datum is built once per
    run, with the ramified primes and discriminant product that
    validation reads.  Each prime runs check_setting alone: one that
    fails becomes its error record's text at once, and one that passes
    joins the bucket of its shape, its splitting in F, the count and
    residue degree of the places over it.  Then each bucket builds one
    setting, at its first prime, and its report by final_bound (the
    first also builds the bound's per-level part, C_B, |G(Z/NZ)| and the
    growth exponents, and the zeta values, shared by the rest);
    final_bounds computes the p-factors of all its primes as integer
    columns, with every check at every prime; and render fills the
    shape's skeleton from the columns.  Only the oracle builds a setting
    for every prime, and it checks the irr_count and dim_bound columns,
    the counts the records print.  An error is kept without its
    traceback: that would hold this frame, and with it every text, in a
    reference cycle."""
    if oracle_check:
        from . import oracle as oracle_mod
    # an error in the datum does not depend on p: it is recorded for every
    # prime, ahead of the per-p checks
    quaternion, quaternion_error = None, None
    try:
        quaternion = QuaternionData(config.field, config.ramification, config.m)
    except SettingError as exc:
        quaternion_error = exc.with_traceback(None)
    level = config.level
    # a passing prime holds its place in texts until its bucket is filled
    texts = []
    buckets = {}
    for p in config.primes():
        if verbose:
            _note(f"computing p = {p} ...")
        error = quaternion_error
        if error is None:
            try:
                check_setting(quaternion, level, p)
            except SettingError as exc:
                error = exc.with_traceback(None)
        if error is None:
            shape = splitting(quaternion.field, p)
            if shape not in buckets:
                buckets[shape] = []
            buckets[shape].append(len(texts))
            texts.append(p)
            continue
        if verbose:
            _note(f"  skipped: {error}")
        texts.append(render.error(p, error))

    fault = False
    for positions in buckets.values():
        ps = list(map(texts.__getitem__, positions))
        setting = validate_setting(quaternion, level, ps[0])
        report = final_bound(setting)
        columns = final_bounds(setting, ps)
        verdicts = None
        if oracle_check:
            settings = [setting, *(ShimuraSetting(quaternion, level, p) for p in ps[1:])]
            verdicts = list(map(oracle_mod.verify_setting_with_oracle, settings,
                                columns[1], columns[2]))
            if any(not v["verified"] and "skipped" not in v for v in verdicts):
                fault = True
        for position, text in zip(positions, render.fill(report, ps, columns, verdicts)):
            texts[position] = text
    if fault:
        return texts, EXIT_FAULT
    if not buckets:
        return texts, EXIT_ALL_FAILED
    return texts, EXIT_OK


# Rendering.  A record renderer turns each record into its text by
# filling a skeleton that the format's serializer lays out: the error
# skeleton once per run, a success skeleton once per shape.  render_json
# and render_csv put the texts together.


def _frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _json_at(value, depth: int) -> str:
    """json.dumps(value, indent=2) as it reads nested depth levels deep."""
    return json.dumps(value, indent=2).replace("\n", "\n" + "  " * depth)


# stands for a per-record cell while a skeleton is laid out: csv.writer
# leaves it unquoted and json.dumps writes it as \u001f, which _JsonText
# also puts for the null of a per-record number or object; no other part
# of a skeleton contains either
_SLOT = "\x1f"
_JSON_SLOT = json.dumps(_SLOT)[1:-1]


class _RecordText:
    """A record's text, filled into a skeleton: the pieces of the
    record's text between its per-record cells.  An error's cells are p
    and the format's error cells, and one skeleton serves every error of
    a run.  A success record's cells are p, mass, irr_count, dim_bound,
    final_bound, p once per place at p and the oracle cell, and its
    skeleton is that of its shape, the count of places at p: in one run
    the count fixes the places at p but for their prime p (one residue
    degree, the indexes 0 and 1 of a split prime, unramified since
    validation refuses a p ramified in F), and the other shared cells are
    those of a report at any of its primes.  A format supplies both
    skeletons, its error cells and its oracle cell."""

    __slots__ = ("error_pieces",)

    def __init__(self):
        self.error_pieces = self._error_skeleton()

    def error(self, p: int, error: SettingError) -> str:
        """The text of the error record at p."""
        lead, *pieces = self.error_pieces
        return lead + "".join(map(add, (str(p), *self._error_cells(error)), pieces))

    def fill(self, report: BoundReport, ps, columns, verdicts) -> list[str]:
        """The texts of the success records at the primes ps, which share
        the shape of report, a report of one of them: columns holds their
        masses, irr_counts, dim_bounds and final bounds, and verdicts
        their oracle verdicts, or is None.  Each text is one join of its
        row of the skeleton's pieces and the cells' columns."""
        lead, *pieces = self._skeleton(report, verdicts is not None)
        ps = list(map(str, ps))
        cells = [ps, *(map(str, column) for column in columns),
                 *repeat(ps, len(report.setting.delta_prime_at_p))]
        if verdicts is not None:
            cells.append(map(self._oracle_cell, verdicts))
        parts = [repeat(lead)]
        for column, piece in zip(cells, pieces):
            parts += [column, repeat(piece)]
        return list(map("".join, zip(*parts)))


def _place_doc(v: Place, prime) -> dict:
    doc = {"prime": prime, "residue_degree": v.residue_degree}
    if v.index:
        doc["index"] = v.index
    if v.ramified:
        doc["ramified"] = True
    return doc


class _JsonText(_RecordText):
    """A record's text in the document render_json lays out, one level
    deep.  A skeleton is the record's document through _json_at, with
    _SLOT in each per-record string and None (null) in each per-record
    number or object.  An error's cells are its code and its message, as
    json.dumps escapes it."""

    __slots__ = ("echo",)

    def __init__(self, config: RunConfig):
        if config.field.is_rational:
            field_doc = {"kind": "rational"}
        else:
            field_doc = {"kind": "real_quadratic", "disc": config.field.discriminant}
        self.echo = {
            "field": field_doc,
            "quaternion_ramification": [
                {"prime": ell, "residue_degree": f} for ell, f in config.ramification
            ],
            "m": config.m,
            "N": config.level,
            "p": None,
        }
        super().__init__()

    @staticmethod
    def _pieces(doc: dict) -> list[str]:
        return ("  " + _json_at(doc, 1)).replace("null", _JSON_SLOT).split(_JSON_SLOT)

    def _error_skeleton(self) -> list[str]:
        return self._pieces({"input": self.echo, "error": {"code": _SLOT, "message": _SLOT}})

    def _skeleton(self, report: BoundReport, oracle: bool) -> list[str]:
        setting = report.setting
        doc = {
            "input": self.echo,
            "zeta_F": [_frac_str(z) for z in report.zeta_values],
            "C_B": _frac_str(report.constant),
            "level_group_order": str(report.level_group_order),
            "mass": _SLOT,
            "irr_count": _SLOT,
            "dim_bound": _SLOT,
            "final_bound": _SLOT,
            "asymptotic_exponent": report.asymptotic_exponent,
            "delta_prime": {
                "at_p": [_place_doc(v, None) for v in setting.delta_prime_at_p],
                "away": [_place_doc(v, v.residue_prime)
                         for v in setting.delta_prime_away],
            },
        }
        if oracle:
            doc["oracle"] = None
        return self._pieces(doc)

    @staticmethod
    def _error_cells(error: SettingError) -> tuple[str, str]:
        # escaped as json.dumps(..., indent=2) escapes it, by the same C
        # function, without building the indented encoder for each error
        return error.code, json.dumps(str(error))[1:-1]

    @staticmethod
    def _oracle_cell(verdict: dict) -> str:
        return _json_at(verdict, 2)


def render_json(texts: list[str]) -> str:
    """The records' texts, as compute_records gives them when it renders
    with _JsonText(config), in the document json.dumps(..., indent=2)
    would lay out."""
    if not texts:
        return "[]\n"
    # the document in one join: "[" + body + "]" would copy the whole text
    # twice more, at a larger cost than the join itself
    parts = [",\n"] * (2 * len(texts) + 1)
    parts[0], parts[-1] = "[\n", "\n]\n"
    parts[1::2] = texts
    return "".join(parts)


_CSV_COLUMNS = [
    "p", "error_code", "zeta_F", "C_B", "level_group_order", "mass", "irr_count",
    "dim_bound", "final_bound", "asymptotic_exponent", "delta_prime_at_p",
    "delta_prime_away", "oracle",
]


class _Lines:
    # a csv.writer target: writerow returns what write returns, so each
    # row comes back as its line
    @staticmethod
    def write(line: str) -> str:
        return line


def _csv_writerow():
    """The writerow of a csv.writer that returns each row as its line.
    csv is imported here, so only CSV runs load it."""
    import csv

    return csv.writer(_Lines, lineterminator="\n").writerow


class _CsvText(_RecordText):
    """A record's row as csv.writer lays it out, line end included: the
    skeleton is the record's row through csv.writer, so csv decides the
    quoting once per shape.  The per-record cells are integers, `p^f`
    lists joined by `;`, an error code, and true, false, skipped or
    empty: nothing csv.writer quotes."""

    __slots__ = ("writerow",)

    def __init__(self):
        self.writerow = _csv_writerow()
        super().__init__()

    def _error_skeleton(self) -> list[str]:
        return self.writerow([_SLOT, _SLOT] + [""] * (len(_CSV_COLUMNS) - 2)).split(_SLOT)

    def _skeleton(self, report: BoundReport, oracle: bool) -> list[str]:
        setting = report.setting
        row = [
            _SLOT,
            "",
            ";".join(_frac_str(z) for z in report.zeta_values),
            _frac_str(report.constant),
            report.level_group_order,
            _SLOT, _SLOT, _SLOT, _SLOT,  # mass, irr_count, dim_bound, final_bound
            report.asymptotic_exponent,
            ";".join(f"{_SLOT}^{v.residue_degree}"
                     for v in setting.delta_prime_at_p),
            ";".join(f"{v.residue_prime}^{v.residue_degree}"
                     for v in setting.delta_prime_away),
            _SLOT if oracle else "",
        ]
        return self.writerow(row).split(_SLOT)

    @staticmethod
    def _error_cells(error: SettingError) -> tuple[str]:
        return (error.code,)

    @staticmethod
    def _oracle_cell(verdict: dict) -> str:
        if verdict.get("skipped"):
            return "skipped"
        return str(verdict["verified"]).lower()


def render_csv(texts: list[str]) -> str:
    """The records' rows, as compute_records gives them when it renders
    with _CsvText(), under the header row csv.writer lays out here."""
    return "".join([_csv_writerow()(_CSV_COLUMNS), *texts])


class _Usage(Exception):
    """argparse's lines for a usage error, the exit status EXIT_CONFIG."""


class _Help(Exception):
    """argparse's help text, the output of a run that exits EXIT_OK."""


class _ArgumentParser(argparse.ArgumentParser):
    # argparse prints its help and usage errors itself and exits through
    # SystemExit; here each comes back to main as its text, so main alone
    # writes it, through the guarded writer, and returns its exit status

    def print_help(self, file=None):
        raise _Help(self.format_help())

    def error(self, message: str):
        raise _Usage(f"{self.format_usage()}{self.prog}: error: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
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


def _run_oracle_subcommand(argv: list[str]) -> tuple[str, int]:
    # ad-hoc verification of the enumeration side on its own
    from . import oracle as oracle_mod

    enumerators = {"GL": oracle_mod.enumerate_gl, "U": oracle_mod.enumerate_unitary,
                   "Sp": oracle_mod.enumerate_sp,
                   "GSp_modN": oracle_mod.enumerate_gsp_modn}
    parser = _ArgumentParser(prog="heckebound oracle")
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
        raise ConfigError(exc) from exc
    return json.dumps(out, indent=2) + "\n", EXIT_OK


def _write(stream, text: str) -> None:
    """Write text to a standard stream and flush it.  A failed write
    raises after pointing the descriptor at the null device: the buffer
    still holds the text, and the interpreter flushes it again at exit."""
    try:
        stream.write(text)
        stream.flush()
    except OSError:
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, stream.fileno())
        os.close(null)
        raise


def _note(line: str) -> None:
    # stderr is best effort, as for argparse's own messages: a line it
    # cannot take, closed or failing, is dropped
    if sys.stderr is not None:
        with suppress(OSError):
            _write(sys.stderr, line + "\n")


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
        try:
            if argv and argv[0] == "oracle":
                path, (text, status) = None, _run_oracle_subcommand(argv[1:])
            else:
                args = _build_parser().parse_args(argv)
                path, (text, status) = args.output or None, _run(args)
        except _Help as exc:
            path, text, status = None, str(exc), EXIT_OK
        try:
            if path is not None:
                with open(path, "w", encoding="utf-8", newline="") as handle:
                    handle.write(text)
            elif sys.stdout is None:
                raise OSError("standard output is closed")
            else:
                _write(sys.stdout, text)
        except OSError as exc:
            raise ConfigError(f"cannot write output: {exc}") from exc
        return status
    except ConfigError as exc:
        _note(f"error: {exc}")
        return EXIT_CONFIG
    except _Usage as exc:
        _note(str(exc))
        return EXIT_CONFIG
    except InternalCheckError as exc:
        _note(f"internal fault: {exc}")
        return EXIT_FAULT
    except Exception as exc:
        # any other exception is an implementation fault too: one line
        # naming it and where it was raised, no traceback, no output
        tb = exc.__traceback__
        while tb.tb_next is not None:
            tb = tb.tb_next
        where = os.path.basename(tb.tb_frame.f_code.co_filename)
        _note(f"internal fault: {type(exc).__name__}: {exc} ({where}:{tb.tb_lineno})")
        return EXIT_FAULT


def _run(args: argparse.Namespace) -> tuple[str, int]:
    try:
        if args.config != "-":
            with open(args.config, "r", encoding="utf-8") as handle:
                raw = handle.read()
        elif sys.stdin is None:
            raise OSError("standard input is closed")
        else:
            raw = sys.stdin.read()
        doc = json.loads(raw, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    except ConfigError:
        raise
    except (ValueError, RecursionError) as exc:
        # bad UTF-8, an over-long integer literal, or nesting past the
        # recursion limit
        raise ConfigError(f"cannot parse config: {exc}") from exc
    config = parse_config(doc)
    with _unlimited_int_digits():
        as_json = args.format == "json"
        render = _JsonText(config) if as_json else _CsvText()
        texts, status = compute_records(config, render, args.oracle_check, args.verbose)
        return render_json(texts) if as_json else render_csv(texts), status


if __name__ == "__main__":
    sys.exit(main())
