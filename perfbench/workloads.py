"""The benchmark's workloads and its output gate.

A workload turns a seed into one or more CLI invocations.  The seed picks
one of a few fixed variants (``seed % variants``), each of which
changes only the input properties named in the workload's description,
so the work per run stays roughly constant across seeds.  Seed 0 is the
configuration the README documents for the workload.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from dataclasses import dataclass
from math import isqrt
from pathlib import Path
from typing import Callable

BENCH_DIR = Path(__file__).resolve().parent
GOLDEN_PATH = BENCH_DIR / "golden.json"


@dataclass(frozen=True)
class Invocation:
    """One `heckebound` CLI call: a run description plus flags."""

    config: dict
    flags: tuple[str, ...] = ()

    def key(self) -> str:
        """Canonical text of the invocation, the golden-hash lookup key."""
        text = json.dumps(self.config, sort_keys=True, separators=(",", ":"))
        return " ".join((text, *self.flags))

    def primes(self) -> list[int]:
        """The p values the output must hold records for, in order."""
        if "p" in self.config:
            return [self.config["p"]]
        sweep = self.config["p_sweep"]
        return primes_between(sweep["from"], sweep["to"])

    @property
    def csv(self) -> bool:
        return "csv" in self.flags

    @property
    def oracle(self) -> bool:
        return "--oracle-check" in self.flags


def primes_between(lo: int, hi: int) -> list[int]:
    """Primes in [lo, hi] by a sieve of Eratosthenes (independent of the
    program's own primality test)."""
    sieve = bytearray([1]) * (hi + 1)
    sieve[:2] = b"\0\0"
    for i in range(2, isqrt(hi) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytes(len(range(i * i, hi + 1, i)))
    return [p for p in range(lo, hi + 1) if sieve[p]]


def _config(field: dict, ramification, m: int, level: int, *, p=None, sweep=None):
    doc = {
        "field": field,
        "quaternion_ramification": [
            {"prime": ell, "residue_degree": f} for ell, f in ramification
        ],
        "m": m,
        "N": level,
    }
    if sweep is None:
        doc["p"] = p
    else:
        doc["p_sweep"] = {"from": sweep[0], "to": sweep[1]}
    return doc


RATIONAL = {"kind": "rational"}


def _quadratic(disc: int) -> dict:
    return {"kind": "real_quadratic", "disc": disc}


def _sweep_rational(k: int) -> list[Invocation]:
    # a shift of at most 700 keeps the record count within 1% of 9592
    shift = 100 * k
    return [Invocation(_config(RATIONAL, [], 2, 3, sweep=(2 + shift, 100_000 + shift)))]


def _sweep_quadratic(k: int) -> list[Invocation]:
    level = (3, 4, 6, 7, 8, 9, 12, 13)[k]  # all coprime to 5 * 11
    shift = 10 * k
    return [
        Invocation(
            _config(_quadratic(5), [(11, 1), (11, 1)], 3, level,
                    sweep=(2 + shift, 6000 + shift)),
            ("--format", "csv"),
        )
    ]


def _zeta_cold(k: int) -> list[Invocation]:
    # the primes = 1 mod 4 nearest 3001: the cost grows with the modulus
    disc = (3001, 2969, 3037, 3041)[k]
    return [Invocation(_config(_quadratic(disc), [], 4, 4, p=7))]


def _oracle_check(k: int) -> list[Invocation]:
    # N only changes |G(Z/NZ)|; the powers keep the set of primes
    # dividing N, hence the set of rejected p, fixed
    return [
        Invocation(_config(RATIONAL, [], 2, 3 ** (k + 1), sweep=(2, 7)), ("--oracle-check",)),
        Invocation(_config(_quadratic(5), [], 2, 2 ** (k + 2), p=3), ("--oracle-check",)),
    ]


@dataclass(frozen=True)
class Workload:
    name: str
    variants: int
    make: Callable[[int], list[Invocation]]  # variant index -> invocations
    uses_oracle: bool = False

    def invocations(self, seed: int) -> list[Invocation]:
        return self.make(seed % self.variants)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep_rational", 8, _sweep_rational),
        Workload("sweep_quadratic", 8, _sweep_quadratic),
        Workload("zeta_cold", 4, _zeta_cold),
        Workload("oracle_check", 4, _oracle_check, uses_oracle=True),
    )
}


def write_configs(invocations: list[Invocation], out_dir: Path, tag: str) -> list[list[str]]:
    """Write each run description to out_dir; return the CLI argv tails."""
    argvs = []
    for i, inv in enumerate(invocations):
        path = out_dir / f"{tag}-{i}.json"
        path.write_text(json.dumps(inv.config, indent=2) + "\n", encoding="utf-8")
        argvs.append([str(path), *inv.flags])
    return argvs


def load_golden() -> dict[str, str]:
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _rows(inv: Invocation, stdout: bytes) -> list[dict]:
    """Records as dicts with p, error, the four bound integers and oracle."""
    text = stdout.decode("utf-8")
    rows = []
    if inv.csv:
        for row in csv.DictReader(io.StringIO(text)):
            ok = not row["error_code"]
            rows.append({
                "p": int(row["p"]),
                "error": not ok,
                **{k: int(row[k]) if ok else None
                   for k in ("mass", "irr_count", "dim_bound", "final_bound")},
                "oracle": {"verified": True} if row["oracle"] == "true" else row["oracle"],
            })
        return rows
    for record in json.loads(text):
        ok = "error" not in record
        rows.append({
            "p": record["input"]["p"],
            "error": not ok,
            **{k: int(record[k]) if ok else None
               for k in ("mass", "irr_count", "dim_bound", "final_bound")},
            "oracle": record.get("oracle"),
        })
    return rows


def check_output(inv: Invocation, stdout: bytes, stderr: bytes, exit_code: int,
                 golden: dict[str, str] | None) -> list[str]:
    """Every way this invocation's output is wrong; empty when it is right.

    golden=None skips the byte-identity check (used while recording it).
    """
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    if b"Traceback" in stderr:
        problems.append("traceback on stderr")
    if golden is not None:
        want = golden.get(inv.key())
        if want is None:
            problems.append("no golden hash recorded for this invocation")
        elif sha256(stdout) != want:
            problems.append("stdout differs from the golden hash")
    try:
        rows = _rows(inv, stdout)
    except (ValueError, KeyError, TypeError) as exc:
        return problems + [f"output does not parse: {exc!r}"]
    if [r["p"] for r in rows] != inv.primes():
        problems.append("record primes differ from the primes in the window")
    for r in rows:
        if r["error"]:
            continue
        if r["final_bound"] != r["mass"] * r["irr_count"] * r["dim_bound"]:
            problems.append(f"p={r['p']}: final_bound != mass * irr_count * dim_bound")
        if inv.oracle and r["oracle"] != {"verified": True}:
            problems.append(f"p={r['p']}: oracle record {r['oracle']!r}")
    return problems
