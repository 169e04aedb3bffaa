"""One in-process pass of a workload over the heckebound library, with
or without tracing.

The traced pass wraps the public functions of each heckebound module
(and the listed methods) from outside the program, on every module-level
name that resolves to them: `bounds` binds `zeta_special_value` at
import, so patching `heckebound.arith` alone would record nothing.
Each wrapped call records a span (name, start, end, parent span) and a
call count in memory; the spans are written out as CSV when the pass
ends.  Hot leaf functions in COUNT_ONLY record a call count and no span.

run.py starts this file as a fresh process for every pass, so the
library's memo tables start empty each time:

    python3 perfbench/tracer.py --workload NAME --seed N --mode plain|traced [--spans PATH]

It prints one JSON summary line on stdout.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import inspect
import io
import json
import sys
import time
from array import array
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from workloads import BENCH_DIR, WORKLOADS, check_output, load_golden, sha256, write_configs

ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

LAYERS = ("arith", "numberfield", "groups", "bounds", "cli", "oracle")
METHODS = {"oracle": (("FqMatrixGroup", "conjugacy_classes"),)}
COUNT_ONLY = frozenset({"oracle.mat_mul"})

# return value -> (total name, amount), for totals the layers do not count
OBSERVERS = {
    "oracle.enumerate_similitude_product": lambda g: ("oracle.group_order_total", g.order),
    "oracle.FqMatrixGroup.conjugacy_classes": lambda c: ("oracle.class_count_total", len(c)),
    "oracle.verify_setting_with_oracle": lambda r: ("oracle.verified", int(r.get("verified") is True)),
}


class Tracer:
    """Spans and counts of one pass, kept in flat arrays."""

    def __init__(self):
        self.names: list[str] = []
        self.calls: list[int] = []
        self.raised: list[int] = []
        self.totals: dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("q")
        self.ends = array("q")
        self.stack = [-1]

    def _register(self, name: str) -> int:
        self.names.append(name)
        self.calls.append(0)
        self.raised.append(0)
        return len(self.names) - 1

    def wrap(self, name: str, fn):
        idx = self._register(name)
        calls = self.calls
        if name in COUNT_ONLY:
            def counted(*args, **kwargs):
                calls[idx] += 1
                return fn(*args, **kwargs)
            return functools.update_wrapper(counted, fn)

        raised, totals, stack = self.raised, self.totals, self.stack
        name_ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends
        observe = OBSERVERS.get(name)
        clock = time.perf_counter_ns

        def spanned(*args, **kwargs):
            calls[idx] += 1
            sid = len(starts)
            name_ids.append(idx)
            parents.append(stack[-1])
            starts.append(0)
            ends.append(0)
            stack.append(sid)
            starts[sid] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                raised[idx] += 1
                raise
            finally:
                ends[sid] = clock()
                stack.pop()
            if observe is not None:
                key, amount = observe(result)
                totals[key] = totals.get(key, 0) + amount
            return result

        return functools.update_wrapper(spanned, fn)

    def self_seconds(self) -> dict[str, float]:
        """Per name: span time minus the time its direct child spans cover."""
        child_ns = array("q", bytes(8 * len(self.starts)))
        self_ns = [0] * len(self.names)
        # children always have larger ids than their parent
        for sid in range(len(self.starts) - 1, -1, -1):
            dur = self.ends[sid] - self.starts[sid]
            self_ns[self.name_ids[sid]] += dur - child_ns[sid]
            parent = self.parents[sid]
            if parent >= 0:
                child_ns[parent] += dur
        return {n: self_ns[i] / 1e9 for i, n in enumerate(self.names) if n not in COUNT_ONLY}

    def write_spans(self, path: Path) -> None:
        """CSV of every span; `request` is the id of the root span (one
        `cli.main` call), shared by all spans of that invocation."""
        t0 = self.starts[0] if self.starts else 0
        request = array("i", bytes(4 * len(self.starts)))
        with open(path, "w", encoding="utf-8") as out:
            out.write("span,name,start_ns,end_ns,parent,request\n")
            for sid in range(len(self.starts)):
                parent = self.parents[sid]
                request[sid] = sid if parent < 0 else request[parent]
                out.write(f"{sid},{self.names[self.name_ids[sid]]},"
                          f"{self.starts[sid] - t0},{self.ends[sid] - t0},{parent},{request[sid]}\n")

    def summary(self) -> dict:
        return {
            "traced": self.names,
            "calls": dict(zip(self.names, self.calls)),
            "raised": {n: r for n, r in zip(self.names, self.raised) if r},
            "self_s": self.self_seconds(),
            "totals": self.totals,
            "spans": len(self.starts),
        }


def install(tracer: Tracer) -> None:
    """Wrap every public function of the layers and rebind each
    module-level name that refers to one of them."""
    package = importlib.import_module("heckebound")
    modules = [importlib.import_module(f"heckebound.{layer}") for layer in LAYERS]
    wrapped = {}
    for layer, mod in zip(LAYERS, modules):
        for attr, obj in vars(mod).items():
            if (not attr.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__):
                wrapped[id(obj)] = (obj, tracer.wrap(f"{layer}.{attr}", obj))
        for cls_name, meth in METHODS.get(layer, ()):
            cls = getattr(mod, cls_name, None)
            if cls is not None and hasattr(cls, meth):
                setattr(cls, meth, tracer.wrap(f"{layer}.{cls_name}.{meth}", getattr(cls, meth)))
    for mod in (package, *modules):
        for attr, obj in list(vars(mod).items()):
            hit = wrapped.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])


def run_pass(workload: str, seed: int, traced: bool, spans_path: Path | None) -> dict:
    sys.path.insert(0, str(SRC))
    cli = importlib.import_module("heckebound.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"heckebound was imported from {cli.__file__}, not from {SRC}")
    tracer = Tracer()
    if traced:
        install(tracer)
    invocations = WORKLOADS[workload].invocations(seed)
    argvs = write_configs(invocations, OUT, f"pass-{workload}")
    golden = load_golden()
    wall = 0.0
    hashes, problems, nbytes = [], [], 0
    for inv, argv in zip(invocations, argvs):
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        wall += time.perf_counter() - start
        data = out.getvalue().encode("utf-8")
        problems += check_output(inv, data, err.getvalue().encode("utf-8"), code, golden)
        hashes.append(sha256(data))
        nbytes += len(data)
    result = {"wall_s": wall, "sha256": hashes, "output_bytes": nbytes, "problems": problems}
    if traced:
        result.update(tracer.summary())
        if spans_path is not None:
            tracer.write_spans(spans_path)
    return result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--mode", choices=("plain", "traced"), required=True)
    parser.add_argument("--spans", type=Path, default=None, help="write the spans here as CSV")
    args = parser.parse_args()
    OUT.mkdir(exist_ok=True)
    result = run_pass(args.workload, args.seed, args.mode == "traced", args.spans)
    print(json.dumps(result, sort_keys=True))


if __name__ == "__main__":
    main()
