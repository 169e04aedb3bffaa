"""Benchmark of the heckebound CLI.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the program is imported from
./src.  With --trace 0 it runs the workload as fresh `heckebound` CLI
processes in a closed loop (one client, one child at a time) for
--seconds, checks every output, and reports the end-to-end metrics
BENCHMARK.json declares.  With --trace 1 it makes the in-process passes
of tracer.py instead, checks that tracing changed nothing, and reports
the per-layer metrics.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import BENCH_DIR, WORKLOADS, check_output, load_golden, write_configs

ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
SPEC = ROOT / "BENCHMARK.json"

SETUP_PER_RUN = 3  # timed set-up launches before each run
MIN_RUNS = 3
PLAIN_PASSES = 3
TRACED_PASSES = 2
RUN_LIMIT_S = 170  # the whole benchmark run must end well within 180 s

CLI_STUB = "import sys; from heckebound.cli import main; sys.exit(main())"
SETUP_STUB = (
    "import json, sys; from heckebound.cli import parse_config\n"
    "for path in sys.argv[1:]:\n"
    "    with open(path, encoding='utf-8') as handle:\n"
    "        parse_config(json.load(handle))\n"
)

# spans that must record calls on every workload, and per workload
COMMON_SPANS = (
    "arith.zeta_special_value", "arith.bernoulli", "arith.is_prime", "arith.factorize",
    "numberfield.validate_setting", "numberfield.resolve_ramification",
    "groups.level_group_order", "groups.irr_count", "groups.dim_bound",
    "bounds.final_bound", "bounds.bound_constant", "bounds.superspecial_mass",
    "cli.parse_config", "cli.compute_records",
)
WORKLOAD_SPANS = {
    "sweep_rational": ("cli.render_json",),
    "sweep_quadratic": ("arith.generalized_bernoulli", "arith.bernoulli_polynomial",
                        "cli.render_csv"),
    "zeta_cold": ("arith.generalized_bernoulli", "arith.bernoulli_polynomial",
                  "cli.render_json"),
    "oracle_check": ("cli.render_json", "oracle.enumerate_similitude_product",
                     "oracle.FqMatrixGroup.conjugacy_classes",
                     "oracle.p_regular_class_count", "oracle.mat_mul",
                     "oracle.verify_setting_with_oracle"),
}


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


class _Expired(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Expired


def _child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def launch(args: list[str], stdout_path: Path, stderr_path: Path, deadline: float):
    """Run `python3 <args>` to completion; return (wall s, exit code, max RSS KiB).

    The child is killed and BenchError raised if it is still running at
    `deadline` (a time.perf_counter() value).
    """
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        if deadline <= start:
            raise BenchError("out of time before starting a child")
        proc = subprocess.Popen([sys.executable, *args], stdout=out, stderr=err,
                                env=_child_env(), cwd=ROOT)
        previous = signal.signal(signal.SIGALRM, _on_alarm)
        signal.setitimer(signal.ITIMER_REAL, deadline - start)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException as exc:
            proc.kill()
            os.wait4(proc.pid, 0)
            proc.returncode = -signal.SIGKILL
            if isinstance(exc, _Expired):
                raise BenchError(f"child {args[:2]} still running at the time limit") from None
            raise
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss


def _spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    return f"n={len(values)}, min {min(values):.4g}, max {max(values):.4g}"


def reference_work() -> int:
    """The fixed reference computation that times the host's current speed.

    The shared host's speed drifts by 20% and more over minutes, so
    absolute times of runs made minutes apart do not compare.  Runs are
    timed against this computation instead, made between them in the
    same process.  A plain integer loop: of the pure-Python kernels
    tried (this, Fraction and dict work, big-integer products), its
    time tracked the CLI's best.  It must never change: every recorded
    `wall_rel` is in units of it.
    """
    total = 0
    for i in range(7_000_000):
        total += i * i % 7
    return total


def time_reference() -> float:
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start


def measure_cli(name: str, seed: int, seconds: float, deadline: float, spec: dict):
    """The closed loop of CLI runs; returns (metrics, attempted, failed, problems)."""
    invocations = WORKLOADS[name].invocations(seed)
    argvs = write_configs(invocations, OUT, f"cli-{name}")
    golden = load_golden()
    records = sum(len(inv.primes()) for inv in invocations)
    stdout_path, stderr_path = OUT / f"cli-{name}.stdout", OUT / f"cli-{name}.stderr"

    problems = []
    setup = []
    paths = [argv[0] for argv in argvs]

    def setup_launch() -> float:
        wall, code, _ = launch(["-c", SETUP_STUB, *paths], stdout_path, stderr_path, deadline)
        if code != 0:
            problems.append(f"set-up launch exited {code}: {stderr_path.read_text()[-300:]}")
        return wall

    setup_launch()  # untimed: fills the bytecode cache
    time_reference()  # untimed warm-up
    walls, rss, cycles, refs = [], [], [], []
    failed = 0
    loop_end = time.perf_counter() + seconds
    # start another run only if a typical run (with its checks) ends by loop_end
    while len(walls) < MIN_RUNS or time.perf_counter() + statistics.median(cycles) <= loop_end:
        cycle_start = time.perf_counter()
        # set-up launches are spread over the loop so their median sees
        # the same host conditions as the runs
        setup += [setup_launch() for _ in range(SETUP_PER_RUN)]
        run_wall, run_rss, run_problems = 0.0, 0, []
        for inv, argv in zip(invocations, argvs):
            # the reference is timed before every invocation, so its
            # samples spread over the loop as evenly as the runs'
            refs.append(time_reference())
            wall, code, maxrss = launch(["-c", CLI_STUB, *argv], stdout_path, stderr_path,
                                        deadline)
            run_wall += wall
            run_rss = max(run_rss, maxrss)
            run_problems += check_output(inv, stdout_path.read_bytes(),
                                         stderr_path.read_bytes(), code, golden)
        walls.append(run_wall)
        rss.append(run_rss / 1024)
        if run_problems:
            failed += 1
            problems += run_problems
        cycles.append(time.perf_counter() - cycle_start)
    refs.append(time_reference())
    # means, not medians or per-run ratios: the host's speed changes
    # within seconds, and only the whole loop's time on each side
    # averages that out; the drift over minutes moves both sides alike
    ref_s = statistics.fmean(refs)
    wall_rel = statistics.fmean(walls) / ref_s
    values = {
        "wall_rel": (wall_rel, f"mean run / mean reference, {_spread(walls)} s runs, "
                               f"{_spread(refs)} s reference"),
        "records_per_ref": (records / wall_rel, f"{records} records/run / wall_rel"),
        "setup_s": (statistics.median(setup), "median, " + _spread(setup) + " launches"),
        "peak_rss_mb": (statistics.median(rss), "median, " + _spread(rss) + " runs"),
    }
    print(f"{name} seed {seed}: {len(invocations)} invocation(s) per run, closed loop, "
          f"1 client, {seconds} s")
    metrics = {}
    for entry in spec["end_to_end"]:
        value, samples = values[entry["name"]]
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(f"  {entry['name']:<15} {value:<12.6g} {entry['unit']:<6} {samples}")
    print(f"  {'failed_frac':<15} {failed / len(walls):<12.6g} {'ratio':<6} "
          f"{failed} of {len(walls)} runs")
    # absolute times, printed for reading but not gated: they follow the host's drift
    print(f"  {'wall_s':<15} {statistics.median(walls):<12.6g} {'s':<6} median, "
          f"{_spread(walls)} runs (not gated)")
    print(f"  {'records_per_s':<15} {statistics.median(records / w for w in walls):<12.6g} "
          f"{'1/s':<6} median, {_spread([records / w for w in walls])} runs (not gated)")
    print(f"  {'reference_s':<15} {ref_s:<12.6g} {'s':<6} mean, "
          f"{_spread(refs)} reference runs (not gated)")
    return metrics, len(walls), failed, problems


def _tracer_pass(name: str, seed: int, mode: str, index: int, deadline: float) -> dict:
    args = [str(BENCH_DIR / "tracer.py"), "--workload", name, "--seed", str(seed),
            "--mode", mode]
    if mode == "traced":
        args += ["--spans", str(OUT / f"spans-{name}-{index}.csv")]
    stdout_path, stderr_path = OUT / f"pass-{name}.stdout", OUT / f"pass-{name}.stderr"
    _, code, _ = launch(args, stdout_path, stderr_path, deadline)
    if code != 0:
        raise BenchError(f"{mode} pass exited {code}: {stderr_path.read_text()[-500:]}")
    return json.loads(stdout_path.read_text().splitlines()[-1])


def _trace_checks(name: str, plain: list[dict], traced: list[dict]) -> list[str]:
    problems = [p for result in plain + traced for p in result["problems"]]
    if any(r["sha256"] != plain[0]["sha256"] for r in plain + traced):
        problems.append("traced output differs from untraced output")
    first = traced[0]
    for other in traced[1:]:
        for key in ("calls", "raised", "totals"):
            if other[key] != first[key]:
                problems.append(f"{key} differ between two traced passes of one seed")
    for span in COMMON_SPANS + WORKLOAD_SPANS[name]:
        if span not in first["calls"]:
            print(f"  note: {span} no longer exists; its metrics read 0")
        elif first["calls"][span] == 0:
            problems.append(f"span {span} recorded no calls")
    if not WORKLOADS[name].uses_oracle:
        stray = {k: v for k, v in first["calls"].items() if k.startswith("oracle.") and v}
        if stray or first["totals"]:
            problems.append(f"oracle calls outside oracle_check: {stray or first['totals']}")
    return problems


def per_layer_value(metric: str, plain: list[dict], traced: list[dict]) -> float:
    first = traced[0]
    calls, totals = first["calls"], first["totals"]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    derived = {
        "numberfield.reject_ratio": lambda: ratio(
            first["raised"].get("numberfield.validate_setting", 0),
            calls.get("numberfield.validate_setting", 0)),
        "oracle.verified_ratio": lambda: ratio(
            totals.get("oracle.verified", 0), calls.get("oracle.verify_setting_with_oracle", 0)),
        "cli.output_bytes": lambda: first["output_bytes"],
        "trace.overhead_ratio": lambda: (statistics.median(r["wall_s"] for r in traced)
                                         / statistics.median(r["wall_s"] for r in plain)),
    }
    if metric in derived:
        return derived[metric]()
    if metric in ("oracle.group_order_total", "oracle.class_count_total"):
        return totals.get(metric, 0)
    span, _, kind = metric.rpartition(".")
    if kind == "calls":
        return calls.get(span, 0)
    if kind == "self_s":
        return statistics.median(r["self_s"].get(span, 0.0) for r in traced)
    raise BenchError(f"no rule derives the per-layer metric {metric}")


def measure_traced(name: str, seed: int, deadline: float, spec: dict):
    plain = [_tracer_pass(name, seed, "plain", i, deadline) for i in range(PLAIN_PASSES)]
    traced = [_tracer_pass(name, seed, "traced", i, deadline) for i in range(TRACED_PASSES)]
    print(f"{name} seed {seed}: {PLAIN_PASSES} untraced and {TRACED_PASSES} traced "
          f"in-process passes; {traced[0]['spans']} spans per traced pass, written to "
          f"{(OUT / f'spans-{name}-*.csv').relative_to(ROOT)}")
    problems = _trace_checks(name, plain, traced)
    metrics = {}
    for entry in spec["per_layer"]:
        value = per_layer_value(entry["name"], plain, traced)
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        samples = TRACED_PASSES if entry["unit"] == "s" else 1
        print(f"  {entry['name']:<46} {value:<12.6g} {entry['unit']:<6} n={samples}")
    failed = sum(1 for r in plain + traced if r["problems"])
    return metrics, PLAIN_PASSES + TRACED_PASSES, failed, problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.perf_counter() + RUN_LIMIT_S

    # One CPU for this process, its children and the reference computation:
    # the host's speed differs between the two CPUs and drifts on each, and
    # the reference can only stand in for the CPU the children run on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if not (SRC / "heckebound" / "cli.py").is_file():
        print(f"error: no heckebound sources under {SRC}", file=sys.stderr)
        return 2
    with open(SPEC, encoding="utf-8") as handle:
        spec = json.load(handle)
    OUT.mkdir(exist_ok=True)
    try:
        if args.trace:
            metrics, attempted, failed, problems = measure_traced(
                args.workload, args.seed, deadline, spec)
        else:
            metrics, attempted, failed, problems = measure_cli(
                args.workload, args.seed, args.seconds, deadline, spec)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
