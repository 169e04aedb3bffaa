"""Record golden.json: the sha256 of the CLI's stdout for every variant of
every workload, after the output passes every other check.

    python3 perfbench/record_golden.py

Run it only on the commit whose output is the reference; a change that
keeps the output byte-identical never needs it.
"""

from __future__ import annotations

import json
import sys
import time

from run import CLI_STUB, OUT, BenchError, launch
from workloads import GOLDEN_PATH, WORKLOADS, check_output, sha256, write_configs


def main() -> int:
    OUT.mkdir(exist_ok=True)
    golden = {}
    stdout_path, stderr_path = OUT / "golden.stdout", OUT / "golden.stderr"
    for workload in WORKLOADS.values():
        for k in range(workload.variants):
            invocations = workload.make(k)
            for inv, argv in zip(invocations, write_configs(invocations, OUT, "golden")):
                _, code, _ = launch(["-c", CLI_STUB, *argv], stdout_path, stderr_path,
                                    time.perf_counter() + 600)
                data = stdout_path.read_bytes()
                problems = check_output(inv, data, stderr_path.read_bytes(), code, None)
                if problems:
                    raise BenchError(f"{workload.name} variant {k}: {problems[:5]}")
                golden[inv.key()] = sha256(data)
                print(f"{workload.name} variant {k}: {len(inv.primes())} records, "
                      f"{len(data)} bytes", flush=True)
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
