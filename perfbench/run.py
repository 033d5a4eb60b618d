"""nvmag benchmark: run one workload in a fresh process and print its result.

From the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: trace-dense, trace-longgrid, sweep-field, readout.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See perfbench/README.md.

The workload runs in a child process started with the BLAS/OpenMP thread
variables pinned to 1 and ``NVMAG_THREADS`` set to the number of cores, so
peak memory and thread counts are those of the workload alone.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# The child must end, with its output checked, within this many seconds.
CHILD_TIMEOUT_S = 170


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["NVMAG_THREADS"] = str(os.cpu_count() or 1)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    # provenance asks git for the sha of this checkout, never of a directory above it
    env["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)
    return env


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="checked by bench.py")
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ns = parser.parse_args()
    if ns.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "nvmag" / "__init__.py").is_file():
        print(f"perfbench: no nvmag sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    cmd = [
        sys.executable, str(HERE / "bench.py"), "--workload", ns.workload,
        "--seed", str(ns.seed), "--seconds", str(ns.seconds), "--trace", str(ns.trace),
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"perfbench: {ns.workload} ran past {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        print(f"perfbench: {ns.workload} exited with code {proc.returncode}", file=sys.stderr)
        return proc.returncode or 1
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        print(f"perfbench: malformed result line {lines[-1]!r}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
