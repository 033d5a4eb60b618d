"""Record the bath pools and reference outputs the benchmark checks against.

Run once on the commit whose outputs are the reference, from the repo root:

    python3 perfbench/make_reference.py

It writes ``perfbench/reference.json``: for each trace workload the pool
of bath seeds (in strata of equal size by pair count, one held-out member
per stratum) and every pool bath's trace at a stride of grid points; the
transverse-field trace of each trace-longgrid bath; and for sweep-field
the pool of base seeds with the flags of every row.  It takes about ten
minutes on two cores.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
_ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(_ROOT / "src"), str(_ROOT / "perfbench")]

import contextlib  # noqa: E402
import csv  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import re  # noqa: E402
import shutil  # noqa: E402
import warnings  # noqa: E402

from nvmag import cli  # noqa: E402

import workloads as wl  # noqa: E402

TRACE_POOL = range(40)
TRACE_STRATA = 4
# Sweep base seeds: disjoint blocks of SWEEP_REALIZATIONS consecutive seeds,
# the SWEEP_POOL blocks whose total pair count is closest to the median, so
# that run-to-run spread reflects the code rather than the bath size.
SWEEP_CANDIDATE_BLOCKS = range(0, 200, wl.SWEEP_REALIZATIONS)
SWEEP_POOL = 9


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def trace_reference(sites, name: str, spec: dict) -> dict:
    field = spec["field_G"]
    t_max = wl.auto_window_ms(abs(field[2]))
    baths = {s: wl.sample(sites, spec["abundance"], s) for s in TRACE_POOL}
    order = sorted(TRACE_POOL, key=lambda s: (len(baths[s].pair_couplings), s))
    size = len(order) // TRACE_STRATA
    strata = [order[k * size:(k + 1) * size] for k in range(TRACE_STRATA)]
    out = {
        "field_G": list(field), "abundance": spec["abundance"], "t_max_ms": t_max,
        "stride": spec["stride"], "strata": strata,
        "held_out": [max(stratum) for stratum in strata], "baths": {},
    }
    if name == "trace-longgrid":
        out["transverse"] = {
            "field_G": list(wl.TRANSVERSE_SPEC["field_G"]),
            "t_max_ms": wl.TRANSVERSE_SPEC["t_max_ms"],
            "stride": wl.TRANSVERSE_SPEC["stride"], "values": {},
        }
    for s in TRACE_POOL:
        trace = wl.simulate(baths[s], field, t_max)
        out["n_points"] = len(trace)
        out["baths"][str(s)] = {
            "n_spins": len(baths[s]), "n_pairs": len(baths[s].pair_couplings),
            "values": trace.values[::spec["stride"]].tolist(),
        }
        if "transverse" in out:
            tv = out["transverse"]
            trace = wl.simulate(baths[s], tv["field_G"], tv["t_max_ms"])
            tv["values"][str(s)] = trace.values[::tv["stride"]].tolist()
        log(f"{name}: bath {s} done")
    return out


def sweep_reference(sites) -> dict:
    n_pairs = {}
    for b in SWEEP_CANDIDATE_BLOCKS:
        for s in range(b, b + wl.SWEEP_REALIZATIONS):
            n_pairs[s] = len(wl.sample(sites, 0.011, s).pair_couplings)
    totals = {
        b: sum(n_pairs[s] for s in range(b, b + wl.SWEEP_REALIZATIONS))
        for b in SWEEP_CANDIDATE_BLOCKS
    }
    median = sorted(totals.values())[len(totals) // 2]
    blocks = sorted(sorted(totals, key=lambda b: (abs(totals[b] - median), b))[:SWEEP_POOL])
    out = {"blocks": blocks, "held_out": max(blocks), "block_pairs": {}, "rows": {}}
    tmp = wl.OUT_DIR / "reference-sweep"
    for b in blocks:
        shutil.rmtree(tmp, ignore_errors=True)
        argv = [
            "sweep", "--fields", wl.SWEEP_FIELDS,
            "--realizations", str(wl.SWEEP_REALIZATIONS),
            "--seed", str(b), "--out-dir", str(tmp),
        ]
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.main(argv) != 0:
                raise SystemExit(f"sweep with base seed {b} failed")
        rows = csv.DictReader(io.StringIO((tmp / "sweep_field_rows.csv").read_text()))
        out["block_pairs"][str(b)] = totals[b]
        out["rows"][str(b)] = [[r["B_G"], r["seed"], r["flags"], r["T_R_ms"]] for r in rows]
        log(f"sweep-field: base seed {b} done")
    shutil.rmtree(tmp, ignore_errors=True)
    return out


def main() -> None:
    warnings.simplefilter("ignore", RuntimeWarning)
    sites = wl.lattice_sites()
    commit = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=_ROOT, capture_output=True, text=True
    ).stdout.strip()
    reference = {"commit": commit or None}
    for name, spec in wl.TRACE_SPECS.items():
        reference[name] = trace_reference(sites, name, spec)
    reference["sweep-field"] = sweep_reference(sites)
    text = json.dumps(reference, indent=1)
    # one line per array of numbers
    text = re.sub(r"\[\s+([-0-9.e,\s]+?)\s+\]", lambda m: f"[{' '.join(m.group(1).split())}]", text)
    wl.REFERENCE_PATH.write_text(text + "\n")
    log(f"wrote {wl.REFERENCE_PATH}")


if __name__ == "__main__":
    main()
