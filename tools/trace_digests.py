"""Print one sha256 digest per trace of the benchmark's bath pools.

A check that a change to the trace engine keeps every byte: run it on two
checkouts, at each ``NVMAG_THREADS`` of interest, and diff the outputs.

    PYTHONPATH=src python tools/trace_digests.py > digests.txt

Each line is ``<pool>/<seed>/<sub-grid> <sha256>``, the digest of the
trace's value bytes followed by its diagnostics as sorted JSON.  The pools
are the 40 baths of trace-dense and of trace-longgrid recorded in
``perfbench/reference.json`` (read only), and the trace-longgrid baths
under that file's transverse field.  For every tenth seed the first,
middle and last one-point sub-grids, the first 65 points and the last 129
points are traced as well: grids whose last 64-point tile holds one point.
It calls nvmag's public API only.
"""

from __future__ import annotations

import hashlib
import json
import warnings
from pathlib import Path

from nvmag import (
    EchoSchedule, FieldVector, LatticeConfig, echo_coherence_trace, generate_lattice_sites,
    sample_bath,
)

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"


def digest(trace) -> str:
    diagnostics = json.dumps(trace.metadata["diagnostics"], sort_keys=True)
    return hashlib.sha256(trace.values.tobytes() + diagnostics.encode()).hexdigest()


def sub_grids(n: int) -> list[tuple[int, int]]:
    mid = n // 2
    return [(0, 1), (mid, mid + 1), (n - 1, n), (0, 65), (n - 129, n)]


def main() -> None:
    reference = json.loads(REFERENCE.read_text())
    dense, longgrid = reference["trace-dense"], reference["trace-longgrid"]
    sites = generate_lattice_sites(LatticeConfig())
    for pool, spec, run in (
        ("dense", dense, dense), ("longgrid", longgrid, longgrid),
        ("transverse", longgrid, longgrid["transverse"]),
    ):
        field = FieldVector(*run["field_G"])
        grid = EchoSchedule.for_field(field.magnitude, run["t_max_ms"]).t_grid
        for seed in sorted(int(s) for s in spec["baths"]):
            bath = sample_bath(sites, LatticeConfig(abundance=spec["abundance"], seed=seed))
            cuts = [(0, grid.size)] + (sub_grids(grid.size) if seed % 10 == 0 else [])
            for lo, hi in cuts:
                trace = echo_coherence_trace(bath, field, EchoSchedule(grid[lo:hi]))
                label = "all" if (lo, hi) == (0, grid.size) else f"{lo}:{hi}"
                print(f"{pool}/{seed}/{label} {digest(trace)}", flush=True)


if __name__ == "__main__":
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # over-unity traces are hashed as they are
        main()
