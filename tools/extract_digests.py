"""Print the extracted timescales of two fixed sets of simulated traces.

A check that a change to extraction keeps its outputs: run it on two
checkouts and diff the outputs.

    PYTHONPATH=src python tools/extract_digests.py > timescales.txt

Each line is ``<set>/<field>G/<seed> <repr>``, the ``repr`` of (T_w,
T_w_err, T_R, T_R_err, T2, T2_err, flags) from ``extract_timescales``.
The sets are:

- ``readout``: the 18 axis traces of the benchmark's readout workload,
  1.1% baths at 5.0 + 0.5j G with seeds 1000 + j and at 5.25 + 0.5j G with
  seeds 2000 + j (j = 0..8), each on the CLI's automatic window for that
  abundance, min(max(4.6 revival periods, 0.55 ms), 1.05 ms);
- ``dilute``: 207 baths at 0.3% on 6.2 revival periods: seeds 0-39 at 2,
  5, 10, 50 and 100 G, and 2 G seeds 91, 102, 128, 131, 136, 156 and 176.

Every trace is axial and sampled at the default points per period.  It
calls nvmag's public API only.
"""

from __future__ import annotations

import warnings

from nvmag import (
    EchoSchedule, FieldVector, LatticeConfig, echo_coherence_trace, extract_timescales,
    generate_lattice_sites, sample_bath,
)
from nvmag.constants import GAMMA_N_13C_KHZ_PER_G

READOUT = [(5.0 + 0.5 * j, 1000 + j) for j in range(9)] + [
    (5.25 + 0.5 * j, 2000 + j) for j in range(9)
]
DILUTE = [(field, seed) for field in (2.0, 5.0, 10.0, 50.0, 100.0) for seed in range(40)] + [
    (2.0, seed) for seed in (91, 102, 128, 131, 136, 156, 176)
]


def line(name: str, sites, abundance: float, field_g: float, seed: int, t_max_ms: float) -> str:
    bath = sample_bath(sites, LatticeConfig(abundance=abundance, seed=seed))
    schedule = EchoSchedule.for_field(field_g, t_max_ms)
    found = extract_timescales(echo_coherence_trace(bath, FieldVector.along_z(field_g), schedule))
    values = (found.T_w, found.T_w_err, found.T_R, found.T_R_err, found.T2, found.T2_err, found.flags)
    return f"{name}/{field_g:g}G/{seed} {values!r}"


def main() -> None:
    sites = generate_lattice_sites(LatticeConfig())
    for field_g, seed in READOUT:
        t_max = min(max(4.6 / (GAMMA_N_13C_KHZ_PER_G * field_g), 0.55), 1.05)
        print(line("readout", sites, 0.011, field_g, seed, t_max), flush=True)
    for field_g, seed in DILUTE:
        t_max = 6.2 / (GAMMA_N_13C_KHZ_PER_G * field_g)
        print(line("dilute", sites, 0.003, field_g, seed, t_max), flush=True)


if __name__ == "__main__":
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # over-unity traces are extracted as they are
        main()
