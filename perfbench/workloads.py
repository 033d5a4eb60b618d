"""The four benchmark workloads.

Each workload turns the workload seed into inputs, runs one timed
operation at a time through nvmag's public API, and checks every output.
Calls go through module attributes (``decoherence.echo_coherence_trace``
rather than a name bound at import), so the traced run sees them.

Baths come from small pools recorded in ``reference.json`` together with
reference values taken from the unmodified engine.  The seed picks inputs
from those pools; :data:`HELD_OUT_SEED` picks pool members that no other
seed ever uses, for checking a claim on inputs it was not tuned on.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import math
import os
import random
import shutil
from pathlib import Path

import numpy as np

from nvmag import bath, cli, decoherence, magnetometry, sensitivity, timescales
from nvmag.constants import GAMMA_N_13C_KHZ_PER_G as GAMMA_N

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"
OUT_DIR = HERE / "out"

HELD_OUT_SEED = 1708

# Traces must match the recorded values to this absolute tolerance.
TRACE_ABS_TOL = 1e-12
# Recovered fields and revival spacings must lie within this relative error.
FIELD_REL_TOL = 0.03

TRACE_SPECS = {
    "trace-dense": {"field_G": (0.0, 0.0, 10.0), "abundance": 0.03, "stride": 7},
    "trace-longgrid": {"field_G": (0.0, 0.0, 100.0), "abundance": 0.011, "stride": 61},
}
# One transverse-field trace checked outside the timed loop of trace-longgrid.
TRANSVERSE_SPEC = {"field_G": (30.0, 0.0, 95.0), "t_max_ms": 0.1, "stride": 11}

SWEEP_FIELDS = "5,10,20,50"
SWEEP_REALIZATIONS = 4

READOUT_ABUNDANCE = 0.011
READOUT_AXES = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
# Axis traces: (projected field in G, bath seed).  Each field vector uses
# three of them, and one op cycle uses every set of three exactly once, so
# every seed runs the same extraction work: the time to extract one trace
# varies more than tenfold from trace to trace.
READOUT_POOLS = {
    "ordinary": tuple((5.0 + 0.5 * j, 1000 + j) for j in range(9)),
    "held-out": tuple((5.25 + 0.5 * j, 2000 + j) for j in range(9)),
}


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def auto_window_ms(field_g: float) -> float:
    """The CLI's automatic simulation window (ms) for abundances above 0.4%."""
    return min(max(4.6 / (GAMMA_N * field_g), 0.55), 1.05)


def lattice_sites():
    return bath.generate_lattice_sites(bath.LatticeConfig())


def sample(sites, abundance: float, seed: int):
    return bath.sample_bath(sites, bath.LatticeConfig(abundance=abundance, seed=seed))


def simulate(spins, field_g, t_max_ms: float):
    field = decoherence.FieldVector(*field_g)
    schedule = decoherence.EchoSchedule.for_field(field.magnitude, t_max_ms)
    return decoherence.echo_coherence_trace(spins, field, schedule)


def without_pairs(spins):
    """The same bath with every pair coupling removed: single-spin factors only."""
    return bath.BathRealization(
        spins=spins.spins, pair_couplings={}, gamma_n=spins.gamma_n,
        seed=spins.seed, config=spins.config,
    )


def compare_to_reference(values, reference, stride: int, what: str) -> str | None:
    sampled = np.asarray(values)[::stride]
    if sampled.shape != (len(reference),):
        return f"{what}: {sampled.size} reference points, expected {len(reference)}"
    err = float(np.max(np.abs(sampled - np.asarray(reference))))
    if not err <= TRACE_ABS_TOL:
        return f"{what}: differs from the reference by {err:.3g}"
    return None


class Workload:
    """Inputs, one timed operation, and output checks for one workload."""

    name = ""
    warmup_ops = 1
    # Spans the traced run must record; a missing one means a wrapped name
    # is no longer called and its layer would silently read zero.
    required_spans: tuple[str, ...] = ()

    def __init__(self) -> None:
        self.cycle_len = 1
        self._first: dict = {}

    def setup(self) -> None:
        """Build every input the ops read.  Repeatable; the last build wins."""

    def op(self, i: int):
        raise NotImplementedError

    def check(self, i: int, out) -> str | None:
        """None if op ``i`` produced correct output, else what was wrong."""
        raise NotImplementedError

    def final_checks(self) -> list[str | None]:
        """One entry per check made outside the timed loop: None if it passed."""
        return []

    def close(self) -> None:
        pass

    def repeat_check(self, key, value) -> str | None:
        """The first output for an input is kept; later ones must match bit for bit."""
        first = self._first.setdefault(key, value)
        if first != value:
            return f"input {key!r} did not reproduce its earlier output bit for bit"
        return None


def trace_cycle(spec: dict, name: str, seed: int) -> list[int]:
    """One bath from each pair-count stratum, so every run does the same mix
    of bath sizes.  The spread of sizes would otherwise swamp the timings."""
    if seed == HELD_OUT_SEED:
        return list(spec["held_out"])
    rng = random.Random(f"{name}/{seed}")
    return [
        rng.choice([s for s in stratum if s not in spec["held_out"]])
        for stratum in spec["strata"]
    ]


class TraceWorkload(Workload):
    """One op is one echo trace of a pre-sampled bath."""

    required_spans = (
        "bath.generate_lattice_sites", "bath.sample_bath",
        "decoherence.echo_coherence_trace",
    )

    def __init__(self, name: str, seed: int, reference: dict):
        super().__init__()
        self.name = name
        self.spec = reference[name]
        self.bath_seeds = trace_cycle(self.spec, name, seed)
        self.cycle_len = len(self.bath_seeds)
        self.field = decoherence.FieldVector(*self.spec["field_G"])

    def setup(self) -> None:
        sites = lattice_sites()
        self.baths = [sample(sites, self.spec["abundance"], s) for s in self.bath_seeds]
        self.schedule = decoherence.EchoSchedule.for_field(
            self.field.magnitude, self.spec["t_max_ms"]
        )

    def op(self, i: int):
        return decoherence.echo_coherence_trace(
            self.baths[i % self.cycle_len], self.field, self.schedule
        )

    def check(self, i: int, trace) -> str | None:
        k = i % self.cycle_len
        seed = self.bath_seeds[k]
        record = self.spec["baths"][str(seed)]
        spins = self.baths[k]
        if (len(spins), len(spins.pair_couplings)) != (record["n_spins"], record["n_pairs"]):
            return f"bath {seed}: {len(spins)} spins, {len(spins.pair_couplings)} pairs"
        return compare_to_reference(
            trace.values, record["values"], self.spec["stride"], f"bath {seed}"
        ) or self.repeat_check(seed, trace.values.tobytes())

    def final_checks(self) -> list[str | None]:
        transverse = self.spec.get("transverse")
        if transverse is None:
            return []
        seed = self.bath_seeds[0]
        trace = simulate(self.baths[0], transverse["field_G"], transverse["t_max_ms"])
        return [compare_to_reference(
            trace.values, transverse["values"][str(seed)], transverse["stride"],
            f"transverse field, bath {seed}",
        )]


class SweepWorkload(Workload):
    """One op is ``nvmag sweep`` over four fields, run in process."""

    name = "sweep-field"
    warmup_ops = 0  # an op runs for seconds; nothing lazy is left to warm
    tasks = len(SWEEP_FIELDS.split(",")) * SWEEP_REALIZATIONS
    required_spans = (
        "cli.main", "bath.generate_lattice_sites", "bath.sample_bath",
        "decoherence.echo_coherence_trace", "decoherence.ensemble_average",
        "timescales.extract_timescales", "timescales.fit_power_law",
    )

    def __init__(self, seed: int, reference: dict):
        super().__init__()
        spec = reference[self.name]
        if seed == HELD_OUT_SEED:
            self.base_seed = spec["held_out"]
        else:
            ordinary = [b for b in spec["blocks"] if b != spec["held_out"]]
            self.base_seed = random.Random(f"{self.name}/{seed}").choice(ordinary)
        self.expected_flags = {
            (row[0], row[1]): row[2] for row in spec["rows"][str(self.base_seed)]
        }
        self.root = OUT_DIR / f"sweep-{os.getpid()}"
        self.simulate_s: list[float] = []  # each op's simulate phase, from its manifest

    def setup(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)
        self.root.mkdir(parents=True)

    def op(self, i: int):
        out = self.root / f"op{i}"
        argv = [
            "sweep", "--fields", SWEEP_FIELDS, "--realizations", str(SWEEP_REALIZATIONS),
            "--seed", str(self.base_seed), "--out-dir", str(out),
        ]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        return code, out

    def check(self, i: int, result) -> str | None:
        code, out = result
        if code != 0:
            return f"sweep exited with code {code}"
        rows_text = (out / "sweep_field_rows.csv").read_text()
        summary_text = (out / "sweep_field_summary.json").read_text()
        manifest = json.loads((out / "sweep_manifest.json").read_text())
        self.simulate_s.append(manifest["timings_s"]["simulate"])
        shutil.rmtree(out)
        return self.check_rows(rows_text) or self.repeat_check(
            self.base_seed, (rows_text, summary_text)
        )

    def check_rows(self, rows_text: str) -> str | None:
        rows = list(csv.DictReader(io.StringIO(rows_text)))
        if len(rows) != len(self.expected_flags):
            return f"{len(rows)} sweep rows, expected {len(self.expected_flags)}"
        for row in rows:
            key = (row["B_G"], row["seed"])
            if self.expected_flags.get(key) != row["flags"]:
                return f"row {key}: flags {row['flags']!r} differ from the reference"
            t_r = float(row["T_R_ms"]) * GAMMA_N * float(row["B_G"])
            if not abs(t_r - 1.0) <= FIELD_REL_TOL:
                return f"row {key}: T_R is {t_r:.4f} / (gamma B)"
        return None

    def close(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)


class ReadoutWorkload(Workload):
    """One op reads out one field vector from three saved axis traces."""

    name = "readout"
    required_spans = (
        "bath.generate_lattice_sites", "bath.sample_bath",
        "decoherence.echo_coherence_trace", "decoherence.CoherenceTrace.save_csv",
        "decoherence.CoherenceTrace.load_csv", "timescales.extract_timescales",
        "magnetometry.measurements_to_components", "magnetometry.reconstruct_field",
        "magnetometry.resolve_alignment", "sensitivity.build_report",
    )

    def __init__(self, seed: int):
        super().__init__()
        self.pool = READOUT_POOLS["held-out" if seed == HELD_OUT_SEED else "ordinary"]
        rng = random.Random(f"{self.name}/{seed}")
        triples = list(itertools.combinations(range(len(self.pool)), 3))
        rng.shuffle(triples)
        self.vectors = []
        for triple in triples:
            idx = rng.sample(triple, 3)  # which trace serves which axis
            signs = [rng.choice((-1.0, 1.0)) for _ in idx]
            true = np.array([s * self.pool[j][0] for s, j in zip(signs, idx)])
            self.vectors.append((idx, true))
        self.cycle_len = len(self.vectors)
        self.root = OUT_DIR / f"readout-{os.getpid()}"

    def setup(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)
        self.root.mkdir(parents=True)
        sites = lattice_sites()
        self.paths = []
        for j, (field_g, bath_seed) in enumerate(self.pool):
            spins = sample(sites, READOUT_ABUNDANCE, bath_seed)
            trace = simulate(spins, (0.0, 0.0, field_g), auto_window_ms(field_g))
            path = self.root / f"axis{j}.csv"
            trace.save_csv(path)
            self.paths.append(path)

    def op(self, i: int):
        idx, true = self.vectors[i % self.cycle_len]
        traces = [decoherence.CoherenceTrace.load_csv(self.paths[j]) for j in idx]
        found = [timescales.extract_timescales(t) for t in traces]
        measurements = [
            magnetometry.AxisMeasurement(axis=axis, T_R=ts.T_R)
            for axis, ts in zip(READOUT_AXES, found)
        ]
        estimate = magnetometry.reconstruct_field(
            magnetometry.measurements_to_components(measurements)
        )
        resolution = magnetometry.resolve_alignment(
            estimate.sign_candidates, magnetometry.make_simulated_probe(true)
        )
        t2 = float(np.median([ts.T2 for ts in found if math.isfinite(ts.T2)]))
        report = sensitivity.build_report(t2, field_g=estimate.magnitude)
        return estimate, resolution, report

    def check(self, i: int, result) -> str | None:
        estimate, resolution, report = result
        k = i % self.cycle_len
        true = self.vectors[k][1]
        err = estimate.magnitude / float(np.linalg.norm(true)) - 1.0
        if not abs(err) <= FIELD_REL_TOL:
            return f"vector {k}: magnitude off by {100 * err:+.2f}%"
        families = {tuple(np.sign(c)) for c in resolution.selected}
        if not resolution.resolved or families != {
            tuple(np.sign(true)), tuple(-np.sign(true))
        }:
            return f"vector {k}: alignment not resolved to the true family"
        if not report.eta_min_G_sqHz > 0:
            return f"vector {k}: no sensitivity optimum"
        return self.repeat_check(k, (
            estimate.magnitude, estimate.components, resolution.selected,
            report.eta_min_G_sqHz, report.eta_G_sqHz.tobytes(),
        ))

    def close(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)


WORKLOADS = ("trace-dense", "trace-longgrid", "sweep-field", "readout")


def make_workload(name: str, seed: int, reference: dict) -> Workload:
    if name in TRACE_SPECS:
        return TraceWorkload(name, seed, reference)
    if name == "sweep-field":
        return SweepWorkload(seed, reference)
    if name == "readout":
        return ReadoutWorkload(seed)
    raise ValueError(f"unknown workload {name!r}")
