"""Command-line front end: reproducible runs over the simulation pipeline.

Every subcommand runs through one :class:`Run`, which looks up its
settings, keeps its manifest and prints its result.  A command that writes
files (bath, simulate, sweep, reconstruct, odmr --candidates, sensitivity)
writes them under --out-dir, created only then, together with a JSON run
manifest (configuration echo, seeds, package version, output paths,
wall-clock timing) so the run can be reproduced from the manifest alone.
extract, invert and odmr without --candidates only print.

Every option is declared once, in ``_OPTIONS``, and each subcommand takes
only the options ``_COMMANDS`` lists for it.  A flag that another flag
overrides is refused: --abundance and --seed next to simulate --bath (the
saved bath fixes both), --points-per-period next to simulate --step,
--field-magnitude next to sweep --fields, and --abundance next to sweep
--abundances.  A config file may still set any of them.

Configuration file (--config) is a flat JSON object; recognized keys:

    lattice_constant, cutoff_radius, exclusion_radius, abundance,
    pair_cutoff, seed, realizations, points_per_period, prominence,
    alpha, alpha_source, contrast, n_centers, t_max, field_magnitude

The physical constants (13C and electron gyromagnetic ratios, zero-field
splitting) are fixed and are not settings.

Explicit command-line flags override config values, which override the
built-in defaults.  Every JSON input (--config, --bath, --measurements,
--candidates, a trace's sidecar) is read by ``bath.load_strict_json``: a
file it refuses, or a malformed record in it, exits 2 naming the file.
NVMAG_THREADS caps the threads that compute the pair factors of every
trace (default: one per CPU).  Exit codes: 0 success, 2 configuration
error or a request too large for memory, 3 physics-constraint error.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .bath import (
    BathRealization,
    LatticeConfig,
    csv_text,
    finite_array,
    finite_number,
    finite_vector,
    generate_lattice_sites,
    json_text,
    load_strict_json,
    sample_bath,
)
from .constants import G_TO_UT, NATURAL_ABUNDANCE_13C
from .decoherence import (
    POINTS_PER_LARMOR_PERIOD_DEFAULT,
    CoherenceTrace,
    EchoSchedule,
    FieldVector,
    echo_coherence_trace,
    ensemble_average,
    larmor_period,
)
from .errors import ConfigError, PhysicsError
from .magnetometry import (
    AxisMeasurement,
    Calibration,
    invert_TR_to_B,
    make_simulated_probe,
    measurements_to_components,
    odmr_transitions,
    reconstruct_field,
    resolve_alignment,
    zeeman_levels,
)
from .sensitivity import TAU_POINTS_DEFAULT, ReadoutModel, build_report
from .svgplot import line_plot
from .timescales import (
    PROMINENCE_DEFAULT,
    extract_timescales,
    fit_power_law,
)

_LATTICE_KEYS = {f.name for f in fields(LatticeConfig)}

# the lattice settings, and the settings each command reads besides them
_CONFIG_KEYS = _LATTICE_KEYS | {
    "realizations", "points_per_period", "prominence", "alpha", "alpha_source",
    "contrast", "n_centers", "t_max", "field_magnitude",
}


def _parse_float_list(text: str, what: str) -> list[float]:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"could not parse {what} from {text!r}") from exc
    if not values:
        raise ConfigError(f"{what} is empty")
    return finite_array(values, what).tolist()


def _parse_field(text: str) -> FieldVector:
    """'10' means 10 G along the defect axis; 'bx,by,bz' is explicit."""
    parts = _parse_float_list(text, "field")
    if len(parts) == 1:
        return FieldVector.along_z(parts[0])
    if len(parts) == 3:
        return FieldVector.from_sequence(parts)
    raise ConfigError("field must be one magnitude or three components")


def _t_max_auto(field_magnitude_g: float, abundance: float) -> float:
    """Simulation window: several revivals, but not past the dead envelope.

    Dilute baths keep their envelope long, so take six revival periods.
    At natural abundance and above, coherence is gone by ~1 ms regardless
    of field, so cap the window there and always cover at least ~0.55 ms
    (enough envelope for the high-field decay fit).
    """
    t_revival = larmor_period(field_magnitude_g)
    if abundance <= 0.004:
        return 6.2 * t_revival
    return min(max(4.6 * t_revival, 0.55), 1.05)


class Run:
    """One command invocation: its settings, its manifest and its printout.

    A setting is looked up in layers: the command-line flag, then the
    --config file, then the default the command reads it with; the config
    file's keys are checked when the run starts.  The manifest is
    ``config`` (the echo of every setting that is set), ``seeds``,
    ``outputs`` and ``timings_s``, which the command fills in.  The out-dir
    is created when the first output is registered.  ``finish`` writes
    ``<command>_manifest.json`` (with the total time) only when a file was
    written, refusing a manifest that lists a file never written, and then
    prints the command's result: a ``str`` as is, a ``dict`` as strict JSON
    or, with ``--format csv``, as a one-row table of its scalars.
    """

    def __init__(self, ns: argparse.Namespace):
        self.t0 = time.perf_counter()
        self.ns = ns
        self.file_config: dict = {}
        if getattr(ns, "config", None):
            self.file_config = load_strict_json(ns.config, "config file", dict)
            if unknown := set(self.file_config) - _CONFIG_KEYS:
                raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        self.config = {key: value for key in _CONFIG_KEYS
                       if (value := self.get(key, None)) is not None}
        self.seeds: list = []
        self.outputs: list[str] = []
        self.timings_s: dict = {}

    def get(self, name: str, default):
        flag = getattr(self.ns, name, None)
        if flag is not None:
            return flag
        if name in self.file_config:
            return self.file_config[name]
        return default

    def number(self, name: str, default: float | None) -> float | None:
        """A finite real setting; None only when unset with a None default."""
        if default is None and self.get(name, None) is None:
            return None
        return float(finite_number(self.get(name, default), name))

    def integer(self, name: str, default: int) -> int:
        """An integral setting; a float must be a whole number."""
        value = finite_number(self.get(name, default), name)
        if isinstance(value, float) and not value.is_integer():
            raise ConfigError(f"{name} must be an integer, got {value!r}")
        return int(value)

    def lattice_config(self) -> LatticeConfig:
        """Every lattice setting, each defaulting to LatticeConfig's own."""
        default = LatticeConfig()
        values = {f.name: self.number(f.name, getattr(default, f.name))
                  for f in fields(default) if f.name != "seed"}
        return LatticeConfig(**values, seed=self.integer("seed", default.seed))

    def calibration(self) -> Calibration:
        default = Calibration()
        return Calibration(
            alpha=self.number("alpha", default.alpha),
            source=str(self.get("alpha_source", default.source)),
        )

    def output(self, name: str) -> Path:
        """Register output ``name`` in the manifest; the out-dir is created here."""
        out_dir = Path(self.ns.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / name
        self.outputs.append(str(path))
        return path

    def write_text(self, name: str, text: str) -> Path:
        path = self.output(name)
        path.write_text(text)
        return path

    def write_json(self, name: str, payload) -> Path:
        return self.write_text(name, json_text(payload) + "\n")

    def write_csv(self, name: str, header: list[str], rows) -> Path:
        return self.write_text(name, csv_text(header, rows))

    def finish(self, result: str | dict) -> int:
        if self.outputs:
            self.timings_s["total"] = time.perf_counter() - self.t0
            missing = [p for p in self.outputs if not Path(p).exists()]
            if missing:
                raise PhysicsError(f"manifest lists outputs that were never written: {missing}")
            manifest = {"command": self.ns.command, "version": __version__,
                        "config": self.config, "seeds": self.seeds,
                        "outputs": self.outputs, "timings_s": self.timings_s}
            path = Path(self.ns.out_dir) / f"{self.ns.command}_manifest.json"
            path.write_text(json_text(manifest) + "\n")
        if isinstance(result, str):
            print(result)
        elif self.ns.format == "csv":
            flat = {k: v for k, v in result.items() if not isinstance(v, (dict, list))}
            print(csv_text(list(flat), [flat.values()]), end="")
        else:
            print(json_text(result))
        return 0


def _schedule(run: Run, b_mag: float, abundance: float, step: float | None = None) -> EchoSchedule:
    """The echo grid: a regular ``step``, else points per revival period.

    Only simulate takes ``step``; a sweep refuses a zero field before this.
    """
    t_max = run.number("t_max", None)
    if b_mag == 0.0 and (t_max is None or step is None):
        raise ConfigError("zero field has no revival period; pass --t-max and --step")
    if t_max is None:
        t_max = _t_max_auto(b_mag, abundance)
    if step is not None:
        return EchoSchedule.regular(t_max, step)
    per_period = run.integer("points_per_period", POINTS_PER_LARMOR_PERIOD_DEFAULT)
    return EchoSchedule.for_field(b_mag, t_max, points_per_period=per_period)


def _resolve(candidates, true_field: str):
    """Probe ``candidates`` in a simulated true field: the resolution and its JSON record."""
    probe = make_simulated_probe(_parse_field(true_field).as_array())
    resolution = resolve_alignment(candidates, probe)
    return resolution, {
        "resolved": resolution.resolved,
        "selected": [list(c) for c in resolution.selected],
        "note": resolution.note,
    }


# ---------------------------------------------------------------- commands


def cmd_bath(run: Run) -> str:
    cfg = run.lattice_config()
    bath = sample_bath(generate_lattice_sites(cfg), cfg)
    run.seeds = [cfg.seed]
    path = run.output(f"bath_seed{cfg.seed}.json")
    bath.save(path)
    return (
        f"bath: {len(bath)} spins, {len(bath.pair_b)} coupled pairs "
        f"(seed {cfg.seed}, abundance {cfg.abundance}) -> {path}"
    )


def cmd_simulate(run: Run) -> str:
    ns = run.ns
    field = _parse_field(ns.field)
    step = run.number("step", None)
    if step is not None and ns.points_per_period is not None:
        raise ConfigError("--step fixes the grid; drop --points-per-period")
    if ns.bath:
        if ns.abundance is not None or ns.seed is not None:
            raise ConfigError("--bath fixes abundance and seed; drop --abundance and --seed")
        bath = BathRealization.load(ns.bath)
        cfg = bath.config
        # the trace runs on the saved bath's lattice, not the config file's
        echo = run.config
        echo.update({key: getattr(cfg, key, None) for key in echo.keys() & _LATTICE_KEYS})
    else:
        cfg, bath = run.lattice_config(), None
    abundance = cfg.abundance if cfg else NATURAL_ABUNDANCE_13C
    schedule = _schedule(run, field.magnitude, abundance, step)
    if bath is None:
        bath = sample_bath(generate_lattice_sites(cfg), cfg)
    trace = echo_coherence_trace(bath, field, schedule)
    run.seeds = [bath.seed]
    tag = f"B{field.magnitude:g}_seed{bath.seed}"
    csv_path = run.output(f"trace_{tag}.csv")
    # the sidecar path save_csv returns already holds the out-dir
    run.outputs.append(str(trace.save_csv(csv_path)))
    if ns.plot:
        svg = line_plot(
            [("coherence", trace.t_grid.tolist(), trace.values.tolist())],
            title=f"echo coherence, {tag}",
            x_label="interval time (ms)",
            y_label="L",
        )
        run.write_text(f"trace_{tag}.svg", svg)
    return (f"simulate: {len(trace)} points, L in [{trace.values.min():.4f}, "
            f"{trace.values.max():.4f}] -> {csv_path}")


def cmd_sweep(run: Run) -> str:
    ns = run.ns
    prominence = run.number("prominence", PROMINENCE_DEFAULT)
    realizations = run.integer("realizations", 10)
    if realizations < 1:
        raise ConfigError("realizations must be >= 1")

    if ns.fields and ns.abundances:
        raise ConfigError("sweep takes --fields or --abundances, not both")
    if ns.fields:
        if ns.field_magnitude is not None:
            raise ConfigError("--fields sweeps the field; drop --field-magnitude")
        keys = _parse_float_list(ns.fields, "--fields")
        key_name, mode, fits = "B_G", "field", {"T_R_vs_B": "T_R", "T_w_vs_B": "T_w"}
    elif ns.abundances:
        if ns.abundance is not None:
            raise ConfigError("--abundances sweeps the abundance; drop --abundance")
        keys = _parse_float_list(ns.abundances, "--abundances")
        key_name, mode, fits = "abundance", "abundance", {"T2_vs_abundance": "T2"}
    else:
        raise ConfigError("sweep needs --fields or --abundances")
    if len(keys) < 3:
        raise ConfigError(f"a sweep needs at least three points, got {len(keys)}")
    if len(set(keys)) < len(keys):
        raise ConfigError(f"sweep {mode}s must be distinct, got {keys}")
    if mode == "field" and any(k <= 0 for k in keys):
        raise ConfigError("sweep fields must be positive")
    if mode == "abundance" and any(not 0 < k <= 1 for k in keys):
        raise ConfigError("sweep abundances must be in (0, 1]")

    fixed_field = run.number("field_magnitude", 10.0)
    if mode == "abundance" and fixed_field == 0.0:
        raise ConfigError("field_magnitude must be nonzero: zero field has no revival period")
    # lattice sites depend only on geometry, which the sweep never varies
    site_cfg = run.lattice_config()
    seeds = [site_cfg.seed + r for r in range(realizations)]
    points = [(k, site_cfg.abundance) if mode == "field" else (fixed_field, k) for k in keys]
    # every grid is built, and so every setting it reads checked, before any work
    schedules = [_schedule(run, b_mag, abundance) for b_mag, abundance in points]
    sites = generate_lattice_sites(site_cfg)

    # a bath depends only on (abundance, seed); with realizations outermost a
    # field sweep draws each bath once for all its fields, and one bath is
    # held at a time
    t_sim = time.perf_counter()
    traces = {}
    for seed in seeds:
        bath = None
        for key, (b_mag, abundance), schedule in zip(keys, points, schedules):
            if bath is None or bath.config.abundance != abundance:
                bath = sample_bath(sites, replace(site_cfg, abundance=abundance, seed=seed))
            traces[key, seed] = echo_coherence_trace(bath, FieldVector.along_z(b_mag), schedule)
    run.timings_s["simulate"] = time.perf_counter() - t_sim
    run.seeds = seeds

    rows: list[list] = []
    summary: dict = {"mode": mode, "points": {}, "fits": {}}
    # timescale -> (point, mean over the realizations that found it): the
    # summary, the fits and the plot all read this one table
    means: dict[str, list] = {"T_R": [], "T_w": [], "T2": []}
    for key in keys:
        members = [traces[key, seed] for seed in seeds]
        per_real = [extract_timescales(trace, prominence=prominence) for trace in members]
        ens = extract_timescales(ensemble_average(members), prominence=prominence)
        for label, ts in zip(seeds + ["ensemble"], per_real + [ens]):
            rows.append([key, label, ts.T_w, ts.T_w_err, ts.T_R, ts.T_R_err,
                         ts.T2, ts.T2_err, ";".join(ts.flags)])
        entry = {"flags_ensemble": list(ens.flags)}
        for name, table in means.items():
            found = [v for ts in per_real if math.isfinite(v := getattr(ts, name))]
            mean = sum(found) / len(found) if found else None
            if found:
                table.append((key, mean))
            entry[f"{name}_ms_mean"] = mean
            entry[f"{name}_n"] = len(found)
            ens_value = getattr(ens, name)
            entry[f"{name}_ms_ensemble"] = ens_value if math.isfinite(ens_value) else None
        summary["points"][str(key)] = entry
    rows_path = run.write_csv(
        f"sweep_{mode}_rows.csv",
        [key_name, "seed", "T_w_ms", "T_w_err_ms", "T_R_ms", "T_R_err_ms",
         "T2_ms", "T2_err_ms", "flags"],
        rows,
    )

    for fit_name, name in fits.items():
        if len(means[name]) >= 3:
            summary["fits"][fit_name] = fit_power_law(*zip(*means[name])).to_json_dict()

    run.write_json(f"sweep_{mode}_summary.json", summary)

    if ns.plot:
        series = [(f"{name} (ms)", *zip(*table)) for name, table in means.items() if table]
        svg = line_plot(
            series,
            title=f"timescales vs {key_name}",
            x_label=key_name,
            y_label="ms",
            log_x=True,
            log_y=True,
        )
        run.write_text(f"sweep_{mode}.svg", svg)

    lines = [
        f"sweep fit {fit_name}: coefficient={fit_payload['coefficient']:.5g}, "
        f"exponent={fit_payload['exponent']:.4f} "
        f"(log-RMS {fit_payload['log_rms_residual']:.3g})"
        for fit_name, fit_payload in summary["fits"].items()
    ]
    return "\n".join(lines + [f"sweep: {len(rows)} rows -> {rows_path}"])


def cmd_extract(run: Run) -> dict:
    trace = CoherenceTrace.load_csv(run.ns.trace)
    ts = extract_timescales(trace, prominence=run.number("prominence", PROMINENCE_DEFAULT))
    return {**ts.to_json_dict(), "trace": str(run.ns.trace)}


def cmd_invert(run: Run) -> dict:
    cal = run.calibration()
    t_revival = run.number("tr", None)
    b = invert_TR_to_B(t_revival, cal)
    return {"T_R_ms": t_revival, "B_G": b, "alpha_ms_G": cal.alpha, "alpha_source": cal.source}


def cmd_reconstruct(run: Run) -> dict:
    ns, cal = run.ns, run.calibration()

    def measurement(m) -> AxisMeasurement:
        if isinstance(m, dict) and (unknown := m.keys() - {"axis", "T_R_ms", "bias_G"}):
            raise ConfigError(f"unknown measurement keys: {sorted(unknown)}")
        return AxisMeasurement(m["axis"], m["T_R_ms"], m.get("bias_G", 0.0))

    measurements = load_strict_json(ns.measurements, "measurement file", list,
                                    lambda records: [measurement(m) for m in records])
    components = measurements_to_components(measurements, cal)
    estimate = reconstruct_field(components)
    payload = estimate.to_json_dict()
    payload["alpha_source"] = cal.source
    if ns.resolve_true:
        _, payload["alignment"] = _resolve(estimate.sign_candidates, ns.resolve_true)
    run.write_json("field_estimate.json", payload)
    return payload


def cmd_odmr(run: Run) -> dict:
    ns = run.ns
    field = _parse_field(ns.field).as_array()
    payload = {
        "levels_GHz": zeeman_levels(field).tolist(), **odmr_transitions(field).to_json_dict()
    }
    if ns.candidates:
        cand_list = load_strict_json(ns.candidates, "candidates file", list, lambda records: [
            finite_vector(c, "candidate") for c in records
        ])
        if not ns.true_field:
            raise ConfigError("--candidates needs --true-field for the probe")
        resolution, payload["alignment"] = _resolve(cand_list, ns.true_field)
        run.write_csv(
            "odmr_candidates.csv",
            ["candidate_id", "f_minus_GHz", "f_plus_GHz", "splitting_GHz", "asymmetry_GHz"],
            [(i, s.f_minus, s.f_plus, s.splitting, s.asymmetry)
             for i, s in enumerate(resolution.spectra)],
        )
    return payload


def cmd_sensitivity(run: Run) -> str:
    default = ReadoutModel()
    readout = ReadoutModel(
        C=run.number("contrast", default.C),
        n_centers=run.integer("n_centers", default.n_centers),
    )
    report = build_report(
        t2=run.number("t2", 0.5),
        readout=readout,
        cal=run.calibration(),
        field_g=None if run.ns.field is None else _parse_field(run.ns.field).magnitude,
        tau_points=run.integer("tau_points", TAU_POINTS_DEFAULT),
    )
    eta_uT = report.eta_uT_sqHz
    report_text = json_text(report.to_json_dict()) + "\n"  # refused before any file is written
    run.write_csv(
        "sensitivity_eta.csv",
        ["tau_ms", "eta_G_per_sqrtHz", "eta_uT_per_sqrtHz"],
        zip(report.tau_grid_ms, report.eta_G_sqHz, eta_uT),
    )
    run.write_text("sensitivity_report.json", report_text)
    if run.ns.plot:
        finite = np.isfinite(report.eta_G_sqHz)
        svg = line_plot(
            [("eta (uT/sqrt(Hz))", report.tau_grid_ms[finite].tolist(), eta_uT[finite].tolist())],
            title="sensitivity vs evolution time",
            x_label="tau (ms)",
            y_label="uT per sqrt(Hz)",
            log_y=True,
            markers=False,
        )
        run.write_text("sensitivity_eta.svg", svg)
    return (
        f"sensitivity: eta_min = {report.eta_min_G_sqHz * G_TO_UT:.4g} uT/sqrt(Hz) "
        f"at tau = {report.tau_opt_ms:.4g} ms "
        f"(ensemble of {report.n_centers}: {report.ensemble_eta_G_sqHz * G_TO_UT:.4g})"
    )


# ---------------------------------------------------------------- parser


# every option, declared once; a setting left unset is None, so the config
# file or the default the command reads it with applies
_OPTIONS = {
    "--abundance": {"type": float, "help": "13C abundance (fraction)"},
    "--cutoff-radius": {"type": float},
    "--pair-cutoff": {"type": float},
    "--bath": {"help": "bath JSON from the bath command"},
    "--field": {"help": "Gauss: '10' (axial) or 'bx,by,bz'"},
    "--t-max": {"type": float},
    "--step": {"type": float, "help": "explicit grid step (ms)"},
    "--points-per-period": {"type": int},
    "--fields": {"help": "comma list of field magnitudes (G)"},
    "--abundances": {"help": "comma list of abundances (fraction)"},
    "--realizations": {"type": int},
    "--field-magnitude": {"type": float, "help": "fixed field for abundance sweeps (G)"},
    "--prominence": {"type": float},
    "--trace": {},
    "--tr": {"type": float, "help": "revival spacing (ms)"},
    "--alpha": {"type": float},
    "--alpha-source": {},
    "--measurements": {"help": "JSON list of axis measurements"},
    "--resolve-true": {"help": "true field for a simulated alignment probe"},
    "--candidates": {"help": "JSON list of candidate field vectors"},
    "--true-field": {},
    "--t2": {"type": float, "help": "coherence time (ms)"},
    "--contrast": {"type": float},
    "--n-centers": {"type": int},
    "--tau-points": {"type": int},
    "--config": {"help": "flat JSON config file"},
    "--seed": {"type": int, "help": "base RNG seed"},
    "--out-dir": {"default": ".", "help": "output directory"},
    "--format": {"choices": ("csv", "json"), "default": "json",
                 "help": "stdout format for scalar results"},
    "--plot": {"action": "store_true", "help": "also write SVG plots"},
}

# each command: its help, its function and the options it takes, in help
# order; a trailing "!" marks a required option
_COMMANDS = {
    "bath": ("sample a nuclear-spin bath realization", cmd_bath,
             "--abundance --cutoff-radius --pair-cutoff --config --seed --out-dir"),
    "simulate": ("compute an echo coherence trace", cmd_simulate,
                 "--bath --field! --abundance --t-max --step --points-per-period"
                 " --config --seed --out-dir --plot"),
    "sweep": ("field or abundance sweep with fits", cmd_sweep,
              "--fields --abundances --realizations --abundance --field-magnitude --t-max"
              " --points-per-period --prominence --config --seed --out-dir --plot"),
    "extract": ("timescales from a trace CSV", cmd_extract,
                "--trace! --prominence --config --format"),
    "invert": ("revival spacing -> field magnitude", cmd_invert,
               "--tr! --alpha --alpha-source --config --format"),
    "reconstruct": ("three axis measurements -> field vector", cmd_reconstruct,
                    "--measurements! --alpha --alpha-source --resolve-true"
                    " --config --out-dir --format"),
    "odmr": ("level spectrum and alignment diagnostics", cmd_odmr,
             "--field! --candidates --true-field --out-dir --format"),
    "sensitivity": ("shot-noise sensitivity report", cmd_sensitivity,
                    "--t2 --contrast --n-centers --field --tau-points --config --out-dir --plot"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nvmag",
        description="spin-echo decoherence simulator and echo magnetometer toolkit",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, func, options) in _COMMANDS.items():
        sub = subs.add_parser(command, help=help_text)
        for option in options.split():
            flag = option.rstrip("!")
            sub.add_argument(flag, required=option.endswith("!"), **_OPTIONS[flag])
        sub.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    ns = build_parser().parse_args(argv)
    try:
        run = Run(ns)
        return run.finish(ns.func(run))
    except (ConfigError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PhysicsError as exc:
        print(f"physics error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
