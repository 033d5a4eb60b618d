"""Command-line front end: reproducible runs over the simulation pipeline.

Every subcommand writes its outputs under --out-dir together with a JSON
run manifest (configuration echo, seeds, package version, output paths,
wall-clock timing) so a run can be reproduced from the manifest alone.

Configuration file (--config) is a flat JSON object; recognized keys:

    lattice_constant, cutoff_radius, exclusion_radius, abundance,
    pair_cutoff, seed, realizations, points_per_period, prominence,
    alpha, alpha_source, contrast, n_centers, gamma_n, t_max,
    field_magnitude

Explicit command-line flags override config values, which override the
built-in defaults.  NVMAG_THREADS caps the threads that compute the pair
factors of every trace (default: one per core).  Exit codes: 0 success,
2 configuration error, 3 physics-constraint error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass, field as dc_field
from pathlib import Path

import numpy as np

from . import __version__
from .bath import BathRealization, LatticeConfig, generate_lattice_sites, sample_bath
from .constants import GAMMA_N_13C_KHZ_PER_G, READOUT_CONTRAST_DEFAULT
from .decoherence import (
    CoherenceTrace,
    EchoSchedule,
    FieldVector,
    echo_coherence_trace,
    ensemble_average,
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
from .sensitivity import ReadoutModel, build_report
from .svgplot import line_plot
from .timescales import (
    PROMINENCE_DEFAULT,
    TimescaleSet,
    extract_timescales,
    fit_power_law,
)

_CONFIG_KEYS = {
    "lattice_constant",
    "cutoff_radius",
    "exclusion_radius",
    "abundance",
    "pair_cutoff",
    "seed",
    "realizations",
    "points_per_period",
    "prominence",
    "alpha",
    "alpha_source",
    "contrast",
    "n_centers",
    "gamma_n",
    "t_max",
    "field_magnitude",
}


def _load_json(path, what: str):
    """Strict JSON input: NaN, Infinity and numbers beyond float range are refused."""
    def refuse(literal: str):
        raise ConfigError(f"{what} holds {literal}; every number must be finite")

    def finite(literal: str) -> float:
        value = float(literal)
        if not math.isfinite(value):
            refuse(literal)
        return value

    with open(path) as fh:
        try:
            return json.load(fh, parse_constant=refuse, parse_float=finite)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{what} is not valid JSON: {exc}") from exc


def _json_text(payload) -> str:
    """Strict JSON for every file and printout: NaN and infinities are refused."""
    try:
        return json.dumps(payload, indent=1, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise ConfigError(f"output holds a value JSON cannot represent: {exc}") from exc


@dataclass
class RunManifest:
    """What a command did: enough to rerun it and find what it wrote."""

    command: str
    version: str
    config: dict
    seeds: list = dc_field(default_factory=list)
    outputs: list = dc_field(default_factory=list)
    timings_s: dict = dc_field(default_factory=dict)

    def add_output(self, path: Path) -> Path:
        self.outputs.append(str(path))
        return path

    def write(self, out_dir: Path) -> Path:
        path = out_dir / f"{self.command}_manifest.json"
        payload = {
            "command": self.command,
            "version": self.version,
            "config": self.config,
            "seeds": self.seeds,
            "outputs": self.outputs,
            "timings_s": self.timings_s,
        }
        path.write_text(_json_text(payload) + "\n")
        missing = [p for p in self.outputs if not Path(p).exists()]
        if missing:
            raise PhysicsError(f"manifest lists outputs that were never written: {missing}")
        return path


class Settings:
    """Layered lookup: command-line flag, then config file, then default."""

    def __init__(self, ns: argparse.Namespace):
        self.ns = ns
        self.file_config: dict = {}
        if getattr(ns, "config", None):
            path = Path(ns.config)
            if not path.exists():
                raise ConfigError(f"config file not found: {path}")
            self.file_config = _load_json(path, "config file")
            unknown = set(self.file_config) - _CONFIG_KEYS
            if unknown:
                raise ConfigError(f"unknown config keys: {sorted(unknown)}")

    def get(self, name: str, default):
        flag = getattr(self.ns, name, None)
        if flag is not None:
            return flag
        if name in self.file_config:
            return self.file_config[name]
        return default

    def _finite(self, name: str, default):
        value = self.get(name, default)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{name} must be a number, got {value!r}")
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{name} must be finite, got {value!r}")
        return value

    def number(self, name: str, default: float | None) -> float | None:
        """A finite real setting; None only when unset with a None default."""
        if default is None and self.get(name, None) is None:
            return None
        return float(self._finite(name, default))

    def integer(self, name: str, default: int) -> int:
        """An integral setting; a float must be a whole number."""
        value = self._finite(name, default)
        if isinstance(value, float) and not value.is_integer():
            raise ConfigError(f"{name} must be an integer, got {value!r}")
        return int(value)

    def lattice_config(self) -> LatticeConfig:
        return LatticeConfig(
            lattice_constant=self.number("lattice_constant", 3.567),
            cutoff_radius=self.number("cutoff_radius", 4.0),
            exclusion_radius=self.number("exclusion_radius", 1.55),
            abundance=self.number("abundance", 0.011),
            pair_cutoff=self.number("pair_cutoff", 1.0),
            seed=self.integer("seed", 0),
        )

    def calibration(self) -> Calibration:
        return Calibration(
            alpha=self.number("alpha", Calibration().alpha),
            source=str(self.get("alpha_source", "paper")),
        )

    def echo_config(self) -> dict:
        """Echo of every effective setting, for the manifest."""
        out = {}
        for key in sorted(_CONFIG_KEYS):
            val = self.get(key, None)
            if val is not None:
                out[key] = val
        return out


def _parse_float_list(text: str, what: str) -> list[float]:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"could not parse {what} from {text!r}") from exc
    if not values:
        raise ConfigError(f"{what} is empty")
    return values


def _parse_field(text: str) -> FieldVector:
    """'10' means 10 G along the defect axis; 'bx,by,bz' is explicit."""
    parts = _parse_float_list(text, "field")
    if len(parts) == 1:
        return FieldVector.along_z(parts[0])
    if len(parts) == 3:
        return FieldVector.from_sequence(parts)
    raise ConfigError("field must be one magnitude or three components")


def _t_max_auto(field_magnitude_g: float, abundance: float, gamma_n: float) -> float:
    """Simulation window: several revivals, but not past the dead envelope.

    Dilute baths keep their envelope long, so take six revival periods.
    At natural abundance and above, coherence is gone by ~1 ms regardless
    of field, so cap the window there and always cover at least ~0.55 ms
    (enough envelope for the high-field decay fit).
    """
    t_revival = 1.0 / (gamma_n * abs(field_magnitude_g))
    if abundance <= 0.004:
        return 6.2 * t_revival
    return min(max(4.6 * t_revival, 0.55), 1.05)


def _timescale_row(key_name: str, key, seed_label, ts: TimescaleSet) -> dict:
    return {
        key_name: key,
        "seed": seed_label,
        "T_w_ms": ts.T_w,
        "T_w_err_ms": ts.T_w_err,
        "T_R_ms": ts.T_R,
        "T_R_err_ms": ts.T_R_err,
        "T2_ms": ts.T2,
        "T2_err_ms": ts.T2_err,
        "flags": ";".join(ts.flags),
    }


def _write_rows_csv(path: Path, rows: list[dict]) -> None:
    if not rows:
        raise ConfigError("no rows to write")
    cols = list(rows[0].keys())
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for row in rows:
            fh.write(",".join(str(row[c]) for c in cols) + "\n")


def _print_json(payload: dict, ns) -> None:
    if getattr(ns, "format", "json") == "csv":
        flat = {k: v for k, v in payload.items() if not isinstance(v, (dict, list))}
        print(",".join(flat.keys()))
        print(",".join(str(v) for v in flat.values()))
    else:
        print(_json_text(payload))


# ---------------------------------------------------------------- commands


def cmd_bath(ns) -> int:
    t0 = time.perf_counter()
    settings = Settings(ns)
    out_dir = Path(ns.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg = settings.lattice_config()
    sites = generate_lattice_sites(cfg)
    bath = sample_bath(sites, cfg)
    manifest = RunManifest("bath", __version__, settings.echo_config(), seeds=[cfg.seed])
    path = manifest.add_output(out_dir / f"bath_seed{cfg.seed}.json")
    bath.save(path)
    manifest.timings_s["total"] = time.perf_counter() - t0
    manifest.write(out_dir)
    print(
        f"bath: {len(bath)} spins, {len(bath.pair_couplings)} coupled pairs "
        f"(seed {cfg.seed}, abundance {cfg.abundance}) -> {path}"
    )
    return 0


def _simulate_trace(settings: Settings, ns, bath: BathRealization) -> CoherenceTrace:
    field = _parse_field(ns.field)
    gamma_n = settings.number("gamma_n", GAMMA_N_13C_KHZ_PER_G)
    abundance = bath.config.abundance if bath.config else 0.011
    t_max = settings.number("t_max", None)
    if t_max is None:
        if field.magnitude == 0.0:
            raise ConfigError("zero field needs an explicit --t-max and --step")
        t_max = _t_max_auto(field.magnitude, abundance, gamma_n)
    step = getattr(ns, "step", None)
    if step is not None:
        schedule = EchoSchedule.regular(t_max, float(step))
    else:
        if field.magnitude == 0.0:
            raise ConfigError("zero field has no revival period; pass --step")
        schedule = EchoSchedule.for_field(
            field.magnitude,
            t_max,
            points_per_period=settings.integer("points_per_period", 48),
            gamma_n=gamma_n,
        )
    return echo_coherence_trace(bath, field, schedule, gamma_n=gamma_n)


def cmd_simulate(ns) -> int:
    t0 = time.perf_counter()
    settings = Settings(ns)
    out_dir = Path(ns.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if ns.bath:
        bath = BathRealization.load(ns.bath)
    else:
        cfg = settings.lattice_config()
        bath = sample_bath(generate_lattice_sites(cfg), cfg)
    trace = _simulate_trace(settings, ns, bath)
    manifest = RunManifest(
        "simulate", __version__, settings.echo_config(), seeds=[bath.seed]
    )
    tag = f"B{_parse_field(ns.field).magnitude:g}_seed{bath.seed}"
    csv_path = manifest.add_output(out_dir / f"trace_{tag}.csv")
    manifest.add_output(trace.save_csv(csv_path))
    if ns.plot:
        svg = line_plot(
            [("coherence", trace.t_grid.tolist(), trace.values.tolist())],
            title=f"echo coherence, {tag}",
            x_label="interval time (ms)",
            y_label="L",
        )
        svg_path = manifest.add_output(out_dir / f"trace_{tag}.svg")
        svg_path.write_text(svg)
    manifest.timings_s["total"] = time.perf_counter() - t0
    manifest.write(out_dir)
    print(f"simulate: {len(trace)} points, L in [{trace.values.min():.4f}, "
          f"{trace.values.max():.4f}] -> {csv_path}")
    return 0


def cmd_sweep(ns) -> int:
    t0 = time.perf_counter()
    settings = Settings(ns)
    out_dir = Path(ns.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    prominence = settings.number("prominence", PROMINENCE_DEFAULT)
    gamma_n = settings.number("gamma_n", GAMMA_N_13C_KHZ_PER_G)
    realizations = settings.integer("realizations", 10)
    if realizations < 1:
        raise ConfigError("realizations must be >= 1")
    base_seed = settings.integer("seed", 0)
    t_max_setting = settings.number("t_max", None)
    points_per_period = settings.integer("points_per_period", 48)

    if ns.fields and ns.abundances:
        raise ConfigError("sweep takes --fields or --abundances, not both")
    if ns.fields:
        keys = _parse_float_list(ns.fields, "--fields")
        key_name, mode = "B_G", "field"
    elif ns.abundances:
        keys = _parse_float_list(ns.abundances, "--abundances")
        key_name, mode = "abundance", "abundance"
    else:
        raise ConfigError("sweep needs --fields or --abundances")
    if len(keys) < 3:
        raise ConfigError(f"a sweep needs at least three points, got {len(keys)}")
    if mode == "field" and any(k <= 0 for k in keys):
        raise ConfigError("sweep fields must be positive")
    if mode == "abundance" and any(not 0 < k <= 1 for k in keys):
        raise ConfigError("sweep abundances must be in (0, 1]")

    fixed_field = settings.number("field_magnitude", 10.0)
    fixed_abundance = settings.number("abundance", 0.011)

    def point_params(key: float) -> tuple[float, float]:
        if mode == "field":
            return key, fixed_abundance
        return fixed_field, key

    # lattice sites depend only on geometry, which the sweep never varies
    site_cfg = settings.lattice_config()
    sites = generate_lattice_sites(site_cfg)

    # a bath depends only on (abundance, seed); realizations run outermost,
    # so a field sweep draws each bath once and reuses it for every field,
    # while the cache holds one bath at a time
    bath_cache: dict[tuple[float, int], BathRealization] = {}

    def one_task(key: float, seed: int) -> CoherenceTrace:
        b_mag, abundance = point_params(key)
        if (abundance, seed) not in bath_cache:
            cfg = LatticeConfig(
                lattice_constant=site_cfg.lattice_constant,
                cutoff_radius=site_cfg.cutoff_radius,
                exclusion_radius=site_cfg.exclusion_radius,
                abundance=abundance,
                pair_cutoff=site_cfg.pair_cutoff,
                seed=seed,
            )
            bath_cache.clear()
            bath_cache[(abundance, seed)] = sample_bath(sites, cfg)
        bath = bath_cache[(abundance, seed)]
        t_max = t_max_setting
        if t_max is None:
            t_max = _t_max_auto(b_mag, abundance, gamma_n)
        schedule = EchoSchedule.for_field(
            b_mag, t_max, points_per_period=points_per_period, gamma_n=gamma_n
        )
        return echo_coherence_trace(bath, FieldVector.along_z(b_mag), schedule, gamma_n=gamma_n)

    t_sim = time.perf_counter()
    traces = {
        (key, base_seed + r): one_task(key, base_seed + r)
        for r in range(realizations)
        for key in keys
    }
    sim_elapsed = time.perf_counter() - t_sim

    rows: list[dict] = []
    summary_points = []
    for key in keys:
        per_real: list[TimescaleSet] = []
        members = [traces[(key, base_seed + r)] for r in range(realizations)]
        for trace in members:
            ts = extract_timescales(trace, prominence=prominence)
            per_real.append(ts)
            rows.append(_timescale_row(key_name, key, trace.metadata["seeds"][0], ts))
        ens = extract_timescales(ensemble_average(members), prominence=prominence)
        rows.append(_timescale_row(key_name, key, "ensemble", ens))
        summary_points.append((key, per_real, ens))

    manifest = RunManifest(
        "sweep", __version__, settings.echo_config(),
        seeds=[base_seed + r for r in range(realizations)],
    )
    rows_path = manifest.add_output(out_dir / f"sweep_{mode}_rows.csv")
    _write_rows_csv(rows_path, rows)

    def finite_mean(values):
        vals = [v for v in values if v is not None and math.isfinite(v)]
        return (sum(vals) / len(vals), len(vals)) if vals else (None, 0)

    summary: dict = {"mode": mode, "points": {}, "fits": {}}
    fit_x: dict[str, list] = {"T_R": [], "T_w": [], "T2": []}
    fit_y: dict[str, list] = {"T_R": [], "T_w": [], "T2": []}
    for key, per_real, ens in summary_points:
        entry = {}
        for name, pick in (("T_R", lambda t: t.T_R), ("T_w", lambda t: t.T_w), ("T2", lambda t: t.T2)):
            mean, n_ok = finite_mean([pick(t) for t in per_real])
            entry[f"{name}_ms_mean"] = mean
            entry[f"{name}_n"] = n_ok
            entry[f"{name}_ms_ensemble"] = pick(ens) if math.isfinite(pick(ens)) else None
            if n_ok:
                fit_x[name].append(key)
                fit_y[name].append(mean)
        entry["flags_ensemble"] = list(ens.flags)
        summary["points"][str(key)] = entry

    if mode == "field":
        for name in ("T_R", "T_w"):
            if len(fit_x[name]) >= 3:
                fit = fit_power_law(fit_x[name], fit_y[name])
                summary["fits"][f"{name}_vs_B"] = fit.to_json_dict()
    else:
        if len(fit_x["T2"]) >= 3:
            fit = fit_power_law(fit_x["T2"], fit_y["T2"])
            summary["fits"]["T2_vs_abundance"] = fit.to_json_dict()

    summary_path = manifest.add_output(out_dir / f"sweep_{mode}_summary.json")
    summary_path.write_text(_json_text(summary) + "\n")

    if ns.plot:
        series = []
        for name in ("T_R", "T_w", "T2"):
            if fit_x[name]:
                series.append((f"{name} (ms)", fit_x[name], fit_y[name]))
        svg = line_plot(
            series,
            title=f"timescales vs {key_name}",
            x_label=key_name,
            y_label="ms",
            log_x=True,
            log_y=True,
        )
        svg_path = manifest.add_output(out_dir / f"sweep_{mode}.svg")
        svg_path.write_text(svg)

    manifest.timings_s["simulate"] = sim_elapsed
    manifest.timings_s["total"] = time.perf_counter() - t0
    manifest.write(out_dir)
    for fit_name, fit_payload in summary["fits"].items():
        print(
            f"sweep fit {fit_name}: coefficient={fit_payload['coefficient']:.5g}, "
            f"exponent={fit_payload['exponent']:.4f} "
            f"(log-RMS {fit_payload['log_rms_residual']:.3g})"
        )
    print(f"sweep: {len(rows)} rows -> {rows_path}")
    return 0


def cmd_extract(ns) -> int:
    settings = Settings(ns)
    trace = CoherenceTrace.load_csv(ns.trace)
    ts = extract_timescales(
        trace, prominence=settings.number("prominence", PROMINENCE_DEFAULT)
    )
    payload = ts.to_json_dict()
    payload["trace"] = str(ns.trace)
    _print_json(payload, ns)
    return 0


def cmd_invert(ns) -> int:
    settings = Settings(ns)
    cal = settings.calibration()
    b = invert_TR_to_B(float(ns.tr), cal)
    _print_json(
        {"T_R_ms": float(ns.tr), "B_G": b, "alpha_ms_G": cal.alpha, "alpha_source": cal.source},
        ns,
    )
    return 0


def cmd_reconstruct(ns) -> int:
    settings = Settings(ns)
    cal = settings.calibration()
    entries = _load_json(ns.measurements, "measurement file")
    if not isinstance(entries, list):
        raise ConfigError("measurement file must hold a JSON list")
    try:
        measurements = [
            AxisMeasurement(
                axis=tuple(e["axis"]), T_R=float(e["T_R_ms"]), bias=float(e.get("bias_G", 0.0))
            )
            for e in entries
        ]
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"each measurement needs 'axis' and 'T_R_ms': {exc}") from exc
    components = measurements_to_components(measurements, cal)
    estimate = reconstruct_field(components)
    payload = estimate.to_json_dict()
    payload["alpha_source"] = cal.source
    if ns.resolve_true:
        true_field = _parse_field(ns.resolve_true)
        probe = make_simulated_probe(true_field.as_array())
        resolution = resolve_alignment(estimate.sign_candidates, probe)
        payload["alignment"] = {
            "resolved": resolution.resolved,
            "selected": [list(c) for c in resolution.selected],
            "note": resolution.note,
        }
    out_dir = Path(ns.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = RunManifest("reconstruct", __version__, settings.echo_config())
    est_path = manifest.add_output(out_dir / "field_estimate.json")
    est_path.write_text(_json_text(payload) + "\n")
    manifest.write(out_dir)
    _print_json(payload, ns)
    return 0


def cmd_odmr(ns) -> int:
    settings = Settings(ns)
    field = _parse_field(ns.field)
    levels = zeeman_levels(field.as_array())
    spectrum = odmr_transitions(field.as_array())
    payload = {"levels_GHz": levels.tolist(), **spectrum.to_json_dict()}

    out_dir = Path(ns.out_dir)
    if ns.candidates:
        cand_list = _load_json(ns.candidates, "candidates file")
        if not ns.true_field:
            raise ConfigError("--candidates needs --true-field for the probe")
        probe = make_simulated_probe(_parse_field(ns.true_field).as_array())
        resolution = resolve_alignment(cand_list, probe)
        out_dir.mkdir(parents=True, exist_ok=True)
        manifest = RunManifest("odmr", __version__, settings.echo_config())
        csv_path = manifest.add_output(out_dir / "odmr_candidates.csv")
        with open(csv_path, "w") as fh:
            fh.write("candidate_id,f_minus_GHz,f_plus_GHz,splitting_GHz,asymmetry_GHz\n")
            for i, spectrum in enumerate(resolution.spectra):
                fh.write(
                    f"{i},{spectrum.f_minus!r},{spectrum.f_plus!r},"
                    f"{spectrum.splitting!r},{spectrum.asymmetry!r}\n"
                )
        manifest.write(out_dir)
        payload["alignment"] = {
            "resolved": resolution.resolved,
            "selected": [list(c) for c in resolution.selected],
            "note": resolution.note,
        }
    _print_json(payload, ns)
    return 0


def cmd_sensitivity(ns) -> int:
    t0 = time.perf_counter()
    settings = Settings(ns)
    readout = ReadoutModel(
        C=settings.number("contrast", READOUT_CONTRAST_DEFAULT),
        n_centers=settings.integer("n_centers", 1),
    )
    report = build_report(
        t2=float(ns.t2),
        readout=readout,
        cal=settings.calibration(),
        field_g=None if ns.field is None else _parse_field(ns.field).magnitude,
        tau_points=int(ns.tau_points),
    )
    out_dir = Path(ns.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = RunManifest("sensitivity", __version__, settings.echo_config())
    csv_path = manifest.add_output(out_dir / "sensitivity_eta.csv")
    with open(csv_path, "w") as fh:
        fh.write("tau_ms,eta_G_per_sqrtHz,eta_uT_per_sqrtHz\n")
        for tau, eta in zip(report.tau_grid_ms, report.eta_G_sqHz):
            fh.write(f"{tau!r},{eta!r},{eta * 100.0!r}\n")
    json_path = manifest.add_output(out_dir / "sensitivity_report.json")
    json_path.write_text(_json_text(report.to_json_dict()) + "\n")
    if ns.plot:
        finite = np.isfinite(report.eta_G_sqHz)
        svg = line_plot(
            [(
                "eta (uT/sqrt(Hz))",
                report.tau_grid_ms[finite].tolist(),
                (report.eta_G_sqHz[finite] * 100.0).tolist(),
            )],
            title="sensitivity vs evolution time",
            x_label="tau (ms)",
            y_label="uT per sqrt(Hz)",
            log_y=True,
            markers=False,
        )
        svg_path = manifest.add_output(out_dir / "sensitivity_eta.svg")
        svg_path.write_text(svg)
    manifest.timings_s["total"] = time.perf_counter() - t0
    manifest.write(out_dir)
    print(
        f"sensitivity: eta_min = {report.eta_min_G_sqHz * 100.0:.4g} uT/sqrt(Hz) "
        f"at tau = {report.tau_opt_ms:.4g} ms "
        f"(ensemble of {report.n_centers}: {report.ensemble_eta_G_sqHz * 100.0:.4g})"
    )
    return 0


# ---------------------------------------------------------------- parser


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="flat JSON config file")
    sub.add_argument("--seed", type=int, default=None, help="base RNG seed")
    sub.add_argument("--out-dir", default=".", help="output directory")
    sub.add_argument(
        "--format", choices=("csv", "json"), default="json",
        help="stdout format for scalar results",
    )
    sub.add_argument("--plot", action="store_true", help="also write SVG plots")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nvmag",
        description="spin-echo decoherence simulator and echo magnetometer toolkit",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("bath", help="sample a nuclear-spin bath realization")
    p.add_argument("--abundance", type=float, default=None)
    p.add_argument("--cutoff-radius", dest="cutoff_radius", type=float, default=None)
    p.add_argument("--pair-cutoff", dest="pair_cutoff", type=float, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_bath)

    p = subs.add_parser("simulate", help="compute an echo coherence trace")
    p.add_argument("--bath", help="bath JSON from the bath command")
    p.add_argument("--field", required=True, help="Gauss: '10' (axial) or 'bx,by,bz'")
    p.add_argument("--abundance", type=float, default=None)
    p.add_argument("--t-max", dest="t_max", type=float, default=None)
    p.add_argument("--step", type=float, default=None, help="explicit grid step (ms)")
    p.add_argument(
        "--points-per-period", dest="points_per_period", type=int, default=None
    )
    _add_common(p)
    p.set_defaults(func=cmd_simulate)

    p = subs.add_parser("sweep", help="field or abundance sweep with fits")
    p.add_argument("--fields", help="comma list of field magnitudes (G)")
    p.add_argument("--abundances", help="comma list of abundances (fraction)")
    p.add_argument("--realizations", type=int, default=None)
    p.add_argument("--abundance", type=float, default=None, help="fixed abundance for field sweeps")
    p.add_argument(
        "--field-magnitude", dest="field_magnitude", type=float, default=None,
        help="fixed field for abundance sweeps (G)",
    )
    p.add_argument("--t-max", dest="t_max", type=float, default=None)
    p.add_argument(
        "--points-per-period", dest="points_per_period", type=int, default=None
    )
    p.add_argument("--prominence", type=float, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_sweep)

    p = subs.add_parser("extract", help="timescales from a trace CSV")
    p.add_argument("--trace", required=True)
    p.add_argument("--prominence", type=float, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_extract)

    p = subs.add_parser("invert", help="revival spacing -> field magnitude")
    p.add_argument("--tr", required=True, type=float, help="revival spacing (ms)")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--alpha-source", dest="alpha_source", default=None)
    _add_common(p)
    p.set_defaults(func=cmd_invert)

    p = subs.add_parser("reconstruct", help="three axis measurements -> field vector")
    p.add_argument("--measurements", required=True, help="JSON list of axis measurements")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--alpha-source", dest="alpha_source", default=None)
    p.add_argument(
        "--resolve-true", dest="resolve_true", default=None,
        help="true field for a simulated alignment probe",
    )
    _add_common(p)
    p.set_defaults(func=cmd_reconstruct)

    p = subs.add_parser("odmr", help="level spectrum and alignment diagnostics")
    p.add_argument("--field", required=True)
    p.add_argument("--candidates", help="JSON list of candidate field vectors")
    p.add_argument("--true-field", dest="true_field", default=None)
    _add_common(p)
    p.set_defaults(func=cmd_odmr)

    p = subs.add_parser("sensitivity", help="shot-noise sensitivity report")
    p.add_argument("--t2", type=float, default=0.5, help="coherence time (ms)")
    p.add_argument("--contrast", type=float, default=None)
    p.add_argument("--n-centers", dest="n_centers", type=int, default=None)
    p.add_argument("--field", default=None, help="scan field (G); default: matched")
    p.add_argument("--tau-points", dest="tau_points", type=int, default=400)
    _add_common(p)
    p.set_defaults(func=cmd_sensitivity)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        return ns.func(ns)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PhysicsError as exc:
        print(f"physics error: {exc}", file=sys.stderr)
        return 3
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
