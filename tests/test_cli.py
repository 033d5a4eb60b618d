"""End-to-end command tests: exit codes, files written, payload shapes.

Every test drives ``nvmag.cli.main`` in process with a temporary output
directory, so the assertions cover argument parsing, the settings layering,
manifest writing, and the error-to-exit-code mapping together.

Every command line nvmag refuses is one row of ``REFUSALS``, run through
``refusals.install`` as the test its class and key name, and every row is
held to the same checks: its exit code (2 or 3), nothing on stdout, one
stderr line holding the row's text, no file under the temporary directory
made or changed, and, for a refusal before any work, no bath sampled and no
trace computed.  argparse's own refusals, which exit through ``SystemExit``
with a usage line, are tested on their own.
"""

import argparse
import hashlib
import json
import math
import os
import re
import shlex
import xml.etree.ElementTree as ET
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

import nvmag.cli
from nvmag.bath import LatticeConfig, csv_text, generate_lattice_sites, sample_bath
from nvmag.cli import _parse_field, _t_max_auto, build_parser, main
from nvmag.constants import ALPHA_MS_G, GAMMA_N_13C_KHZ_PER_G
from nvmag.decoherence import CoherenceTrace, EchoSchedule, _pool_size, analytic_trace
from nvmag.errors import ConfigError
from nvmag.magnetometry import reconstruct_field

from refusals import install, tree


def write_config(tmp_path, **overrides):
    payload = {"cutoff_radius": 1.2}
    payload.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return str(path)


def write_trace(path: Path) -> Path:
    """The analytic trace (T_R 0.5 ms, T2 1 ms) at ``path``, with its sidecar."""
    analytic_trace(EchoSchedule.regular(3.0, 0.005), 0.5, 1.0).save_csv(path)
    return path


def run(*args):
    return main([str(a) for a in args])


def strict_json(text):
    """json.loads that refuses the NaN and Infinity literals strict JSON lacks."""
    def refuse(name):
        raise ValueError(f"not strict JSON: {name}")

    return json.loads(text, parse_constant=refuse)


class TestTopLevelParser:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run("--version")
        assert exc.value.code == 0
        assert "nvmag" in capsys.readouterr().out

    def test_requires_a_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            run()
        assert exc.value.code == 2


# the common flags each command reads, and so the only ones it accepts
COMMON_FLAGS = {
    "bath": ("--config", "--seed", "--out-dir"),
    "simulate": ("--config", "--seed", "--out-dir", "--plot"),
    "sweep": ("--config", "--seed", "--out-dir", "--plot"),
    "extract": ("--config", "--format"),
    "invert": ("--config", "--format"),
    "reconstruct": ("--config", "--out-dir", "--format"),
    "odmr": ("--out-dir", "--format"),
    "sensitivity": ("--config", "--out-dir", "--plot"),
}
ALL_COMMON_FLAGS = ("--config", "--seed", "--out-dir", "--format", "--plot")
UNREAD_FLAGS = [
    (command, flag)
    for command, flags in COMMON_FLAGS.items()
    for flag in ALL_COMMON_FLAGS
    if flag not in flags
]


class TestCommonFlags:
    def test_each_command_takes_exactly_the_common_flags_it_reads(self):
        subs = next(
            a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        ).choices
        assert set(subs) == set(COMMON_FLAGS)
        for command, sub in subs.items():
            options = [opt for action in sub._actions for opt in action.option_strings]
            common = tuple(opt for opt in options if opt in ALL_COMMON_FLAGS)
            assert common == COMMON_FLAGS[command], command
        assert len(UNREAD_FLAGS) == 17

    @pytest.mark.parametrize("command,flag", UNREAD_FLAGS)
    def test_unread_flag_exits_2_before_any_work(self, tmp_path, capsys, command, flag):
        out_dir = tmp_path / "out"
        required = {
            "bath": (), "simulate": ("--field", "10"), "sweep": ("--fields", "5,10,20"),
            "extract": ("--trace", "t.csv"), "invert": ("--tr", "0.0933"),
            "reconstruct": ("--measurements", "m.json"), "odmr": ("--field", "10"),
            "sensitivity": (),
        }[command]
        value = {"--config": ("c.json",), "--seed": ("3",), "--out-dir": (out_dir,),
                 "--format": ("csv",), "--plot": ()}[flag]
        own_out_dir = ("--out-dir", out_dir) if "--out-dir" in COMMON_FLAGS[command] else ()
        with pytest.raises(SystemExit) as exc:
            run(command, *required, flag, *value, *own_out_dir)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert not out_dir.exists()

    # each pair: a flag, then a flag it overrides that would be accepted unused
    OVERRIDES = [
        ("simulate", ("--field", "10", "--step", "0.002"), ("--points-per-period", "44")),
        ("sweep", ("--fields", "5,10,20"), ("--field-magnitude", "7")),
        ("sweep", ("--abundances", "0.005,0.011,0.02"), ("--abundance", "0.03")),
    ]

    @pytest.mark.parametrize("command,args,overridden", OVERRIDES)
    def test_overridden_value_from_config_file_is_allowed(
        self, tmp_path, command, args, overridden
    ):
        key = overridden[0].removeprefix("--").replace("-", "_")
        cfg = write_config(tmp_path, **{key: float(overridden[1]), "realizations": 1})
        assert run(command, "--config", cfg, *args, "--t-max", "0.05",
                   "--out-dir", tmp_path / "out") == 0


class TestParseHelpers:
    def test_single_value_is_axial(self):
        field = _parse_field("10")
        assert field.magnitude == pytest.approx(10.0)
        assert tuple(field.as_array()) == pytest.approx((0.0, 0.0, 10.0))

    def test_three_components(self):
        field = _parse_field("1,2,-3")
        assert tuple(field.as_array()) == pytest.approx((1.0, 2.0, -3.0))

    def test_two_components_rejected(self):
        with pytest.raises(ConfigError):
            _parse_field("1,2")

    def test_garbage_rejected(self):
        with pytest.raises(ConfigError):
            _parse_field("ten gauss")

    def test_window_scales_for_dilute_baths(self):
        t_l = 1.0 / (GAMMA_N_13C_KHZ_PER_G * 10.0)
        assert _t_max_auto(10.0, 0.003) == pytest.approx(6.2 * t_l)

    def test_window_floor_and_cap_at_natural_abundance(self):
        assert _t_max_auto(10.0, 0.011) == pytest.approx(0.55)
        assert _t_max_auto(1.0, 0.011) == pytest.approx(1.05)

    def test_pool_size_env_cap(self, monkeypatch):
        monkeypatch.setenv("NVMAG_THREADS", "2")
        assert _pool_size(8) == 2
        assert _pool_size(1) == 1

    def test_pool_size_env_invalid(self, monkeypatch):
        monkeypatch.setenv("NVMAG_THREADS", "many")
        with pytest.raises(ConfigError):
            _pool_size(4)
        monkeypatch.setenv("NVMAG_THREADS", "0")
        with pytest.raises(ConfigError):
            _pool_size(4)

    def test_pool_size_defaults_to_cpu_count(self, monkeypatch):
        monkeypatch.delenv("NVMAG_THREADS", raising=False)
        assert 1 <= _pool_size(4) <= 4

    def test_pool_size_defaults_to_the_cpus_the_process_may_run_on(self, monkeypatch):
        # os.cpu_count() counts the host's CPUs, not the affinity mask: under
        # taskset -c 0 on two cores a trace started two workers
        monkeypatch.delenv("NVMAG_THREADS", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        assert _pool_size(8) == 2
        monkeypatch.delattr(os, "sched_getaffinity")
        assert _pool_size(8) == 8


class TestConfigFile:
    def test_flag_overrides_config_value(self, tmp_path):
        cfg = write_config(tmp_path, abundance=0.05)
        rc = run(
            "bath", "--config", cfg, "--abundance", "0.02", "--out-dir", tmp_path
        )
        assert rc == 0
        bath = json.loads((tmp_path / "bath_seed0.json").read_text())
        assert bath["config"]["abundance"] == pytest.approx(0.02)
        manifest = json.loads((tmp_path / "bath_manifest.json").read_text())
        assert manifest["config"]["abundance"] == pytest.approx(0.02)

    def test_config_value_overrides_default(self, tmp_path):
        cfg = write_config(tmp_path, abundance=0.05)
        assert run("bath", "--config", cfg, "--out-dir", tmp_path) == 0
        bath = json.loads((tmp_path / "bath_seed0.json").read_text())
        assert bath["config"]["abundance"] == pytest.approx(0.05)


class TestBathCommand:
    def test_writes_bath_and_manifest(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        rc = run("bath", "--config", cfg, "--seed", 5, "--out-dir", tmp_path)
        assert rc == 0
        bath_path = tmp_path / "bath_seed5.json"
        assert bath_path.exists()
        manifest = json.loads((tmp_path / "bath_manifest.json").read_text())
        assert manifest["command"] == "bath"
        assert manifest["seeds"] == [5]
        assert str(bath_path) in manifest["outputs"]
        assert manifest["timings_s"]["total"] > 0
        out = capsys.readouterr().out
        assert "spins" in out and "seed 5" in out

    def test_same_seed_is_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path)
        for sub in ("a", "b"):
            assert run("bath", "--config", cfg, "--seed", 3, "--out-dir", tmp_path / sub) == 0
        first = (tmp_path / "a" / "bath_seed3.json").read_bytes()
        second = (tmp_path / "b" / "bath_seed3.json").read_bytes()
        assert first == second

    def test_readme_demo_bath_is_pinned(self, tmp_path):
        # sha256 of the file this command wrote at commit 6fc74bf, when every
        # hyperfine vector and coupling still came from its own scalar call
        # (numpy 2.4.6, OpenBLAS 0.3.31, x86-64); the array passes keep its bytes
        assert run("bath", "--seed", 2, "--out-dir", tmp_path) == 0
        digest = hashlib.sha256((tmp_path / "bath_seed2.json").read_bytes()).hexdigest()
        assert digest == "454ecce976a9d3b107914649be6456795fdcde075bbda4689e095bb92cf8450f"

    def test_readme_demo_trace_is_pinned(self, tmp_path):
        # sha256 of the trace this command writes since a trace runs its pairs
        # in coupling order (numpy 2.4.6, OpenBLAS 0.3.31, x86-64), the same at
        # 1, 2 and 4 threads.  A kernel change that moves bits within the 1e-12
        # agreement gate updates this pin and says so in CHANGES.md.
        assert run("bath", "--seed", 2, "--out-dir", tmp_path) == 0
        rc = run("simulate", "--field", 10, "--bath", tmp_path / "bath_seed2.json",
                 "--out-dir", tmp_path)
        assert rc == 0
        digest = hashlib.sha256((tmp_path / "trace_B10_seed2.csv").read_bytes()).hexdigest()
        assert digest == "0ae04ecc7a73c0ab84fcfedc09385c0a5368936cbc58a6a7bd4a507f27ad7c26"


class TestSimulateCommand:
    def test_round_trip_with_saved_bath(self, tmp_path):
        cfg = write_config(tmp_path)
        assert run("bath", "--config", cfg, "--seed", 2, "--out-dir", tmp_path) == 0
        rc = run(
            "simulate", "--config", cfg,
            "--bath", tmp_path / "bath_seed2.json",
            "--field", "10", "--out-dir", tmp_path,
        )
        assert rc == 0
        trace = CoherenceTrace.load_csv(tmp_path / "trace_B10_seed2.csv")
        assert trace.t_grid[0] == 0.0
        assert trace.values[0] == pytest.approx(1.0, abs=1e-12)
        assert trace.values.min() >= -1.0 - 1e-9
        assert trace.values.max() <= 1.0 + 1e-9
        manifest = json.loads((tmp_path / "simulate_manifest.json").read_text())
        assert len(manifest["outputs"]) == 2  # csv + metadata sidecar
        for path in manifest["outputs"]:
            assert Path(path).exists()

    def test_trace_csv_is_deterministic(self, tmp_path):
        cfg = write_config(tmp_path)
        for sub in ("a", "b"):
            rc = run(
                "simulate", "--config", cfg, "--seed", 4,
                "--field", "10", "--out-dir", tmp_path / sub,
            )
            assert rc == 0
        first = (tmp_path / "a" / "trace_B10_seed4.csv").read_bytes()
        second = (tmp_path / "b" / "trace_B10_seed4.csv").read_bytes()
        assert first == second

    def test_vector_field_tag_uses_magnitude(self, tmp_path):
        cfg = write_config(tmp_path)
        rc = run(
            "simulate", "--config", cfg, "--field", "6,0,8", "--out-dir", tmp_path
        )
        assert rc == 0
        assert (tmp_path / "trace_B10_seed0.csv").exists()

    def test_zero_field_needs_window_and_step(self, tmp_path):
        # without --t-max or --step the command is refused: REFUSALS
        cfg = write_config(tmp_path)
        rc = run(
            "simulate", "--config", cfg, "--field", "0",
            "--t-max", "0.1", "--step", "0.01", "--out-dir", tmp_path,
        )
        assert rc == 0
        assert (tmp_path / "trace_B0_seed0.csv").exists()

    def test_weak_field_grid_past_the_collapse_flags_no_crossing(self, tmp_path, capsys):
        # at 0.01 G the automatic step is period/48 = 1.946 ms, past the whole
        # 1.05 ms window: the trace is τ = 0 and one point long after the collapse
        assert run("simulate", "--field", "0.01", "--out-dir", tmp_path) == 0
        path = tmp_path / "trace_B0.01_seed0.csv"
        assert len(path.read_text().splitlines()) == 3
        capsys.readouterr()
        assert run("extract", "--trace", path) == 0
        payload = strict_json(capsys.readouterr().out)
        assert payload["T_w_ms"] is None and payload["T_w_err_ms"] is None
        assert "no-crossing" in payload["flags"]

    def test_manifest_records_the_saved_bath_settings(self, tmp_path):
        # the config file's abundance and seed are not what the trace used
        assert run("bath", "--config", write_config(tmp_path), "--seed", 2,
                   "--out-dir", tmp_path) == 0
        cfg = write_config(tmp_path, abundance=0.05, seed=7)
        rc = run("simulate", "--config", cfg, "--bath", tmp_path / "bath_seed2.json",
                 "--field", "10", "--t-max", "0.05", "--out-dir", tmp_path)
        assert rc == 0
        manifest = json.loads((tmp_path / "simulate_manifest.json").read_text())
        assert manifest["seeds"] == [2]
        assert manifest["config"] == {
            "abundance": 0.011, "cutoff_radius": 1.2, "seed": 2, "t_max": 0.05
        }

    def test_plot_writes_valid_svg(self, tmp_path):
        cfg = write_config(tmp_path)
        rc = run(
            "simulate", "--config", cfg, "--field", "20",
            "--plot", "--out-dir", tmp_path,
        )
        assert rc == 0
        svg = (tmp_path / "trace_B20_seed0.svg").read_text()
        assert svg.startswith("<svg")
        ET.fromstring(svg)


class TestSweepCommand:
    def test_field_sweep_products(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        rc = run(
            "sweep", "--config", cfg, "--fields", "5,10,20",
            "--realizations", 2, "--t-max", "0.45",
            "--points-per-period", 44, "--out-dir", tmp_path,
        )
        assert rc == 0
        lines = (tmp_path / "sweep_field_rows.csv").read_text().splitlines()
        assert lines[0] == (
            "B_G,seed,T_w_ms,T_w_err_ms,T_R_ms,T_R_err_ms,T2_ms,T2_err_ms,flags"
        )
        assert len(lines) == 1 + 3 * (2 + 1)  # per-seed rows plus one ensemble per field
        assert sum(",ensemble," in line for line in lines) == 3
        header = lines[0].split(",")
        for line in lines[1:]:
            row = dict(zip(header, line.split(",")))
            for name in header:
                if name not in ("seed", "flags"):
                    assert repr(float(row[name])) == row[name], line
        summary = json.loads((tmp_path / "sweep_field_summary.json").read_text())
        assert summary["mode"] == "field"
        assert set(summary["points"]) == {"5.0", "10.0", "20.0"}
        fit = summary["fits"]["T_R_vs_B"]
        assert fit["exponent"] == pytest.approx(-1.0, abs=0.1)
        assert fit["n_points"] == 3
        assert "sweep fit T_R_vs_B" in capsys.readouterr().out
        manifest = json.loads((tmp_path / "sweep_manifest.json").read_text())
        assert manifest["seeds"] == [0, 1]

    def test_abundance_sweep_products(self, tmp_path):
        cfg = write_config(tmp_path)
        rc = run(
            "sweep", "--config", cfg, "--abundances", "0.005,0.011,0.02",
            "--realizations", 2, "--field-magnitude", "10",
            "--t-max", "0.4", "--points-per-period", 44, "--out-dir", tmp_path,
        )
        assert rc == 0
        lines = (tmp_path / "sweep_abundance_rows.csv").read_text().splitlines()
        assert lines[0].startswith("abundance,seed,")
        summary = json.loads((tmp_path / "sweep_abundance_summary.json").read_text())
        assert summary["mode"] == "abundance"
        assert set(summary["points"]) == {"0.005", "0.011", "0.02"}

    def test_each_bath_is_sampled_once(self, tmp_path, monkeypatch):
        # a bath depends on (abundance, seed) only: a field sweep reuses one
        # per realization across its fields, an abundance sweep needs one
        # per point and realization
        import nvmag.cli

        calls = []
        sample = nvmag.cli.sample_bath

        def counted(sites, cfg):
            calls.append((cfg.abundance, cfg.seed))
            return sample(sites, cfg)

        monkeypatch.setattr(nvmag.cli, "sample_bath", counted)
        cfg = write_config(tmp_path)
        common = ("--realizations", 2, "--t-max", "0.1")
        assert run("sweep", "--config", cfg, "--fields", "5,10,20", *common,
                   "--out-dir", tmp_path / "f") == 0
        assert sorted(calls) == [(0.011, 0), (0.011, 1)]
        calls.clear()
        assert run("sweep", "--config", cfg, "--abundances", "0.005,0.011,0.02",
                   "--field-magnitude", "10", *common, "--out-dir", tmp_path / "a") == 0
        assert sorted(calls) == [(a, s) for a in (0.005, 0.011, 0.02) for s in (0, 1)]

    def test_unextractable_means_are_null_in_strict_json(self, tmp_path):
        # a 0.1 ms window holds no envelope fit at 5 and 10 G and no revival
        # at 5 G, so those realization means have nothing to average
        cfg = write_config(tmp_path)
        rc = run(
            "sweep", "--config", cfg, "--fields", "5,10,20", "--realizations", 1,
            "--t-max", "0.1", "--out-dir", tmp_path,
        )
        assert rc == 0
        summary = strict_json((tmp_path / "sweep_field_summary.json").read_text())
        strict_json((tmp_path / "sweep_manifest.json").read_text())
        nulls = sorted(
            (point, name)
            for point, entry in summary["points"].items()
            for name in ("T_R", "T_w", "T2")
            if entry[f"{name}_ms_mean"] is None
        )
        assert nulls == [("10.0", "T2"), ("5.0", "T2"), ("5.0", "T_R")]
        assert all(summary["points"][p][f"{n}_n"] == 0 for p, n in nulls)

    def test_fields_whose_grid_steps_past_the_collapse_fit_no_width(self, tmp_path, capsys):
        # each trace is τ = 0 and one point about 1e12 ms later; a line between
        # them gave widths near 1.2e10 ms and a T_w fit with exponent -1
        cfg = write_config(tmp_path)
        assert run("sweep", "--config", cfg, "--fields", "1e-12,2e-12,3e-12",
                   "--realizations", 1, "--out-dir", tmp_path) == 0
        assert "T_w_vs_B" not in capsys.readouterr().out
        summary = strict_json((tmp_path / "sweep_field_summary.json").read_text())
        assert summary["fits"] == {}
        assert all(entry["T_w_n"] == 0 for entry in summary["points"].values())

    def test_field_magnitude_from_config_file(self, tmp_path):
        cfg = write_config(tmp_path, field_magnitude=20.0)
        rc = run(
            "sweep", "--config", cfg, "--abundances", "0.005,0.011,0.02",
            "--realizations", 1, "--t-max", "0.3", "--points-per-period", 44,
            "--out-dir", tmp_path,
        )
        assert rc == 0
        manifest = json.loads((tmp_path / "sweep_manifest.json").read_text())
        assert manifest["config"]["field_magnitude"] == 20.0
        lines = (tmp_path / "sweep_abundance_rows.csv").read_text().splitlines()
        header = lines[0].split(",")
        for line in lines[1:]:
            t_r = float(dict(zip(header, line.split(",")))["T_R_ms"])
            assert t_r * GAMMA_N_13C_KHZ_PER_G * 20.0 == pytest.approx(1.0, rel=0.03)

    def test_plot_is_listed_valid_and_repeatable(self, tmp_path):
        cfg = write_config(tmp_path)
        svgs = []
        for out in (tmp_path / "a", tmp_path / "b"):
            rc = run("sweep", "--config", cfg, "--fields", "5,10,20", "--realizations", 1,
                     "--t-max", "0.3", "--plot", "--out-dir", out)
            assert rc == 0
            svg = out / "sweep_field.svg"
            manifest = json.loads((out / "sweep_manifest.json").read_text())
            assert str(svg) in manifest["outputs"]
            ET.fromstring(svg.read_text())
            svgs.append(svg.read_bytes())
        assert svgs[0] == svgs[1]


class TestExtractCommand:
    def test_extract_analytic_trace(self, tmp_path, capsys):
        path = write_trace(tmp_path / "trace.csv")
        assert run("extract", "--trace", path) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["T_R_ms"] == pytest.approx(0.5, rel=5e-3)
        assert payload["T2_ms"] == pytest.approx(1.0, rel=1e-2)
        assert payload["trace"] == str(path)
        assert payload["flags"] == []

    def test_format_csv_prints_flat_table(self, tmp_path, capsys):
        path = write_trace(tmp_path / "trace.csv")
        assert run("extract", "--trace", path, "--format", "csv") == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        header = lines[0].split(",")
        values = lines[1].split(",")
        assert "T_R_ms" in header and "flags" not in header
        by_name = dict(zip(header, values))
        assert float(by_name["T_R_ms"]) == pytest.approx(0.5, rel=5e-3)

    def test_flat_trace_downgrades_to_flags(self, tmp_path, capsys):
        path = tmp_path / "flat.csv"
        rows = "\n".join(f"{0.01 * k!r},1.0" for k in range(40))
        path.write_text("t_ms,L\n" + rows + "\n")
        assert run("extract", "--trace", path) == 0
        payload = strict_json(capsys.readouterr().out)
        assert "no-revival" in payload["flags"]
        assert "no-crossing" in payload["flags"]
        assert payload["T_R_ms"] is None and payload["T2_ms"] is None

    def test_format_csv_prints_the_json_scalars(self, tmp_path, capsys):
        # the one-row table holds every scalar of the JSON payload, each cell
        # as csv_text writes it: a float as its repr, None as "None"
        path = tmp_path / "flat.csv"
        rows = "\n".join(f"{0.01 * k!r},1.0" for k in range(40))
        path.write_text("t_ms,L\n" + rows + "\n")
        assert run("extract", "--trace", path) == 0
        payload = strict_json(capsys.readouterr().out)
        assert "no-revival" in payload["flags"]
        assert run("extract", "--trace", path, "--format", "csv") == 0
        out = capsys.readouterr().out
        header = out.split("\n", 1)[0].split(",")
        scalars = {k: v for k, v in payload.items() if not isinstance(v, (dict, list))}
        assert sorted(header) == sorted(scalars)
        assert None in scalars.values()
        assert out == csv_text(header, [[scalars[k] for k in header]])


class TestInvertCommand:
    def test_default_calibration(self, capsys):
        assert run("invert", "--tr", "0.2") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["B_G"] == pytest.approx(ALPHA_MS_G / 0.2, rel=1e-12)
        assert payload["alpha_ms_G"] == pytest.approx(ALPHA_MS_G)
        assert payload["alpha_source"] == "paper"

    def test_custom_alpha(self, capsys):
        rc = run("invert", "--tr", "0.5", "--alpha", "1.0", "--alpha-source", "refit")
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["B_G"] == pytest.approx(2.0, rel=1e-12)
        assert payload["alpha_source"] == "refit"


class TestReconstructCommand:
    @staticmethod
    def measurement_file(tmp_path, components, biases=(0.0, 0.0, 0.0)):
        axes = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        entries = [
            {
                "axis": list(axis),
                "T_R_ms": ALPHA_MS_G / abs(comp + bias),
                "bias_G": bias,
            }
            for axis, comp, bias in zip(axes, components, biases)
        ]
        path = tmp_path / "measurements.json"
        path.write_text(json.dumps(entries))
        return path

    def test_three_axes_exact(self, tmp_path, capsys):
        path = self.measurement_file(tmp_path, (0.5, -1.2, 2.0))
        assert run("reconstruct", "--measurements", path, "--out-dir", tmp_path) == 0
        payload = json.loads(capsys.readouterr().out)
        expected = math.sqrt(0.5**2 + 1.2**2 + 2.0**2)
        assert payload["magnitude_G"] == pytest.approx(expected, rel=1e-12)
        assert payload["components_G"] == pytest.approx([0.5, 1.2, 2.0], rel=1e-12)
        assert len(payload["sign_candidates_G"]) == 8
        assert payload["alpha_source"] == "paper"
        on_disk = json.loads((tmp_path / "field_estimate.json").read_text())
        assert on_disk == payload

    def test_bias_is_subtracted(self, tmp_path, capsys):
        path = self.measurement_file(tmp_path, (0.3, 0.4, 1.2), biases=(0.0, 0.0, 5.0))
        assert run("reconstruct", "--measurements", path, "--out-dir", tmp_path) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["magnitude_G"] == pytest.approx(1.3, rel=1e-12)

    def test_resolve_true_selects_antipodal_family(self, tmp_path, capsys):
        path = self.measurement_file(tmp_path, (0.5, -1.2, 2.0))
        rc = run(
            "reconstruct", "--measurements", path,
            "--resolve-true", "0.5,-1.2,2.0", "--out-dir", tmp_path,
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        alignment = payload["alignment"]
        assert alignment["resolved"] is True
        assert len(alignment["selected"]) == 2
        signs = {tuple(np.sign(c)) for c in alignment["selected"]}
        assert signs == {(1.0, -1.0, 1.0), (-1.0, 1.0, -1.0)}
        assert "antiparallel" in alignment["note"]


class TestOdmrCommand:
    def test_axial_spectrum(self, capsys):
        assert run("odmr", "--field", "10") == 0
        payload = json.loads(capsys.readouterr().out)
        levels = payload["levels_GHz"]
        assert len(levels) == 3
        assert levels == sorted(levels)
        assert payload["splitting_GHz"] == pytest.approx(0.05605, rel=1e-9)
        assert payload["asymmetry_GHz"] == pytest.approx(0.0, abs=1e-12)

    def test_candidate_resolution_and_csv(self, tmp_path, capsys):
        true = (0.5 / 3.0, 1.0 / 3.0, 1.0 / 3.0)
        estimate = reconstruct_field(np.array(true))
        cand_path = tmp_path / "cands.json"
        cand_path.write_text(json.dumps([list(c) for c in estimate.sign_candidates]))
        rc = run(
            "odmr", "--field", "0.5", "--candidates", cand_path,
            "--true-field", ",".join(repr(c) for c in true),
            "--out-dir", tmp_path,
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        alignment = payload["alignment"]
        assert alignment["resolved"] is True
        assert len(alignment["selected"]) == 2
        lines = (tmp_path / "odmr_candidates.csv").read_text().splitlines()
        assert lines[0] == "candidate_id,f_minus_GHz,f_plus_GHz,splitting_GHz,asymmetry_GHz"
        assert len(lines) == 1 + 8
        for line in lines[1:]:
            fields = line.split(",")
            assert len(fields) == 5
            assert all(math.isfinite(float(v)) for v in fields)
            assert all(repr(float(v)) == v for v in fields[1:]), line


class TestSensitivityCommand:
    def test_report_files(self, tmp_path, capsys):
        assert run("sensitivity", "--t2", "0.5", "--out-dir", tmp_path) == 0
        report = json.loads((tmp_path / "sensitivity_report.json").read_text())
        assert report["eta_min_uT_per_sqrtHz"] == pytest.approx(
            20.724795711353313, rel=1e-9
        )
        assert report["tau_opt_ms"] == pytest.approx(0.25, rel=1e-12)
        lines = (tmp_path / "sensitivity_eta.csv").read_text().splitlines()
        assert lines[0] == "tau_ms,eta_G_per_sqrtHz,eta_uT_per_sqrtHz"
        assert len(lines) == 1 + 400
        for line in lines[1:]:
            values = [float(tok) for tok in line.split(",")]
            assert len(values) == 3 and all(math.isfinite(v) for v in values), line
            assert ",".join(repr(v) for v in values) == line
        assert "eta_min" in capsys.readouterr().out

    def test_contrast_scaling_and_ensemble(self, tmp_path):
        assert run("sensitivity", "--t2", "0.5", "--out-dir", tmp_path / "a") == 0
        rc = run(
            "sensitivity", "--t2", "0.5", "--contrast", "0.15",
            "--n-centers", 4, "--out-dir", tmp_path / "b",
        )
        assert rc == 0
        base = json.loads((tmp_path / "a" / "sensitivity_report.json").read_text())
        half = json.loads((tmp_path / "b" / "sensitivity_report.json").read_text())
        assert half["eta_min_G_per_sqrtHz"] == pytest.approx(
            2.0 * base["eta_min_G_per_sqrtHz"], rel=1e-12
        )
        assert half["ensemble_eta_G_per_sqrtHz"] == pytest.approx(
            half["eta_min_G_per_sqrtHz"] / 2.0, rel=1e-12
        )

    def test_unset_options_take_their_defaults(self, tmp_path):
        assert run("sensitivity", "--out-dir", tmp_path / "a") == 0
        rc = run(
            "sensitivity", "--t2", "0.5", "--contrast", "0.3", "--n-centers", 1,
            "--tau-points", 400, "--out-dir", tmp_path / "b",
        )
        assert rc == 0
        for name in ("sensitivity_report.json", "sensitivity_eta.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_plot_writes_valid_svg(self, tmp_path):
        rc = run("sensitivity", "--t2", "0.5", "--plot", "--out-dir", tmp_path)
        assert rc == 0
        svg = (tmp_path / "sensitivity_eta.svg").read_text()
        ET.fromstring(svg)


class TestRunManifest:
    @pytest.mark.parametrize(
        "command", ["bath", "simulate", "sweep", "reconstruct", "odmr", "sensitivity"]
    )
    def test_each_file_writing_command_records_total_time(self, tmp_path, command):
        cfg = write_config(tmp_path)
        meas = TestReconstructCommand.measurement_file(tmp_path, (0.5, -1.2, 2.0))
        cands = tmp_path / "cands.json"
        cands.write_text(json.dumps([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]))
        args = {
            "bath": ("--config", cfg),
            "simulate": ("--config", cfg, "--field", "20"),
            "sweep": ("--config", cfg, "--fields", "5,10,20", "--realizations", 1,
                      "--t-max", "0.1"),
            "reconstruct": ("--measurements", meas),
            "odmr": ("--field", "1", "--candidates", cands, "--true-field", "0,0,1"),
            "sensitivity": ("--t2", "0.5"),
        }[command]
        out_dir = tmp_path / "out"
        assert run(command, *args, "--out-dir", out_dir) == 0
        manifest = strict_json((out_dir / f"{command}_manifest.json").read_text())
        assert set(manifest) == {"command", "version", "config", "seeds", "outputs", "timings_s"}
        assert manifest["command"] == command
        assert manifest["timings_s"]["total"] > 0
        assert manifest["outputs"]
        assert all(Path(p).exists() for p in manifest["outputs"])

    def test_missing_output_raises(self, tmp_path, monkeypatch, capsys):
        # bath registers its file, but the stubbed save never writes it
        monkeypatch.setattr(nvmag.cli.BathRealization, "save", lambda self, path: None)
        assert run("bath", "--config", write_config(tmp_path), "--out-dir", tmp_path) == 3
        assert "never written" in capsys.readouterr().err
        assert not (tmp_path / "bath_manifest.json").exists()


# a JSON number token, not the digits inside a key such as "T2_ms"
_NUMBER = re.compile(r"(?<![\w.])-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?(?![\w.])")


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_examples() -> list[tuple[str, list[str]]]:
    """Every ``$ nvmag ...`` command in README.md with the output shown under it."""
    readme = README.read_text()
    # odd pieces between fences are the fenced blocks
    blocks = re.split(r"^```.*\n", readme, flags=re.M)[1::2]
    examples = []
    for block in blocks:
        for chunk in re.split(r"^\$ ", block, flags=re.M)[1:]:
            command, *output = chunk.rstrip("\n").split("\n")
            if command.startswith("nvmag "):
                examples.append((command, output))
    return examples


class TestReadmeExamples:
    """README's command examples, run in a fresh working directory.

    Each example whose output the README shows in full runs in order
    through ``main`` (bath, simulate --plot, extract, invert, sweep, odmr,
    sensitivity --plot).  Text lines must match exactly, the sweep's fit
    lines included; in JSON output the layout must match exactly and each
    number to a relative 1e-9, because eigensolver rounding differs between
    BLAS builds.  The reconstruct example abbreviates its output, so it is
    left out.
    """

    SKIPPED = {"reconstruct"}

    def test_shown_output_is_what_the_command_prints(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        ran = []
        for command, want in _readme_examples():
            argv = shlex.split(command)[1:]
            if argv[0] in self.SKIPPED:
                continue
            assert main(argv) == 0, command
            got = capsys.readouterr().out.rstrip("\n").split("\n")
            assert len(got) == len(want), (command, got)
            is_json = want[0].startswith("{")
            for got_line, want_line in zip(got, want):
                if not is_json:
                    assert got_line == want_line, command
                    continue
                assert _NUMBER.sub("#", got_line) == _NUMBER.sub("#", want_line), command
                for g, w in zip(_NUMBER.findall(got_line), _NUMBER.findall(want_line)):
                    assert float(g) == pytest.approx(float(w), rel=1e-9), (command, got_line)
            ran.append(argv[0])
        assert ran == ["bath", "simulate", "extract", "invert", "sweep", "odmr", "sensitivity"]


def _listed_config_keys(text: str) -> set[str]:
    """The names in the paragraph after "recognized keys:"; a code fence holds no word."""
    listing = text.split("recognized keys:", 1)[1].strip().split("\n\n", 1)[0]
    return set(re.findall(r"\w+", listing))


class TestConfigKeysListed:
    """README and the cli module docstring list exactly the keys --config accepts."""

    def test_readme_lists_the_accepted_keys(self):
        assert _listed_config_keys(README.read_text()) == nvmag.cli._CONFIG_KEYS

    def test_docstring_lists_the_accepted_keys(self):
        assert _listed_config_keys(nvmag.cli.__doc__) == nvmag.cli._CONFIG_KEYS


# ------------------------------------------------------------------ refusals


class Refusal(NamedTuple):
    """A command line nvmag refuses.  ``{tmp}`` in ``argv`` and ``says`` stands
    for the test's temporary directory, its working directory too.  A ``says``
    that begins with the stderr line's prefix is that whole line."""

    argv: str  # split as a shell would
    says: str | tuple  # text the stderr line holds; of a tuple, each piece
    files: dict = {}  # inputs written first, by name under {tmp}: text, bytes or a writer
    code: int = 2
    env: dict = {}
    before_work: bool = True  # refused before a bath is sampled or a trace computed


def _bath(edit=lambda record: None):
    """A writer of the record of the bath ``bath --config <CONFIG> --seed 2``
    saves, changed by ``edit``; json.dumps writes NaN and Infinity in it as bare
    literals."""
    def write(path):
        cfg = LatticeConfig(cutoff_radius=1.2, seed=2)
        record = sample_bath(generate_lattice_sites(cfg), cfg).to_json_dict()
        edit(record)
        path.write_text(json.dumps(record))
    return write


def _three_axes(first: dict, value: str = "") -> dict:
    """measurements.json along x, y and z, the x record ``first``, its
    ``"VALUE"`` replaced by the JSON text ``value``."""
    records = [first, {"axis": [0, 1, 0], "T_R_ms": 2.8098}, {"axis": [0, 0, 1], "T_R_ms": 2.8098}]
    return {"measurements.json": json.dumps(records).replace('"VALUE"', value)}


# each JSON input: its top-level shape, the name its messages give it and the
# command line that reads it from {tmp}/input.json; the trace sidecar is read
# next to {tmp}/input.csv
_JSON_INPUTS = {
    "config": (dict, "config file", "bath --config {tmp}/input.json --out-dir {tmp}/out"),
    "bath": (dict, "bath file", "simulate --bath {tmp}/input.json --field 10 --out-dir {tmp}/out"),
    "measurements": (list, "measurement file",
                     "reconstruct --measurements {tmp}/input.json --out-dir {tmp}/out"),
    "candidates": (list, "candidates file", "odmr --field 1 --candidates {tmp}/input.json"
                   " --true-field 1 --out-dir {tmp}/out"),
    "sidecar": (dict, "trace sidecar", "extract --trace {tmp}/input.csv"),
}

# each case: the bytes or writer of an object input's file and a list input's
_UNREADABLE_JSON = {
    "wrong-type": (b"[1, 2]", b'{"seed": 0}'),
    "not-utf8": (b'{"seed": "\xff"}', b'["\xff"]'),
    "nested": (b"[" * 100_000, b"[" * 100_000),
    "long-integer": (b'{"seed": 1' + b"0" * 4999 + b"}", b"[1" + b"0" * 4999 + b"]"),
    "missing": (None, None),
    "directory": (Path.mkdir, Path.mkdir),
}


def _unreadable_json_rows() -> dict:
    rows = {}
    for name, (shape, what, argv) in _JSON_INPUTS.items():
        for case, contents in _UNREADABLE_JSON.items():
            files = {"input.csv": "t_ms,L\n0.0,1.0\n"} if name == "sidecar" else {}
            says = what + " {tmp}/input.json"
            if contents[shape is list] is not None:
                files["input.json"] = contents[shape is list]
            elif name == "sidecar":
                # a trace may go without its sidecar; the file missing is the trace
                files, says = {"input.json": b"{}"}, "trace file {tmp}/input.csv"
            rows[f"test_unreadable_file_exits_2_naming_it[{name}-{case}]"] = (
                Refusal(argv, says, files))
    return rows


CONFIG = {"config.json": '{"cutoff_radius": 1.2}'}
SIMULATE = "simulate --config {tmp}/config.json --field "
RECONSTRUCT = "reconstruct --measurements {tmp}/measurements.json --out-dir "
ODMR = "odmr --field 1 --candidates {tmp}/cands.json --true-field 1 --out-dir {tmp}/out"

REFUSALS = {"TestCommonFlags": {
    **{f"test_overridden_flag_exits_2_before_any_work[{command}-args{i}-overridden{i}]": Refusal(
        " ".join((command, *args, *overridden, "--out-dir {tmp}/out")), f"drop {overridden[0]}")
       for i, (command, args, overridden) in enumerate(TestCommonFlags.OVERRIDES)},
}, "TestConfigFile": {
    "test_unknown_key_exits_2": Refusal(
        "bath --config {tmp}/cfg.json --out-dir {tmp}", "unknown config keys: ['cutoff']",
        {"cfg.json": '{"cutoff": 1.0}'}),
    # the 13C ratio is a physical constant, not a setting
    "test_gamma_n_is_not_a_config_key": Refusal(
        SIMULATE + "10 --out-dir {tmp}/out", "unknown config keys: ['gamma_n']",
        {"config.json": '{"cutoff_radius": 1.2, "gamma_n": 2.0}'}),
    "test_missing_file_exits_2": Refusal(
        "bath --config {tmp}/nope.json --out-dir {tmp}", "config file {tmp}/nope.json not found"),
    "test_invalid_json_exits_2": Refusal(
        "bath --config {tmp}/cfg.json --out-dir {tmp}",
        "config file {tmp}/cfg.json is not valid JSON", {"cfg.json": "{not json"}),
    **{f"test_non_finite_literal_exits_2_before_any_work[{literal}]": Refusal(
        "bath --config {tmp}/cfg.json --out-dir {tmp}/out", f"config file holds {literal}",
        {"cfg.json": '{"cutoff_radius": 1.2, "abundance": ' + literal + "}"})
       for literal in ("NaN", "Infinity", "-Infinity", "1e999")},
    # unchecked, each value reaches int() or float(): a traceback with exit 1,
    # or a silently truncated integer with exit 0
    **{f"test_malformed_value_exits_2_before_any_work"
       f"[{command.split()[0]}-{key}-{text}-{named}]": Refusal(
        command + " --config {tmp}/cfg.json --out-dir {tmp}/out", named,
        {"cfg.json": '{"cutoff_radius": 1.2, "' + key + '": ' + text + "}"})
       for command, key, text, named in [
           ("simulate --field 10", "points_per_period", "NaN", "NaN"),
           ("sweep --fields 5,10,20", "realizations", "1e999", "1e999"),
           ("bath", "abundance", '"abc"', "abundance"),
           ("sweep --fields 5,10,20", "realizations", "2.7", "realizations"),
           ("sensitivity --t2 0.5", "n_centers", "2.5", "n_centers"),
           ("bath", "seed", "1.5", "seed")]},
    # numpy's default_rng refuses a negative seed with a traceback and exit 1
    **{f"test_negative_seed_exits_2_before_any_work"
       f"[{source}-{command.split()[0]}]": Refusal(
        f"{command} --config {{tmp}}/config.json{flag} --out-dir {{tmp}}/out", "seed must be >= 0",
        {"config.json": '{"cutoff_radius": 1.2' + seed + "}"})
       for source, flag, seed in [("flag", " --seed -3", ""), ("config", "", ', "seed": -3')]
       for command in ("bath", "simulate --field 10", "sweep --fields 5,10,20 --realizations 1")},
}, "TestBathCommand": {
    "test_bad_abundance_exits_2": Refusal(
        "bath --abundance 1.5 --out-dir {tmp}", "abundance must lie in [0, 1]"),
}, "TestSimulateCommand": {
    # 1e15 grid points: numpy refused the allocation in its own words alone
    "test_grid_too_large_for_memory_exits_2": Refusal(
        "simulate --field 10 --t-max 1e9 --step 1e-6 --out-dir {tmp}/out",
        "error: echo grid of 1e+15 points (t_max 1e+09 ms, step 1e-06 ms) is too large to build"),
    # past numpy's size limit or the int range, these ended in a traceback (exit 1)
    **{f"test_grid_too_large_to_build_exits_2_naming_its_settings[{case}]":
       Refusal(f"simulate --field {field} --out-dir {{tmp}}/out", says)
       for case, field, says in [
           ("field-1e30", "1e30",
            "echo grid of 2.82612e+31 points (t_max 0.55 ms, step 1.94613e-32"),
           ("points-per-period-1e20", "10 --points-per-period 100000000000000000000",
            "echo grid of 5.88775e+20 points (t_max 0.55 ms, step 9.34143e-22"),
           ("t-max-1e300-step-1e-300", "10 --t-max 1e300 --step 1e-300",
            "echo grid of inf points (t_max 1e+300 ms, step 1e-300 ms)")]},
    "test_two_component_field_exits_2": Refusal(
        SIMULATE + "1,2 --out-dir {tmp}", "three components", CONFIG),
    "test_bad_input_exits_2_before_any_work[two-component-field]": Refusal(
        SIMULATE + "1,2 --out-dir {tmp}/out", "three components", CONFIG),
    "test_bad_input_exits_2_before_any_work[nan-step]": Refusal(
        SIMULATE + "10 --step nan --out-dir {tmp}/out", "step must be finite", CONFIG),
    "test_bad_input_exits_2_before_any_work[zero-field-no-window]": Refusal(
        SIMULATE + "0 --out-dir {tmp}/out", "zero field", CONFIG),
    "test_zero_field_refused_without_window_and_step[no-window]": Refusal(
        SIMULATE + "0 --out-dir {tmp}", "zero field", CONFIG),
    "test_zero_field_refused_without_window_and_step[no-step]": Refusal(
        SIMULATE + "0 --t-max 0.1 --out-dir {tmp}", "--step", CONFIG),
    # a saved bath fixes its own abundance and seed; a flag for either would be
    # recorded in the manifest but never used
    **{f"test_saved_bath_refuses_lattice_flags[{flag}-{value}]": Refusal(
        f"simulate --bath {{tmp}}/bath_seed2.json {flag} {value} --field 10 --out-dir {{tmp}}/out",
        "--bath fixes abundance and seed; drop --abundance and --seed",
        {"bath_seed2.json": _bath()})
       for flag, value in [("--abundance", "0.05"), ("--seed", "7")]},
    # unchecked, each of these ends in a traceback (exit 1) or runs on with
    # plausible numbers (exit 0)
    **{f"test_malformed_bath_file_exits_2_before_any_work[{case}]": Refusal(
        "simulate --bath {tmp}/bad.json --field 10 --out-dir {tmp}/out", (named, "{tmp}/bad.json"),
        {"bad.json": _bath(edit)})
       for case, edit, named in [
           ("nan-hyperfine",
            lambda d: d["spins"][0]["hyperfine_khz"].__setitem__(1, math.nan), "NaN"),
           ("infinite-coupling",
            lambda d: d["pair_couplings_khz"][0].__setitem__(2, math.inf), "Infinity"),
           ("two-component-hyperfine",
            lambda d: d["spins"][0].__setitem__("hyperfine_khz", [1.0, 2.0]),
            "hyperfine_khz must hold three numbers"),
           ("string-position", lambda d: d["spins"][0].__setitem__("position_nm", "abc"),
            "position_nm must hold three numbers"),
           ("fractional-pair-index", lambda d: d["pair_couplings_khz"][0].__setitem__(0, 0.9),
            "pair index must be an integer"),
           ("pair-listed-twice",
            lambda d: d["pair_couplings_khz"].insert(1, list(d["pair_couplings_khz"][0])),
            "listed twice"),
           ("nan-pair-cutoff", lambda d: d["config"].__setitem__("pair_cutoff", math.nan), "NaN"),
           ("foreign-gamma-n", lambda d: d.__setitem__("gamma_n_khz_per_g", 2.0), "gamma_n"),
           ("negative-seed", lambda d: d.update(seed=-1, config=None), "seed must be >= 0"),
           ("seed-other-than-config-seed", lambda d: d.__setitem__("seed", 3),
            "disagrees with its config seed 2")]},
    "test_missing_bath_file_exits_2": Refusal(
        "simulate --config {tmp}/config.json --bath {tmp}/ghost.json --field 10 --out-dir {tmp}",
        "bath file {tmp}/ghost.json not found", CONFIG),
    "test_zero_thread_env_exits_2": Refusal(
        SIMULATE + "10 --out-dir {tmp}", "NVMAG_THREADS", CONFIG, env={"NVMAG_THREADS": "0"},
        before_work=False),
    "test_infinite_window_exits_2": Refusal(
        SIMULATE + "10 --t-max inf --out-dir {tmp}", "t_max must be finite, got inf", CONFIG),
    # the config loader refuses the bare NaN literal
    "test_nan_window_in_config_exits_2": Refusal(
        SIMULATE + "10 --out-dir {tmp}",
        "config file holds NaN; every number in {tmp}/config.json must be finite",
        {"config.json": '{"cutoff_radius": 1.2, "t_max": NaN}'}),
}, "TestSweepCommand": {
    "test_both_modes_rejected": Refusal(
        "sweep --fields 1,2,5 --abundances 0.01,0.02,0.03 --out-dir {tmp}", "not both"),
    # a sweep has no --step, and no revival period to sweep at zero field
    **{f"test_zero_field_abundance_sweep_exits_2[window{i}]": Refusal(
        "sweep --abundances 0.01,0.02,0.03 --field-magnitude 0" + window + " --out-dir {tmp}/out",
        "error: field_magnitude must be nonzero: zero field has no revival period")
       for i, window in enumerate(["", " --t-max 0.5"])},
    "test_needs_a_mode": Refusal("sweep --out-dir {tmp}", "sweep needs --fields or --abundances"),
    "test_too_few_points": Refusal(
        "sweep --fields 5,10 --out-dir {tmp}", "a sweep needs at least three points, got 2"),
    "test_nonpositive_field": Refusal(
        "sweep --fields=-1,5,10 --out-dir {tmp}", "sweep fields must be positive"),
    "test_abundance_above_one": Refusal(
        "sweep --abundances 0.5,0.9,1.5 --out-dir {tmp}", "sweep abundances must be in (0, 1]"),
    "test_zero_realizations": Refusal(
        "sweep --fields 5,10,20 --realizations 0 --out-dir {tmp}", "realizations must be >= 1"),
    "test_unparseable_field_list": Refusal(
        "sweep --fields 5,ten,20 --out-dir {tmp}", "could not parse --fields from '5,ten,20'"),
    "test_empty_field_list_exits_2_without_out_dir": Refusal(
        "sweep --fields , --out-dir {tmp}/out", "--fields is empty"),
    **{f"test_non_finite_point_exits_2_before_any_trace[{mode}-{points}]":
       Refusal(f"sweep --config {{tmp}}/config.json {mode} {points} --realizations 1"
               " --t-max 0.1 --out-dir {tmp}", "must be finite", CONFIG)
       for mode, points in [("--fields", "5,10,nan"), ("--abundances", "0.005,inf,0.02")]},
    # a repeated point was simulated again, and the fit through it printed an
    # exponent with exit 0
    **{f"test_repeated_point_exits_2_before_any_work[{mode}-{points}]":
       Refusal(f"sweep --config {{tmp}}/config.json {mode} {points} --realizations 1"
               " --t-max 0.1 --out-dir {tmp}/out", f"sweep {mode[2:]} must be distinct", CONFIG)
       for mode, points in [("--fields", "10,10,10"), ("--abundances", "0.005,0.011,0.005")]},
    "test_bad_thread_env_exits_2": Refusal(
        "sweep --config {tmp}/config.json --fields 5,10,20 --realizations 1 --t-max 0.3"
        " --out-dir {tmp}", "NVMAG_THREADS", CONFIG, env={"NVMAG_THREADS": "notanint"},
        before_work=False),
}, "TestExtractCommand": {
    "test_missing_trace_exits_2": Refusal(
        "extract --trace {tmp}/none.csv", "trace file {tmp}/none.csv not found"),
    "test_malformed_trace_exits_2": Refusal(
        "extract --trace {tmp}/bad.csv", "{tmp}/bad.csv is not a numeric trace file",
        {"bad.csv": "t_ms,L\nfoo,bar\n"}),
    # read as if it had one, the file would lose its tau = 0 row and still
    # give a revival time
    "test_trace_without_its_header_exits_2": Refusal(
        "extract --trace {tmp}/trace.csv", ("{tmp}/trace.csv", "t_ms,L"),
        {"trace.csv": lambda path: path.write_text(
            write_trace(path).read_text().split("\n", 1)[1])}),
    "test_header_only_trace_exits_2_in_one_line": Refusal(
        "extract --trace {tmp}/empty.csv", "error: {tmp}/empty.csv holds no rows",
        {"empty.csv": "t_ms,L\n"}),
    "test_nan_row_exits_2": Refusal(
        "extract --trace {tmp}/trace.csv", "finite",
        {"trace.csv": lambda path: path.write_text(
            re.sub(r"(?m)^0\.245,.*$", "0.245,nan", write_trace(path).read_text()))}),
    "test_non_finite_sidecar_exits_2": Refusal(
        "extract --trace {tmp}/trace.csv", "trace sidecar holds NaN",
        {"trace.csv": write_trace, "trace.json": '{"abundance": NaN}\n'}),
    "test_sidecar_that_is_not_an_object_exits_2": Refusal(
        "extract --trace {tmp}/trace.csv", ("{tmp}/trace.json", "JSON object"),
        {"trace.csv": write_trace, "trace.json": "[1, 2]\n"}),
}, "TestInvertCommand": {
    # a finite, subnormal spacing inverts to an infinite field
    "test_non_finite_result_exits_2": Refusal("invert --tr 1e-320", "JSON cannot represent"),
    **{f"test_non_finite_spacing_exits_2[{literal}]": Refusal(
        f"invert --tr {literal}", "tr must be finite") for literal in ("inf", "nan")},
    "test_nonpositive_spacing_exits_3": Refusal(
        "invert --tr -0.5", "physics error: revival time must be positive, got -0.5", code=3),
    "test_unknown_alpha_source_exits_2": Refusal(
        "invert --tr 0.2 --alpha-source banana", 'calibration source must be "paper" or "refit"'),
    # a 401-digit integer used to end in an OverflowError traceback
    "test_config_int_past_float_range_exits_2": Refusal(
        "invert --tr 1 --config {tmp}/config.json", "alpha must be finite",
        {"config.json": '{"alpha": 1' + "0" * 400 + "}"}),
}, "TestReconstructCommand": {
    "test_missing_key_exits_2": Refusal(
        RECONSTRUCT + "{tmp}", "T_R_ms", {"measurements.json": json.dumps([{"axis": [1, 0, 0]}])}),
    "test_non_list_exits_2": Refusal(
        RECONSTRUCT + "{tmp}", "measurement file {tmp}/measurements.json must hold a JSON list",
        {"measurements.json": json.dumps({"axis": [1, 0, 0], "T_R_ms": 1.0})}),
    "test_invalid_json_exits_2": Refusal(
        RECONSTRUCT + "{tmp}", "not valid JSON", {"measurements.json": "[{not json"}),
    # 1e999 overflows to infinity, which inverts to a zero component
    **{f"test_non_finite_spacing_exits_2_before_any_output[{literal}]":
       Refusal(RECONSTRUCT + "{tmp}/out", f"measurement file holds {literal}",
               {"measurements.json": '[{"axis": [1, 0, 0], "T_R_ms": ' + literal + '}, '
                '{"axis": [0, 1, 0], "T_R_ms": 1.0}, {"axis": [0, 0, 1], "T_R_ms": 1.0}]'})
       for literal in ("NaN", "1e999")},
    # float() reads a numeric string, and true as 1; an integer past float
    # range overflows it
    **{"test_value_that_is_not_a_finite_number_exits_2_naming_the_file"
       f"[{case}]": Refusal(
        RECONSTRUCT + "{tmp}/out", "malformed measurement file {tmp}/measurements.json",
        _three_axes({"axis": [1, 0, 0], "T_R_ms": 5.6196, key: "VALUE"}, value))
       for case, key, value in [
           ("string-1e999", "T_R_ms", '"1e999"'), ("bool", "T_R_ms", "true"),
           ("string", "T_R_ms", '"2.8098"'), ("int-past-float-range", "T_R_ms", "1" + "0" * 400),
           ("string-bias", "bias_G", '"0.5"')]},
    # a lower-case bias_g was read as no bias: exit 0 with 0.5 G, where bias_G
    # reads 0.490 G
    **{f"test_unknown_key_exits_2_naming_the_file_and_the_key[{key}]":
       Refusal(RECONSTRUCT + "{tmp}/out", "error: malformed measurement file"
               f" {{tmp}}/measurements.json: unknown measurement keys: ['{key}']",
               _three_axes({"axis": [1, 0, 0], "T_R_ms": 5.6196, key: value}))
       for key, value in [("bias_g", 0.3), ("flags", ["no-revival"])]},
    "test_missing_file_exits_2": Refusal(
        "reconstruct --measurements {tmp}/none.json --out-dir {tmp}",
        "measurement file {tmp}/none.json not found"),
    "test_non_unit_axis_exits_2_with_its_own_message": Refusal(
        RECONSTRUCT + "{tmp}/out", "error: malformed measurement file {tmp}/measurements.json:"
        " measurement axis must be a unit vector",
        {"measurements.json": json.dumps([{"axis": [1, 1, 0], "T_R_ms": 1.0}])}),
    "test_wrong_axis_count_exits_2": Refusal(
        RECONSTRUCT + "{tmp}", "component reconstruction needs exactly three axes",
        {"measurements.json": json.dumps([{"axis": [1, 0, 0], "T_R_ms": 1.0}])}),
}, "TestOdmrCommand": {
    "test_candidates_need_true_field": Refusal(
        "odmr --field 1 --candidates {tmp}/cands.json --out-dir {tmp}",
        "--candidates needs --true-field for the probe",
        {"cands.json": json.dumps([[0.0, 0.0, 1.0]])}),
    "test_infinite_candidate_exits_2": Refusal(
        ODMR, "candidates file holds Infinity",
        {"cands.json": "[[0.0, 0.0, 1.0], [0.0, 0.0, Infinity]]"}),
    **{f"test_malformed_candidates_exit_2_naming_the_file[{case}]": Refusal(
        ODMR, ("candidates file {tmp}/cands.json", message), {"cands.json": text})
       for case, text, message in [
           ("string-nan", '[["nan", 1, 1], [1, 1, 1]]', "malformed"),
           ("bool", "[[1, true, 1]]", "malformed"), ("two-numbers", "[[1, 1]]", "malformed"),
           ("object", '{"a": 1}', "must hold a JSON list")]},
    "test_bad_candidates_json_exits_2": Refusal(
        "odmr --field 1 --candidates {tmp}/cands.json --true-field 1 --out-dir {tmp}",
        "not valid JSON", {"cands.json": "[[0, 0"}),
}, "TestJsonInputs": {
    **_unreadable_json_rows(),
    # a string once read as its characters: unknown config keys ['d', 'e', 's']
    **{f"test_config_that_is_not_an_object_exits_2[{text}]": Refusal(
        "bath --config {tmp}/cfg.json --out-dir {tmp}/out",
        "error: config file {tmp}/cfg.json must hold a JSON object", {"cfg.json": text})
       for text in ("null", "3", '"seed"')},
}, "TestSensitivityCommand": {
    "test_non_finite_t2_exits_2_before_any_output": Refusal(
        "sensitivity --t2 nan --out-dir {tmp}", "t2 must be finite"),
    "test_tau_points_too_few_exits_2": Refusal(
        "sensitivity --t2 0.5 --tau-points 1 --out-dir {tmp}",
        "tau grid needs at least two points"),
    # 1e20 points ended in a traceback (exit 1), 1e12 in numpy's allocation text alone
    **{f"test_scan_too_large_to_build_exits_2_naming_tau_points[{n}]":
       Refusal(f"sensitivity --tau-points {n} --out-dir {{tmp}}/out",
               f"error: tau scan of {n} points (tau_points) is too large to build")
       for n in (10**20, 10**12)},
    # its eta_min is infinite: the report JSON is refused before the table is written
    "test_infinite_eta_exits_2_writing_nothing": Refusal(
        "sensitivity --t2 1e-320 --field 1 --out-dir {tmp}/out", "JSON cannot represent"),
}}


def _check_refusal(row: Refusal, request):
    tmp_path, capsys = request.getfixturevalue("tmp_path"), request.getfixturevalue("capsys")
    monkeypatch = request.getfixturevalue("monkeypatch")
    monkeypatch.chdir(tmp_path)
    for name, content in row.files.items():
        path = tmp_path / name
        if callable(content):
            content(path)
        elif isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content)
    for name, value in row.env.items():
        monkeypatch.setenv(name, value)
    calls = []
    for name in ("sample_bath", "echo_coherence_trace"):
        def spy(*args, real=getattr(nvmag.cli, name), **kwargs):
            calls.append(real.__name__)
            return real(*args, **kwargs)
        monkeypatch.setattr(nvmag.cli, name, spy)
    before, tmp = tree(tmp_path), str(tmp_path)
    assert main(shlex.split(row.argv.replace("{tmp}", tmp))) == row.code
    out, err = capsys.readouterr()
    assert out == ""
    prefix = {2: "error: ", 3: "physics error: "}[row.code]
    assert err.startswith(prefix) and err.endswith("\n") and err.count("\n") == 1, err
    assert "Traceback" not in err
    for piece in (row.says,) if isinstance(row.says, str) else row.says:
        piece = piece.replace("{tmp}", tmp)
        assert piece in err, err
        assert not piece.startswith(prefix) or err == piece + "\n"
    assert tree(tmp_path) == before
    assert not row.before_work or calls == []


class TestJsonInputs:
    """Every JSON input goes through one reader, which refuses what it cannot read
    as a configuration error naming the file, before any work or output."""


install(REFUSALS, _check_refusal, globals())
