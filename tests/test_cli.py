"""End-to-end command tests: exit codes, files written, payload shapes.

Every test drives ``nvmag.cli.main`` in process with a temporary output
directory, so the assertions cover argument parsing, the settings layering,
manifest writing, and the error-to-exit-code mapping together.
"""

import argparse
import hashlib
import json
import math
import re
import shlex
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import nvmag.cli
from nvmag.bath import csv_text
from nvmag.cli import _parse_field, _t_max_auto, build_parser, main
from nvmag.constants import ALPHA_MS_G, GAMMA_N_13C_KHZ_PER_G
from nvmag.decoherence import CoherenceTrace, EchoSchedule, _pool_size, analytic_trace
from nvmag.errors import ConfigError
from nvmag.magnetometry import reconstruct_field


def write_config(tmp_path, **overrides):
    payload = {"cutoff_radius": 1.2}
    payload.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return str(path)


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
    def test_overridden_flag_exits_2_before_any_work(
        self, tmp_path, monkeypatch, capsys, command, args, overridden
    ):
        import nvmag.cli

        calls = []
        monkeypatch.setattr(nvmag.cli, "sample_bath", lambda *a: calls.append(a))
        out_dir = tmp_path / "out"
        assert run(command, *args, *overridden, "--out-dir", out_dir) == 2
        assert f"drop {overridden[0]}" in capsys.readouterr().err
        assert calls == []
        assert not out_dir.exists()

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


class TestConfigFile:
    def test_unknown_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"cutoff": 1.0}))
        assert run("bath", "--config", cfg, "--out-dir", tmp_path) == 2
        assert "unknown config keys" in capsys.readouterr().err

    def test_gamma_n_is_not_a_config_key(self, tmp_path, capsys):
        # the 13C ratio is a physical constant, not a setting
        cfg = write_config(tmp_path, gamma_n=2.0)
        out_dir = tmp_path / "out"
        assert run("simulate", "--config", cfg, "--field", "10", "--out-dir", out_dir) == 2
        assert "unknown config keys: ['gamma_n']" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_missing_file_exits_2(self, tmp_path, capsys):
        rc = run("bath", "--config", tmp_path / "nope.json", "--out-dir", tmp_path)
        assert rc == 2
        assert "not found" in capsys.readouterr().err

    def test_invalid_json_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        assert run("bath", "--config", cfg, "--out-dir", tmp_path) == 2
        assert "not valid JSON" in capsys.readouterr().err

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

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e999"])
    def test_non_finite_literal_exits_2_before_any_work(self, tmp_path, capsys, literal):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(f'{{"cutoff_radius": 1.2, "abundance": {literal}}}')
        assert run("bath", "--config", cfg, "--out-dir", tmp_path / "out") == 2
        assert f"config file holds {literal}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    # unchecked, each value reaches int() or float(): a traceback with
    # exit 1, or a silently truncated integer with exit 0
    @pytest.mark.parametrize(
        "command,key,text,named",
        [
            (("simulate", "--field", "10"), "points_per_period", "NaN", "NaN"),
            (("sweep", "--fields", "5,10,20"), "realizations", "1e999", "1e999"),
            (("bath",), "abundance", '"abc"', "abundance"),
            (("sweep", "--fields", "5,10,20"), "realizations", "2.7", "realizations"),
            (("sensitivity", "--t2", "0.5"), "n_centers", "2.5", "n_centers"),
            (("bath",), "seed", "1.5", "seed"),
        ],
        ids=lambda v: v if isinstance(v, str) else v[0],
    )
    def test_malformed_value_exits_2_before_any_work(
        self, tmp_path, capsys, command, key, text, named
    ):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(f'{{"cutoff_radius": 1.2, "{key}": {text}}}')
        out_dir = tmp_path / "out"
        assert run(*command, "--config", cfg, "--out-dir", out_dir) == 2
        assert named in capsys.readouterr().err
        assert not out_dir.exists()

    # numpy's default_rng refuses a negative seed with a traceback and exit 1
    @pytest.mark.parametrize(
        "command",
        [("bath",), ("simulate", "--field", "10"),
         ("sweep", "--fields", "5,10,20", "--realizations", "1")],
        ids=lambda v: v[0],
    )
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_negative_seed_exits_2_before_any_work(self, tmp_path, capsys, command, source):
        cfg = write_config(tmp_path, **({"seed": -3} if source == "config" else {}))
        seed = ("--seed", "-3") if source == "flag" else ()
        out_dir = tmp_path / "out"
        assert run(*command, "--config", cfg, *seed, "--out-dir", out_dir) == 2
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not out_dir.exists()


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

    def test_bad_abundance_exits_2(self, tmp_path, capsys):
        rc = run("bath", "--abundance", "1.5", "--out-dir", tmp_path)
        assert rc == 2
        assert "abundance" in capsys.readouterr().err


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

    def test_zero_field_needs_window_and_step(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert run("simulate", "--config", cfg, "--field", "0", "--out-dir", tmp_path) == 2
        assert "zero field" in capsys.readouterr().err
        rc = run(
            "simulate", "--config", cfg, "--field", "0",
            "--t-max", "0.1", "--out-dir", tmp_path,
        )
        assert rc == 2
        assert "--step" in capsys.readouterr().err
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

    def test_grid_too_large_for_memory_exits_2(self, tmp_path, capsys):
        # 1e15 grid points: the allocation is refused at once
        out_dir = tmp_path / "out"
        rc = run("simulate", "--field", "10", "--t-max", "1e9", "--step", "1e-6",
                 "--out-dir", out_dir)
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out_dir.exists()

    def test_two_component_field_exits_2(self, tmp_path):
        cfg = write_config(tmp_path)
        assert run("simulate", "--config", cfg, "--field", "1,2", "--out-dir", tmp_path) == 2

    @pytest.mark.parametrize(
        "flags,named",
        [
            (("--field", "1,2"), "three components"),
            (("--field", "10", "--step", "nan"), "step must be finite"),
            (("--field", "0"), "zero field"),
        ],
        ids=["two-component-field", "nan-step", "zero-field-no-window"],
    )
    def test_bad_input_exits_2_before_any_work(
        self, tmp_path, monkeypatch, capsys, flags, named
    ):
        import nvmag.cli

        calls = []
        monkeypatch.setattr(nvmag.cli, "sample_bath", lambda *args: calls.append(args))
        out_dir = tmp_path / "out"
        cfg = write_config(tmp_path)
        assert run("simulate", "--config", cfg, *flags, "--out-dir", out_dir) == 2
        assert named in capsys.readouterr().err
        assert calls == []
        assert not out_dir.exists()

    # a saved bath fixes its own abundance and seed; a flag for either would
    # be recorded in the manifest but never used
    @pytest.mark.parametrize("flag,value", [("--abundance", "0.05"), ("--seed", "7")])
    def test_saved_bath_refuses_lattice_flags(
        self, tmp_path, monkeypatch, capsys, flag, value
    ):
        import nvmag.cli

        cfg = write_config(tmp_path)
        assert run("bath", "--config", cfg, "--seed", 2, "--out-dir", tmp_path) == 0
        calls = []
        monkeypatch.setattr(
            nvmag.cli, "echo_coherence_trace", lambda *args, **kw: calls.append(args)
        )
        out_dir = tmp_path / "out"
        rc = run(
            "simulate", "--bath", tmp_path / "bath_seed2.json", flag, value,
            "--field", "10", "--out-dir", out_dir,
        )
        assert rc == 2
        assert flag in capsys.readouterr().err
        assert calls == []
        assert not out_dir.exists()

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

    # unchecked, each of these ends in a traceback (exit 1) or runs on with
    # plausible numbers (exit 0)
    @pytest.mark.parametrize(
        "edit,named",
        [
            (lambda d: d["spins"][0]["hyperfine_khz"].__setitem__(1, math.nan), "NaN"),
            (lambda d: d["pair_couplings_khz"][0].__setitem__(2, math.inf), "Infinity"),
            (lambda d: d["spins"][0].__setitem__("hyperfine_khz", [1.0, 2.0]),
             "hyperfine_khz must hold three numbers"),
            (lambda d: d["spins"][0].__setitem__("position_nm", "abc"),
             "position_nm must hold three numbers"),
            (lambda d: d["pair_couplings_khz"][0].__setitem__(0, 0.9),
             "pair index must be an integer"),
            (lambda d: d["pair_couplings_khz"].insert(1, list(d["pair_couplings_khz"][0])),
             "listed twice"),
            (lambda d: d["config"].__setitem__("pair_cutoff", math.nan), "NaN"),
            (lambda d: d.__setitem__("gamma_n_khz_per_g", 2.0), "gamma_n"),
            (lambda d: d.update(seed=-1, config=None), "seed must be >= 0"),
            (lambda d: d.__setitem__("seed", 3), "disagrees with its config seed 2"),
        ],
        ids=["nan-hyperfine", "infinite-coupling", "two-component-hyperfine",
             "string-position", "fractional-pair-index", "pair-listed-twice", "nan-pair-cutoff",
             "foreign-gamma-n", "negative-seed", "seed-other-than-config-seed"],
    )
    def test_malformed_bath_file_exits_2_before_any_work(
        self, tmp_path, monkeypatch, capsys, edit, named
    ):
        import nvmag.cli

        assert run("bath", "--config", write_config(tmp_path), "--seed", 2,
                   "--out-dir", tmp_path) == 0
        record = json.loads((tmp_path / "bath_seed2.json").read_text())
        edit(record)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(record))  # writes NaN and Infinity as bare literals
        calls = []
        monkeypatch.setattr(
            nvmag.cli, "echo_coherence_trace", lambda *args, **kw: calls.append(args)
        )
        out_dir = tmp_path / "out"
        rc = run("simulate", "--bath", bad, "--field", "10", "--out-dir", out_dir)
        assert rc == 2
        err = capsys.readouterr().err
        assert named in err and str(bad) in err
        assert calls == []
        assert not out_dir.exists()

    def test_missing_bath_file_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        rc = run(
            "simulate", "--config", cfg, "--bath", tmp_path / "ghost.json",
            "--field", "10", "--out-dir", tmp_path,
        )
        assert rc == 2
        assert "ghost.json" in capsys.readouterr().err

    def test_zero_thread_env_exits_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("NVMAG_THREADS", "0")
        cfg = write_config(tmp_path)
        assert run("simulate", "--config", cfg, "--field", "10", "--out-dir", tmp_path) == 2
        assert "NVMAG_THREADS" in capsys.readouterr().err

    def test_infinite_window_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        rc = run(
            "simulate", "--config", cfg, "--field", "10", "--t-max", "inf",
            "--out-dir", tmp_path,
        )
        assert rc == 2
        assert "finite" in capsys.readouterr().err

    def test_nan_window_in_config_exits_2(self, tmp_path, capsys):
        # the config loader refuses the bare NaN literal
        path = tmp_path / "config.json"
        path.write_text('{"cutoff_radius": 1.2, "t_max": NaN}')
        assert run("simulate", "--config", path, "--field", "10", "--out-dir", tmp_path) == 2
        assert "finite" in capsys.readouterr().err

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

    def test_both_modes_rejected(self, tmp_path, capsys):
        rc = run(
            "sweep", "--fields", "1,2,5", "--abundances", "0.01,0.02,0.03",
            "--out-dir", tmp_path,
        )
        assert rc == 2
        assert "not both" in capsys.readouterr().err

    @pytest.mark.parametrize("window", [(), ("--t-max", "0.5")])
    def test_zero_field_abundance_sweep_exits_2(self, tmp_path, capsys, window):
        # a sweep has no --step, and no revival period to sweep at zero field
        rc = run("sweep", "--abundances", "0.01,0.02,0.03", "--field-magnitude", "0",
                 *window, "--out-dir", tmp_path / "out")
        assert rc == 2
        err = capsys.readouterr().err
        assert "field_magnitude must be nonzero" in err
        assert "--step" not in err
        assert not (tmp_path / "out").exists()

    def test_needs_a_mode(self, tmp_path):
        assert run("sweep", "--out-dir", tmp_path) == 2

    def test_too_few_points(self, tmp_path):
        assert run("sweep", "--fields", "5,10", "--out-dir", tmp_path) == 2

    def test_nonpositive_field(self, tmp_path):
        assert run("sweep", "--fields=-1,5,10", "--out-dir", tmp_path) == 2

    def test_abundance_above_one(self, tmp_path):
        assert run("sweep", "--abundances", "0.5,0.9,1.5", "--out-dir", tmp_path) == 2

    def test_zero_realizations(self, tmp_path):
        rc = run(
            "sweep", "--fields", "5,10,20", "--realizations", 0, "--out-dir", tmp_path
        )
        assert rc == 2

    def test_unparseable_field_list(self, tmp_path):
        assert run("sweep", "--fields", "5,ten,20", "--out-dir", tmp_path) == 2

    def test_empty_field_list_exits_2_without_out_dir(self, tmp_path, capsys):
        assert run("sweep", "--fields", ",", "--out-dir", tmp_path / "out") == 2
        assert "--fields is empty" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

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

    @pytest.mark.parametrize("mode,points", [("--fields", "5,10,nan"),
                                             ("--abundances", "0.005,inf,0.02")])
    def test_non_finite_point_exits_2_before_any_trace(
        self, tmp_path, monkeypatch, capsys, mode, points
    ):
        import nvmag.cli

        calls = []
        monkeypatch.setattr(
            nvmag.cli, "echo_coherence_trace", lambda *args, **kw: calls.append(args)
        )
        cfg = write_config(tmp_path)
        rc = run("sweep", "--config", cfg, mode, points, "--realizations", 1,
                 "--t-max", "0.1", "--out-dir", tmp_path)
        assert rc == 2
        assert "must be finite" in capsys.readouterr().err
        assert calls == []

    @pytest.mark.parametrize("mode,points", [("--fields", "10,10,10"),
                                             ("--abundances", "0.005,0.011,0.005")])
    def test_repeated_point_exits_2_before_any_work(
        self, tmp_path, monkeypatch, capsys, mode, points
    ):
        # a repeated point was simulated again, and the fit through it
        # printed an exponent with exit 0
        calls = []
        monkeypatch.setattr(
            nvmag.cli, "echo_coherence_trace", lambda *args, **kw: calls.append(args)
        )
        out_dir = tmp_path / "out"
        rc = run("sweep", "--config", write_config(tmp_path), mode, points,
                 "--realizations", 1, "--t-max", "0.1", "--out-dir", out_dir)
        assert rc == 2
        assert f"sweep {mode[2:]} must be distinct" in capsys.readouterr().err
        assert calls == []
        assert not out_dir.exists()

    def test_bad_thread_env_exits_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("NVMAG_THREADS", "notanint")
        cfg = write_config(tmp_path)
        rc = run(
            "sweep", "--config", cfg, "--fields", "5,10,20",
            "--realizations", 1, "--t-max", "0.3", "--out-dir", tmp_path,
        )
        assert rc == 2
        assert "NVMAG_THREADS" in capsys.readouterr().err


class TestExtractCommand:
    def make_trace(self, tmp_path):
        trace = analytic_trace(EchoSchedule.regular(3.0, 0.005), 0.5, 1.0)
        path = tmp_path / "trace.csv"
        trace.save_csv(path)
        return path

    def test_extract_analytic_trace(self, tmp_path, capsys):
        path = self.make_trace(tmp_path)
        assert run("extract", "--trace", path) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["T_R_ms"] == pytest.approx(0.5, rel=5e-3)
        assert payload["T2_ms"] == pytest.approx(1.0, rel=1e-2)
        assert payload["trace"] == str(path)
        assert payload["flags"] == []

    def test_format_csv_prints_flat_table(self, tmp_path, capsys):
        path = self.make_trace(tmp_path)
        assert run("extract", "--trace", path, "--format", "csv") == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        header = lines[0].split(",")
        values = lines[1].split(",")
        assert "T_R_ms" in header and "flags" not in header
        by_name = dict(zip(header, values))
        assert float(by_name["T_R_ms"]) == pytest.approx(0.5, rel=5e-3)

    def test_missing_trace_exits_2(self, tmp_path):
        assert run("extract", "--trace", tmp_path / "none.csv") == 2

    def test_malformed_trace_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("t_ms,L\nfoo,bar\n")
        assert run("extract", "--trace", path) == 2
        assert "trace file" in capsys.readouterr().err

    def test_trace_without_its_header_exits_2(self, tmp_path, capsys):
        # read as if it had one, the file would lose its tau = 0 row and
        # still give a revival time
        path = self.make_trace(tmp_path)
        path.write_text(path.read_text().split("\n", 1)[1])
        assert run("extract", "--trace", path) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert str(path) in captured.err and "t_ms,L" in captured.err

    def test_header_only_trace_exits_2_in_one_line(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text("t_ms,L\n")
        assert run("extract", "--trace", path) == 2
        assert capsys.readouterr().err == f"error: {path} holds no rows\n"

    def test_nan_row_exits_2(self, tmp_path, capsys):
        path = self.make_trace(tmp_path)
        lines = path.read_text().splitlines()
        lines[50] = lines[50].split(",")[0] + ",nan"
        path.write_text("\n".join(lines) + "\n")
        assert run("extract", "--trace", path) == 2
        assert "finite" in capsys.readouterr().err

    def test_non_finite_sidecar_exits_2(self, tmp_path, capsys):
        path = self.make_trace(tmp_path)
        path.with_suffix(".json").write_text('{"abundance": NaN}\n')
        assert run("extract", "--trace", path) == 2
        assert "trace sidecar holds NaN" in capsys.readouterr().err

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
    def test_non_finite_result_exits_2(self, capsys):
        # a finite, subnormal spacing inverts to an infinite field
        assert run("invert", "--tr", "1e-320") == 2
        assert "JSON cannot represent" in capsys.readouterr().err

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

    @pytest.mark.parametrize("literal", ["inf", "nan"])
    def test_non_finite_spacing_exits_2(self, capsys, literal):
        assert run("invert", "--tr", literal) == 2
        assert "tr must be finite" in capsys.readouterr().err

    def test_nonpositive_spacing_exits_3(self, capsys):
        assert run("invert", "--tr", "-0.5") == 3
        assert "physics error" in capsys.readouterr().err

    def test_unknown_alpha_source_exits_2(self):
        assert run("invert", "--tr", "0.2", "--alpha-source", "banana") == 2

    def test_config_int_past_float_range_exits_2(self, tmp_path, capsys):
        # a 401-digit integer used to end in an OverflowError traceback
        path = tmp_path / "config.json"
        path.write_text('{"alpha": 1' + "0" * 400 + "}")
        assert run("invert", "--tr", "1", "--config", path) == 2
        assert "alpha must be finite" in capsys.readouterr().err


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

    def test_missing_key_exits_2(self, tmp_path, capsys):
        path = tmp_path / "measurements.json"
        path.write_text(json.dumps([{"axis": [1, 0, 0]}]))
        assert run("reconstruct", "--measurements", path, "--out-dir", tmp_path) == 2
        assert "T_R_ms" in capsys.readouterr().err

    def test_non_list_exits_2(self, tmp_path):
        path = tmp_path / "measurements.json"
        path.write_text(json.dumps({"axis": [1, 0, 0], "T_R_ms": 1.0}))
        assert run("reconstruct", "--measurements", path, "--out-dir", tmp_path) == 2

    def test_invalid_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "measurements.json"
        path.write_text("[{not json")
        assert run("reconstruct", "--measurements", path, "--out-dir", tmp_path) == 2
        assert "not valid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("literal", ["NaN", "1e999"])
    def test_non_finite_spacing_exits_2_before_any_output(self, tmp_path, capsys, literal):
        # 1e999 overflows to infinity, which inverts to a zero component
        path = tmp_path / "measurements.json"
        path.write_text(
            f'[{{"axis": [1, 0, 0], "T_R_ms": {literal}}}, '
            '{"axis": [0, 1, 0], "T_R_ms": 1.0}, {"axis": [0, 0, 1], "T_R_ms": 1.0}]'
        )
        assert run("reconstruct", "--measurements", path, "--out-dir", tmp_path / "out") == 2
        assert f"measurement file holds {literal}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "key,value",
        [("T_R_ms", '"1e999"'), ("T_R_ms", "true"), ("T_R_ms", '"2.8098"'),
         ("T_R_ms", "1" + "0" * 400), ("bias_G", '"0.5"')],
        ids=["string-1e999", "bool", "string", "int-past-float-range", "string-bias"],
    )
    def test_value_that_is_not_a_finite_number_exits_2_naming_the_file(
        self, tmp_path, capsys, key, value
    ):
        # float() reads a numeric string, and true as 1; an integer past float
        # range overflows it
        first = {"axis": [1, 0, 0], "T_R_ms": 5.6196}
        first[key] = "VALUE"
        path = tmp_path / "measurements.json"
        path.write_text(json.dumps([first, {"axis": [0, 1, 0], "T_R_ms": 2.8098},
                                    {"axis": [0, 0, 1], "T_R_ms": 2.8098}])
                        .replace('"VALUE"', value))
        assert run("reconstruct", "--measurements", path, "--out-dir", tmp_path / "out") == 2
        assert f"malformed measurement file {path}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_missing_file_exits_2(self, tmp_path):
        rc = run(
            "reconstruct", "--measurements", tmp_path / "none.json",
            "--out-dir", tmp_path,
        )
        assert rc == 2

    def test_non_unit_axis_exits_2_with_its_own_message(self, tmp_path, capsys):
        path = tmp_path / "measurements.json"
        path.write_text(json.dumps([{"axis": [1, 1, 0], "T_R_ms": 1.0}]))
        assert run("reconstruct", "--measurements", path, "--out-dir", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert "measurement axis must be a unit vector" in err
        assert "each measurement needs" not in err
        assert not (tmp_path / "out").exists()

    def test_wrong_axis_count_exits_2(self, tmp_path):
        path = tmp_path / "measurements.json"
        path.write_text(json.dumps([{"axis": [1, 0, 0], "T_R_ms": 1.0}]))
        assert run("reconstruct", "--measurements", path, "--out-dir", tmp_path) == 2


class TestOdmrCommand:
    def test_axial_spectrum(self, capsys):
        assert run("odmr", "--field", "10") == 0
        payload = json.loads(capsys.readouterr().out)
        levels = payload["levels_GHz"]
        assert len(levels) == 3
        assert levels == sorted(levels)
        assert payload["splitting_GHz"] == pytest.approx(0.05605, rel=1e-9)
        assert payload["asymmetry_GHz"] == pytest.approx(0.0, abs=1e-12)

    def test_candidates_need_true_field(self, tmp_path, capsys):
        cand_path = tmp_path / "cands.json"
        cand_path.write_text(json.dumps([[0.0, 0.0, 1.0]]))
        rc = run(
            "odmr", "--field", "1", "--candidates", cand_path, "--out-dir", tmp_path
        )
        assert rc == 2
        assert "--true-field" in capsys.readouterr().err

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

    def test_infinite_candidate_exits_2(self, tmp_path, capsys):
        cand_path = tmp_path / "cands.json"
        cand_path.write_text("[[0.0, 0.0, 1.0], [0.0, 0.0, Infinity]]")
        rc = run(
            "odmr", "--field", "1", "--candidates", cand_path,
            "--true-field", "1", "--out-dir", tmp_path / "out",
        )
        assert rc == 2
        assert "candidates file holds Infinity" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "text,message",
        [('[["nan", 1, 1], [1, 1, 1]]', "malformed"), ("[[1, true, 1]]", "malformed"),
         ("[[1, 1]]", "malformed"), ('{"a": 1}', "must hold a JSON list")],
        ids=["string-nan", "bool", "two-numbers", "object"],
    )
    def test_malformed_candidates_exit_2_naming_the_file(self, tmp_path, capsys, text, message):
        cand_path = tmp_path / "cands.json"
        cand_path.write_text(text)
        rc = run(
            "odmr", "--field", "1", "--candidates", cand_path,
            "--true-field", "1", "--out-dir", tmp_path / "out",
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert f"candidates file {cand_path}" in err and message in err
        assert not (tmp_path / "out").exists()

    def test_bad_candidates_json_exits_2(self, tmp_path, capsys):
        cand_path = tmp_path / "cands.json"
        cand_path.write_text("[[0, 0")
        rc = run(
            "odmr", "--field", "1", "--candidates", cand_path,
            "--true-field", "1", "--out-dir", tmp_path,
        )
        assert rc == 2
        assert "not valid JSON" in capsys.readouterr().err


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

    def test_non_finite_t2_exits_2_before_any_output(self, tmp_path, capsys):
        assert run("sensitivity", "--t2", "nan", "--out-dir", tmp_path) == 2
        assert "t2 must be finite" in capsys.readouterr().err
        assert not (tmp_path / "sensitivity_eta.csv").exists()

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

    def test_tau_points_too_few_exits_2(self, tmp_path):
        assert run("sensitivity", "--t2", "0.5", "--tau-points", 1, "--out-dir", tmp_path) == 2

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
    through ``main`` (bath, simulate --plot, extract, invert, odmr,
    sensitivity --plot).  Text lines must match exactly; in JSON output the
    layout must match exactly and each number to a relative 1e-9, because
    eigensolver rounding differs between BLAS builds.  The sweep example is
    left out: it takes about 3 s, and TestSweepCommand checks its products.
    The reconstruct example abbreviates its output, so it is left out too.
    """

    SKIPPED = {"sweep", "reconstruct"}

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
        assert ran == ["bath", "simulate", "extract", "invert", "odmr", "sensitivity"]


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
