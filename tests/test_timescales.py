import json
import math
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import nvmag
from nvmag.bath import LatticeConfig, generate_lattice_sites, sample_bath
from nvmag.cli import main
from nvmag.constants import GAMMA_N_13C_KHZ_PER_G
from nvmag.decoherence import (
    CoherenceTrace,
    EchoSchedule,
    FieldVector,
    analytic_trace,
    echo_coherence_trace,
)
from nvmag.errors import (
    ConfigError,
    CrossingNotFoundError,
    DomainError,
    InsufficientEnvelopeError,
    NoRevivalError,
)
from nvmag.timescales import (
    FLAG_NO_REVIVAL,
    FLAG_OVER_UNITY,
    PROMINENCE_DEFAULT,
    PowerLawFit,
    RevivalPeak,
    TimescaleSet,
    _comb_scores,
    _index_regression,
    _local_peaks,
    _row_sums,
    extract_T2,
    extract_TR,
    extract_Tw,
    extract_timescales,
    find_revival_peaks,
    fit_power_law,
    snap_to_comb,
)
from oracles import extract_TR_loop


def mk_peaks(times, heights):
    return [RevivalPeak(float(t), float(h)) for t, h in zip(times, heights)]


# ------------------------------------------------------------- peak finding
class TestFindRevivalPeaks:
    def test_zero_time_point_is_peak_zero(self):
        grid = np.linspace(0.0, 1.0, 101)
        tr = CoherenceTrace(grid, np.exp(-grid))
        peaks = find_revival_peaks(tr)
        assert peaks[0].time == 0.0
        assert peaks[0].height == 1.0

    def test_parabolic_refinement_beats_the_grid(self):
        # plant an apex off the grid points; the refined time should land
        # within a small fraction of a step, not a whole step
        grid = np.linspace(0.0, 1.0, 201)
        apex = 0.503456
        vals = np.exp(-grid / 0.05) + 0.8 * np.exp(-((grid - apex) ** 2) / 0.01)
        tr = CoherenceTrace(grid, vals)
        peaks = find_revival_peaks(tr, prominence=0.01)
        interior = [p for p in peaks if p.time > 0]
        assert len(interior) == 1
        assert abs(interior[0].time - apex) < 0.2 * (grid[1] - grid[0])

    def test_prominence_filters_small_wiggles(self):
        grid = np.linspace(0.0, 1.0, 501)
        vals = np.exp(-grid) * (1.0 + 0.001 * np.sin(200 * grid))
        vals[0] = 1.0
        peaks = find_revival_peaks(CoherenceTrace(grid, vals), prominence=0.05)
        assert len([p for p in peaks if p.time > 0]) == 0

    def test_bad_prominence_rejected(self):
        tr = CoherenceTrace(np.array([0.0, 0.1]), np.array([1.0, 0.5]))
        with pytest.raises(Exception):
            find_revival_peaks(tr, prominence=0.0)

    def test_no_command_loads_scipy(self, tmp_path):
        # sampling, simulation, peak search and a CLI extraction run on numpy alone
        script = textwrap.dedent("""
            import contextlib, io, json, sys
            import nvmag, nvmag.cli
            from nvmag.bath import LatticeConfig, generate_lattice_sites, sample_bath
            from nvmag.decoherence import (
                EchoSchedule, FieldVector, analytic_trace, echo_coherence_trace)
            from nvmag.timescales import find_revival_peaks
            cfg = LatticeConfig(cutoff_radius=1.5, abundance=0.05, seed=1)
            spins = sample_bath(generate_lattice_sites(cfg), cfg)
            echo_coherence_trace(spins, FieldVector(0.0, 0.0, 20.0),
                                 EchoSchedule.for_field(20.0, 0.05))
            trace = analytic_trace(EchoSchedule.regular(2.0, 0.5 / 48.0), 0.5, 1.0)
            peaks = [[p.time, p.height] for p in find_revival_peaks(trace)]
            trace.save_csv(sys.argv[1])
            with contextlib.redirect_stdout(io.StringIO()):
                code = nvmag.cli.main(["extract", "--trace", sys.argv[1]])
            print(json.dumps([len(spins.pair_couplings), peaks, code,
                              sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
        """)
        src = str(Path(nvmag.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
        ))
        out = subprocess.run([sys.executable, "-c", script, str(tmp_path / "t.csv")],
                             env=env, check=True, capture_output=True, text=True).stdout
        n_pairs, peaks, code, scipy_modules = json.loads(out)
        assert n_pairs > 0 and code == 0
        # the peaks scipy.signal.find_peaks found here before the numpy search
        assert peaks == [[0.0, 1.0], [0.48737972184854406, 0.610377342940362],
                         [0.9873797218485441, 0.3702125724872621],
                         [1.487379721848544, 0.22454527582461017]]
        assert scipy_modules == []


class TestLocalPeaks:
    """The numpy peak search against scipy.signal.find_peaks; scipy is needed only here."""

    @staticmethod
    def assert_matches_scipy(values, floors):
        from scipy.signal import find_peaks

        for floor in floors:
            expected, _ = find_peaks(values, prominence=floor, height=floor)
            assert _local_peaks(values, floor).tolist() == expected.tolist(), (values, floor)

    @pytest.mark.parametrize("field_g", [1.0, 3.0, 10.0, 30.0, 100.0])
    def test_simulated_traces_and_their_plateaus(self, small_sites, field_g):
        # a dilute bath keeps its revivals over the whole 1.05 ms window
        spins = sample_bath(small_sites, LatticeConfig(seed=4, abundance=0.011))
        trace = echo_coherence_trace(spins, FieldVector(0.3, 0.0, field_g),
                                     EchoSchedule.for_field(field_g, 1.05))
        floors = (0.001, 0.005, PROMINENCE_DEFAULT, 0.05, 0.2)
        self.assert_matches_scipy(trace.values, floors)
        rounded = np.round(trace.values, 3)
        assert np.any(rounded[1:] == rounded[:-1])
        self.assert_matches_scipy(rounded, floors)

    def test_random_small_integer_arrays(self):
        rng = np.random.default_rng(20)
        arrays = [np.zeros(n) for n in range(4)] + [np.full(6, 2.0),
                  np.array([2.0, 2.0, 1.0, 3.0, 0.0]), np.array([0.0, 3.0, 1.0, 2.0, 2.0]),
                  np.array([1.0, 2.0, 2.0, 1.0, 2.0, 2.0, 2.0, 0.0])]
        for _ in range(2000):
            n = int(rng.integers(0, 30))
            arrays.append(rng.integers(0, int(rng.integers(1, 6)), size=n).astype(float))
        for values in arrays:
            self.assert_matches_scipy(values, (0.5, 1.0, 2.0, 3.0))


# ------------------------------------------------------------- comb search
class TestExtractTR:
    def test_exact_comb(self):
        peaks = mk_peaks([0.0, 0.5, 1.0, 1.5], [1.0, 0.8, 0.6, 0.5])
        period, err = extract_TR(peaks, grid_step_ms=0.01)
        assert period == pytest.approx(0.5, abs=1e-6)

    def test_polluted_comb_ignores_ringing(self):
        # spurious early maxima off the comb must not drag the period
        times = [0.0, 0.29, 0.41] + [k * 1.0 for k in range(1, 7)]
        heights = [1.0, 0.45, 0.38] + [0.8, 0.7, 0.62, 0.5, 0.45, 0.4]
        period, _ = extract_TR(mk_peaks(times, heights), grid_step_ms=0.01)
        assert period == pytest.approx(1.0, abs=0.01)

    def test_two_peaks_returns_their_spacing(self):
        period, err = extract_TR(mk_peaks([0.0, 0.5], [1.0, 0.5]), grid_step_ms=0.01)
        assert period == pytest.approx(0.5, abs=1e-12)
        assert err == pytest.approx(0.01)

    def test_missing_tooth_tolerated(self):
        # comb with tooth k=3 absent
        times = [0.0, 0.4, 0.8, 1.6, 2.0]
        heights = [1.0, 0.8, 0.6, 0.35, 0.25]
        period, _ = extract_TR(mk_peaks(times, heights), grid_step_ms=0.004)
        assert period == pytest.approx(0.4, abs=0.004)

    def test_jittered_comb_recovers_mean_spacing(self):
        rng = np.random.default_rng(0)
        true = 0.37
        ks = np.arange(0, 9)
        times = ks * true + rng.normal(0.0, 0.002, size=ks.size)
        times[0] = 0.0
        heights = np.exp(-times / 2.0)
        period, _ = extract_TR(mk_peaks(times, heights), grid_step_ms=0.002)
        assert period == pytest.approx(true, rel=0.01)

    def test_fewer_than_two_peaks_raises(self):
        with pytest.raises(NoRevivalError):
            extract_TR(mk_peaks([0.0], [1.0]), grid_step_ms=0.01)

    def test_overunity_artifact_peaks_cannot_outvote(self):
        # a clipped truncation artifact (|L| > 1) between teeth must not
        # steal the vote from the true comb
        times = [0.0, 0.5, 1.0, 1.5, 2.0, 2.23]
        heights = [1.0, 0.7, 0.5, 0.35, 0.25, 3.0]
        period, _ = extract_TR(mk_peaks(times, heights), grid_step_ms=0.01)
        assert period == pytest.approx(0.5, abs=0.01)

    def test_weightless_train_falls_back_to_median_gap(self):
        # peaks of zero height claim teeth but carry no vote: no comb can
        # win, so the median gap sets the indices
        peaks = mk_peaks([0.0, 0.5, 1.0, 1.5], [1.0, 0.0, -0.1, 0.0])
        period, _ = extract_TR(peaks, grid_step_ms=0.01)
        assert period == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize(
        "times",
        [[0.0, 0.1, 0.1, 0.1], [0.0, 0.1, 0.1], [0.1, 0.1], [0.0, 0.2, 0.1],
         [0.0, 1.0, math.inf], [0.0, 1.0, 2.0, math.inf]],
    )
    def test_peak_times_must_be_finite_and_strictly_increase(self, times):
        # these used to give a NaN spacing, a spacing of 0.05 for [0, .1, .1],
        # or a LinAlgError
        peaks = mk_peaks(times, [1.0, 0.8, 0.6, 0.5][: len(times)])
        with pytest.raises(ConfigError, match="finite and strictly increase"):
            extract_TR(peaks, grid_step_ms=0.01)

    @pytest.mark.parametrize("height", [math.nan, math.inf, -math.inf])
    def test_peak_heights_must_be_finite(self, height):
        # a NaN or infinite height used to give T_R = 0.1 ms without a word
        peaks = mk_peaks([0.0, 0.1, 0.2, 0.3], [1.0, height, 0.5, 0.3])
        with pytest.raises(ConfigError, match="peak heights must be finite"):
            extract_TR(peaks, grid_step_ms=0.01)

    @pytest.mark.parametrize("step", [math.nan, -0.001, math.inf, 0.0])
    def test_bad_grid_step_rejected(self, step):
        # a NaN floor used to empty the candidate menu and fall back to the
        # median gap without a word
        peaks = mk_peaks([0.0, 0.5, 1.0, 1.5], [1.0, 0.8, 0.6, 0.5])
        with pytest.raises(ConfigError):
            extract_TR(peaks, grid_step_ms=step)


# At 2 G and 0.3% abundance, over a 6.2-period window on the 4 nm lattice,
# extract_TR reads twice the revival period on these baths, without a flag
# (ROADMAP item 6); T vs 2T is the closest call the comb search makes there
DOUBLED_BATHS = (19, 91, 102, 128, 131, 136, 156, 176)


# At 50 and 100 G, under the same protocol, extract_TR reads 0.17-0.43 of
# the revival period on these baths, also without a flag (ROADMAP item 6):
# invert would report 2-6 times the field
SHORT_BATHS = {50.0: (17, 18, 19, 33), 100.0: (19, 37)}


def _dilute_trace(sites, seed, field_g=2.0):
    """Criterion 1's 2 G trace: a 0.3% bath over 6.2 revival periods, the
    CLI's automatic window, here at ``field_g``."""
    bath = sample_bath(sites, LatticeConfig(seed=seed, abundance=0.003))
    schedule = EchoSchedule.for_field(
        field_g, t_max_ms=6.2 / (GAMMA_N_13C_KHZ_PER_G * field_g)
    )
    return echo_coherence_trace(bath, FieldVector.along_z(field_g), schedule)


def _peak_train_corpus():
    """Seeded synthetic peak trains reaching every branch of the comb search,
    and the peak trains of the doubled 2 G baths."""
    rng = np.random.default_rng(1708)
    trains = []

    def add(kind, times, heights, step):
        times, first = np.unique(np.asarray(times, dtype=float), return_index=True)
        trains.append((kind, mk_peaks(times, np.asarray(heights)[first]), step))

    def comb(period, n, jitter=0.0, decay=4.0):
        times = np.arange(n) * period + rng.normal(0.0, jitter * period, n)
        times[0] = 0.0
        return times, np.exp(-times / (decay * period))

    def ringing(times, period, n):
        extra = rng.uniform(0.05 * period, times.max() + period, n)
        return (np.concatenate([times, extra]),
                np.concatenate([np.exp(-times / (4.0 * period)), rng.uniform(0.02, 0.45, n)]))

    for _ in range(5):
        period = float(rng.uniform(0.1, 2.0))
        n = int(rng.integers(3, 12))
        step = period / float(rng.choice([24.0, 48.0]))
        times, heights = comb(period, n)
        add("exact", times, heights, step)
        times, heights = comb(period, n, jitter=0.01)
        add("jittered", times, heights, step)
        keep = rng.random(n) > 0.35
        keep[:2] = True
        add("missing teeth", times[keep], heights[keep], step)
        add("ringing", *ringing(times, period, 2 * n), step)
        # drawn and unused, so the seeded trains after it stay those checked
        # before extract_TR required a grid step
        ringing(times, period, 2 * n)
        over = heights.copy()
        over[rng.integers(1, n, size=2)] = rng.uniform(1.0, 3.0, size=2)
        add("over-unity", times, over, step)
        long_times, _ = comb(period, 30, jitter=0.004)
        add("over 24 tall peaks", *ringing(long_times, period, 20), step)
        add("two peaks", times[:2], heights[:2], step)
        if n >= 4:
            # a grid step three times coarser than every gap empties the menu
            add("median-gap fallback", times[:4], heights[:4], float(times[3]))
    for t_revival, t2 in ((0.5, 1.0), (0.2, 0.6), (0.93, 5.0)):
        trace = analytic_trace(EchoSchedule.regular(6.0 * t_revival, t_revival / 48.0),
                               t_revival_ms=t_revival, t2_ms=t2)
        add("analytic trace", [p.time for p in find_revival_peaks(trace)],
            [p.height for p in find_revival_peaks(trace)], t_revival / 48.0)
    sites = generate_lattice_sites(LatticeConfig())
    for seed in DOUBLED_BATHS:
        trace = _dilute_trace(sites, seed)
        peaks = find_revival_peaks(trace)
        add(f"2 G bath {seed}", [p.time for p in peaks], [p.height for p in peaks],
            float(np.median(np.diff(trace.t_grid))))
    return trains


class TestCombSearchMatchesLoop:
    def test_same_spacing_bit_for_bit(self):
        trains = _peak_train_corpus()
        assert any(len(peaks) > 24 for _, peaks, _ in trains)
        assert any(kind == "median-gap fallback" for kind, _, _ in trains)
        for kind, peaks, step in trains:
            got = extract_TR(peaks, grid_step_ms=step)
            want = extract_TR_loop(peaks, grid_step_ms=step)
            assert np.array(got).tobytes() == np.array(want).tobytes(), (kind, got, want)

    def test_tied_claims_on_a_tooth_go_to_the_later_jury_peak(self):
        # 2.9 and 3.1 sit equally far from tooth 3 with equal weight; the
        # loop's np.lexsort((wc, k)) kept the later one in jury order
        period, weights = np.array([1.0]), np.ones(3)
        tied = _comb_scores(period, np.array([1.0, 3.1, 2.9]), weights, 3.1, 0.01)
        later = _comb_scores(period, np.array([1.0, 2.9]), weights[:2], 3.1, 0.01)
        earlier = _comb_scores(period, np.array([1.0, 3.1]), weights[:2], 3.1, 0.01)
        assert np.array(tied).tobytes() == np.array(later).tobytes()
        assert np.array(tied).tobytes() != np.array(earlier).tobytes()

    def test_row_sums_round_as_numpy_sums_each_row(self):
        # the comb scores equal the loop's only if every per-candidate sum
        # rounds as np.sum over that candidate's claims alone
        rng = np.random.default_rng(0)
        counts = rng.integers(0, 25, size=200)
        x = rng.random((2, 200, 24)) * 10.0 ** rng.integers(-3, 3, size=(2, 200, 24))
        sums = _row_sums(x, counts)
        for j in range(2):
            want = [np.sum(row[:n]) for row, n in zip(x[j], counts)]
            assert sums[j].tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("seed", [0, 1, 2] + [
    pytest.param(seed, marks=pytest.mark.xfail(
        strict=True, reason="ROADMAP item 6: T_R reads twice the revival period"))
    for seed in DOUBLED_BATHS
])
def test_dilute_2g_bath_reads_the_revival_period(full_sites, seed):
    t_r = extract_timescales(_dilute_trace(full_sites, seed)).T_R
    assert abs(t_r * GAMMA_N_13C_KHZ_PER_G * 2.0 - 1.0) <= 0.05


@pytest.mark.parametrize("field_g,seed", [(50.0, 0), (100.0, 0)] + [
    pytest.param(field_g, seed, marks=pytest.mark.xfail(
        strict=True, reason="ROADMAP item 6: T_R reads a fraction of the revival period"))
    for field_g, seeds in SHORT_BATHS.items() for seed in seeds
])
def test_dilute_bath_at_high_field_reads_the_revival_period(full_sites, field_g, seed):
    trace = _dilute_trace(full_sites, seed, field_g)
    assert trace.t_grid.size == 299
    t_r = extract_timescales(trace).T_R
    assert abs(t_r * GAMMA_N_13C_KHZ_PER_G * field_g - 1.0) <= 0.05


def _exact_fit(times, indices):
    """Least-squares slope of times against indices, and its squared error
    (residual variance over the index spread), in exact rational arithmetic."""
    x, y = [Fraction(v) for v in indices.tolist()], [Fraction(v) for v in times.tolist()]
    mx, my = sum(x) / len(x), sum(y) / len(y)
    sxx = sum((a - mx) ** 2 for a in x)
    slope = sum((a - mx) * (b - my) for a, b in zip(x, y)) / sxx
    ssr = sum((b - my - slope * (a - mx)) ** 2 for a, b in zip(x, y))
    return slope, ssr / (len(x) - 2) / sxx if len(x) > 2 else None


class TestIndexRegression:
    # On these trains the closed form's slope was at most 3.3e-16 off the
    # exact one (np.linalg.lstsq's: 8.9e-16) and its error at most 6.5e-14 off
    # (lstsq's: 1.4e-13).  The bounds give three times that headroom.
    SLOPE_REL_TOL = 1e-15
    ERR_REL_TOL = 2e-13

    @staticmethod
    def trains():
        """Jittered combs of 3 to 12 teeth, some teeth missing, peak zero at t = 0."""
        rng = np.random.default_rng(29)
        for n in range(3, 13):
            for period in (0.0933, 0.187, 0.467, 1.25):
                for _ in range(3):
                    teeth = np.sort(rng.choice(n + 3, size=n, replace=False)).astype(float)
                    times = teeth * period + rng.normal(0.0, 0.02 * period, n)
                    times[teeth == 0] = 0.0
                    yield times, teeth
        # extract_TR's median-gap fallback puts two close peaks on one index
        times = np.array([0.0, 0.41, 0.47, 0.93, 1.38, 1.86])
        indices = np.rint(times / np.median(np.diff(times)))
        assert indices.tolist() == [0.0, 1.0, 1.0, 2.0, 3.0, 4.0]
        yield times, indices

    def test_closed_form_matches_exact_least_squares(self):
        for times, indices in self.trains():
            slope, err = _index_regression(times, indices, 0.01)
            want_slope, want_var = _exact_fit(times, indices)
            assert abs(slope / float(want_slope) - 1.0) <= self.SLOPE_REL_TOL, (times, indices)
            assert abs(err / math.sqrt(want_var) - 1.0) <= self.ERR_REL_TOL, (times, indices)

    def test_two_indices_give_the_spacing_and_the_grid_step(self):
        times, indices = np.array([0.187, 0.7481]), np.array([1.0, 4.0])
        slope, err = _index_regression(times, indices, 0.004)
        assert abs(slope / float(_exact_fit(times, indices)[0]) - 1.0) <= self.SLOPE_REL_TOL
        assert err == 0.004


class TestSnapToComb:
    def test_keeps_tallest_per_tooth_and_drops_offcomb(self):
        peaks = mk_peaks(
            [0.0, 0.48, 0.52, 0.77, 1.01, 1.49],
            [1.0, 0.3, 0.6, 0.5, 0.4, 0.2],
        )
        snapped = snap_to_comb(peaks, 0.5)
        times = [p.time for p in snapped]
        assert times == [0.0, 0.52, 1.01, 1.49]

    def test_zero_time_always_kept(self):
        snapped = snap_to_comb(mk_peaks([0.0, 1.0], [1.0, 0.5]), 1.0)
        assert snapped[0].time == 0.0

    def test_invalid_period_rejected(self):
        # a period <= 0 is a DomainError; a non-number, like every other
        # argument's, is a ConfigError
        with pytest.raises(DomainError):
            snap_to_comb(mk_peaks([0.0], [1.0]), 0.0)
        with pytest.raises(ConfigError):
            snap_to_comb(mk_peaks([0.0], [1.0]), math.nan)


# ------------------------------------------------------------- envelopes
class TestExtractT2:
    def test_exact_on_exponential_envelope(self):
        t = np.arange(0.0, 3.0, 0.3)
        peaks = mk_peaks(t, np.exp(-t / 0.9))
        t2, err = extract_T2(peaks)
        assert t2 == pytest.approx(0.9, rel=1e-12)

    def test_fit_fallback_when_all_peaks_above_crossing(self):
        t = np.arange(0.0, 2.0, 0.25)
        peaks = mk_peaks(t, np.exp(-t / 10.0))
        t2, _ = extract_T2(peaks)
        assert t2 == pytest.approx(10.0, rel=1e-9)

    def test_undamped_train_reports_infinity(self):
        peaks = mk_peaks([0.0, 0.5, 1.0, 1.5], [1.0, 1.0, 1.0, 1.0])
        t2, err = extract_T2(peaks)
        assert math.isinf(t2)

    def test_too_few_peaks_raises(self):
        with pytest.raises(InsufficientEnvelopeError):
            extract_T2(mk_peaks([0.0, 0.5], [1.0, 0.5]))

    @pytest.mark.parametrize("height", [math.nan, math.inf, -math.inf])
    def test_peak_heights_must_be_finite(self, height):
        # a NaN height used to drop out (nan > 0 is False); with it, or with
        # an infinite one, T2 came out 0.2601 ms without a word
        peaks = mk_peaks([0.0, 0.1, 0.2, 0.3], [1.0, height, 0.5, 0.3])
        with pytest.raises(ConfigError, match="peak heights must be finite"):
            extract_T2(peaks)

    def test_nonpositive_heights_do_not_count(self):
        peaks = mk_peaks([0.0, 0.5, 1.0], [1.0, 0.0, -0.2])
        with pytest.raises(InsufficientEnvelopeError):
            extract_T2(peaks)


class TestExtractTw:
    def test_gaussian_first_peak_width_is_its_time_constant(self):
        tau_c = 0.2
        grid = np.linspace(0.0, 1.0, 501)
        tr = CoherenceTrace(grid, np.exp(-((grid / tau_c) ** 2)))
        t_w, _ = extract_Tw(tr)
        assert t_w == pytest.approx(tau_c, rel=1e-3)

    def test_exponential_crossing(self):
        grid = np.linspace(0.0, 2.0, 1001)
        tr = CoherenceTrace(grid, np.exp(-grid / 0.4))
        t_w, _ = extract_Tw(tr)
        assert t_w == pytest.approx(0.4, rel=1e-3)

    def test_search_confined_to_first_collapse(self):
        # first collapse bottoms out at ~0.47 (above 1/e), revives, and the
        # overall decay crosses 1/e only later: the crossing beyond the
        # first revival must NOT be reported as a collapse width
        grid = np.linspace(0.0, 6.0, 3001)
        vals = (0.8 + 0.2 * np.cos(np.pi * grid)) * np.exp(-grid / 4.0)
        assert vals.min() < math.exp(-1.0)  # a later crossing does exist
        tr = CoherenceTrace(grid, vals)
        with pytest.raises(CrossingNotFoundError):
            extract_Tw(tr)

    def test_no_crossing_at_all(self):
        grid = np.linspace(0.0, 1.0, 101)
        tr = CoherenceTrace(grid, np.full(101, 1.0))
        with pytest.raises(CrossingNotFoundError):
            extract_Tw(tr)

    @pytest.mark.parametrize("n_points", [2, 11])
    def test_crossing_inside_the_first_step_is_unresolved(self, n_points):
        # the trace `nvmag simulate --field 0.01` writes: τ = 0 and one step of
        # period/48 = 1.946 ms, by which the coherence has long collapsed.  A
        # line between them is no width, only the step's half
        grid = np.linspace(0.0, 1.946 * (n_points - 1), n_points)
        tr = CoherenceTrace(grid, np.exp(-grid / 0.01))
        with pytest.raises(CrossingNotFoundError):
            extract_Tw(tr)

    def test_crossing_inside_the_second_step_is_resolved(self):
        grid = np.array([0.0, 0.5, 1.0, 1.5])
        tr = CoherenceTrace(grid, np.exp(-grid / 0.8))
        t_w, t_w_err = extract_Tw(tr)
        assert 0.5 < t_w < 1.0 and t_w_err == 0.25


# ------------------------------------------------------------- full extraction
class TestExtractTimescales:
    def test_recovers_planted_model_parameters(self):
        # the model's apexes sit slightly before k * T_R (the decaying
        # envelope pulls each maximum left by T_R^2 / (2 pi^2 T2)) and
        # slightly below exp(-t / T2), so recovery is sub-percent, not exact
        sched = EchoSchedule.regular(3.0, 0.005)
        tr = analytic_trace(sched, t_revival_ms=0.5, t2_ms=1.0)
        ts = extract_timescales(tr)
        assert ts.T_R == pytest.approx(0.5, rel=5e-3)
        assert ts.T2 == pytest.approx(1.0, rel=1e-2)
        assert ts.has_revivals
        assert ts.flags == ()

    def test_pure_decay_flags_no_revival(self):
        grid = np.linspace(0.0, 1.0, 201)
        tr = CoherenceTrace(grid, np.exp(-((grid / 0.2) ** 2)))
        ts = extract_timescales(tr)
        assert not ts.has_revivals
        assert math.isnan(ts.T_R)
        assert ts.T_w == pytest.approx(0.2, rel=1e-3)

    def test_undamped_comb_flags_undamped(self):
        grid = np.linspace(0.0, 3.0, 1201)
        vals = 0.5 * (1.0 + np.cos(2 * np.pi * grid / 0.5))
        ts = extract_timescales(CoherenceTrace(grid, vals))
        assert math.isinf(ts.T2)
        assert "undamped" in ts.flags

    def test_one_point_trace_flags_no_revival(self):
        # no grid step can be read off a single point, and the comb search
        # needs one: the trace must be flagged without reaching it
        ts = extract_timescales(CoherenceTrace(np.array([0.0]), np.array([1.0])))
        assert FLAG_NO_REVIVAL in ts.flags

    # Pair truncation pushes some traces above 1: at 1.1%, 100 G and 0.55 ms
    # the largest |L| of seeds 2, 12 and 19 reads 8.68, 5.15 and 1.54, and
    # seed 2's T2 read 0.12 ms with no flag.  Seed 0 stays below 1.  The
    # flag reads the values alone, so a saved trace carries it too, and the
    # timescales are extracted as they are.
    @pytest.mark.filterwarnings("ignore:coherence magnitudes exceed 1:RuntimeWarning")
    @pytest.mark.parametrize("seed,over_unity", [(0, False), (2, True), (12, True), (19, True)])
    def test_over_unity_trace_is_flagged(self, full_sites, tmp_path, capsys, seed, over_unity):
        bath = sample_bath(full_sites, LatticeConfig(abundance=0.011, seed=seed))
        schedule = EchoSchedule.for_field(100.0, t_max_ms=0.55)
        trace = echo_coherence_trace(bath, FieldVector.along_z(100.0), schedule)
        assert (np.max(np.abs(trace.values)) > 1.0) == over_unity
        ts = extract_timescales(trace)
        assert (FLAG_OVER_UNITY in ts.flags) == over_unity
        assert math.isfinite(ts.T_R) and math.isfinite(ts.T2)
        path = tmp_path / "trace.csv"
        trace.save_csv(path)
        assert main(["extract", "--trace", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["flags"] == list(ts.flags)
        assert (payload["T_R_ms"], payload["T2_ms"]) == (ts.T_R, ts.T2)

    @pytest.mark.parametrize("prominence", [math.nan, math.inf, True])
    def test_prominence_that_is_not_a_finite_number_rejected(self, prominence):
        # a NaN or infinite floor finds no peak at all, so a trace with perfect
        # revivals came back flagged no-revival and insufficient-envelope
        trace = analytic_trace(EchoSchedule.regular(1.0, 0.002), 0.1, 0.5)
        assert extract_timescales(trace).T_R == pytest.approx(0.09994, rel=1e-4)
        with pytest.raises(ConfigError, match="prominence"):
            extract_timescales(trace, prominence=prominence)

    def test_json_round_trip_keys(self):
        ts = TimescaleSet(T_w=0.1, T_R=0.5, T2=1.0)
        d = ts.to_json_dict()
        assert d["T_w_ms"] == 0.1
        assert d["T_R_ms"] == 0.5
        assert d["T2_ms"] == 1.0
        assert d["flags"] == []


# ------------------------------------------------------------- power laws
class TestFitPowerLaw:
    def test_exact_power_law_recovered(self):
        x = np.array([1.0, 2.0, 5.0, 10.0, 20.0])
        y = 0.934 * x**-1.0
        fit = fit_power_law(x, y)
        assert fit.coefficient == pytest.approx(0.934, rel=1e-12)
        assert fit.exponent == pytest.approx(-1.0, abs=1e-12)
        assert fit.residual < 1e-12
        assert fit.n_points == 5

    def test_callable_evaluates_the_law(self):
        fit = PowerLawFit(coefficient=2.0, exponent=-0.5, residual=0.0, n_points=3)
        assert fit(4.0) == pytest.approx(1.0, rel=1e-12)

    def test_rejects_nonpositive_data(self):
        with pytest.raises(DomainError):
            fit_power_law([1.0, 2.0], [1.0, -2.0])
        with pytest.raises(DomainError):
            fit_power_law([0.0, 2.0], [1.0, 2.0])

    @pytest.mark.parametrize("x,y", [([1, 10**400], [1.0, 0.5]), ([1.0, 2.0], [True, False]),
                                     (["1", "2"], [1.0, 0.5])])
    def test_data_that_are_not_numbers_rejected(self, x, y):
        # an int past float range escaped as an OverflowError
        with pytest.raises(ConfigError, match="must hold numbers"):
            fit_power_law(x, y)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_data_rejected(self, bad):
        # NaN and infinities were a DomainError, unlike every other argument's
        with pytest.raises(ConfigError, match="must be finite"):
            fit_power_law([1.0, 2.0], [1.0, bad])
        with pytest.raises(ConfigError, match="must be finite"):
            fit_power_law([bad, 2.0], [1.0, 0.5])

    def test_needs_two_points(self):
        with pytest.raises(ConfigError):
            fit_power_law([1.0], [1.0])
        # three points at one x are one point: polyfit returned an exponent
        # of -0.515 with only a RankWarning
        with pytest.raises(ConfigError, match="two distinct x values"):
            fit_power_law([10.0, 10.0, 10.0], [0.0933] * 3)

    @pytest.mark.parametrize("x,y", [([1.0, 2.0, 3.0], [1.0, 2.0]),
                                     ([[1.0, 2.0]], [[1.0, 2.0]])])
    def test_mismatched_shapes_rejected(self, x, y):
        with pytest.raises(ConfigError, match="one-dimensional"):
            fit_power_law(x, y)

    def test_nonpositive_coefficient_rejected(self):
        with pytest.raises(DomainError):
            PowerLawFit(coefficient=0.0, exponent=1.0, residual=0.0)

    @pytest.mark.parametrize("field,value", [("coefficient", math.nan), ("exponent", math.inf),
                                             ("residual", math.nan), ("n_points", True)])
    def test_non_finite_or_bool_field_rejected(self, field, value):
        kwargs = {"coefficient": 2.0, "exponent": -1.0, "residual": 0.0, "n_points": 3}
        with pytest.raises(ConfigError):
            PowerLawFit(**{**kwargs, field: value})
