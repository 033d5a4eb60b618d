import math

import numpy as np
import pytest

from nvmag.errors import ConfigError, DomainError
from nvmag.magnetometry import Calibration
from nvmag.sensitivity import (
    DetectionLimit,
    ReadoutModel,
    SensitivityReport,
    build_report,
    fluorescence_signal,
    min_detectable_field,
    optimal_sensitivity,
    sensitivity_eta,
    shot_noise,
    signal_response,
)

# hand-computed reference values for the default calibration constants
# (alpha = 0.9366 ms*G, C = 0.3, T2 = 0.5 ms)
ETA_MIN_G_SQHZ = 0.20724795711353314
CONSTANT_G_SQHZ = 0.0628511200760834  # 2 alpha sqrt(1e-3) / (pi C)


# --------------------------------------------------------------- readout
class TestReadoutModel:
    def test_validation(self):
        with pytest.raises(ConfigError):
            ReadoutModel(C=0.0)
        with pytest.raises(ConfigError):
            ReadoutModel(C=1.2)
        with pytest.raises(ConfigError):
            ReadoutModel(n_centers=0)
        with pytest.raises(ConfigError):
            ReadoutModel(n_centers=1.5)

    def test_bool_center_count_rejected(self):
        with pytest.raises(ConfigError, match="n_centers"):
            ReadoutModel(n_centers=True)

    def test_defaults(self):
        ro = ReadoutModel()
        assert ro.C == 0.3
        assert ro.n_centers == 1


# --------------------------------------------------------------- signal
class TestFluorescenceSignal:
    def test_limits(self):
        assert fluorescence_signal(0.0, 1.0, 0.5) == pytest.approx(1.0)
        assert fluorescence_signal(500.0, 1.0, 0.5) == pytest.approx(0.5, abs=1e-12)

    def test_domain_checks_inherited(self):
        with pytest.raises(DomainError):
            fluorescence_signal(0.1, -1.0, 0.5)


class TestSignalResponse:
    @pytest.mark.parametrize("tau", [0.11, 0.23, 0.37])
    def test_matches_finite_difference(self, tau):
        cal = Calibration()
        b, t2 = 2.2, 0.4
        h = 1e-6
        s_plus = fluorescence_signal(tau, cal.alpha / (b + h), t2)
        s_minus = fluorescence_signal(tau, cal.alpha / (b - h), t2)
        fd = (s_plus - s_minus) / (2.0 * h)
        assert signal_response(tau, b, t2, cal) == pytest.approx(fd, rel=1e-5)

    def test_sign_is_negative_before_first_node(self):
        # just inside the first revival the signal falls as B grows
        cal = Calibration()
        tau = 0.1 * cal.alpha / 2.0  # 2 pi tau B / alpha = 0.2 pi at B = 2
        assert signal_response(tau, 2.0, 0.5, cal) < 0

    def test_zero_at_revival_node(self):
        cal = Calibration(alpha=1.0, source="refit")
        assert signal_response(0.5, 1.0, 0.5, cal) == pytest.approx(0.0, abs=1e-12)

    def test_validation(self):
        cal = Calibration()
        with pytest.raises(DomainError):
            signal_response(0.1, 0.0, 0.5, cal)
        with pytest.raises(DomainError):
            signal_response(0.1, 1.0, -0.5, cal)

    def test_non_finite_field_rejected(self):
        with pytest.raises(ConfigError, match="field"):
            signal_response(0.1, math.nan, 0.5, Calibration())

    def test_vectorized(self):
        cal = Calibration()
        taus = np.array([0.1, 0.2, 0.3])
        out = signal_response(taus, 1.0, 0.5, cal)
        assert out.shape == taus.shape


# --------------------------------------------------------------- noise
class TestShotNoise:
    def test_reference_value(self):
        assert shot_noise(1.0, 0.25e-3, 0.3) == pytest.approx(
            0.05270462766947299, rel=1e-12
        )

    def test_scalings(self):
        base = shot_noise(1.0, 1e-4, 0.3)
        assert shot_noise(1.0, 4e-4, 0.3) == pytest.approx(2 * base, rel=1e-12)
        assert shot_noise(4.0, 1e-4, 0.3) == pytest.approx(base / 2, rel=1e-12)
        assert shot_noise(1.0, 1e-4, 0.6) == pytest.approx(base / 2, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ConfigError):
            shot_noise(1.0, 1e-4, 0.0)
        with pytest.raises(DomainError):
            shot_noise(1.0, 0.0, 0.3)
        with pytest.raises(DomainError):
            shot_noise(1e-4, 1.0, 0.3)

    def test_non_finite_total_time_rejected(self):
        # NaN passed the "evolution time exceeds the total" check: noise NaN
        with pytest.raises(ConfigError, match="total measurement time"):
            shot_noise(math.nan, 1e-4)


# --------------------------------------------------------------- limits
class TestMinDetectableField:
    def test_limit_times_sqrt_time_equals_eta(self):
        cal = Calibration()
        b, t2, c = 1.5, 0.5, 0.3
        for tau in (0.08, 0.21, 0.33):
            lim = min_detectable_field(tau, 2.0, b, t2, c, cal)
            eta = sensitivity_eta(tau, b, t2, c, cal)
            assert lim.delta_B_G * math.sqrt(2.0) == pytest.approx(eta, rel=1e-12)

    def test_node_is_insensitive(self):
        cal = Calibration(alpha=1.0, source="refit")
        lim = min_detectable_field(0.5, 1.0, 1.0, 0.5, 0.3, cal)
        assert lim.insensitive
        assert math.isinf(lim.delta_B_G)

    def test_longer_averaging_lowers_the_limit(self):
        a = min_detectable_field(0.2, 1.0, 1.5, 0.5)
        b = min_detectable_field(0.2, 4.0, 1.5, 0.5)
        assert b.delta_B_G == pytest.approx(a.delta_B_G / 2, rel=1e-12)

    def test_evolution_beyond_total_time_rejected(self):
        # a 2 s evolution does not fit in a 1 s measurement
        with pytest.raises(DomainError):
            min_detectable_field(2000.0, 1.0, 1.5, 0.5)


# --------------------------------------------------------------- eta
class TestSensitivityEta:
    def test_algebraic_constancy(self):
        # eta * |sin| * sqrt(tau) * exp(-tau/T2) recovers the same
        # tau-independent constant everywhere, to machine precision
        cal = Calibration()
        for b, t2, c in [(0.9366, 0.5, 0.3), (2.0, 0.3, 0.5), (10.0, 1.1, 0.9)]:
            tau = np.linspace(0.013, 2.0, 97)
            eta = sensitivity_eta(tau, b, t2, c, cal)
            sin_term = np.abs(np.sin(2 * np.pi * tau * b / cal.alpha))
            finite = np.isfinite(eta)
            lhs = eta[finite] * sin_term[finite] * np.sqrt(tau[finite]) * np.exp(
                -tau[finite] / t2
            )
            rhs = 2.0 * cal.alpha * math.sqrt(1e-3) / (math.pi * c)
            assert np.max(np.abs(lhs / rhs - 1.0)) < 1e-12

    def test_constant_reference_value(self):
        tau = 0.2341
        cal = Calibration()
        eta = sensitivity_eta(tau, 0.9366, 0.5, 0.3, cal)
        sin_term = abs(math.sin(2 * math.pi * tau * 0.9366 / cal.alpha))
        recovered = eta * sin_term * math.sqrt(tau) * math.exp(-tau / 0.5)
        assert recovered == pytest.approx(CONSTANT_G_SQHZ, rel=1e-13)

    def test_node_gives_infinity(self):
        cal = Calibration(alpha=1.0, source="refit")
        assert math.isinf(sensitivity_eta(0.5, 1.0, 0.5, 0.3, cal))

    def test_validation(self):
        with pytest.raises(DomainError):
            sensitivity_eta(-0.1, 1.0, 0.5)
        with pytest.raises(DomainError):
            sensitivity_eta(0.1, 0.0, 0.5)
        with pytest.raises(DomainError, match="decay time"):
            sensitivity_eta(0.1, 1.0, 0.0)
        with pytest.raises(ConfigError):
            sensitivity_eta(0.1, 1.0, 0.5, contrast=2.0)

    def test_infinite_decay_time_rejected(self):
        # gave a finite eta (0.32 G/rtHz) for a coherence that never decays
        with pytest.raises(ConfigError, match="decay time"):
            sensitivity_eta(0.1, 1.0, math.inf)


# --------------------------------------------------------------- optimum
class TestOptimalSensitivity:
    def test_reference_optimum(self):
        best = optimal_sensitivity(0.5, 0.3)
        assert best.eta_min_G_sqHz == pytest.approx(ETA_MIN_G_SQHZ, rel=1e-12)
        assert best.eta_min_uT_sqHz == pytest.approx(20.7248, rel=1e-4)
        assert best.tau_opt_ms == pytest.approx(0.25)
        assert best.matched_B_G == pytest.approx(0.9366)

    def test_grid_never_beats_the_analytic_envelope(self):
        report = build_report(0.5)
        finite = report.eta_G_sqHz[np.isfinite(report.eta_G_sqHz)]
        assert finite.min() >= report.eta_min_G_sqHz * (1 - 1e-9)
        # and at the matched field the grid minimum touches it closely
        assert finite.min() <= report.eta_min_G_sqHz * 1.02

    def test_eta_at_the_exact_optimum_point(self):
        best = optimal_sensitivity(0.5, 0.3)
        eta_there = sensitivity_eta(best.tau_opt_ms, best.matched_B_G, 0.5, 0.3)
        assert eta_there == pytest.approx(best.eta_min_G_sqHz, rel=1e-12)

    def test_ensemble_improves_by_sqrt_n(self):
        best = optimal_sensitivity(0.5, 0.3, n_centers=4)
        assert best.ensemble_eta_G_sqHz == pytest.approx(
            best.eta_min_G_sqHz / 2.0, rel=1e-12
        )

    def test_scaling_with_t2(self):
        # eta_min ~ 1/sqrt(T2): four times the coherence halves eta
        a = optimal_sensitivity(0.25, 0.3)
        b = optimal_sensitivity(1.0, 0.3)
        assert b.eta_min_G_sqHz == pytest.approx(a.eta_min_G_sqHz / 2, rel=1e-12)

    def test_validation(self):
        with pytest.raises(DomainError):
            optimal_sensitivity(0.0)
        with pytest.raises(ConfigError):
            optimal_sensitivity(0.5, contrast=0.0)
        with pytest.raises(ConfigError):
            optimal_sensitivity(0.5, n_centers=0)

    @pytest.mark.parametrize("t2", [math.nan, math.inf])
    def test_non_finite_decay_time_rejected(self, t2):
        # NaN gave eta_min = NaN, an infinite T2 eta_min = 0.0
        with pytest.raises(ConfigError, match="decay time"):
            optimal_sensitivity(t2)

    def test_center_count_refused_as_the_readout_model_refuses_it(self):
        # a fractional count used to divide the optimum by sqrt(2.5)
        with pytest.raises(ConfigError, match="n_centers"):
            ReadoutModel(n_centers=2.5)
        with pytest.raises(ConfigError, match="n_centers"):
            optimal_sensitivity(0.5, n_centers=2.5)


# --------------------------------------------------------------- report
class TestBuildReport:
    def test_grid_and_metadata(self):
        report = build_report(0.5, ReadoutModel(C=0.3, n_centers=2))
        assert report.tau_grid_ms[0] == pytest.approx(0.01)
        assert report.tau_grid_ms[-1] == pytest.approx(1.25)
        assert len(report.tau_grid_ms) == 400
        assert report.B_G == pytest.approx(0.9366)
        assert report.n_centers == 2
        assert np.all(report.eta_G_sqHz > 0)

    def test_explicit_field(self):
        report = build_report(0.5, field_g=5.0)
        assert report.B_G == 5.0

    @pytest.mark.parametrize("field_g", [0.0, -1.0])
    def test_non_positive_field_rejected(self, field_g):
        with pytest.raises(DomainError, match=f"field must be positive, got {field_g}"):
            build_report(0.5, field_g=field_g)

    def test_json_replaces_infinities(self):
        cal = Calibration(alpha=1.0, source="refit")
        # tau grid hits the node at tau = 0.5 exactly (T2 = 0.25 -> grid
        # from 0.005 to 0.625 in steps of 0.005 with 125 points)
        report = build_report(0.25, cal=cal, field_g=1.0, tau_points=125)
        d = report.to_json_dict()
        assert any(v is None for v in d["eta_G_per_sqrtHz"])
        assert d["eta_min_uT_per_sqrtHz"] == pytest.approx(
            report.eta_min_G_sqHz * 100
        )

    def test_inconsistent_grid_rejected(self):
        with pytest.raises(DomainError):
            SensitivityReport(
                tau_grid_ms=np.array([0.1, 0.2]),
                eta_G_sqHz=np.array([0.05, 0.2]),
                tau_opt_ms=0.25,
                eta_min_G_sqHz=0.2,
                ensemble_eta_G_sqHz=0.2,
                n_centers=1,
                B_G=1.0,
                T2_ms=0.5,
                C=0.3,
                alpha_ms_G=0.9366,
            )

    def test_non_finite_decay_time_rejected(self):
        with pytest.raises(ConfigError, match="decay time"):
            build_report(math.nan)

    def test_non_finite_field_rejected(self):
        # the grid came back all NaN, written as null in the report JSON
        with pytest.raises(ConfigError, match="field"):
            build_report(0.5, field_g=math.nan)

    def test_tiny_grid_rejected(self):
        with pytest.raises(ConfigError):
            build_report(0.5, tau_points=1)

    def test_unit_conversions(self):
        report = build_report(0.5)
        assert report.eta_uT_sqHz == pytest.approx(report.eta_G_sqHz * 100)
        assert report.eta_nT_sqHz == pytest.approx(report.eta_G_sqHz * 1e5)


class TestDetectionLimitShape:
    def test_default_flag(self):
        lim = DetectionLimit(delta_B_G=0.1)
        assert not lim.insensitive
