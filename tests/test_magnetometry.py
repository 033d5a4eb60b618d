"""Inversion, reconstruction, levels, ODMR and sign resolution.

Every refusal of the magnetometry module is a row of ``REFUSALS``: a call,
the exact exception class it raises and the text of its one-line message,
held to the checks of ``refusals.check_refusal``.
"""

import math

import numpy as np
import pytest

from nvmag.constants import GAMMA_E_GHZ_PER_G, ZERO_FIELD_SPLITTING_GHZ
from nvmag.errors import ConfigError, DomainError
from nvmag.magnetometry import (
    AxisMeasurement,
    Calibration,
    FieldEstimate,
    invert_TR_to_B,
    make_simulated_probe,
    measurements_to_components,
    odmr_transitions,
    reconstruct_field,
    resolve_alignment,
    subtract_bias,
    zeeman_levels,
)

from oracles import spin1_levels_charpoly
from refusals import Refusal, check_refusal, install

D = ZERO_FIELD_SPLITTING_GHZ
GE = GAMMA_E_GHZ_PER_G

AXES = [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)]


# ------------------------------------------------------------- inversion
class TestInversion:
    def test_revival_law_round_trip(self):
        cal = Calibration()
        for b in (0.5, 2.0, 10.0, 100.0):
            assert invert_TR_to_B(cal.alpha / b, cal) == pytest.approx(b, rel=1e-14)

    def test_custom_alpha(self):
        cal = Calibration(alpha=1.0, source="refit")
        assert invert_TR_to_B(0.25, cal) == pytest.approx(4.0)

    def test_subtract_bias(self):
        assert subtract_bias(5.1, 5.0) == pytest.approx(0.1, abs=1e-12)


# ------------------------------------------------------------- components
class TestMeasurementsToComponents:
    def test_three_axes_invert_componentwise(self):
        cal = Calibration()
        b = (1.5, 2.0, 6.0)
        meas = [
            AxisMeasurement(axis=a, T_R=cal.alpha / bi)
            for a, bi in zip(AXES, b)
        ]
        comps = measurements_to_components(meas, cal)
        assert comps == pytest.approx(b, rel=1e-12)

    def test_bias_is_subtracted_and_magnitude_taken(self):
        cal = Calibration(alpha=1.0, source="refit")
        meas = [
            AxisMeasurement(axis=AXES[0], T_R=1.0 / 5.1, bias=5.0),
            AxisMeasurement(axis=AXES[1], T_R=1.0 / 4.9, bias=5.0),
            AxisMeasurement(axis=AXES[2], T_R=1.0 / 5.0, bias=5.0),
        ]
        comps = measurements_to_components(meas, cal)
        # net projections +0.1, -0.1, 0.0 -> unsigned 0.1, 0.1, 0.0
        assert comps == pytest.approx((0.1, 0.1, 0.0), abs=1e-9)


# ------------------------------------------------------------- reconstruction
class TestReconstructField:
    def test_magnitude_and_cosines(self):
        est = reconstruct_field((1.0, 2.0, 2.0))
        assert est.magnitude == pytest.approx(3.0, rel=1e-14)
        assert est.direction_cosines == pytest.approx(
            (1 / 3, 2 / 3, 2 / 3), rel=1e-14
        )

    def test_eight_sign_candidates_in_general_position(self):
        est = reconstruct_field((1.0, 2.0, 2.0))
        assert len(est.sign_candidates) == 8
        for cand in est.sign_candidates:
            # every candidate preserves the magnitude
            assert np.linalg.norm(cand) == pytest.approx(3.0, rel=1e-14)
            # and its antipode is also a candidate
            assert tuple(-c for c in cand) in est.sign_candidates

    def test_zero_component_collapses_duplicates(self):
        est = reconstruct_field((0.0, 3.0, 4.0))
        assert len(est.sign_candidates) == 4

    def test_json_keys(self):
        est = reconstruct_field((0.0, 0.0, 2.0))
        d = est.to_json_dict()
        assert d["magnitude_G"] == pytest.approx(2.0)
        assert len(d["sign_candidates_G"]) == 2
        assert d["direction_cosines"] == pytest.approx((0.0, 0.0, 1.0))


# ------------------------------------------------------------- level solver
class TestZeemanLevels:
    def test_axial_closed_form(self):
        for bz in (0.5, 10.0, 100.0, 500.0):
            levels = zeeman_levels((0.0, 0.0, bz))
            expected = np.sort([0.0, D - GE * bz, D + GE * bz])
            assert np.allclose(levels, expected, atol=1e-10)

    def test_axial_splitting_at_ten_gauss(self):
        spectrum = odmr_transitions((0.0, 0.0, 10.0))
        assert spectrum.splitting == pytest.approx(0.05605, abs=1e-12)

    def test_transverse_matches_characteristic_polynomial(self):
        for field in [(7.0, 0.0, 0.0), (3.0, 4.0, 5.0), (0.2, -1.3, 0.7)]:
            levels = zeeman_levels(field)
            oracle = spin1_levels_charpoly(field, D, GE)
            assert np.allclose(levels, oracle, atol=1e-10)

    def test_levels_ascend(self):
        levels = zeeman_levels((12.0, -7.0, 3.0))
        assert levels[0] <= levels[1] <= levels[2]


# ------------------------------------------------------------- ODMR spectra
class TestOdmrTransitions:
    def test_aligned_field_is_symmetric(self):
        spectrum = odmr_transitions((0.0, 0.0, 25.0))
        assert spectrum.asymmetry <= 1e-12
        assert spectrum.splitting == pytest.approx(2 * GE * 25.0, rel=1e-12)
        assert spectrum.f_minus == pytest.approx(D - GE * 25.0, rel=1e-12)
        assert spectrum.f_plus == pytest.approx(D + GE * 25.0, rel=1e-12)

    def test_misaligned_field_breaks_symmetry(self):
        aligned = odmr_transitions((0.0, 0.0, 30.0))
        tilted = odmr_transitions((30.0, 0.0, 0.0))
        assert tilted.asymmetry > 100 * aligned.asymmetry
        assert tilted.splitting < aligned.splitting

    def test_zero_field_degenerate_line(self):
        spectrum = odmr_transitions((0.0, 0.0, 0.0))
        assert spectrum.splitting == pytest.approx(0.0, abs=1e-12)
        assert spectrum.f_minus == pytest.approx(D, rel=1e-14)

    def test_json_keys(self):
        d = odmr_transitions((0.0, 0.0, 1.0)).to_json_dict()
        assert set(d) == {"f_minus_GHz", "f_plus_GHz", "splitting_GHz", "asymmetry_GHz"}


# ------------------------------------------------------------- sign resolution
class TestResolveAlignment:
    def true_field(self):
        return 0.5 * np.array([1.0, 2.0, 2.0]) / 3.0

    def test_probe_along_true_axis_sees_aligned_spectrum(self):
        true = self.true_field()
        probe = make_simulated_probe(true)
        spectrum = probe(true / np.linalg.norm(true))
        assert spectrum.asymmetry <= 1e-12
        assert spectrum.splitting == pytest.approx(2 * GE * 0.5, rel=1e-9)

    def test_selects_antipodal_family_of_true_direction(self):
        true = self.true_field()
        est = reconstruct_field(np.abs(true))
        probe = make_simulated_probe(true)
        res = resolve_alignment(est.sign_candidates, probe)
        assert res.resolved
        assert len(res.selected) == 2
        assert "antiparallel" in res.note
        assert len(res.spectra) == len(est.sign_candidates)
        selected = {tuple(np.sign(c)) for c in res.selected}
        assert (1.0, 1.0, 1.0) in selected
        assert (-1.0, -1.0, -1.0) in selected

    def test_no_candidate_matches_a_rotated_probe(self):
        # probe sits in a field along x, candidates span (+-1,+-1,+-1)/sqrt3
        probe = make_simulated_probe((0.5, 0.0, 0.0))
        cands = reconstruct_field((0.3, 0.3, 0.3)).sign_candidates
        res = resolve_alignment(cands, probe)
        assert not res.resolved
        assert res.selected == ()
        assert "no candidate" in res.note

    def test_indistinguishable_directions_tie_unresolved(self):
        # both candidate axes are perpendicular to the true field, so the
        # probe sees the identical purely-transverse spectrum for each:
        # a tie across genuinely distinct directions must not "resolve"
        probe = make_simulated_probe((0.0, 0.0, 0.5))
        res = resolve_alignment(
            [(3.0, 4.0, 0.0), (4.0, 3.0, 0.0)], probe, tolerance_ghz=1.0
        )
        assert not res.resolved
        assert "distinct directions" in res.note
        assert len(res.selected) == 2

    def test_minimization_beats_a_loose_gate(self):
        # at 0.5 G the nearest wrong sign family sits within 1 MHz on both
        # gates; only asymmetry minimization separates it from the truth
        true = self.true_field()
        est = reconstruct_field(np.abs(true))
        probe = make_simulated_probe(true)
        res = resolve_alignment(est.sign_candidates, probe, tolerance_ghz=1e-3)
        gated = [
            s
            for s, c in zip(res.spectra, est.sign_candidates)
            if s.asymmetry <= 1e-3
            and abs(s.splitting - 2 * GE * np.linalg.norm(c)) <= 1e-3
        ]
        assert len(gated) > 2  # the gate alone really is ambiguous here
        assert res.resolved and len(res.selected) == 2

    def test_single_candidate_resolves_without_a_twin(self):
        # no antiparallel twin among the candidates: one winner and no note
        probe = make_simulated_probe((0.0, 0.0, 0.5))
        res = resolve_alignment([(0.0, 0.0, 0.5)], probe)
        assert res.resolved
        assert res.selected == ((0.0, 0.0, 0.5),)
        assert res.note == ""


# ------------------------------------------------------- end-to-end vector
class TestVectorReconstruction:
    def test_exact_revival_times_reconstruct_the_field(self):
        cal = Calibration()
        true = np.array([0.5, -1.2, 2.0])
        meas = [
            AxisMeasurement(axis=a, T_R=cal.alpha / abs(b))
            for a, b in zip(AXES, true)
        ]
        est = reconstruct_field(measurements_to_components(meas, cal))
        assert est.magnitude == pytest.approx(np.linalg.norm(true), rel=1e-12)
        assert est.components == pytest.approx(tuple(np.abs(true)), rel=1e-12)
        probe = make_simulated_probe(true)
        res = resolve_alignment(est.sign_candidates, probe)
        assert res.resolved
        signs = {tuple(np.sign(c)) for c in res.selected}
        assert (1.0, -1.0, 1.0) in signs


# ------------------------------------------------------------- refusals
PROBE = make_simulated_probe(0.5 * np.array([1.0, 2.0, 2.0]) / 3.0)
THREE = "must hold three numbers (three components), got (1.0, 2.0)"
NOT_FINITE = [(math.nan, "must be finite"), (math.inf, "must be finite")]
NOT_NUMBERS = NOT_FINITE + [(True, "must be a number")]

REFUSALS = {"TestInversion": {
    "test_nonpositive_revival_time_rejected": [
        Refusal(DomainError, f"revival time must be positive, got {t}", invert_TR_to_B, t)
        for t in (0.0, -1.0)],
    "test_calibration_validation": [
        Refusal(ConfigError, "calibration constant must be positive, got 0.0", Calibration,
                alpha=0.0),
        Refusal(ConfigError, 'calibration source must be "paper" or "refit"', Calibration,
                source="guess")],
    # an infinite alpha inverted every spacing to an infinite field, and a NaN
    # one every measurement to NaN components
    **{f"test_calibration_must_be_finite[{alpha}]": Refusal(
        ConfigError, f"calibration constant must be finite, got {alpha}", Calibration, alpha)
       for alpha, _ in NOT_FINITE},
    **{f"test_revival_time_that_is_not_a_finite_number_rejected[{t}]": Refusal(
        ConfigError, f"revival time {says}, got {t}", invert_TR_to_B, t)
       for t, says in NOT_NUMBERS},
}, "TestMeasurementsToComponents": {
    "test_wrong_axis_count_rejected": Refusal(
        ConfigError, "component reconstruction needs exactly three axes",
        measurements_to_components, [AxisMeasurement(axis=AXES[0], T_R=1.0)]),
    "test_non_orthogonal_axes_rejected": Refusal(
        ConfigError, "measurement axes must be mutually orthogonal", measurements_to_components,
        [AxisMeasurement(axis, 1.0) for axis in [AXES[0], (0.5**0.5, 0.5**0.5, 0.0), AXES[2]]]),
    "test_axis_must_be_unit": Refusal(
        ConfigError, "measurement axis must be a unit vector", AxisMeasurement, (1.0, 1.0, 0.0),
        1.0),
    "test_revival_time_must_be_positive": Refusal(
        ConfigError, "T_R must be positive, got 0.0", AxisMeasurement, AXES[0], 0.0),
    **{f"test_revival_time_must_be_a_finite_number[{t}]": Refusal(
        ConfigError, f"T_R {says}, got {t}", AxisMeasurement, (1, 0, 0), t)
       for t, says in NOT_NUMBERS + [(-math.inf, "must be finite")]},
    **{f"test_axis_must_hold_finite_numbers[axis{i}]": Refusal(
        ConfigError, says, AxisMeasurement, axis, 1.0)
       for i, (axis, says) in enumerate([((math.nan, 0.0, 1.0), "axis must be finite, got nan"),
                                         ((0.0, True, 0.0), "axis must be a number, got True")])},
    **{f"test_bias_must_be_a_finite_number[{bias}]": Refusal(
        ConfigError, f"bias {says}, got {bias}", AxisMeasurement, AXES[0], 1.0, bias)
       for bias, says in NOT_NUMBERS + [(-math.inf, "must be finite")]},
}, "TestReconstructField": {
    "test_zero_field_rejected": Refusal(
        DomainError, "zero field: direction is undefined", reconstruct_field, (0.0, 0.0, 0.0)),
    "test_wrong_size_rejected": Refusal(
        ConfigError, "field components " + THREE, reconstruct_field, (1.0, 2.0)),
    # NaN slipped past the zero-field check and the candidate dedupe (nan !=
    # nan): NaN magnitude, eight NaN candidates
    "test_non_finite_component_rejected": Refusal(
        ConfigError, "field components must be finite, got nan", reconstruct_field,
        [math.nan, 1.0, 1.0]),
    "test_cosines_must_be_unit": Refusal(
        ConfigError, "direction cosines must have unit square sum", FieldEstimate, 1.0,
        (0.5, 0.5, 0.5), (1.0, 0.0, 0.0), ()),
}, "TestZeemanLevels": {
    "test_wrong_size_rejected": Refusal(ConfigError, "field " + THREE, zeeman_levels, (1.0, 2.0)),
    # these ended in a LinAlgError from the eigensolver
    "test_non_finite_field_rejected": [
        Refusal(ConfigError, "field must be finite, got nan", zeeman_levels, [math.nan, 0.0, 0.0]),
        Refusal(ConfigError, "field must be finite, got inf", odmr_transitions,
                (math.inf, 0.0, 0.0))],
}, "TestResolveAlignment": {
    "test_probe_requires_unit_axis": Refusal(
        ConfigError, "probe axis must be a unit vector", PROBE, (1.0, 1.0, 0.0)),
    "test_empty_candidates_rejected": Refusal(
        ConfigError, "no candidates to resolve", resolve_alignment, [], PROBE),
    "test_zero_candidate_rejected": Refusal(
        DomainError, "zero-magnitude candidate has no orientation", resolve_alignment,
        [(0.0, 0.0, 0.0)], PROBE),
    # a LinAlgError from the eigensolver, or numpy's "cannot reshape"
    **{f"test_candidate_must_hold_three_finite_numbers[candidate{i}]": Refusal(
        ConfigError, says, resolve_alignment, [candidate], PROBE)
       for i, (candidate, says) in enumerate([
           ((math.nan, 0.0, 1.0), "candidate must be finite, got nan"),
           ((1.0, 2.0), "candidate " + THREE)])},
    "test_true_field_must_hold_three_numbers": Refusal(
        ConfigError, "true field " + THREE, make_simulated_probe, (1.0, 2.0)),
}}

install(REFUSALS, check_refusal, globals())
