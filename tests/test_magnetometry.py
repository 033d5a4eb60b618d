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

    def test_nonpositive_revival_time_rejected(self):
        with pytest.raises(DomainError):
            invert_TR_to_B(0.0)
        with pytest.raises(DomainError):
            invert_TR_to_B(-1.0)

    def test_calibration_validation(self):
        with pytest.raises(ConfigError):
            Calibration(alpha=0.0)
        with pytest.raises(ConfigError):
            Calibration(source="guess")

    @pytest.mark.parametrize("alpha", [math.nan, math.inf])
    def test_calibration_must_be_finite(self, alpha):
        # an infinite alpha inverted every spacing to an infinite field, and a
        # NaN one every measurement to NaN components
        with pytest.raises(ConfigError, match="calibration constant"):
            Calibration(alpha=alpha)

    @pytest.mark.parametrize("t_revival", [math.nan, math.inf, True])
    def test_revival_time_that_is_not_a_finite_number_rejected(self, t_revival):
        with pytest.raises(ConfigError, match="revival time"):
            invert_TR_to_B(t_revival)

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

    def test_wrong_axis_count_rejected(self):
        meas = [AxisMeasurement(axis=AXES[0], T_R=1.0)]
        with pytest.raises(ConfigError):
            measurements_to_components(meas)

    def test_non_orthogonal_axes_rejected(self):
        s = 1.0 / math.sqrt(2.0)
        meas = [
            AxisMeasurement(axis=(1.0, 0.0, 0.0), T_R=1.0),
            AxisMeasurement(axis=(s, s, 0.0), T_R=1.0),
            AxisMeasurement(axis=(0.0, 0.0, 1.0), T_R=1.0),
        ]
        with pytest.raises(ConfigError):
            measurements_to_components(meas)

    def test_axis_must_be_unit(self):
        with pytest.raises(ConfigError):
            AxisMeasurement(axis=(1.0, 1.0, 0.0), T_R=1.0)

    def test_revival_time_must_be_positive(self):
        with pytest.raises(ConfigError):
            AxisMeasurement(axis=AXES[0], T_R=0.0)

    @pytest.mark.parametrize("T_R", [math.inf, -math.inf, math.nan, True])
    def test_revival_time_must_be_a_finite_number(self, T_R):
        with pytest.raises(ConfigError, match="T_R"):
            AxisMeasurement(axis=(1, 0, 0), T_R=T_R)

    @pytest.mark.parametrize("axis", [(math.nan, 0.0, 1.0), (0.0, True, 0.0)])
    def test_axis_must_hold_finite_numbers(self, axis):
        with pytest.raises(ConfigError, match="axis"):
            AxisMeasurement(axis=axis, T_R=1.0)

    @pytest.mark.parametrize("bias", [math.inf, -math.inf, math.nan, True])
    def test_bias_must_be_a_finite_number(self, bias):
        with pytest.raises(ConfigError, match="bias"):
            AxisMeasurement(axis=AXES[0], T_R=1.0, bias=bias)


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

    def test_zero_field_rejected(self):
        with pytest.raises(DomainError):
            reconstruct_field((0.0, 0.0, 0.0))

    def test_wrong_size_rejected(self):
        with pytest.raises(ConfigError):
            reconstruct_field((1.0, 2.0))

    def test_non_finite_component_rejected(self):
        # NaN slipped past the zero-field check and the candidate dedupe
        # (nan != nan): NaN magnitude, eight NaN candidates
        with pytest.raises(ConfigError, match="finite"):
            reconstruct_field([math.nan, 1.0, 1.0])

    def test_json_keys(self):
        est = reconstruct_field((0.0, 0.0, 2.0))
        d = est.to_json_dict()
        assert d["magnitude_G"] == pytest.approx(2.0)
        assert len(d["sign_candidates_G"]) == 2
        assert d["direction_cosines"] == pytest.approx((0.0, 0.0, 1.0))

    def test_cosines_must_be_unit(self):
        with pytest.raises(ConfigError):
            FieldEstimate(
                magnitude=1.0,
                direction_cosines=(0.5, 0.5, 0.5),
                components=(1.0, 0.0, 0.0),
                sign_candidates=(),
            )


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

    def test_wrong_size_rejected(self):
        with pytest.raises(ConfigError):
            zeeman_levels((1.0, 2.0))

    def test_non_finite_field_rejected(self):
        # these ended in a LinAlgError from the eigensolver
        with pytest.raises(ConfigError, match="finite"):
            zeeman_levels([math.nan, 0.0, 0.0])
        with pytest.raises(ConfigError, match="finite"):
            odmr_transitions((math.inf, 0.0, 0.0))


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

    def test_probe_requires_unit_axis(self):
        probe = make_simulated_probe(self.true_field())
        with pytest.raises(ConfigError):
            probe((1.0, 1.0, 0.0))

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

    def test_empty_candidates_rejected(self):
        probe = make_simulated_probe(self.true_field())
        with pytest.raises(ConfigError):
            resolve_alignment([], probe)

    def test_zero_candidate_rejected(self):
        probe = make_simulated_probe(self.true_field())
        with pytest.raises(DomainError):
            resolve_alignment([(0.0, 0.0, 0.0)], probe)

    @pytest.mark.parametrize("candidate", [(math.nan, 0.0, 1.0), (1.0, 2.0)])
    def test_candidate_must_hold_three_finite_numbers(self, candidate):
        # a LinAlgError from the eigensolver, or numpy's "cannot reshape"
        probe = make_simulated_probe(self.true_field())
        with pytest.raises(ConfigError, match="candidate"):
            resolve_alignment([candidate], probe)

    def test_true_field_must_hold_three_numbers(self):
        with pytest.raises(ConfigError, match="three numbers"):
            make_simulated_probe((1.0, 2.0))

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
