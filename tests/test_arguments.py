"""Every public callable refuses NaN, infinities and bools in each numeric argument.

Each entry of CHECKED is one valid call.  Each number in its arguments, one
at a time, is replaced by NaN, +inf, -inf and True, and a float also by an
int too large for a float; the call must raise a ConfigError: a
non-number is an input error, never a physics one.  The numbers inside NuclearSpin records and the values of a
mapping count as arguments too.  A numeric array argument is replaced as a whole by the same
values, and tried with its first entry NaN, +inf or -inf.
A public name of ``nvmag`` in neither CHECKED nor EXEMPT fails the test.
"""

import math

import numpy as np
import pytest

import nvmag
from nvmag import (
    AxisMeasurement,
    BathRealization,
    Calibration,
    CoherenceTrace,
    ConfigError,
    EchoSchedule,
    FieldVector,
    LatticeConfig,
    NuclearSpin,
    PowerLawFit,
    ReadoutModel,
    RevivalPeak,
    analytic_coherence,
    analytic_trace,
    build_report,
    effective_field,
    extract_TR,
    extract_timescales,
    find_revival_peaks,
    fit_power_law,
    fluorescence_signal,
    hyperfine_vector,
    invert_TR_to_B,
    make_simulated_probe,
    min_detectable_field,
    nuclear_dipolar_coupling,
    odmr_transitions,
    optimal_sensitivity,
    pair_echo_factor,
    reconstruct_field,
    required_time_step,
    resolve_alignment,
    sample_bath,
    sensitivity_eta,
    shot_noise,
    signal_response,
    single_spin_echo_factor,
    subtract_bias,
    zeeman_levels,
)
from nvmag.constants import GAMMA_N_13C_KHZ_PER_G

SCHEDULE = EchoSchedule.regular(0.3, 0.002)
TRACE = analytic_trace(SCHEDULE, 0.1, 0.5)
FIELD = FieldVector(0.0, 0.0, 10.0)
CAL = Calibration()
PROBE = make_simulated_probe((0.0, 0.0, 0.5))
SPINS = (NuclearSpin((0.4, 0.0, 0.2), (12.0, -3.0, 7.0)),
         NuclearSpin((0.0, 0.5, -0.1), (-5.0, 8.0, 2.0)))
PEAKS = [RevivalPeak(0.0, 1.0), RevivalPeak(0.1, 0.8), RevivalPeak(0.2, 0.6)]
TIMES = np.array([0.1, 0.2])

# (name, callable, positional arguments of one valid call)
CHECKED = [
    ("LatticeConfig", LatticeConfig, (3.567, 4.0, 1.55, 0.011, 0, 1.0)),
    ("BathRealization", BathRealization, (list(SPINS), {(0, 1): 0.9}, GAMMA_N_13C_KHZ_PER_G, 0)),
    ("hyperfine_vector", hyperfine_vector, ((0.3, -0.4, 0.5),)),
    ("nuclear_dipolar_coupling", nuclear_dipolar_coupling, ((0.1, 0.2, 0.3), (-0.4, 0.5, 0.1))),
    ("sample_bath", sample_bath, (np.array([[0.3, 0.0, 0.1], [0.0, 0.4, -0.2]]),
                                 LatticeConfig(abundance=1.0))),
    ("FieldVector", FieldVector, (0.0, 0.0, 10.0)),
    ("FieldVector.from_sequence", FieldVector.from_sequence, ((0.0, 0.0, 10.0),)),
    ("FieldVector.along_z", FieldVector.along_z, (10.0,)),
    ("required_time_step", required_time_step, (10.0,)),
    ("EchoSchedule", EchoSchedule, (np.array([0.0, 0.1, 0.2]),)),
    ("EchoSchedule.regular", EchoSchedule.regular, (0.3, 0.002)),
    ("EchoSchedule.for_field", EchoSchedule.for_field, (10.0, 0.2, 48)),
    ("EchoSchedule.validate_resolution", SCHEDULE.validate_resolution, (10.0,)),
    ("CoherenceTrace", CoherenceTrace, (np.array([0.0, 0.1]), np.array([1.0, 0.5]))),
    ("effective_field", effective_field, (FIELD, np.array([[10.0, -4.0, 3.0]]))),
    ("single_spin_echo_factor", single_spin_echo_factor,
     ((0.0, 0.0, 10.0), (3.0, -2.0, 8.5), TIMES)),
    ("pair_echo_factor", pair_echo_factor, (*SPINS, 0.9, FIELD, TIMES)),
    ("analytic_coherence", analytic_coherence, (0.1, 0.5, TIMES)),
    ("analytic_trace", analytic_trace, (SCHEDULE, 0.1, 0.5)),
    ("PowerLawFit", PowerLawFit, (0.93, -1.0, 0.01, 3)),
    ("find_revival_peaks", find_revival_peaks, (TRACE, 0.02)),
    ("extract_timescales", extract_timescales, (TRACE, 0.02)),
    ("extract_TR", extract_TR, (PEAKS, 0.01)),
    ("fit_power_law", fit_power_law, (np.array([1.0, 2.0, 4.0]), np.array([1.0, 0.5, 0.25]))),
    ("Calibration", Calibration, (0.9366,)),
    ("AxisMeasurement", AxisMeasurement, ((1.0, 0.0, 0.0), 1.0, 0.5)),
    ("invert_TR_to_B", invert_TR_to_B, (0.0933, CAL)),
    ("subtract_bias", subtract_bias, (5.1, 5.0)),
    ("reconstruct_field", reconstruct_field, ((1.0, 2.0, 2.0),)),
    ("zeeman_levels", zeeman_levels, ((1.0, 2.0, 3.0),)),
    ("odmr_transitions", odmr_transitions, ((1.0, 2.0, 3.0),)),
    ("make_simulated_probe", make_simulated_probe, ((0.0, 0.0, 0.5),)),
    ("make_simulated_probe.probe", PROBE, ((0.0, 0.0, 1.0),)),
    ("resolve_alignment", resolve_alignment, ([(0.0, 0.0, 0.5)], PROBE, 1e-3)),
    ("ReadoutModel", ReadoutModel, (0.3, 2)),
    ("fluorescence_signal", fluorescence_signal, (TIMES, 0.1, 0.5)),
    ("signal_response", signal_response, (TIMES, 1.5, 0.5, CAL)),
    ("shot_noise", shot_noise, (1.0, 1e-4, 0.3)),
    ("min_detectable_field", min_detectable_field, (0.2, 1.0, 1.5, 0.5, 0.3, CAL)),
    ("sensitivity_eta", sensitivity_eta, (TIMES, 1.5, 0.5, 0.3, CAL)),
    ("optimal_sensitivity", optimal_sensitivity, (0.5, 0.3, CAL, 2)),
    ("build_report", build_report, (0.5, ReadoutModel(), CAL, 2.0, 50)),
]

# An infinite decay time is the undamped collapse-revival model, not an error.
UNDAMPED = {("analytic_coherence", (1,)), ("analytic_trace", (2,)), ("fluorescence_signal", (2,))}

_OBJECTS_ONLY = "takes no number, only nvmag objects that checked theirs when built"
_RECORD = "an output record a checked function builds"
_PEAKS = ("takes RevivalPeak records, which check nothing; it refuses peak times that"
          " are not finite and strictly increasing, and a non-finite height, itself"
          " (test_timescales)")
EXEMPT = {
    "generate_lattice_sites": _OBJECTS_ONLY,
    "echo_coherence_trace": _OBJECTS_ONLY,
    "ensemble_average": _OBJECTS_ONLY,
    "extract_T2": _PEAKS,
    "extract_Tw": _OBJECTS_ONLY,
    "measurements_to_components": _OBJECTS_ONLY,
    "AlignmentResolution": _RECORD,
    "DetectionLimit": _RECORD + "; its limit is infinite at a response node",
    "FieldEstimate": _RECORD,
    "OdmrSpectrum": _RECORD,
    "OptimalPoint": _RECORD,
    "RevivalPeak": _RECORD + ("; extract_TR and extract_T2 check the times and heights"
                              " of the peaks they are given"),
    "SensitivityReport": _RECORD + "; eta is infinite at response nodes",
    "TimescaleSet": _RECORD + "; a value that could not be extracted is NaN",
    "NuclearSpin": ("a record of two vectors that checks nothing; BathRealization and"
                    " pair_echo_factor read each vector through finite_vector, and the"
                    " sweep reaches the numbers of the records passed to them"),
}


def _leaves(value, path=()):
    """(path, value) of every number and numeric array in nested tuples, lists,
    mapping values and NuclearSpin records (as (position, hyperfine))."""
    if isinstance(value, np.ndarray) or (
        isinstance(value, (int, float)) and not isinstance(value, bool)
    ):
        yield path, value
    elif isinstance(value, NuclearSpin):
        yield from _leaves((value.position, value.hyperfine), path)
    elif isinstance(value, dict):
        for key, item in value.items():
            yield from _leaves(item, path + (key,))
    elif isinstance(value, (tuple, list)):
        for i, item in enumerate(value):
            yield from _leaves(item, path + (i,))


def _replaced(value, path, new):
    if not path:
        return new
    if isinstance(value, NuclearSpin):
        return NuclearSpin(*_replaced((value.position, value.hyperfine), path, new))
    if isinstance(value, dict):
        return {**value, path[0]: _replaced(value[path[0]], path[1:], new)}
    items = list(value)
    items[path[0]] = _replaced(items[path[0]], path[1:], new)
    return type(value)(items)


def _bad_values(value):
    yield from (math.nan, math.inf, -math.inf, True)
    if isinstance(value, float):
        yield 10**400
    if isinstance(value, np.ndarray):
        for bad in (math.nan, math.inf, -math.inf):
            first_bad = value.copy()
            first_bad.flat[0] = bad
            yield first_bad


@pytest.mark.parametrize("name,call,args", CHECKED, ids=[entry[0] for entry in CHECKED])
def test_each_numeric_argument_refuses_nan_infinities_and_bools(name, call, args):
    call(*args)
    accepted = []
    for path, value in _leaves(args):
        for bad in _bad_values(value):
            bad_args = _replaced(args, path, bad)
            if (name, path) in UNDAMPED and bad is math.inf:
                call(*bad_args)
                continue
            try:
                call(*bad_args)
            except ConfigError:
                continue
            accepted.append(f"argument {path} = {bad!r}")
    assert not accepted, f"{name} accepted " + ", ".join(accepted)


def test_every_public_callable_is_checked_or_exempt():
    public = {
        name for name in nvmag.__all__
        if callable(obj := getattr(nvmag, name))
        and not (isinstance(obj, type) and issubclass(obj, Exception))
    }
    checked = {entry[0].split(".")[0] for entry in CHECKED}
    assert public - checked - set(EXEMPT) == set()
    assert set(EXEMPT) <= public and not checked & set(EXEMPT)
