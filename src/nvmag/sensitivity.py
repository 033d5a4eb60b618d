"""Photon-shot-noise magnetometer sensitivity chain.

The echo magnetometer reads a fluorescence level whose field dependence
comes entirely through the revival spacing.  Chaining the slope of that
signal against shot noise gives the minimum detectable field for one
readout and, normalized per unit bandwidth, the sensitivity figure
eta = deltaB * sqrt(T).  Everything here is closed-form arithmetic in the
package units (ms, Gauss); per-root-hertz values convert ms -> s at the
reporting boundary, and Gauss -> microtesla only in the report object.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bath import finite_array, finite_number, integer, positive
from .constants import (
    READOUT_CONTRAST_DEFAULT,
    G_TO_UT,
    SQRT_MS_TO_SQRT_S,
)
from .decoherence import analytic_coherence
from .errors import ConfigError, DomainError
from .magnetometry import Calibration

# |sin(2*pi*tau/T_R)| below this is treated as a node of the response:
# the readout carries no field information there.
_INSENSITIVE_SIN = 1e-12

# points on a report's evolution-time scan
TAU_POINTS_DEFAULT = 400


def _fits_in_total(tau_s, t_total_s) -> None:
    """An evolution of ``tau_s`` seconds must fit in the total measurement time."""
    if tau_s > finite_number(t_total_s, "total measurement time"):
        raise DomainError(
            f"evolution time {tau_s} s exceeds the total measurement time {t_total_s} s"
        )


@dataclass(frozen=True)
class ReadoutModel:
    """Readout constants: contrast factor and center count.  Every function
    here checks a contrast or a center count by building one of these."""

    C: float = READOUT_CONTRAST_DEFAULT
    n_centers: int = 1

    def __post_init__(self) -> None:
        if not 0.0 < finite_number(self.C, "contrast") <= 1.0:
            raise ConfigError(f"contrast must be in (0, 1], got {self.C}")
        if integer(self.n_centers, "n_centers") < 1:
            raise ConfigError("n_centers must be a positive integer")


@dataclass(frozen=True)
class DetectionLimit:
    """Minimum detectable field for one readout configuration.

    ``insensitive`` marks evolution times sitting on a node of the signal
    response, where the field is invisible and the limit diverges.
    """

    delta_B_G: float
    insensitive: bool = False


@dataclass(frozen=True)
class OptimalPoint:
    """Analytic sensitivity optimum and the operating point realizing it."""

    eta_min_G_sqHz: float
    tau_opt_ms: float
    matched_B_G: float  # field whose revival spacing puts the k = 0
    # response antinode exactly at tau_opt
    ensemble_eta_G_sqHz: float

    @property
    def eta_min_uT_sqHz(self) -> float:
        return self.eta_min_G_sqHz * G_TO_UT


@dataclass(frozen=True)
class SensitivityReport:
    """eta over an evolution-time grid plus the analytic optimum."""

    tau_grid_ms: np.ndarray
    eta_G_sqHz: np.ndarray
    tau_opt_ms: float
    eta_min_G_sqHz: float
    ensemble_eta_G_sqHz: float
    n_centers: int
    B_G: float
    T2_ms: float
    C: float
    alpha_ms_G: float

    def __post_init__(self) -> None:
        finite = self.eta_G_sqHz[np.isfinite(self.eta_G_sqHz)]
        if finite.size and finite.min() < self.eta_min_G_sqHz * (1.0 - 1e-9):
            raise DomainError(
                "grid sensitivity beat the analytic optimum: inconsistent inputs"
            )

    @property
    def eta_uT_sqHz(self) -> np.ndarray:
        return self.eta_G_sqHz * G_TO_UT

    @property
    def eta_nT_sqHz(self) -> np.ndarray:
        return self.eta_G_sqHz * G_TO_UT * 1e3

    def to_json_dict(self) -> dict:
        eta = [None if not math.isfinite(v) else v for v in self.eta_G_sqHz]
        return {
            "tau_grid_ms": self.tau_grid_ms.tolist(),
            "eta_G_per_sqrtHz": eta,
            "eta_min_G_per_sqrtHz": self.eta_min_G_sqHz,
            "eta_min_uT_per_sqrtHz": self.eta_min_G_sqHz * G_TO_UT,
            "eta_min_nT_per_sqrtHz": self.eta_min_G_sqHz * G_TO_UT * 1e3,
            "tau_opt_ms": self.tau_opt_ms,
            "ensemble_eta_G_per_sqrtHz": self.ensemble_eta_G_sqHz,
            "n_centers": self.n_centers,
            "B_G": self.B_G,
            "T2_ms": self.T2_ms,
            "C": self.C,
            "alpha_ms_G": self.alpha_ms_G,
        }


def fluorescence_signal(t, t_revival: float, t2: float):
    """Spin-state readout level: 1 at zero delay, 1/2 once coherence is gone.

    Equals 1/2 + L(t)/2 with the analytic collapse-revival coherence L,
    so it inherits that function's domain checks.
    """
    return 0.5 + 0.5 * analytic_coherence(t_revival, t2, t)


def signal_response(tau, field_g: float, t2: float, cal: Calibration):
    """Derivative of the readout signal with respect to field (per Gauss).

    The field enters through the revival spacing alpha/B, so
    dS/dB = -(pi*tau/(2*alpha)) * exp(-tau/T2) * sin(2*pi*tau*B/alpha).
    The leading sign matters: it is fixed by differencing the signal
    itself, and the response crosses zero at every revival node.
    """
    positive(field_g, "field", DomainError)
    positive(t2, "decay time", DomainError)
    tau_arr = finite_array(tau, "evolution times")
    alpha = cal.alpha
    out = (
        -(np.pi * tau_arr / (2.0 * alpha))
        * np.exp(-tau_arr / t2)
        * np.sin(2.0 * np.pi * tau_arr * field_g / alpha)
    )
    return out if out.ndim else float(out)


def shot_noise(t_total_s: float, tau_s: float, contrast: float = READOUT_CONTRAST_DEFAULT) -> float:
    """Photon shot noise of the averaged signal: sqrt(tau/T)/C.

    T/tau repetitions of the sequence fit in the total time T, and the
    noise of the averaged dimensionless signal falls as the square root
    of that count, divided by the readout contrast.
    """
    ReadoutModel(C=contrast)
    _fits_in_total(positive(tau_s, "evolution time", DomainError), t_total_s)
    return math.sqrt(tau_s / t_total_s) / contrast


def min_detectable_field(
    tau_ms: float,
    t_total_s: float,
    field_g: float,
    t2: float,
    contrast: float = READOUT_CONTRAST_DEFAULT,
    cal: Calibration = Calibration(),
) -> DetectionLimit:
    """Smallest field change resolvable above shot noise in one run (Gauss).

    delta_B = shot_noise / |dS/dB| = eta / sqrt(T), with eta from
    :func:`sensitivity_eta`.  At response nodes the readout is blind to the
    field; that is reported as an insensitive result with an infinite limit
    rather than raised, since scanning tau across nodes is routine.
    """
    _fits_in_total(finite_number(tau_ms, "evolution time") * 1e-3, t_total_s)
    eta = sensitivity_eta(tau_ms, field_g, t2, contrast, cal)
    return DetectionLimit(eta / math.sqrt(t_total_s), insensitive=math.isinf(eta))


def sensitivity_eta(
    tau_ms,
    field_g: float,
    t2: float,
    contrast: float = READOUT_CONTRAST_DEFAULT,
    cal: Calibration = Calibration(),
):
    """Sensitivity eta = deltaB*sqrt(T) in G per root hertz.

    eta(tau) = (2*alpha / (pi*C*|sin(2*pi*tau/T_R)|*sqrt(tau))) * exp(tau/T2),
    independent of the total averaging time.  Response nodes give inf.
    Accepts a scalar or an array of evolution times.
    """
    ReadoutModel(C=contrast)
    positive(field_g, "field", DomainError)
    positive(t2, "decay time", DomainError)
    tau_arr = finite_array(tau_ms, "evolution times")
    if np.any(tau_arr <= 0):
        raise DomainError("evolution times must be positive")
    sin_term = np.abs(np.sin(2.0 * np.pi * tau_arr * field_g / cal.alpha))
    with np.errstate(divide="ignore"):
        eta_g_sqms = (
            2.0 * cal.alpha
            / (np.pi * contrast * sin_term * np.sqrt(tau_arr))
            * np.exp(tau_arr / t2)
        )
        eta = np.where(sin_term < _INSENSITIVE_SIN, np.inf, eta_g_sqms)
    eta = eta * SQRT_MS_TO_SQRT_S
    return eta if eta.ndim else float(eta)


def optimal_sensitivity(
    t2: float,
    contrast: float = READOUT_CONTRAST_DEFAULT,
    cal: Calibration = Calibration(),
    n_centers: int = 1,
) -> OptimalPoint:
    """Analytic best sensitivity and the operating point that attains it.

    Minimizing eta over tau under the antinode condition
    2*pi*tau/T_R = (k + 1/2)*pi gives tau_opt = T2/2 and
    eta_min = (2*alpha/(pi*C)) * sqrt(2*e/T2).  The k = 0 antinode sits
    exactly at tau_opt when the revival spacing is 2*T2, i.e. at field
    alpha/(2*T2); at other fields the grid minimum hovers just above
    this envelope.  An ensemble of n independent centers improves the
    result by sqrt(n).
    """
    ReadoutModel(contrast, n_centers)
    positive(t2, "decay time", DomainError)
    eta_min = (
        2.0 * cal.alpha / (math.pi * contrast)
        * math.sqrt(2.0 * math.e / t2)
        * SQRT_MS_TO_SQRT_S
    )
    tau_opt = t2 / 2.0
    matched_b = cal.alpha / (2.0 * t2)
    return OptimalPoint(
        eta_min_G_sqHz=eta_min,
        tau_opt_ms=tau_opt,
        matched_B_G=matched_b,
        ensemble_eta_G_sqHz=eta_min / math.sqrt(n_centers),
    )


def build_report(
    t2: float,
    readout: ReadoutModel = ReadoutModel(),
    cal: Calibration = Calibration(),
    field_g: float | None = None,
    tau_points: int = TAU_POINTS_DEFAULT,
) -> SensitivityReport:
    """Scan eta over tau at one field and attach the analytic optimum.

    With no field given, the scan runs at the matched field where the
    k = 0 antinode coincides with tau_opt, so the grid minimum touches
    the analytic envelope.
    """
    if integer(tau_points, "tau_points") < 2:
        raise ConfigError("tau grid needs at least two points")
    best = optimal_sensitivity(t2, readout.C, cal, readout.n_centers)
    b = best.matched_B_G if field_g is None else field_g
    try:
        tau_grid = np.linspace(t2 / 50.0, 2.5 * t2, tau_points)
    except (ValueError, MemoryError):  # past numpy's size limit or memory
        raise ConfigError(
            f"tau scan of {tau_points} points (tau_points) is too large to build") from None
    eta = sensitivity_eta(tau_grid, b, t2, readout.C, cal)
    return SensitivityReport(
        tau_grid_ms=tau_grid,
        eta_G_sqHz=eta,
        tau_opt_ms=best.tau_opt_ms,
        eta_min_G_sqHz=best.eta_min_G_sqHz,
        ensemble_eta_G_sqHz=best.ensemble_eta_G_sqHz,
        n_centers=readout.n_centers,
        B_G=b,
        T2_ms=t2,
        C=readout.C,
        alpha_ms_G=cal.alpha,
    )
