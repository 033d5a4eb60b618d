"""Field inversion, vector reconstruction, and ODMR sign resolution.

The revival law T_revival = alpha / B turns a measured revival spacing into
a field magnitude; repeating the measurement along three orthogonal defect
orientations gives unsigned components, and an ODMR probe of the candidate
orientations removes the sign ambiguity (up to the antiparallel pair, which
is spectroscopically invisible).

Spin-1 energies are in GHz, fields in Gauss.  The level solver is an exact
3x3 eigendecomposition; closed forms exist only for the axial case and are
used as cross-checks, not as the implementation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .bath import finite_number, finite_vector, positive
from .constants import ALPHA_MS_G, GAMMA_E_GHZ_PER_G, ZERO_FIELD_SPLITTING_GHZ
from .errors import ConfigError, DomainError

_SQ2 = math.sqrt(2.0)

# Spin-1 operators in the (+1, 0, -1) basis.
SPIN1_SX = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex) / _SQ2
SPIN1_SY = np.array([[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]], dtype=complex) / _SQ2
SPIN1_SZ = np.diag([1.0, 0.0, -1.0]).astype(complex)
_ZERO_FIELD_HAM = ZERO_FIELD_SPLITTING_GHZ * (SPIN1_SZ @ SPIN1_SZ)  # D Sz^2

_UNIT_TOL = 1e-9


@dataclass(frozen=True)
class Calibration:
    """Revival-law constant alpha (ms*G) and where it came from.

    source is "paper" for the published fit and "refit" when alpha was
    re-estimated from a fresh simulated sweep.
    """

    alpha: float = ALPHA_MS_G
    source: str = "paper"

    def __post_init__(self) -> None:
        positive(self.alpha, "calibration constant")
        if self.source not in ("paper", "refit"):
            raise ConfigError('calibration source must be "paper" or "refit"')


@dataclass(frozen=True)
class AxisMeasurement:
    """A revival-time measurement taken with the defect axis along ``axis``."""

    axis: tuple[float, float, float]
    T_R: float
    bias: float = 0.0  # bias field applied along the same axis, Gauss

    def __post_init__(self) -> None:
        object.__setattr__(self, "axis", finite_vector(self.axis, "axis"))
        if abs(np.linalg.norm(self.axis) - 1.0) > _UNIT_TOL:
            raise ConfigError("measurement axis must be a unit vector")
        positive(self.T_R, "T_R")
        finite_number(self.bias, "bias")


@dataclass(frozen=True)
class FieldEstimate:
    """Reconstructed field: magnitude, direction cosines, sign candidates."""

    magnitude: float
    direction_cosines: tuple[float, float, float]
    components: tuple[float, float, float]
    sign_candidates: tuple[tuple[float, float, float], ...]

    def __post_init__(self) -> None:
        if abs(sum(c * c for c in self.direction_cosines) - 1.0) > _UNIT_TOL:
            raise ConfigError("direction cosines must have unit square sum")

    def to_json_dict(self) -> dict:
        return {
            "magnitude_G": self.magnitude,
            "direction_cosines": list(self.direction_cosines),
            "components_G": list(self.components),
            "sign_candidates_G": [list(c) for c in self.sign_candidates],
        }


def invert_TR_to_B(t_revival_ms: float, calibration: Calibration = Calibration()) -> float:
    """Field magnitude (Gauss) from a revival spacing: B = alpha / T_R."""
    return calibration.alpha / positive(t_revival_ms, "revival time", DomainError)


def subtract_bias(measured_g: float, bias_g: float) -> float:
    """Remove a known collinear bias from a projected-field measurement."""
    return finite_number(measured_g, "measured field") - finite_number(bias_g, "bias")


def measurements_to_components(
    measurements: list[AxisMeasurement],
    calibration: Calibration = Calibration(),
) -> tuple[float, float, float]:
    """Unsigned components from three orthogonal axis measurements.

    Each measurement inverts to the magnitude of the total projected field
    along its axis; any recorded bias is subtracted afterwards.  Axes must
    be mutually orthogonal unit vectors.
    """
    if len(measurements) != 3:
        raise ConfigError("component reconstruction needs exactly three axes")
    axes = np.array([m.axis for m in measurements], dtype=float)
    gram = axes @ axes.T
    if not np.allclose(gram, np.eye(3), atol=1e-6):
        raise ConfigError("measurement axes must be mutually orthogonal")
    comps = []
    for m in measurements:
        projected = invert_TR_to_B(m.T_R, calibration)
        comps.append(abs(subtract_bias(projected, m.bias)))
    return tuple(comps)


def reconstruct_field(components_g) -> FieldEstimate:
    """Assemble magnitude, direction, and sign candidates from components.

    The per-axis inversion yields only |B_i|, so every sign pattern over the
    nonzero components is a candidate orientation: 2^(number of nonzero
    components) candidates (8 in general position; the antiparallel pair
    among them can never be separated spectroscopically).
    """
    comps = np.array(finite_vector(components_g, "field components"))
    magnitude = float(np.linalg.norm(comps))
    if magnitude == 0.0:
        raise DomainError("zero field: direction is undefined")
    cosines = tuple(float(c) for c in comps / magnitude)

    magnitudes = np.abs(comps)
    candidates = []
    for signs in itertools.product((1.0, -1.0), repeat=3):
        cand = tuple(float(s * m) for s, m in zip(signs, magnitudes))
        if cand not in candidates:
            candidates.append(cand)
    return FieldEstimate(
        magnitude=magnitude,
        direction_cosines=cosines,
        components=tuple(float(c) for c in comps),
        sign_candidates=tuple(candidates),
    )


def zeeman_levels(field_g) -> np.ndarray:
    """Ground-triplet energies (GHz), ascending, for a field in the defect frame.

    Exact eigenvalues of  D Sz^2 - gamma_e B . S.  For an axial field the
    spectrum closes to (0, D - gamma_e Bz, D + gamma_e Bz); transverse
    components mix the levels and the closed form no longer applies.
    """
    b = finite_vector(field_g, "field")
    zeeman = b[0] * SPIN1_SX + b[1] * SPIN1_SY + b[2] * SPIN1_SZ
    return np.linalg.eigvalsh(_ZERO_FIELD_HAM - GAMMA_E_GHZ_PER_G * zeeman)


@dataclass(frozen=True)
class OdmrSpectrum:
    """The two ground-triplet transition frequencies and their diagnostics."""

    f_minus: float  # GHz
    f_plus: float   # GHz
    splitting: float  # f_plus - f_minus, GHz
    asymmetry: float  # |mean(f+, f-) - D|, GHz

    def to_json_dict(self) -> dict:
        return {
            "f_minus_GHz": self.f_minus,
            "f_plus_GHz": self.f_plus,
            "splitting_GHz": self.splitting,
            "asymmetry_GHz": self.asymmetry,
        }


def odmr_transitions(field_g) -> OdmrSpectrum:
    """Transition frequencies out of the lowest level, plus alignment checks.

    In the weak-field regime (Zeeman energy well below the zero-field
    splitting) the lowest eigenvalue is the m = 0 like level, so the two
    transitions are the gaps to the upper doublet.  For an aligned field
    they sit symmetrically about the zero-field splitting and are split by
    exactly 2 gamma_e |B|; both diagnostics degrade smoothly with
    misalignment.  Zero field gives a doubly degenerate line (splitting 0).
    """
    levels = zeeman_levels(field_g)
    f_minus = float(levels[1] - levels[0])
    f_plus = float(levels[2] - levels[0])
    return OdmrSpectrum(
        f_minus=f_minus,
        f_plus=f_plus,
        splitting=f_plus - f_minus,
        asymmetry=abs(0.5 * (f_minus + f_plus) - ZERO_FIELD_SPLITTING_GHZ),
    )


@dataclass(frozen=True)
class AlignmentResolution:
    """Outcome of probing sign candidates with an ODMR measurement."""

    selected: tuple[tuple[float, float, float], ...]
    spectra: tuple[OdmrSpectrum, ...]  # one per input candidate, same order
    resolved: bool
    note: str = ""


def make_simulated_probe(true_field_g):
    """An ODMR probe backed by the level solver: axis -> OdmrSpectrum.

    Models re-orienting the defect axis along ``axis`` in a fixed true
    field: the probe sees the true field's parallel projection along z and
    its transverse remainder along x.
    """
    true = np.array(finite_vector(true_field_g, "true field"))

    def probe(axis) -> OdmrSpectrum:
        a = np.array(finite_vector(axis, "probe axis"))
        if abs(math.sqrt(a @ a) - 1.0) > 1e-6:
            raise ConfigError("probe axis must be a unit vector")
        b_par = float(true @ a)
        perp = true - b_par * a
        return odmr_transitions((math.sqrt(perp @ perp), 0.0, b_par))

    return probe


# Antiparallel candidates produce analytically identical spectra; their
# numerically computed asymmetries differ only by eigensolver rounding
# (~1e-15 GHz).  Asymmetries within this window of the minimum count as
# tied — far above float noise, far below any physical family separation.
_TIE_EPSILON_GHZ = 1e-10


def resolve_alignment(
    candidates,
    probe,
    tolerance_ghz: float = 1e-3,
) -> AlignmentResolution:
    """Select the sign candidate whose probe spectrum is best aligned.

    Candidates are first gated: the spectrum must be symmetric about the
    zero-field splitting within ``tolerance_ghz`` (criterion a) and its
    splitting must match 2 gamma_e |candidate| within the same tolerance
    (criterion b).  Among the gated candidates the one *minimizing* the
    asymmetry wins — misalignment grows the asymmetry from exactly zero,
    so a threshold alone cannot separate nearby sign families at weak
    fields.  Antiparallel candidates produce identical spectra and tie, so
    at best a candidate *pair* survives; a tie across genuinely distinct
    directions (or no gated candidate at all) is reported unresolved.
    """
    positive(tolerance_ghz, "tolerance_ghz")
    cands = [np.array(finite_vector(c, "candidate")) for c in candidates]
    if not cands:
        raise ConfigError("no candidates to resolve")
    spectra: list[OdmrSpectrum] = []
    gated: list[int] = []
    for i, cand in enumerate(cands):
        mag = math.sqrt(cand @ cand)
        if mag == 0.0:
            raise DomainError("zero-magnitude candidate has no orientation")
        spectrum = probe(cand / mag)
        spectra.append(spectrum)
        symmetric = spectrum.asymmetry <= tolerance_ghz
        split_ok = abs(spectrum.splitting - 2.0 * GAMMA_E_GHZ_PER_G * mag) <= tolerance_ghz
        if symmetric and split_ok:
            gated.append(i)

    min_asym = min((spectra[i].asymmetry for i in gated), default=math.inf)
    winners = [i for i in gated if spectra[i].asymmetry <= min_asym + _TIE_EPSILON_GHZ]

    def family(vec: np.ndarray) -> tuple:
        # a direction and its antipode are one family; round away float fuzz
        unit = vec / np.linalg.norm(vec)
        a = tuple(np.round(unit, 9))
        return min(a, tuple(np.round(-unit, 9)))

    # resolved when the winners are one antipodal family
    resolved = len({family(cands[i]) for i in winners}) == 1
    if not winners:
        note = "no candidate matches an aligned spectrum within tolerance"
    elif not resolved:
        note = "multiple distinct directions tie; probe cannot separate them"
    elif len(winners) == 2:
        note = "antiparallel pair remains: aligned and anti-aligned spectra coincide"
    else:
        note = ""
    return AlignmentResolution(
        selected=tuple(tuple(float(x) for x in cands[i]) for i in winners),
        spectra=tuple(spectra),
        resolved=resolved,
        note=note,
    )
