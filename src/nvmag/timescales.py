"""Extraction of characteristic timescales from coherence traces.

Three numbers summarize a collapse-revival trace: the revival spacing (the
first peak counts as revival zero), the 1/e width of the first peak, and
the 1/e decay time of the revival-peak envelope.  Power-law fits of those
numbers against field close the loop with the field-inversion layer.
Revival peaks come from ``_local_peaks``, a numpy search that reports the
same maxima as ``scipy.signal.find_peaks`` with a height and prominence floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bath import finite_array, finite_number, increasing_array, integer, positive
from .decoherence import CoherenceTrace
from .errors import (
    ConfigError,
    CrossingNotFoundError,
    DomainError,
    InsufficientEnvelopeError,
    NoRevivalError,
)

PROMINENCE_DEFAULT = 0.02
_MAX_TALL_PEAKS = 24
_COMB_JITTER_GRID_STEPS = 2.0
ONE_OVER_E = 1.0 / math.e
# extract_Tw's first collapse ends where the trace rises this far above its
# running minimum: the onset of the first revival
_RISE_TOLERANCE = 0.1

# Flags carried by TimescaleSet instead of raising mid-pipeline.
FLAG_NO_REVIVAL = "no-revival"
FLAG_INSUFFICIENT_ENVELOPE = "insufficient-envelope"
FLAG_UNDAMPED = "undamped"
FLAG_NO_CROSSING = "no-crossing"
FLAG_OVER_UNITY = "over-unity"


@dataclass(frozen=True)
class RevivalPeak:
    """One refined peak: time (ms) and height."""

    time: float
    height: float


@dataclass(frozen=True)
class TimescaleSet:
    """Extracted (T_w, T_R, T2) in ms with uncertainties and status flags.

    Values that could not be extracted are NaN and carry a flag; an
    undamped envelope reports T2 = inf with its own flag.
    """

    T_w: float = math.nan
    T_w_err: float = math.nan
    T_R: float = math.nan
    T_R_err: float = math.nan
    T2: float = math.nan
    T2_err: float = math.nan
    flags: tuple[str, ...] = ()

    @property
    def has_revivals(self) -> bool:
        return FLAG_NO_REVIVAL not in self.flags

    def to_json_dict(self) -> dict:
        """Values as JSON numbers; a NaN or infinite value becomes null (its flag says why)."""
        values = {
            "T_w_ms": self.T_w,
            "T_w_err_ms": self.T_w_err,
            "T_R_ms": self.T_R,
            "T_R_err_ms": self.T_R_err,
            "T2_ms": self.T2,
            "T2_err_ms": self.T2_err,
        }
        out = {k: v if math.isfinite(v) else None for k, v in values.items()}
        out["flags"] = list(self.flags)
        return out


@dataclass(frozen=True)
class PowerLawFit:
    """y = coefficient * x ** exponent fitted by least squares in log-log."""

    coefficient: float
    exponent: float
    residual: float  # RMS of log-space residuals
    n_points: int = 0

    def __post_init__(self) -> None:
        positive(self.coefficient, "power-law coefficient", DomainError)
        finite_number(self.exponent, "power-law exponent")
        finite_number(self.residual, "power-law residual")
        integer(self.n_points, "n_points")

    def __call__(self, x):
        return self.coefficient * np.asarray(x, dtype=float) ** self.exponent

    def to_json_dict(self) -> dict:
        return {
            "coefficient": self.coefficient,
            "exponent": self.exponent,
            "log_rms_residual": self.residual,
            "n_points": self.n_points,
        }


def _local_peaks(values: np.ndarray, floor: float) -> np.ndarray:
    """Indices of the local maxima whose height and prominence are both >= floor.

    A maximum is a run of equal values with a strictly lower sample on each
    side, reported at its middle index (the left one of two).  Its prominence
    is its height less the higher of its two bases; a base is the lowest value
    between the maximum and the nearest strictly higher sample on that side,
    or the end of the trace.  This is ``scipy.signal.find_peaks(values,
    prominence=floor, height=floor)``, index for index.
    """
    if values.size < 3:
        return np.zeros(0, dtype=np.intp)
    starts = np.flatnonzero(np.concatenate(([True], values[1:] != values[:-1])))
    ends = np.append(starts[1:], values.size) - 1
    # between two infinite walls the runs alternate minimum, maximum, ...,
    # minimum: dips[k] and dips[k + 1] flank maximum k
    walled = np.concatenate(([np.inf], values[starts], [np.inf]))
    rise = walled[1:] > walled[:-1]
    tops = np.flatnonzero(rise[:-1] & ~rise[1:])
    dips = values[starts[np.flatnonzero(~rise[:-1] & rise[1:])]]
    # a maximum below the floor is never reported and never stops a taller
    # maximum's base, so only its dips count: fold them into the tall ones' gaps
    tall = np.flatnonzero(values[starts[tops]] >= floor)
    tops = tops[tall]
    heights = values[starts[tops]]
    highs = heights.tolist()
    gaps = np.minimum.reduceat(dips, np.concatenate(([0], tall + 1))).tolist()
    # one monotone stack per side: a maximum's base is the lowest gap out to
    # the nearest strictly higher maximum (or wall)
    bases = []
    for order, side in ((range(tops.size), 0), (range(tops.size - 1, -1, -1), 1)):
        base = [0.0] * tops.size
        stack = [(math.inf, 0.0)]
        for k in order:
            h, low = highs[k], gaps[k + side]
            while stack[-1][0] <= h:
                low = min(low, stack.pop()[1])
            base[k] = low
            stack.append((h, low))
        bases.append(base)
    keep = floor <= heights - np.maximum(*bases)
    return (starts[tops] + ends[tops])[keep] // 2


def find_revival_peaks(
    trace: CoherenceTrace, prominence: float = PROMINENCE_DEFAULT
) -> list[RevivalPeak]:
    """Locate revival peaks, sub-grid refined, with t = 0 as peak zero.

    Interior local maxima must clear the prominence threshold and reach at
    least that value in height; each is then refined by a three-point
    parabola through its neighbours.  If the grid starts at zero that point
    is always included as the zeroth peak.
    """
    positive(prominence, "prominence")
    grid, values = trace.t_grid, trace.values

    peaks: list[RevivalPeak] = []
    if grid.size and grid[0] == 0.0:
        peaks.append(RevivalPeak(0.0, float(values[0])))

    # _local_peaks reports only samples with a neighbour on each side
    for i in _local_peaks(values, prominence).tolist():
        y0, y1, y2 = values[i - 1:i + 2].tolist()
        t0, t1, t2 = grid[i - 1:i + 2].tolist()
        curvature = y0 - 2.0 * y1 + y2
        shift = 0.0 if curvature == 0 else 0.5 * (y0 - y2) / curvature
        shift = min(max(shift, -0.5), 0.5)
        t_pk = t1 + shift * (t2 - t1 if shift >= 0 else t1 - t0)
        peaks.append(RevivalPeak(t_pk, y1 - 0.25 * (y0 - y2) * shift))
    return peaks


# extract_TR internals: snapping tolerance (fraction of the candidate period
# a peak may miss its nearest comb position by and still count) and the
# score fraction within which a longer candidate period wins the tie against
# its own subharmonics, which fit any comb equally well.
_SNAP_TOLERANCE = 0.2
_TIEBREAK_FRACTION = 0.92


def _index_regression(
    times: np.ndarray, indices: np.ndarray, grid_step_ms: float
) -> tuple[float, float]:
    """Least-squares slope of peak time against revival index: Σxy / Σx² over
    the centred indices x and times y, its error from that line's residuals."""
    if len(set(indices.tolist())) == 2:
        lo, hi = np.argsort(indices)[[0, -1]]
        spacing = (times[hi] - times[lo]) / (indices[hi] - indices[lo])
        return float(spacing), float(grid_step_ms)
    # extract_TR always passes two or more distinct indices, so past the two-index
    # case above there are three or more, and dof and var_idx are positive
    x = indices - indices.sum() / len(indices)
    y = times - times.sum() / len(times)
    var_idx = float((x * x).sum())
    slope = float((x * y).sum()) / var_idx
    resid = y - slope * x
    return slope, math.sqrt(float((resid * resid).sum()) / (len(times) - 2) / var_idx)


def snap_to_comb(peaks: list[RevivalPeak], period_ms: float) -> list[RevivalPeak]:
    """Keep only peaks sitting on the revival comb of the given period.

    Each peak is assigned to its nearest comb tooth (integer multiple of
    the period); peaks farther than a fifth of a period from any tooth are
    dropped, and when several peaks claim the same tooth only the tallest
    survives.  A t = 0 peak always stays.  The result is the revival-peak
    envelope, freed of inter-revival ringing maxima.
    """
    positive(period_ms, "comb period", DomainError)
    kept: dict[int, RevivalPeak] = {}
    for peak in peaks:
        ratio = peak.time / period_ms
        k = int(round(ratio))
        if peak.time != 0.0 and abs(ratio - k) > _SNAP_TOLERANCE:
            continue
        if k not in kept or peak.height > kept[k].height:
            kept[k] = peak
    return [kept[k] for k in sorted(kept)]


def _row_sums(x: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Sum of each row's first ``counts[row]`` entries along the last axis.

    Each row rounds as ``np.sum`` of its own entries.  That adds fewer than
    eight terms in turn, so zeros past a row's count leave its sum over seven
    entries alone; it adds eight or more in interleaved partial sums, so rows
    of one such length are summed together over exactly that many entries.
    """
    width = min(x.shape[-1], 7)
    out = np.where(np.arange(width) < counts[:, None], x[..., :width], 0.0).sum(axis=-1)
    for n in {n for n in counts.tolist() if n > 7}:
        rows = counts == n
        out[..., rows] = x[..., rows, :n].sum(axis=-1)
    return out


def _comb_scores(
    periods: np.ndarray,
    t_sc: np.ndarray,
    w_sc: np.ndarray,
    t_last: float,
    grid_step_ms: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Converge every candidate period onto the jury of tall maxima, and score it.

    Arrays are (candidates x jury peaks).  Each of three passes snaps the
    jury to every candidate's comb, keeps the best peak per claimed tooth
    and moves the candidate to the weighted regression of those peaks.  A
    candidate whose claims carry no weight, or whose regression is not a
    positive number, keeps its period, so every later pass makes the same
    claims for it.  Returns the scores of the last pass's claims and the
    refined periods, in the order of ``periods``; a candidate with fewer
    than two claimed teeth, or with no weight on them, scores 0.
    """
    refined = periods.astype(float)
    rows = np.arange(len(refined))[:, None]
    jury = np.arange(len(t_sc))
    later = jury[None, :] > jury[:, None]  # [s, r]: peak r comes after peak s
    for _ in range(3):
        # snap/refine/re-snap: a candidate carrying the jitter of a single
        # peak-pair difference drifts off the comb within a couple dozen
        # teeth, so converge it onto the comb before judging it
        ratio = t_sc / refined[:, None]
        teeth = np.rint(ratio)
        resid = np.abs(ratio - teeth)
        claim = (teeth >= 1) & (resid <= _SNAP_TOLERANCE)
        wc = w_sc * (1.0 - (resid / _SNAP_TOLERANCE) ** 2)
        # only the single best peak per comb tooth counts, so dense ringing
        # cannot out-vote the revival train by sheer number: a claim loses
        # to a claim on its tooth with more weight, or as much and later
        w_s, w_r = wc[:, :, None], wc[:, None, :]
        outranks = np.where(later, w_r >= w_s, w_r > w_s)
        rival = claim[:, None, :] & (teeth[:, :, None] == teeth[:, None, :])
        best = claim & ~(rival & outranks).any(axis=2)
        # each candidate's claims, best peak per tooth, in tooth order;
        # entries past n_claims are padding
        order = np.where(best, teeth, np.inf).argsort(axis=1, kind="stable")
        n_claims = best.sum(axis=1)
        denom, num = _row_sums(
            np.array([wc * teeth**2, wc * teeth * t_sc])[:, rows, order], n_claims
        )
        # a weightless claim set gets fit 0, so its candidate keeps its period
        fit = num / np.where(denom > 0, denom, np.inf)
        refined = np.where(np.isfinite(fit) & (fit > 0), fit, refined)

    total, spread = _row_sums(
        np.array([wc, wc * np.abs(t_sc - teeth * refined[:, None]) ** 2])[:, rows, order],
        n_claims,
    )
    # one claimed tooth pins no spacing: a lone artifact peak would
    # otherwise be its own perfectly tight, fully covered comb
    judged = (n_claims >= 2) & (total > 0)
    n_teeth = np.maximum(np.floor(t_last / refined + _SNAP_TOLERANCE), 1.0)
    coverage = n_claims / n_teeth
    # a converged comb is tight: loose residuals that survive the
    # refinement mean the claimed peaks are ringing that merely happens to
    # fall near the teeth.  The jitter scale is absolute (grid-referenced)
    # — relative to the candidate period it would flatter subharmonics,
    # whose teeth see the same scatter divided by a longer period
    rms_ms = np.sqrt(spread / np.where(total > 0, total, np.inf))
    tightness = 1.0 / (1.0 + (rms_ms / (_COMB_JITTER_GRID_STEPS * grid_step_ms)) ** 2)
    return np.where(judged, total * coverage * tightness, 0.0), refined


def extract_TR(peaks: list[RevivalPeak], grid_step_ms: float) -> tuple[float, float]:
    """Revival spacing (ms) from the peak train, with an uncertainty.

    With exactly two peaks the spacing itself is returned and the grid step
    stands in for the uncertainty.  With more, the spacing is
    found by a comb search: every observed gap and every difference between
    tall maxima (with small integer submultiples) is tried as a candidate
    period.  Each candidate is converged onto the peak train by iterated
    weighted regression, then scored against the tallest maxima only —
    revival apexes always rank among those, while dense ringing, which
    lands near the teeth of any sufficiently fine comb, stays off the
    jury.  The score is claimed height-squared weight (best peak per
    tooth), times coverage — the fraction of predicted teeth actually
    holding a peak, which starves fine combs — times a jitter penalty on
    the absolute scatter of claims about their teeth, which starves coarse
    combs that skip every other revival.  Among candidates within a
    whisker of the top score the longest period wins.  Peaks are then
    snapped to integer revival indices against the winning period —
    dropping ringing maxima that sit off the comb and tolerating missed
    revivals — and the spacing is the least-squares slope of time against
    index.  ``grid_step_ms`` must be positive and finite, the peak times
    finite and strictly increasing, and the peak heights finite.
    """
    positive(grid_step_ms, "grid step")
    if len(peaks) < 2:
        raise NoRevivalError(
            "fewer than two coherence peaks: revival spacing is undefined"
        )
    times = increasing_array([p.time for p in peaks], "peak times")
    heights = finite_array([p.height for p in peaks], "peak heights")
    if len(peaks) == 2:
        return float(times[1] - times[0]), float(grid_step_ms)

    # physical coherence cannot exceed 1: heights beyond that are pair
    # truncation artifacts and must not carry extra voting power
    capped = np.clip(heights, 0.0, 1.0)
    gaps = times[1:] - times[:-1]
    floor = 3.0 * grid_step_ms

    # candidate periods: differences between tall peaks, not just adjacent
    # gaps — ringing maxima between revivals would otherwise chop every
    # true-period gap into fragments and the real spacing would never be
    # on the menu
    tall = capped.argsort(kind="stable")[::-1][:_MAX_TALL_PEAKS]
    t_tall = times[tall]
    # candidates are judged against the tall maxima alone: revival apexes
    # always rank among them, while dense ringing — which lands close to
    # the teeth of any sufficiently fine comb — stays off the jury
    sc_keep = t_tall > 0
    t_sc, w_sc = t_tall[sc_keep], capped[tall][sc_keep] ** 2
    # positive differences: each later tall peak's time less an earlier one's.
    # Reversed, the sorted periods descend, and the 0.5% rule drops repeats
    pairs = t_tall[:, None] - t_tall
    diffs = np.concatenate([gaps, pairs[pairs > 0]])
    cands = np.sort(diffs[:, None] / np.arange(1.0, 5.0), axis=None)[::-1]
    kept: list[float] = []
    for period in cands[cands >= floor].tolist():
        if not kept or kept[-1] - period > 0.005 * kept[-1]:
            kept.append(period)

    best_score = -1.0
    if kept:
        t_last = float(t_sc.max()) if len(t_sc) else float(times.max())
        scores, refined = _comb_scores(np.array(kept), t_sc, w_sc, t_last, grid_step_ms)
        # kept descends, so the first candidate within a whisker of the top
        # score is the longest such period
        win = int(np.argmax(scores >= _TIEBREAK_FRACTION * scores.max()))
        best_period, best_score = float(refined[win]), float(scores[win])

    if best_score > 0:
        # two passes: the regressed slope re-anchors the comb, recovering
        # teeth a slightly-off candidate would let drift out of tolerance.
        # The snapped peaks hold one peak per tooth, in tooth order, so their
        # times and indices both strictly increase: the slope is positive
        period = best_period
        result = None
        for _ in range(2):
            snapped = snap_to_comb(peaks, period)
            if len(snapped) < 2:
                break
            s_times = np.array([p.time for p in snapped])
            s_indices = np.rint(s_times / period)
            result = _index_regression(s_times, s_indices, grid_step_ms)
            period = result[0]
        if result is not None:
            return result

    # degenerate comb: fall back to median-gap index assignment
    indices = np.rint((times - times[0]) / np.median(gaps))
    return _index_regression(times, indices, grid_step_ms)


def extract_T2(peaks: list[RevivalPeak]) -> tuple[float, float]:
    """Envelope decay time (ms): where the peak-height envelope reaches 1/e.

    Needs at least three positive-height peaks, and every height finite.
    The envelope is read directly off the peak train: the first pair of
    successive peaks that brackets the 1/e level fixes the crossing by
    log-linear interpolation, with half the bracket spacing as the
    uncertainty.  This stays faithful for envelopes that are not single
    exponentials, where a global line fit would be biased by however much
    of the tail the trace happens to include.  When every peak is still
    above 1/e, the decay time comes from a log-linear fit of height against
    time instead (the two agree exactly on an exponential envelope); a
    non-decaying train (fitted slope >= 0 within numerical noise) reports
    (inf, inf) so callers can flag it rather than crash.
    """
    heights = finite_array([p.height for p in peaks], "peak heights")
    usable = heights > 0
    if np.count_nonzero(usable) < 3:
        raise InsufficientEnvelopeError(
            "need at least three positive peaks to fit a decay envelope"
        )
    t = np.array([p.time for p in peaks])[usable]
    log_h = np.log(heights[usable])

    below = np.nonzero(log_h < -1.0)[0]
    if below.size and below[0] > 0:
        i = int(below[0])
        frac = (log_h[i - 1] + 1.0) / (log_h[i - 1] - log_h[i])
        t2 = t[i - 1] + frac * (t[i] - t[i - 1])
        return float(t2), float(0.5 * (t[i] - t[i - 1]))

    (slope, _), cov = np.polyfit(t, log_h, 1, cov=True)
    if slope >= -1e-12:
        return math.inf, math.inf
    t2 = -1.0 / slope
    slope_err = math.sqrt(max(float(cov[0, 0]), 0.0))
    return float(t2), float(slope_err / slope**2)


def extract_Tw(trace: CoherenceTrace) -> tuple[float, float]:
    """First-collapse width: the first 1/e crossing, linearly interpolated.

    The search is confined to the first collapse: it stops where the trace
    has rebounded by more than ``_RISE_TOLERANCE`` above its running minimum
    (the onset of the first revival).  No crossing inside that window is a
    :class:`CrossingNotFoundError`, and so is a first sample after τ = 0
    that is already below 1/e: the grid stepped past the collapse, and a
    line across that step is no width.
    """
    grid, values = trace.t_grid, trace.values
    if grid.size < 2:
        raise CrossingNotFoundError("trace too short to locate a 1/e crossing")
    running_min = np.minimum.accumulate(values)
    rebounded = np.nonzero(values > running_min + _RISE_TOLERANCE)[0]
    stop = int(rebounded[0]) if rebounded.size else grid.size
    segment = values[:stop]
    below = np.nonzero(segment < ONE_OVER_E)[0]
    if below.size == 0 or below[0] <= 1:
        raise CrossingNotFoundError(
            "no 1/e crossing resolved after the first grid step and before the first revival"
        )
    i = int(below[0])
    frac = (values[i - 1] - ONE_OVER_E) / (values[i - 1] - values[i])
    t_cross = grid[i - 1] + frac * (grid[i] - grid[i - 1])
    return float(t_cross), float(0.5 * (grid[i] - grid[i - 1]))


def extract_timescales(
    trace: CoherenceTrace, prominence: float = PROMINENCE_DEFAULT
) -> TimescaleSet:
    """All three timescales from one trace, failures downgraded to flags.

    A trace with some |L| above 1 (:attr:`CoherenceTrace.exceeds_unity`)
    is flagged ``over-unity``, its timescales extracted as they are.
    """
    flags = [FLAG_OVER_UNITY] if trace.exceeds_unity else []
    peaks = find_revival_peaks(trace, prominence=prominence)

    t_w = t_w_err = math.nan
    try:
        t_w, t_w_err = extract_Tw(trace)
    except CrossingNotFoundError:
        flags.append(FLAG_NO_CROSSING)

    # two peaks need an interior point, so a trace with two peaks has a step
    t_r = t_r_err = math.nan
    envelope_peaks = peaks
    if len(peaks) < 2:
        flags.append(FLAG_NO_REVIVAL)
    else:
        # the median step: the middle one, or the mean of the middle two
        steps = np.sort(np.diff(trace.t_grid))
        grid_step = float(steps[(steps.size - 1) // 2] + steps[steps.size // 2]) / 2
        t_r, t_r_err = extract_TR(peaks, grid_step_ms=grid_step)
        # the envelope lives on the revival comb: once the spacing is known,
        # inter-revival ringing maxima must not masquerade as envelope samples
        envelope_peaks = snap_to_comb(peaks, t_r)

    t2 = t2_err = math.nan
    try:
        t2, t2_err = extract_T2(envelope_peaks)
        if math.isinf(t2):
            flags.append(FLAG_UNDAMPED)
    except InsufficientEnvelopeError:
        flags.append(FLAG_INSUFFICIENT_ENVELOPE)

    return TimescaleSet(
        T_w=t_w, T_w_err=t_w_err,
        T_R=t_r, T_R_err=t_r_err,
        T2=t2, T2_err=t2_err,
        flags=tuple(flags),
    )


def fit_power_law(x, y) -> PowerLawFit:
    """Least-squares power law through (x, y), both strictly positive.

    Data that are not finite ints or floats (NaN, an infinity, a bool, a
    string, an int past float range), or x without two distinct values, are
    a ConfigError; a value <= 0 is a DomainError.
    """
    x, y = finite_array(x, "x"), finite_array(y, "y")
    if x.shape != y.shape or x.ndim != 1:
        raise ConfigError("x and y must be one-dimensional and equally long")
    if x.size < 2:
        raise ConfigError("need at least two points for a power-law fit")
    if np.all(x == x[0]):
        raise ConfigError("a power-law fit needs two distinct x values")
    if np.any(x <= 0) or np.any(y <= 0):
        raise DomainError("power-law fits need positive data")
    log_x, log_y = np.log(x), np.log(y)
    exponent, intercept = np.polyfit(log_x, log_y, 1)
    residuals = log_y - (exponent * log_x + intercept)
    return PowerLawFit(
        coefficient=float(np.exp(intercept)),
        exponent=float(exponent),
        residual=float(np.sqrt(np.mean(residuals**2))),
        n_points=int(x.size),
    )
