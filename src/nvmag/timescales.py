"""Extraction of characteristic timescales from coherence traces.

Three numbers summarize a collapse-revival trace: the revival spacing (the
first peak counts as revival zero), the 1/e width of the first peak, and
the 1/e decay time of the revival-peak envelope.  Power-law fits of those
numbers against field close the loop with the field-inversion layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.signal import find_peaks

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
_COMB_JITTER_SCALE = 0.02
_COMB_JITTER_GRID_STEPS = 2.0
ONE_OVER_E = 1.0 / math.e

# Flags carried by TimescaleSet instead of raising mid-pipeline.
FLAG_NO_REVIVAL = "no-revival"
FLAG_INSUFFICIENT_ENVELOPE = "insufficient-envelope"
FLAG_UNDAMPED = "undamped"
FLAG_NO_CROSSING = "no-crossing"


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
        if self.coefficient <= 0:
            raise DomainError("power-law coefficient must be positive")

    def __call__(self, x):
        return self.coefficient * np.asarray(x, dtype=float) ** self.exponent

    def to_json_dict(self) -> dict:
        return {
            "coefficient": self.coefficient,
            "exponent": self.exponent,
            "log_rms_residual": self.residual,
            "n_points": self.n_points,
        }


def find_revival_peaks(
    trace: CoherenceTrace,
    prominence: float = PROMINENCE_DEFAULT,
    min_height: float | None = None,
) -> list[RevivalPeak]:
    """Locate revival peaks, sub-grid refined, with t = 0 as peak zero.

    Interior local maxima must clear both the prominence threshold and a
    height floor (defaulting to the prominence value); each is then refined
    by a three-point parabola through its neighbours.  If the grid starts
    at zero that point is always included as the zeroth peak.
    """
    if prominence <= 0:
        raise ConfigError("prominence must be positive")
    height = prominence if min_height is None else min_height
    grid, values = trace.t_grid, trace.values

    peaks: list[RevivalPeak] = []
    if grid.size and grid[0] == 0.0:
        peaks.append(RevivalPeak(0.0, float(values[0])))

    idx, _ = find_peaks(values, prominence=prominence, height=height)
    for i in idx:
        if i <= 0 or i >= grid.size - 1:
            continue
        y0, y1, y2 = values[i - 1], values[i], values[i + 1]
        curvature = y0 - 2.0 * y1 + y2
        shift = 0.0 if curvature == 0 else 0.5 * (y0 - y2) / curvature
        shift = float(np.clip(shift, -0.5, 0.5))
        t_pk = grid[i] + shift * (grid[i + 1] - grid[i] if shift >= 0 else grid[i] - grid[i - 1])
        h_pk = y1 - 0.25 * (y0 - y2) * shift
        peaks.append(RevivalPeak(float(t_pk), float(h_pk)))
    return peaks


# extract_TR internals: snapping tolerance (fraction of the candidate period
# a peak may miss its nearest comb position by and still count) and the
# score fraction within which a longer candidate period wins the tie against
# its own subharmonics, which fit any comb equally well.
_SNAP_TOLERANCE = 0.2
_TIEBREAK_FRACTION = 0.92


def _index_regression(
    times: np.ndarray, indices: np.ndarray, grid_step_ms: float | None
) -> tuple[float, float]:
    """Least-squares slope of peak time against revival index."""
    if len(np.unique(indices)) == 2:
        order = np.argsort(indices)
        lo, hi = order[0], order[-1]
        spacing = (times[hi] - times[lo]) / (indices[hi] - indices[lo])
        err = float("nan") if grid_step_ms is None else float(grid_step_ms)
        return float(spacing), err
    design = np.vstack([indices, np.ones_like(indices)]).T
    coeffs, *_ = np.linalg.lstsq(design, times, rcond=None)
    slope = float(coeffs[0])
    fitted = design @ coeffs
    dof = len(times) - 2
    var_idx = float(np.sum((indices - indices.mean()) ** 2))
    if dof > 0 and var_idx > 0:
        err = math.sqrt(float(np.sum((times - fitted) ** 2)) / dof / var_idx)
    else:
        err = float("nan")
    return slope, err


def snap_to_comb(peaks: list[RevivalPeak], period_ms: float) -> list[RevivalPeak]:
    """Keep only peaks sitting on the revival comb of the given period.

    Each peak is assigned to its nearest comb tooth (integer multiple of
    the period); peaks farther than a fifth of a period from any tooth are
    dropped, and when several peaks claim the same tooth only the tallest
    survives.  A t = 0 peak always stays.  The result is the revival-peak
    envelope, freed of inter-revival ringing maxima.
    """
    if not math.isfinite(period_ms) or period_ms <= 0:
        raise DomainError("comb period must be positive and finite")
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

    Rows of one length are summed together, over exactly that many
    entries: ``np.sum`` adds eight or more terms in interleaved partial
    sums, so a row padded to a common width would round differently from
    the same row summed alone.
    """
    out = np.zeros(x.shape[:-1])
    for n in np.unique(counts):
        rows = counts == n
        out[..., rows] = x[..., rows, :n].sum(axis=-1)
    return out


def _comb_scores(
    periods: np.ndarray,
    t_sc: np.ndarray,
    w_sc: np.ndarray,
    t_last: float,
    grid_step_ms: float | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Converge every candidate period onto the jury of tall maxima, and score it.

    Arrays are (candidates x jury peaks).  Each of three passes snaps the
    jury to every candidate's comb, keeps the best peak per claimed tooth
    and moves the candidate to the weighted regression of those peaks; a
    candidate leaves the passes when it claims nothing, when its claims
    carry no weight, or when the regression is not a positive number.
    Returns the scores and the refined periods, in the order of
    ``periods``; a candidate with fewer than two claimed teeth, or with no
    weight on them, scores 0.
    """
    n_cand, n_jury = len(periods), len(t_sc)
    refined = periods.astype(float)
    live = np.ones(n_cand, dtype=bool)
    # each candidate's claims from its last snap, best peak per tooth, in
    # tooth order; entries past n_claims are padding
    claim_w = np.zeros((n_cand, n_jury))
    claim_t = np.zeros((n_cand, n_jury))
    claim_k = np.zeros((n_cand, n_jury))
    n_claims = np.zeros(n_cand, dtype=int)
    jury = np.arange(n_jury)
    later = jury[None, :] > jury[:, None]  # [s, r]: peak r comes after peak s
    for _ in range(3):
        # snap/refine/re-snap: a candidate carrying the jitter of a single
        # peak-pair difference drifts off the comb within a couple dozen
        # teeth, so converge it onto the comb before judging it
        rows = np.flatnonzero(live)
        ratio = t_sc / refined[rows, None]
        teeth = np.round(ratio)
        resid = np.abs(ratio - teeth)
        claim = (teeth >= 1) & (resid <= _SNAP_TOLERANCE)
        wc = w_sc * (1.0 - (resid / _SNAP_TOLERANCE) ** 2)
        # only the single best peak per comb tooth counts, so dense ringing
        # cannot out-vote the revival train by sheer number: a claim loses
        # to a claim on its tooth with more weight, or as much and later
        rival = claim[:, None, :] & (teeth[:, :, None] == teeth[:, None, :])
        outranks = (wc[:, None, :] > wc[:, :, None]) | (
            (wc[:, None, :] == wc[:, :, None]) & later
        )
        best = claim & ~np.any(rival & outranks, axis=2)
        order = np.argsort(np.where(best, teeth, np.inf), axis=1, kind="stable")
        pick = (np.arange(len(rows))[:, None], order)
        w_s, k_s, t_s = wc[pick], teeth[pick], t_sc[order]
        n_s = best.sum(axis=1)
        denom, num = _row_sums(np.stack([w_s * k_s**2, w_s * k_s * t_s]), n_s)

        claim_w[rows], claim_t[rows], claim_k[rows] = w_s, t_s, k_s
        n_claims[rows] = n_s
        # a weightless claim set gets fit 0, which stops its candidate
        fit = num / np.where(denom > 0, denom, np.inf)
        ok = np.isfinite(fit) & (fit > 0)
        refined[rows[ok]] = fit[ok]
        live[rows[~ok]] = False

    total, spread = _row_sums(
        np.stack([claim_w, claim_w * np.abs(claim_t - claim_k * refined[:, None]) ** 2]),
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
    scale_ms = (
        _COMB_JITTER_GRID_STEPS * grid_step_ms
        if grid_step_ms is not None
        else _COMB_JITTER_SCALE * refined
    )
    tightness = 1.0 / (1.0 + (rms_ms / scale_ms) ** 2)
    return np.where(judged, total * coverage * tightness, 0.0), refined


def extract_TR(
    peaks: list[RevivalPeak], grid_step_ms: float | None = None
) -> tuple[float, float]:
    """Revival spacing (ms) from the peak train, with an uncertainty.

    With exactly two peaks the spacing itself is returned and the grid step
    (when known) stands in for the uncertainty.  With more, the spacing is
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
    index.  A ``grid_step_ms`` that is given must be positive and finite.
    """
    if grid_step_ms is not None and not (
        math.isfinite(grid_step_ms) and grid_step_ms > 0
    ):
        raise ConfigError(f"grid step must be positive and finite, got {grid_step_ms}")
    if len(peaks) < 2:
        raise NoRevivalError(
            "fewer than two coherence peaks: revival spacing is undefined"
        )
    times = np.array([p.time for p in peaks], dtype=float)
    heights = np.array([p.height for p in peaks], dtype=float)
    if len(peaks) == 2:
        spacing = float(times[1] - times[0])
        return spacing, float("nan") if grid_step_ms is None else float(grid_step_ms)

    # physical coherence cannot exceed 1: heights beyond that are pair
    # truncation artifacts and must not carry extra voting power
    capped = np.clip(heights, 0.0, 1.0)
    gaps = np.diff(times)
    floor = 3.0 * grid_step_ms if grid_step_ms is not None else float(gaps.min()) * 0.4

    # candidate periods: differences between tall peaks, not just adjacent
    # gaps — ringing maxima between revivals would otherwise chop every
    # true-period gap into fragments and the real spacing would never be
    # on the menu
    tall = np.argsort(capped, kind="stable")[::-1][:_MAX_TALL_PEAKS]
    t_tall = np.sort(times[tall])
    # candidates are judged against the tall maxima alone: revival apexes
    # always rank among them, while dense ringing — which lands close to
    # the teeth of any sufficiently fine comb — stays off the jury
    sc_keep = times[tall] > 0
    t_sc = times[tall][sc_keep]
    w_sc = capped[tall][sc_keep] ** 2
    diffs = {float(g) for g in np.unique(gaps)}
    for a in range(len(t_tall)):
        for b in range(a + 1, len(t_tall)):
            diffs.add(float(t_tall[b] - t_tall[a]))
    cands: list[float] = []
    for diff in diffs:
        for m in (1, 2, 3, 4):
            period = diff / m
            if period >= floor:
                cands.append(period)
    cands.sort(reverse=True)
    kept: list[float] = []
    for period in cands:
        if not kept or kept[-1] - period > 0.005 * kept[-1]:
            kept.append(period)

    best_period, best_score = float(np.median(gaps)), -1.0
    if kept:
        t_last = float(t_sc.max()) if len(t_sc) else float(times.max())
        scores, refined = _comb_scores(np.array(kept), t_sc, w_sc, t_last, grid_step_ms)
        # kept descends, so the first candidate within a whisker of the top
        # score is the longest such period
        win = int(np.argmax(scores >= _TIEBREAK_FRACTION * scores.max()))
        best_period, best_score = float(refined[win]), float(scores[win])

    if best_score > 0:
        # two passes: the regressed slope re-anchors the comb, recovering
        # teeth a slightly-off candidate would let drift out of tolerance
        period = best_period
        result = None
        for _ in range(2):
            snapped = snap_to_comb(peaks, period)
            if len(snapped) < 2:
                break
            s_times = np.array([p.time for p in snapped])
            s_indices = np.round(s_times / period)
            result = _index_regression(s_times, s_indices, grid_step_ms)
            if not (math.isfinite(result[0]) and result[0] > 0):
                break
            period = result[0]
        if result is not None and math.isfinite(result[0]) and result[0] > 0:
            return result

    # degenerate comb: fall back to median-gap index assignment
    median_gap = float(np.median(gaps))
    indices = np.round((times - times[0]) / median_gap)
    return _index_regression(times, indices, grid_step_ms)


def extract_T2(peaks: list[RevivalPeak]) -> tuple[float, float]:
    """Envelope decay time (ms): where the peak-height envelope reaches 1/e.

    Needs at least three positive-height peaks.  The envelope is read
    directly off the peak train: the first pair of successive peaks that
    brackets the 1/e level fixes the crossing by log-linear interpolation,
    with half the bracket spacing as the uncertainty.  This stays faithful
    for envelopes that are not single exponentials, where a global line
    fit would be biased by however much of the tail the trace happens to
    include.  When every peak is still above 1/e, the decay time comes
    from a log-linear fit of height against time instead (the two agree
    exactly on an exponential envelope); a non-decaying train (fitted
    slope >= 0 within numerical noise) reports (inf, inf) so callers can
    flag it rather than crash.
    """
    usable = [(p.time, p.height) for p in peaks if p.height > 0]
    if len(usable) < 3:
        raise InsufficientEnvelopeError(
            "need at least three positive peaks to fit a decay envelope"
        )
    t = np.array([u[0] for u in usable])
    log_h = np.log([u[1] for u in usable])

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


def extract_Tw(
    trace: CoherenceTrace, rise_tolerance: float = 0.1
) -> tuple[float, float]:
    """First-collapse width: the first 1/e crossing, linearly interpolated.

    The search is confined to the first collapse: it stops where the trace
    has rebounded by more than ``rise_tolerance`` above its running minimum
    (the onset of the first revival).  No crossing inside that window is a
    :class:`CrossingNotFoundError`.
    """
    grid, values = trace.t_grid, trace.values
    if grid.size < 2:
        raise CrossingNotFoundError("trace too short to locate a 1/e crossing")
    running_min = np.minimum.accumulate(values)
    rebounded = np.nonzero(values > running_min + rise_tolerance)[0]
    stop = int(rebounded[0]) if rebounded.size else grid.size
    segment = values[:stop]
    below = np.nonzero(segment < ONE_OVER_E)[0]
    if below.size == 0 or below[0] == 0:
        raise CrossingNotFoundError(
            "first coherence peak never crosses 1/e before reviving"
        )
    i = int(below[0])
    frac = (values[i - 1] - ONE_OVER_E) / (values[i - 1] - values[i])
    t_cross = grid[i - 1] + frac * (grid[i] - grid[i - 1])
    return float(t_cross), float(0.5 * (grid[i] - grid[i - 1]))


def extract_timescales(
    trace: CoherenceTrace,
    prominence: float = PROMINENCE_DEFAULT,
    rise_tolerance: float = 0.1,
) -> TimescaleSet:
    """All three timescales from one trace, failures downgraded to flags."""
    flags: list[str] = []
    peaks = find_revival_peaks(trace, prominence=prominence)
    grid_step = float(np.median(np.diff(trace.t_grid))) if len(trace) > 1 else None

    t_w = t_w_err = math.nan
    try:
        t_w, t_w_err = extract_Tw(trace, rise_tolerance=rise_tolerance)
    except CrossingNotFoundError:
        flags.append(FLAG_NO_CROSSING)

    t_r = t_r_err = math.nan
    try:
        t_r, t_r_err = extract_TR(peaks, grid_step_ms=grid_step)
    except NoRevivalError:
        flags.append(FLAG_NO_REVIVAL)

    # the envelope lives on the revival comb: once the spacing is known,
    # inter-revival ringing maxima must not masquerade as envelope samples
    envelope_peaks = peaks
    if math.isfinite(t_r) and t_r > 0:
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
    """Least-squares power law through (x, y), both strictly positive."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ConfigError("x and y must be one-dimensional and equally long")
    if x.size < 2:
        raise ConfigError("need at least two points for a power-law fit")
    if np.any(x <= 0) or np.any(y <= 0) or not (
        np.all(np.isfinite(x)) and np.all(np.isfinite(y))
    ):
        raise DomainError("power-law fits need positive, finite data")
    log_x, log_y = np.log(x), np.log(y)
    exponent, intercept = np.polyfit(log_x, log_y, 1)
    residuals = log_y - (exponent * log_x + intercept)
    return PowerLawFit(
        coefficient=float(np.exp(intercept)),
        exponent=float(exponent),
        residual=float(np.sqrt(np.mean(residuals**2))),
        n_points=int(x.size),
    )
