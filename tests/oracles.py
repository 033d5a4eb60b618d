"""Independent reference implementations the test suite checks against.

Everything here is deliberately written by a different route than the
package code: full-Hilbert-space matrices instead of factorized products,
scipy.linalg.expm instead of eigendecomposition, characteristic-polynomial
roots instead of eigvalsh, raw SI arithmetic instead of shared prefactor
constants.  Agreement is therefore evidence, not tautology.  The comb
search of ``extract_TR`` is kept here as the per-candidate loop it used to
be, where the package now scores all candidate periods in array passes, and
the pair kernel as it was with the 32-row product for the entries of M
and libm ``cos``/``sin`` of every phase, where the package now contracts a
7x7 form in the cosines of phase differences and takes every cos/sin pair
from one tangent of the half phase.  The lattice is kept as the one-shot
construction over the whole cube of cells, where the package builds it one
slab of cells at a time, and the bath couplings as the loop over spins and
pairs, ``np.linalg.norm`` of each vector and Python-float powers, where the
package takes them in array passes.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.linalg import expm

from nvmag.bath import _DIAMOND_BASIS, _FCC_OFFSETS, _R_111_TO_Z, _Z_HAT
from nvmag.constants import HYPERFINE_PREFACTOR_KHZ_NM3, NUCLEAR_DIPOLE_PREFACTOR_KHZ_NM3
from nvmag.decoherence import _batched_pair_hamiltonians, _cos_sin_from_half
from nvmag.errors import NoRevivalError
from nvmag.timescales import (
    _COMB_JITTER_GRID_STEPS,
    _MAX_TALL_PEAKS,
    _SNAP_TOLERANCE,
    _TIEBREAK_FRACTION,
    RevivalPeak,
    _index_regression,
    snap_to_comb,
)

# Spin-1/2 operators (independent copies).
IX = np.array([[0.0, 0.5], [0.5, 0.0]], dtype=complex)
IY = np.array([[0.0, -0.5j], [0.5j, 0.0]], dtype=complex)
IZ = np.array([[0.5, 0.0], [0.0, -0.5]], dtype=complex)
I2 = np.eye(2, dtype=complex)

def _embed(op: np.ndarray, site: int, n: int) -> np.ndarray:
    """Single-site operator embedded in an n-spin tensor product."""
    out = np.array([[1.0 + 0j]])
    for k in range(n):
        out = np.kron(out, op if k == site else I2)
    return out


def full_hamiltonian(
    fields_g: list[np.ndarray],
    pair_couplings_khz: dict[tuple[int, int], float],
    gamma_n: float,
) -> np.ndarray:
    """Full-Hilbert bath Hamiltonian (kHz) for given per-spin fields.

    H = sum_i -gamma_n (h_i . I_i)
        + sum_(i<j) b_ij [ Iz_i Iz_j - (Ix_i Ix_j + Iy_i Iy_j) / 2 ]

    The pair term is the Ising + flip-flop operator: the transverse part
    equals -(I+I- + I-I+)/4.
    """
    n = len(fields_g)
    dim = 2**n
    ham = np.zeros((dim, dim), dtype=complex)
    for i, h in enumerate(fields_g):
        ham += -gamma_n * (
            h[0] * _embed(IX, i, n) + h[1] * _embed(IY, i, n) + h[2] * _embed(IZ, i, n)
        )
    for (i, j), b in pair_couplings_khz.items():
        ham += b * (
            _embed(IZ, i, n) @ _embed(IZ, j, n)
            - 0.5 * (
                _embed(IX, i, n) @ _embed(IX, j, n)
                + _embed(IY, i, n) @ _embed(IY, j, n)
            )
        )
    return ham


def propagator_expm(ham_khz: np.ndarray, t_ms: float) -> np.ndarray:
    """exp(-i 2 pi H t) by scipy's Pade expm, not eigendecomposition."""
    return expm(-2j * np.pi * ham_khz * t_ms)


def exact_echo(
    positions_hyperfine: list[tuple[np.ndarray, np.ndarray]],
    pair_couplings_khz: dict[tuple[int, int], float],
    field_g: np.ndarray,
    total_t_ms: float,
    gamma_n: float,
) -> float:
    """Exact echo factor of the whole bath at total evolution time t.

    Both electron-branch propagators act for t/2; the echo contracts them
    against the maximally mixed bath state:
        L = Re Tr[(U0 U1)^dagger (U1 U0)] / 2^n
    with branch fields h0 = B and h1 = B - A_i / gamma_n.
    """
    n = len(positions_hyperfine)
    b = np.asarray(field_g, dtype=float)
    h0 = [b for _ in range(n)]
    h1 = [b - np.asarray(a, dtype=float) / gamma_n for _, a in positions_hyperfine]
    ham0 = full_hamiltonian(h0, pair_couplings_khz, gamma_n)
    ham1 = full_hamiltonian(h1, pair_couplings_khz, gamma_n)
    u0 = propagator_expm(ham0, 0.5 * total_t_ms)
    u1 = propagator_expm(ham1, 0.5 * total_t_ms)
    w0 = u1 @ u0
    w1 = u0 @ u1
    return float(np.trace(w1.conj().T @ w0).real) / 2**n


def exact_echo_trace(bath, field_g: np.ndarray, tau_grid_ms, gamma_n: float):
    """Exact echo on a per-interval tau grid (total time 2 tau per point)."""
    spins = [(np.asarray(s.position), np.asarray(s.hyperfine)) for s in bath.spins]
    return np.array(
        [
            exact_echo(spins, dict(bath.pair_couplings), field_g, 2.0 * tau, gamma_n)
            for tau in np.asarray(tau_grid_ms, dtype=float)
        ]
    )


def single_echo_unitary(h0_g, h1_g, total_t_ms: float, gamma_n: float) -> float:
    """One-spin echo factor via 2x2 expm propagators."""
    def ham(h):
        h = np.asarray(h, dtype=float)
        return -gamma_n * (h[0] * IX + h[1] * IY + h[2] * IZ)

    u0 = propagator_expm(ham(h0_g), 0.5 * total_t_ms)
    u1 = propagator_expm(ham(h1_g), 0.5 * total_t_ms)
    w0 = u1 @ u0
    w1 = u0 @ u1
    return float(np.trace(w1.conj().T @ w0).real) / 2.0


def spin1_levels_charpoly(field_g, splitting_ghz: float, gamma_ghz_per_g: float):
    """Ground-triplet levels by characteristic-polynomial roots.

    Builds D Sz^2 - gamma B . S in the S = 1 basis, forms the cubic
    lambda^3 - c2 lambda^2 + c1 lambda - c0 from the matrix invariants,
    and solves it with numpy.roots.
    """
    sx = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex) / np.sqrt(2)
    sy = np.array([[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]], dtype=complex) / np.sqrt(2)
    sz = np.diag([1.0, 0.0, -1.0]).astype(complex)
    b = np.asarray(field_g, dtype=float)
    ham = splitting_ghz * (sz @ sz) - gamma_ghz_per_g * (b[0] * sx + b[1] * sy + b[2] * sz)
    c2 = np.trace(ham).real
    c1 = 0.5 * (np.trace(ham).real ** 2 - np.trace(ham @ ham).real)
    c0 = np.linalg.det(ham).real
    roots = np.roots([1.0, -c2, c1, -c0])
    return np.sort(roots.real)


def si_dipole_prefactor_khz_nm3(gamma_i_khz_per_g: float, gamma_j_khz_per_g: float) -> float:
    """Point-dipole coupling prefactor from raw SI constants.

    (mu0 / 4 pi) h gamma_i gamma_j / r^3 with the ratios converted from
    kHz/G to Hz/T, the result converted from Hz m^3 to kHz nm^3.
    """
    mu0_over_4pi = 1e-7            # T m / A
    planck_h = 6.62607015e-34      # J s
    khz_per_g_to_hz_per_t = 1e3 * 1e4
    gi = gamma_i_khz_per_g * khz_per_g_to_hz_per_t
    gj = gamma_j_khz_per_g * khz_per_g_to_hz_per_t
    c_si = mu0_over_4pi * planck_h * gi * gj  # Hz m^3
    return c_si * 1e27 * 1e-3                 # kHz nm^3


def extract_TR_loop(peaks: list[RevivalPeak], grid_step_ms: float) -> tuple[float, float]:
    """Revival spacing (ms) from the peak train, with an uncertainty.

    With exactly two peaks the spacing itself is returned and the grid step
    stands in for the uncertainty.  With more, the spacing is found by a
    comb search: every observed gap and every difference between tall
    maxima (with small integer submultiples) is tried as a candidate
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
    index.
    """
    if len(peaks) < 2:
        raise NoRevivalError(
            "fewer than two coherence peaks: revival spacing is undefined"
        )
    times = np.array([p.time for p in peaks], dtype=float)
    heights = np.array([p.height for p in peaks], dtype=float)
    if len(peaks) == 2:
        spacing = float(times[1] - times[0])
        return spacing, float(grid_step_ms)

    # physical coherence cannot exceed 1: heights beyond that are pair
    # truncation artifacts and must not carry extra voting power
    capped = np.clip(heights, 0.0, 1.0)
    gaps = np.diff(times)
    floor = 3.0 * grid_step_ms

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
    scored: list[tuple[float, float]] = []  # (score, refined period)
    t_last = float(t_sc.max()) if len(t_sc) else float(times.max())
    for period in kept:
        # snap/refine/re-snap: a candidate carrying the jitter of a single
        # peak-pair difference drifts off the comb within a couple dozen
        # teeth, so converge it onto the comb before judging it
        refined = period
        final = None
        for _ in range(3):
            ratio = t_sc / refined
            teeth = np.round(ratio)
            resid = np.abs(ratio - teeth)
            mask = (teeth >= 1) & (resid <= _SNAP_TOLERANCE)
            if not np.any(mask):
                final = None
                break
            k = teeth[mask].astype(int)
            wc = w_sc[mask] * (1.0 - (resid[mask] / _SNAP_TOLERANCE) ** 2)
            t_m = t_sc[mask]
            # only the single best peak per comb tooth counts, so dense
            # ringing cannot out-vote the revival train by sheer number
            order = np.lexsort((wc, k))
            uniq = np.unique(k[order])
            idx = np.searchsorted(k[order], uniq, side="right") - 1
            best_wc, best_t = wc[order][idx], t_m[order][idx]
            final = (best_wc, best_t, uniq.astype(float))
            denom = float(np.sum(best_wc * uniq.astype(float) ** 2))
            if denom <= 0:
                break
            fit = float(np.sum(best_wc * uniq * best_t)) / denom
            if not math.isfinite(fit) or fit <= 0:
                break
            refined = fit
        if final is None:
            scored.append((0.0, period))
            continue
        best_wc, best_t, uniq = final
        # one claimed tooth pins no spacing: a lone artifact peak would
        # otherwise be its own perfectly tight, fully covered comb
        if len(uniq) < 2:
            scored.append((0.0, period))
            continue
        total = float(best_wc.sum())
        n_teeth = max(int(math.floor(t_last / refined + _SNAP_TOLERANCE)), 1)
        coverage = len(uniq) / n_teeth
        # a converged comb is tight: loose residuals that survive the
        # refinement mean the claimed peaks are ringing that merely
        # happens to fall near the teeth.  The jitter scale is absolute
        # (grid-referenced) — relative to the candidate period it would
        # flatter subharmonics, whose teeth see the same scatter divided
        # by a longer period
        best_r_ms = np.abs(best_t - uniq * refined)
        rms_ms = math.sqrt(float(np.sum(best_wc * best_r_ms**2)) / total)
        scale_ms = _COMB_JITTER_GRID_STEPS * grid_step_ms
        tightness = 1.0 / (1.0 + (rms_ms / scale_ms) ** 2)
        scored.append((total * coverage * tightness, refined))
    if scored:
        top = max(s for s, _ in scored)
        for (score, refined), period in zip(scored, kept):  # kept descends
            if score >= _TIEBREAK_FRACTION * top:
                best_period, best_score = refined, score
                break

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


# Doubles per pair-point in the workspace of the M-product kernels below:
# 4 rows of phase arguments, 8 of the phases' cosines and sines, 32 of M.
_M_KERNEL_WORKSPACE_ROWS = 44


def pair_spectra_m_kernel(
    h1_left: np.ndarray,
    h1_right: np.ndarray,
    b: np.ndarray,
    field_arr: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Time-independent part of the M-product pair kernels for n pairs.

    ``h1_left``/``h1_right`` are the (n, 3) m = +1 branch fields of each
    pair's two spins, ``b`` their (n,) couplings; the m = 0 branch sees the
    bare field.  Returns the (n, 4) level energies ``e0`` and ``e1`` of the
    two branch Hamiltonians and ``kern`` (n, 32, 8), the real form of
    K[d, b, a] = O_da conj(O_ba) with O = V0^+ V1: it maps the phase
    column [cos th_a; sin th_a] of branch 1 to [Re M_db; Im M_db], (d, b)
    flattened (see :func:`pair_kernel_factors_libm`).
    """
    n = b.size
    h0 = np.broadcast_to(field_arr, (n, 3))
    e0, v0 = np.linalg.eigh(_batched_pair_hamiltonians(h0, h0, b))
    e1, v1 = np.linalg.eigh(_batched_pair_hamiltonians(h1_left, h1_right, b))
    overlap = np.matmul(v0.conj().transpose(0, 2, 1), v1)  # O = V0^+ V1
    k = (overlap[:, :, None, :] * overlap.conj()[:, None, :, :]).reshape(n, 16, 4)
    kern = np.empty((n, 32, 8))
    kern[:, :16, :4] = k.real
    kern[:, :16, 4:] = -k.imag
    kern[:, 16:, :4] = k.imag
    kern[:, 16:, 4:] = k.real
    return e0, e1, kern


def _libm_cos_sin(e, tau, theta, cos_out, sin_out):
    np.multiply((2.0 * np.pi * e)[:, :, None], tau, out=theta)
    np.cos(theta, out=cos_out)
    np.sin(theta, out=sin_out)


def _half_angle_cos_sin(e, tau, theta, cos_out, sin_out):
    half = np.multiply((np.pi * e)[:, :, None], tau, out=theta)
    _cos_sin_from_half(half, cos_out, sin_out)


def _m_product_kernel(spectra, tau: np.ndarray, cos_sin) -> np.ndarray:
    """(n, T) pair echo factors at branch durations ``tau`` (total time 2 tau).

    Contraction in the eigenbasis of the m = 0 branch Hamiltonian H0.  With
    H_m = V_m diag(e_m) V_m^+ and O = V0^+ V1, the m = +1 propagator there
    is M(tau) = O diag(exp(i th1)) O^+ (up to the sign of all phases, which
    L does not see), th_m = 2 pi e_m tau, and

        L = 1/4 Re Tr[U1^+ U0^+ U1 U0]
          = 1/4 sum_bd |M_db|^2 cos(th0_b - th0_d),
        M_db = sum_a K[d, b, a] exp(i th1_a).

    A pair-point costs four cos/sin pairs per branch, one small real
    product with the kernel for the 16 entries of M, and the weighted sum.
    ``cos_sin(e, tau, theta, cos_out, sin_out)`` writes the cosines and
    sines of one branch's phases, each from its own level energy, with
    ``theta`` as scratch.  ``spectra`` is the output of
    :func:`pair_spectra_m_kernel`.
    """
    e0, e1, kern = spectra
    n, n_t = e1.shape[0], tau.size
    size = n * n_t
    workspace = np.empty(_M_KERNEL_WORKSPACE_ROWS * size)
    theta = workspace[: 4 * size].reshape(n, 4, n_t)
    phases = workspace[4 * size : 12 * size].reshape(n, 8, n_t)
    m = workspace[12 * size :].reshape(n, 32, n_t)
    cos_sin(e1, tau, theta, phases[:, :4], phases[:, 4:])
    np.matmul(kern, phases, out=m)  # (n, 32, T): [Re M; Im M]
    np.multiply(m, m, out=m)
    amp = np.add(m[:, :16], m[:, 16:], out=m[:, :16]).reshape(n, 4, 4, n_t)  # |M_db|^2
    cos0, sin0 = phases[:, :4], phases[:, 4:]
    cos_sin(e0, tau, theta, cos0, sin0)
    # cos(th0_b - th0_d) = cos0_b cos0_d + sin0_b sin0_d
    in_cos, in_sin = m[:, 16:20], m[:, 20:24]
    np.einsum("pdbt,pbt->pdt", amp, cos0, out=in_cos)
    np.einsum("pdbt,pbt->pdt", amp, sin0, out=in_sin)
    out, sin_part = m[:, 24], m[:, 25]
    np.einsum("pdt,pdt->pt", cos0, in_cos, out=out)
    np.einsum("pdt,pdt->pt", sin0, in_sin, out=sin_part)
    out += sin_part
    out *= 0.25
    return out


def pair_kernel_factors_libm(spectra, tau: np.ndarray) -> np.ndarray:
    """The M-product kernel with libm ``cos``/``sin`` of every phase 2 pi e tau."""
    return _m_product_kernel(spectra, tau, _libm_cos_sin)


def pair_kernel_factors_half_angle(spectra, tau: np.ndarray) -> np.ndarray:
    """The M-product kernel with each cos/sin pair from the tangent of the
    half phase pi e tau (:func:`nvmag.decoherence._cos_sin_from_half`)."""
    return _m_product_kernel(spectra, tau, _half_angle_cos_sin)


def lattice_sites_one_shot(config) -> np.ndarray:
    """``generate_lattice_sites`` as it was: every cell of the cube in one array."""
    a = config.lattice_constant_nm
    span = int(np.ceil(config.cutoff_radius / a)) + 1
    cells = np.arange(-span, span + 1)
    ci, cj, ck = np.meshgrid(cells, cells, cells, indexing="ij")
    corners = np.stack([ci, cj, ck], axis=-1).reshape(-1, 3).astype(float)

    fractional = (_FCC_OFFSETS[:, None, :] + _DIAMOND_BASIS[None, :, :]).reshape(-1, 3)
    sites = (corners[:, None, :] + fractional[None, :, :]).reshape(-1, 3) * a

    radii = np.linalg.norm(sites, axis=1)
    nitrogen = np.full(3, a / 4.0)
    is_defect = (radii < 1e-9) | (np.linalg.norm(sites - nitrogen, axis=1) < 1e-9)
    keep = (
        ~is_defect
        & (radii > config.exclusion_radius_nm)
        & (radii <= config.cutoff_radius)
    )
    sites = sites[keep] @ _R_111_TO_Z.T

    order = np.lexsort(np.round(sites, 9).T[::-1])
    return sites[order]


def bath_couplings_loop(positions, pair_i, pair_j) -> tuple[np.ndarray, np.ndarray]:
    """Hyperfine vectors and pair couplings as ``sample_bath`` took them, one
    vector at a time: ``np.linalg.norm`` of each vector, then Python-float
    ``r**3`` and ``cos_t**2`` (libm pow), in the scalar formulas' order."""
    hyperfine = np.empty_like(positions)
    for k, p in enumerate(positions):
        r = float(np.linalg.norm(p))
        r_hat = p / r
        hyperfine[k] = (HYPERFINE_PREFACTOR_KHZ_NM3 / r**3) * (_Z_HAT - 3.0 * r_hat[2] * r_hat)
    couplings = np.empty(len(pair_i))
    for k, (i, j) in enumerate(zip(pair_i.tolist(), pair_j.tolist())):
        d = positions[j] - positions[i]
        r = float(np.linalg.norm(d))
        cos_t = float(d[2]) / r
        couplings[k] = (NUCLEAR_DIPOLE_PREFACTOR_KHZ_NM3 / r**3) * (1.0 - 3.0 * cos_t**2)
    return hyperfine, couplings
