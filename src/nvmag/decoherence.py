"""Hahn-echo coherence of the central electron spin.

Model
-----
The electron is prepared in a superposition of the m = 0 and m = +1
projections, refocused once, and read out.  Each bath nucleus precesses
about a branch-dependent effective field: the bare applied field in the
m = 0 branch, and the applied field shifted by its hyperfine vector
(converted to Gauss) in the m = +1 branch (:func:`effective_field`); no
other electron projection is modelled.  Echo factors contract the two
branch propagators against a maximally mixed bath state; pulses are ideal
and instantaneous.

Time axes: the echo *factor* functions take the total free-evolution time
``t`` with the refocusing flip at ``t/2``.  A :class:`CoherenceTrace` is
tabulated against ``tau``, the duration of each of the two free-precession
intervals (the axis revival laws are quoted on), so the trace evaluates the
factors at total time ``2 * tau``.  On that axis revivals recur every
Larmor period ``1 / (gamma_n * |B|)`` (:func:`larmor_period`), gamma_n the
fixed 13C ratio.

Bath correlations are truncated at pair level: the trace is the product of
all single-spin factors times, for every retained pair, the pair factor
divided by its constituents' singles.  The product is accumulated in log
magnitude with separate sign parity, and a pair's correction ratio is
dropped wherever its denominator passes through zero (see
:data:`PAIR_RATIO_FLOOR`).

A trace runs its pairs in (coupling, i, j) order.  The m = 0 branch sees
the bare field, so its pair Hamiltonian depends on the coupling alone, and
a lattice repeats its couplings: the m = 0 eigensolve and phase features
are computed once per distinct coupling of a batch of pairs.  Each grid
point's log sum adds the pairs in that order, one after another, so a
trace's value at a time depends on that time, the bath and the field
alone, and not on the rest of the grid, the tile width or the thread
count.
"""

from __future__ import annotations

import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field as dc_field
from pathlib import Path

import numpy as np

from .bath import (
    BathRealization, NuclearSpin, _input_text, csv_text, finite_array, finite_number,
    finite_vector, increasing_array, integer, json_text, load_strict_json, positive,
)
from .constants import GAMMA_N_13C_KHZ_PER_G
from .errors import (
    ConfigError,
    DomainError,
    GridTooCoarseError,
    PhysicsError,
    ShapeError,
)

_I2 = np.eye(2, dtype=complex)

# Ising + flip-flop pair operator:  Iz Iz - (I+ I- + I- I+) / 4.
_PAIR_DIPOLAR_OP = np.array(
    [
        [0.25, 0.0, 0.0, 0.0],
        [0.0, -0.25, -0.25, 0.0],
        [0.0, -0.25, -0.25, 0.0],
        [0.0, 0.0, 0.0, 0.25],
    ],
    dtype=complex,
)

# Minimum sampling of the expected revival period demanded of a time grid,
# and the sampling EchoSchedule.for_field uses unless told otherwise.
POINTS_PER_LARMOR_PERIOD_MIN = 40
POINTS_PER_LARMOR_PERIOD_DEFAULT = 48

# A pair's correction ratio  L_pair / (L_i L_j)  is indeterminate where its
# constituent single factors pass through zero (numerator and denominator
# vanish at slightly offset times, so the raw ratio spikes).  The correction
# is dropped wherever |L_i L_j| falls below this floor; there the overall
# product is already suppressed by the same small single factors, so the
# neglected correction multiplies a value of at most floor magnitude.
PAIR_RATIO_FLOOR = 1e-4

_LOG_FLOOR = 1e-300

# Pairs per batch: one pair-spectra call each.  A spectra call has a fixed
# cost of about 0.1 ms, which small batches pay over and over.  The batch
# size must not depend on the worker count, or the order of the trace's
# sums, and so its rounding, would.
PAIRS_PER_BATCH = 256

# Grid points per time tile, a trace's unit of pool work: each pair-kernel
# call runs one batch over one tile.  A point's value does not depend on
# the width.
POINTS_PER_TILE = 64

# Doubles per pair-point in the pair kernel's workspace, laid out level-major
# as (rows, pairs, points): 4 rows of half phase arguments (then their
# tangents, then feature temporaries), 8 of the per-level cosines and sines,
# 7 of one branch's cosine features (the first all ones), 7 of G f0.
# A tile's fold allocates one workspace (3.25 MiB for a full batch on a
# full tile) and reuses it for every batch: buffers allocated per kernel
# call are mapped and page-faulted anew, the more so from several
# threads' malloc arenas at once.
_WORKSPACE_ROWS = 26

# The level pairs (a, a') with a <= a' that the pair kernel's form needs:
# the four a = a', then the six a < a' grouped by index shift,
# (0,1),(1,2),(2,3) | (0,2),(1,3) | (0,3), so that the cosines of each
# shift are one basic slice of the level-major phase rows.
_LEVEL_LO = np.array([0, 1, 2, 3, 0, 1, 2, 0, 1, 0])
_LEVEL_HI = np.array([0, 1, 2, 3, 1, 2, 3, 2, 3, 3])
# Sums those ten level pairs into the form's seven classes: class 0 the
# four a = a' (weight 1), class k the k-th pair a < a' (weight 2, for
# (a, a') and (a', a)).  Each weight is halved, so that weighting both
# branches gives the 1/4 of L.
_CLASS_WEIGHTS = np.zeros((10, 7))
_CLASS_WEIGHTS[:4, 0] = 0.5
_CLASS_WEIGHTS[4:, 1:] = np.eye(6)


@dataclass(frozen=True)
class FieldVector:
    """Static magnetic field in the defect frame, Gauss."""

    bx: float
    by: float
    bz: float

    def __post_init__(self) -> None:
        finite_vector((self.bx, self.by, self.bz), "field components")

    @classmethod
    def from_sequence(cls, seq) -> "FieldVector":
        return cls(*finite_vector(seq, "field"))

    @classmethod
    def along_z(cls, magnitude: float) -> "FieldVector":
        return cls(0.0, 0.0, float(finite_number(magnitude, "field magnitude")))

    def as_array(self) -> np.ndarray:
        return np.array([self.bx, self.by, self.bz], dtype=float)

    @property
    def magnitude(self) -> float:
        return float(np.linalg.norm(self.as_array()))


def larmor_period(field_magnitude_g: float) -> float:
    """13C Larmor period (ms) at this field: the revival spacing on the tau axis."""
    return 1.0 / (GAMMA_N_13C_KHZ_PER_G * abs(field_magnitude_g))


def required_time_step(field_magnitude_g: float) -> float:
    """Largest grid step (ms) resolving the Larmor period at this field."""
    if finite_number(field_magnitude_g, "field magnitude") == 0.0:
        return np.inf
    return larmor_period(field_magnitude_g) / POINTS_PER_LARMOR_PERIOD_MIN


@dataclass(frozen=True)
class EchoSchedule:
    """Echo time grid: each entry is the per-interval time tau in ms."""

    t_grid: np.ndarray

    def __post_init__(self) -> None:
        grid = increasing_array(self.t_grid, "echo times")
        if grid.size == 0:
            raise ConfigError("empty echo schedule")
        if grid[0] < 0:
            raise ConfigError("echo times must be non-negative")
        object.__setattr__(self, "t_grid", grid)

    @classmethod
    def regular(cls, t_max_ms: float, step_ms: float) -> "EchoSchedule":
        positive(t_max_ms, "t_max")
        positive(step_ms, "step")
        n = int(np.ceil(t_max_ms / step_ms))
        return cls(np.linspace(0.0, n * step_ms, n + 1))

    @classmethod
    def for_field(
        cls,
        field_magnitude_g: float,
        t_max_ms: float,
        points_per_period: int = POINTS_PER_LARMOR_PERIOD_DEFAULT,
    ) -> "EchoSchedule":
        """Regular grid resolving the revival period at the given field."""
        if finite_number(field_magnitude_g, "field magnitude") == 0.0:
            raise ConfigError("zero field has no Larmor period; use regular()")
        if integer(points_per_period, "points_per_period") < POINTS_PER_LARMOR_PERIOD_MIN:
            raise ConfigError(
                f"points_per_period must be >= {POINTS_PER_LARMOR_PERIOD_MIN}"
            )
        return cls.regular(t_max_ms, larmor_period(field_magnitude_g) / points_per_period)

    def validate_resolution(self, field_magnitude_g: float) -> None:
        """Raise if the grid undersamples the expected revival period."""
        required = required_time_step(field_magnitude_g)
        step = float(np.max(np.diff(self.t_grid), initial=0.0))
        if step > required * (1.0 + 1e-9):
            raise GridTooCoarseError(
                f"grid step {step:.6g} ms undersamples the revival period at "
                f"|B| = {abs(field_magnitude_g):g} G; use a step <= {required:.6g} ms "
                f"({POINTS_PER_LARMOR_PERIOD_MIN} points per period)"
            )


@dataclass
class CoherenceTrace:
    """Echo coherence L(tau) on a time grid, with provenance metadata."""

    t_grid: np.ndarray
    values: np.ndarray
    metadata: dict = dc_field(default_factory=dict)

    def __post_init__(self) -> None:
        self.t_grid = increasing_array(self.t_grid, "echo times")
        self.values = finite_array(self.values, "coherence values").reshape(-1)
        if self.t_grid.shape != self.values.shape:
            raise ShapeError("time grid and values differ in length")
        if self.t_grid.size and self.t_grid[0] == 0.0:
            if abs(self.values[0] - 1.0) > 1e-9:
                raise PhysicsError(
                    f"coherence at tau = 0 must be 1, got {self.values[0]!r}"
                )
        if self.exceeds_unity:
            warnings.warn(
                "coherence magnitudes exceed 1; pair truncation is likely "
                "outside its validity range",
                RuntimeWarning,
                stacklevel=3,  # past the generated __init__, at the code building the trace
            )

    def __len__(self) -> int:
        return len(self.t_grid)

    @property
    def exceeds_unity(self) -> bool:
        """Whether some |L| exceeds 1 by more than rounding: pair truncation
        outside its validity range."""
        return bool(self.values.size) and float(np.max(np.abs(self.values))) > 1.0 + 1e-9

    def save_csv(self, csv_path) -> Path:
        """Write (t_ms, L) rows plus a JSON metadata sidecar; returns sidecar path.

        Metadata that strict JSON cannot hold, and a ``.json`` path, which
        is the sidecar's own, are refused before either file is opened.
        """
        csv_path = Path(csv_path)
        sidecar = csv_path.with_suffix(".json")
        if sidecar == csv_path:
            raise ConfigError(f"trace file {csv_path} would be overwritten by its .json sidecar")
        table = csv_text(["t_ms", "L"], zip(self.t_grid.tolist(), self.values.tolist()))
        metadata = json_text(self.metadata) + "\n"
        csv_path.write_text(table)
        sidecar.write_text(metadata)
        return sidecar

    @classmethod
    def load_csv(cls, csv_path) -> "CoherenceTrace":
        """Read what :meth:`save_csv` writes: the ``t_ms,L`` header line, then
        one row per grid point, plus the sidecar if there is one."""
        csv_path = Path(csv_path)
        header, *rows = _input_text(csv_path, "trace file", "replace").splitlines() or [""]
        if header != "t_ms,L":
            raise ConfigError(f"{csv_path} does not start with the header line t_ms,L")
        if not any(row.strip() for row in rows):
            raise ConfigError(f"{csv_path} holds no rows")
        try:
            data = np.loadtxt(rows, delimiter=",", ndmin=2, comments=None)
        except ValueError as exc:
            raise ConfigError(f"{csv_path} is not a numeric trace file: {exc}") from exc
        if data.shape[1] != 2:
            raise ConfigError(f"{csv_path} is not a two-column trace file")
        sidecar = csv_path.with_suffix(".json")
        metadata = load_strict_json(sidecar, "trace sidecar", dict) if sidecar.exists() else {}
        return cls(t_grid=data[:, 0], values=data[:, 1], metadata=metadata)


def effective_field(field: FieldVector, hyperfine_khz) -> np.ndarray:
    """Effective field (Gauss) seen by a nucleus in the m = +1 electron branch.

    The applied field shifted by the hyperfine vector converted to field
    units, B - A / gamma_n; with an (N, 3) stack of hyperfine vectors the
    result is (N, 3).  The m = 0 branch sees the applied field itself,
    ``field.as_array()``.
    """
    return field.as_array() - finite_array(hyperfine_khz, "hyperfine_khz") / GAMMA_N_13C_KHZ_PER_G


def single_spin_echo_factor(h0_g, h1_g, t_ms):
    """Echo factor of one nucleus for total evolution time ``t_ms``.

    Each branch precesses about its effective field for t/2 on either side
    of the refocusing flip.  Closed form of the propagator contraction:

        L = 1 - 2 |n0 x n1|^2 sin^2(w0 t / 4) sin^2(w1 t / 4),

    with w_m = 2 pi gamma_n |h_m| the angular precession rates and n_m the
    field unit vectors.  Is the trace engine's single-spin table
    (:func:`_single_tables`) of this one spin at branch duration t/2.
    Accepts scalar or array ``t_ms``.
    """
    h0 = np.array(finite_vector(h0_g, "h0_g"))
    h1 = np.array([finite_vector(h1_g, "h1_g")])
    t = finite_array(t_ms, "t_ms")
    out = _single_tables(h0, h1, 0.5 * t.reshape(-1))[0][0]
    return float(out[0]) if t.ndim == 0 else out.reshape(t.shape)


def pair_echo_factor(
    spin_i: NuclearSpin,
    spin_j: NuclearSpin,
    b_ij_khz: float,
    field: FieldVector,
    t_ms,
):
    """Echo factor of a coupled nuclear pair for total evolution time ``t_ms``.

    Exact 4x4 evolution of the pair under the two conditioned Hamiltonians
    (each branch's Zeeman terms plus the shared Ising + flip-flop coupling),
    contracted against the maximally mixed pair state.  Runs the trace
    engine's pair kernel (:func:`_pair_kernel_factors`) on their one-pair
    bath at branch duration t/2.  Accepts scalar or array ``t_ms``.  A
    single time runs on two copies of itself, as a one-point trace grid
    does, so that it has the bits it has inside any longer array.
    """
    pair = BathRealization([spin_i, spin_j], {(0, 1): b_ij_khz})
    h1 = effective_field(field, pair.hyperfine)
    spectra = _pair_spectra(h1[:1], h1[1:], pair.pair_b, field.as_array())
    t = finite_array(t_ms, "t_ms")
    copies = 2 if t.size == 1 else 1  # numpy multiplies a single column along another path
    tau = np.repeat(0.5 * t.reshape(-1), copies)
    out = _pair_kernel_factors(spectra, tau, np.empty(_WORKSPACE_ROWS * tau.size))[0][::copies]
    return float(out[0]) if t.ndim == 0 else out.reshape(t.shape)


def _single_tables(h0: np.ndarray, h1: np.ndarray, tau: np.ndarray) -> tuple:
    """(N, T) single-spin factors at branch duration tau (total time 2 tau)
    of the spins with m = +1 fields ``h1`` (N, 3) under the m = 0 field
    ``h0`` (3,), and per grid point the sum of their log magnitudes,
    log(max(|L|, :data:`_LOG_FLOOR`)), and the count of negative factors.

    A trace calls it on one time tile (:data:`POINTS_PER_TILE` points) at a
    time; the table and its logs are built in place in two (N, T) buffers.
    On two or more points numpy sums the logs row after row in spin order,
    so each point's sum has the same bits on any tile of two or more.
    """
    b0 = float(np.linalg.norm(h0))
    b1 = np.linalg.norm(h1, axis=1)  # (N,)
    n0 = h0 / b0 if b0 > 0 else np.zeros(3)
    n1 = h1 / np.where(b1 > 0, b1, 1.0)[:, None]
    k = np.sum(np.cross(np.broadcast_to(n0, h1.shape), n1) ** 2, axis=1)
    k = np.where((b1 > 0) & (b0 > 0), k, 0.0)  # non-precessing branch: closed echo
    s0sq = np.sin(np.pi * GAMMA_N_13C_KHZ_PER_G * b0 * tau) ** 2  # (T,)

    s1sq = np.multiply((np.pi * GAMMA_N_13C_KHZ_PER_G * b1)[:, None], tau)
    np.square(np.sin(s1sq, out=s1sq), out=s1sq)
    singles = np.multiply((2.0 * k)[:, None], s0sq)
    np.subtract(1.0, np.multiply(singles, s1sq, out=singles), out=singles)  # 1 - 2 k s0^2 s1^2
    logs = np.log(np.maximum(np.abs(singles, out=s1sq), _LOG_FLOOR, out=s1sq), out=s1sq)
    return singles, np.sum(logs, axis=0), np.count_nonzero(singles < 0.0, axis=0)


def _batched_pair_hamiltonians(
    h_left: np.ndarray, h_right: np.ndarray, b: np.ndarray
) -> np.ndarray:
    """(P, 4, 4) conditioned pair Hamiltonians for one branch."""
    def zeeman_stack(h: np.ndarray) -> np.ndarray:
        z = np.zeros((h.shape[0], 2, 2), dtype=complex)
        z[:, 0, 0] = h[:, 2]
        z[:, 1, 1] = -h[:, 2]
        z[:, 0, 1] = h[:, 0] - 1j * h[:, 1]
        z[:, 1, 0] = h[:, 0] + 1j * h[:, 1]
        return -0.5 * GAMMA_N_13C_KHZ_PER_G * z

    zi = zeeman_stack(h_left)
    zj = zeeman_stack(h_right)
    ham = np.einsum("pij,kl->pikjl", zi, _I2).reshape(-1, 4, 4)
    ham += np.einsum("ij,pkl->pikjl", _I2, zj).reshape(-1, 4, 4)
    ham += b[:, None, None] * _PAIR_DIPOLAR_OP[None, :, :]
    return ham


def _pair_spectra(
    h1_left: np.ndarray,
    h1_right: np.ndarray,
    b: np.ndarray,
    field_arr: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Time-independent part of the pair kernel for n pairs.

    ``h1_left``/``h1_right`` are the (n, 3) m = +1 branch fields of each
    pair's two spins, ``b`` their (n,) couplings; the m = 0 branch sees the
    bare field.  Returns ``e0`` (d, 4), the level energies of the m = 0
    Hamiltonian for each of the d distinct couplings, ``index`` (n,), each
    pair's row of ``e0``, ``e1`` (n, 4), the level energies of each pair's
    m = +1 Hamiltonian, and ``gram`` (n, 7, 7), the real matrix G of the
    form L = f1^T G f0 over the seven level-pair classes of each branch
    (see :func:`_pair_kernel_factors`).  The m = 0 Hamiltonian depends on
    the coupling alone, so it is built and solved once per distinct
    coupling; ``eigh`` works matrix by matrix, so every pair's spectra have
    the bits they have alone.
    """
    _, first, index = np.unique(b, return_index=True, return_inverse=True)
    h0 = np.broadcast_to(field_arr, (first.size, 3))
    e0, v0 = np.linalg.eigh(_batched_pair_hamiltonians(h0, h0, b[first]))
    e1, v1 = np.linalg.eigh(_batched_pair_hamiltonians(h1_left, h1_right, b))
    overlap = np.matmul(v0[index].conj().transpose(0, 2, 1), v1)  # O = V0^+ V1
    # P[d, u] = O_da conj(O_da') over level pairs u = (a, a') of branch 1
    p = overlap[:, :, _LEVEL_LO] * overlap[:, :, _LEVEL_HI].conj()
    # Re(K_dba conj K_dba') = Re(P[d, u] conj P[b, u]), (b, d) the pairs q
    re_kk = (p[:, _LEVEL_LO] * p[:, _LEVEL_HI].conj()).real  # (n, q, u)
    gram = np.matmul(np.matmul(re_kk, _CLASS_WEIGHTS).transpose(0, 2, 1), _CLASS_WEIGHTS)
    return e0, index, e1, gram


def _cos_sin_from_half(half: np.ndarray, cos_out: np.ndarray, sin_out: np.ndarray) -> None:
    """cos(2 half) and sin(2 half) into ``cos_out``/``sin_out``; overwrites ``half``.

    With t = tan(half): cos = (1 - t^2) / (1 + t^2), sin = 2 t / (1 + t^2).
    Within 2.3e-16 of libm's cos and sin for angles up to 1e7 rad, exactly
    (1, 0) at zero, and finite next to odd multiples of pi, where |t|
    reaches about 1e16 and t^2 does not overflow.
    """
    t = np.tan(half, out=half)
    np.multiply(t, t, out=sin_out)
    np.subtract(1.0, sin_out, out=cos_out)
    np.add(1.0, sin_out, out=sin_out)
    np.divide(cos_out, sin_out, out=cos_out)
    np.multiply(t, 2.0, out=t)
    np.divide(t, sin_out, out=sin_out)


def _level_cosines(
    cos: np.ndarray, sin: np.ndarray, out: np.ndarray, scratch: np.ndarray
) -> None:
    """cos(th_a - th_a') of the six level pairs a < a' into the rows of ``out``.

    Each is cos th_a cos th_a' + sin th_a sin th_a', from the four
    per-level rows of ``cos`` and ``sin``, in the order of
    :data:`_LEVEL_LO`/:data:`_LEVEL_HI`: every index shift is one basic
    slice.  ``scratch`` holds at least three rows.
    """
    lo = 0
    for shift in (1, 2, 3):
        rows, tmp = out[lo : lo + 4 - shift], scratch[: 4 - shift]
        np.multiply(cos[:-shift], cos[shift:], out=rows)
        np.multiply(sin[:-shift], sin[shift:], out=tmp)
        rows += tmp
        lo += 4 - shift


def _pair_kernel_factors(spectra, tau: np.ndarray, workspace: np.ndarray) -> np.ndarray:
    """(n, T) pair echo factors at branch durations ``tau`` (total time 2 tau).

    Contraction in the eigenbasis of the m = 0 branch Hamiltonian H0.  With
    H_m = V_m diag(e_m) V_m^+ and O = V0^+ V1, the m = +1 propagator there
    is M(tau) = O diag(exp(i th1)) O^+ (up to the sign of all phases, which
    L does not see), th_m = 2 pi e_m tau, and

        L = 1/4 Re Tr[U1^+ U0^+ U1 U0]
          = 1/4 sum_bd |M_db|^2 cos(th0_b - th0_d),
        M_db = sum_a K[d, b, a] exp(i th1_a),  K[d, b, a] = O_da conj(O_ba).

    The weight cos(th0_b - th0_d) is symmetric in (b, d), so only
    |M_db|^2 + |M_bd|^2 counts.  K[b, d, a] = conj K[d, b, a], so the sine
    terms of the two squares cancel:

        |M_db|^2 + |M_bd|^2 = sum_aa' 2 Re(K_dba conj K_dba') cos(th1_a - th1_a').

    Both double sums then run over classes of level pairs: class 0 holds
    the four a = a' (cosine 1), classes 1-6 the six a < a' (each standing
    for (a, a') and (a', a)), and

        L = f1^T G f0,  f_m = [1, cos(th_m,a - th_m,a') over the six a < a'],

    with the per-pair real 7x7 matrix G of :func:`_pair_spectra`.  This
    holds for any O: no unitarity is assumed, so eigh's rounding passes
    through as it is.  A pair-point costs four cos/sin pairs and six
    feature cosines per branch, one 7x7 product and a 7-row weighted sum.

    Each phase is evaluated from its own level energy, as in the propagators
    themselves, and each feature cosine from products of per-level cosines
    and sines (:func:`_level_cosines`), never from a level difference.  A
    difference spans up to twice the Zeeman range and rounds differently,
    by up to 1e-13 rad at 100 G; where a pair factor passes near zero that
    moves the trace by up to 2e-11 against the direct propagator
    contraction.  The cos/sin pairs come from one tangent of the half phase
    each (:func:`_cos_sin_from_half`): numpy's float64 ``tan`` is
    vectorised, while its ``cos`` and ``sin`` are scalar libm calls, each
    several times slower per element.  The half phase pi e_m tau is
    exactly half of 2 pi e_m tau, since scaling by a power of two commutes
    with rounding.  ``spectra`` is the output of :func:`_pair_spectra`.

    The m = 0 features depend on the coupling alone, so the half phases,
    cos/sin pairs and feature cosines of that branch are computed once per
    row of ``e0``, one per distinct coupling, in the rows of G f0, which
    are not yet in use, and then taken into every pair's feature rows.
    Each pair-point keeps the bits it has alone, on any ``tau`` of two or
    more points: numpy multiplies a single column along another path.

    Every intermediate, and the result, is a view of ``workspace``, a flat
    float64 buffer of at least :data:`_WORKSPACE_ROWS` doubles per
    pair-point, laid out as (rows, pairs, points) so that every row group
    is one contiguous slice; the result stays valid until the workspace is
    reused.  A trace's fold passes one per tile, for every batch in turn.
    """
    e0, index, e1, gram = spectra
    n, d, n_t = e1.shape[0], e0.shape[0], tau.size
    size = n * n_t
    rows = workspace[: _WORKSPACE_ROWS * size].reshape(_WORKSPACE_ROWS, n, n_t)
    half, cos, sin = rows[:4], rows[4:8], rows[8:12]
    features, g_f0 = rows[12:19], rows[19:26]
    features[0] = 1.0
    # m = 0 features once per distinct coupling, kept in G f0's rows until taken
    f0 = g_f0.reshape(-1)[: 6 * d * n_t].reshape(6, d, n_t)
    np.multiply((np.pi * e0).T[:, :, None], tau, out=half[:, :d])
    _cos_sin_from_half(half[:, :d], cos[:, :d], sin[:, :d])
    _level_cosines(cos[:, :d], sin[:, :d], f0, half[:, :d])
    np.take(f0, index, axis=1, out=features[1:], mode="clip")  # "raise" buffers out
    np.matmul(gram, features.transpose(1, 0, 2), out=g_f0.transpose(1, 0, 2))
    np.multiply((np.pi * e1).T[:, :, None], tau, out=half)
    _cos_sin_from_half(half, cos, sin)
    _level_cosines(cos, sin, features[1:], half)
    np.multiply(features[1:], g_f0[1:], out=features[1:])
    out = g_f0[0]
    for row in features[1:]:
        out += row
    return out


def _pair_batches(bath: BathRealization) -> list:
    """The bath's pair table in (coupling, i, j) order, split into the pool's batches.

    A stable sort of the (i, j)-sorted table by coupling puts pairs with
    equal couplings, which a lattice repeats, into the same batch, where
    the m = 0 branch is solved once per distinct coupling
    (:func:`_pair_spectra`, :func:`_pair_kernel_factors`).  Each batch
    holds :data:`PAIRS_PER_BATCH` pairs (the last one the rest) as (idx_i,
    idx_j, couplings) arrays.
    """
    order = np.argsort(bath.pair_b, kind="stable")
    table = bath.pair_i[order], bath.pair_j[order], bath.pair_b[order]
    starts = range(0, order.size, PAIRS_PER_BATCH)
    return [tuple(part[lo : lo + PAIRS_PER_BATCH] for part in table) for lo in starts]


def _pool_size(n_tasks: int) -> int:
    """Worker threads for ``n_tasks`` tasks: NVMAG_THREADS, else the CPUs it may run on."""
    env = os.environ.get("NVMAG_THREADS", "").strip()
    if env:
        try:
            cap = int(env)
        except ValueError as exc:
            raise ConfigError(f"NVMAG_THREADS must be an integer, got {env!r}") from exc
        if cap < 1:
            raise ConfigError("NVMAG_THREADS must be >= 1")
    elif hasattr(os, "sched_getaffinity"):
        cap = len(os.sched_getaffinity(0))
    else:
        cap = os.cpu_count() or 1
    return max(1, min(cap, n_tasks))


def echo_coherence_trace(
    bath: BathRealization,
    field: FieldVector,
    schedule: EchoSchedule,
) -> CoherenceTrace:
    """Pair-truncated echo coherence of the full bath on the schedule grid.

    The trace is the product of every single-spin factor and, for each
    retained pair, the pair factor divided by its constituents' singles
    (equivalently: pair factors times singles raised to one minus their
    pair multiplicity).  Exact for baths of at most two spins; a bath
    without spins sums over no rows, so its trace is exactly 1.

    Pairs are processed in batches of :data:`PAIRS_PER_BATCH` pairs of the
    bath's pair table in (coupling, i, j) order (:func:`_pair_batches`), on
    a pool of ``NVMAG_THREADS`` worker threads (default: one per CPU, never
    more than there are tasks).  The pool runs :func:`_pair_spectra` once
    per batch, and the trace holds the spectra; then it folds the grid's
    tiles, consecutive slices of :data:`POINTS_PER_TILE` points (the last
    one the rest), one task each.  A tile's fold builds its single-spin
    factors and their log sum (:func:`_single_tables`), then runs the pair
    kernel on each batch in batch order.  Per pair-point it takes one log,
    of max(|L_ij|, floor) / |L_i L_j|, where the correction is kept, and
    adds each batch's column sums, the pairs one after another, to the
    tile's sums.  A tile of one point is folded on two copies of its point,
    since numpy takes another path on a single column, and keeps the
    first.  Neither batches nor tiles depend on the worker count, and a
    point's sums do not depend on the tiling, so the trace at each time is
    bit-identical at every thread count and tile width, and on any
    sub-grid.  Memory does not grow with the grid: the held spectra (at
    most 57 doubles per pair) plus, per running tile, one workspace of
    :data:`_WORKSPACE_ROWS` doubles per pair-point of a kernel call
    (3.25 MiB), one N x 64 table of single-spin factors with its logs, and
    one batch's few fold temporaries.

    ``metadata["diagnostics"]`` counts how hard the model was pushed:

    - ``pair_points_dropped``: pair-points (pair, grid point) whose
      correction ratio was dropped because |L_i L_j| <= :data:`PAIR_RATIO_FLOOR`;
    - ``undersampled_spins``: spins whose m = +1 precession rate
      gamma_n |h1| exceeds the Nyquist rate 1 / (2 step) of the grid, with
      step its largest spacing.  Their factors alias on the grid; the grid
      is not resampled.
    """
    field_arr = field.as_array()
    schedule.validate_resolution(field.magnitude)
    grid = schedule.t_grid
    batches = _pair_batches(bath)
    tiles = [slice(lo, lo + POINTS_PER_TILE) for lo in range(0, grid.size, POINTS_PER_TILE)]
    n_workers = _pool_size(max(len(batches), len(tiles)))

    h1 = effective_field(field, bath.hyperfine)  # (N, 3)
    undersampled = 0
    if grid.size > 1:
        nyquist = 0.5 / float(np.max(np.diff(grid)))
        rates = GAMMA_N_13C_KHZ_PER_G * np.linalg.norm(h1, axis=1)
        undersampled = int(np.count_nonzero(rates > nyquist))

    def solve(batch):
        bi, bj, bb = batch
        return _pair_spectra(h1[bi], h1[bj], bb, field_arr)

    def fold(tile):
        points = grid[tile]
        copies = 2 if points.size == 1 else 1  # numpy takes another path on one column
        points = np.repeat(points, copies)
        workspace = np.empty(_WORKSPACE_ROWS * PAIRS_PER_BATCH * points.size)
        singles, log_sum, neg_count = _single_tables(field_arr, h1, points)
        n_dropped = 0
        for (bi, bj, _), batch_spectra in zip(batches, spectra):
            factors = _pair_kernel_factors(batch_spectra, points, workspace)
            denom = singles[bi] * singles[bj]
            ratio_neg = (factors < 0.0) ^ (denom < 0.0)
            abs_denom = np.abs(denom, out=denom)
            keep = abs_denom > PAIR_RATIO_FLOOR
            n_dropped += keep.size - int(np.count_nonzero(keep))
            neg_count += np.sum(keep & ratio_neg, axis=0)
            abs_factors = np.maximum(np.abs(factors, out=factors), _LOG_FLOOR, out=factors)
            log_ratio = np.zeros_like(denom)
            np.divide(abs_factors, abs_denom, out=log_ratio, where=keep)
            np.log(log_ratio, out=log_ratio, where=keep)
            log_sum += np.sum(log_ratio, axis=0)  # the rows in pair order
        return log_sum[::copies], neg_count[::copies], n_dropped // copies

    with ThreadPoolExecutor(max_workers=n_workers) as pool:
        spectra = list(pool.map(solve, batches))
        log_sums, neg_counts, n_dropped = zip(*pool.map(fold, tiles))
    log_total, neg_parity = np.concatenate(log_sums), np.concatenate(neg_counts)

    values = np.where(neg_parity % 2 == 1, -1.0, 1.0) * np.exp(log_total)

    metadata = {
        "model": "pair-truncated echo",
        "field_G": [field.bx, field.by, field.bz],
        "gamma_n_khz_per_g": GAMMA_N_13C_KHZ_PER_G,
        "seeds": [bath.seed],
        "abundance": bath.config.abundance if bath.config else None,
        "n_spins": len(bath),
        "n_pairs": len(bath.pair_b),
        "diagnostics": {
            "pair_points_dropped": sum(n_dropped),
            "undersampled_spins": undersampled,
        },
    }
    return CoherenceTrace(t_grid=grid.copy(), values=values, metadata=metadata)


def ensemble_average(traces: list[CoherenceTrace]) -> CoherenceTrace:
    """Pointwise mean of traces sharing an identical time grid.

    The members' seed lists are joined, and a ``seeds`` that is not a list is
    refused.  Their diagnostic counts are summed when every member holds an
    object of int counts under the same keys, and dropped otherwise.
    """
    if not traces:
        raise ConfigError("cannot average an empty trace collection")
    grid = traces[0].t_grid
    for tr in traces[1:]:
        if not np.array_equal(tr.t_grid, grid):
            raise ShapeError("ensemble members sample different time grids")
    values = np.mean(np.stack([tr.values for tr in traces]), axis=0)
    metadata = dict(traces[0].metadata)
    metadata["seeds"] = []
    for tr in traces:
        if not isinstance(seeds := tr.metadata.get("seeds", []), list):
            raise ConfigError(f"seeds must be a list, got {seeds!r}")
        metadata["seeds"] += seeds
    counts = [tr.metadata.get("diagnostics") for tr in traces]
    keys = counts[0].keys() if isinstance(counts[0], dict) else ()
    if keys and all(isinstance(c, dict) and c.keys() == keys
                    and all(type(v) is int for v in c.values()) for c in counts):
        metadata["diagnostics"] = {key: sum(c[key] for c in counts) for key in keys}
    else:
        metadata.pop("diagnostics", None)
    metadata["ensemble_size"] = len(traces)
    return CoherenceTrace(t_grid=grid.copy(), values=values, metadata=metadata)


def analytic_coherence(t_revival_ms: float, t2_ms: float, t_ms):
    """Closed-form collapse-revival envelope model.

    L(t) = (1 + cos(2 pi t / T_revival)) / 2 * exp(-t / T2): unit-height
    revivals at multiples of the revival time under an exponential envelope.
    """
    positive(t_revival_ms, "revival time", DomainError)
    if t2_ms != np.inf:  # an infinite decay time is the undamped model
        positive(t2_ms, "decay time", DomainError)
    t = finite_array(t_ms, "t_ms")
    out = 0.5 * (1.0 + np.cos(2.0 * np.pi * t / t_revival_ms)) * np.exp(-t / t2_ms)
    return out if t.ndim else float(out)


def analytic_trace(
    schedule: EchoSchedule, t_revival_ms: float, t2_ms: float
) -> CoherenceTrace:
    """Tabulate :func:`analytic_coherence` on a schedule as a trace."""
    values = analytic_coherence(t_revival_ms, t2_ms, schedule.t_grid)
    metadata = {
        "model": "analytic collapse-revival",
        "T_R_ms": t_revival_ms,
        "T2_ms": t2_ms,
    }
    return CoherenceTrace(t_grid=schedule.t_grid.copy(), values=values, metadata=metadata)
