"""Field vectors, echo schedules, echo factors, the trace engine and traces.

Every refusal of the decoherence module is a row of ``REFUSALS``: a call,
the exact exception class it raises and the text of its one-line message,
held to the checks of ``refusals.check_refusal``.
"""

import json
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from nvmag import decoherence
from nvmag.bath import (
    BathRealization,
    LatticeConfig,
    NuclearSpin,
    generate_lattice_sites,
    sample_bath,
)
from nvmag.constants import GAMMA_N_13C_KHZ_PER_G
from nvmag.decoherence import (
    PAIR_RATIO_FLOOR,
    PAIRS_PER_BATCH,
    POINTS_PER_TILE,
    CoherenceTrace,
    EchoSchedule,
    FieldVector,
    analytic_coherence,
    analytic_trace,
    echo_coherence_trace,
    effective_field,
    ensemble_average,
    pair_echo_factor,
    required_time_step,
    single_spin_echo_factor,
    _LOG_FLOOR,
    _WORKSPACE_ROWS,
    _cos_sin_from_half,
    _pair_batches,
    _pair_kernel_factors,
    _pair_spectra,
    _single_tables,
)
from nvmag.errors import (
    ConfigError,
    DomainError,
    GridTooCoarseError,
    PhysicsError,
    ShapeError,
)

from conftest import make_tiny_bath
from oracles import (
    exact_echo,
    exact_echo_trace,
    pair_kernel_factors_half_angle,
    pair_kernel_factors_libm,
    pair_spectra_m_kernel,
    single_echo_unitary,
)
from refusals import Refusal, check_refusal, install

GAMMA = GAMMA_N_13C_KHZ_PER_G


# ------------------------------------------------------------ field vector
class TestFieldVector:
    def test_along_z(self):
        f = FieldVector.along_z(10.0)
        assert f.as_array().tolist() == [0.0, 0.0, 10.0]
        assert f.magnitude == 10.0

    def test_magnitude_general(self):
        f = FieldVector.from_sequence((1.0, 2.0, 2.0))
        assert f.magnitude == pytest.approx(3.0, rel=1e-15)


# ------------------------------------------------------------ schedules
class TestEchoSchedule:
    def test_regular_grid(self):
        s = EchoSchedule.regular(1.0, 0.25)
        assert np.allclose(s.t_grid, [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_for_field_resolves_revival_period(self):
        s = EchoSchedule.for_field(10.0, t_max_ms=0.2, points_per_period=48)
        step = s.t_grid[1] - s.t_grid[0]
        period = 1.0 / (GAMMA * 10.0)
        assert step == pytest.approx(period / 48.0, rel=1e-12)

    def test_required_time_step_value(self):
        assert required_time_step(10.0) == pytest.approx(
            1.0 / (GAMMA * 10.0) / 40.0, rel=1e-12
        )

    def test_zero_field_needs_no_step(self):
        assert required_time_step(0.0) == np.inf


# ------------------------------------------------------------ branch fields
class TestEffectiveField:
    def test_branch_one_shifts_by_hyperfine(self):
        a = np.array([10.0, -4.0, 3.0])
        b = effective_field(FieldVector.along_z(5.0), a)
        assert np.allclose(b, np.array([0.0, 0.0, 5.0]) - a / GAMMA, rtol=1e-15)


# ------------------------------------------------------------ echo factors
class TestSingleSpinFactor:
    @pytest.mark.parametrize("t_total", [0.013, 0.21, 1.7])
    def test_matches_unitary_oracle(self, t_total):
        h0 = np.array([0.0, 0.0, 10.0])
        h1 = np.array([3.0, -2.0, 8.5])
        closed = single_spin_echo_factor(h0, h1, t_total)
        oracle = single_echo_unitary(h0, h1, t_total, GAMMA)
        assert closed == pytest.approx(oracle, abs=1e-10)

    def test_matches_oracle_over_grid(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            h0 = rng.normal(0, 10, 3)
            h1 = rng.normal(0, 10, 3)
            t = rng.uniform(0.01, 2.0)
            assert single_spin_echo_factor(h0, h1, t) == pytest.approx(
                single_echo_unitary(h0, h1, t, GAMMA), abs=1e-10
            )

    def test_parallel_branches_never_decohere(self):
        h = np.array([1.0, 2.0, 3.0])
        t = np.linspace(0.0, 2.0, 50)
        assert np.allclose(single_spin_echo_factor(h, 2.5 * h, t), 1.0, atol=1e-12)

    def test_zero_branch_field_is_identity(self):
        assert single_spin_echo_factor(
            np.zeros(3), np.array([1.0, 1.0, 1.0]), 0.7
        ) == pytest.approx(1.0, abs=1e-15)

    def test_zero_time_is_unity(self):
        h0, h1 = np.array([0.0, 0.0, 4.0]), np.array([5.0, 0.0, 1.0])
        assert single_spin_echo_factor(h0, h1, 0.0) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("h0", [(3.0, -1.0, 10.0), (0.0, 0.0, 0.0)])
    def test_is_the_trace_engine_row(self, h0):
        # at total time 2 tau the factor is the engine's table row bit for
        # bit, for a spin whose m = +1 field vanishes and at zero field too
        h0 = np.array(h0)
        h1 = np.array([[4.0, 2.0, -7.0], [0.0, 0.0, 0.0], [1.5, -0.5, 5.0]])
        tau = np.linspace(0.0, 0.9, 257)
        table = _single_tables(h0, h1, tau)[0]
        assert np.array_equal(table[1], np.ones_like(tau))
        for h, row in zip(h1, table):
            assert np.array_equal(single_spin_echo_factor(h0, h, 2.0 * tau), row)
            assert single_spin_echo_factor(h0, h, 2.0 * tau[100]) == row[100]


class TestPairFactor:
    @pytest.mark.parametrize("t_total", [0.017, 0.4, 2.3])
    def test_matches_full_hilbert_oracle(self, t_total):
        spin_i = NuclearSpin((0.4, 0.0, 0.2), (12.0, -3.0, 7.0))
        spin_j = NuclearSpin((0.0, 0.5, -0.1), (-5.0, 8.0, 2.0))
        b_ij = 0.9
        field = FieldVector.along_z(10.0)
        got = pair_echo_factor(spin_i, spin_j, b_ij, field, t_total)
        pairs = [(np.array(s.position), np.array(s.hyperfine)) for s in (spin_i, spin_j)]
        want = exact_echo(pairs, {(0, 1): b_ij}, field.as_array(), t_total, GAMMA)
        assert got == pytest.approx(want, abs=1e-10)

    # A pair with b = 0 is two free spins: its factor is the product of the
    # two single-spin rows.  Each bound is ten times the case's four-draw
    # 1-ulp spread (every hyperfine and field component stepped by 0 or
    # +-1 ulp), 2.0e-14 at 10 G axial and 3.2e-14 at (3, 4, 2) G over
    # 0-2 ms; the gaps read 1.2e-14 and 1.5e-14.
    def test_uncoupled_pair_factorizes(self):
        spin_i = NuclearSpin((0.4, 0.0, 0.2), (12.0, -3.0, 7.0))
        spin_j = NuclearSpin((0.0, 0.5, -0.1), (-5.0, 8.0, 2.0))
        t = np.linspace(0.0, 2.0, 401)
        for field_g, bound in [((0.0, 0.0, 10.0), 2e-13), ((3.0, 4.0, 2.0), 3.2e-13)]:
            field = FieldVector.from_sequence(field_g)
            li, lj = (
                single_spin_echo_factor(field.as_array(), effective_field(field, s.hyperfine), t)
                for s in (spin_i, spin_j)
            )
            assert np.min(np.abs(li * lj)) < 1e-3  # the rows pass near zero
            got = pair_echo_factor(spin_i, spin_j, 0.0, field, t)
            assert np.max(np.abs(got - li * lj)) <= bound


class TestScalarTime:
    # A factor at one time must have the bits of the same time inside an
    # array: the pair kernel runs a single time on two copies of its point,
    # as a one-point trace grid does, since numpy multiplies a single column
    # along another path.  The single-spin table is elementwise.
    def test_scalar_equals_its_point_of_an_array_call(self):
        rng = np.random.default_rng(3)
        for _ in range(60):
            spin_i, spin_j = (
                NuclearSpin(tuple(rng.normal(0.0, 0.5, 3)), tuple(rng.normal(0.0, 20.0, 3)))
                for _ in range(2)
            )
            b_ij = float(rng.normal(0.0, 2.0))
            field = FieldVector.from_sequence(rng.normal(0.0, 30.0, 3))
            h0, h1 = field.as_array(), effective_field(field, spin_i.hyperfine)
            t = rng.uniform(0.0, 2.0, 7)
            pairs = pair_echo_factor(spin_i, spin_j, b_ij, field, t)
            singles = single_spin_echo_factor(h0, h1, t)
            for k in range(t.size):
                assert pair_echo_factor(spin_i, spin_j, b_ij, field, t[k]) == pairs[k]
                assert single_spin_echo_factor(h0, h1, t[k]) == singles[k]


class TestPairKernelChunks:
    def test_batches_cover_the_sorted_pairs_in_order(self, small_sites):
        # the pairs in (coupling, i, j) order, so that equal couplings,
        # which a lattice repeats, sit next to each other
        bath = sample_bath(small_sites, LatticeConfig(seed=2, abundance=0.1))
        batches = _pair_batches(bath)
        sizes = [len(b) for _, _, b in batches]
        assert len(sizes) >= 4
        assert set(sizes[:-1]) == {PAIRS_PER_BATCH} and 0 < sizes[-1] <= PAIRS_PER_BATCH
        rows = [(b, int(i), int(j)) for bi, bj, bb in batches for i, j, b in zip(bi, bj, bb)]
        assert rows == sorted((b, i, j) for (i, j), b in bath.pair_couplings.items())
        assert len({b for b, _, _ in rows}) < len(rows) / 2

    # The m = 0 branch sees the bare field, so its eigensolve and its phase
    # features depend on the coupling alone, and are computed once per
    # distinct coupling of a batch.  Each pair must still get the bits it
    # gets alone, also under a transverse field, where no branch is
    # block-diagonal.
    ALONG_Z_AND_TRANSVERSE = pytest.mark.parametrize(
        "field_g", [(0.0, 0.0, 10.0), (30.0, 0.0, 95.0)], ids=["axial", "transverse"]
    )

    @staticmethod
    def _batch_with_repeated_couplings(small_sites, field):
        bath = sample_bath(small_sites, LatticeConfig(seed=2, abundance=0.1))
        h1 = effective_field(field, bath.hyperfine)
        bi, bj, bb = _pair_batches(bath)[0]
        assert bb.size == PAIRS_PER_BATCH and np.unique(bb).size < bb.size / 4
        return h1[bi], h1[bj], bb

    @ALONG_Z_AND_TRANSVERSE
    def test_spectra_per_coupling_equal_spectra_pair_by_pair(self, small_sites, field_g):
        field = FieldVector.from_sequence(field_g)
        h1_left, h1_right, bb = self._batch_with_repeated_couplings(small_sites, field)
        e0, index, e1, gram = _pair_spectra(h1_left, h1_right, bb, field.as_array())
        assert e0.shape[0] == np.unique(bb).size
        for k in range(bb.size):
            e0_k, index_k, e1_k, gram_k = _pair_spectra(
                h1_left[k : k + 1], h1_right[k : k + 1], bb[k : k + 1], field.as_array()
            )
            assert index_k.tolist() == [0]
            assert e0[index[k]].tobytes() == e0_k[0].tobytes()
            assert e1[k].tobytes() == e1_k[0].tobytes()
            assert gram[k].tobytes() == gram_k[0].tobytes()

    @ALONG_Z_AND_TRANSVERSE
    def test_kernel_on_runs_of_equal_m0_levels_equals_each_pair_alone(
        self, small_sites, field_g
    ):
        field = FieldVector.from_sequence(field_g)
        spectra = _pair_spectra(
            *self._batch_with_repeated_couplings(small_sites, field), field.as_array()
        )
        e0, index, e1, gram = spectra
        tau = EchoSchedule.for_field(field.magnitude, t_max_ms=0.3).t_grid
        tile = slice(0, POINTS_PER_TILE)
        assert 2 <= tau[tile].size < tau.size
        workspace = np.full(_WORKSPACE_ROWS * PAIRS_PER_BATCH * POINTS_PER_TILE, np.nan)
        factors = _pair_kernel_factors(spectra, tau[tile], workspace)
        for k in range(index.size):
            alone = (e0[index[k : k + 1]], np.zeros(1, dtype=int), e1[k : k + 1], gram[k : k + 1])
            got = _pair_kernel_factors(alone, tau[tile], np.empty(workspace.size))[0]
            assert factors[k].tobytes() == got.tobytes()

    def test_chunked_factors_match_full_hilbert_oracle(self):
        # 15 pairs, one batch, whose kernel runs on 64 tiles of 64 points,
        # under a transverse field so that no branch Hamiltonian is
        # block-diagonal
        bath = make_tiny_bath(6, seed=7, spread_nm=1.2)
        field = FieldVector.from_sequence((4.0, -3.0, 8.0))
        tau = np.linspace(0.0, 1.0, 64 * POINTS_PER_TILE)
        [(bi, bj, bb)] = _pair_batches(bath)
        tiles = [slice(lo, lo + POINTS_PER_TILE) for lo in range(0, tau.size, POINTS_PER_TILE)]
        assert [tau[tile].size for tile in tiles] == [64] * 64

        # one spectra call for the batch, one workspace reused for every
        # tile, as a trace's fold reuses one for every batch
        workspace = np.full(_WORKSPACE_ROWS * PAIRS_PER_BATCH * POINTS_PER_TILE, np.nan)
        h1 = np.array([effective_field(field, s.hyperfine) for s in bath.spins])
        spins = [(np.asarray(s.position), np.asarray(s.hyperfine)) for s in bath.spins]
        spectra = _pair_spectra(h1[bi], h1[bj], bb, field.as_array())
        err = 0.0
        for tile in tiles:
            factors = _pair_kernel_factors(spectra, tau[tile], workspace)
            assert np.shares_memory(factors, workspace)
            for i, j, row in zip(bi, bj, factors):
                coupling = {(0, 1): bath.pair_couplings[(i, j)]}
                for k in range(tile.start, tile.stop):
                    if k % 97 == 0:
                        want = exact_echo(
                            [spins[i], spins[j]], coupling, field.as_array(), 2.0 * tau[k],
                            GAMMA,
                        )
                        err = max(err, abs(row[k - tile.start] - want))
        assert err < 1e-10

    # the benchmark's three trace fields, on every 20th kernel tile of a
    # full bath's batches
    BENCHMARK_FIELDS = pytest.mark.parametrize(
        "abundance,field,t_max,n_points",
        [(0.03, (0.0, 0.0, 10.0), 0.55, 284), (0.011, (0.0, 0.0, 100.0), 0.55, 2828),
         (0.011, (30.0, 0.0, 95.0), 0.1, 513)],
    )

    @staticmethod
    def _error_against(oracle, full_sites, abundance, field, t_max, n_points) -> float:
        """Largest |kernel - oracle| over every 20th tile; the kernel runs on
        its batch's spectra, the oracle on the M-product spectra of the
        batch's own eigendecompositions."""
        bath = sample_bath(full_sites, LatticeConfig(abundance=abundance, seed=0))
        field = FieldVector.from_sequence(field)
        tau = EchoSchedule.for_field(field.magnitude, t_max).t_grid
        assert tau.size == n_points
        h1 = effective_field(field, bath.hyperfine)
        workspace = np.empty(_WORKSPACE_ROWS * PAIRS_PER_BATCH * POINTS_PER_TILE)
        err, n_tiles = 0.0, 0
        for bi, bj, bb in _pair_batches(bath):
            spectra = _pair_spectra(h1[bi], h1[bj], bb, field.as_array())
            oracle_spectra = None
            for lo in range(0, tau.size, POINTS_PER_TILE):
                tile = slice(lo, lo + POINTS_PER_TILE)
                if n_tiles % 20 == 0:
                    if oracle_spectra is None:
                        oracle_spectra = pair_spectra_m_kernel(
                            h1[bi], h1[bj], bb, field.as_array()
                        )
                    got = _pair_kernel_factors(spectra, tau[tile], workspace)
                    want = oracle(oracle_spectra, tau[tile])
                    err = max(err, np.max(np.abs(got - want)))
                n_tiles += 1
        return err

    @BENCHMARK_FIELDS
    def test_agrees_with_libm_kernel(self, full_sites, abundance, field, t_max, n_points):
        err = self._error_against(
            pair_kernel_factors_libm, full_sites, abundance, field, t_max, n_points
        )
        assert err <= 2e-15

    @BENCHMARK_FIELDS
    def test_agrees_with_half_angle_m_kernel(
        self, full_sites, abundance, field, t_max, n_points
    ):
        err = self._error_against(
            pair_kernel_factors_half_angle, full_sites, abundance, field, t_max, n_points
        )
        assert err <= 2e-15


class TestHalfAngleTrig:
    def test_cos_sin_match_libm(self):
        rng = np.random.default_rng(0)
        # half angles next to odd multiples of pi/2 put theta next to odd
        # multiples of pi, where the tangent reaches about 1e16
        odd = (rng.integers(-1_500_000, 1_500_000, 2000) + 0.5) * np.pi
        half = np.concatenate([
            [0.0, np.pi / 2, -np.pi / 2],
            np.nextafter(odd, np.inf), odd, np.nextafter(odd, -np.inf),
            rng.uniform(-10.0, 10.0, 20000),
            rng.uniform(-5e6, 5e6, 20000),  # |theta| up to 1e7
        ])
        theta = 2.0 * half
        cos, sin = np.empty_like(half), np.empty_like(half)
        _cos_sin_from_half(half.copy(), cos, sin)
        assert np.max(np.abs(np.tan(half[1:3]))) > 1e16
        assert cos[0] == 1.0 and sin[0] == 0.0
        assert np.all(np.isfinite(cos)) and np.all(np.isfinite(sin))
        assert np.max(np.abs(cos - np.cos(theta))) <= 2.3e-16
        assert np.max(np.abs(sin - np.sin(theta))) <= 2.3e-16


# ------------------------------------------------------------ full engine
# The fold must raise no numpy divide or invalid warning where it keeps a
# pair-point out.  numpy's error state is per thread and does not reach the
# pool's workers, so those warnings are made errors through the warnings
# filter, which does; the over-unity warning stays a warning.
FOLD_WARNINGS_AS_ERRORS = pytest.mark.filterwarnings(
    "error:divide by zero encountered:RuntimeWarning",
    "error:invalid value encountered:RuntimeWarning",
)


class TestEchoCoherenceTrace:
    def test_empty_bath_is_unity(self):
        bath = BathRealization(spins=[], pair_couplings={})
        sched = EchoSchedule.for_field(10.0, t_max_ms=0.3)
        trace = echo_coherence_trace(bath, FieldVector.along_z(10.0), sched)
        assert np.allclose(trace.values, 1.0, atol=1e-15)

    # lattice-sampled baths with 1, 2, and 3 spins (first seeds giving each
    # count at natural abundance inside a 0.75 nm ball); on these coupling
    # graphs no spin sits in two strong pairs, so pair clustering is exact
    @pytest.mark.parametrize("n_spins,seed", [(1, 15), (2, 1), (3, 3)])
    def test_equals_exact_on_small_sampled_baths(self, n_spins, seed):
        cfg = LatticeConfig(cutoff_radius=0.75, abundance=0.011, seed=seed)
        bath = sample_bath(generate_lattice_sites(cfg), cfg)
        assert len(bath.spins) == n_spins
        field = FieldVector.along_z(10.0)
        sched = EchoSchedule.for_field(10.0, t_max_ms=0.25)
        trace = echo_coherence_trace(bath, field, sched)
        exact = exact_echo_trace(bath, field.as_array(), sched.t_grid, GAMMA)
        assert np.max(np.abs(trace.values - exact)) < 1e-8

    def test_pair_truncation_error_is_real_but_bounded(self):
        # a 3-spin bath whose coupling graph shares a vertex carries a
        # genuine connected-3-cluster term the pair expansion drops: the
        # deviation from exact evolution must be visible yet small
        cfg = LatticeConfig(cutoff_radius=0.75, abundance=0.011, seed=2)
        bath = sample_bath(generate_lattice_sites(cfg), cfg)
        assert len(bath.spins) == 3
        shared = [i for i in range(3) if sum(i in p for p in bath.pair_couplings) == 2]
        assert shared, "bath must contain a spin coupled into two pairs"
        field = FieldVector.along_z(10.0)
        sched = EchoSchedule.for_field(10.0, t_max_ms=0.25)
        trace = echo_coherence_trace(bath, field, sched)
        exact = exact_echo_trace(bath, field.as_array(), sched.t_grid, GAMMA)
        gap = np.max(np.abs(trace.values - exact))
        assert 1e-7 < gap < 1e-3

    @FOLD_WARNINGS_AS_ERRORS
    def test_counts_dropped_pair_points(self):
        # the same shared-vertex bath: the count is every (pair, point)
        # whose denominator |L_i L_j| falls to the floor or below; the
        # first such point comes after 1 ms
        cfg = LatticeConfig(cutoff_radius=0.75, abundance=0.011, seed=2)
        bath = sample_bath(generate_lattice_sites(cfg), cfg)
        field = FieldVector.along_z(10.0)
        sched = EchoSchedule.for_field(10.0, t_max_ms=2.0)
        trace = echo_coherence_trace(bath, field, sched)
        h0 = field.as_array()
        singles = [
            single_spin_echo_factor(h0, effective_field(field, s.hyperfine), 2.0 * sched.t_grid)
            for s in bath.spins
        ]
        per_point = sum(
            np.abs(singles[i] * singles[j]) <= PAIR_RATIO_FLOOR for i, j in bath.pair_couplings
        )
        assert np.sum(per_point) > 0
        assert trace.metadata["diagnostics"]["pair_points_dropped"] == np.sum(per_point)
        # a one-point grid runs on two copies of its point and counts it once
        k = int(np.argmax(per_point))
        one_point = echo_coherence_trace(bath, field, EchoSchedule(sched.t_grid[k : k + 1]))
        assert one_point.metadata["diagnostics"]["pair_points_dropped"] == per_point[k] > 0

    def test_counts_undersampled_spins(self, full_sites):
        # at 1 G the grid resolves the bare Larmor period, but the m = +1
        # branch of strongly coupled spins precesses past its Nyquist rate
        bath = sample_bath(full_sites, LatticeConfig(abundance=0.003, seed=0))
        field = FieldVector.along_z(1.0)
        sched = EchoSchedule.for_field(1.0, t_max_ms=2.0)
        trace = echo_coherence_trace(bath, field, sched)
        nyquist = 0.5 / np.max(np.diff(sched.t_grid))
        rates = [
            GAMMA * np.linalg.norm(effective_field(field, s.hyperfine)) for s in bath.spins
        ]
        want = sum(rate > nyquist for rate in rates)
        assert want > 0
        assert trace.metadata["diagnostics"]["undersampled_spins"] == want

    def test_assembly_matches_independent_pair_expansion(self):
        # on that same shared-vertex bath the trace must still equal an
        # independently assembled pair expansion (exact subcluster factors
        # multiplied with single-spin conditioning) to rounding error:
        # everything short of the dropped 3-cluster term is exact
        cfg = LatticeConfig(cutoff_radius=0.75, abundance=0.011, seed=2)
        bath = sample_bath(generate_lattice_sites(cfg), cfg)
        spins = [(np.asarray(s.position), np.asarray(s.hyperfine)) for s in bath.spins]
        field = FieldVector.along_z(10.0)
        sched = EchoSchedule.for_field(10.0, t_max_ms=0.25)
        trace = echo_coherence_trace(bath, field, sched)
        vals = []
        for tau in sched.t_grid:
            t_total = 2.0 * tau
            singles = [
                exact_echo([s], {}, field.as_array(), t_total, GAMMA) for s in spins
            ]
            product = float(np.prod(singles))
            for (i, j), b in bath.pair_couplings.items():
                pair = exact_echo(
                    [spins[i], spins[j]], {(0, 1): b}, field.as_array(), t_total, GAMMA
                )
                product *= pair / (singles[i] * singles[j])
            vals.append(product)
        assert np.max(np.abs(trace.values - np.array(vals))) < 1e-10

    def test_exact_on_coupled_pair_at_low_field(self):
        bath = make_tiny_bath(2, seed=31)
        field = FieldVector.from_sequence((1.0, -0.5, 2.0))
        sched = EchoSchedule.for_field(field.magnitude, t_max_ms=2.0)
        trace = echo_coherence_trace(bath, field, sched)
        exact = exact_echo_trace(bath, field.as_array(), sched.t_grid, GAMMA)
        assert np.max(np.abs(trace.values - exact)) < 1e-8

    def test_deterministic_bit_identical(self, small_sites):
        cfg = LatticeConfig(seed=13, abundance=0.08)
        field = FieldVector.along_z(20.0)
        sched = EchoSchedule.for_field(20.0, t_max_ms=0.3)
        t1 = echo_coherence_trace(sample_bath(small_sites, cfg), field, sched)
        t2 = echo_coherence_trace(sample_bath(small_sites, cfg), field, sched)
        assert np.array_equal(t1.values, t2.values)

    def test_starts_at_unity(self, small_sites):
        bath = sample_bath(small_sites, LatticeConfig(seed=2, abundance=0.1))
        sched = EchoSchedule.for_field(50.0, t_max_ms=0.1)
        trace = echo_coherence_trace(bath, FieldVector.along_z(50.0), sched)
        assert trace.values[0] == pytest.approx(1.0, abs=1e-12)

    @FOLD_WARNINGS_AS_ERRORS
    def test_thread_count_does_not_change_the_trace(self, small_sites, monkeypatch):
        # several batches, and one batch on eight tiles or more, on more
        # threads than cores, switching threads as often as the interpreter
        # allows: each tile must still add its batches in batch order, and
        # no worker may write into another's workspace
        several = sample_bath(small_sites, LatticeConfig(seed=2, abundance=0.1))
        assert len(_pair_batches(several)) >= 4
        one_batch = make_tiny_bath(6, seed=7, spread_nm=1.2)
        assert len(_pair_batches(one_batch)) == 1
        long_grid = EchoSchedule(np.linspace(0.0, 1.0, 600))
        assert long_grid.t_grid.size > 7 * POINTS_PER_TILE
        for bath, field, sched in [
            (several, FieldVector.along_z(50.0), EchoSchedule.for_field(50.0, t_max_ms=0.1)),
            (one_batch, FieldVector.from_sequence((4.0, -3.0, 8.0)), long_grid),
        ]:
            monkeypatch.setenv("NVMAG_THREADS", "1")
            serial = echo_coherence_trace(bath, field, sched)
            monkeypatch.setenv("NVMAG_THREADS", "4")
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                threaded = echo_coherence_trace(bath, field, sched)
            finally:
                sys.setswitchinterval(interval)
            assert threaded.values.tobytes() == serial.values.tobytes()
            assert threaded.metadata["diagnostics"] == serial.metadata["diagnostics"]
            assert serial.metadata["diagnostics"]["pair_points_dropped"] > 0

    # Each point's pair sum adds the pairs' log ratios in pair order, row by
    # row, so a point's value depends on its own time alone: not on the
    # other points of the grid, nor on how the grid is cut into tiles
    # (64 points per tile on the full grid and on [5:200]; [7:8] and
    # [100:101], and the last tiles of [0:65] and [100:229], hold one point,
    # which the fold runs on two copies of itself).
    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_sub_grid_trace_equals_the_full_trace_bit_for_bit(
        self, small_sites, monkeypatch, threads
    ):
        monkeypatch.setenv("NVMAG_THREADS", threads)
        bath = sample_bath(small_sites, LatticeConfig(seed=2, abundance=0.1))
        field = FieldVector.along_z(10.0)
        grid = EchoSchedule.for_field(10.0, t_max_ms=0.55).t_grid
        assert grid.size == 284
        full = echo_coherence_trace(bath, field, EchoSchedule(grid))
        for lo, hi in ((5, 200), (7, 8), (100, 101), (0, 65), (100, 229)):
            sub = echo_coherence_trace(bath, field, EchoSchedule(grid[lo:hi]))
            assert sub.values.tobytes() == full.values[lo:hi].tobytes(), (lo, hi)

    def test_tile_width_does_not_change_the_trace(self, small_sites, monkeypatch):
        bath = sample_bath(small_sites, LatticeConfig(seed=2, abundance=0.1))
        field = FieldVector.along_z(10.0)
        sched = EchoSchedule.for_field(10.0, t_max_ms=0.55)
        assert sched.t_grid.size == 284
        want = echo_coherence_trace(bath, field, sched)
        # at width 1 every point is folded on two copies of itself; at 283
        # the last tile holds the 284th point alone; at 284 and 1,000 one
        # tile holds the whole grid
        for width in (1, 2, 3, 16, 283, 284, 1000):
            monkeypatch.setattr(decoherence, "POINTS_PER_TILE", width)
            got = echo_coherence_trace(bath, field, sched)
            assert got.values.tobytes() == want.values.tobytes(), width
            assert got.metadata == want.metadata

    @pytest.mark.parametrize("n_points", [1, 2, 65, 284, 20001])
    def test_workspace_is_the_chunk_budget_on_every_grid(self, monkeypatch, n_points):
        # every kernel call gets its tile's one workspace of _WORKSPACE_ROWS
        # doubles per pair-point of a full batch on that tile, and its whole
        # batch on two to POINTS_PER_TILE points; the tiles cover the grid,
        # a one-point tile (on 1 and 65 points) as two copies of its point
        calls = []
        kernel = decoherence._pair_kernel_factors

        def spy(spectra, tau, workspace):
            calls.append((spectra[1].size, tau.copy(), workspace.size))
            return kernel(spectra, tau, workspace)

        monkeypatch.setattr(decoherence, "_pair_kernel_factors", spy)
        bath = make_tiny_bath(6, seed=7, spread_nm=1.2)
        schedule = EchoSchedule(np.arange(n_points) * 1e-4)
        echo_coherence_trace(bath, FieldVector.along_z(1.0), schedule)
        n_pairs = len(bath.pair_couplings)
        assert {n for n, _, _ in calls} == {n_pairs}
        for _, tau, size in calls:
            assert 2 <= tau.size <= POINTS_PER_TILE
            assert size == _WORKSPACE_ROWS * PAIRS_PER_BATCH * tau.size
        points = np.concatenate([tau for _, tau, _ in calls])
        assert points.size == n_points + (n_points % POINTS_PER_TILE == 1)
        assert np.array_equal(np.unique(points), schedule.t_grid)

    # Relabelling the spins is a symmetry of the model: only the order of the
    # trace's sums, and the left/right order of some pairs, moves.  Each bound
    # is ten times the case's 1-ulp spread: the largest move of the trace over
    # four draws of every hyperfine component stepped by 0 or +-1 ulp, which
    # read 7.3e-14, 4.7e-14 and 6.6e-12 over 0.3 ms.
    @pytest.mark.parametrize("field_g, bound", [
        ((0.0, 0.0, 10.0), 8e-13), ((3.0, 4.0, 2.0), 5e-13), ((30.0, 0.0, 95.0), 7e-11),
    ], ids=["10G-axial", "3-4-2G", "30-0-95G"])
    def test_relabelled_spins_give_the_same_trace(self, full_sites, field_g, bound):
        bath = sample_bath(full_sites, LatticeConfig(abundance=0.011, seed=2))
        label = np.random.default_rng(0).permutation(len(bath))  # spin k becomes label[k]
        spins = bath.spins
        relabelled_pairs = {
            (min(label[i], label[j]), max(label[i], label[j])): b
            for (i, j), b in bath.pair_couplings.items()
        }
        assert list(relabelled_pairs) != sorted(relabelled_pairs)
        relabelled = BathRealization(
            [spins[k] for k in np.argsort(label)], relabelled_pairs, seed=2, config=bath.config
        )
        field = FieldVector.from_sequence(field_g)
        sched = EchoSchedule.for_field(field.magnitude, t_max_ms=0.3)
        want = echo_coherence_trace(bath, field, sched).values
        got = echo_coherence_trace(relabelled, field, sched).values
        assert np.max(np.abs(got - want)) <= bound

    # Rotating every position, every hyperfine vector and the field by phi
    # about the NV axis is a symmetry of the model: the pair operator
    # Iz Iz - flip-flop / 4 commutes with the total I_z, and b_ij depends only
    # on |r_ij| and its z component, so the pair table is kept.  Each bound
    # is ten times the case's four-draw 1-ulp spread, with every hyperfine
    # and field component stepped by 0 or +-1 ulp (the rotation rounds
    # both), which read 2.2e-13, 8.7e-13 and 9.4e-12 over 0.3 ms; the
    # rotations by 2 pi / 3 and 0.7 moved the trace by up to 6.2e-14,
    # 5.3e-13 and 7.8e-12.
    @pytest.mark.parametrize("field_g, bound", [
        ((0.0, 0.0, 10.0), 2.2e-12), ((3.0, 4.0, 2.0), 8.7e-12), ((30.0, 0.0, 95.0), 9.4e-11),
    ], ids=["10G-axial", "3-4-2G", "30-0-95G"])
    def test_rotation_about_the_nv_axis_gives_the_same_trace(self, full_sites, field_g, bound):
        bath = sample_bath(full_sites, LatticeConfig(abundance=0.011, seed=2))
        field = FieldVector.from_sequence(field_g)
        sched = EchoSchedule.for_field(field.magnitude, t_max_ms=0.3)
        want = echo_coherence_trace(bath, field, sched).values
        for phi in (2.0 * np.pi / 3.0, 0.7):
            c, s = np.cos(phi), np.sin(phi)
            rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
            vectors = zip((bath.positions @ rot.T).tolist(), (bath.hyperfine @ rot.T).tolist())
            spins = [NuclearSpin(tuple(p), tuple(a)) for p, a in vectors]
            rotated = BathRealization(spins, bath.pair_couplings, seed=2, config=bath.config)
            got = echo_coherence_trace(
                rotated, FieldVector.from_sequence(rot @ field.as_array()), sched
            ).values
            assert np.max(np.abs(got - want)) <= bound

    def test_peak_allocation_is_bounded_on_a_long_grid(self, monkeypatch):
        # 349 pairs on 2828 points on two worker threads: the peak is the
        # held spectra plus, per worker, a 3.25 MiB workspace, an N x 64
        # tile of single-spin factors and one batch's fold temporaries;
        # 16 complex amplitudes per pair-point for a few hundred pairs
        # (over 100 MB) would exceed it
        monkeypatch.setenv("NVMAG_THREADS", "2")
        cfg = LatticeConfig(cutoff_radius=2.5, abundance=0.011, seed=1)
        bath = sample_bath(generate_lattice_sites(cfg), cfg)
        assert len(bath.pair_couplings) == 349
        sched = EchoSchedule.for_field(100.0, t_max_ms=0.55)
        assert len(sched.t_grid) == 2828
        tracemalloc.start()
        try:
            echo_coherence_trace(bath, FieldVector.along_z(100.0), sched)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 24e6

    def test_single_tables_on_tiles_equal_one_whole_grid_table(self, full_sites):
        # 514 spins, some factors negative, on tiles of 2, 7, 64 and 101
        # points in turn: each tile's table, log sum and negative count are
        # the same columns of one call on the whole grid, bit for bit, and
        # the log sum has the bits of adding the log rows in spin order
        bath = sample_bath(full_sites, LatticeConfig(abundance=0.011, seed=1, pair_cutoff=0.3))
        assert len(bath) == 514
        field = FieldVector.along_z(100.0)
        tau = EchoSchedule.for_field(100.0, t_max_ms=0.55).t_grid
        h1 = effective_field(field, bath.hyperfine)
        full, full_log_sum, full_neg = _single_tables(field.as_array(), h1, tau)
        row_by_row = np.zeros_like(tau)
        for row in full:
            row_by_row += np.log(np.maximum(np.abs(row), _LOG_FLOOR))
        assert full_log_sum.tobytes() == row_by_row.tobytes()
        assert np.array_equal(full_neg, np.sum(full < 0.0, axis=0))
        assert np.any(full_neg % 2 == 1)

        bounds = np.cumsum([0] + [2, 7, 64, 101] * 30)
        bounds = np.append(bounds[bounds < tau.size - 1], tau.size)
        assert bounds[-1] - bounds[-2] >= 2
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            singles, log_sum, neg_count = _single_tables(field.as_array(), h1, tau[lo:hi])
            assert singles.tobytes() == full[:, lo:hi].tobytes()
            assert log_sum.tobytes() == full_log_sum[lo:hi].tobytes()
            assert np.array_equal(neg_count, full_neg[lo:hi])

    def test_peak_allocation_is_flat_in_the_grid_length(self, full_sites, monkeypatch):
        # 1.1%, 100 G on 5397 and on 15417 points, two worker threads: the
        # peak is the held spectra plus, per worker, its workspace, an
        # N x 64 tile of single-spin factors and one batch's fold
        # temporaries, on any grid.  Only the per-point sums and the grid
        # grow, by a few doubles a point.  An (N, T) table of the singles
        # for the whole trace (76.3 against 30.2 MiB) exceeds the margin.
        monkeypatch.setenv("NVMAG_THREADS", "2")
        bath = sample_bath(full_sites, LatticeConfig(abundance=0.011, seed=0))
        field = FieldVector.along_z(100.0)
        peaks = []
        for t_max, n_points in ((1.05, 5397), (3.0, 15417)):
            sched = EchoSchedule.for_field(100.0, t_max_ms=t_max)
            assert len(sched.t_grid) == n_points
            tracemalloc.start()
            try:
                echo_coherence_trace(bath, field, sched)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            peaks.append(peak)
        assert peaks[1] <= 1.1 * peaks[0] + 2**20


# The benchmark's recorded traces (read only): a kernel change must keep
# every trace within this absolute error of them.
REFERENCE_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"
REFERENCE_ABS_TOL = 1e-12


@pytest.fixture(scope="module")
def reference():
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


class TestReferenceTraces:
    # Trace-dense bath 4 is the reference's worst case; longgrid and
    # transverse bath 2 are where earlier kernels that rounded phases
    # differently missed the reference.  Longgrid bath 2 passes over unity,
    # which the trace reports with a warning.
    @pytest.mark.filterwarnings("ignore:coherence magnitudes exceed 1")
    @pytest.mark.parametrize(
        "workload,seed,transverse",
        [("trace-dense", 0, False), ("trace-dense", 4, False),
         ("trace-longgrid", 2, False), ("trace-longgrid", 2, True)],
    )
    def test_trace_matches_benchmark_reference(
        self, full_sites, reference, workload, seed, transverse
    ):
        spec = reference[workload]
        record = spec["baths"][str(seed)]
        bath = sample_bath(full_sites, LatticeConfig(abundance=spec["abundance"], seed=seed))
        assert (len(bath), len(bath.pair_couplings)) == (record["n_spins"], record["n_pairs"])
        if transverse:
            spec = spec["transverse"]
            values = spec["values"][str(seed)]
        else:
            values = record["values"]
        field = FieldVector.from_sequence(spec["field_G"])
        schedule = EchoSchedule.for_field(field.magnitude, spec["t_max_ms"])
        trace = echo_coherence_trace(bath, field, schedule)
        sampled = trace.values[:: spec["stride"]]
        assert sampled.shape == (len(values),)
        assert np.max(np.abs(sampled - np.asarray(values))) <= REFERENCE_ABS_TOL


# ------------------------------------------------------------ trace object
class TestCoherenceTrace:
    def test_overunity_magnitudes_warn(self):
        with pytest.warns(RuntimeWarning, match="pair truncation"):
            CoherenceTrace(
                t_grid=np.array([0.0, 0.1, 0.2]),
                values=np.array([1.0, 2.7, 0.1]),
            )

    def test_overunity_warning_points_at_the_code_that_built_the_trace(self):
        # not at the dataclass's generated __init__, which prints as <string>
        with pytest.warns(RuntimeWarning, match="pair truncation") as record:
            CoherenceTrace(t_grid=np.array([0.0, 0.1]), values=np.array([1.0, 2.7]))
        assert [w.filename for w in record] == [__file__]

    def test_csv_round_trip(self, tmp_path):
        trace = CoherenceTrace(
            t_grid=np.linspace(0.0, 1.0, 11),
            values=np.exp(-np.linspace(0.0, 1.0, 11)),
            metadata={"seeds": [3], "note": "round trip"},
        )
        path = tmp_path / "trace.csv"
        sidecar = trace.save_csv(path)
        assert sidecar.exists()
        loaded = CoherenceTrace.load_csv(path)
        assert np.array_equal(loaded.t_grid, trace.t_grid)
        assert np.array_equal(loaded.values, trace.values)
        assert loaded.metadata == trace.metadata


class TestEnsembleAverage:
    def test_pointwise_mean_and_seed_merge(self):
        grid = np.linspace(0.0, 1.0, 5)
        counts = [{"pair_points_dropped": 7, "undersampled_spins": 1},
                  {"pair_points_dropped": 5, "undersampled_spins": 0}]
        t1 = CoherenceTrace(grid, np.ones(5), {"seeds": [0], "diagnostics": counts[0]})
        t2 = CoherenceTrace(
            grid, np.linspace(1.0, 0.0, 5), {"seeds": [1], "diagnostics": counts[1]}
        )
        ens = ensemble_average([t1, t2])
        assert np.allclose(ens.values, 0.5 * (t1.values + t2.values))
        assert ens.metadata["seeds"] == [0, 1]
        assert ens.metadata["ensemble_size"] == 2
        assert ens.metadata["diagnostics"] == {"pair_points_dropped": 12, "undersampled_spins": 1}
        assert t1.metadata["diagnostics"] == counts[0]
        # an average over a member without counts has none
        ens = ensemble_average([t1, CoherenceTrace(grid, np.ones(5))])
        assert "diagnostics" not in ens.metadata

    @pytest.mark.parametrize(
        "first,second",
        [
            ({"pair_points_dropped": 7}, {"undersampled_spins": 1}),
            ({"pair_points_dropped": 7}, {"pair_points_dropped": 5, "undersampled_spins": 1}),
            ({"pair_points_dropped": 7}, "7"),
            ("7", {"pair_points_dropped": 7}),
            ([7], [5]),
            ({"pair_points_dropped": 7}, {"pair_points_dropped": 5.0}),
            ({"pair_points_dropped": 7}, {"pair_points_dropped": "5"}),
            ({"pair_points_dropped": True}, {"pair_points_dropped": 5}),
            ({"pair_points_dropped": None}, {"pair_points_dropped": 5}),
        ],
        ids=["other-keys", "extra-key", "string", "string-first", "lists", "float", "digits",
             "bool", "null"],
    )
    def test_counts_that_do_not_match_are_dropped(self, first, second):
        # loaded sidecars hold whatever a file held; only like counts add up
        grid = np.linspace(0.0, 1.0, 5)
        members = [CoherenceTrace(grid, np.ones(5), {"diagnostics": counts})
                   for counts in (first, second)]
        assert "diagnostics" not in ensemble_average(members).metadata


class TestAnalyticModel:
    def test_unit_height_revivals_under_exponential_envelope(self):
        t_r, t2 = 0.5, 1.5
        t = np.array([0.0, 0.5, 1.0, 2.0])
        got = analytic_coherence(t_r, t2, t)
        assert np.allclose(got, np.exp(-t / t2), rtol=1e-12)

    def test_collapse_between_revivals(self):
        assert analytic_coherence(1.0, 10.0, 0.5) == pytest.approx(0.0, abs=1e-12)

    def test_trace_wrapper_carries_model_metadata(self):
        sched = EchoSchedule.regular(2.0, 0.01)
        tr = analytic_trace(sched, 0.5, 1.0)
        assert tr.metadata["T_R_ms"] == 0.5
        assert len(tr) == len(sched.t_grid)


# ------------------------------------------------------------ refusals
def _trace_file(name, text=None, sidecar=None):
    """A builder of the path of ``{tmp}/name``, a file holding ``text``.  Without
    ``text`` it holds the saved analytic trace (T_R 0.2 ms, T2 1 ms), with
    ``sidecar`` as its sidecar's text or, without one, less its header line."""
    def build(tmp_path, sites):
        path = tmp_path / name
        if text is not None:
            path.write_text(text)
            return (path,)
        analytic_trace(EchoSchedule.regular(1.0, 0.01), 0.2, 1.0).save_csv(path)
        if sidecar is None:
            path.write_text(path.read_text().split("\n", 1)[1])
        else:
            path.with_suffix(".json").write_text(sidecar + "\n")
        return (path,)
    return build


def _to_save(name, t2):
    """A builder of an analytic trace (T_R 0.2 ms, decay ``t2``) and the path ``{tmp}/name``."""
    return lambda tmp_path, sites: (
        analytic_trace(EchoSchedule.regular(1.0, 0.01), 0.2, t2), tmp_path / name)


GRID = np.linspace(0.0, 1.0, 5)
SPINS = (NuclearSpin((0.4, 0.0, 0.2), (12.0, -3.0, 7.0)),
         NuclearSpin((-0.1, 0.3, 0.5), (-5.0, 8.0, 2.0)))
INCREASE = "echo times must be finite and strictly increase"
HEADER = " does not start with the header line t_ms,L"

REFUSALS = {"TestFieldVector": {
    **{f"test_non_finite_component_rejected[components{i}]": Refusal(
        ConfigError, f"field components must be finite, got {bad}", FieldVector, *components)
       for i, (components, bad) in enumerate([((np.nan, 0.0, 1.0), "nan"),
                                              ((0.0, -np.inf, 1.0), "-inf")])},
    **{f"test_wrong_length_rejected[seq{i}]": Refusal(
        ConfigError, f"field must hold three numbers (three components), got {seq}",
        FieldVector.from_sequence, seq)
       for i, seq in enumerate([(1.0, 2.0), (1.0, 2.0, 2.0, 0.0)])},
}, "TestEchoSchedule": {
    "test_zero_field_has_no_period": Refusal(
        ConfigError, "zero field has no Larmor period; use regular()", EchoSchedule.for_field, 0.0,
        t_max_ms=1.0),
    "test_undersampling_request_rejected": Refusal(
        ConfigError, "points_per_period must be >= 40", EchoSchedule.for_field, 10.0, t_max_ms=1.0,
        points_per_period=10),
    "test_validate_resolution_raises_on_coarse_grid": Refusal(
        GridTooCoarseError, "grid step 0.25 ms undersamples the revival period at |B| = 100 G;"
        " use a step <= 0.000233536 ms (40 points per period)", EchoSchedule.validate_resolution,
        EchoSchedule.regular(1.0, 0.25), 100.0),
    # NaN returned a NaN step, and a NaN field passed the resolution check
    "test_non_finite_field_rejected": [
        Refusal(ConfigError, "field magnitude must be finite, got nan", call, *args, np.nan)
        for call, args in [(required_time_step, ()),
                           (EchoSchedule.validate_resolution, (EchoSchedule.regular(1.0, 0.25),))]],
    "test_fractional_points_per_period_rejected": Refusal(
        ConfigError, "points_per_period must be an integer, got 48.5", EchoSchedule.for_field, 10.0,
        0.2, points_per_period=48.5),
    "test_non_monotonic_grid_rejected": Refusal(
        ConfigError, INCREASE, EchoSchedule, np.array([0.0, 0.2, 0.1])),
    "test_empty_or_negative_grid_rejected[grid0-empty]": Refusal(
        ConfigError, "empty echo schedule", EchoSchedule, np.array([])),
    "test_empty_or_negative_grid_rejected[grid1-non-negative]": Refusal(
        ConfigError, "echo times must be non-negative", EchoSchedule, np.array([-0.1, 0.0, 0.1])),
    **{f"test_non_{kind}_regular_request_rejected[{t_max}-{step}]": Refusal(
        ConfigError, f"{name} must be {kind}, got {dict(t_max=t_max, step=step)[name]}",
        EchoSchedule.regular, t_max, step)
       for kind, name, t_max, step in [
           ("positive", "t_max", 0.0, 0.01), ("positive", "t_max", -1.0, 0.01),
           ("positive", "step", 1.0, 0.0), ("positive", "step", 1.0, -0.01),
           ("finite", "t_max", np.inf, 0.01), ("finite", "t_max", np.nan, 0.01),
           ("finite", "step", 1.0, np.nan)]},
    # numpy's MemoryError, its size-limit ValueError, and int()'s OverflowError
    **{f"test_grid_too_large_to_build_is_refused[{t_max}-{step}]": Refusal(
        ConfigError, f"echo grid of {points} points (t_max {t_max:g} ms, step {step:g} ms) is too"
        " large to build", EchoSchedule.regular, t_max, step)
       for t_max, step, points in [(1e9, 1e-6, "1e+15"), (1.0, 1e-20, "1e+20"),
                                   (1e300, 1e-300, "inf")]},
}, "TestPairFactor": {
    # the pair was built and its spectra solved before a NaN time was refused
    "test_nan_time_is_refused_before_the_eigensolve": Refusal(
        ConfigError, "t_ms must be finite", pair_echo_factor, *SPINS, 1.5,
        FieldVector.along_z(10.0), np.nan),
}, "TestEchoCoherenceTrace": {
    "test_grid_resolution_enforced": Refusal(
        GridTooCoarseError, "grid step 0.1 ms undersamples the revival period at |B| = 100 G",
        echo_coherence_trace, build=lambda tmp_path, sites: (
            sample_bath(sites, LatticeConfig(seed=2, abundance=0.1)), FieldVector.along_z(100.0),
            EchoSchedule.regular(1.0, 0.1))),
}, "TestCoherenceTrace": {
    "test_mismatched_shapes_rejected": Refusal(
        ShapeError, "time grid and values differ in length", CoherenceTrace, np.array([0.0, 0.1]),
        np.array([1.0])),
    # the repr of np.float64 in the message is numpy's own: "0.5" before numpy 2
    "test_bad_normalization_rejected": Refusal(
        PhysicsError, ("coherence at tau = 0 must be 1, got ", "0.5"), CoherenceTrace,
        np.array([0.0, 0.1]), np.array([0.5, 0.4])),
    # an undamped analytic trace records T2_ms = inf
    "test_save_refuses_metadata_json_cannot_hold": Refusal(
        ConfigError, "output holds a value JSON cannot represent: Out of range float values are"
        " not JSON compliant", CoherenceTrace.save_csv, build=_to_save("trace.csv", np.inf)),
    # the sidecar is the path with its suffix made .json: the table was
    # written and then overwritten by the metadata
    "test_save_refuses_a_json_path": Refusal(
        ConfigError, "trace file {tmp}/t.json would be overwritten by its .json sidecar",
        CoherenceTrace.save_csv, build=_to_save("t.json", 1.0)),
    **{f"test_non_finite_or_unsorted_trace_rejected[grid{i}-values{i}]": Refusal(
        ConfigError, says, CoherenceTrace, np.array(grid), np.array(values))
       for i, (grid, values, says) in enumerate([
           ([0.0, 0.1, 0.2], [1.0, np.nan, 0.5], "coherence values must be finite"),
           ([0.0, 0.1, 0.2], [1.0, np.inf, 0.5], "coherence values must be finite"),
           ([0.0, 0.2, 0.1], [1.0, 0.8, 0.5], INCREASE),
           ([0.0, 0.1, 0.1], [1.0, 0.8, 0.5], INCREASE),
           ([0.0, 0.1, np.inf], [1.0, 0.8, 0.5], INCREASE)])},
    "test_load_rejects_wrong_column_count": Refusal(
        ConfigError, "{tmp}/bad.csv" + HEADER, CoherenceTrace.load_csv,
        build=_trace_file("bad.csv", "a,b,c\n1,2,3\n")),
    **{f"test_load_refuses_rows_that_are_not_two_columns[{case}]": Refusal(
        ConfigError, "{tmp}/bad.csv is not a two-column trace file", CoherenceTrace.load_csv,
        build=_trace_file("bad.csv", text))
       for case, text in [("three-columns", "t_ms,L\n0.0,1.0,0.5\n0.1,0.9,0.5\n"),
                          ("one-column", "t_ms,L\n0.0\n0.1\n")]},
    # skipping the first line whatever it holds would drop the tau = 0 row
    "test_load_refuses_a_file_without_its_header": Refusal(
        ConfigError, "{tmp}/headless.csv" + HEADER, CoherenceTrace.load_csv,
        build=_trace_file("headless.csv")),
    **{f"test_load_refuses_a_file_with_no_rows[{text}]": Refusal(
        ConfigError, "{tmp}/empty.csv holds no rows", CoherenceTrace.load_csv,
        build=_trace_file("empty.csv", text)) for text in ["t_ms,L\n", "t_ms,L\n\n  \n"]},
    # save_csv only ever writes an object; anything else is not its metadata
    **{f"test_load_refuses_a_sidecar_that_is_not_an_object[{sidecar}]": Refusal(
        ConfigError, "trace sidecar {tmp}/trace.json must hold a JSON object",
        CoherenceTrace.load_csv, build=_trace_file("trace.csv", sidecar=sidecar))
       for sidecar in ["[1, 2]", '"x"', "null", "3"]},
}, "TestEnsembleAverage": {
    # a string would be read as its characters
    **{f"test_seeds_that_are_not_a_list_are_refused[{case}]": Refusal(
        ConfigError, f"seeds must be a list, got {seeds!r}", ensemble_average,
        [CoherenceTrace(GRID, np.ones(5), {"seeds": [0]}),
         CoherenceTrace(GRID, np.ones(5), {"seeds": seeds})])
       for case, seeds in [("12", "12"), ("3", 3), ("seeds2", {"a": 1}), ("None", None)]},
    "test_mismatched_grids_rejected": Refusal(
        ShapeError, "ensemble members sample different time grids", ensemble_average,
        [CoherenceTrace(GRID, np.ones(5)), CoherenceTrace(2.0 * GRID, np.ones(5))]),
    "test_empty_collection_rejected": Refusal(
        ConfigError, "cannot average an empty trace collection", ensemble_average, []),
}, "TestAnalyticModel": {
    "test_invalid_parameters_rejected": [
        Refusal(DomainError, f"{name} must be positive, got {bad}", analytic_coherence, *args)
        for name, bad, args in [("revival time", -1.0, (-1.0, 1.0, 0.1)),
                                ("decay time", 0.0, (1.0, 0.0, 0.1))]],
    "test_non_finite_revival_time_rejected": Refusal(
        ConfigError, "revival time must be finite, got nan", analytic_coherence, np.nan, 0.5, 0.1),
}}

install(REFUSALS, check_refusal, globals())
