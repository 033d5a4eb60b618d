"""Bath geometry, couplings, sampling, storage and persistence.

Every refusal of the bath module is a row of ``REFUSALS``: a call, the
exact exception class it raises and the text of its one-line message, held
to the checks of ``refusals.check_refusal``.
"""

import json
import math
import tracemalloc
from collections.abc import Mapping

import numpy as np
import pytest

from nvmag.bath import (
    BathRealization,
    LatticeConfig,
    NuclearSpin,
    _pairs_within,
    generate_lattice_sites,
    hyperfine_vector,
    nuclear_dipolar_coupling,
    sample_bath,
)
from nvmag.constants import (
    ANGSTROM_TO_NM,
    GAMMA_E_KHZ_PER_G,
    GAMMA_N_13C_KHZ_PER_G,
    HYPERFINE_PREFACTOR_KHZ_NM3,
    NUCLEAR_DIPOLE_PREFACTOR_KHZ_NM3,
)
from nvmag.errors import ConfigError, DomainError

from oracles import bath_couplings_loop, lattice_sites_one_shot, si_dipole_prefactor_khz_nm3
from refusals import Refusal, check_refusal, install

MIB = 2**20


# ---------------------------------------------------------------- geometry
class TestLatticeGeometry:
    def test_nearest_site_distance_is_diamond_bond_length(self, small_sites):
        # nearest-neighbour separation in diamond is a * sqrt(3) / 4
        a_nm = 3.567 * ANGSTROM_TO_NM
        bond = a_nm * np.sqrt(3.0) / 4.0
        d = np.linalg.norm(small_sites[:, None, :] - small_sites[None, :, :], axis=-1)
        d[d == 0] = np.inf
        assert d.min() == pytest.approx(bond, rel=1e-9)

    def test_all_sites_inside_cutoff_and_outside_exclusion(self, small_sites):
        r = np.linalg.norm(small_sites, axis=1)
        assert r.max() <= 1.5 + 1e-12
        assert r.min() > 1.55 * ANGSTROM_TO_NM

    def test_origin_and_its_neighbour_are_vacant(self, small_sites):
        # the defect pair itself must carry no nuclear site: the exclusion
        # radius sits just above the bond length
        r = np.linalg.norm(small_sites, axis=1)
        assert (r > 0.154).all()

    def test_site_count_scales_with_cutoff_volume(self):
        n_small = len(generate_lattice_sites(LatticeConfig(cutoff_radius=1.5)))
        n_big = len(generate_lattice_sites(LatticeConfig(cutoff_radius=3.0)))
        # 8x the volume: the count ratio should sit near 8
        assert 6.0 < n_big / n_small < 10.0

    def test_density_matches_diamond(self, small_sites):
        # diamond packs 8 atoms per conventional cell of volume a^3
        a_nm = 3.567 * ANGSTROM_TO_NM
        vol = 4.0 / 3.0 * np.pi * 1.5**3
        expected = 8.0 / a_nm**3 * vol
        assert len(small_sites) == pytest.approx(expected, rel=0.05)

    @pytest.mark.parametrize("config", [
        LatticeConfig(), LatticeConfig(cutoff_radius=1.5),
        LatticeConfig(cutoff_radius=2.7, lattice_constant=3.6),
    ], ids=["4nm", "1.5nm", "2.7nm-3.6A"])
    def test_slab_build_equals_the_one_shot_build(self, config):
        sites, expected = generate_lattice_sites(config), lattice_sites_one_shot(config)
        assert sites.shape == expected.shape
        assert sites.tobytes() == expected.tobytes()

    def test_lattice_build_peak_allocation(self):
        # the one-shot build over the whole cube of cells peaks at 15.5 MiB
        # to return 1.1 MiB of sites; slab by slab it peaks at 4.4 MiB
        generate_lattice_sites(LatticeConfig())
        tracemalloc.start()
        try:
            generate_lattice_sites(LatticeConfig())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 6 * MIB

    def test_fractional_seed_rejected(self):
        # a fractional or negative seed is refused: REFUSALS; a numpy integer is a seed
        assert LatticeConfig(seed=np.int64(3)).seed == 3


# ---------------------------------------------------------------- couplings
class TestHyperfine:
    def test_prefactor_matches_raw_si_arithmetic(self):
        expected = si_dipole_prefactor_khz_nm3(
            GAMMA_E_KHZ_PER_G, GAMMA_N_13C_KHZ_PER_G
        )
        assert HYPERFINE_PREFACTOR_KHZ_NM3 == pytest.approx(expected, rel=1e-12)

    def test_nuclear_prefactor_matches_raw_si_arithmetic(self):
        expected = si_dipole_prefactor_khz_nm3(
            GAMMA_N_13C_KHZ_PER_G, GAMMA_N_13C_KHZ_PER_G
        )
        assert NUCLEAR_DIPOLE_PREFACTOR_KHZ_NM3 == pytest.approx(expected, rel=1e-12)

    def test_on_axis_value(self):
        # nucleus on the z axis: A = C / r^3 * (z - 3 z) = -2 C / r^3 z
        r = 1.3
        a = hyperfine_vector(np.array([0.0, 0.0, r]))
        expected = -2.0 * HYPERFINE_PREFACTOR_KHZ_NM3 / r**3
        assert a[2] == pytest.approx(expected, rel=1e-12)
        assert abs(a[0]) < 1e-15 and abs(a[1]) < 1e-15

    def test_equatorial_value(self):
        # nucleus in the xy plane: A = C / r^3 * z_hat
        r = 0.9
        a = hyperfine_vector(np.array([r, 0.0, 0.0]))
        assert a[2] == pytest.approx(HYPERFINE_PREFACTOR_KHZ_NM3 / r**3, rel=1e-12)

    def test_magic_angle_nulls_secular_part(self):
        # cos^2(theta) = 1/3 kills the z component (the 1 - 3 cos^2 part);
        # the transverse component survives, |z_hat - 3 cos(t) r_hat| = sqrt2
        cos_t = 1.0 / np.sqrt(3.0)
        sin_t = np.sqrt(1.0 - cos_t**2)
        r = 1.1
        a = hyperfine_vector(r * np.array([sin_t, 0.0, cos_t]))
        assert abs(a[2]) < 1e-12
        expected_norm = math.sqrt(2.0) * HYPERFINE_PREFACTOR_KHZ_NM3 / r**3
        assert np.linalg.norm(a) == pytest.approx(expected_norm, rel=1e-12)

    def test_inverse_cube_falloff(self):
        p = np.array([0.3, -0.4, 0.5])
        a1 = hyperfine_vector(p)
        a2 = hyperfine_vector(2.0 * p)
        assert np.allclose(a1, 8.0 * a2, rtol=1e-12)


class TestNuclearDipolar:
    def test_axial_pair_value(self):
        # pair separated along z: 1 - 3 cos^2 = -2
        b = nuclear_dipolar_coupling(np.zeros(3), np.array([0.0, 0.0, 0.7]))
        assert b == pytest.approx(
            -2.0 * NUCLEAR_DIPOLE_PREFACTOR_KHZ_NM3 / 0.7**3, rel=1e-12
        )

    def test_transverse_pair_value(self):
        b = nuclear_dipolar_coupling(np.zeros(3), np.array([0.5, 0.0, 0.0]))
        assert b == pytest.approx(NUCLEAR_DIPOLE_PREFACTOR_KHZ_NM3 / 0.5**3, rel=1e-12)

    def test_symmetric_under_exchange(self):
        pi, pj = np.array([0.1, 0.2, 0.3]), np.array([-0.4, 0.5, 0.1])
        assert nuclear_dipolar_coupling(pi, pj) == pytest.approx(
            nuclear_dipolar_coupling(pj, pi), rel=1e-15
        )


# ---------------------------------------------------------------- sampling
class TestSampling:
    def test_occupancy_fraction_tracks_abundance(self, full_sites):
        counts = [
            len(sample_bath(full_sites, LatticeConfig(seed=s, abundance=0.011)))
            for s in range(20)
        ]
        n, p = len(full_sites), 0.011
        mean, std = n * p, np.sqrt(n * p * (1 - p))
        assert abs(np.mean(counts) - mean) < 3.0 * std / np.sqrt(len(counts))

    def test_deterministic_for_same_seed(self, small_sites):
        cfg = LatticeConfig(seed=11, abundance=0.05)
        b1 = sample_bath(small_sites, cfg)
        b2 = sample_bath(small_sites, cfg)
        assert [s.position for s in b1.spins] == [s.position for s in b2.spins]
        assert b1.pair_couplings == b2.pair_couplings

    def test_different_seeds_differ(self, small_sites):
        b1 = sample_bath(small_sites, LatticeConfig(seed=0, abundance=0.05))
        b2 = sample_bath(small_sites, LatticeConfig(seed=1, abundance=0.05))
        assert [s.position for s in b1.spins] != [s.position for s in b2.spins]

    def test_pair_couplings_respect_cutoff(self, small_sites):
        cfg = LatticeConfig(seed=3, abundance=0.3, pair_cutoff=0.5)
        bath = sample_bath(small_sites, cfg)
        pos = bath.positions
        for (i, j), b in bath.pair_couplings.items():
            assert np.linalg.norm(pos[i] - pos[j]) <= 0.5 + 1e-12
            assert b == nuclear_dipolar_coupling(pos[i], pos[j])

    def test_every_spin_carries_its_hyperfine(self, small_sites):
        bath = sample_bath(small_sites, LatticeConfig(seed=5, abundance=0.1))
        for s in bath.spins:
            assert s.hyperfine == tuple(hyperfine_vector(s.position).tolist())

    @pytest.mark.parametrize("abundance", [0.003, 0.011, 0.03, 0.1])
    def test_array_passes_equal_the_scalar_loop_bit_for_bit(self, full_sites, abundance):
        # seed 0 at 3% is trace-dense bath 0, where an axis-sum norm moved 1,442
        # of 12,865 distances and np.power 618 cubes in the last bit
        bath = sample_bath(full_sites, LatticeConfig(seed=0, abundance=abundance))
        hyperfine, couplings = bath_couplings_loop(bath.positions, bath.pair_i, bath.pair_j)
        assert bath.hyperfine.tobytes() == hyperfine.tobytes()
        assert bath.pair_b.tobytes() == couplings.tobytes()


class TestStorage:
    SPINS = [NuclearSpin((0.2 + 0.3 * k, 0.0, 0.1), (1.0, -2.0, 0.5 * k)) for k in range(4)]
    PAIRS = {(2, 3): 0.5, (0, 2): -1.25, (1, 3): 2.0, (0, 1): 0.75}

    def test_a_bath_is_a_few_arrays(self):
        bath = BathRealization(self.SPINS, self.PAIRS, seed=4)
        assert bath.positions.shape == bath.hyperfine.shape == (4, 3)
        assert bath.pair_i.tolist() == [0, 0, 1, 2] and bath.pair_j.tolist() == [1, 2, 3, 3]
        assert bath.pair_b.tolist() == [0.75, -1.25, 2.0, 0.5]
        assert bath.pair_i.dtype == bath.pair_j.dtype == np.int64
        assert bath.spins == self.SPINS
        for array in (bath.positions, bath.hyperfine, bath.pair_i, bath.pair_j, bath.pair_b):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0

    def test_pair_couplings_view_reads_like_its_dict(self):
        view = BathRealization(self.SPINS, self.PAIRS).pair_couplings
        assert isinstance(view, Mapping) and len(view) == 4
        assert list(view) == sorted(self.PAIRS)
        assert list(view.items()) == sorted(self.PAIRS.items())
        assert view[0, 2] == -1.25 and view[np.int64(1), np.int64(3)] == 2.0
        for absent in [(0, 3), (1, 2), (3, 2), (2, 2), (4, 5), (-1, 0), (0,), "01", 1]:
            assert absent not in view
            with pytest.raises(KeyError):
                view[absent]
        assert view == self.PAIRS and dict(view) == self.PAIRS
        assert view != {**self.PAIRS, (0, 3): 1.0}
        assert view != {**self.PAIRS, (0, 1): 0.5}

    def test_pair_couplings_is_a_new_dict_on_each_access(self):
        bath = BathRealization(self.SPINS, self.PAIRS)
        first, second = bath.pair_couplings, bath.pair_couplings
        assert type(first) is dict and first == second and first is not second
        assert list(first.values()) == bath.pair_b.tolist()
        first[0, 1] = 9.0
        del first[2, 3]
        first[1, 2] = 1.0
        assert bath.pair_couplings == second
        assert bath.pair_i.tolist() == [0, 0, 1, 2] and bath.pair_j.tolist() == [1, 2, 3, 3]
        assert bath.pair_b.tolist() == [0.75, -1.25, 2.0, 0.5]

    def test_sampled_bath_holds_under_one_mib(self, full_sites):
        # trace-dense bath 0: 1,402 spins and 12,865 pairs.  A dict entry and
        # a tuple key per pair and a NuclearSpin per spin held 2.7 MiB; the
        # arrays hold 0.36 MiB
        cfg = LatticeConfig(abundance=0.03, seed=0)
        sample_bath(full_sites, cfg)
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            bath = sample_bath(full_sites, cfg)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (len(bath), len(bath.pair_couplings)) == (1402, 12865)
        assert held - before <= 1 * MIB


class TestPairSearch:
    """The numpy pair search against scipy's k-d tree; scipy is needed only here."""

    @staticmethod
    def kd_pairs(positions, cutoff):
        from scipy.spatial import cKDTree

        return sorted(cKDTree(positions).query_pairs(cutoff))

    @staticmethod
    def found(positions, cutoff):
        """_pairs_within's two int64 index arrays, as a list of (i, j)."""
        i, j = _pairs_within(positions, cutoff)
        assert i.dtype == j.dtype == np.int64 and i.shape == j.shape
        return list(zip(i.tolist(), j.tolist()))

    @pytest.mark.parametrize("abundance, pair_cutoff, seed", [
        (0.003, 1.0, 0), (0.011, 1.0, 1), (0.03, 1.0, 2), (0.1, 1.0, 3),
        (0.011, 0.5, 4), (0.011, 1.5, 5), (0.03, 0.5, 6), (0.03, 1.5, 7),
    ])
    def test_matches_kd_tree_on_sampled_baths(self, full_sites, abundance, pair_cutoff, seed):
        # sample_bath's occupancy draw, without its per-pair couplings
        rng = np.random.default_rng(seed)
        positions = full_sites[rng.random(len(full_sites)) < abundance]
        expected = self.kd_pairs(positions, pair_cutoff)
        assert len(expected) > 0
        assert self.found(positions, pair_cutoff) == expected

    def test_sample_bath_keeps_the_pairs_found(self, full_sites):
        cfg = LatticeConfig(seed=1, abundance=0.011, pair_cutoff=0.5)
        bath = sample_bath(full_sites, cfg)
        assert list(bath.pair_couplings) == self.kd_pairs(bath.positions, 0.5)

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_few_spins(self, n):
        positions = np.array([[0.1, 0.2, 0.3], [0.4, -0.2, 0.9]])[:n]
        assert self.found(positions, 1.0) == self.kd_pairs(positions, 1.0)
        assert self.found(positions, 1.0) == ([(0, 1)] if n == 2 else [])
        assert self.found(positions, 0.5) == []

    def test_pair_exactly_at_the_cutoff_is_kept(self):
        beyond = np.nextafter(1.0, 2.0)
        positions = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 1.0],
                              [0.0, beyond, 0.0], [-1.0, 0.0, 0.0]])
        expected = [(0, 1), (0, 4), (1, 2)]
        assert self.found(positions, 1.0) == expected
        assert self.kd_pairs(positions, 1.0) == expected


# ---------------------------------------------------------------- persistence
class TestPersistence:
    def test_save_load_round_trip(self, small_sites, tmp_path):
        cfg = LatticeConfig(seed=9, abundance=0.1)
        bath = sample_bath(small_sites, cfg)
        path = tmp_path / "bath.json"
        bath.save(path)
        loaded = BathRealization.load(path)
        assert len(loaded) == len(bath)
        assert loaded.seed == bath.seed
        assert loaded.gamma_n == bath.gamma_n
        assert loaded.config == cfg
        assert np.allclose(loaded.positions, bath.positions)
        assert np.allclose(loaded.hyperfine, bath.hyperfine)
        assert loaded.pair_couplings == bath.pair_couplings
        # the file keeps the record's own key order
        assert path.read_text() == json.dumps(bath.to_json_dict(), indent=1) + "\n"

    def test_pair_rows_in_any_order_read_as_the_sorted_table(self, small_sites):
        bath = sample_bath(small_sites, LatticeConfig(seed=9, abundance=0.1))
        record = bath.to_json_dict()
        record["pair_couplings_khz"].reverse()
        shuffled = BathRealization.from_json_dict(record)
        for name in ("pair_i", "pair_j", "pair_b"):
            assert getattr(shuffled, name).tobytes() == getattr(bath, name).tobytes()
        # a row read twice is refused: REFUSALS


# ---------------------------------------------------------------- refusals
SPIN = NuclearSpin((0.5, 0.0, 0.0), (1.0, 0.0, 0.0))
ORIGIN = "hyperfine vector undefined at the electron position"
COINCIDENT = "coincident nuclei have no defined dipolar coupling"
THREE = "must hold three numbers (three components), got "


def _record(edit):
    """A builder of the record of a 10% bath at seed 9, changed by ``edit``."""
    def build(tmp_path, sites):
        record = sample_bath(sites, LatticeConfig(seed=9, abundance=0.1)).to_json_dict()
        assert record["pair_couplings_khz"]
        edit(record)
        return (record,)
    return build


def _saved(build):
    """A builder of the path of ``{tmp}/bath.json``, holding the JSON of ``build``'s record."""
    def save(tmp_path, sites):
        (tmp_path / "bath.json").write_text(json.dumps(*build(tmp_path, sites)))
        return (tmp_path / "bath.json",)
    return save


# each record edit: the refusal of the record, and the literal the file
# reader refuses before it reads any record
_RECORD_EDITS = {
    "nan-position": (lambda d: d["spins"][0]["position_nm"].__setitem__(0, math.nan),
                     "position_nm must be finite, got nan", "NaN"),
    "infinite-hyperfine": (lambda d: d["spins"][0]["hyperfine_khz"].__setitem__(2, -math.inf),
                           "hyperfine_khz must be finite, got -inf", "-Infinity"),
    "two-component-hyperfine": (lambda d: d["spins"][0]["hyperfine_khz"].pop(),
                                "hyperfine_khz " + THREE, None),
    "string-position": (lambda d: d["spins"][0].__setitem__("position_nm", "abc"),
                        f"position_nm {THREE}'abc'", None),
    "infinite-coupling": (lambda d: d["pair_couplings_khz"][0].__setitem__(2, math.inf),
                          "pair coupling must be finite, got inf", "Infinity"),
    "string-coupling": (lambda d: d["pair_couplings_khz"][0].__setitem__(2, "1.0"),
                        "pair coupling must be a number, got '1.0'", None),
    "fractional-index": (lambda d: d["pair_couplings_khz"][0].__setitem__(0, 0.9),
                         "pair index must be an integer, got 0.9", None),
    "pair-listed-twice": (lambda d: d["pair_couplings_khz"].append(
        list(d["pair_couplings_khz"][-1])), "pair (211, 212) listed twice", None),
    "fractional-seed": (lambda d: d.__setitem__("seed", 2.7), "seed must be an integer, got 2.7",
                        None),
    "nan-pair-cutoff": (lambda d: d["config"].__setitem__("pair_cutoff", math.nan),
                        "pair_cutoff must be finite, got nan", "NaN"),
    "fractional-config-seed": (lambda d: d["config"].__setitem__("seed", 1.5),
                               "seed must be an integer, got 1.5", None),
    "negative-seed": (lambda d: d.update(seed=-1, config=None), "seed must be >= 0", None),
    "seed-other-than-config-seed": (lambda d: d.__setitem__("seed", 10),
                                    "seed 10 disagrees with its config seed 9", None),
}

REFUSALS = {"TestLatticeGeometry": {
    # NaN passes every "<= 0" check, and an infinite cutoff would enumerate
    # lattice cells without end
    **{f"test_non_finite_geometry_rejected[{name}-{value}]": Refusal(
        ConfigError, f"{name} must be finite, got {value}", LatticeConfig, **{name: value})
       for name, value in [("lattice_constant", math.nan), ("cutoff_radius", math.inf),
                           ("exclusion_radius", math.nan), ("pair_cutoff", math.nan)]},
    **{f"test_non_positive_geometry_rejected[{name}-{value}]": Refusal(
        ConfigError, says, LatticeConfig, **{name: value}) for name, value, says in [
            ("lattice_constant", 0.0, "lattice_constant must be positive, got 0.0"),
            ("lattice_constant", -3.567, "lattice_constant must be positive, got -3.567"),
            ("exclusion_radius", -0.1, "exclusion_radius must be >= 0"),
            ("pair_cutoff", 0.0, "pair_cutoff must be positive, got 0.0")]},
    "test_fractional_and_negative_seeds_refused": [
        Refusal(ConfigError, "seed must be an integer, got 1.5", LatticeConfig, seed=1.5),
        Refusal(ConfigError, "seed must be >= 0", LatticeConfig, seed=-1)],
    "test_cutoff_must_exceed_exclusion": Refusal(
        ConfigError, "cutoff_radius (nm) must exceed exclusion_radius (Angstrom)", LatticeConfig,
        cutoff_radius=0.1, exclusion_radius=1.55),
    "test_bad_abundance_rejected": [Refusal(ConfigError, "abundance must lie in [0, 1]",
                                            LatticeConfig, abundance=a) for a in (1.5, -0.1)],
}, "TestHyperfine": {
    "test_origin_rejected": Refusal(DomainError, ORIGIN, hyperfine_vector, np.zeros(3)),
    # r**3 of 1e-110 is 0.0 in float64
    "test_cube_below_float_range_rejected": Refusal(
        DomainError, ORIGIN, hyperfine_vector, [1e-110, 0.0, 0.0]),
    # test_arguments sweeps NaN, infinities, True and 10**400 through each component
    **{f"test_misshapen_position_rejected[{case}]": Refusal(
        ConfigError, f"position_nm {THREE}{bad!r}", hyperfine_vector, bad)
       for case, bad in [("position0", [0.5, 0]), ("position1", [0.5, 0, 1, 2]), ("abc", "abc")]},
}, "TestNuclearDipolar": {
    "test_coincident_rejected": Refusal(
        DomainError, COINCIDENT, nuclear_dipolar_coupling, np.full(3, 0.1), np.full(3, 0.1)),
    "test_cube_below_float_range_rejected": Refusal(
        DomainError, COINCIDENT, nuclear_dipolar_coupling, np.zeros(3), [0.0, 0.0, 1e-110]),
    # a two-component vector ended in numpy's broadcast ValueError
    **{f"test_misshapen_position_rejected[{case}]": [
        Refusal(ConfigError, f"position_j_nm {THREE}{bad!r}", nuclear_dipolar_coupling,
                np.zeros(3), bad),
        Refusal(ConfigError, f"position_i_nm {THREE}{bad!r}", nuclear_dipolar_coupling,
                bad, np.zeros(3))]
       for case, bad in [("bad0", [0.5, 0]), ("bad1", [0.5, 0, 1, 2]), ("abc", "abc")]},
}, "TestPersistence": {
    "test_a_pair_row_read_twice_is_refused": Refusal(
        ConfigError, "pair (211, 212) listed twice", BathRealization.from_json_dict,
        build=_record(lambda d: (d["pair_couplings_khz"].reverse(),
                                 d["pair_couplings_khz"].append(d["pair_couplings_khz"][0])))),
    # the constructor reads every vector through finite_vector, so a bath
    # holding a value strict JSON cannot write is never built to be saved
    "test_save_refuses_a_value_json_cannot_hold": Refusal(
        ConfigError, "hyperfine_khz must be finite, got inf", BathRealization,
        [NuclearSpin((0.5, 0.0, 0.0), (1.0, 0.0, math.inf))], {}),
    "test_malformed_record_rejected": Refusal(
        ConfigError, "malformed bath file {tmp}/bath.json: string indices must be integers",
        BathRealization.load, build=_saved(lambda tmp_path, sites: ({"spins": "nope"},))),
    # through the file reader the refusal names the file and says "malformed"
    # at most once (a non-finite number is refused before any record is read)
    **{f"test_non_finite_or_misshapen_record_rejected[{case}]": [
        Refusal(ConfigError, says, BathRealization.from_json_dict, build=_record(edit)),
        Refusal(ConfigError, f"bath file holds {literal}; every number in {{tmp}}/bath.json must"
                " be finite" if literal else ("malformed", "bath file {tmp}/bath.json: " + says),
                BathRealization.load, build=_saved(_record(edit)))]
       for case, (edit, says, literal) in _RECORD_EDITS.items()},
    # it raised IsADirectoryError, which is no ConfigError
    "test_a_directory_is_a_config_error_naming_it": Refusal(
        ConfigError, "bath file {tmp} cannot be read: Is a directory", BathRealization.load,
        build=lambda tmp_path, sites: (tmp_path,)),
    # hyperfine and dipolar couplings are computed with the 13C ratio; a bath
    # claiming another would be evolved inconsistently
    "test_gamma_n_other_than_13c_rejected": [
        Refusal(ConfigError, "gamma_n is the 13C ratio 1.0705 kHz/G, got 2.141", BathRealization,
                [SPIN], {}, gamma_n=2 * GAMMA_N_13C_KHZ_PER_G),
        Refusal(ConfigError, "gamma_n is the 13C ratio 1.0705 kHz/G, got 2.0",
                BathRealization.from_json_dict,
                build=_record(lambda d: d.__setitem__("gamma_n_khz_per_g", 2.0)))],
    # the constructor once took any array numpy could make of a spin: a NaN
    # position built a bath whose trace exited 0
    **{f"test_constructor_reads_spins_as_the_file_reader_does[{case}-{field}]": Refusal(
        ConfigError, f"{field}_{unit} {says}", BathRealization,
        [NuclearSpin((0.5, 0.0, 0.0), (1.0, 0.0, 2.0)), NuclearSpin(
            **{"position": (0.5, 0.0, 0.0), "hyperfine": (1.0, 0.0, 2.0), field: bad})],
        {(0, 1): 0.5}) for case, bad, says in [
            ("nan", (0.5, 0.0, math.nan), "must be finite, got nan"),
            ("inf", (math.inf, 0.0, 1.0), "must be finite, got inf"),
            ("-inf", (0.5, -math.inf, 1.0), "must be finite, got -inf"),
            ("bool", (True, 0.0, 1.0), "must be a number, got True"),
            ("string", (0.5, "0.5", 1.0), "must be a number, got '0.5'"),
            ("two-components", (0.5, 1.0), THREE + "(0.5, 1.0)")]
       for field, unit in [("position", "nm"), ("hyperfine", "khz")]},
    # a NaN coupling ended in numpy's LinAlgError inside the trace, and a
    # string was read as a number
    **{f"test_pair_coupling_must_be_a_finite_number[{coupling}]": Refusal(
        ConfigError, f"pair coupling {says}, got {coupling!r}", BathRealization,
        [SPIN, NuclearSpin((0.0, 0.5, 0.0), (2.0, 0.0, 1.0))], {(0, 1): coupling})
       for coupling, says in [(math.nan, "must be finite"), (math.inf, "must be finite"),
                              ("7.5", "must be a number"), (True, "must be a number")]},
    "test_pair_index_validation": [
        Refusal(ConfigError, "pair index (0, 1) out of range", BathRealization,
                [SPIN], {(0, 1): 1.0}),
        Refusal(ConfigError, "pair index (1, 0) out of range", BathRealization,
                [SPIN, SPIN], {(1, 0): 1.0})],
}}

install(REFUSALS, check_refusal, globals())
