"""Nuclear spin bath construction.

Builds the diamond carbon lattice around a single defect site, samples 13C
occupancy, and attaches the secular couplings the echo engine needs: the
electron-nuclear hyperfine vector of every nucleus (point-dipole form) and
the intra-bath dipolar coupling of every retained nuclear pair.  The pairs
within the pair cutoff come from a blocked numpy search (``_pairs_within``),
so sampling a bath needs numpy alone.  A bath is held as arrays: (N, 3)
positions and hyperfine vectors, and one pair table, sorted by (i, j) where
it is made, that the echo engine slices into its batches.  A bath's
``pair_couplings`` is a plain dict (i, j) -> b_ij built from that table on
each access, so a pair count reads ``len(bath.pair_b)``.  The hyperfine
vectors and the couplings are each taken in one array pass that rounds
every entry exactly as the one-spin and one-pair functions do.  The
lattice is built one slab of cells at a time.

Geometry convention: the defect vacancy sits at the origin, the substituting
nitrogen occupies the adjacent lattice site, and all coordinates are returned
in a frame whose z axis points along the vacancy-nitrogen bond (the defect
symmetry axis).  Neither the vacancy nor the nitrogen site carries a nuclear
spin.  Positions are in nm, couplings in kHz.

The package's strict JSON reader and writer and its CSV writer live here
too: every JSON file nvmag reads or writes, and every CSV file it writes,
goes through them.  So do the rules every module checks its numeric arguments
with (``finite_number``, ``positive``, ``integer``, ``finite_vector``,
``finite_array``, ``increasing_array``): a non-number, a bool, NaN, an
infinity or an int too large for a float is a ConfigError.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass

import numpy as np

from .constants import (
    ANGSTROM_TO_NM,
    DIAMOND_LATTICE_CONSTANT_A,
    GAMMA_N_13C_KHZ_PER_G,
    HYPERFINE_PREFACTOR_KHZ_NM3,
    NATURAL_ABUNDANCE_13C,
    NUCLEAR_DIPOLE_PREFACTOR_KHZ_NM3,
)
from .errors import ConfigError, DomainError

# Conventional-cell fractional coordinates: FCC translations plus the
# two-point diamond basis.
_FCC_OFFSETS = np.array(
    [(0.0, 0.0, 0.0), (0.0, 0.5, 0.5), (0.5, 0.0, 0.5), (0.5, 0.5, 0.0)]
)
_DIAMOND_BASIS = np.array([(0.0, 0.0, 0.0), (0.25, 0.25, 0.25)])

_Z_HAT = np.array([0.0, 0.0, 1.0])


def load_strict_json(path, what: str):
    """Strict JSON input: NaN, Infinity and numbers beyond float range are refused."""
    def refuse(literal: str):
        raise ConfigError(f"{what} holds {literal}; every number must be finite")

    def finite(literal: str) -> float:
        value = float(literal)
        if not math.isfinite(value):
            refuse(literal)
        return value

    with open(path) as fh:
        try:
            return json.load(fh, parse_constant=refuse, parse_float=finite)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{what} is not valid JSON: {exc}") from exc


def json_text(payload, sort_keys: bool = True) -> str:
    """Strict JSON for every file and printout: NaN and infinities are refused."""
    try:
        return json.dumps(payload, indent=1, sort_keys=sort_keys, allow_nan=False)
    except ValueError as exc:
        raise ConfigError(f"output holds a value JSON cannot represent: {exc}") from exc


def csv_text(header: list[str], rows) -> str:
    """A CSV table with every float cell as ``repr(float(x))``, so it reads back exactly."""
    lines = [",".join(header)] + [
        ",".join(repr(float(x)) if isinstance(x, float) else str(x) for x in row)
        for row in rows
    ]
    return "\n".join(lines) + "\n"


_FLOATS = (float, np.floating)
_NUMBERS = (int, np.integer) + _FLOATS
_FLOAT_MAX = float(np.finfo(float).max)


def finite_number(value, what: str):
    """``value`` itself if it is an int, float, or numpy int or float in float range; not a bool."""
    if isinstance(value, bool) or not isinstance(value, _NUMBERS):
        raise ConfigError(f"{what} must be a number, got {value!r}")
    if not -_FLOAT_MAX <= value <= _FLOAT_MAX:
        raise ConfigError(f"{what} must be finite, got {value!r}")
    return value


def positive(value, what: str, error: type[Exception] = ConfigError):
    """``value`` itself if it is a finite number above zero; zero or below raises ``error``."""
    if not finite_number(value, what) > 0:
        raise error(f"{what} must be positive, got {value}")
    return value


def integer(value, what: str) -> int:
    """``value`` as an int if it is an int or a numpy integer; bools are refused."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    return int(value)


def finite_vector(value, what: str) -> tuple[float, float, float]:
    """Three finite numbers, as floats: a list, tuple or 1-D array of length three."""
    if isinstance(value, np.ndarray) and value.ndim == 1:
        value = value.tolist()
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        raise ConfigError(f"{what} must hold three numbers (three components), got {value!r}")
    return tuple([float(finite_number(x, what)) for x in value])


def _float_array(value, what: str) -> np.ndarray:
    array = np.asarray(value)
    if array.dtype.kind not in "iuf":
        raise ConfigError(f"{what} must hold numbers, got {value!r}")
    return array.astype(float, copy=False)


def finite_array(value, what: str) -> np.ndarray:
    """``value`` as a float array of its own shape: finite ints or floats, never bools."""
    array = _float_array(value, what)
    if not np.isfinite(array).all():
        raise ConfigError(f"{what} must be finite")
    return array


def increasing_array(value, what: str) -> np.ndarray:
    """``value`` as a flat float array like ``finite_array``'s, each entry above the last."""
    array = _float_array(value, what).reshape(-1)
    if not (np.isfinite(array).all() and np.all(np.diff(array) > 0)):
        raise ConfigError(f"{what} must be finite and strictly increase")
    return array


def _rotation_111_to_z() -> np.ndarray:
    """Rotation matrix taking the cubic [111] direction onto +z."""
    axis_from = np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)
    cross = np.cross(axis_from, _Z_HAT)
    sin_a = np.linalg.norm(cross)
    cos_a = float(axis_from @ _Z_HAT)
    k = cross / sin_a
    kx = np.array([[0, -k[2], k[1]], [k[2], 0, -k[0]], [-k[1], k[0], 0]])
    return np.eye(3) + sin_a * kx + (1 - cos_a) * (kx @ kx)


_R_111_TO_Z = _rotation_111_to_z()


@dataclass(frozen=True)
class LatticeConfig:
    """Geometry and sampling parameters of a bath realization.

    lattice_constant : conventional cubic cell edge, Angstrom
    cutoff_radius    : keep carbon sites with |r| <= cutoff, nm
    exclusion_radius : drop carbon sites with |r| <= exclusion, Angstrom
    abundance        : 13C occupancy probability per site
    seed             : occupancy RNG seed
    pair_cutoff      : retain nuclear pair couplings with r_ij <= this, nm
    """

    lattice_constant: float = DIAMOND_LATTICE_CONSTANT_A
    cutoff_radius: float = 4.0
    exclusion_radius: float = 1.55
    abundance: float = NATURAL_ABUNDANCE_13C
    seed: int = 0
    pair_cutoff: float = 1.0

    def __post_init__(self) -> None:
        for name in ("cutoff_radius", "exclusion_radius", "abundance"):
            finite_number(getattr(self, name), name)
        positive(self.lattice_constant, "lattice_constant")
        positive(self.pair_cutoff, "pair_cutoff")
        if integer(self.seed, "seed") < 0:
            raise ConfigError("seed must be >= 0")
        if self.exclusion_radius < 0:
            raise ConfigError("exclusion_radius must be >= 0")
        if self.cutoff_radius <= self.exclusion_radius * ANGSTROM_TO_NM:
            raise ConfigError("cutoff_radius (nm) must exceed exclusion_radius (Angstrom)")
        if not 0.0 <= self.abundance <= 1.0:
            raise ConfigError("abundance must lie in [0, 1]")

    @property
    def lattice_constant_nm(self) -> float:
        return self.lattice_constant * ANGSTROM_TO_NM

    @property
    def exclusion_radius_nm(self) -> float:
        return self.exclusion_radius * ANGSTROM_TO_NM


@dataclass(frozen=True)
class NuclearSpin:
    """One bath nucleus: position (nm, defect frame) and hyperfine vector (kHz)."""

    position: tuple[float, float, float]
    hyperfine: tuple[float, float, float]


def _spin_vectors(vectors, what: str) -> np.ndarray:
    """(N, 3) float array of N vectors, each read through ``finite_vector``."""
    return np.array([finite_vector(v, what) for v in vectors]).reshape(-1, 3)


def _pair_table(rows) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(i, j, b_ij) rows, sorted by (i, j), as int64 index arrays i, j and float64 couplings.

    Each index must be an integer and each coupling a finite number.
    """
    rows = sorted(
        (integer(i, "pair index"), integer(j, "pair index"),
         float(finite_number(b, "pair coupling")))
        for i, j, b in rows
    )
    index = np.array([row[:2] for row in rows], dtype=np.int64).reshape(-1, 2)
    return index[:, 0], index[:, 1], np.array([row[2] for row in rows])


class BathRealization:
    """A sampled bath: spin arrays, a pair table, and everything to rebuild it.

    ``positions`` (N, 3) holds the spin positions in nm and ``hyperfine``
    (N, 3) their hyperfine vectors in kHz.  The pair table holds the
    secular dipolar coupling b_ij (kHz) of every pair within the configured
    pair cutoff, sorted by (i, j) with 0 <= i < j < N: int64 index arrays
    ``pair_i`` and ``pair_j`` and the float64 couplings ``pair_b``.  All
    other couplings are treated as zero.  The arrays are read-only.
    ``pair_couplings`` gives the table as a plain dict (i, j) -> b_ij in
    (i, j) order, and ``spins`` lists the spins as :class:`NuclearSpin`
    records; each is built anew on every access, so a pair count reads
    ``len(bath.pair_b)``.  ``gamma_n`` records the 13C ratio the couplings
    were computed with; it is fixed at GAMMA_N_13C_KHZ_PER_G, and any other
    value is refused.  ``seed`` is a non-negative integer, and the config's
    own seed when a config is given.

    The constructor takes ``spins`` as NuclearSpin records and
    ``pair_couplings`` as a mapping (i, j) -> b_ij, in any key order, and
    reads every position and hyperfine vector through ``finite_vector``.
    """

    def __init__(
        self,
        spins,
        pair_couplings,
        gamma_n: float = GAMMA_N_13C_KHZ_PER_G,
        seed: int = 0,
        config: LatticeConfig | None = None,
    ) -> None:
        self._store(
            _spin_vectors([s.position for s in spins], "position_nm"),
            _spin_vectors([s.hyperfine for s in spins], "hyperfine_khz"),
            *_pair_table((i, j, b) for (i, j), b in pair_couplings.items()),
            gamma_n,
            seed,
            config,
        )

    @classmethod
    def _from_arrays(cls, positions, hyperfine, pair_i, pair_j, pair_b, gamma_n, seed, config):
        bath = cls.__new__(cls)
        bath._store(positions, hyperfine, pair_i, pair_j, pair_b, gamma_n, seed, config)
        return bath

    def _store(self, positions, hyperfine, pair_i, pair_j, pair_b, gamma_n, seed, config) -> None:
        """Check gamma_n, the seed, and the (i, j)-sorted pair table's indices and order."""
        bad = (pair_i < 0) | (pair_i >= pair_j) | (pair_j >= len(positions))
        if bad.any():
            k = int(np.argmax(bad))
            raise ConfigError(f"pair index ({pair_i[k]}, {pair_j[k]}) out of range")
        twice = np.diff(pair_i * len(positions) + pair_j) <= 0
        if twice.any():
            k = int(np.argmax(twice))
            raise ConfigError(f"pair ({pair_i[k]}, {pair_j[k]}) listed twice")
        if gamma_n != GAMMA_N_13C_KHZ_PER_G:
            raise ConfigError(
                f"gamma_n is the 13C ratio {GAMMA_N_13C_KHZ_PER_G} kHz/G, got {gamma_n!r}"
            )
        if integer(seed, "seed") < 0:
            raise ConfigError("seed must be >= 0")
        if config is not None and seed != config.seed:
            raise ConfigError(f"seed {seed} disagrees with its config seed {config.seed}")
        for array in (positions, hyperfine, pair_i, pair_j, pair_b):
            array.flags.writeable = False
        self.positions, self.hyperfine = positions, hyperfine
        self.pair_i, self.pair_j, self.pair_b = pair_i, pair_j, pair_b
        self.gamma_n, self.seed, self.config = gamma_n, seed, config

    def __len__(self) -> int:
        return len(self.positions)

    @property
    def spins(self) -> list[NuclearSpin]:
        return [
            NuclearSpin(tuple(p), tuple(a))
            for p, a in zip(self.positions.tolist(), self.hyperfine.tolist())
        ]

    @property
    def pair_couplings(self) -> dict[tuple[int, int], float]:
        return dict(zip(zip(self.pair_i.tolist(), self.pair_j.tolist()), self.pair_b.tolist()))

    def to_json_dict(self) -> dict:
        return {
            "seed": self.seed,
            "gamma_n_khz_per_g": self.gamma_n,
            "config": dataclasses.asdict(self.config) if self.config else None,
            "spins": [
                {"position_nm": p, "hyperfine_khz": a}
                for p, a in zip(self.positions.tolist(), self.hyperfine.tolist())
            ],
            "pair_couplings_khz": [
                list(row)
                for row in zip(self.pair_i.tolist(), self.pair_j.tolist(), self.pair_b.tolist())
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "BathRealization":
        """Rebuild a saved bath; every position, hyperfine vector and coupling
        must be finite, every index and seed an integer, and no pair listed twice."""
        try:
            spins = data["spins"]
            config = LatticeConfig(**data["config"]) if data.get("config") else None
            return cls._from_arrays(
                _spin_vectors([s["position_nm"] for s in spins], "position_nm"),
                _spin_vectors([s["hyperfine_khz"] for s in spins], "hyperfine_khz"),
                *_pair_table(data["pair_couplings_khz"]),
                float(finite_number(data["gamma_n_khz_per_g"], "gamma_n")),
                integer(data["seed"], "seed"),
                config,
            )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"malformed bath record: {exc}") from exc

    def save(self, path) -> None:
        """Write the bath record, keys in record order; a bath JSON cannot hold is refused."""
        text = json_text(self.to_json_dict(), sort_keys=False) + "\n"
        with open(path, "w") as fh:
            fh.write(text)

    @classmethod
    def load(cls, path) -> "BathRealization":
        """Read a bath file; a malformed record is a ConfigError that names the file."""
        data = load_strict_json(path, f"bath file {path}")
        try:
            return cls.from_json_dict(data)
        except ConfigError as exc:
            raise ConfigError(f"bath file {path}: {exc}") from exc


def generate_lattice_sites(config: LatticeConfig) -> np.ndarray:
    """All candidate carbon sites around the defect, defect frame, nm.

    Deterministic in the config alone (no RNG): enumerates conventional
    cells out to the cutoff, removes the vacancy and nitrogen sites, applies
    the radial exclusion/cutoff window, and rotates so +z is the defect axis.
    Sites are returned sorted lexicographically by rounded coordinates.
    The cells are enumerated one slab (one value of the first cell index)
    at a time, keeping only each slab's in-window sites, so no temporary
    spans the whole cube of cells.
    """
    a = config.lattice_constant_nm
    span = int(np.ceil(config.cutoff_radius / a)) + 1
    cells = np.arange(-span, span + 1)
    cj, ck = np.meshgrid(cells, cells, indexing="ij")
    fractional = (_FCC_OFFSETS[:, None, :] + _DIAMOND_BASIS[None, :, :]).reshape(-1, 3)
    # Vacancy at the origin, nitrogen on the adjacent basis site along [111].
    nitrogen = np.full(3, a / 4.0)
    kept = []
    for ci in cells:
        corners = np.stack([np.full_like(cj, ci), cj, ck], axis=-1).reshape(-1, 3).astype(float)
        sites = (corners[:, None, :] + fractional[None, :, :]).reshape(-1, 3) * a
        radii = np.linalg.norm(sites, axis=1)
        is_defect = (radii < 1e-9) | (np.linalg.norm(sites - nitrogen, axis=1) < 1e-9)
        keep = (
            ~is_defect
            & (radii > config.exclusion_radius_nm)
            & (radii <= config.cutoff_radius)
        )
        kept.append(sites[keep])
    sites = np.concatenate(kept) @ _R_111_TO_Z.T

    order = np.lexsort(np.round(sites, 9).T[::-1])
    return sites[order]


def _row_norms(d: np.ndarray) -> np.ndarray:
    """|d| of each row of an (M, 3) array, rounded as ``np.linalg.norm`` of that row alone.

    ``norm`` of one vector takes the BLAS dot of the vector with itself;
    ``np.matmul`` of (M, 1, 3) by (M, 3, 1) takes that same dot row by row,
    where an axis sum or ``norm(axis=1)`` rounds some rows differently.
    """
    return np.sqrt(np.matmul(d[:, None, :], d[:, :, None]).reshape(-1))


def _hyperfine_vectors(positions: np.ndarray) -> np.ndarray:
    """(N, 3) hyperfine vectors (kHz) of nuclei at (N, 3) positions (nm); see hyperfine_vector."""
    r = _row_norms(positions)
    # float_power is libm pow entry by entry, as Python's r**3 is; np.power's
    # SIMD loop rounds some entries differently
    cube = np.float_power(r, 3)
    if not cube.all():
        raise DomainError("hyperfine vector undefined at the electron position")
    r_hat = positions / r[:, None]
    scale = HYPERFINE_PREFACTOR_KHZ_NM3 / cube
    return scale[:, None] * (_Z_HAT - (3.0 * r_hat[:, 2])[:, None] * r_hat)


def _dipolar_couplings(d: np.ndarray) -> np.ndarray:
    """Couplings b (kHz) of pairs at (M, 3) separations d (nm); see nuclear_dipolar_coupling."""
    r = _row_norms(d)
    cube = np.float_power(r, 3)
    if not cube.all():
        raise DomainError("coincident nuclei have no defined dipolar coupling")
    cos_t = d[:, 2] / r
    return (NUCLEAR_DIPOLE_PREFACTOR_KHZ_NM3 / cube) * (1.0 - 3.0 * np.float_power(cos_t, 2))


def hyperfine_vector(position_nm) -> np.ndarray:
    """Secular hyperfine vector A (kHz) of a nucleus at ``position_nm``.

    Point-dipole form: the z row of the dipolar tensor between the electron
    at the origin and the nucleus,  A = C/r^3 * (z_hat - 3 cos(theta) r_hat),
    where theta is the polar angle from the defect axis.  Vanishes at the
    magic angle cos^2(theta) = 1/3 and falls off as 1/r^3.
    """
    return _hyperfine_vectors(np.array([finite_vector(position_nm, "position_nm")]))[0]


def nuclear_dipolar_coupling(position_i_nm, position_j_nm) -> float:
    """Secular dipolar coupling b_ij (kHz) between two bath nuclei.

    b_ij = C/r^3 * (1 - 3 cos^2 theta_ij) with theta_ij the angle between
    the internuclear vector and the defect axis; this multiplies the
    Ising + flip-flop pair operator in the pair Hamiltonian.
    """
    d = np.subtract([finite_vector(position_j_nm, "position_j_nm")],
                    [finite_vector(position_i_nm, "position_i_nm")])
    return float(_dipolar_couplings(d)[0])


# spins per block of the pair search: a block's tables hold 64 rows of at most N doubles
_PAIR_BLOCK = 64


def _pairs_within(positions: np.ndarray, cutoff: float) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays (i, j) of every pair i < j with |r_i - r_j| <= cutoff, sorted by (i, j).

    The rule is dx*dx + dy*dy + dz*dz <= cutoff*cutoff, summed in that order,
    so a pair exactly at the cutoff is kept.  The spins are sorted along z and
    each block of rows is compared only with the later spins within reach in z.
    """
    n = len(positions)
    if n < 2:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    order = np.argsort(positions[:, 2], kind="stable")
    pos = positions[order]
    z = pos[:, 2]
    limit = cutoff * cutoff
    # any pair that passes the test is less than cutoff * (1 + 2**-50) apart in z
    reach = z + cutoff * (1.0 + 1e-9)
    firsts, seconds = [], []
    for a in range(0, n - 1, _PAIR_BLOCK):
        b = min(a + _PAIR_BLOCK, n - 1)
        c = int(np.searchsorted(z, reach[b - 1], side="right"))
        rows, cols = pos[a:b, None, :], pos[None, a + 1:c, :]
        d = rows[..., 0] - cols[..., 0]
        sq = d * d
        d = rows[..., 1] - cols[..., 1]
        sq += d * d
        d = rows[..., 2] - cols[..., 2]
        sq += d * d
        near = sq <= limit
        near &= np.arange(a + 1, c) > np.arange(a, b)[:, None]
        i, j = np.nonzero(near)
        firsts.append(order[i + a])
        seconds.append(order[j + a + 1])
    i, j = np.concatenate(firsts), np.concatenate(seconds)
    lo, hi = np.minimum(i, j), np.maximum(i, j)
    rank = np.argsort(lo * n + hi)
    return lo[rank].astype(np.int64, copy=False), hi[rank].astype(np.int64, copy=False)


# pairs per block of the coupling pass: a block's transients take about 0.4 MiB
_COUPLING_BLOCK = 1 << 12


def sample_bath(sites: np.ndarray, config: LatticeConfig) -> BathRealization:
    """Sample 13C occupancy over ``sites`` and assemble the couplings.

    Occupancy is an independent Bernoulli draw per site at the configured
    abundance, driven by ``numpy.random.default_rng(config.seed)``; identical
    (sites, config) inputs therefore reproduce the realization bit for bit.
    The hyperfine vectors come from one array pass over the spins and the
    couplings from one over the pairs, in blocks of ``_COUPLING_BLOCK``;
    each entry is byte for byte what :func:`hyperfine_vector` or
    :func:`nuclear_dipolar_coupling` gives for that spin or pair.
    """
    sites = finite_array(sites, "lattice sites").reshape(-1, 3)
    rng = np.random.default_rng(config.seed)
    occupied = rng.random(len(sites)) < config.abundance
    positions = sites[occupied]
    hyperfine = _hyperfine_vectors(positions)

    pair_i, pair_j = _pairs_within(positions, config.pair_cutoff)
    pair_b = np.empty(pair_i.size)
    for a in range(0, pair_i.size, _COUPLING_BLOCK):
        block = slice(a, a + _COUPLING_BLOCK)
        pair_b[block] = _dipolar_couplings(positions[pair_j[block]] - positions[pair_i[block]])

    return BathRealization._from_arrays(
        positions, hyperfine, pair_i, pair_j, pair_b, GAMMA_N_13C_KHZ_PER_G, config.seed, config
    )
