"""Physical constants and the unit system shared by every module.

Default units
-------------
distance   nanometer (lattice constants are conventionally quoted in Angstrom
           and converted on input)
time       millisecond
field      Gauss
frequency  kHz, ordinary (cycles per ms); factors of 2*pi appear only inside
           propagators and trigonometric phases

With these choices ``gamma * B`` is directly a frequency in kHz and
``frequency * time`` is a dimensionless number of cycles.
"""

from __future__ import annotations

# Gyromagnetic ratios (magnitude convention: both signs dropped, orientations
# are carried by the geometry instead).
GAMMA_N_13C_KHZ_PER_G = 1.0705      # 13C nuclear spin
GAMMA_E_MHZ_PER_G = 2.8025          # NV electron spin
GAMMA_E_GHZ_PER_G = GAMMA_E_MHZ_PER_G * 1e-3
GAMMA_E_KHZ_PER_G = GAMMA_E_MHZ_PER_G * 1e3

ZERO_FIELD_SPLITTING_GHZ = 2.87     # NV ground-state zero-field splitting

DIAMOND_LATTICE_CONSTANT_A = 3.567  # conventional cubic cell, Angstrom
ANGSTROM_TO_NM = 0.1

# (mu0 / 4 pi) * h expressed in kHz * nm^3 / (kHz/G)^2.  Multiplying by two
# gyromagnetic ratios in kHz/G and dividing by r^3 in nm^3 gives a dipolar
# coupling in kHz:
#   1e-7 [T m / A ...] * 6.62607015e-34 [J s] * (1e7)^2 [unit conversion of
#   each ratio from kHz/G to Hz/T] * 1e27 [m^3 -> nm^3] * 1e-3 [Hz -> kHz]
DIPOLE_COUPLING_KHZ_NM3 = 6.62607015e-3

# Electron-nuclear and nuclear-nuclear point-dipole prefactors C, such that
# C / r^3 is a coupling in kHz.
HYPERFINE_PREFACTOR_KHZ_NM3 = DIPOLE_COUPLING_KHZ_NM3 * GAMMA_E_KHZ_PER_G * GAMMA_N_13C_KHZ_PER_G
NUCLEAR_DIPOLE_PREFACTOR_KHZ_NM3 = (
    DIPOLE_COUPLING_KHZ_NM3 * GAMMA_N_13C_KHZ_PER_G * GAMMA_N_13C_KHZ_PER_G
)

# Revival-law calibration constant (ms * G): T_revival = ALPHA / B.  The
# fitted literature value; 1/GAMMA_N_13C = 0.9341 ms*G is the bare Larmor
# prediction it should stay close to.
ALPHA_MS_G = 0.9366

READOUT_CONTRAST_DEFAULT = 0.3

NATURAL_ABUNDANCE_13C = 0.011

# Reporting-boundary conversions.
G_TO_UT = 100.0                     # 1 Gauss = 100 microtesla
SQRT_MS_TO_SQRT_S = 0.001 ** 0.5    # eta in G*sqrt(ms) -> G/sqrt(Hz)
