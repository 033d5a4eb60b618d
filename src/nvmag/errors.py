"""Exception taxonomy.

Two families matter to callers (and to the CLI exit codes): configuration
problems the user can fix by editing inputs, and physics-constraint
violations raised when a requested computation is outside the model's
validity or the data cannot support the requested extraction.
"""

from __future__ import annotations


class ConfigError(ValueError):
    """Invalid configuration or malformed input (CLI exit code 2)."""


class PhysicsError(RuntimeError):
    """A physics-level constraint was violated (CLI exit code 3)."""


class DomainError(PhysicsError):
    """Arguments outside the mathematical domain of an operation."""


class GridTooCoarseError(PhysicsError):
    """Echo time grid too coarse to resolve the nuclear Larmor period."""


class NoRevivalError(PhysicsError):
    """Fewer than two coherence peaks: revival spacing is undefined."""


class InsufficientEnvelopeError(PhysicsError):
    """Too few revival peaks to fit a decay envelope."""


class CrossingNotFoundError(PhysicsError):
    """The first coherence peak never crosses the 1/e threshold."""


class ShapeError(ConfigError):
    """Mismatched array shapes or incompatible grids."""
