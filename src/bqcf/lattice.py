"""Periodic 1D lattice: the chain, its fields and the forward difference.

The chain has 2M atoms on the periodic reference domain (-1, 1] with
spacing a = 1/M.  Atom ell sits at x_ell = a*ell for the logical index
ell = -M+1, ..., M.  Fields are stored in physical order
p = ell + M - 1, so periodic wraparound is plain modular arithmetic on
physical indices.  All fields are float64; stretch sweeps resolved to
1e-5 and O(a^2) consistency checks at M = 4000 need the full 52-bit
mantissa.

Difference stencils (a is the lattice spacing):

    u'_ell    = (u_{ell+1} - u_ell) / a            forward
    u''_ell   = (u'_ell - u'_{ell-1}) / a          backward of forward

The stability algebra downstream depends on these exact stencils, so
symmetric alternatives are deliberately not substituted.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

import numpy as np


@dataclass(frozen=True)
class ChainConfig:
    """Periodic chain descriptor.

    M is the half atom count (the chain has 2M atoms), N the interaction
    range in neighbors; both must be integers (numpy's included), not
    integer-valued floats.  N must stay strictly below M so that the 2N + 1
    band offsets -N..N of an operator are distinct modulo 2M.
    """

    M: int
    N: int = 2

    def __post_init__(self):
        if not isinstance(self.M, Integral) or self.M < 2:
            raise ValueError(f"M must be an integer >= 2, got {self.M}")
        if not isinstance(self.N, Integral) or not 1 <= self.N < self.M:
            raise ValueError(f"N must be an integer with 1 <= N < M, got N={self.N}, M={self.M}")

    @property
    def a(self) -> float:
        """Lattice spacing a = 1/M."""
        return 1.0 / self.M

    @property
    def n_atoms(self) -> int:
        return 2 * self.M

    def logical_indices(self) -> np.ndarray:
        """Logical indices ell = -M+1, ..., M in physical storage order."""
        return np.arange(-self.M + 1, self.M + 1)

    def positions(self) -> np.ndarray:
        """Reference coordinates x_ell = a*ell in physical storage order."""
        return self.logical_indices() / self.M


class PeriodicField:
    """A 2M-periodic real field sampled at the lattice sites.

    `values[p]` holds the sample at logical index ell = p - M + 1.
    Fields are treated as immutable once constructed.
    """

    __slots__ = ("config", "values")

    def __init__(self, config: ChainConfig, values):
        values = np.asarray(values, dtype=float)
        if values.shape != (config.n_atoms,):
            raise ValueError(
                f"expected {config.n_atoms} samples for M={config.M}, got shape {values.shape}"
            )
        self.config = config
        self.values = values

    @classmethod
    def zeros(cls, config: ChainConfig) -> "PeriodicField":
        return cls(config, np.zeros(config.n_atoms))

    @classmethod
    def from_function(cls, config: ChainConfig, f) -> "PeriodicField":
        """Sample a callable of x on the lattice (f should be 2-periodic)."""
        return cls(config, f(config.positions()))


def forward_diff(u: PeriodicField) -> PeriodicField:
    """u'_ell = (u_{ell+1} - u_ell)/a with periodic wraparound."""
    v = u.values
    return PeriodicField(u.config, (np.roll(v, -1) - v) * u.config.M)
