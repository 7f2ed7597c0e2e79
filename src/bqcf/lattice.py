"""Periodic 1D lattice: fields, difference operators, norms.

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
    u3_ell    = (u''_{ell+1} - u''_ell) / a        forward of second
    u4_ell    = (u3_ell - u3_{ell-1}) / a          backward of third

The stability algebra downstream depends on these exact stencils, so
symmetric alternatives are deliberately not substituted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ChainConfig:
    """Periodic chain descriptor.

    M is the half atom count (the chain has 2M atoms), N the interaction
    range in neighbors.  N must stay strictly below M so that the 2N + 1
    band offsets -N..N of an operator are distinct modulo 2M.
    """

    M: int
    N: int = 2

    def __post_init__(self):
        if int(self.M) != self.M or self.M < 2:
            raise ValueError(f"M must be an integer >= 2, got {self.M}")
        if int(self.N) != self.N or not 1 <= self.N < self.M:
            raise ValueError(f"N must satisfy 1 <= N < M, got N={self.N}, M={self.M}")

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

    `values[p]` holds the sample at logical index ell = p - M + 1;
    `at(ell)` accepts any integer index and wraps around.  Fields are
    treated as immutable once constructed.
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

    def at(self, ell):
        """Value(s) at logical index ell, for any integer ell (wraps)."""
        p = (np.asarray(ell) + self.config.M - 1) % self.config.n_atoms
        return self.values[p]

    def shifted(self, k: int) -> np.ndarray:
        """Raw array of u_{ell+k} in physical order."""
        return np.roll(self.values, -k)

    def __len__(self) -> int:
        return self.config.n_atoms


def forward_diff(u: PeriodicField) -> PeriodicField:
    """u'_ell = (u_{ell+1} - u_ell)/a with periodic wraparound."""
    v = u.values
    return PeriodicField(u.config, (np.roll(v, -1) - v) * u.config.M)


def backward_diff(u: PeriodicField) -> PeriodicField:
    """(u_ell - u_{ell-1})/a with periodic wraparound."""
    v = u.values
    return PeriodicField(u.config, (v - np.roll(v, 1)) * u.config.M)


def higher_diff(u: PeriodicField, order: int) -> PeriodicField:
    """Iterated difference of the given order (2, 3 or 4).

    Order 2 is the backward difference of the forward difference (the
    centered second difference), order 3 the forward difference of the
    second, order 4 the backward difference of the third.
    """
    if order not in (2, 3, 4):
        raise ValueError(f"order must be 2, 3 or 4, got {order}")
    d = backward_diff(forward_diff(u))
    if order == 2:
        return d
    d = forward_diff(d)
    if order == 3:
        return d
    return backward_diff(d)


def _require_same_config(u: PeriodicField, w: PeriodicField):
    if u.config != w.config:
        raise ValueError("fields must share a ChainConfig")


def inner(u: PeriodicField, w: PeriodicField) -> float:
    """Weighted inner product sum_ell u_ell w_ell a."""
    _require_same_config(u, w)
    return float(np.dot(u.values, w.values) * u.config.a)


def l2_norm(u: PeriodicField) -> float:
    """sqrt(sum_ell u_ell^2 a)."""
    return float(np.sqrt(np.dot(u.values, u.values) * u.config.a))


def linf_norm(u: PeriodicField) -> float:
    return float(np.max(np.abs(u.values)))


def h1_seminorm(u: PeriodicField) -> float:
    """l2 norm of the forward difference."""
    return l2_norm(forward_diff(u))


def check_summation_by_parts(u: PeriodicField, v: PeriodicField) -> float:
    """Residual of the periodic summation-by-parts identity.

    Returns |sum_ell u_ell (v_ell - v_{ell-1}) + sum_ell (u_ell - u_{ell-1}) v_{ell-1}|
    over the full periodic index set.  For exact arithmetic this is zero;
    in floats it stays at machine-roundoff scale,
    <= 1e-12 * (linf(u) * linf(v) * 2M).
    """
    _require_same_config(u, v)
    uu, vv = u.values, v.values
    vm1 = np.roll(vv, 1)
    s1 = np.sum(uu * (vv - vm1))
    s2 = np.sum((uu - np.roll(uu, 1)) * vm1)
    return float(abs(s1 + s2))
