"""Force operators and energies for the periodic chain.

Three linearized force operators act on periodic displacements, all
linearized about the uniformly stretched state y = gamma*x (so every
stencil coefficient is phi_xx(k*gamma); gamma = 1 recovers the
reference linearization).  They are one blend,

    F_ell = -sum_k phi_xx(k g) [ w_{ell,k} (u_{ell+k} - 2 u_ell + u_{ell-k})
                   + (1 - w_{ell,k}) k^2 (u_{ell+1} - 2 u_ell + u_{ell-1}) ] / a^2,

with the pair weight w_{ell,k} = (beta_{ell-k} + 2 beta_ell + beta_{ell+k}) / 4
for the blended (B-QCF) operator.  The atomistic and continuum operators
are the blend at beta = 1 and beta = 0, where w = 1 and w = 0.

With this sign convention the quadratic form <F u, u> is positive for
stable configurations, e.g. <F u, u> = phi_xx(1) |u'|^2 for N = 1.

An operator is one (2N+1, 2M) array of periodic diagonals, bands[N + o],
and is applied in the row-difference form

    (A u)_ell = sum_{o != 0} d_o[ell] (u_{ell+o} - u_ell) + rowsum[ell] u_ell,

with the row sum taken over the off-diagonal pairs d_{-k} + d_k, k = 1..N,
then the diagonal.  Assembly sets the diagonal to minus that off-diagonal
sum, so the row sums of every assembled operator are exact zeros and
constant fields are annihilated exactly in floating point.  Every band is
affine in the N coefficients phi_xx(k gamma).

An operator is always the whole sum over k = 1..N.  An assembled one
carries its recipe: the blend it read and c_k = phi_xx(k gamma) for
k = 1..N, evaluated at assembly.  Its bands are built from the recipe
on first access, so a caller that only needs the coefficients (a sweep's
stretches, see stability._Eigencurve) never pays for them.

The quadratic energies of the linearized atomistic and continuum models
live here too.

Operators are immutable once made and safe to share across threads:
the recipe is fixed at assembly, raw bands are kept as a read-only copy,
and the row sums and the symmetric part are kept once built.  Concurrent
first accesses at worst build the same array twice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType

import numpy as np

from .blending import pair_weight_field
from .lattice import ChainConfig, forward_diff
from .potential import Morse


def _row_sums(bands: np.ndarray) -> np.ndarray:
    """Row sums in apply order: d_{-k} + d_k for k = 1..N, then the diagonal.

    Summing the +-k pair per neighbor gives, on the atomistic and continuum
    rows, the same bits as a diagonal accumulated neighbor by neighbor.
    """
    N = bands.shape[0] // 2
    s = np.zeros(bands.shape[1])
    for k in range(1, N + 1):
        s = s + (bands[N - k] + bands[N + k])
    return s + bands[N]


@dataclass(frozen=True, eq=False)
class OperatorRecipe:
    """How an operator was assembled: the blend it read (2M site values)
    and the coefficients c_k = phi_xx(k gamma) for k = 1..N, in order."""

    beta: np.ndarray
    coefficients: tuple


def _finite(bands: np.ndarray) -> np.ndarray:
    if not np.isfinite(bands).all():
        raise FloatingPointError("operator bands hold a NaN or infinity")
    return bands


def _recipe_bands(config: ChainConfig, recipe: OperatorRecipe) -> np.ndarray:
    """Each k's stencil added, in order, into one band array, whose
    diagonal is then set to minus the off-diagonal sum in apply order, so
    that the row sums are exact zeros."""
    N = config.N
    inv_a2 = float(config.M) ** 2
    bands = np.zeros((2 * N + 1, config.n_atoms))
    for k, c in enumerate(recipe.coefficients, 1):
        w = pair_weight_field(recipe.beta, k)
        bands[[N - k, N + k]] += -(w * c) * inv_a2
        bands[[N - 1, N + 1]] += -((1.0 - w) * (c * k * k)) * inv_a2
    bands[N] = -_row_sums(bands)
    return _finite(bands)


class BandedPeriodicOperator:
    """Periodic (2N+1)-banded matrix held as one band array.

    bands[N + o][p] is the entry coupling row p to column (p + o) mod 2M,
    for the offsets o = -N..N of the config's interaction range.  It is
    made from raw bands, which it copies, or from a recipe (as assembly
    does), in which case the bands are built on first access.  Either way
    the bands are read-only, so they cannot drift from the recipe or from
    the kept symmetric part.  recipe is None for raw bands.  Bands with a
    NaN or infinity raise FloatingPointError when made, before any solve.
    """

    def __init__(self, config: ChainConfig, bands=None, *, recipe: OperatorRecipe | None = None):
        if (bands is None) == (recipe is None):
            raise ValueError("give the operator either its bands or its recipe")
        self.config = config
        self.recipe = recipe
        self._bands = self._sums = self._sym = None
        if bands is not None:
            bands = np.array(bands, dtype=float)
            shape = (2 * config.N + 1, config.n_atoms)
            if bands.shape != shape:
                raise ValueError(f"bands have shape {bands.shape}, expected {shape}")
            bands.setflags(write=False)
            self._bands = _finite(bands)

    @property
    def bands(self) -> np.ndarray:
        if self._bands is None:
            bands = _recipe_bands(self.config, self.recipe)
            bands.setflags(write=False)  # the sweep reads the recipe, not the bands
            self._bands = bands
        return self._bands

    @property
    def diagonals(self):
        """Read-only mapping from offset o to its diagonal (a view of bands)."""
        N, bands = self.config.N, self.bands
        return MappingProxyType({o: bands[N + o] for o in range(-N, N + 1)})

    def apply_values(self, v: np.ndarray) -> np.ndarray:
        """Matrix-vector product A v on a field, in the row-difference form,
        which annihilates constants exactly when the row sums vanish.
        v_{p+o} is read as a view of one periodic extension of v; the row
        sums are kept, read-only, from the first call."""
        N, n = self.config.N, self.config.n_atoms
        if v.shape != (n,):
            raise ValueError(f"field has shape {v.shape}, expected ({n},)")
        bands = self.bands
        if self._sums is None:
            sums = _row_sums(bands)
            sums.setflags(write=False)
            self._sums = sums
        ext = np.concatenate((v[n - N :], v, v[:N]))
        out = self._sums * v
        for o in range(-N, N + 1):
            if o != 0:
                diff = ext[N + o : N + o + n] - v
                diff *= bands[N + o]
                out += diff
        return out

    def symmetric_part(self) -> "BandedPeriodicOperator":
        """(A + A^T)/2, built on first call and kept: entry p of band o of
        A^T is entry p + o of band -o of A, read from one periodic
        extension of the bands."""
        if self._sym is None:
            N, n, bands = self.config.N, self.config.n_atoms, self.bands
            ext = np.concatenate((bands[:, n - N :], bands, bands[:, :N]), axis=1)
            t = np.array([ext[N - o, N + o : N + o + n] for o in range(-N, N + 1)])
            self._sym = BandedPeriodicOperator(self.config, 0.5 * (bands + t))
        return self._sym

    def to_sparse(self):
        """CSR matrix (scipy) with periodic wraparound."""
        from scipy.sparse import csr_matrix

        N, n = self.config.N, self.config.n_atoms
        rows = np.tile(np.arange(n), 2 * N + 1)
        cols = (rows + np.repeat(np.arange(-N, N + 1), n)) % n
        return csr_matrix((self.bands.ravel(), (rows, cols)), shape=(n, n))


@lru_cache(maxsize=16)
def _neighbors(N: int) -> np.ndarray:
    """k = 1..N, read-only: every assembly scales it by gamma."""
    k = np.arange(1.0, N + 1.0)
    k.setflags(write=False)
    return k


def assemble_linear(
    which: str,
    pot: Morse,
    config: ChainConfig,
    beta: np.ndarray | None = None,
    gamma: float = 1.0,
) -> BandedPeriodicOperator:
    """Assemble the full linearized force operator (sum over neighbors).

    which: 'atomistic' | 'continuum' | 'bqcf'.  'bqcf' reads beta, the
    blend's 2M site values; 'atomistic' and 'continuum' ignore it and read
    the constant blend beta = 1 or beta = 0.  The coefficients
    c_k = phi_xx(k gamma) are evaluated now, by one phi_xx call on the N
    stretched distances, and the bands on first access.
    """
    if not (math.isfinite(gamma) and gamma > 0):
        raise ValueError(f"gamma must be positive and finite, got {gamma}")
    if which not in ("atomistic", "continuum", "bqcf"):
        raise ValueError(f"unknown operator kind {which!r}")
    if which == "bqcf":
        if beta is None:
            raise ValueError("bqcf assembly needs a sampled blending field")
        beta = np.asarray(beta, dtype=float)
        if beta.shape != (config.n_atoms,):
            raise ValueError(f"beta has shape {beta.shape}, expected ({config.n_atoms},)")
    else:
        beta = np.full(config.n_atoms, float(which == "atomistic"))
    coefficients = tuple(pot.phi_xx(_neighbors(config.N) * gamma).tolist())
    return BandedPeriodicOperator(config, recipe=OperatorRecipe(beta, coefficients))


def energy_linearized(
    u: np.ndarray,
    pot: Morse,
    config: ChainConfig,
    which: str,
    gamma: float = 1.0,
) -> float:
    """Quadratic energy of the linearized atomistic or continuum model.

    atomistic:  sum_ell sum_k (a/2) ((u_{ell+k}-u_ell)/a)^2 phi_xx(k g)
    continuum:  sum_ell sum_k (a/2) k^2 (u'_ell)^2 phi_xx(k g)
    (both folded over +-k).
    """
    u = np.asarray(u, dtype=float)
    if u.shape != (config.n_atoms,):
        raise ValueError(f"u has shape {u.shape}, expected ({config.n_atoms},)")
    a = config.a
    if which == "atomistic":
        total = 0.0
        for k in range(1, config.N + 1):
            d = (np.roll(u, -k) - u) * config.M
            total += 0.5 * a * float(pot.phi_xx(k * gamma)) * float(np.sum(d * d))
        return total
    if which == "continuum":
        du = forward_diff(u, config)
        coef = sum(
            k * k * float(pot.phi_xx(k * gamma)) for k in range(1, config.N + 1)
        )
        return 0.5 * a * coef * float(np.sum(du * du))
    raise ValueError(f"which must be 'atomistic' or 'continuum', got {which!r}")
