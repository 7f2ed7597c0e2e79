"""Force operators and energies for the periodic chain.

Three linearized force operators act on periodic displacements, all
linearized about the uniformly stretched state y = gamma*x (so every
stencil coefficient is phi_xx(k*gamma); gamma = 1 recovers the
reference linearization).  They are one blend,

    F_ell = -sum_k phi_xx(k g) [ w_{ell,k} (u_{ell+k} - 2 u_ell + u_{ell-k})
                   + (1 - w_{ell,k}) k^2 (u_{ell+1} - 2 u_ell + u_{ell-1}) ] / a^2,

with the pair weight w_{ell,k} = (beta_{ell-k} + 2 beta_ell + beta_{ell+k}) / 4
for the blended (B-QCF) operator, w = 1 for the atomistic operator and
w = 0 for the continuum operator.

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

The nonlinear atomistic force and the energy functionals (nonlinear
atomistic, linearized atomistic/continuum) live here too.

Operators are immutable once assembled and safe to share across
threads; assembly and application have no shared mutable state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .blending import pair_weight_field
from .lattice import ChainConfig, PeriodicField, forward_diff, inner
from .potential import PairPotential


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


@dataclass
class BandedPeriodicOperator:
    """Periodic (2N+1)-banded matrix held as one band array.

    bands[N + o][p] is the entry coupling row p to column (p + o) mod 2M,
    for the offsets o = -N..N of the config's interaction range.
    """

    config: ChainConfig
    bands: np.ndarray

    def __post_init__(self):
        self.bands = np.asarray(self.bands, dtype=float)
        shape = (2 * self.config.N + 1, self.config.n_atoms)
        if self.bands.shape != shape:
            raise ValueError(f"bands have shape {self.bands.shape}, expected {shape}")

    @property
    def diagonals(self):
        """Read-only mapping from offset o to its diagonal (a view of bands)."""
        N = self.config.N
        return MappingProxyType({o: self.bands[N + o] for o in range(-N, N + 1)})

    def apply_values(self, v: np.ndarray) -> np.ndarray:
        """Matrix-vector product on a raw value array, in the row-difference
        form, which annihilates constants exactly when the row sums vanish."""
        N = self.config.N
        out = _row_sums(self.bands) * v
        for o in range(-N, N + 1):
            if o != 0:
                out = out + self.bands[N + o] * (np.roll(v, -o) - v)
        return out

    def apply(self, u: PeriodicField) -> PeriodicField:
        if u.config != self.config:
            raise ValueError("field and operator configs differ")
        return PeriodicField(self.config, self.apply_values(u.values))

    def to_dense(self) -> np.ndarray:
        n = self.config.n_atoms
        A = np.zeros((n, n))
        idx = np.arange(n)
        for o, d in self.diagonals.items():
            A[idx, (idx + o) % n] += d
        return A

    def symmetric_part(self) -> "BandedPeriodicOperator":
        """(A + A^T)/2: band o of A^T is band -o of A rolled by -o."""
        N = self.config.N
        t = np.array([np.roll(self.bands[N - o], -o) for o in range(-N, N + 1)])
        return BandedPeriodicOperator(self.config, 0.5 * (self.bands + t))

    def to_sparse(self):
        """CSR matrix (scipy) with periodic wraparound."""
        from scipy.sparse import csr_matrix

        N, n = self.config.N, self.config.n_atoms
        rows = np.tile(np.arange(n), 2 * N + 1)
        cols = (rows + np.repeat(np.arange(-N, N + 1), n)) % n
        return csr_matrix((self.bands.ravel(), (rows, cols)), shape=(n, n))


def _assemble(which, pot, config, beta, gamma, ks) -> BandedPeriodicOperator:
    """Operator of the neighbors k in ks: each k's stencil is added, in
    order, into one band array, whose diagonal is then set to minus the
    off-diagonal sum in apply order, so that the row sums are exact zeros."""
    if not (math.isfinite(gamma) and gamma > 0):
        raise ValueError(f"gamma must be positive and finite, got {gamma}")
    if which not in ("atomistic", "continuum", "bqcf"):
        raise ValueError(f"unknown operator kind {which!r}")
    if which == "bqcf":
        if beta is None:
            raise ValueError("bqcf assembly needs a sampled blending field")
        if beta.config != config:
            raise ValueError("beta sampled on a different config")
    N = config.N
    inv_a2 = float(config.M) ** 2
    bands = np.zeros((2 * N + 1, config.n_atoms))
    for k in ks:
        c = float(pot.phi_xx(k * gamma))
        w = pair_weight_field(beta, k) if which == "bqcf" else float(which == "atomistic")
        bands[[N - k, N + k]] += -(w * c) * inv_a2
        bands[[N - 1, N + 1]] += -((1.0 - w) * (c * k * k)) * inv_a2
    bands[N] = -_row_sums(bands)
    return BandedPeriodicOperator(config, bands)


def per_neighbor_operators(
    which: str,
    pot: PairPotential,
    config: ChainConfig,
    beta: PeriodicField | None = None,
    gamma: float = 1.0,
) -> list:
    """One operator per neighbor index k = 1..N; their sum is the full model.

    which: 'atomistic' | 'continuum' | 'bqcf'.  beta is only consulted for
    'bqcf'.  All coefficients are evaluated at the stretched bond length
    k*gamma.
    """
    return [_assemble(which, pot, config, beta, gamma, [k]) for k in range(1, config.N + 1)]


def assemble_linear(
    which: str,
    pot: PairPotential,
    config: ChainConfig,
    beta: PeriodicField | None = None,
    gamma: float = 1.0,
) -> BandedPeriodicOperator:
    """Assemble the full linearized force operator (sum over neighbors)."""
    return _assemble(which, pot, config, beta, gamma, range(1, config.N + 1))


def bilinear(op: BandedPeriodicOperator, u: PeriodicField, v: PeriodicField) -> float:
    """<A u, v> in the a-weighted inner product."""
    return inner(op.apply(u), v)


def _stretched_bonds(u: PeriodicField, k: int, gamma: float) -> np.ndarray:
    """Signed bond arguments gamma*k + (u_{ell+k} - u_ell)/a for one k."""
    v = u.values
    return gamma * k + (np.roll(v, -k) - v) * u.config.M


def _check_bonds_positive(u: PeriodicField, config: ChainConfig, gamma: float) -> None:
    for k in range(1, config.N + 1):
        b = _stretched_bonds(u, k, gamma)
        if np.any(b <= 0.0):
            raise ValueError(
                f"non-physical configuration: bond of neighbor {k} crosses (min {b.min():.3g})"
            )


def energy_atomistic(
    u: PeriodicField, pot: PairPotential, config: ChainConfig, gamma: float = 1.0
) -> float:
    """Total interaction energy of the deformation y = gamma*x + u.

    E = sum_ell sum_{k=-N..N, k!=0} (a/2) phi((y_{ell+k} - y_ell)/a),
    where bonds crossing the periodic seam use the periodic image of u
    (so the bond argument is gamma*k + (u_{ell+k} - u_ell)/a).  The
    potential is even, so the k < 0 half equals the k > 0 half and the
    sum folds to sum_ell sum_{k=1..N} a phi(bond).
    """
    _check_bonds_positive(u, config, gamma)
    a = config.a
    total = 0.0
    for k in range(1, config.N + 1):
        total += float(np.sum(pot.phi(_stretched_bonds(u, k, gamma)))) * a
    return total


def energy_linearized(
    u: PeriodicField,
    pot: PairPotential,
    config: ChainConfig,
    which: str,
    gamma: float = 1.0,
) -> float:
    """Quadratic energy of the linearized atomistic or continuum model.

    atomistic:  sum_ell sum_k (a/2) ((u_{ell+k}-u_ell)/a)^2 phi_xx(k g)
    continuum:  sum_ell sum_k (a/2) k^2 (u'_ell)^2 phi_xx(k g)
    (both folded over +-k).
    """
    a = config.a
    if which == "atomistic":
        total = 0.0
        for k in range(1, config.N + 1):
            d = (u.shifted(k) - u.values) * config.M
            total += 0.5 * a * float(pot.phi_xx(k * gamma)) * float(np.sum(d * d))
        return total
    if which == "continuum":
        du = forward_diff(u).values
        coef = sum(
            k * k * float(pot.phi_xx(k * gamma)) for k in range(1, config.N + 1)
        )
        return 0.5 * a * coef * float(np.sum(du * du))
    raise ValueError(f"which must be 'atomistic' or 'continuum', got {which!r}")


def force_nonlinear_atomistic(
    u: PeriodicField, pot: PairPotential, config: ChainConfig, gamma: float = 1.0
) -> PeriodicField:
    """Nonlinear atomistic force at the deformation y = gamma*x + u.

    F_ell = -sum_{k=-N..N, k!=0} (1/2a) [phi_x(g k + (u_{ell+k}-u_ell)/a)
                                         - phi_x(g k + (u_ell-u_{ell-k})/a)],
    which equals (1/a) times the gradient of energy_atomistic.  The odd
    extension of phi_x supplies the k < 0 terms.
    """
    _check_bonds_positive(u, config, gamma)
    v = u.values
    M = config.M
    out = np.zeros(config.n_atoms)
    half_inv_a = 0.5 * M
    for k in list(range(1, config.N + 1)) + [-k for k in range(1, config.N + 1)]:
        fwd = pot.phi_x(gamma * k + (np.roll(v, -k) - v) * M)
        bwd = pot.phi_x(gamma * k + (v - np.roll(v, k)) * M)
        out -= half_inv_a * (fwd - bwd)
    return PeriodicField(config, out)
