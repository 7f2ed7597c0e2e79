"""The Morse pair potential.

    phi(r) = D_e * (1 - exp(-alpha (r - r_e)))^2

with well depth D_e, width parameter alpha and equilibrium distance r_e
(default 1 so the reference lattice is the energy minimum).  It is the
one potential bqcf ships, and Morse holds the one copy of its formulas.

The potential is even in the signed bond length, phi(r) = phi(|r|), so
the first derivative extends oddly and the second evenly to negative
arguments (needed when summing interactions over left neighbors).  The
stability theory requires a stiff nearest bond and a softening tail:

    phi_xx(1) > 0   and   phi_xx(k) <= 0 for integer k >= 2,

which is checked at construction for k up to K_MAX.

The linearized operators read only phi_xx.  phi and phi_x define the
nonlinear atomistic energy and force, which the tests keep as the model
those operators linearize.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

K_MAX = 10  # the tail condition is checked for k = 2..K_MAX


@dataclass(frozen=True)
class MorseParams:
    D_e: float = 3.0
    alpha: float = 3.0
    r_e: float = 1.0

    def __post_init__(self):
        if not all(math.isfinite(x) and x > 0 for x in (self.D_e, self.alpha, self.r_e)):
            raise ValueError(f"Morse parameters must be positive and finite, got {self}")


class Morse:
    """Morse potential with first and second derivatives, in the signed
    bond length r; each rejects r = 0."""

    def __init__(self, params: MorseParams = MorseParams()):
        self.params = params
        self.check_assumptions()

    def _exp_term(self, r):
        """q = exp(-alpha (|r| - r_e)), for r != 0."""
        r = np.asarray(r, dtype=float)
        if np.count_nonzero(r) < r.size:
            raise ValueError("pair potential is undefined at r = 0")
        p = self.params
        return np.exp(-p.alpha * (np.abs(r) - p.r_e))

    def phi(self, r):
        """phi(|r|); r may be negative but not zero."""
        q = self._exp_term(r)
        return self.params.D_e * (1.0 - q) ** 2

    def phi_x(self, r):
        """Odd extension sign(r) * phi'(|r|)."""
        p, q = self.params, self._exp_term(r)
        return np.sign(r) * (2.0 * p.D_e * p.alpha * q * (1.0 - q))

    def phi_xx(self, r):
        """Even extension phi''(|r|)."""
        p, q = self.params, self._exp_term(r)
        return 2.0 * p.D_e * p.alpha**2 * q * (2.0 * q - 1.0)

    def check_assumptions(self):
        """Verify 0 < phi_xx(1) < inf and phi_xx(k) <= 0 for k = 2..K_MAX."""
        try:
            c1 = float(self.phi_xx(np.float64(1.0)))
        except OverflowError:  # Python float powers raise instead of giving inf
            c1 = math.inf
        if not (math.isfinite(c1) and c1 > 0):
            raise ValueError(f"potential violates 0 < phi_xx(1) < inf (phi_xx(1) = {c1})")
        ks = np.arange(2, K_MAX + 1, dtype=float)
        bad = ks[self.phi_xx(ks) > 0]
        if bad.size:
            raise ValueError(f"potential violates phi_xx(k) <= 0 at k = {bad}")


# kept only because perfbench/layertrace.py traces phi_xx under this name;
# the benchmark's re-base moves the tracer to Morse and deletes this alias
PairPotential = Morse
