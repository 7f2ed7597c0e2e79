"""Slow oracles for the fast paths.

The pencil (S, G) of an operator is projected onto an orthonormal basis
of the mean-zero fields and solved with a dense generalized eigensolver,
and the bordered matrices are built densely from to_dense().  The cost
is cubic in 2M, so these are for small chains only.  G and the pair
weights are written out here from their definitions, not taken from the
package.
"""

import numpy as np
from scipy.linalg import eigh, null_space


def pair_weight(beta, ell, k):
    """Pair weight (beta_{ell-k} + 2 beta_ell + beta_{ell+k}) / 4 at one site."""
    return float((beta.at(ell - k) + 2.0 * beta.at(ell) + beta.at(ell + k)) / 4.0)


def dense_gram(config):
    """G = a D^T D for the periodic forward difference D, densely."""
    n = config.n_atoms
    D = (np.roll(np.eye(n), 1, axis=1) - np.eye(n)) / config.a
    return config.a * D.T @ D


def dense_sym(op):
    """S = a (A + A^T) / 2, densely."""
    A = op.to_dense()
    return op.config.a * 0.5 * (A + A.T)


def dense_bordered(B):
    """[[B, e], [e^T, 0]] with e = 1/sqrt(n), densely."""
    n = B.shape[0]
    K = np.zeros((n + 1, n + 1))
    K[:n, :n] = B
    K[:n, n] = K[n, :n] = 1.0 / np.sqrt(n)
    return K


def dense_eigenvalues(op):
    """Every eigenvalue of the pencil (S, G) on mean-zero fields, ascending."""
    Z = null_space(np.ones((1, op.config.n_atoms)))
    return eigh(Z.T @ dense_sym(op) @ Z, Z.T @ dense_gram(op.config) @ Z, eigvals_only=True)


def dense_cmin(op):
    """c_min: the smallest eigenvalue of the pencil on mean-zero fields."""
    return float(dense_eigenvalues(op)[0])


def dense_negative_count(op):
    """Negative eigenvalues of the pencil on mean-zero fields."""
    return int(np.count_nonzero(dense_eigenvalues(op) < 0.0))


def dense_critical_strain(build, dgamma, gamma_max, coarse):
    """Coarse scan plus bisection with every stretch decided by the dense
    negative count.  Returns the answer (None when no loss is bracketed)
    and, in evaluation order, each stretch's dense pencil eigenvalues."""
    evaluated = {}

    def stable(i):
        gamma = 1.0 + i * dgamma
        evaluated[gamma] = dense_eigenvalues(build(gamma))
        return np.count_nonzero(evaluated[gamma] < 0.0) == 0

    assert stable(0)
    step = max(1, int(round(coarse / dgamma)))
    lo, hi = 0, None
    for i in range(step, int(np.floor((gamma_max - 1.0) / dgamma)) + 1, step):
        if not stable(i):
            hi = i
            break
        lo = i
    if hi is None:
        return None, evaluated
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if stable(mid):
            lo = mid
        else:
            hi = mid
    return 1.0 + lo * dgamma, evaluated
