"""Dense oracles for the sparse coercivity paths.

The pencil (S, G) of an operator is projected onto an orthonormal basis
of the mean-zero fields and solved with a dense generalized eigensolver.
The cost is cubic in 2M, so these are for small chains only.
"""

import numpy as np
from scipy.linalg import eigh, null_space

from bqcf.stability import h1_gram_sparse


def dense_eigenvalues(op):
    """Every eigenvalue of the pencil (S, G) on mean-zero fields, ascending."""
    n = op.config.n_atoms
    A = op.to_dense()
    S = op.config.a * 0.5 * (A + A.T)
    G = h1_gram_sparse(op.config).toarray()
    Z = null_space(np.ones((1, n)))
    return eigh(Z.T @ S @ Z, Z.T @ G @ Z, eigvals_only=True)


def dense_cmin(op):
    """c_min: the smallest eigenvalue of the pencil on mean-zero fields."""
    return float(dense_eigenvalues(op)[0])


def dense_negative_count(op):
    """Negative eigenvalues of the pencil on mean-zero fields."""
    return int(np.count_nonzero(dense_eigenvalues(op) < 0.0))
