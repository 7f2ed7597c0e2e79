"""Slow oracles for the fast paths.

The pencil (S, G) of an operator is projected onto an orthonormal basis
of the mean-zero fields and solved with a dense generalized eigensolver,
and the bordered matrices are built densely from to_dense().  The cost
is cubic in 2M, so these are for small chains only.  G and the pair
weights are written out here from their definitions, not taken from the
package.  reference_sweep keeps every record of a sweep to check its
single-sign-change warnings against.
"""

import bisect

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


def reference_sweep(decide, dgamma, gamma_max, coarse):
    """Coarse scan plus bisection that checks the single sign change by
    keeping every evaluated record: each new one is compared with its
    nearest evaluated neighbours that carry the same measure, found by
    bisecting the ascending grid units of those records.

    decide(i) returns the StabilityRecord of grid stretch i.  Returns the
    answer (the critical stretch, or the reason a sweep raises with), the
    warning messages in the order they are raised, and the grid units in
    evaluation order.
    """
    records, measured, messages = {}, {"neg_count": [], "c_min": []}, []

    def stable(i):
        records[i] = decide(i)
        for key, units in measured.items():
            if getattr(records[i], key) is None:
                continue
            k = bisect.bisect(units, i)
            units.insert(k, i)
            window = units[max(k - 1, 0) : k + 2]
            for lo, hi in zip(window, window[1:]):
                a, b = getattr(records[lo], key), getattr(records[hi], key)
                g_lo, g_hi = 1.0 + lo * dgamma, 1.0 + hi * dgamma
                if key == "neg_count" and a > b:
                    message = (
                        f"negative-eigenvalue count falls from {a} at gamma={g_lo:.6f} "
                        f"to {b} at gamma={g_hi:.6f}"
                    )
                elif key == "c_min" and b > a + 1e-9 * (abs(a) + 1.0):
                    message = f"coercivity increased from gamma={g_lo:.6f} to gamma={g_hi:.6f}"
                else:
                    continue
                messages.append(f"{message}; sweep assumes a single sign change")
        return records[i].stable

    if not stable(0):
        return "unstable_at_start", messages, list(records)
    step = max(1, int(round(coarse / dgamma)))
    lo, hi = 0, None
    for i in range(step, int(np.floor((gamma_max - 1.0) / dgamma)) + 1, step):
        if not stable(i):
            hi = i
            break
        lo = i
    if hi is None:
        return "no_instability", messages, list(records)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if stable(mid):
            lo = mid
        else:
            hi = mid
    return 1.0 + lo * dgamma, messages, list(records)
