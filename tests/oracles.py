"""Slow oracles for the fast paths, and the second model they check against.

The pencil (S, G) of an operator is projected onto an orthonormal basis
of the mean-zero fields and solved with a dense generalized eigensolver,
and the bordered matrices are built densely from the operator's
diagonals.  The cost is cubic in 2M, so these are for small chains only.
The nonlinear atomistic energy and force, the long-wave constant A_N,
the higher difference stencils, one neighbour's part of the operator and
the criterion-5 identity are here as definitions to check the linearized
operators against.  Every oracle computes from an operator's diagonals
and config, a field's values and the potential's phi, phi_x and phi_xx
only, never from the package code it checks; bilinear is a helper, not
an oracle, as it applies the operator under test.  reference_sweep keeps
every record of a sweep to check its single-sign-change warnings against,
and csv_text writes a result table cell by cell, as the CSV writer must.
"""

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.linalg import eigh, null_space

from bqcf.operators import BandedPeriodicOperator


def at(values, ell):
    """Sample(s) of a 2M-periodic value array at logical index ell, for any
    integer ell; ell = p - M + 1 is stored at p."""
    n = values.shape[0]
    return values[(np.asarray(ell) + n // 2 - 1) % n]


def pair_weight(beta, ell, k):
    """Pair weight (beta_{ell-k} + 2 beta_ell + beta_{ell+k}) / 4 at the
    logical index or indices ell."""
    return (at(beta, ell - k) + 2.0 * at(beta, ell) + at(beta, ell + k)) / 4.0


def dense_matrix(op):
    """The operator as a dense 2M x 2M matrix: A[p, (p + o) mod 2M] = d_o[p]."""
    n = op.config.n_atoms
    A = np.zeros((n, n))
    p = np.arange(n)
    for o, d in op.diagonals.items():
        A[p, (p + o) % n] += d
    return A


def dense_gram(config):
    """G = a D^T D for the periodic forward difference D, densely."""
    n = config.n_atoms
    D = (np.roll(np.eye(n), 1, axis=1) - np.eye(n)) / config.a
    return config.a * D.T @ D


def dense_sym(op):
    """S = a (A + A^T) / 2, densely."""
    A = dense_matrix(op)
    return op.config.a * 0.5 * (A + A.T)


def dense_bordered(B):
    """[[B, e], [e^T, 0]] with e = 1/sqrt(n), densely."""
    n = B.shape[0]
    K = np.zeros((n + 1, n + 1))
    K[:n, :n] = B
    K[:n, n] = K[n, :n] = 1.0 / np.sqrt(n)
    return K


def gram_extended(v, a):
    """G v from one concatenated periodic extension of v, by the formula
    that stability._gram evaluates in place, in the same order."""
    ext = np.concatenate((v[-1:], v, v[:1]))
    return (2.0 * v - ext[:-2] - ext[2:]) / a


def apply_fresh(op, v):
    """A v in the row-difference form of BandedPeriodicOperator.apply_values,
    its row sums recomputed from the bands: d_{-k} + d_k for k = 1..N, then
    the diagonal."""
    N, n, bands = op.config.N, op.config.n_atoms, op.bands
    sums = np.zeros(n)
    for k in range(1, N + 1):
        sums = sums + (bands[N - k] + bands[N + k])
    ext = np.concatenate((v[n - N :], v, v[:N]))
    out = (sums + bands[N]) * v
    for o in range(-N, N + 1):
        if o != 0:
            diff = ext[N + o : N + o + n] - v
            diff *= bands[N + o]
            out += diff
    return out


def dense_eigenvalues(op):
    """Every eigenvalue of the pencil (S, G) on mean-zero fields, ascending."""
    Z = null_space(np.ones((1, op.config.n_atoms)))
    return eigh(Z.T @ dense_sym(op) @ Z, Z.T @ dense_gram(op.config) @ Z, eigvals_only=True)


def dense_least_eigenvalues(op, count):
    """The count least eigenvalues of the pencil (S, G) on mean-zero fields,
    ascending, on the orthonormal basis of those fields that the Householder
    reflection H mapping e_n to 1/sqrt(n) gives (its first n - 1 columns), so
    that each matrix is restricted in O(n^2), as (H B H)[:-1, :-1]."""
    n = op.config.n_atoms
    u = np.full(n, 1.0 / math.sqrt(n))
    u[-1] -= 1.0
    tau = 2.0 / (u @ u)

    def restrict(B):
        Bu = B @ u
        HBH = B - tau * np.outer(u, Bu) - tau * np.outer(Bu, u) + tau * tau * (u @ Bu) * np.outer(u, u)
        return HBH[:-1, :-1]

    pencil = restrict(dense_sym(op)), restrict(dense_gram(op.config))
    return eigh(*pencil, eigvals_only=True, subset_by_index=[0, count - 1])


def dense_cmin(op):
    """c_min: the smallest eigenvalue of the pencil on mean-zero fields."""
    return float(dense_eigenvalues(op)[0])


def dense_negative_count(op):
    """Negative eigenvalues of the pencil on mean-zero fields."""
    return int(np.count_nonzero(dense_eigenvalues(op) < 0.0))


def _coarse_then_bisect(stable, dgamma, gamma_max, coarse):
    """Coarse steps, the last cut short at the last grid stretch, until stable(i)
    fails, then bisection: the last stable grid unit, or None if none fails.
    The grid is counted in exact arithmetic on the decimal strings of
    gamma_max and dgamma, so a gamma_max written on the grid is on it."""
    step = max(1, int(round(coarse / dgamma)))
    last = math.floor((Fraction(repr(gamma_max)) - 1) / Fraction(repr(dgamma)))
    lo = 0
    for hi in [*range(step, last, step), last]:
        if not stable(hi):
            break
        lo = hi
    else:
        return None
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if stable(mid):
            lo = mid
        else:
            hi = mid
    return lo


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
    lo = _coarse_then_bisect(stable, dgamma, gamma_max, coarse)
    return (None if lo is None else 1.0 + lo * dgamma), evaluated


def reference_sweep(decide, dgamma, gamma_max, coarse):
    """Coarse scan plus bisection that checks the single sign change by
    keeping every evaluated record: each new one is compared with its
    nearest evaluated neighbours that carry the same measure, found by
    bisecting the ascending grid units of those records.  A c_min rises
    where the higher stretch's bracket lies wholly above the lower one's.

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
                below, above = records[lo], records[hi]
                a, b = below.neg_count, above.neg_count
                g_lo, g_hi = 1.0 + lo * dgamma, 1.0 + hi * dgamma
                if key == "neg_count" and a > b:
                    message = (
                        f"negative-eigenvalue count falls from {a} at gamma={g_lo:.6f} "
                        f"to {b} at gamma={g_hi:.6f}"
                    )
                elif key == "c_min" and above.bracket[0] > below.bracket[1] + 1e-9 * (
                    abs(below.bracket[1]) + 1.0
                ):
                    message = f"coercivity increased from gamma={g_lo:.6f} to gamma={g_hi:.6f}"
                else:
                    continue
                messages.append(f"{message}; sweep assumes a single sign change")
        return records[i].stable

    if not stable(0):
        return "unstable_at_start", messages, list(records)
    lo = _coarse_then_bisect(stable, dgamma, gamma_max, coarse)
    answer = "no_instability" if lo is None else 1.0 + lo * dgamma
    return answer, messages, list(records)


# ------------------------------------------------------- differences


def _forward(v, M):
    return (np.roll(v, -1) - v) * M


def _backward(v, M):
    return (v - np.roll(v, 1)) * M


def backward_diff(u, config):
    """(u_ell - u_{ell-1}) / a with periodic wraparound."""
    return _backward(u, config.M)


def higher_diff(u, config, order):
    """Iterated difference of order 2, 3 or 4: the backward difference of
    the forward difference, then alternately forward and backward again."""
    if order not in (2, 3, 4):
        raise ValueError(f"order must be 2, 3 or 4, got {order}")
    M = config.M
    d = _backward(_forward(u, M), M)
    if order >= 3:
        d = _forward(d, M)
    if order == 4:
        d = _backward(d, M)
    return d


def summation_by_parts_residual(u, v):
    """|sum_ell u_ell (v_ell - v_{ell-1}) + sum_ell (u_ell - u_{ell-1}) v_{ell-1}|
    over the full periodic index set: zero in exact arithmetic."""
    vm1 = np.roll(v, 1)
    return float(abs(np.sum(u * (v - vm1)) + np.sum((u - np.roll(u, 1)) * vm1)))


def derivative_sup_bounds(beta, config, L):
    """Scaled sup norms c_j = max|beta^(j)| * (L a)^j for j = 1, 2, 3.

    For a smooth blend of L atoms these stay O(1) as the chain grows;
    kinks (the linear family) make c2 and c3 blow up.
    """
    if L < 1:
        raise ValueError(f"L must be >= 1, got {L}")
    la = L * config.a
    c1 = float(np.max(np.abs(_forward(beta, config.M)))) * la
    c2 = float(np.max(np.abs(higher_diff(beta, config, 2)))) * la**2
    c3 = float(np.max(np.abs(higher_diff(beta, config, 3)))) * la**3
    return c1, c2, c3


# -------------------------------------------- the nonlinear atomistic model


def stability_constant(pot, N, gamma):
    """A_N(gamma) = sum_{k=1..N} k^2 phi_xx(k gamma), the long-wave
    stability constant of the chain stretched uniformly by gamma."""
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    if not (math.isfinite(gamma) and gamma > 0):
        raise ValueError(f"gamma must be positive and finite, got {gamma}")
    ks = np.arange(1, N + 1, dtype=float)
    return float(np.sum(ks**2 * pot.phi_xx(ks * gamma)))


def _bonds(u, config, gamma):
    """Bond arguments gamma k + (u_{ell+k} - u_ell) / a for k = 1..N, each
    checked to be positive."""
    bonds = [gamma * k + (np.roll(u, -k) - u) * config.M for k in range(1, config.N + 1)]
    for k, b in enumerate(bonds, 1):
        if np.any(b <= 0.0):
            raise ValueError(
                f"non-physical configuration: bond of neighbor {k} crosses (min {b.min():.3g})"
            )
    return bonds


def energy_atomistic(u, pot, config, gamma=1.0):
    """Total interaction energy of the deformation y = gamma x + u.

    E = sum_ell sum_{k=-N..N, k!=0} (a/2) phi((y_{ell+k} - y_ell)/a), with
    bonds across the seam reading the periodic image of u.  phi is even,
    so the k < 0 half equals the k > 0 half.
    """
    return sum(float(np.sum(pot.phi(b))) * config.a for b in _bonds(u, config, gamma))


def force_nonlinear_atomistic(u, pot, config, gamma=1.0):
    """Nonlinear atomistic force at the deformation y = gamma x + u, as an array.

    F_ell = -sum_{k=-N..N, k!=0} (1/2a) [phi_x(g k + (u_{ell+k}-u_ell)/a)
                                         - phi_x(g k + (u_ell-u_{ell-k})/a)],
    which is (1/a) times the gradient of energy_atomistic.  The odd
    extension of phi_x supplies the k < 0 terms.
    """
    _bonds(u, config, gamma)
    M = config.M
    out = np.zeros(config.n_atoms)
    for k in [*range(1, config.N + 1), *range(-1, -config.N - 1, -1)]:
        fwd = pot.phi_x(gamma * k + (np.roll(u, -k) - u) * M)
        bwd = pot.phi_x(gamma * k + (u - np.roll(u, k)) * M)
        out -= 0.5 * M * (fwd - bwd)
    return out


# ----------------------------------- field algebra and the criterion-5 identity


def inner(u, w, config):
    """Weighted inner product sum_ell u_ell w_ell a."""
    return float(np.dot(u, w) * config.a)


def l2_norm(u, config):
    """sqrt(sum_ell u_ell^2 a)."""
    return float(np.sqrt(np.dot(u, u) * config.a))


def bilinear(op, u, v):
    """<A u, v> in the a-weighted inner product, through op.apply_values."""
    return inner(op.apply_values(u), v, op.config)


def neighbor_operator(kind, pot, config, beta, gamma, k):
    """Neighbour k's part of the operator of that kind, as raw bands from
    the blend formula of bqcf.operators: -w c / a^2 at +-k and
    -(1 - w) k^2 c / a^2 at +-1, c = phi_xx(k gamma), and minus their sum
    on the diagonal.  Summed over k = 1..N they are the whole operator."""
    N, inv_a2 = config.N, float(config.M) ** 2
    c = float(pot.phi_xx(k * gamma))
    ells = config.logical_indices()
    w = pair_weight(beta, ells, k) if kind == "bqcf" else float(kind == "atomistic")
    bands = np.zeros((2 * N + 1, config.n_atoms))
    bands[[N - k, N + k]] += -(w * c) * inv_a2
    bands[[N - 1, N + 1]] += -((1.0 - w) * (c * k * k)) * inv_a2
    bands[N] = -sum(bands[N - j] + bands[N + j] for j in range(1, N + 1))
    return BandedPeriodicOperator(config, bands)


def pure_model_mismatch(op, kind, pot, gamma):
    """The offsets at which op is not the atomistic or continuum operator
    (kind) that neighbor_operator sums over k = 1..N with its own weight,
    w = 1 or w = 0: each off-diagonal band that differs at all, and 0 if
    the diagonal, which the oracle sums per k, differs beyond roundoff."""
    config = op.config
    N = config.N
    want = sum(neighbor_operator(kind, pot, config, None, gamma, k).bands for k in range(1, N + 1))
    bad = [o for o in range(-N, N + 1) if o and not np.array_equal(op.bands[N + o], want[N + o])]
    if np.max(np.abs(op.bands[N] - want[N])) > 1e-14 * np.max(np.abs(want)):
        bad.append(0)
    return bad


@dataclass
class DecompositionReport:
    """Both sides of the exact identity <F_2 u, u> = T1 + T2 + W derived in
    the README ("Bilinear decomposition"): direct through neighbor_operator's
    k = 2 part, via_identity from the three norms."""

    T1: float
    T2: float
    W: float
    direct: float
    via_identity: float
    identity_residual: float


def decompose_bilinear_n2(u, beta, pot, config, gamma=1.0):
    """Evaluate <F_2 u, u> directly and through T1 = 4 c2 |u'|^2,
    T2 = -c2 a^2 |sqrt(w) u''|^2 and W = -(c2 / a) sum_l d2u_l (Dw+_l
    u_{l+1} - Dw-_l u_{l-1}), with c2 = phi_xx(2 gamma), w the pair weight
    of k = 2, d2u_l = u_{l+1} - 2 u_l + u_{l-1}, Dw+_l = w_{l+1} - w_l and
    Dw-_l = w_l - w_{l-1}."""
    a = config.a
    c2 = float(pot.phi_xx(2.0 * gamma))
    direct = bilinear(neighbor_operator("bqcf", pot, config, beta, gamma, 2), u, u)

    w = pair_weight(beta, config.logical_indices(), 2)
    du = _forward(u, config.M)
    d2u = np.roll(u, -1) - 2.0 * u + np.roll(u, 1)
    dw_plus = np.roll(w, -1) - w
    dw_minus = w - np.roll(w, 1)
    T1 = 4.0 * c2 * float(du @ du) * a
    T2 = -(c2 / a) * float(np.sum(w * d2u**2))
    W = -(c2 / a) * float(np.sum(d2u * (dw_plus * np.roll(u, -1) - dw_minus * np.roll(u, 1))))

    via = T1 + T2 + W
    scale = max(abs(direct), abs(via), 1e-30)
    return DecompositionReport(T1, T2, W, direct, via, abs(direct - via) / scale)


def csv_text(table):
    """A ResultTable's CSV text by the per-cell rule: the sorted metadata as
    '# key = value' lines, the header, then each row with every cell written
    as format(c, '.17g') if it is a float and as str(c) otherwise."""

    def cell(c):
        return format(c, ".17g") if isinstance(c, float) else str(c)

    lines = [f"# {key} = {table.metadata[key]}" for key in sorted(table.metadata)]
    lines.append(",".join(table.columns))
    lines += [",".join(cell(c) for c in r) for r in table.rows]
    return "".join(line + "\n" for line in lines)
