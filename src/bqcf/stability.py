"""Coercivity of the blended operator and critical-strain sweeps.

The stability measure is the minimal H1 Rayleigh quotient over mean-zero
periodic displacements,

    c_min = min_u <A u, u> / |u'|^2_{l2},

which only sees the symmetric part of A.  It is the smallest generalized
eigenvalue of the pencil (S, G) restricted to the mean-zero subspace,
where S = a*(A + A^T)/2 and G = a D^T D is the Gram matrix of the H1
semi-norm (D the forward difference).  Constants span the shared kernel
of G and of the restricted S; the bordered matrix

    K(sigma) = [[S - sigma G, e], [e^T, 0]]

poses the pencil on mean-zero fields (the non-symmetric blend makes S
itself couple constants to the complement, which the border absorbs).
G is positive definite there, so by Sylvester's law of inertia the
number of pencil eigenvalues below sigma is neg(K(sigma)) - 1, read off
the pivots of one sparse LU of K taken without pivoting: for the
symmetric K that factorization is L D L^T with D the diagonal of U.

S and G are band arrays like the operator's own: S averages A's bands
with their row rolls (the bands of A^T), G has the bands -1/a, 2/a, -1/a.
bordered_matrix refills K from the bands of its leading block on a CSC
pattern built once per (2M, N).  The sweep's test (S), every shift of the
slicing (S - sigma G) and the deform solve (A itself) share it, so no
sparse matrix is assembled per call.

Constant-coefficient operators take the exact Fourier minimum.  Every
other operator is solved by spectrum slicing: shifts bracketed by that
count, with inverse iteration on the factors that have no eigenvalue
below their shift.

A uniform stretch gamma enters the operators through their coefficients;
the critical strain is the largest grid point gamma = 1 + i*dgamma at
which the operator stays stable, located by a coarse scan plus bisection
(or an exact grid walk on request).  A sweep needs only the sign of
c_min.  stability_at decides it from the count at sigma = 0 alone.  For
N = 2 the operator is affine in two coefficients, A(gamma) =
phi''(gamma) G/a + phi''(2 gamma) A_2, so a sweep fits each stretch's A
to x G/a + y A(1) and reads c_min = x + y nu off one eigenvalue
nu = c_min(S(1), G); inertia certifies the stretches it reports.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np
from scipy.sparse import bmat, csc_matrix, csr_matrix
from scipy.sparse.linalg import splu
from scipy.sparse.linalg import eigsh  # noqa: F401  unused; perfbench/layertrace.py wraps it by name

from .blending import pair_weight_field, sample_beta, symmetric_profile
from .lattice import ChainConfig, PeriodicField, forward_diff, l2_norm
from .operators import (
    BandedPeriodicOperator,
    assemble_linear,
    bilinear,
    per_neighbor_operators,
)
from .potential import PairPotential


class EigenSolveError(RuntimeError):
    """Eigen-iteration failed to converge; carries the last residual."""

    def __init__(self, message: str, residual: float = float("nan")):
        super().__init__(message)
        self.residual = residual


class StrainSweepError(RuntimeError):
    """Critical-strain sweep could not bracket a stability loss.

    reason is 'unstable_at_start' (coercivity already lost at gamma = 1)
    or 'no_instability' (still coercive at gamma_max).
    """

    def __init__(self, message: str, reason: str):
        super().__init__(message)
        self.reason = reason


@dataclass
class CoercivityReport:
    """Result of one coercivity computation.

    residual is the generalized eigen-residual |S v - c G v| / |G v|
    (eigenvalue units); mode is the minimizing displacement, mean-zero
    and G-normalized.  path is 'circulant' (exact Fourier minimum) or
    'sliced' (inertia-bracketed inverse iteration); iterations counts
    the linear solves and factorizations the shifted factorizations.
    """

    c_min: float
    gamma: float
    L: int
    family: str
    M: int
    N: int
    iterations: int
    residual: float
    mode: np.ndarray = field(repr=False)
    path: str
    factorizations: int


@dataclass(frozen=True)
class StabilityRecord:
    """How one stretch of a sweep was decided.

    neg_count is the number of negative eigenvalues of S on mean-zero
    fields (None unless the inertia path ran); c_min is set where an
    eigenvalue was computed.  path is 'inertia' (pivot signs of the
    bordered factorization), 'circulant' (exact Fourier minimum),
    'eigen' (coercivity_constant, the fallback of the inertia path) or
    'pencil' (a sweep's c_min = x + y nu, see critical_strain).  A sweep
    whose pencil answer failed certification reports its rerun with the
    prefix 'rerun-' on each path.
    """

    gamma: float
    stable: bool
    neg_count: int | None
    c_min: float | None
    path: str

    def detail(self) -> str:
        if self.c_min is not None:
            return f"c_min = {self.c_min:.6g}"
        return f"{self.neg_count} negative eigenvalues"


def _h1_gram(config: ChainConfig) -> BandedPeriodicOperator:
    """G = a D^T D for the periodic forward difference D: bands -1/a, 2/a, -1/a."""
    N, a = config.N, config.a
    bands = np.zeros((2 * N + 1, config.n_atoms))
    bands[N - 1 : N + 2] = np.array([[-1.0 / a], [2.0 / a], [-1.0 / a]])
    return BandedPeriodicOperator(config, bands)


@lru_cache(maxsize=8)
def _bordered_pattern(n: int, N: int):
    """CSC structure of K = [[B, e], [e^T, 0]] for a B with every entry of
    the n-periodic bands -N..N stored, and for each stored entry of K its
    index into [B's bands flattened row by row, e's value]."""
    rows = np.tile(np.arange(n), 2 * N + 1)
    cols = (rows + np.repeat(np.arange(-N, N + 1), n)) % n
    label = csr_matrix((np.arange(1.0, rows.size + 1), (rows, cols)), shape=(n, n))
    border = np.full((n, 1), rows.size + 1.0)
    K = bmat([[label, border], [border.T, None]], format="csc")
    pattern = K.indices, K.indptr, K.data.astype(np.intp) - 1
    for arr in pattern:
        arr.setflags(write=False)  # shared by every matrix refilled on it
    return pattern


def bordered_matrix(bands: np.ndarray):
    """K = [[B, e], [e^T, 0]] as CSC, B given by its (2N+1, n) periodic bands
    and e = 1/sqrt(n), refilled on the pattern cached per (n, N)."""
    n = bands.shape[1]
    indices, indptr, source = _bordered_pattern(n, bands.shape[0] // 2)
    values = np.append(bands, 1.0 / np.sqrt(n))
    return csc_matrix((values[source], indices, indptr), shape=(n + 1, n + 1))


def _circulant_cmin(op: BandedPeriodicOperator):
    """Exact minimum quotient for constant-coefficient (circulant) operators.

    Fourier modes diagonalize both the operator's symmetric part and the
    H1 Gram matrix, so the quotient at wavenumber theta_m = 2 pi m / 2M is

        q_m = a * sum_o d_o cos(o theta_m) / (4 sin^2(theta_m / 2) / a),

    minimized over m = 1 .. 2M-1.
    """
    config = op.config
    n = config.n_atoms
    a = config.a
    theta = 2.0 * np.pi * np.arange(1, n) / n
    sym = np.zeros(n - 1)
    for o, d in op.diagonals.items():
        sym += d[0] * np.cos(o * theta)
    quot = (a * sym) / (4.0 * np.sin(theta / 2.0) ** 2 / a)
    m_star = int(np.argmin(quot)) + 1
    lam = float(quot[m_star - 1])
    # reduce the phase modulo the period in exact integer arithmetic;
    # large raw angles would cost ~m*p*eps of phase accuracy
    phase = (m_star * np.arange(n, dtype=np.int64)) % n
    v = np.cos(2.0 * np.pi * phase / n)
    v = v - v.mean()
    sym_op = op.symmetric_part()
    G = _h1_gram(config)
    v = v / np.sqrt(v @ G.apply_values(v))
    sv = sym_op.apply_values(v) * a
    sv = sv - sv.mean()
    gv = G.apply_values(v)
    res = float(np.linalg.norm(sv - lam * gv) / np.linalg.norm(gv))
    return lam, v, res, 0


def _is_circulant(op: BandedPeriodicOperator) -> bool:
    return bool(np.all(np.ptp(op.bands, axis=1) == 0.0))


def _shifted_ldl(B: np.ndarray):
    """Factor K = [[B, e], [e^T, 0]] as L D L^T and count.

    B holds the bands of S - sigma G.  Returns (lu, neg), where
    neg = neg(K) - 1 is the number of eigenvalues of the pencil (S, G)
    below sigma on mean-zero fields (for sigma = 0, the negative
    eigenvalues of S there), or None when the signs cannot be trusted.

    K is factored in its natural order with diagonal pivots only, so U's
    diagonal is the D of K = L D L^T and neg(K) = #{d_i < 0}; the border
    adds exactly one, whatever the chain block is (Sylvester's law of
    inertia; G is positive definite on mean-zero fields).  The signs are
    not trusted when SuperLU reports a singular factor or permuted
    anyway, a pivot is not finite, one of the first n - 1 chain pivots
    is below n * eps * max|d| over them, or no pivot is negative.  The
    last chain pivot is exempt: it carries the near-constant direction
    and is small by construction (down to ~1e-7 of the largest pivot at
    M = 8000, pure roundoff when S 1 = 0).  With the border it forms the
    trailing 2x2 block [[d, c], [c, t]], with c of order sqrt(n) since
    e^T 1 = sqrt(n) and S 1 ~ 0.  While |d t| < c^2 the block's
    determinant is negative, so the two pivots hold exactly one negative
    sign between them whatever sign roundoff gives d; a larger d has a
    resolved sign of its own.
    """
    n = B.shape[1]
    try:
        lu = splu(
            bordered_matrix(B),
            permc_spec="NATURAL",
            diag_pivot_thresh=0.0,
            options=dict(SymmetricMode=True),
        )
    except RuntimeError:  # exactly singular factor
        return None
    order = np.arange(n + 1)
    if not (np.array_equal(lu.perm_r, order) and np.array_equal(lu.perm_c, order)):
        return None
    d = lu.U.diagonal()
    chain = np.abs(d[: n - 1])
    if not (np.isfinite(d).all() and chain.min() > n * np.finfo(float).eps * chain.max()):
        return None
    neg = int(np.count_nonzero(d < 0.0)) - 1
    return (lu, neg) if neg >= 0 else None


_TOL = 1e-10  # relative residual at which the sliced solver stops
_MAX_FACTORIZATIONS = 40  # shifts per solve; every one counts, trusted or not
_MAX_SOLVES_PER_SHIFT = 40


def _sliced_cmin(op: BandedPeriodicOperator):
    """Smallest pencil eigenvalue by inertia-bracketed inverse iteration.

    Keeps a bracket lo <= c_min <= hi: a trusted factorization at sigma
    with no eigenvalue below it raises lo to sigma, one with some lowers
    hi to sigma, and every Rayleigh quotient lowers hi.  Inverse
    iteration runs only on factors whose count is 0, so it converges to
    the lowest mode; the next shift goes just below the current quotient,
    and back to the bracket when it overshoots.
    """
    config = op.config
    n = config.n_atoms
    a = config.a
    sym = op.symmetric_part()
    G = _h1_gram(config)
    S = a * sym.bands
    ebar = np.full(n, 1.0 / np.sqrt(n))

    def project(x):
        return x - (ebar @ x) * ebar

    def residual_of(v):
        """G-normalized copy, its quotient, and the pencil residual
        |P S v - lam G v| / |G v| (eigenvalue units).  The quotient is
        a <A v, v>, the same number as <S v, v>, taken from A because A's
        row sums vanish exactly where those of A^T carry roundoff."""
        v = project(v)
        v = v / np.sqrt(v @ G.apply_values(v))
        lam = float(v @ op.apply_values(v)) * a
        sv = project(sym.apply_values(v) * a)
        gv = G.apply_values(v)
        return v, lam, float(np.linalg.norm(sv - lam * gv) / np.linalg.norm(gv))

    # half the sum of o^2 max|d_o| a^2 over o != 0, a scale of the H1
    # quotient: sum_k k^2 |phi_xx(k gamma)| on the atomistic operator.  It
    # is usually below the spectrum, but not always (a zero diagonal entry
    # can put c_min far under it), so it too is checked by inertia
    N = config.N
    d_max = np.max(np.abs(op.bands), axis=1)
    bound = 0.5 * sum(o * o * d_max[N + o] for o in range(-N, N + 1) if o != 0) * a * a
    sigma = -(2.0 * bound + 50.0)
    lo, hi = -math.inf, math.inf
    v = project(np.random.default_rng(7).standard_normal(n))
    res = math.nan
    solves = 0
    for factorizations in range(1, _MAX_FACTORIZATIONS + 1):
        lu = factored = None  # free the last factor before making the next
        factored = _shifted_ldl(S - sigma * G.bands)
        if factored is None:  # untrusted signs: nudge the shift toward lo
            sigma = lo + 0.5 * (sigma - lo) if lo > -math.inf else sigma - (abs(sigma) + 1.0)
            continue
        lu, neg = factored
        if neg > 0:  # overshot: bisect, or widen while no lower end is known
            hi = min(hi, sigma)
            sigma = 0.5 * (lo + hi) if lo > -math.inf else sigma - 2.0 * (abs(sigma) + 1.0)
            continue
        lo = sigma
        prev = math.inf
        for _ in range(_MAX_SOLVES_PER_SHIFT):
            z = lu.solve(np.append(G.apply_values(v), 0.0))
            solves += 1
            v, lam, res = residual_of(z[:n])
            hi = min(hi, lam)
            scale = abs(lam) + 1.0
            # the residual floors near 1e-9 relative at M = 8000, so a
            # stagnating one is accepted once it meets the 1e-8 contract
            if res <= _TOL * scale or (res <= 1e-8 * scale and res > 0.5 * prev):
                return lam, v, res, solves, factorizations
            # a closer shift pays once convergence here slows down; a rising
            # residual means a lower mode is still taking over, so stay
            if 0.2 * prev < res <= prev and res < 0.25 * (lam - sigma):
                break
            prev = res
        sigma = lam - 2.0 * res  # just below the quotient
        if not sigma < hi:  # known to overshoot
            sigma = 0.5 * (lo + hi)
    raise EigenSolveError(
        f"c_min in [{lo:.6g}, {hi:.6g}] not resolved within "
        f"{_MAX_FACTORIZATIONS} shifted factorizations",
        res,
    )


def coercivity_constant(
    op: BandedPeriodicOperator,
    *,
    gamma: float = 1.0,
    L: int = 0,
    family: str = "",
) -> CoercivityReport:
    """Minimal H1 Rayleigh quotient of the operator over mean-zero fields.

    gamma, L and family are carried through into the report for sweep
    bookkeeping.  Raises EigenSolveError when the eigen-residual cannot be
    driven down.

    Constant-coefficient operators (pure atomistic and continuum) take an
    exact Fourier route; every other operator is solved by inverse
    iteration on inertia-checked shifts (_sliced_cmin).
    """
    config = op.config
    if _is_circulant(op):
        lam, v, res, solves = _circulant_cmin(op)
        path, factorizations = "circulant", 0
    else:
        lam, v, res, solves, factorizations = _sliced_cmin(op)
        path = "sliced"
    report = CoercivityReport(
        c_min=lam,
        gamma=gamma,
        L=L,
        family=family,
        M=config.M,
        N=config.N,
        iterations=solves,
        residual=res,
        mode=v,
        path=path,
        factorizations=factorizations,
    )
    if not res <= 1e-8 * (abs(lam) + 1.0):
        raise EigenSolveError(
            f"eigen-residual {res:.3e} exceeds 1e-8 * (|c_min| + 1)", res
        )
    return report


def stability_at(op: BandedPeriodicOperator, gamma: float = 1.0) -> StabilityRecord:
    """Decide whether c_min > 0, without an eigensolve where possible.

    Constant-coefficient operators take the exact Fourier minimum; every
    other operator is decided by the count of negative eigenvalues of S on
    mean-zero fields from one bordered factorization (_shifted_ldl at
    sigma = 0), falling back to coercivity_constant when that count cannot
    be trusted.
    """
    if _is_circulant(op):
        c = _circulant_cmin(op)[0]
        return StabilityRecord(gamma, c > 0.0, None, c, "circulant")
    factored = _shifted_ldl(op.config.a * op.symmetric_part().bands)
    if factored is not None:
        return StabilityRecord(gamma, factored[1] == 0, factored[1], None, "inertia")
    c = coercivity_constant(op, gamma=gamma).c_min
    return StabilityRecord(gamma, c > 0.0, None, c, "eigen")


_FIT_TOL = 1e-10  # residual of a stretch's fit to span{G/a, A(1)}, relative to max|A|
_PENCIL_MARGIN = 1e-8  # |f| at or below this share of its terms goes to inertia


class _PencilFailed(Exception):
    """The pencil's answer failed certification by inertia, or nu did not converge."""


class _Pencil:
    """c_min of the stretches whose A lies in span{G/a, A(1)}.

    For N = 2 the k = 1 part of every B-QCF operator is the Laplacian G/a,
    whatever the blend weight, so A(gamma) = x G/a + y A(1) exactly, with
    y = phi''(2 gamma) / phi''(2).  Taking symmetric parts, S(gamma) =
    x G + y S(1), and for y > 0 the pencil's smallest eigenvalue is
    f = x + y nu, nu = c_min(S(1), G).  The pair (x, y) is a least squares
    fit of the operator's bands, so the test holds for whatever operator
    the sweep's builder returns.  nu is computed here, once per sweep.
    """

    def __init__(self, op1: BandedPeriodicOperator):
        config = op1.config
        basis = np.column_stack([_h1_gram(config).bands.ravel() / config.a, op1.bands.ravel()])
        self.basis, self.pinv = basis, np.linalg.pinv(basis)
        try:
            self.nu = coercivity_constant(op1).c_min
        except EigenSolveError as exc:
            raise _PencilFailed(f"nu = c_min at gamma = 1 failed: {exc}") from exc

    def record(self, op: BandedPeriodicOperator, gamma: float) -> StabilityRecord | None:
        """The stretch decided by f, or None where the fit fails, y <= 0 or
        |f| is within roundoff of zero."""
        s = op.bands.ravel()
        coef = self.pinv @ s
        x, y = coef
        if not (np.max(np.abs(s - self.basis @ coef)) <= _FIT_TOL * np.max(np.abs(s)) and y > 0):
            return None
        f = x + y * self.nu
        if not abs(f) > _PENCIL_MARGIN * (abs(x) + y * (abs(self.nu) + 1.0)):
            return None
        return StabilityRecord(gamma, bool(f > 0.0), None, float(f), "pencil")


def _warn_unless_single_sign_change(nearest: dict, rec: StabilityRecord) -> None:
    """Compare a new record with its nearest evaluated neighbours that carry
    the same measure, and warn where a negative-eigenvalue count falls or a
    c_min rises along gamma.  nearest maps each measure to the last stable
    and the last unstable record that carry it: every evaluated stretch
    below the new one is stable and every one above it unstable, so those
    are its neighbours.  The new record then takes its own slot."""
    for key, ends in nearest.items():
        if getattr(rec, key) is None:
            continue
        for lo, hi in ((ends[0], rec), (rec, ends[1])):
            if lo is None or hi is None:
                continue
            a, b = getattr(lo, key), getattr(hi, key)
            if key == "neg_count" and a > b:
                message = (
                    f"negative-eigenvalue count falls from {a} at gamma={lo.gamma:.6f} "
                    f"to {b} at gamma={hi.gamma:.6f}"
                )
            elif key == "c_min" and b > a + 1e-9 * (abs(a) + 1.0):
                message = f"coercivity increased from gamma={lo.gamma:.6f} to gamma={hi.gamma:.6f}"
            else:
                continue
            warnings.warn(
                f"{message}; sweep assumes a single sign change", RuntimeWarning, stacklevel=5
            )
        ends[0 if rec.stable else 1] = rec


def critical_strain(
    build_operator,
    dgamma: float = 1e-5,
    gamma_max: float = 1.5,
    *,
    coarse: float = 1e-3,
    report_sink=None,
) -> float:
    """Largest grid stretch gamma = 1 + i*dgamma at which the operator is stable.

    build_operator(gamma) must return the assembled operator at that
    stretch, and each stretch is built and decided once.  gamma = 1 is
    decided by stability_at.  If it is stable and N = 2, nu = c_min at
    gamma = 1 is computed once, and every later stretch whose bands fit
    x G/a + y A(1) with y > 0 is decided by the sign of f = x + y nu
    (path 'pencil', c_min = f; see _Pencil).  That covers every N = 2
    B-QCF sweep, the atomistic one included (its nu is the exact Fourier
    minimum).  The others (N != 2, operators outside the family) and the
    stretches where |f| is within roundoff of zero are decided by
    stability_at: the exact Fourier route for constant coefficients,
    otherwise the inertia count of one bordered factorization, with
    coercivity_constant as the fallback when a pivot is tiny or pivoting
    happened.  report_sink, if given, receives that StabilityRecord once
    per evaluated stretch, right after it is decided.

    The scan walks a coarse grid (default 1e-3) until the first unstable
    stretch and bisects the bracketing cell down to the dgamma grid;
    detection therefore assumes a single sign change.  That assumption is
    checked between neighbouring evaluated stretches that carry the same
    measure: a negative-eigenvalue count that falls or a c_min that rises
    triggers a RuntimeWarning.  With coarse <= dgamma the grid is walked
    in steps of dgamma directly.

    The sweep keeps only the two ends of its bracket.  Where the pencil
    decided them, stability_at certifies the answer: stable at the
    returned stretch and unstable one grid step above it (or, when no
    loss is found, stable at the last coarse stretch).  If certification
    disagrees, or nu fails to converge, the scan is run again from
    gamma = 1 by stability_at alone, building and reporting every
    stretch anew with its path prefixed 'rerun-'.
    """
    for name, value in (("dgamma", dgamma), ("gamma_max", gamma_max), ("coarse", coarse)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if dgamma <= 0:
        raise ValueError(f"dgamma must be positive, got {dgamma}")
    if gamma_max <= 1.0:
        raise ValueError(f"gamma_max must exceed 1, got {gamma_max}")
    step = max(1, int(round(coarse / dgamma)))
    max_units = int(np.floor((gamma_max - 1.0) / dgamma))
    scan = (build_operator, dgamma, gamma_max, step, max_units, report_sink)
    try:
        return _scan(*scan, rerun=False)
    except _PencilFailed:
        return _scan(*scan, rerun=True)


def _scan(build_operator, dgamma, gamma_max, step, max_units, report_sink, *, rerun):
    """critical_strain's scan over its bracket (lo, hi) of evaluated
    stretches, each a (grid units, record, operator) triple: coarse steps
    until a stretch is unstable, then bisection.  The pencil decides where
    it holds unless this is the rerun."""
    nearest = {"neg_count": [None, None], "c_min": [None, None]}
    pencil = None

    def evaluate(i: int):
        gamma = 1.0 + i * dgamma
        op = build_operator(gamma)
        rec = None if pencil is None else pencil.record(op, gamma)
        if rec is None:
            rec = stability_at(op, gamma)
            if rerun:
                rec = replace(rec, path="rerun-" + rec.path)
        if report_sink is not None:
            report_sink(rec)
        _warn_unless_single_sign_change(nearest, rec)
        return i, rec, op

    def certify(end, stable: bool) -> None:
        _, rec, op = end
        if rec.path == "pencil" and stability_at(op, rec.gamma).stable != stable:
            raise _PencilFailed(f"inertia disagrees with the pencil at gamma={rec.gamma:.6f}")

    lo, hi = evaluate(0), None
    if not lo[1].stable:
        raise StrainSweepError(
            f"operator is not coercive at gamma = 1 ({lo[1].detail()})",
            "unstable_at_start",
        )
    if not rerun and lo[2].config.N == 2:
        pencil = _Pencil(lo[2])

    while hi is None or hi[0] - lo[0] > 1:
        i = lo[0] + step if hi is None else (lo[0] + hi[0]) // 2
        if i > max_units:
            certify(lo, True)
            raise StrainSweepError(
                f"coercivity still positive at gamma_max = {gamma_max} ({lo[1].detail()})",
                "no_instability",
            )
        end = evaluate(i)
        if end[1].stable:
            lo = end
        else:
            hi = end
    certify(lo, True)
    certify(hi, False)
    return 1.0 + lo[0] * dgamma


@dataclass
class DecompositionReport:
    """Both sides of the next-nearest-neighbor bilinear-form identity.

    direct is <F_2 u, u> evaluated through the assembled operator;
    via_identity is T1 + T2 + W with c2 = phi_xx(2g), the pair weight
    w = pair_weight_field(beta, 2) and the unscaled differences
    d2u_l = u_{l+1} - 2 u_l + u_{l-1}, Dw+_l = w_{l+1} - w_l and
    Dw-_l = w_l - w_{l-1}:

        T1 = 4 c2 |u'|^2
        T2 = -c2 a^2 |sqrt(w) u''|^2
        W  = -(c2 / a) sum_l d2u_l (Dw+_l u_{l+1} - Dw-_l u_{l-1}).

    It is exact: F_2 u = -(c2 / a^2) (4 d2u + w d4u), and periodic
    summation by parts with d2(w u) = w d2u + Dw+ u_{l+1} - Dw- u_{l-1}
    splits <w d4u, u> into the T2 and W sums.

    The form as printed differs in three places: it takes beta for w in
    T2, adds c2 a^2 |sqrt(|beta''|) u'|^2, and replaces W by two sums R
    and S in beta', beta'' and beta''' whose indices are shifted against
    u's.  It closes only for constant blends.  On cubic blends at M = 64
    its relative residual was 2.4e-3, 3.3e-3 and 1.6e-3 at L = 3, 5 and
    10, and 0.7e-3 to 1.9e-3 with the signed beta'' in place of |beta''|.
    """

    T1: float
    T2: float
    W: float
    direct: float
    via_identity: float
    identity_residual: float

    def term_table(self) -> str:
        rows = [
            ("direct  <F_2 u, u>", self.direct),
            ("T1      4 c2 |u'|^2", self.T1),
            ("T2      -c2 a^2 |sqrt(w) u''|^2", self.T2),
            ("W       blend-gradient sum", self.W),
            ("sum     T1 + T2 + W", self.via_identity),
            ("residual", self.identity_residual),
        ]
        width = max(len(r[0]) for r in rows)
        return "\n".join(f"{name:<{width}}  {value: .12e}" for name, value in rows)


def decompose_bilinear_n2(
    u: PeriodicField,
    beta: PeriodicField,
    pot: PairPotential,
    config: ChainConfig,
    gamma: float = 1.0,
) -> DecompositionReport:
    """Evaluate <F_2 u, u> directly and through the identity T1 + T2 + W
    of DecompositionReport.  Requires N = 2."""
    if config.N != 2:
        raise ValueError(f"decomposition requires N = 2, got N = {config.N}")
    a = config.a
    c2 = float(pot.phi_xx(2.0 * gamma))

    op2 = per_neighbor_operators("bqcf", pot, config, beta, gamma)[1]
    direct = bilinear(op2, u, u)

    v, w = u.values, pair_weight_field(beta, 2)
    d2u = np.roll(v, -1) - 2.0 * v + np.roll(v, 1)
    dw_plus = np.roll(w, -1) - w
    dw_minus = w - np.roll(w, 1)
    T1 = 4.0 * c2 * l2_norm(forward_diff(u)) ** 2
    T2 = -(c2 / a) * float(np.sum(w * d2u**2))
    W = -(c2 / a) * float(np.sum(d2u * (dw_plus * np.roll(v, -1) - dw_minus * np.roll(v, 1))))

    via = T1 + T2 + W
    scale = max(abs(direct), abs(via), 1e-30)
    return DecompositionReport(T1, T2, W, direct, via, abs(direct - via) / scale)


def blend_size_for_rule(rule: str, M: int) -> int:
    """Blend size prescribed by a growth rule: 'M^(1/5)' or 'M^(1/3)'."""
    if rule == "M^(1/5)":
        return int(np.ceil(M ** (1.0 / 5.0)))
    if rule == "M^(1/3)":
        return int(np.ceil(M ** (1.0 / 3.0)))
    raise ValueError(f"unknown blend-size rule {rule!r}")


def scaling_study(
    family: str,
    L_rule: str,
    M_list,
    pot: PairPotential,
    N: int,
    *,
    gamma: float = 1.0,
) -> list:
    """Coercivity of the blended operator as the chain grows.

    For each M the blend size follows L_rule and the operator is
    assembled at the given stretch; returns one CoercivityReport per M.
    """
    if list(M_list) != sorted(M_list):
        raise ValueError("M_list must be sorted ascending")
    reports = []
    for M in M_list:
        config = ChainConfig(M=M, N=N)
        L = blend_size_for_rule(L_rule, M)
        beta = sample_beta(symmetric_profile(config, family, L), config)
        op = assemble_linear("bqcf", pot, config, beta, gamma)
        reports.append(
            coercivity_constant(op, gamma=gamma, L=L, family=family)
        )
    return reports
