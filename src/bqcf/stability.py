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

S and G are band arrays like the operator's own: S is a times the
symmetric part the operator keeps, A's bands averaged with their row
rolls (the bands of A^T); G has the bands -1/a, 2/a, -1/a.
bordered_matrix refills K from the bands of its leading block on a CSC
pattern built once per (2M, N).  The sweep's test (S), every shift of the
slicing (S - sigma G) and the deform solve (A itself) share it, so no
sparse matrix is assembled per call.

Constant-coefficient operators take their least Fourier mode
(_circulant_cmin).  Every other operator is solved by spectrum slicing:
shifts bracketed by that count, with a Lanczos run on each factor that
has no eigenvalue below its shift or, above a count-0 shift, only c_min
(_sliced_cmin).  Both paths, and each eigencurve sample, evaluate their
mode by one rule (_mode), so c_min is always a mode's quotient.  A
critical-strain sweep needs only the sign of c_min at each grid stretch:
for N = 2 and 3 a few samples of one concave family bound it at every
stretch, gamma = 1 included, each sample's lower end proven by one count
(_Eigencurve); stability_at reads it off the count at sigma = 0 wherever
those bounds decide nothing.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.sparse import bmat, csc_matrix, csr_matrix
from scipy.sparse.linalg import splu
from scipy.sparse.linalg import eigsh  # noqa: F401  unused; perfbench/layertrace.py wraps it by name

from .blending import sample_beta, symmetric_profile
from .lattice import ChainConfig
from .operators import BandedPeriodicOperator, assemble_linear
from .potential import Morse


class EigenSolveError(RuntimeError):
    """Eigen-iteration failed to converge; the message gives the last residual."""


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
    and G-normalized; c_min is its quotient.  path is 'circulant' (the
    least Fourier mode) or 'sliced' (Lanczos on inertia-checked shifts),
    both evaluated by _mode; iterations counts the linear solves, one per
    Lanczos step, and factorizations the shifted factorizations, trusted
    or not (two per scaling-ladder rung: the far first shift, then one a
    tenth of its run's residual below the quotient).
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
    eigenvalue was computed or bounded, and bracket [lo, hi] holds it
    (lo = hi if computed).  path is 'inertia' (pivot signs of the bordered
    factorization), 'circulant' or 'sliced' (coercivity_constant's path,
    where the operator is constant-coefficient or its count cannot be
    trusted) or 'pencil' (_Eigencurve, with c_min = hi).
    """

    gamma: float
    stable: bool
    neg_count: int | None
    c_min: float | None
    path: str
    bracket: tuple | None = None

    def __post_init__(self):
        if self.bracket is None and self.c_min is not None:
            object.__setattr__(self, "bracket", (self.c_min, self.c_min))

    def detail(self) -> str:
        if self.c_min is None:
            return f"{self.neg_count} negative eigenvalues"
        lo, hi = self.bracket
        return f"c_min = {self.c_min:.6g}" if lo == hi else f"c_min in [{lo:.6g}, {hi:.6g}]"


def _gram(v: np.ndarray, a: float) -> np.ndarray:
    """G v by its stencil (2 v_l - v_{l-1} - v_{l+1}) / a."""
    ext = np.concatenate((v[-1:], v, v[:1]))
    return (2.0 * v - ext[:-2] - ext[2:]) / a


def _project(x: np.ndarray) -> np.ndarray:
    """x on mean-zero fields: x - (ebar . x) ebar, ebar the unit constant."""
    ebar = np.full(x.shape[0], 1.0 / np.sqrt(x.shape[0]))
    return x - (ebar @ x) * ebar


def _mode(op: BandedPeriodicOperator, v: np.ndarray):
    """Evaluate v as a mode of op, S being a * op.symmetric_part(): the
    G-normalized mean-zero v, its quotient c = a <A v, v> (= <S v, v>, but
    A's row sums vanish exactly where A^T's carry roundoff), the pencil
    residual |P S v - c G v| / |G v| (eigenvalue units) and G v."""
    a = op.config.a
    v = _project(v)
    v = v / np.sqrt(v @ _gram(v, a))
    c = float(v @ op.apply_values(v)) * a
    sv = _project(op.symmetric_part().apply_values(v) * a)
    gv = _gram(v, a)
    return v, c, float(np.linalg.norm(sv - c * gv) / np.linalg.norm(gv)), gv


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
    """The least Fourier mode of a constant-coefficient (circulant) operator.

    Fourier modes diagonalize both the operator's symmetric part and the
    H1 Gram matrix, so the quotient at wavenumber theta_m = 2 pi m / 2M is

        q_m = a * sum_o d_o cos(o theta_m) / (4 sin^2(theta_m / 2) / a).

    This symbol only picks the least m = 1 .. 2M-1; its mode is evaluated
    like any other (_mode), so c_min is the mode's quotient, which near
    theta = 0 is far more accurate than the symbol's ratio of small terms.
    """
    n, a = op.config.n_atoms, op.config.a
    theta = 2.0 * np.pi * np.arange(1, n) / n
    sym = np.zeros(n - 1)
    for o, d in op.diagonals.items():
        sym += d[0] * np.cos(o * theta)
    m_star = int(np.argmin((a * sym) / (4.0 * np.sin(theta / 2.0) ** 2 / a))) + 1
    # reduce the phase modulo the period in exact integer arithmetic;
    # large raw angles would cost ~m*p*eps of phase accuracy
    phase = (m_star * np.arange(n, dtype=np.int64)) % n
    v, lam, res, _ = _mode(op, np.cos(2.0 * np.pi * phase / n))
    return lam, v, res, 0, 0


def _is_circulant(op: BandedPeriodicOperator) -> bool:
    return bool(np.all(np.ptp(op.bands, axis=1) == 0.0))


def _shifted_ldl(op: BandedPeriodicOperator, sigma: float):
    """Factor K = [[S - sigma G, e], [e^T, 0]] as L D L^T and count.

    S = a * op.symmetric_part(), and sigma G is taken off its bands -1..1,
    G's being -1/a, 2/a, -1/a.  Returns (lu, neg), where neg = neg(K) - 1
    is the number of eigenvalues of the pencil (S, G) below sigma on
    mean-zero fields (for sigma = 0, the negative eigenvalues of S there),
    or None when the signs cannot be trusted.

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
    config = op.config
    n, N, a = config.n_atoms, config.N, config.a
    shifted = a * op.symmetric_part().bands
    shifted[N - 1 : N + 2] -= sigma * np.array([[-1.0 / a], [2.0 / a], [-1.0 / a]])
    try:
        lu = splu(
            bordered_matrix(shifted),
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
_LANCZOS_STEPS = 16  # Krylov dimension per trusted factor, a multiple of 4
_NEXT_SHIFT = 0.1  # the next shift lies this many residuals below the quotient


def _sliced_cmin(op: BandedPeriodicOperator):
    """Smallest pencil eigenvalue by shifted Lanczos with inertia checks.

    Keeps a bracket lo <= c_min <= hi: a trusted factorization at sigma
    with no eigenvalue below it raises lo to sigma, one with some lowers
    hi to sigma, and every Rayleigh quotient lowers hi.  Lanczos builds a
    G-orthonormal (fully reorthogonalized) Krylov basis of
    T = (S - sigma G)^-1 G on mean-zero fields, whose eigenvalue
    1 / (c_min - sigma) is followed by its Ritz value theta.  It runs on
    every factor with count 0, where theta is T's largest, and on a factor
    with count 1 above a known lo, where it is T's one negative eigenvalue
    and so its least.  A converged mode is c_min's only below cap, the
    least shift whose count proved c_min lies under it.  A larger count,
    or count 1 with no lo, bisects or widens instead.  The Ritz vector's
    pencil residual is checked every 4th step, and every step once the
    Lanczos estimate falls below 1e-7 |theta|.  After _LANCZOS_STEPS
    solves the next shift goes _NEXT_SHIFT residuals below the quotient,
    near enough that Lanczos converges in a few steps (to the bracket's
    midpoint when that is not below hi), and the Ritz vector starts the
    next basis.  Inverse iteration is the one-vector case.
    """
    config = op.config
    n = config.n_atoms
    a = config.a
    # half the sum of o^2 max|d_o| a^2 over o != 0, a scale of the H1
    # quotient: sum_k k^2 |phi_xx(k gamma)| on the atomistic operator.  It
    # is usually below the spectrum, but not always (a zero diagonal entry
    # can put c_min far under it), so it too is checked by inertia
    N = config.N
    d_max = np.max(np.abs(op.bands), axis=1)
    bound = 0.5 * sum(o * o * d_max[N + o] for o in range(-N, N + 1) if o != 0) * a * a
    sigma = -(2.0 * bound + 50.0)
    lo, hi, cap = -math.inf, math.inf, math.inf  # cap: the least shift with a count
    v = _project(np.random.default_rng(7).standard_normal(n))
    v /= np.sqrt(v @ _gram(v, a))
    gv, res = _gram(v, a), math.nan
    basis = np.empty((_LANCZOS_STEPS + 1, n))  # G-orthonormal Lanczos vectors
    alpha, beta = np.empty(_LANCZOS_STEPS), np.empty(_LANCZOS_STEPS)
    solves = 0
    for factorizations in range(1, _MAX_FACTORIZATIONS + 1):
        lu = factored = None  # free the last factor before making the next
        factored = _shifted_ldl(op, sigma)
        if factored is None:  # untrusted signs: nudge the shift toward lo
            sigma = lo + 0.5 * (sigma - lo) if lo > -math.inf else sigma - (abs(sigma) + 1.0)
            continue
        lu, neg = factored
        if neg:  # overshot; with count 1 above lo, c_min is the one eigenvalue below
            hi, cap = min(hi, sigma), min(cap, sigma)
            if neg > 1 or lo == -math.inf:  # bisect, or widen while no lo is known
                sigma = 0.5 * (lo + hi) if lo > -math.inf else sigma - 2.0 * (abs(sigma) + 1.0)
                continue
        else:
            lo = sigma
        basis[0], gq, prev = v, gv, math.inf
        for j in range(_LANCZOS_STEPS):
            z = lu.solve(np.append(gq, 0.0))[:n]
            solves += 1
            Q = basis[: j + 1]
            h = Q @ _gram(z, a)
            z -= h @ Q
            # twice is enough; G does not see constants, so drop them here
            z = _project(z - (Q @ _gram(z, a)) @ Q)
            gq = _gram(z, a)
            alpha[j], beta[j] = h[j], math.sqrt(max(z @ gq, 0.0))
            if not math.isfinite(alpha[j] + beta[j]):
                raise EigenSolveError(
                    f"non-finite Lanczos step at shift {sigma:.6g} (last residual {res:.3e})"
                )
            theta, s = eigh_tridiagonal(alpha[: j + 1], beta[:j])  # Ritz pairs, ascending
            k = 0 if theta[0] < 0.0 else -1  # c_min's 1 / (c - sigma) is T's least if < 0
            if (j + 1) % 4 == 0 or beta[j] * abs(s[-1, k]) < 1e-7 * abs(theta[k]):
                v, lam, res, gv = _mode(op, s[:, k] @ Q)
                hi = min(hi, lam)
                scale = abs(lam) + 1.0
                # a residual stagnating at its floor (1e-9 relative at M = 8000)
                # is accepted within the 1e-8 contract; only a mode below cap is c_min
                converged = res <= _TOL * scale or (res <= 1e-8 * scale and res > 0.5 * prev)
                if converged and lam < cap:
                    return lam, v, res, solves, factorizations
                prev = res
            if not beta[j] > 0.0:  # the space is invariant: shift instead
                break
            basis[j + 1] = z / beta[j]
            gq /= beta[j]
        sigma = lam - _NEXT_SHIFT * res  # just below the quotient
        if not sigma < hi:  # known to overshoot
            sigma = 0.5 * (lo + hi)
    raise EigenSolveError(
        f"c_min in [{lo:.6g}, {hi:.6g}] not resolved within "
        f"{_MAX_FACTORIZATIONS} shifted factorizations (last residual {res:.3e})"
    )


def coercivity_constant(
    op: BandedPeriodicOperator,
    *,
    gamma: float = 1.0,
    L: int = 0,
    family: str = "",
) -> CoercivityReport:
    """Minimal H1 Rayleigh quotient of the operator over mean-zero fields.

    gamma, L and family are copied into the report, whose fields fill the
    coercivity and scaling rows; path says which route solved it (see
    CoercivityReport).
    Raises EigenSolveError when the eigen-residual cannot be driven down.
    """
    config = op.config
    solve, path = (_circulant_cmin, "circulant") if _is_circulant(op) else (_sliced_cmin, "sliced")
    lam, v, res, solves, factorizations = solve(op)
    if not res <= 1e-8 * (abs(lam) + 1.0):
        raise EigenSolveError(f"eigen-residual {res:.3e} exceeds 1e-8 * (|c_min| + 1)")
    return CoercivityReport(
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


def stability_at(op: BandedPeriodicOperator, gamma: float = 1.0) -> StabilityRecord:
    """Decide whether c_min > 0, without an eigensolve where possible.

    An operator that is not constant-coefficient is decided by the count
    of negative eigenvalues of S on mean-zero fields from one bordered
    factorization (_shifted_ldl at sigma = 0).  A circulant operator, or
    one whose count cannot be trusted, goes to coercivity_constant, and
    the record keeps its path, 'circulant' or 'sliced'.
    """
    if not _is_circulant(op):
        factored = _shifted_ldl(op, 0.0)
        if factored is not None:
            return StabilityRecord(gamma, factored[1] == 0, factored[1], None, "inertia")
    rep = coercivity_constant(op)
    return StabilityRecord(gamma, rep.c_min > 0.0, None, rep.c_min, rep.path)


_MARGIN = 1e-8  # a bound on c_min this near 0, relative to its terms, decides nothing


class _Eigencurve:
    """c_min of the N = 2 and 3 stretches assembled like the first, from samples.

    Bands are linear in the coefficients c_k = phi''(k gamma), and the k = 1
    part is G/a whatever the blend.  So a stretch with c_2 < 0 is
    A(gamma) = c_1 G/a + |c_2| A(0, -1, t), A(c) being the first stretch's
    recipe with coefficients c and t = c_3 / |c_2| (0 for N = 2), and
    c_min = c_1 + |c_2| g(t) for g(t) = c_min(A(0, -1, t)).  g is a minimum
    of functions affine in t, so concave.  A sample at t_i takes g_i from
    the quotient of the solver's mode v_i, evaluated by _mode like the
    solvers' own, whatever the solver reports, so g_i + s_i (t - t_i)
    bounds g above, s_i = a <A(0, 0, 1) v_i, v_i> (Hellmann-Feynman).
    One count proves its lower end, g_i less _MARGIN of its terms, so the
    chord of adjacent lower ends bounds g below between them (the
    successive constraint method in one parameter: Huynh, Rozza, Sen &
    Patera, C. R. Acad. Sci. Paris I 345, 2007), and every bracket
    returned holds c_min.  A stretch is decided where both bounds on c_min
    have one sign beyond _MARGIN, else after one more sample: at 0 if t
    lies between the samples and 0 (one chord then covers the sweep), else
    at t, from the stretch itself, unless t is a sample.  So the first
    sample is the first stretch, nu = c_min(A(1)) in a sweep, and the only
    one for N = 2.  A sample that fails its solve or count ends the
    eigencurve.  A stretch with c_2 >= 0 goes to stability_at; a Morse chain has none.
    """

    def __init__(self, op1: BandedPeriodicOperator):
        self.config, N = op1.config, op1.config.N
        self.recipe = op1.recipe if N in (2, 3) else None
        if self.recipe is not None:  # A(0, 0, 1), read for N = 3 slopes
            unit = replace(self.recipe, coefficients=(0.0, 0.0, 1.0)[:N])
            self.unit = BandedPeriodicOperator(self.config, recipe=unit)
        self.samples = []  # (t_i, lower end of g_i, its line (g_i, s_i)), ascending in t

    def _add(self, op):
        """Sample g at t = c_3 / |c_2| from op = c_1 G/a + |c_2| A(0, -1, t), or
        set recipe None.  The least Fourier mode is an eigenvector, so its
        quotient is c_min to roundoff, far inside _MARGIN, and skips the count."""
        try:
            rep = coercivity_constant(op)
        except EigenSolveError:
            self.recipe = None
            return
        v, q, _, _ = _mode(op, rep.mode)  # q bounds c_min only on mean-zero fields
        q_lo = q - _MARGIN * (abs(q) + 1.0)
        if rep.path != "circulant":
            factored = _shifted_ldl(op, q_lo)
            if factored is None or factored[1] != 0:
                self.recipe = None
                return
        c1, c2, *c3 = op.recipe.coefficients
        w = -c2
        s = self.config.a * float(v @ self.unit.apply_values(v)) if c3 else 0.0
        self.samples.append((c3[0] / w if c3 else 0.0, (q_lo - c1) / w, ((q - c1) / w, s)))
        self.samples.sort()

    def record(self, op: BandedPeriodicOperator, gamma: float) -> StabilityRecord | None:
        """The stretch decided by its bracket [f_lo, f_hi] on c_min, or None.
        It qualifies with c_2 < 0 and the first stretch's config and blend
        object."""
        r1 = self.recipe
        r = None if r1 is None else op.recipe
        if r is None or r.beta is not r1.beta or op.config != self.config:
            return None
        c1, c2, *c3 = r.coefficients
        if not c2 < 0.0:
            return None
        w = -c2
        t = c3[0] / w if c3 else 0.0
        for last in (False, True):
            if self.recipe is None:  # the sample just taken failed
                return None
            hi = min([g + s * (t - ti) for ti, _, (g, s) in self.samples], default=math.inf)
            lo = -math.inf  # no chord reaches past the samples
            for (ta, la, _), (tb, lb, _) in zip(self.samples, self.samples[1:] or self.samples):
                if ta <= t <= tb:
                    lo = la if ta == tb else la + (lb - la) * (t - ta) / (tb - ta)
            f_lo, f_hi = c1 + w * lo, c1 + w * hi
            margin = _MARGIN * (abs(c1) + w * (abs(hi) + 1.0))
            if f_lo > margin or f_hi < -margin:
                return StabilityRecord(gamma, f_lo > margin, None, f_hi, "pencil", (f_lo, f_hi))
            ts = [p[0] for p in self.samples]
            at = 0.0 if ts and (ts[-1] < t < 0.0 or 0.0 < t < ts[0]) else t
            if last or at in ts:
                return None
            zero = replace(r1, coefficients=(0.0, -1.0, 0.0))
            self._add(op if at == t else BandedPeriodicOperator(self.config, recipe=zero))


def _warn_unless_single_sign_change(nearest: dict, rec: StabilityRecord) -> None:
    """Compare a new record with its nearest evaluated neighbours that carry
    the same measure, and warn where a negative-eigenvalue count falls or a
    c_min bracket lies wholly above the one below it along gamma.  nearest
    maps each measure to the last stable and the last unstable record that
    carry it: every evaluated stretch below the new one is stable and every
    one above it unstable, so those are its neighbours.  The new record
    then takes its own slot."""
    for key, ends in nearest.items():
        if getattr(rec, key) is None:
            continue
        for lo, hi in ((ends[0], rec), (rec, ends[1])):
            if lo is None or hi is None:
                continue
            if key == "neg_count" and lo.neg_count > hi.neg_count:
                message = (
                    f"negative-eigenvalue count falls from {lo.neg_count} at gamma={lo.gamma:.6f} "
                    f"to {hi.neg_count} at gamma={hi.gamma:.6f}"
                )
            elif key == "c_min" and hi.bracket[0] > lo.c_min + 1e-9 * (abs(lo.c_min) + 1.0):
                message = f"coercivity increased from gamma={lo.gamma:.6f} to gamma={hi.gamma:.6f}"
            else:
                continue
            warnings.warn(
                f"{message}; sweep assumes a single sign change", RuntimeWarning, stacklevel=4
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

    build_operator(gamma) must return the operator at that stretch.  The
    scan keeps a bracket (lo, hi) of evaluated stretches, each a (grid
    units, record) pair: coarse steps, the last cut short at max_units, to
    the first unstable stretch, then bisection, assuming one sign change
    (_warn_unless_single_sign_change checks it).  One pass, each stretch
    built and evaluated once and by one rule: by the eigencurve of
    gamma = 1's operator where it decides, else by stability_at.  An
    eigencurve bracket is proven (see _Eigencurve), so no decided stretch
    is checked again.  report_sink, if given, receives each StabilityRecord
    right after.  A gamma_max below 1 + dgamma leaves no grid and raises
    ValueError; one on the grid up to its own rounding is on it.
    """
    for name, value in (("dgamma", dgamma), ("gamma_max", gamma_max), ("coarse", coarse)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if dgamma <= 0:
        raise ValueError(f"dgamma must be positive, got {dgamma}")
    step = max(1, int(round(coarse / dgamma)))
    # gamma_max - 1 keeps gamma_max's rounding, up to half its ulp, so a
    # gamma_max on the grid can fall short of it: (1.2 - 1) / 0.1 = 1.9999999999999996
    units = (gamma_max - 1.0) / dgamma
    max_units = math.floor(units + 4.0 * (math.ulp(gamma_max) / dgamma + math.ulp(units)))
    if max_units < 1:
        raise ValueError(f"gamma_max = {gamma_max} leaves no stretch above 1 at dgamma = {dgamma}")
    nearest = {"neg_count": [None, None], "c_min": [None, None]}
    curve = None

    def evaluate(i: int):
        nonlocal curve
        gamma = 1.0 + i * dgamma
        op = build_operator(gamma)
        curve = curve or _Eigencurve(op)  # A(1)'s, gamma = 1 being evaluated first
        rec = curve.record(op, gamma) or stability_at(op, gamma)
        if report_sink is not None:
            report_sink(rec)
        _warn_unless_single_sign_change(nearest, rec)
        return i, rec

    lo, hi = evaluate(0), None
    if not lo[1].stable:
        raise StrainSweepError(
            f"operator is not coercive at gamma = 1 ({lo[1].detail()})",
            "unstable_at_start",
        )

    while hi is None or hi[0] - lo[0] > 1:
        if hi is None and lo[0] == max_units:
            raise StrainSweepError(
                f"coercivity still positive at gamma_max = {gamma_max} ({lo[1].detail()})",
                "no_instability",
            )
        i = min(lo[0] + step, max_units) if hi is None else (lo[0] + hi[0]) // 2
        end = evaluate(i)
        if end[1].stable:
            lo = end
        else:
            hi = end
    return 1.0 + lo[0] * dgamma


def blend_size_for_rule(rule: str, M: int) -> int:
    """Blend size prescribed by a growth rule, 'M^(1/5)' or 'M^(1/3)': the
    least integer L with L^p >= M, decided in integers, as the float root
    of a perfect power can land just above it."""
    p = {"M^(1/5)": 5, "M^(1/3)": 3}.get(rule)
    if p is None:
        raise ValueError(f"unknown blend-size rule {rule!r}")
    L = round(M ** (1.0 / p))
    while L**p < M:
        L += 1
    while (L - 1) ** p >= M:
        L -= 1
    return L


def scaling_study(
    family: str,
    L_rule: str,
    M_list,
    pot: Morse,
    N: int,
    *,
    gamma: float = 1.0,
) -> list:
    """Coercivity of the blended operator as the chain grows.

    For each M the blend size follows L_rule and the operator is
    assembled at the given stretch; returns one CoercivityReport per M.
    """
    M_list = list(M_list)
    if M_list != sorted(M_list):
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
