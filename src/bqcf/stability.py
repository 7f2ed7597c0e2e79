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
sparse matrix is assembled per call.  The stability factorizations drop
K's exact zeros first (a blend's d_{+-k} vanish on its continuum rows),
which only cuts fill, and take SuperLU panels _PANEL = 4 columns wide:
K's factor is a band plus a border, its supernodes a few columns wide,
and SuperLU's default panel, sized for wide supernodes, factors it 1.2
to 1.7 times slower.  The deform solve factors the full pattern with
SuperLU's defaults, on which the bits of its CSVs rest.

Every operator, constant-coefficient or blended, is solved by spectrum
slicing (coercivity_constant): each factor's count moves a bracket on
c_min, and one rule moves the shift, to a target inside the bracket
(the estimate's fallback, or just below the last quotient) or else to
the bracket's middle.  The first shift is placed by an estimate that
factors nothing (Lanczos on G^-1 P S), just above c_min where one
eigenvalue alone is predicted below it, and a shift-invert Lanczos run
follows c_min on each factor that has no eigenvalue below its shift or
only c_min.  Both are one G-orthonormal Lanczos routine (_lanczos), told
only how to apply its operator.  The solver and each eigencurve sample
evaluate their mode by one rule (_mode), so c_min is always a mode's
quotient, and a count-1 factor proves c_min's lower end by Temple's
inequality (_temple), read off the residual _mode computed.  A
critical-strain sweep needs only the
sign of c_min at each grid stretch: a few samples of one concave family in
N - 2 parameters bound it at every stretch, gamma = 1 included, from above
by planes and from below on simplices of samples, each sample's lower end
proven by one count (that of the solve's own factor, where Temple's bound
clears it), and where c_2, ..., c_N all vanish (N = 1 among them)
c_min = c_1 needs no sample (_Eigencurve); stability_at reads it off the
count at sigma = 0 wherever those bounds decide nothing.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from functools import lru_cache
from operator import mul

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
    and G-normalized; c_min is its quotient.  path is 'sliced' (Lanczos
    on inertia-checked shifts, the mode evaluated by _mode), the one route
    of every operator; iterations counts the linear solves, one per
    Lanczos step, and factorizations the shifted factorizations, trusted
    or not (one per scaling-ladder rung: the estimate's first shift, just
    above c_min).  bracket (lo, c_min) is proven: lo is Temple's bound
    where the solve ended on a count-1 factor, else the highest count-0
    shift.  shift is that count-1 factor's shift, or None.
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
    bracket: tuple
    shift: float | None


@dataclass(frozen=True)
class StabilityRecord:
    """How one stretch of a sweep was decided.

    neg_count is the number of negative eigenvalues of S on mean-zero
    fields (None unless the inertia path ran); c_min is set where an
    eigenvalue was computed or bounded, and bracket [lo, hi] holds it
    (lo = hi if computed).  path is 'inertia' (pivot signs of the bordered
    factorization), 'sliced' (coercivity_constant's path, where that count
    cannot be trusted) or 'pencil' (_Eigencurve, with c_min = hi).
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
    """G v by its stencil (2 v_l - v_{l-1} - v_{l+1}) / a, in that order,
    computed in place with the periodic ends taken apart."""
    g = 2.0 * v
    g[1:] -= v[:-1]
    g[0] -= v[-1]
    g[:-1] -= v[1:]
    g[-1] -= v[0]
    g /= a
    return g


def _project(x: np.ndarray) -> np.ndarray:
    """x on mean-zero fields: x less its mean, the bits of x.mean() without
    its wrapper's cost."""
    return x - np.add.reduce(x) / x.shape[0]


def _mode(op: BandedPeriodicOperator, v: np.ndarray):
    """Evaluate v as a mode of op, S being a * op.symmetric_part(): the
    G-normalized mean-zero v, its quotient c = a <A v, v> (= <S v, v>, but
    A's row sums vanish exactly where A^T's carry roundoff) and the pencil
    residual |w| / |G v| (eigenvalue units) with w = P S v - c G v itself."""
    a = op.config.a
    v = _project(v)
    gv = _gram(v, a)
    norm = math.sqrt(v @ gv)
    v, gv = v / norm, gv / norm
    c = float(v @ op.apply_values(v)) * a
    w = _project(op.symmetric_part().apply_values(v) * a) - c * gv
    return v, c, float(np.linalg.norm(w) / np.linalg.norm(gv)), w


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


_PANEL = 4  # SuperLU panel width; K's factor is a band plus a border, its supernodes narrow


def _shifted_ldl(op: BandedPeriodicOperator, sigma: float):
    """Factor K = [[S - sigma G, e], [e^T, 0]] as L D L^T and count.

    S = a * op.symmetric_part(), and sigma G is taken off its bands -1..1,
    G's being -1/a, 2/a, -1/a.  Returns (lu, neg), where neg = neg(K) - 1
    is the number of eigenvalues of the pencil (S, G) below sigma on
    mean-zero fields (for sigma = 0, the negative eigenvalues of S there),
    or None when the signs cannot be trusted.

    K's exact zeros are dropped first, on a copy of the shared pattern.
    K is factored in its natural order with diagonal pivots only (in
    panels of _PANEL columns, which sets only the speed), so U's
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
    resolved sign of its own.  That roundoff pivot also bounds what the
    factor solves: where S 1 = 0 up to roundoff (constant blends, N = 1),
    only right-hand sides [G q, 0] come back accurate, and a constant or
    border component comes back with noise of order 1e-2.
    """
    config = op.config
    n, N, a = config.n_atoms, config.N, config.a
    shifted = a * op.symmetric_part().bands
    shifted[N - 1 : N + 2] -= sigma * np.array([[-1.0 / a], [2.0 / a], [-1.0 / a]])
    K = bordered_matrix(shifted).copy()  # the cached pattern is shared and read-only
    K.eliminate_zeros()
    try:
        lu = splu(
            K,
            permc_spec="NATURAL",
            diag_pivot_thresh=0.0,
            panel_size=_PANEL,
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
_ESTIMATE_STEPS = 8  # Lanczos steps of the first shift's estimate, which factors nothing
_ESTIMATE_MARGIN = 1e-3  # sigma_0 lies this far below q - r, relative to |q| + 1
_ABOVE = 1e-4  # a first shift above the estimate lies this far above q, relative to |q| + 1
_BREAKDOWN = 1e-12  # beta at most this share of the image's G-norm is roundoff


def _solve_gram(b: np.ndarray, a: float) -> np.ndarray:
    """The mean-zero x with G x = b, for mean-zero b, by two running sums.

    With y_l = x_l - x_{l-1}, G x = b reads y_{l+1} = y_l - a b_l, so y is
    a running sum of b, shifted to mean zero as the periodic x requires,
    and x is a running sum of y."""
    y = -a * (np.cumsum(b) - b)
    return _project(np.cumsum(_project(y)))


def _lanczos(apply, q: np.ndarray, a: float, steps: int):
    """Lanczos from the G-normalized mean-zero q on an operator self-adjoint
    in the G inner product on mean-zero fields, apply(q, G q) applying it.
    Each step G-orthogonalizes the image against the whole basis twice,
    dropping constants, which G does not see, and yields (alpha, beta, Q):
    the tridiagonal so far, beta[-1] = |z|_G, and the G-orthonormal basis.
    G Q is kept beside Q, so both passes read (G Q) z and a step forms one
    G-product, G z.  The run ends after `steps` steps or at a breakdown,
    the basis spanning an invariant space: beta at most _BREAKDOWN of the
    image's G-norm before orthogonalization, sqrt(|h|^2 + beta^2) for
    its G-coefficients h on the basis.  A step that is not finite raises
    EigenSolveError."""
    basis, gbasis = np.empty((2, steps + 1, q.shape[0]))
    alpha, beta = np.empty(steps), np.empty(steps)
    basis[0], gbasis[0] = q, _gram(q, a)
    for j in range(steps):
        Q, GQ = basis[: j + 1], gbasis[: j + 1]
        z = apply(Q[-1], GQ[-1])
        h = GQ @ z
        z = z - h @ Q
        z = _project(z - (GQ @ z) @ Q)
        gz = _gram(z, a)
        alpha[j], beta[j] = h[-1], math.sqrt(max(z @ gz, 0.0))
        if not math.isfinite(alpha[j] + beta[j]):
            raise EigenSolveError("non-finite Lanczos step")
        yield alpha[: j + 1], beta[: j + 1], Q
        if not beta[j] > _BREAKDOWN * math.sqrt(h @ h + beta[j] ** 2):
            return
        basis[j + 1], gbasis[j + 1] = z / beta[j], gz / beta[j]


def _first_shift(op: BandedPeriodicOperator):
    """The first shift of coercivity_constant, its factor's target (see
    there) and the start vector, from an estimate.

    _ESTIMATE_STEPS _lanczos steps on G^-1 P S, self-adjoint in the G
    inner product on mean-zero fields, from the two longest waves
    cos + sin(2 pi l / 2M): each step is one banded S apply and one
    _solve_gram, so no factorization.  The least Ritz value q bounds c_min
    above, and the Ritz vector is the start.  With its residual
    r = beta |s_k|, sigma_0 = q - r - _ESTIMATE_MARGIN (|q| + 1).  The
    first shift is sigma = q + _ABOVE (|q| + 1), with target sigma_0 (where
    a first factor that runs no Lanczos goes next), where one eigenvalue
    alone is predicted below it: the recipe's E_b = sum_k k^2 c_k, the
    long-wave edge of both bulk models' spectra, lies above sigma by more
    than sigma - q + r^2 / (theta_2 - q), theta_2 the second Ritz value
    (c_min's distance below q, as Kato's bound estimates it).  Elsewhere
    (an operator with no recipe, a constant blend, N = 1, a blend wide
    enough to crowd the bulk edge) it is sigma_0, with no target.  The
    run ends where _lanczos ends it (the longest waves are eigenvectors
    of a constant-coefficient operator, an invariant space).  The estimate
    proves nothing; the solver checks each shift by inertia like any other.
    """
    config = op.config
    n, a = config.n_atoms, config.a
    sym = op.symmetric_part()
    wave = 2.0 * np.pi * np.arange(n) / n
    v = _project(np.cos(wave) + np.sin(wave))
    v = v / math.sqrt(v @ _gram(v, a))
    try:
        *_, (alpha, beta, Q) = _lanczos(
            lambda q, gq: _solve_gram(_project(a * sym.apply_values(q)), a), v, a, _ESTIMATE_STEPS
        )
    except EigenSolveError as err:
        raise EigenSolveError(f"{err} in the first shift's estimate") from None
    # Ritz pairs, ascending; _lanczos raised on any non-finite step
    theta, s = eigh_tridiagonal(alpha, beta[:-1], check_finite=False)
    q, r = theta[0], beta[-1] * abs(s[-1, 0])
    sigma_0, v = q - r - _ESTIMATE_MARGIN * (abs(q) + 1.0), s[:, 0] @ Q
    sigma = q + _ABOVE * (abs(q) + 1.0)
    gap = theta[1] - q if len(theta) > 1 else math.inf
    if op.recipe is not None and gap > 0.0:
        edge = sum([k * k * c for k, c in enumerate(op.recipe.coefficients, 1)])
        if edge - sigma > sigma - q + r * r / gap:
            return sigma, sigma_0, v
    return sigma_0, None, v


def _temple(w: np.ndarray, c: float, sigma: float, a: float) -> float:
    """Temple's lower bound on c_min from a G-normalized mean-zero mode of
    quotient c and pencil residual w = P S v - c G v (as _mode returns
    them) and a shift sigma > c that proves exactly one eigenvalue below
    it: c - <w, G^+ w> / (sigma - c) (G. Temple, Proc. R. Soc. A 119,
    1928; T. Kato, J. Phys. Soc. Japan 4, 1949); -inf for c >= sigma.  It
    costs one _solve_gram."""
    if not c < sigma:
        return -math.inf
    return c - float(w @ _solve_gram(w, a)) / (sigma - c)


def coercivity_constant(
    op: BandedPeriodicOperator,
    *,
    gamma: float = 1.0,
    L: int = 0,
    family: str = "",
) -> CoercivityReport:
    """Minimal H1 Rayleigh quotient of the operator over mean-zero fields,
    by shifted Lanczos with inertia checks; gamma, L and family are copied
    into the report, whose fields fill the coercivity and scaling rows.

    The first shift, its target and the start vector come from an
    estimate that factors nothing (_first_shift).  The solver keeps a
    bracket lo <= c_min <= hi and cap, the least shift whose count proved
    c_min below it.  Each factorization at sigma first moves them: a
    count of 0 raises lo to sigma, a count of 1 or more lowers hi and cap
    to sigma, and an untrusted one moves nothing; every Rayleigh quotient
    lowers hi.  On a count of 0 or 1, _lanczos builds a G-orthonormal
    Krylov basis of T = (S - sigma G)^-1 G on mean-zero fields, one
    bordered solve per step, from the last mode or the start, and follows T's
    eigenvalue 1 / (c_min - sigma) by its Ritz value theta: T's largest at
    count 0, its one negative eigenvalue, so its least, at count 1.  The
    Ritz vector's pencil residual is checked every 4th step, and every
    step once the Lanczos estimate falls below 1e-7 |theta|.  One that
    stops halving between checks, the start vector's own counting as the
    first, is accepted within the 1e-8 (|c| + 1) contract, so a start that
    is already an eigenvector stops at its first check.  A converged mode
    is c_min's only below cap; on a count-1 factor Temple's bound
    (_temple, from the residual _mode returned) proves the report's lower
    end.

    A factor that does not end the solve sets the next shift by one rule:
    its target where that lies inside (lo, hi), else the bracket's
    midpoint, or 2 (|hi| + 1) below hi while no lo is known.  The first
    factor's target is _first_shift's (sigma_0 above the estimate); after
    a Lanczos run (_LANCZOS_STEPS solves, or an invariant space) it is
    _NEXT_SHIFT residuals below the quotient, near enough that Lanczos
    converges in a few steps; an untrusted factor or a count above 1 has
    none.  So every shift after the first lies in [lo, hi], and lo never
    decreases.  Raises EigenSolveError when the residual is not resolved
    within _MAX_FACTORIZATIONS shifts.
    """
    config = op.config
    n = config.n_atoms
    sigma, target, v = _first_shift(op)
    lo, cap = -math.inf, math.inf  # cap: the least shift with a count
    v, hi, res, _ = _mode(op, v)
    solves = 0
    rhs = np.zeros(n + 1)  # [G q, 0], refilled for every bordered solve

    def solve(q, gq):
        rhs[:n] = gq
        return lu.solve(rhs)[:n]

    for factorizations in range(1, _MAX_FACTORIZATIONS + 1):
        lu = None  # free the last factor before making the next
        lu, neg = _shifted_ldl(op, sigma) or (None, None)  # neg None: untrusted signs
        if neg == 0:
            lo = sigma
        elif neg:  # c_min lies below sigma; with count 1 it is the one eigenvalue there
            hi, cap = min(hi, sigma), min(cap, sigma)
        if neg in (0, 1):
            prev = res
            try:
                for alpha, beta, Q in _lanczos(solve, v, config.a, _LANCZOS_STEPS):
                    solves += 1
                    theta, s = eigh_tridiagonal(alpha, beta[:-1], check_finite=False)  # Ritz pairs, ascending
                    k = 0 if theta[0] < 0.0 else -1  # c_min's 1 / (c - sigma) is T's least if < 0
                    if len(alpha) % 4 == 0 or beta[-1] * abs(s[-1, k]) < 1e-7 * abs(theta[k]):
                        v, lam, res, w = _mode(op, s[:, k] @ Q)
                        hi = min(hi, lam)
                        scale = abs(lam) + 1.0
                        # a residual stagnating at its floor (1e-9 relative at M = 8000)
                        # is accepted within the 1e-8 contract; only a mode below cap is c_min
                        converged = res <= _TOL * scale or (res <= 1e-8 * scale and res > 0.5 * prev)
                        if converged and lam < cap:
                            bound = max(lo, _temple(w, lam, sigma, config.a)) if neg else lo
                            return CoercivityReport(
                                lam, gamma, L, family, config.M, config.N, solves, res, v,
                                "sliced", factorizations, (float(bound), lam), float(sigma) if neg else None,
                            )
                        prev = res
            except EigenSolveError as err:
                raise EigenSolveError(f"{err} at shift {sigma:.6g} (last residual {res:.3e})") from None
            target = lam - _NEXT_SHIFT * res  # just below the quotient
        # the one rule: the target inside (lo, hi), else the bracket's midpoint,
        # or below hi by 2 (|hi| + 1) while no lo is known
        if target is None or not lo < target < hi:
            target = 0.5 * (lo + hi) if lo > -math.inf else hi - 2.0 * (abs(hi) + 1.0)
        sigma, target = target, None
    raise EigenSolveError(
        f"c_min in [{lo:.6g}, {hi:.6g}] not resolved within "
        f"{_MAX_FACTORIZATIONS} shifted factorizations (last residual {res:.3e})"
    )


def stability_at(op: BandedPeriodicOperator, gamma: float = 1.0) -> StabilityRecord:
    """Decide whether c_min > 0, without an eigensolve where possible.

    Every operator is decided by the count of negative eigenvalues of S
    on mean-zero fields from one bordered factorization (_shifted_ldl at
    sigma = 0).  One whose count cannot be trusted (see _shifted_ldl; an
    exactly constant N = 1 operator can have S 1 = 0 exactly, a zero pivot
    that SuperLU permutes) goes to coercivity_constant, and the record's
    path is 'sliced'.
    """
    factored = _shifted_ldl(op, 0.0)
    if factored is not None:
        return StabilityRecord(gamma, factored[1] == 0, factored[1], None, "inertia")
    rep = coercivity_constant(op)
    return StabilityRecord(gamma, rep.c_min > 0.0, None, rep.c_min, rep.path)


_MARGIN = 1e-8  # a bound on c_min this near 0, relative to its terms, decides nothing


class _Eigencurve:
    """c_min of the stretches assembled like the first, from samples.

    Bands are linear in the coefficients c_k = phi''(k gamma), and the k = 1
    part is G/a whatever the blend.  So a stretch with c_2 < 0 is
    A(gamma) = c_1 G/a + |c_2| A(0, -1, t), A(c) being the first stretch's
    recipe with coefficients c and t = (c_3, ..., c_N) / |c_2|, and
    c_min = c_1 + |c_2| g(t) for g(t) = c_min(A(0, -1, t)).  g is a minimum
    of functions affine in t, so concave.  A sample at t_i takes g_i from
    the quotient of the solver's mode v_i, evaluated by _mode like the
    solvers' own, whatever the solver reports, so the plane
    g_i + s_i . (t - t_i) bounds g above, s_ij = a <A(e_j) v_i, v_i>
    (Hellmann-Feynman), A(e_j) the unit operator of t_j.  One count proves
    its lower end, g_i less _MARGIN of its terms: the solve's own count-1
    factor, where Temple's bound from v_i clears that end by half _MARGIN,
    else a count at it.  So on a simplex of samples
    the barycentric interpolation of their lower ends bounds g below (the
    successive constraint method: Huynh, Rozza, Sen & Patera, C. R. Acad.
    Sci. Paris I 345, 2007), and every bracket returned holds c_min.

    The first sample fixes the frame (_frame).  A coordinate whose effect
    |t_j| rho_j on g stays within _MARGIN, rho_j bounding A(e_j)'s
    G-quotient, is folded: g(t) lies within eps = sum |t_j| rho_j of h,
    g with the folded coordinates at 0, so a stretch's bounds on h move out
    by eps, and every sample is of h, on the range of the last kept
    coefficient.  The kept coordinates are scaled by the first sample's,
    u_j = t_j / t_1j, so a sweep runs in the unit box from u = (1, ..., 1)
    toward 0.  A stretch is decided where both bounds on c_min have one
    sign beyond _MARGIN, else after one more round of samples: the missing
    vertices of the Freudenthal-Kuhn simplex of the box that holds u, else
    one at u from the stretch, which splits the simplex of samples that
    holds it (stellar subdivision; outside the box it stands alone), unless
    u is a sample.  So the first sample is the first stretch, nu = c_min(A(1))
    in a sweep, and the only one for N = 2; for N = 3 the simplices are the
    chords between adjacent samples, the first from t_1 to 0.  A sample that
    fails its solve or count ends the eigencurve.

    A stretch whose c_2, ..., c_N all vanish (every N = 1 stretch, and those
    whose tail underflows) is c_1 G/a, so c_min = c_1, with no sample.  A
    stretch with c_2 >= 0 and a nonzero tail goes to stability_at; a Morse
    chain has none.

    The bounds on h at the last u (without eps, which each stretch adds
    for its own t) and _walk's find there are kept, so stretches at one u
    (every N = 2 stretch is at u = ()) reuse them; _refine, where every
    sample is added and every simplex made or split, drops them.
    """

    def __init__(self, op1: BandedPeriodicOperator):
        self.config, self.recipe = op1.config, op1.recipe
        self.samples = []  # (u_i, lower end of h(u_i), g_i's plane: its value at 0, its slopes in u)
        self.points = {}  # u_i -> i
        self.roots = {}  # Kuhn key -> simplex [vertex indices, split weights, children]
        self.kept = self.folded = None  # [(j, t_1j, A(e_j))] and [(j, rho_j)], set by _frame
        self.bounds = None  # (u, lo, hi, _walk(u)): h's bounds at the last u, without eps

    @staticmethod
    def _split(coefficients):
        """(b, w, t) with c_min = b + w g(t): (c_1, |c_2|, (c_3, ..., c_N) / |c_2|)
        for c_2 < 0, (c_1, 0, ()) for a tail c_2, ..., c_N of zeros, else None."""
        c1, *c = coefficients
        if not any(c):
            return c1, 0.0, ()
        w = -c[0]
        return (c1, w, tuple([x / w for x in c[1:]])) if w > 0.0 else None

    def _frame(self, t):
        """Fold and scale the coordinates from the first sample's t = t_1:
        those of least effect |t_1j| rho_j are folded while their effects sum
        to at most _MARGIN.  For t_j = c_k / |c_2|, k = j + 2, A(e_j) is the
        unit k stencil, and rho_j = (a M)^2 (B + B' k^2) / sin^2(pi / 2M),
        B and B' the largest |beta| and |1 - beta|, bounds |a <A(e_j) v, v>|
        for G-normalized mean-zero v: A(e_j) holds -w M^2 at +-k and
        -(1 - w) k^2 M^2 at +-1, w averaging the blend, and minus their sum
        on the diagonal, so each of its rows and columns sums in magnitude to
        at most 4 M^2 (B + B' k^2), which bounds its 2-norm (Gershgorin), and
        |v|^2 <= a / (4 sin^2(pi / 2M)), G's least eigenvalue on mean-zero
        fields being 4 sin^2(pi / 2M) / a.  The lists count j from 0."""
        kept, self.folded = [], []
        if t:
            beta, config = self.recipe.beta, self.config
            big, far = float(np.abs(beta).max()), float(np.abs(1.0 - beta).max())
            poincare = (config.a * config.M / math.sin(math.pi / config.n_atoms)) ** 2
            rho = [poincare * (big + far * k * k) for k in range(3, len(t) + 3)]
            budget = _MARGIN
            for j in sorted(range(len(t)), key=lambda j: abs(t[j]) * rho[j]):
                budget -= abs(t[j]) * rho[j]
                if budget >= 0.0:
                    self.folded.append((j, rho[j]))
                else:  # A(e_j) on the range of its own stencil, its bands built once read
                    unit = replace(self.recipe, coefficients=(0.0,) * (j + 2) + (1.0,))
                    kept.append((j, t[j], BandedPeriodicOperator(replace(config, N=j + 3), recipe=unit)))
        self.kept = sorted(kept, key=lambda k: k[0])

    def _sample_op(self, coefficients):
        """The operator of h at these coefficients: the folded ones at 0, on
        the range of the last kept one."""
        folded = {j + 2 for j, _ in self.folded}
        n = max((j + 3 for j, _, _ in self.kept), default=2)
        c = tuple(0.0 if k in folded else x for k, x in enumerate(coefficients[:n]))
        return BandedPeriodicOperator(replace(self.config, N=n), recipe=replace(self.recipe, coefficients=c))

    def _add(self, op):
        """Sample h at op = b + w A(0, -1, t), w > 0, and return its index,
        or set recipe None.  Every sample, of a constant blend too, proves
        its lower end q_lo, q less _MARGIN of its terms, by one count.  Where
        the solve ended on a count-1 factor, Temple's bound from the
        residual of the sample's own mode (v, q), which _mode returns with
        them, on that factor's shift proves it, if it lies
        within half _MARGIN of q (the other half is left for the rounding of
        q); else a count at q_lo must read 0.  A kept j's slope is scaled
        like u_j."""
        try:
            rep = coercivity_constant(op)
        except EigenSolveError:
            self.recipe = None
            return None
        v, q, _, r = _mode(op, rep.mode)  # q bounds c_min only on mean-zero fields
        slopes = [s * self.config.a * float(v @ unit.apply_values(v)) for _, s, unit in self.kept]
        scale = abs(q) + 1.0
        q_lo = q - _MARGIN * scale
        if rep.shift is None or q - _temple(r, q, rep.shift, self.config.a) > 0.5 * _MARGIN * scale:
            factored = _shifted_ldl(op, q_lo)
            if factored is None or factored[1] != 0:
                self.recipe = None
                return None
        b, w, t = self._split(op.recipe.coefficients)
        u = tuple([t[j] / s for j, s, _ in self.kept])
        plane = (q - b) / w - sum(map(mul, slopes, u))  # g_i's plane at u = 0
        self.points[u] = len(self.samples)
        self.samples.append((u, (q_lo - b) / w, plane, slopes))
        return self.points[u]

    def _walk(self, u):
        """(key, leaf, mu): u's Freudenthal-Kuhn simplex of the unit box,
        keyed by u's coordinates in descending order, with vertices
        x_0 = 0, ..., x_d = (1, ..., 1), x_k having ones at the key's first
        k; the leaf of its subdivision that holds u (None while its vertices
        are not all sampled); and u's barycentric weights on the leaf's
        vertices.  None outside the box.  Child i of a simplex split at p,
        of weights lam, swaps vertex i for p; u lies in the child of least
        r = mu_i / lam_i over lam_i > 0, with weights mu - r lam there and
        r at p.  A sample's u is a leaf of its own, whose key is None."""
        if u in self.points:
            return None, [[self.points[u]], None, None], [1.0]
        order = sorted(range(len(u)), key=u.__getitem__, reverse=True)
        ends = [1.0, *(u[j] for j in order), 0.0]
        mu = [x - y for x, y in zip(ends, ends[1:])]
        if min(mu) < 0.0:
            return None
        key = tuple(order)
        node = self.roots.get(key)
        while node is not None and node[1] is not None:
            _, lam, children = node
            r, i = min((m / l, i) for i, (m, l) in enumerate(zip(mu, lam)) if l > 0.0)
            mu = [m - l * r for m, l in zip(mu, lam)]
            mu[i] = r
            node = children[i]
        return key, node, mu

    def _refine(self, op, u, found):
        """Take the next round of samples for the stretch op at u, where
        _walk found found: the vertices of u's Kuhn simplex, if one is
        missing, else one at u, which splits the leaf that holds it."""
        self.bounds = None  # the samples or the simplices change below
        if self.samples and found is not None and found[1] is None:
            key, vertices = found[0], []
            for k in range(len(key) + 1):
                x = tuple(float(j in key[:k]) for j in range(len(u)))
                if x not in self.points:
                    t = [0.0] * (self.config.N - 2)
                    for xj, (j, s, _) in zip(x, self.kept):
                        t[j] = s * xj
                    if self._add(self._sample_op((0.0, -1.0, *t))) is None:
                        return
                vertices.append(self.points[x])
            self.roots[key] = [vertices, None, None]
            return
        i = self._add(self._sample_op(op.recipe.coefficients) if self.folded else op)
        if i is not None and found is not None and found[1] is not None:
            leaf, lam = found[1], found[2]
            leaf[1:] = lam, {
                k: [leaf[0][:k] + [i] + leaf[0][k + 1 :], None, None] for k, l in enumerate(lam) if l > 0.0
            }

    def record(self, op: BandedPeriodicOperator, gamma: float) -> StabilityRecord | None:
        """The stretch decided by its bracket [f_lo, f_hi] on c_min, or None.
        A vanished tail decides by c_1 alone, unless c_1 = 0.  Else the
        stretch qualifies with c_2 < 0, the first stretch's config and its
        blend: the same object, or equal values (a pure kind reads a fresh
        constant blend per stretch)."""
        r1 = self.recipe
        r = None if r1 is None else op.recipe
        split = None if r is None else self._split(r.coefficients)
        if split is None:
            return None
        b, w, t = split
        if not w:  # c_min = c_1, which decides nothing at 0 (or NaN)
            return StabilityRecord(gamma, b > 0.0, None, b, "pencil") if abs(b) > 0.0 else None
        if not (r.beta is r1.beta or np.array_equal(r.beta, r1.beta)) or (
            op.config is not self.config and op.config != self.config
        ):
            return None
        if self.kept is None:
            self._frame(t)
        u = tuple([t[j] / s for j, s, _ in self.kept])
        eps = sum([abs(t[j]) * rho for j, rho in self.folded])
        for last in (False, True):
            if self.recipe is None:  # a sample just taken failed
                return None
            if self.bounds is None or self.bounds[0] != u:
                hi = min([g + sum(map(mul, s, u)) for _, _, g, s in self.samples], default=math.inf)
                found = self._walk(u)
                if found is None or found[1] is None:
                    lo = -math.inf
                else:
                    lo = sum([m * self.samples[i][1] for m, i in zip(found[2], found[1][0])])
                self.bounds = u, lo, hi, found
            _, lo, hi, found = self.bounds
            lo, hi = lo - eps, eps + hi
            f_lo, f_hi = b + w * lo, b + w * hi
            margin = _MARGIN * (abs(b) + w * (abs(hi) + 1.0))
            if f_lo > margin or f_hi < -margin:
                return StabilityRecord(gamma, f_lo > margin, None, f_hi, "pencil", (f_lo, f_hi))
            if last or u in self.points:
                return None
            self._refine(op, u, found)


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
    least integer L with L^p >= M, counted up from 1 in integers."""
    p = {"M^(1/5)": 5, "M^(1/3)": 3}.get(rule)
    if p is None:
        raise ValueError(f"unknown blend-size rule {rule!r}")
    L = 1
    while L**p < M:
        L += 1
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
